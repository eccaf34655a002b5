//! # dynbatch-sched
//!
//! The Maui-like scheduler with dynamic fairness for evolving jobs — the
//! primary contribution of the reproduced paper.
//!
//! The crate is a pure planning library: [`maui::Maui::iterate`] maps a
//! [`snapshot::Snapshot`] of the cluster/queue state to an
//! [`maui::IterationOutcome`] of decisions, with no I/O, no clock and no
//! cluster mutation. Both the discrete-event simulator (`dynbatch-sim`)
//! and the threaded daemon (`dynbatch-daemon`) drive this exact code.
//!
//! Module map:
//!
//! * [`timeline`] — the availability step function all planning reduces to
//!   (windowed, allocation-free hot paths; see its complexity notes);
//! * [`reference`] — the naive executable specification the timeline is
//!   property-checked and benchmarked against;
//! * [`incremental`] — the delta-maintained base profile carried across
//!   iterations (with its rebuild-equivalence contract);
//! * [`priority`] / [`fairshare`] — classic Maui job prioritisation;
//! * [`usage_history`] — decayed resource-hour accounts behind the
//!   time-aware fairshare mode, budgets and heavy-user DFS penalties;
//! * [`plan`] — sequential earliest-start planning (reservations,
//!   StartNow/StartLater, delay what-ifs);
//! * [`dfs`] — the dynamic-fairness engine (paper §III-D);
//! * [`maui`] — the extended scheduling iteration (paper Algorithm 2);
//! * [`snapshot`] / [`reservation`] — the value types crossing the
//!   scheduler boundary;
//! * `wire` — the binary encoding of an applied outcome.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dfs;
pub mod fairshare;
pub mod incremental;
pub mod maui;
pub mod plan;
pub mod priority;
pub mod reference;
pub mod reservation;
pub mod snapshot;
pub mod timeline;
pub mod usage_history;
mod wire;

pub use dfs::{DelayCharge, DfsEngine, DfsReject, DfsVerdict};
pub use fairshare::FairshareTracker;
pub use incremental::{
    profile_from_running, DeltaLog, IncrementalTimeline, ProfileDelta, TimelineStats,
};
pub use maui::{mold_fit, DynDecision, IterationOutcome, Maui, ResizeDecision, StartDecision};
pub use plan::plan_starts;
pub use priority::{priority_of, rank_jobs, FairnessView, Priority, RankStats};
pub use reservation::{PlannedStart, Reservation, StartKind};
pub use snapshot::{DynRequest, QueuedJob, QueuedSet, RunningJob, RunningSet, Snapshot};
pub use timeline::{planned_end, AvailabilityProfile, OVERDUE_GRACE};
pub use usage_history::{DecayedAccount, UsageHistory, UsageSnapshot};
