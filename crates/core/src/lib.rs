//! # dynbatch-core
//!
//! Shared model types for the `dynbatch` batch system — a Rust reproduction of
//! *"A Batch System with Fair Scheduling for Evolving Applications"*
//! (Prabhakaran et al., ICPP 2014).
//!
//! This crate is dependency-light on purpose: every other `dynbatch` crate —
//! the discrete-event simulator, the Maui-like scheduler, the Torque-like
//! server and the threaded daemon — speaks in terms of the types defined here.
//!
//! The central concepts, in paper terms:
//!
//! * [`job::JobClass`] — the Feitelson/Rudolph taxonomy (rigid, moldable,
//!   malleable, **evolving**). The paper's contribution is first-class
//!   scheduling support for *evolving* jobs: jobs that grow (or shrink) their
//!   own allocation at runtime via `tm_dynget()` / `tm_dynfree()`.
//! * [`exec::ExecutionModel`] — how a job's runtime responds to its
//!   allocation, including the dynamic-ESP evolving model (SET/DET linear
//!   reduction) and the Quadflow-style adaptive-mesh phase model.
//! * [`config::SchedulerConfig`] / [`config::DfsConfig`] — every
//!   administrator knob from the paper: `ReservationDepth`,
//!   `ReservationDelayDepth`, and the dynamic-fairness family
//!   (`DFSPolicy`, `DFSInterval`, `DFSDecay`, per-user/group
//!   `DFSDynDelayPerm` / `DFSTargetDelayTime` / `DFSSingleDelayTime`).
//! * [`time::SimTime`] / [`time::SimDuration`] — millisecond-resolution
//!   virtual time shared by the simulator and the wall-clock daemon.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod config;
pub mod error;
pub mod exec;
pub mod ids;
pub mod job;
pub mod json;
pub mod testkit;
pub mod time;

pub use config::{
    AllocPolicy, BackfillPolicy, CredLimits, DfsConfig, DfsPolicy, FairshareConfig, FairshareMode,
    PriorityWeights, SchedulerConfig,
};
pub use error::{Error, Result};
pub use exec::{ExecutionModel, Phase, PhasedModel, SpeedupModel};
pub use ids::{CredRegistry, GroupId, JobId, NodeId, QueueId, UserId};
pub use job::{Job, JobClass, JobOutcome, JobSpec, JobState, MalleableRange, OutcomeTotals};
pub use time::{SimDuration, SimTime};
