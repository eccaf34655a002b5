//! # dynbatch-daemon
//!
//! A *real* (threaded, wall-clock) deployment of the dynamic batch system.
//!
//! Where `dynbatch-sim` drives the server/scheduler state machines in
//! virtual time, this crate runs them as live daemons: one server thread
//! (hosting `pbs_server` + the Maui scheduler), one `pbs_mom` thread per
//! compute node, and client handles applications call into. Messages
//! travel over std `mpsc` channels — the same hop structure as the paper's
//! Fig 3:
//!
//! ```text
//! app ── tm_dynget ──► mother-superior mom ──► server ──► scheduler
//!                                                    ▼
//! app ◄── hostlist ─── mother-superior mom ◄── DynJoin (after grant)
//!                       ▲    │ dyn_join fan-out to each added mom
//!                       └────┘ (one ping/ack per newly allocated node)
//! ```
//!
//! The paper's Fig 12 measures exactly this round trip (sub-second for up
//! to 10 nodes); the bench harness reproduces it with
//! [`DaemonHandle::tm_dynget_timed`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod daemon;
pub mod fault;
pub mod timer;
pub mod wire;

pub use daemon::{DaemonConfig, DaemonHandle};
pub use fault::{FaultPlan, ServerCrash};
pub use timer::{TimerHandle, TimerId, TimerService};
pub use wire::{ClientReq, MomMsg, PeerMsg, ReplicationStatus, ServerCmd};
