//! # dynbatch-daemon
//!
//! A *real* (threaded, wall-clock) deployment of the dynamic batch system.
//!
//! Where `dynbatch-sim` drives the server/scheduler state machines in
//! virtual time, this crate runs them as live daemons: one server thread
//! (hosting `pbs_server` + the Maui scheduler on the simulator's event
//! core), one `pbs_mom` thread per compute node, and client handles
//! applications call into; a [`FaultPlan`] adds the chaos postman, which
//! carries delayed and duplicated messages. Messages travel over std
//! `mpsc` channels — the same hop structure as the paper's Fig 3:
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
//!
//! Each fact lives in one place: a parked `tm_dynget` caller in its
//! mother superior's job entry, the mother-superior directory in the
//! server thread (written where `RunJob` is sent, cleared where the run
//! ends), the server's deadlines in its event core's queue and the
//! postman's deliveries in one `dynbatch_simtime::EventQueue` — there is no
//! second deadline service.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod daemon;
pub mod fault;
pub mod wire;

pub use daemon::{DaemonConfig, DaemonHandle};
pub use fault::{FaultPlan, ServerCrash};
pub use wire::{ClientReq, MomMsg, PeerMsg, ReplicationStatus, ServerCmd};
