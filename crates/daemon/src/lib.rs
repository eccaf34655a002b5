//! # dynbatch-daemon
//!
//! The dynamic batch system as a deployment of daemons.
//!
//! Where `dynbatch-sim` drives the server/scheduler state machines over a
//! workload, this crate runs them as daemons that talk only by message:
//! one server daemon (hosting `pbs_server` + the Maui scheduler on the
//! simulator's event core), one `pbs_mom` daemon per compute node, and
//! client handles applications call into. The hop structure is the
//! paper's Fig 3:
//!
//! ```text
//! app ── tm_dynget ──► mother-superior mom ──► server ──► scheduler
//!                                                    ▼
//! app ◄── hostlist ─── mother-superior mom ◄── DynJoin (after grant)
//!                       ▲    │ dyn_join fan-out to each added mom
//!                       └────┘ (one ping/ack per newly allocated node)
//! ```
//!
//! Each daemon is a state machine stepped at an instant, and every
//! daemon-to-daemon message goes through one seam ([`wire`]'s `Net`): the
//! queue of deliveries of one ensemble ([`fault`]). One loop steps the
//! ensemble under either of two clocks:
//!
//! - [`DaemonHandle::start`]: on one thread (plus one per replication
//!   follower), paced by the wall clock, with no fault. The paper's Fig 12
//!   measures this round trip (sub-second for up to 10 nodes); the bench
//!   harness reproduces it with [`DaemonHandle::tm_dynget_timed`].
//! - [`DaemonHandle::simulate`]: on the caller's thread, in virtual time.
//!   This is the only place faults are injected: one [`FaultPlan`] drops,
//!   delays, duplicates and reorders deliveries, kills moms, crashes the
//!   server ([`ServerCrash`], in journal-record coordinates; with
//!   followers each is a leader kill) and faults the replication stream,
//!   and one seed is one exact trace.
//!
//! [`DaemonConfig`] is the deployment alone — nodes, cores, scheduler,
//! followers — and both drivers honour all of it. Each fact
//! lives in one place: a job's hostlist, parked `tm_dynget` caller and
//! in-flight fan-out in its mother superior's one entry for it, the
//! mother-superior directory in the server daemon (written where `RunJob`
//! is sent, cleared where the run ends), the server's deadlines in its
//! event core's queue. Every daemon message but a ping or ack is numbered
//! on its link and applied once, in send order.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod daemon;
pub mod fault;
mod mom;
pub mod wire;

pub use daemon::{DaemonConfig, DaemonHandle, Driver, Threads};
pub use fault::{FaultPlan, ServerCrash, Virtual};
pub use wire::{ClientReq, MomMsg, MomToServer, PeerMsg, ReplicationStatus, ServerCmd};
