//! # dynbatch-server
//!
//! The Torque-like resource manager, extended for dynamic allocation.
//!
//! Its modules:
//!
//! * [`messages`] — the protocol vocabulary of the paper's Figs 2–4
//!   (client ↔ server ↔ mom, plus the extended TM API with
//!   `tm_dynget()` / `tm_dynfree()`);
//! * [`server`] — the `pbs_server` state machine: job lifecycle, the
//!   `DynQueued` state, snapshot production for the scheduler and outcome
//!   application back onto the cluster;
//! * [`mom`] — the per-node `pbs_mom` state machine: mother-superior
//!   hostlist tracking, `dyn_join` / `dyn_disjoin`;
//! * [`journal`] — the write-ahead state journal (the `server_priv/`
//!   analogue): append-only mutation records plus compacting snapshots,
//!   which [`server::PbsServer::recover`] feeds to a follower for crash
//!   recovery;
//! * [`replication`] — journal streaming to follower replicas, and
//!   leader failover; recovery runs its follower;
//! * [`reactor`] — the multi-tenant command front-end: ticket-ordered
//!   admission of concurrent client commands with group-commit acks
//!   released only once the batch's journal records are appended.
//!
//! Everything is a pure state machine over message values so that the
//! discrete-event simulator (`dynbatch-sim`) and the threaded daemon
//! (`dynbatch-daemon`) execute the identical protocol code.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod accounting;
pub mod journal;
pub mod messages;
pub mod mom;
pub mod reactor;
pub mod replication;
pub mod server;
#[cfg(test)]
mod table_props;

pub use accounting::AccountingLog;
pub use journal::{Journal, PendingDynImage, Record, ServerImage};
pub use messages::{MomToServer, ServerToMom, TmRequest, TmResponse};
pub use mom::{Mom, MomOutput};
pub use reactor::{
    BatchEvent, Command, Reactor, ReactorClient, ReactorConnector, ReactorStats, Reply,
};
pub use replication::{
    FailoverReport, Follower, FollowerHandle, HubConfig, HubStats, PumpReport, ReplFaultPlan,
    ReplicationHub,
};
pub use server::{Applied, Effect, PbsServer};
