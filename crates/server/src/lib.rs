//! # dynbatch-server
//!
//! The Torque-like resource manager, extended for dynamic allocation.
//!
//! Its modules:
//!
//! * [`messages`] — the protocol vocabulary of the paper's Figs 2–4
//!   (client ↔ server ↔ mom, plus the extended TM API with
//!   `tm_dynget()` / `tm_dynfree()`); the moms that speak it are daemons
//!   of `dynbatch-daemon`;
//! * [`server`] — the `pbs_server` state machine: job lifecycle, the
//!   `DynQueued` state, snapshot production for the scheduler and outcome
//!   application back onto the cluster;
//! * [`journal`] — the write-ahead state journal (the `server_priv/`
//!   analogue): append-only mutation records plus compacting snapshots,
//!   which [`server::PbsServer::recover`] feeds to a follower for crash
//!   recovery;
//! * [`codec`] — the binary encoding of records, images and replication
//!   frames: the wire's one spelling, and the bytes replicas compare;
//! * [`replication`] — journal streaming to follower replicas, and
//!   leader failover; recovery runs its follower;
//! * [`reactor`] — the multi-tenant command front-end: ticket-ordered
//!   admission of concurrent client commands with group-commit acks
//!   released only once the batch's journal records are appended.
//!
//! Everything is a pure state machine over message values so that the
//! discrete-event simulator (`dynbatch-sim`) and the daemon ensemble
//! (`dynbatch-daemon`) execute the identical server code.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod accounting;
pub mod codec;
pub mod journal;
pub mod messages;
pub mod reactor;
pub mod replication;
pub mod server;
#[cfg(test)]
mod table_props;

pub use accounting::AccountingLog;
pub use journal::{Journal, PendingDynImage, Record, ServerImage};
pub use messages::{ServerToMom, TmRequest, TmResponse};
pub use reactor::{
    BatchEvent, Command, Reactor, ReactorClient, ReactorConnector, ReactorStats, Reply,
};
pub use replication::{
    FailoverReport, Follower, FollowerLink, HubConfig, HubStats, ReplicationHub,
};
pub use server::{Applied, Effect, PbsServer};
