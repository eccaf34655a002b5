//! The `pbs_server` state machine, extended for dynamic allocation.
//!
//! The server owns the cluster and the job table. Every input that changes
//! them is a journal [`Record`](crate::journal::Record), applied — and, on
//! a journaling server, appended — by [`PbsServer::execute`]: live, in
//! recovery and on a replication follower alike. Through it the server:
//!
//! * queues submissions (`qsub`) and deletions (`qdel`);
//! * accepts forwarded `tm_dynget()` requests, moving the job into the
//!   special `DynQueued` state (paper Fig 3, step 3) — at most one pending
//!   dynamic request per job;
//! * accepts `tm_dynfree()` releases immediately (paper: "a release
//!   operation is rarely unsuccessful");
//! * records job exits, negotiation expiries and node failures/repairs.
//!
//! It also builds the [`Snapshot`](dynbatch_sched::Snapshot) each
//! scheduler iteration starts from, and [`PbsServer::apply`] applies the
//! [`IterationOutcome`](dynbatch_sched::IterationOutcome) to real cluster
//! state, reporting the concrete effects ([`Applied`]) so the driver
//! (simulator or daemon) can deliver hostlists and schedule completions.
//!
//! One child module per concern, each stating the invariant it owns:
//! `tables` (the job tables), `checkpoint` (journal, images, recovery),
//! `dyn_protocol` (`tm_dynget` / `tm_dynfree`), `usage` (the usage
//! ledger), `execute` (the record `match`) and `cycle` (the scheduler
//! view, snapshots and `apply`).

mod checkpoint;
mod cycle;
mod dyn_protocol;
mod execute;
mod tables;
#[cfg(test)]
mod tests;
mod usage;

pub use cycle::Applied;
pub use execute::Effect;
pub use tables::PbsServer;

#[cfg(test)]
pub(crate) use checkpoint::compaction_work;
#[cfg(test)]
pub(crate) use execute::submit;
