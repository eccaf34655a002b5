//! The job tables: the server struct, the live table of queued and active
//! jobs, the retained-terminal table, and the one way from the first to
//! the second.
//!
//! Invariant owned here: every known job sits in exactly one table, and a
//! job leaves the live table only through [`PbsServer::retire`] — once,
//! when it turns terminal. Nothing a scheduler cycle walks grows with
//! history.

use super::checkpoint::Retirements;
use super::dyn_protocol::PendingDyn;
use crate::accounting::AccountingLog;
use crate::journal::Journal;
use dynbatch_cluster::Cluster;
use dynbatch_core::{AllocPolicy, Error, Job, JobId, Result, SimDuration, SimTime, UserId};
use dynbatch_sched::{ProfileDelta, QueuedSet, RunningSet, UsageHistory};
use std::collections::{btree_map, BTreeMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// A statistic bumped from `&self` paths. Atomic rather than `Cell` so the
/// server stays `Sync`; `Relaxed` throughout — it publishes no other data.
#[derive(Debug, Default)]
pub(super) struct Counter(AtomicU64);

impl Counter {
    pub(super) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    pub(super) fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

impl Clone for Counter {
    fn clone(&self) -> Self {
        Counter(AtomicU64::new(self.get()))
    }
}

/// Every retained job in id order: an ordered merge of the live table and
/// the retained-terminal table ([`PbsServer::jobs`]). Merges on the maps'
/// keys, so choosing a side never touches a `Job`.
struct AllJobs<'a> {
    live: btree_map::Iter<'a, JobId, Job>,
    terminal: btree_map::Iter<'a, JobId, Job>,
    /// The next unyielded entry of each table.
    next_live: Option<(&'a JobId, &'a Job)>,
    next_terminal: Option<(&'a JobId, &'a Job)>,
}

impl<'a> AllJobs<'a> {
    fn new(live: &'a BTreeMap<JobId, Job>, terminal: &'a BTreeMap<JobId, Job>) -> Self {
        let (mut live, mut terminal) = (live.iter(), terminal.iter());
        AllJobs {
            next_live: live.next(),
            next_terminal: terminal.next(),
            live,
            terminal,
        }
    }
}

impl<'a> Iterator for AllJobs<'a> {
    type Item = &'a Job;

    // `jobs()` hands this type to other crates; without the hint every
    // step there is an out-of-line call.
    #[inline]
    fn next(&mut self) -> Option<&'a Job> {
        let take_terminal = match (self.next_live, self.next_terminal) {
            (Some((l, _)), Some((t, _))) => t < l,
            (live, _) => live.is_none(),
        };
        let entry = if take_terminal {
            std::mem::replace(&mut self.next_terminal, self.terminal.next())
        } else {
            std::mem::replace(&mut self.next_live, self.live.next())
        };
        entry.map(|(_, job)| job)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.live.len()
            + self.terminal.len()
            + self.next_live.is_some() as usize
            + self.next_terminal.is_some() as usize;
        (n, Some(n))
    }
}

/// The extended Torque server.
#[derive(Debug, Clone)]
pub struct PbsServer {
    pub(super) cluster: Cluster,
    /// The **live** job table: queued and active jobs only. Everything a
    /// scheduler cycle walks (`snapshot`, the drain check, the counters)
    /// reads this map, so cycle cost is independent of how many jobs the
    /// server has ever finished. A job leaves it the moment it completes
    /// or is cancelled ([`PbsServer::retire`]).
    pub(super) jobs: BTreeMap<JobId, Job>,
    /// Retained terminal (completed/cancelled) jobs, kept for inspection
    /// and the durable image only — no per-cycle path reads it. Empty
    /// when `retain_terminal_jobs` is off.
    pub(super) terminal: BTreeMap<JobId, Job>,
    pub(super) dyn_pending: BTreeMap<JobId, PendingDyn>,
    /// The scheduler's view of the live table — what a [`Snapshot`]
    /// carries — kept up to date at the mutation sites that push
    /// [`ProfileDelta`]s, so a cycle is handed the view (two
    /// reference-count bumps) instead of rebuilding it from `jobs`.
    /// `running` holds exactly the active jobs, `queued` exactly the
    /// `Queued` ones, each as [`PbsServer::running_entry`] /
    /// [`PbsServer::queued_entry`] would build it now; debug builds check
    /// every snapshot against the walk ([`PbsServer::snapshot_walk`]).
    pub(super) running: RunningSet,
    pub(super) queued: QueuedSet,
    /// How many live jobs are `DynQueued`: each must have a `dyn_pending`
    /// entry, which is how a snapshot notices a breach without a walk.
    pub(super) dyn_queued: usize,
    pub(super) next_job_id: u64,
    pub(super) next_dyn_seq: u64,
    pub(super) alloc_policy: AllocPolicy,
    pub(super) accounting: AccountingLog,
    pub(super) guarantee_evolving: bool,
    /// What happened since the last incremental snapshot that its
    /// consumer cannot read off the view: running-set mutations, queued
    /// jobs deleted, usage segments closed — in occurrence order, under
    /// the contract of `dynbatch_sched::incremental`. Written through
    /// [`PbsServer::note`], drained by [`PbsServer::snapshot_incremental`].
    pub(super) deltas: Vec<ProfileDelta>,
    /// Continuity epoch: incremented per incremental snapshot, stamped
    /// into each drained [`DeltaLog`]. Zero until the first one — a server
    /// nobody drains records nothing.
    pub(super) snapshot_epoch: u64,
    /// The write-ahead journal, when durability is enabled
    /// ([`PbsServer::enable_journal`]). Every successful state mutation
    /// appends a record *after* taking effect, so the log tail is always
    /// consistent with in-memory state; crash points sit between records.
    pub(super) journal: Option<Journal>,
    /// Jobs that left the live table since the snapshots still in the
    /// journal ([`PbsServer::retire`]); empty while journaling is off.
    pub(super) retired: Retirements,
    /// Per-user historical usage in core-milliseconds, accumulated in
    /// constant-width segments: whenever a job's width changes or it
    /// leaves the machine, the segment ending now is charged at its
    /// actual width. Durable — snapshotted in [`ServerImage`] and
    /// reconstructed exactly by replay — so recovered fairshare
    /// priorities match a crash-free run byte-for-byte (the daemon used
    /// to keep this ledger in memory only and forfeit it on crash).
    pub(super) usage: BTreeMap<UserId, u64>,
    /// Open-segment cursor per active job: when its current
    /// constant-width segment started. The width is read from the job at
    /// charge time (segments close *before* any width mutation), so only
    /// the start instant needs recording.
    pub(super) usage_since: BTreeMap<JobId, SimTime>,
    /// Decayed per-user/per-queue resource-hour accounts (time-aware
    /// fairness), charged in lock-step with the `usage` ledger at exact
    /// segment-close instants. Always maintained (the charge is O(1));
    /// snapshotted bit-exactly in [`ServerImage`] so recovery is O(1) and
    /// byte-identical, like the raw ledger.
    pub(super) usage_hist: UsageHistory,
    /// Keep terminal (completed/cancelled) jobs in the job table for
    /// inspection (`true`, the default) or drop them as they terminate
    /// (`false` — bounded-memory replay of month-scale traces; their
    /// outcomes live on in the accounting ledger's totals and digest,
    /// and the usage ledger is charged before the drop).
    pub(super) retain_terminal_jobs: bool,
    /// Snapshots that met a `DynQueued` job with no pending-request entry
    /// (see [`PbsServer::invariant_breaches`]). Process-local, like the
    /// other soft state: not journalled.
    pub(super) invariant_breaches: Counter,
}

impl PbsServer {
    /// A server managing `cluster`, placing cores with `alloc_policy`.
    pub fn new(cluster: Cluster, alloc_policy: AllocPolicy) -> Self {
        let capacity = cluster.total_cores() as u64;
        PbsServer {
            cluster,
            jobs: BTreeMap::new(),
            terminal: BTreeMap::new(),
            dyn_pending: BTreeMap::new(),
            running: RunningSet::default(),
            queued: QueuedSet::default(),
            dyn_queued: 0,
            next_job_id: 1,
            next_dyn_seq: 0,
            alloc_policy,
            accounting: AccountingLog::new(),
            guarantee_evolving: false,
            deltas: Vec::new(),
            snapshot_epoch: 0,
            journal: None,
            retired: Retirements::default(),
            usage: BTreeMap::new(),
            usage_since: BTreeMap::new(),
            usage_hist: UsageHistory::new(SimDuration::from_hours(24), capacity),
            retain_terminal_jobs: true,
            invariant_breaches: Counter::default(),
        }
    }

    /// The managed cluster (read-only).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The accounting log of completed jobs.
    pub fn accounting(&self) -> &AccountingLog {
        &self.accounting
    }

    /// Enables or disables per-job outcome retention in the accounting
    /// log (see [`AccountingLog::set_retain`]). A new server retains —
    /// low-memory is a per-run choice. Note that
    /// [`PbsServer::image`] embeds the retained outcome log, so snapshots
    /// and state digests taken with retention off only cover live state
    /// plus the O(1) accounting derivatives.
    pub fn set_accounting_retention(&mut self, retain: bool) {
        self.accounting.set_retain(retain);
        // Turning retention off empties the outcome log under the
        // snapshots in the journal.
        self.retired.invalidate();
    }

    /// Whether terminal jobs stay in the job table (default: yes). With
    /// retention off, a job is dropped the moment it completes or is
    /// cancelled — after its outcome is recorded and its usage segment
    /// charged — so the table holds only live jobs and month-scale
    /// replays run in bounded memory. Turning retention off also sweeps
    /// jobs that are already terminal. Retention changes memory only:
    /// terminal jobs never sit in the table the scheduler cycle walks, so
    /// a retained run's cycles cost what an evicted run's do.
    pub fn set_job_retention(&mut self, retain: bool) {
        self.retain_terminal_jobs = retain;
        if !retain {
            self.terminal.clear();
        }
        // The sweep drops jobs without noting them one by one.
        self.retired.invalidate();
    }

    /// Moves a job that just turned terminal out of the live table — into
    /// the retained-terminal table, or nowhere with retention off. Runs
    /// last when [`PbsServer::execute`] applies a `Qdel` or a `Finish`:
    /// after the usage segment closed and the journal record (and any
    /// compacting snapshot it triggered) was written with the job still
    /// in place.
    pub(super) fn retire(&mut self, id: JobId) {
        let job = self.jobs.remove(&id).expect("retiring job is live");
        debug_assert!(job.state.is_terminal());
        if self.retain_terminal_jobs {
            self.terminal.insert(id, job);
        }
        // The next compaction copies live jobs; this one it has to be
        // told about, once: to bring its entry to its final state, or to
        // drop it. One not-taken branch while journaling is off.
        if let Some(journal) = &self.journal {
            self.retired.notes.push((journal.total_appended(), id));
        }
    }

    /// The error for a command naming a job that is not live: a retained
    /// terminal job is in the wrong state for `operation`, anything else
    /// (never submitted, or terminal and evicted) is unknown.
    pub(super) fn not_live(
        &self,
        id: JobId,
        operation: &'static str,
        state: &'static str,
    ) -> Error {
        if self.terminal.contains_key(&id) {
            Error::InvalidState {
                job: id,
                operation,
                state,
            }
        } else {
            Error::UnknownJob(id)
        }
    }

    /// Looks up a job, live or retained-terminal.
    pub fn job(&self, id: JobId) -> Result<&Job> {
        self.jobs
            .get(&id)
            .or_else(|| self.terminal.get(&id))
            .ok_or(Error::UnknownJob(id))
    }

    /// Iterates all known jobs — live and retained-terminal — in id order.
    /// O(history); per-cycle callers want [`PbsServer::live_jobs`].
    pub fn jobs(&self) -> impl Iterator<Item = &Job> {
        AllJobs::new(&self.jobs, &self.terminal)
    }

    /// Iterates the queued and active jobs in id order, skipping history.
    pub fn live_jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs.values()
    }

    /// Number of jobs in `Queued` state. O(1).
    pub fn queued_count(&self) -> usize {
        self.queued.len()
    }

    /// Number of jobs holding resources. O(1).
    pub fn active_count(&self) -> usize {
        self.running.len()
    }

    /// True when no job is queued or running — the workload has drained.
    pub fn is_drained(&self) -> bool {
        self.queued.is_empty() && self.running.is_empty()
    }
}
