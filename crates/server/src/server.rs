//! The `pbs_server` state machine, extended for dynamic allocation.
//!
//! The server owns the cluster and the job table. Every input that changes
//! them is a journal [`Record`], applied — and, on a journaling server,
//! appended — by [`PbsServer::execute`]: live, in recovery and on a
//! replication follower alike. Through it the server:
//!
//! * queues submissions (`qsub`) and deletions (`qdel`);
//! * accepts forwarded `tm_dynget()` requests, moving the job into the
//!   special `DynQueued` state (paper Fig 3, step 3) — at most one pending
//!   dynamic request per job;
//! * accepts `tm_dynfree()` releases immediately (paper: "a release
//!   operation is rarely unsuccessful");
//! * records job exits, negotiation expiries and node failures/repairs.
//!
//! It also builds the [`Snapshot`] each scheduler iteration starts from,
//! and [`PbsServer::apply`] applies the [`IterationOutcome`] to real
//! cluster state, reporting the concrete effects ([`Applied`]) so the
//! driver (simulator or daemon) can deliver hostlists and schedule
//! completions.

use crate::accounting::AccountingLog;
use crate::journal::{self, Journal, PendingDynImage, Record, ServerImage};
use dynbatch_cluster::{Allocation, Cluster};
use dynbatch_core::{
    AllocPolicy, Error, FairshareMode, Job, JobId, JobOutcome, JobSpec, JobState, Result,
    SimDuration, SimTime, UserId,
};
use dynbatch_sched::{
    DeltaLog, DfsReject, DynDecision, DynRequest, IterationOutcome, Maui, ProfileDelta, QueuedJob,
    QueuedSet, RunningJob, RunningSet, Snapshot, UsageHistory, OVERDUE_GRACE,
};
use std::collections::{btree_map, BTreeMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// A pending dynamic request held at the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingDyn {
    extra_cores: u32,
    seq: u64,
    /// Negotiation deadline; `None` = reject-immediately protocol.
    deadline: Option<SimTime>,
}

impl PendingDyn {
    /// Whether a negotiated request's deadline has passed at `now`.
    fn is_due(&self, now: SimTime) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

/// A concrete effect of applying a scheduling outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Applied {
    /// A queued job started on `alloc`.
    Started {
        /// The job.
        job: JobId,
        /// Its allocation (the hostlist sent to the mother superior).
        alloc: Allocation,
        /// Whether it was started by backfill.
        backfilled: bool,
    },
    /// A dynamic request was granted; `added` is the new hostlist returned
    /// through `tm_dynget()`.
    DynGranted {
        /// The evolving job.
        job: JobId,
        /// The added hosts.
        added: Allocation,
    },
    /// A dynamic request was rejected.
    DynRejected {
        /// The evolving job.
        job: JobId,
        /// Why.
        reason: DfsReject,
    },
    /// A negotiated dynamic request was deferred: it stays queued at the
    /// server, and the scheduler's availability estimate is relayed.
    DynDeferred {
        /// The evolving job.
        job: JobId,
        /// The scheduler's earliest-availability hint.
        available_hint: Option<SimTime>,
    },
    /// A backfilled job was preempted (requeued) to serve a dynamic
    /// request.
    Preempted {
        /// The victim.
        job: JobId,
    },
    /// A running malleable job was resized by the batch system (shrunk to
    /// serve a dynamic request, or grown onto idle cores).
    Resized {
        /// The malleable job.
        job: JobId,
        /// Cores before.
        from_cores: u32,
        /// Cores after.
        to_cores: u32,
        /// The hosts added (grow) or removed (shrink).
        changed: Allocation,
    },
}

/// What [`PbsServer::execute`] did with a record: only what some caller
/// reads back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// A `Submit` queued its job under this id.
    Submitted(JobId),
    /// A `NodeFailed` took the node down and requeued these jobs — perhaps
    /// none.
    Requeued(Vec<JobId>),
    /// An expiry timed out these jobs' pending requests.
    Expired(Vec<JobId>),
    /// Any other record took effect.
    Done,
    /// The record changed nothing, so nothing was journalled: an expiry
    /// with nothing due, or an outcome that decides nothing.
    Unchanged,
}

/// A statistic bumped from `&self` paths. Atomic rather than `Cell` so the
/// server stays `Sync`; `Relaxed` throughout — it publishes no other data.
#[derive(Debug, Default)]
struct Counter(AtomicU64);

impl Counter {
    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

impl Clone for Counter {
    fn clone(&self) -> Self {
        Counter(AtomicU64::new(self.get()))
    }
}

/// Which jobs left the live table since which journal position — what
/// lets a compaction patch the image it discards instead of imaging the
/// whole table again ([`PbsServer::patched_image`]). A live job is copied
/// into every image, so nothing about it needs noting; a terminal job
/// never changes again, so the one thing to note is the moment a job
/// stops being live ([`PbsServer::retire`]).
#[derive(Debug, Clone, Default)]
struct Retirements {
    /// One note per job retired while journaling: the journal's
    /// `total_appended` at that moment, and the id. Stamps never decrease.
    /// A snapshot appended at position `p` was taken after every
    /// retirement noted with a stamp below `p` and before every one noted
    /// at or above it.
    notes: Vec<(u64, JobId)>,
    /// The notes are complete for snapshots at or after this position:
    /// every difference between such an image and the server is a live
    /// job, a noted one, an accounting outcome appended since, or a field
    /// a compaction rebuilds anyway. `None` while no snapshot in the
    /// journal qualifies.
    complete_from: Option<u64>,
}

impl Retirements {
    /// Notes written from here on describe the snapshot at `pos`, which
    /// was imaged from the whole table, and everything after it.
    fn restart_at(&mut self, pos: u64) {
        self.notes.clear();
        self.complete_from = Some(pos);
    }

    /// No snapshot in the journal can be patched any more: the server
    /// changed, or is about to change, in ways nobody noted.
    fn invalidate(&mut self) {
        self.notes.clear();
        self.complete_from = None;
    }

    /// The retirements noted since the snapshot at `pos`, oldest first,
    /// or `None` when that snapshot predates the notes.
    fn since(&self, pos: u64) -> Option<&[(u64, JobId)]> {
        if pos < self.complete_from? {
            return None;
        }
        let first = self.notes.partition_point(|&(stamp, _)| stamp < pos);
        Some(&self.notes[first..])
    }

    /// Drops the notes no snapshot left in the journal needs: the next
    /// compaction hands back one at `oldest_snapshot` or later.
    fn trim(&mut self, oldest_snapshot: u64) {
        let keep = self
            .notes
            .partition_point(|&(stamp, _)| stamp < oldest_snapshot);
        self.notes.drain(..keep);
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
    cluster: Cluster,
    /// The **live** job table: queued and active jobs only. Everything a
    /// scheduler cycle walks (`snapshot`, the drain check, the counters)
    /// reads this map, so cycle cost is independent of how many jobs the
    /// server has ever finished. A job leaves it the moment it completes
    /// or is cancelled ([`PbsServer::retire`]).
    jobs: BTreeMap<JobId, Job>,
    /// Retained terminal (completed/cancelled) jobs, kept for inspection
    /// and the durable image only — no per-cycle path reads it. Empty
    /// when `retain_terminal_jobs` is off.
    terminal: BTreeMap<JobId, Job>,
    dyn_pending: BTreeMap<JobId, PendingDyn>,
    /// The scheduler's view of the live table — what a [`Snapshot`]
    /// carries — kept up to date at the mutation sites that push
    /// [`ProfileDelta`]s, so a cycle is handed the view (two
    /// reference-count bumps) instead of rebuilding it from `jobs`.
    /// `running` holds exactly the active jobs, `queued` exactly the
    /// `Queued` ones, each as [`PbsServer::running_entry`] /
    /// [`PbsServer::queued_entry`] would build it now; debug builds check
    /// every snapshot against the walk ([`PbsServer::snapshot_walk`]).
    running: RunningSet,
    queued: QueuedSet,
    /// How many live jobs are `DynQueued`: each must have a `dyn_pending`
    /// entry, which is how a snapshot notices a breach without a walk.
    dyn_queued: usize,
    next_job_id: u64,
    next_dyn_seq: u64,
    alloc_policy: AllocPolicy,
    accounting: AccountingLog,
    guarantee_evolving: bool,
    /// What happened since the last incremental snapshot that its
    /// consumer cannot read off the view: running-set mutations, queued
    /// jobs deleted, usage segments closed — in occurrence order, under
    /// the contract of `dynbatch_sched::incremental`. Written through
    /// [`PbsServer::note`], drained by [`PbsServer::snapshot_incremental`].
    deltas: Vec<ProfileDelta>,
    /// Continuity epoch: incremented per incremental snapshot, stamped
    /// into each drained [`DeltaLog`]. Zero until the first one — a server
    /// nobody drains records nothing.
    snapshot_epoch: u64,
    /// The write-ahead journal, when durability is enabled
    /// ([`PbsServer::enable_journal`]). Every successful state mutation
    /// appends a record *after* taking effect, so the log tail is always
    /// consistent with in-memory state; crash points sit between records.
    journal: Option<Journal>,
    /// Jobs that left the live table since the snapshots still in the
    /// journal ([`PbsServer::retire`]); empty while journaling is off.
    retired: Retirements,
    /// Per-user historical usage in core-milliseconds, accumulated in
    /// constant-width segments: whenever a job's width changes or it
    /// leaves the machine, the segment ending now is charged at its
    /// actual width. Durable — snapshotted in [`ServerImage`] and
    /// reconstructed exactly by replay — so recovered fairshare
    /// priorities match a crash-free run byte-for-byte (the daemon used
    /// to keep this ledger in memory only and forfeit it on crash).
    usage: BTreeMap<UserId, u64>,
    /// Open-segment cursor per active job: when its current
    /// constant-width segment started. The width is read from the job at
    /// charge time (segments close *before* any width mutation), so only
    /// the start instant needs recording.
    usage_since: BTreeMap<JobId, SimTime>,
    /// Decayed per-user/per-queue resource-hour accounts (time-aware
    /// fairness), charged in lock-step with the `usage` ledger at exact
    /// segment-close instants. Always maintained (the charge is O(1));
    /// snapshotted bit-exactly in [`ServerImage`] so recovery is O(1) and
    /// byte-identical, like the raw ledger.
    usage_hist: UsageHistory,
    /// Keep terminal (completed/cancelled) jobs in the job table for
    /// inspection (`true`, the default) or drop them as they terminate
    /// (`false` — bounded-memory replay of month-scale traces; their
    /// outcomes live on in the accounting ledger's totals and digest,
    /// and the usage ledger is charged before the drop).
    retain_terminal_jobs: bool,
    /// Snapshots that met a `DynQueued` job with no pending-request entry
    /// (see [`PbsServer::invariant_breaches`]). Process-local, like the
    /// other soft state: not journalled, zeroed by `reset`.
    invariant_breaches: Counter,
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

    /// Rewinds the server to the just-constructed state over a fresh
    /// `cluster`, **retaining** the accounting ledger's storage. Sweep
    /// workers recycle one server across hundreds of runs this way
    /// instead of reallocating per run; the result is indistinguishable
    /// from [`PbsServer::new`].
    pub fn reset(&mut self, cluster: Cluster, alloc_policy: AllocPolicy) {
        self.cluster = cluster;
        self.jobs.clear();
        self.terminal.clear();
        self.dyn_pending.clear();
        self.running = RunningSet::default();
        self.queued = QueuedSet::default();
        self.dyn_queued = 0;
        self.next_job_id = 1;
        self.next_dyn_seq = 0;
        self.alloc_policy = alloc_policy;
        self.accounting.clear();
        self.guarantee_evolving = false;
        self.deltas.clear();
        self.snapshot_epoch = 0;
        self.journal = None;
        self.retired.invalidate();
        self.usage.clear();
        self.usage_since.clear();
        self.usage_hist = UsageHistory::new(
            self.usage_hist.half_life(),
            self.cluster.total_cores() as u64,
        );
        self.retain_terminal_jobs = true;
        self.invariant_breaches = Counter::default();
    }

    /// Turns on write-ahead journaling: a genesis snapshot is written, and
    /// every subsequent mutation appends a record. `snapshot_every` sets
    /// the compaction interval — once that many records accumulate after
    /// the last snapshot, the history is replaced by a fresh compacting
    /// snapshot (`0` disables compaction; crash-sweep tests rely on stable
    /// record indices).
    pub fn enable_journal(&mut self, snapshot_every: usize) {
        let mut j = Journal::new();
        j.set_snapshot_every(snapshot_every);
        // Full image: genesis has no predecessor.
        j.append(Record::Snapshot(Box::new(self.image())));
        self.retired.restart_at(j.total_appended());
        self.journal = Some(j);
    }

    /// The journal, when enabled.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Raises the journal's compaction retain floor (no-op without a
    /// journal) — replication drivers call this with their replicated
    /// watermark + 1 so compaction never discards records a follower
    /// still needs to stream.
    pub fn journal_retain_from(&mut self, pos: u64) {
        if let Some(j) = self.journal.as_mut() {
            j.set_retain_floor(pos);
        }
    }

    /// Detaches the journal (e.g. to recover from it after a simulated
    /// crash); journaling is off afterwards.
    pub fn take_journal(&mut self) -> Option<Journal> {
        self.retired.invalidate();
        self.journal.take()
    }

    /// Where the retirement notes reach back to (see `Retirements`).
    #[cfg(test)]
    pub(crate) fn patchable_from(&self) -> Option<u64> {
        self.retired.complete_from
    }

    /// Entries waiting in the delta log.
    #[cfg(test)]
    pub(crate) fn delta_log_len(&self) -> usize {
        self.deltas.len()
    }

    /// Appends a record and compacts when the interval is reached. Called
    /// from two places, [`PbsServer::execute`] and [`PbsServer::apply`],
    /// each only after its mutation took effect, so a compacting snapshot
    /// always captures a state consistent with the log tail.
    fn log(&mut self, record: Record) {
        let journal = self.journal.as_mut().expect("journal enabled");
        journal.append(record);
        if journal.wants_snapshot() {
            // The journal steps aside while the image is taken: building
            // it reads the rest of `self`.
            let mut journal = self.journal.take().expect("journal enabled");
            journal.compact(|discarded| {
                let patched = discarded.and_then(|(pos, old)| self.patched_image(old, pos));
                if let Some(patched) = &patched {
                    debug_assert_eq!(*patched, self.image(), "patched snapshot diverged");
                }
                // Full image: no snapshot was discarded (the retain floor
                // kept them all), or the newest one discarded predates
                // the retirement notes — the first compaction after
                // `recover` or a retention flip.
                patched.unwrap_or_else(|| {
                    #[cfg(test)]
                    compaction_work::record(compaction_work::Work::default());
                    self.image()
                })
            });
            if self.retired.complete_from.is_none() {
                self.retired.restart_at(journal.total_appended());
            }
            let oldest = journal.oldest_snapshot_pos().expect("just appended one");
            self.retired.trim(oldest);
            self.journal = Some(journal);
        }
    }

    /// Captures the full durable state — the payload of snapshot records,
    /// and (serialised) the canonical digest the crash-recovery suite
    /// compares byte-for-byte. Scheduler-coupling soft state (the
    /// `ProfileDelta` buffer and snapshot epoch) is excluded: recovery
    /// breaks timeline continuity and the scheduler rebuilds on the first
    /// epoch gap.
    ///
    /// O(every retained job + the accounting log). Compactions avoid it
    /// ([`PbsServer::patched_image`]); it stays the reference they are
    /// checked against.
    pub fn image(&self) -> ServerImage {
        // One merged pass over both tables. `repeat_with(..).take(n)` has
        // an exact length, so the 240-byte entries are built in place;
        // collecting `jobs()` itself copies each once more.
        let mut all = self.jobs();
        let n = self.jobs.len() + self.terminal.len();
        let jobs = std::iter::repeat_with(|| {
            self.image_entry(all.next().expect("jobs() is as long as both tables"))
        })
        .take(n)
        .collect();
        self.image_around(jobs, self.accounting.outcomes().to_vec())
    }

    /// A job as an image holds it: the job and its exact allocation.
    fn image_entry(&self, job: &Job) -> (Job, Option<Allocation>) {
        (job.clone(), self.cluster.allocation_of(job.id).cloned())
    }

    /// An image with the given history-sized lists and every other field
    /// — O(nodes + users + active jobs + pending requests) together —
    /// read from the server now.
    fn image_around(
        &self,
        jobs: Vec<(Job, Option<Allocation>)>,
        outcomes: Vec<JobOutcome>,
    ) -> ServerImage {
        ServerImage {
            next_job_id: self.next_job_id,
            next_dyn_seq: self.next_dyn_seq,
            alloc_policy: self.alloc_policy,
            guarantee_evolving: self.guarantee_evolving,
            node_cores: self.cluster.nodes().map(|n| n.cores_total()).collect(),
            down_nodes: self
                .cluster
                .nodes()
                .filter(|n| !n.is_up())
                .map(|n| n.id())
                .collect(),
            jobs,
            dyn_pending: self.pending_dyn_requests().collect(),
            outcomes,
            usage: self.usage.iter().map(|(&u, &ms)| (u, ms)).collect(),
            usage_since: self.usage_since.iter().map(|(&j, &at)| (j, at)).collect(),
            usage_hist: self.usage_hist.clone(),
        }
    }

    /// [`PbsServer::image`] at the cost of the live table: `old`, the
    /// snapshot appended at journal position `pos`, brought up to date in
    /// place. A job that was already terminal at `pos` is byte for byte
    /// what `old` holds, so only the live jobs and the ones retired since
    /// are copied again; the accounting log only grows, so only its new
    /// tail is; the small fields are read afresh. `None` when the
    /// retirement notes do not reach back to `pos`.
    fn patched_image(&self, old: ServerImage, pos: u64) -> Option<ServerImage> {
        let retired = self.retired.since(pos)?;
        let ServerImage {
            mut jobs,
            mut outcomes,
            ..
        } = old;
        // `jobs[..known]` is what the old image held, in id order.
        let known = jobs.len();
        let mut next = 0;
        let mut evicted = Vec::new();
        #[cfg(test)]
        let mut copied = 0;
        // Brings one id up to date; ids must come in ascending order.
        // `job` is `None` for a job dropped with retention off.
        let mut patch = |id: JobId, job: Option<&Job>| {
            // Each search starts where the last one ended and gallops:
            // live jobs sit side by side or a few terminal ones apart.
            let rest = &jobs[next..known];
            let mut reach = 0;
            while rest.get(reach).is_some_and(|(held, _)| held.id < id) {
                reach = 2 * reach + 1;
            }
            let window = &rest[reach / 2..rest.len().min(reach + 1)];
            let found = window.binary_search_by_key(&id, |(held, _)| held.id);
            let (Ok(skip) | Err(skip)) = found;
            next += reach / 2 + skip;
            let held = found.is_ok();
            #[cfg(test)]
            {
                copied += usize::from(job.is_some());
            }
            match job {
                Some(job) if held => jobs[next] = self.image_entry(job),
                // Submitted since `pos`: ids only grow, so it sorts after
                // everything the old image held and after every new id
                // appended before it.
                Some(job) => {
                    if jobs.len() == jobs.capacity() {
                        // The server's largest single allocation grows by
                        // an eighth, not by `push`'s doubling.
                        jobs.reserve_exact(jobs.len() / 8 + 1);
                    }
                    jobs.push(self.image_entry(job));
                }
                // Terminal and dropped (retention off).
                None if held => evicted.push(id),
                // Submitted and dropped since `pos`.
                None => {}
            }
            next += usize::from(held);
        };
        // What may differ from `old`: every live job and every job retired
        // since — two ascending runs of ids, merged as they are read. A
        // job is live until it retires, once, so no id comes up twice.
        let mut retired_ids: Vec<JobId> = retired.iter().map(|&(_, id)| id).collect();
        retired_ids.sort_unstable();
        let mut retired_ids = retired_ids.into_iter().peekable();
        for (&id, job) in &self.jobs {
            while let Some(retired) = retired_ids.next_if(|&retired| retired < id) {
                patch(retired, self.terminal.get(&retired));
            }
            patch(id, Some(job));
        }
        for retired in retired_ids {
            patch(retired, self.terminal.get(&retired));
        }
        if !evicted.is_empty() {
            jobs.retain(|(job, _)| evicted.binary_search(&job.id).is_err());
        }
        let recorded = self.accounting.outcomes();
        let had = outcomes.len();
        outcomes.extend_from_slice(&recorded[had..]);
        #[cfg(test)]
        compaction_work::record(compaction_work::Work {
            patched_from: Some(pos),
            jobs: copied,
            outcomes: recorded.len() - had,
            retired: retired
                .iter()
                .filter(|(_, id)| self.terminal.contains_key(id))
                .count(),
            evicted: evicted.len(),
        });
        Some(self.image_around(jobs, outcomes))
    }

    /// The serialised [`PbsServer::image`]: a deterministic, byte-comparable
    /// digest of the durable state.
    pub fn state_digest(&self) -> String {
        journal::image_to_json(&self.image()).to_string_compact()
    }

    /// Rebuilds a server from a snapshot image — the public face of the
    /// recovery loader, used by replication followers installing a
    /// catch-up snapshot. Journaling is off on the rebuilt server.
    pub fn from_image(img: &ServerImage) -> Result<PbsServer> {
        Self::restore(img)
    }

    /// Rebuilds a server from a snapshot image: cluster shape, node
    /// up/down state, exact per-job allocations, job table, pending
    /// negotiations and the accounting log.
    fn restore(img: &ServerImage) -> Result<PbsServer> {
        let mut cluster = Cluster::from_core_counts(&img.node_cores);
        for &n in &img.down_nodes {
            cluster.fail_node(n)?;
        }
        for (job, alloc) in &img.jobs {
            if let Some(alloc) = alloc {
                cluster.adopt(job.id, alloc)?;
            }
        }
        // Each table is bulk-built from its (still id-ordered) share of
        // the image's list. `repeat_with(..).take(n)` has an exact length,
        // which lets `collect` build every fat entry in place.
        let n_terminal = img
            .jobs
            .iter()
            .filter(|(j, _)| j.state.is_terminal())
            .count();
        let table = |terminal: bool, len: usize| -> BTreeMap<JobId, Job> {
            let mut share = img
                .jobs
                .iter()
                .filter(|(j, _)| j.state.is_terminal() == terminal);
            std::iter::repeat_with(|| {
                let (job, _) = share.next().expect("counted above");
                (job.id, job.clone())
            })
            .take(len)
            .collect()
        };
        let mut accounting = AccountingLog::new();
        for o in &img.outcomes {
            accounting.record(o.clone());
        }
        let mut server = PbsServer {
            cluster,
            jobs: table(false, img.jobs.len() - n_terminal),
            terminal: table(true, n_terminal),
            running: RunningSet::default(),
            queued: QueuedSet::default(),
            dyn_queued: 0,
            dyn_pending: img
                .dyn_pending
                .iter()
                .map(|p| {
                    (
                        p.job,
                        PendingDyn {
                            extra_cores: p.extra_cores,
                            seq: p.seq,
                            deadline: p.deadline,
                        },
                    )
                })
                .collect(),
            next_job_id: img.next_job_id,
            next_dyn_seq: img.next_dyn_seq,
            alloc_policy: img.alloc_policy,
            accounting,
            guarantee_evolving: img.guarantee_evolving,
            deltas: Vec::new(),
            snapshot_epoch: 0,
            journal: None,
            retired: Retirements::default(),
            usage: img.usage.iter().copied().collect(),
            usage_since: img.usage_since.iter().copied().collect(),
            usage_hist: img.usage_hist.clone(),
            retain_terminal_jobs: true,
            invariant_breaches: Counter::default(),
        };
        server.rebuild_view();
        Ok(server)
    }

    /// Crash recovery: rebuilds the server a journal describes by loading
    /// its latest snapshot record and executing every record after it —
    /// with the journal detached, so nothing is appended twice. The
    /// journal is then re-installed, so the recovered server keeps
    /// journaling where the crashed one stopped.
    ///
    /// Invariant (pinned by the crash-at-every-record sweep): recovered
    /// state ≡ crash-free state, byte-for-byte.
    pub fn recover(journal: Journal) -> Result<PbsServer> {
        let mut server = {
            let records = journal.records();
            let last_snap = records
                .iter()
                .rposition(|r| matches!(r, Record::Snapshot(_)))
                .ok_or_else(|| Error::BadConfig("journal has no snapshot record".into()))?;
            let Record::Snapshot(img) = &records[last_snap] else {
                unreachable!("rposition matched a snapshot");
            };
            let mut server = Self::restore(img)?;
            for record in &records[last_snap + 1..] {
                server.execute(record.clone())?;
            }
            server
        };
        server.journal = Some(journal);
        Ok(server)
    }

    /// Every pending dynamic request, in job-id order — the daemon re-arms
    /// negotiation-expiry timers from this after recovery.
    pub fn pending_dyn_requests(&self) -> impl Iterator<Item = PendingDynImage> + '_ {
        self.dyn_pending.iter().map(|(&job, p)| PendingDynImage {
            job,
            extra_cores: p.extra_cores,
            seq: p.seq,
            deadline: p.deadline,
        })
    }

    /// Cores currently pre-reserved (held but idle) under the
    /// guaranteeing policy.
    pub fn reserved_unused_cores(&self) -> u32 {
        self.running.iter().map(|r| r.reserved_extra).sum()
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
    /// log (see [`AccountingLog::set_retain`]). `reset` restores the
    /// default (retained) — low-memory is a per-run choice. Note that
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
    /// a retained run's cycles cost what an evicted run's do. Restored by
    /// [`PbsServer::reset`].
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
    fn retire(&mut self, id: JobId) {
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
    fn not_live(&self, id: JobId, operation: &'static str, state: &'static str) -> Error {
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

    /// How many snapshots met a `DynQueued` job without a pending-request
    /// entry. The two are written together by every mutation path, so a
    /// non-zero count means corrupted state (e.g. a damaged image); the
    /// snapshot serves such a job as "no request this cycle" — and test
    /// builds panic instead.
    pub fn invariant_breaches(&self) -> u64 {
        self.invariant_breaches.get()
    }

    /// Per-user historical usage in core-milliseconds (closed segments
    /// only), in user-id order — what the first delta log after a
    /// recovery re-seeds the scheduler's fairshare tracker with.
    pub fn usage(&self) -> impl Iterator<Item = (UserId, u64)> + '_ {
        self.usage.iter().map(|(&u, &ms)| (u, ms))
    }

    /// Total core-milliseconds charged to `user` so far (excluding the
    /// still-open segment of any active job).
    pub fn usage_core_millis(&self, user: UserId) -> u64 {
        self.usage.get(&user).copied().unwrap_or(0)
    }

    /// The decayed per-user/per-queue resource-hour accounts (time-aware
    /// fairness), charged in lock-step with [`PbsServer::usage`].
    pub fn usage_history(&self) -> &UsageHistory {
        &self.usage_hist
    }

    /// Sets the decay half-life of the time-aware usage accounts. Call
    /// before [`PbsServer::enable_journal`] and before any job runs —
    /// changing the half-life mid-history would silently reinterpret
    /// already-decayed charges, so this only takes effect while the
    /// accounts are empty.
    pub fn set_usage_half_life(&mut self, half_life: SimDuration) {
        if self.usage_hist.is_empty() {
            self.usage_hist.set_half_life(half_life);
        }
    }

    /// Opens the usage cursor for a job that just started holding cores.
    fn usage_open(&mut self, id: JobId, now: SimTime) {
        self.usage_since.insert(id, now);
    }

    /// Charges the open segment `[since, now)` at the job's *current*
    /// width and restarts the cursor at `now`. Must run after the last
    /// fallible step of a mutation but **before** `cores_allocated`
    /// changes, so every charged segment has constant width and a failed
    /// command leaves the ledger untouched (replay equivalence).
    fn usage_mark(&mut self, id: JobId, now: SimTime) {
        let (Some(since), Some(job)) = (self.usage_since.get_mut(&id), self.jobs.get(&id)) else {
            return;
        };
        let span = now.duration_since(*since).as_millis();
        *since = now;
        let core_ms = job.cores_allocated as u64 * span;
        let (user, queue) = (job.spec.user, job.spec.effective_queue());
        *self.usage.entry(user).or_insert(0) += core_ms;
        if core_ms > 0 {
            // Charge-at-close: the whole segment lands at its close
            // instant in the decayed accounts (a segment is at most one
            // width-change interval long, far shorter than any sensible
            // half-life, so the approximation error is negligible — and
            // replay re-issues the identical charge sequence, keeping
            // recovery byte-exact).
            self.usage_hist.charge(user, queue, core_ms, now);
            self.note(ProfileDelta::Charged {
                user,
                core_ms,
                at: now,
            });
        }
    }

    /// Charges the final segment and drops the cursor (finish, qdel,
    /// preempt, node failure).
    fn usage_close(&mut self, id: JobId, now: SimTime) {
        self.usage_mark(id, now);
        self.usage_since.remove(&id);
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

    /// Applies one state change and, when this server journals and the
    /// record changed something, appends *that same record* — the one way
    /// a client command, a mom report, a timer, crash recovery and a
    /// replication follower reach durable state (recovery detaches the
    /// journal and a follower has none, so neither appends again). A
    /// refused record changes nothing and earns the error; so does a
    /// snapshot record, which only ever arrives as a recovery point.
    ///
    /// What counts as a change, and so what is appended, is decided here
    /// once: a `Guarantee` and a `NodeFailed` (even one that requeues
    /// nothing) always count; an expiry counts only when a request timed
    /// out, and an `Outcome` only when it decides something.
    pub fn execute(&mut self, record: Record) -> Result<Effect> {
        let (effect, record) = match record {
            Record::Snapshot(_) => {
                return Err(Error::BadConfig(
                    "snapshot record after the recovery point".into(),
                ))
            }
            // The spec moves into its job: a journaling server keeps a copy
            // for the record.
            Record::Submit { spec, now } => {
                self.admit(&spec)?;
                let record = self.journal.is_some().then(|| Record::Submit {
                    spec: spec.clone(),
                    now,
                });
                (Effect::Submitted(self.submit(spec, now)), record)
            }
            record @ Record::Qdel { job, now } => {
                self.qdel(job, now)?;
                (Effect::Done, Some(record))
            }
            record @ Record::DynGet {
                job,
                extra_cores,
                deadline,
                ..
            } => {
                self.dynget(job, extra_cores, deadline)?;
                (Effect::Done, Some(record))
            }
            Record::DynFree { job, released, now } => {
                self.dynfree(job, &released, now)?;
                (Effect::Done, Some(Record::DynFree { job, released, now }))
            }
            record @ Record::Finish { job, now } => {
                self.finish(job, now)?;
                (Effect::Done, Some(record))
            }
            Record::Outcome { outcome, now } => {
                self.apply_outcome(&outcome, now);
                let effect = if decides_nothing(&outcome) {
                    Effect::Unchanged
                } else {
                    Effect::Done
                };
                (effect, Some(Record::Outcome { outcome, now }))
            }
            // A request that was granted, rejected or superseded (another
            // `seq`) since the timer was armed is not due: a stale expiry
            // can never revoke a grant nor kill a successor request.
            record @ Record::ExpireOne { job, seq, now } => {
                let due = self
                    .dyn_pending
                    .get(&job)
                    .is_some_and(|p| p.seq == seq && p.is_due(now));
                (
                    self.expire(if due { vec![job] } else { Vec::new() }),
                    Some(record),
                )
            }
            record @ Record::ExpireSweep { now } => {
                let due = self.dyn_pending.iter().filter(|(_, p)| p.is_due(now));
                let due: Vec<JobId> = due.map(|(&job, _)| job).collect();
                (self.expire(due), Some(record))
            }
            record @ Record::NodeFailed { node, now } => {
                let victims = self.node_failed(node, now)?;
                (Effect::Requeued(victims), Some(record))
            }
            record @ Record::NodeRepaired { node } => {
                self.cluster.repair_node(node)?;
                self.note(ProfileDelta::CapacityChanged);
                (Effect::Done, Some(record))
            }
            // The guaranteeing site policy (paper §II-B): queued jobs'
            // pre-reserves follow it.
            record @ Record::Guarantee { on } => {
                if self.guarantee_evolving != on {
                    self.guarantee_evolving = on;
                    self.rebuild_view();
                }
                (Effect::Done, Some(record))
            }
        };
        // A deleted or finished job stays in the live table until its
        // record — and any compacting snapshot the append triggers — is
        // written: the snapshot images it in place, and its retirement
        // note carries the record's position.
        let retiring = match &record {
            Some(Record::Qdel { job, .. } | Record::Finish { job, .. }) => Some(*job),
            _ => None,
        };
        if let Some(record) =
            record.filter(|_| self.journal.is_some() && effect != Effect::Unchanged)
        {
            self.log(record);
        }
        if let Some(id) = retiring {
            self.retire(id);
        }
        Ok(effect)
    }

    /// `qsub`'s checks: a valid spec the machine could ever run.
    fn admit(&self, spec: &JobSpec) -> Result<()> {
        spec.validate().map_err(Error::BadSpec)?;
        if spec.cores > self.cluster.total_cores() {
            return Err(Error::RequestExceedsSystem {
                requested: spec.cores,
                capacity: self.cluster.total_cores(),
            });
        }
        Ok(())
    }

    /// `qsub`: queues an admitted job under the next id. The id is implied
    /// by replay order; only the inputs are journalled.
    fn submit(&mut self, spec: JobSpec, now: SimTime) -> JobId {
        let id = JobId(self.next_job_id);
        self.next_job_id += 1;
        let job = Job::new(id, spec, now);
        self.queued.push(self.queued_entry(&job));
        self.jobs.insert(id, job);
        id
    }

    /// `qdel`: cancels a job, releasing resources if it was active.
    fn qdel(&mut self, id: JobId, now: SimTime) -> Result<()> {
        let Some(job) = self.jobs.get_mut(&id) else {
            return Err(self.not_live(id, "qdel", "terminal"));
        };
        let was = std::mem::replace(&mut job.state, JobState::Cancelled);
        job.end_time = Some(now);
        if was.is_active() {
            self.cluster.release_all(id)?;
            self.usage_close(id, now);
            self.dyn_pending.remove(&id);
            self.left_machine(id, was);
        } else {
            self.queued.remove(id);
            self.note(ProfileDelta::LeftQueue { job: id });
        }
        Ok(())
    }

    /// The mother superior forwarded a `tm_dynget()` — queue it and move
    /// the job to `DynQueued` (paper Fig 3, steps 2–3). Rejects a second
    /// pending request for the same job. With a `deadline` the request is
    /// negotiated (paper §III-C future work): an unservable request stays
    /// queued at the server until then — the scheduler reconsiders it
    /// every iteration and reports availability estimates — instead of
    /// failing straight back; a `Record::ExpireOne` or `ExpireSweep`
    /// times it out.
    fn dynget(&mut self, id: JobId, extra_cores: u32, deadline: Option<SimTime>) -> Result<()> {
        let Some(job) = self.jobs.get_mut(&id) else {
            return Err(self.not_live(id, "tm_dynget", "not running"));
        };
        match job.state {
            JobState::Running => {}
            JobState::DynQueued => return Err(Error::DynRequestPending(id)),
            _ => {
                return Err(Error::InvalidState {
                    job: id,
                    operation: "tm_dynget",
                    state: "not running",
                })
            }
        }
        if extra_cores == 0 {
            return Err(Error::BadSpec("dynamic request for zero cores".into()));
        }
        job.state = JobState::DynQueued;
        self.dyn_queued += 1;
        job.dyn_requests += 1;
        let seq = self.next_dyn_seq;
        self.next_dyn_seq += 1;
        self.dyn_pending.insert(
            id,
            PendingDyn {
                extra_cores,
                seq,
                deadline,
            },
        );
        Ok(())
    }

    /// A `tm_dynfree()` release: takes effect immediately (paper Fig 4).
    fn dynfree(&mut self, id: JobId, released: &Allocation, now: SimTime) -> Result<()> {
        let Some(job) = self.jobs.get_mut(&id) else {
            return Err(self.not_live(id, "tm_dynfree", "not active"));
        };
        if !job.state.is_active() {
            return Err(Error::InvalidState {
                job: id,
                operation: "tm_dynfree",
                state: "not active",
            });
        }
        let total = released.total_cores();
        if total >= job.cores_allocated {
            return Err(Error::BadSpec(
                "tm_dynfree may release only a proper subset of the allocation".into(),
            ));
        }
        self.cluster.release_partial(id, released)?;
        self.usage_mark(id, now);
        let job = self.jobs.get_mut(&id).expect("checked above");
        job.cores_allocated -= total;
        self.resized(id);
        Ok(())
    }

    /// The application exited: release everything and record the outcome.
    fn finish(&mut self, id: JobId, now: SimTime) -> Result<()> {
        let Some(job) = self.jobs.get_mut(&id) else {
            return Err(self.not_live(id, "finish", "not active"));
        };
        // Validate everything before the first mutation: an out-of-order
        // finish (double delivery, stale timer) must deny, never panic.
        let Some(start_time) = job.start_time.filter(|_| job.state.is_active()) else {
            return Err(Error::InvalidState {
                job: id,
                operation: "finish",
                state: "not active",
            });
        };
        let was = std::mem::replace(&mut job.state, JobState::Completed);
        job.end_time = Some(now);
        self.dyn_pending.remove(&id);
        self.cluster.release_all(id)?;
        self.usage_close(id, now);
        self.left_machine(id, was);
        let job = &self.jobs[&id];
        self.accounting.record(JobOutcome {
            id,
            name: job.spec.name.clone(),
            user: job.spec.user,
            class: job.spec.class,
            cores_requested: job.spec.cores,
            cores_final: job.cores_allocated,
            submit_time: job.submit_time,
            start_time,
            end_time: now,
            dyn_requests: job.dyn_requests,
            dyn_grants: job.dyn_grants,
            backfilled: job.backfilled,
        });
        Ok(())
    }

    /// The scheduler's view of the current state (paper Algorithm 2, steps
    /// 2–3). The running and queued sets are the maintained ones, shared
    /// with the snapshot by reference count — O(1) however deep the queue
    /// — and only the pending requests (whose remaining walltime depends
    /// on `now`) are built per call. While the snapshot is alive the next
    /// mutation of a set copies it first, so drivers drop the snapshot
    /// before [`PbsServer::apply`].
    pub fn snapshot(&self, now: SimTime) -> Snapshot {
        let mut dyn_requests = Vec::with_capacity(self.dyn_pending.len());
        let mut served = 0;
        for (id, pending) in &self.dyn_pending {
            let Some(job) = self.jobs.get(id).filter(|j| j.state == JobState::DynQueued) else {
                continue;
            };
            served += 1;
            if let Some(remaining_walltime) = job.remaining_walltime(now) {
                dyn_requests.push(Self::dyn_request(job, pending, remaining_walltime));
            }
        }
        // Every `DynQueued` job has a pending entry, so `served` is their
        // number; a shortfall is an invariant breach. A release daemon
        // degrades it to "no request this cycle" and counts it; test
        // builds fail loudly.
        for _ in served..self.dyn_queued {
            self.invariant_breaches.bump();
        }
        debug_assert!(
            served >= self.dyn_queued,
            "{} DynQueued job(s) without a pending request",
            self.dyn_queued - served
        );
        let snap = Snapshot {
            now,
            total_cores: self.cluster.total_cores(),
            running: self.running.clone(),
            queued: self.queued.clone(),
            dyn_requests,
            usage: None,
            deltas: None,
        };
        debug_assert!(
            {
                let walk = self.snapshot_walk(now);
                (snap.running == walk.running)
                    && (snap.queued == walk.queued)
                    && (snap.dyn_requests == walk.dyn_requests)
            },
            "maintained scheduler view diverged from the live-table walk at {now}"
        );
        snap
    }

    /// The executable spec of [`PbsServer::snapshot`]: the same view built
    /// from scratch by one in-order walk of the live table, as every
    /// snapshot was before the view was maintained. Debug builds compare
    /// the two on every snapshot; `table_props` after every operation.
    pub(crate) fn snapshot_walk(&self, now: SimTime) -> Snapshot {
        self.snapshot_of(self.live_jobs(), now)
    }

    /// The walk over *every* retained job, as the snapshot ran before
    /// terminal jobs left the live table.
    #[cfg(test)]
    pub(crate) fn snapshot_full_scan(&self, now: SimTime) -> Snapshot {
        self.snapshot_of(self.jobs(), now)
    }

    fn snapshot_of<'a>(&self, jobs: impl Iterator<Item = &'a Job>, now: SimTime) -> Snapshot {
        let mut running = Vec::new();
        let mut queued = Vec::new();
        let mut dyn_requests = Vec::new();
        for job in jobs {
            match job.state {
                JobState::Running | JobState::DynQueued => {
                    running.push(Self::running_entry(job));
                    if job.state == JobState::DynQueued {
                        let Some(pending) = self.dyn_pending.get(&job.id) else {
                            // Invariant breach (see `snapshot`).
                            self.invariant_breaches.bump();
                            debug_assert!(false, "{}: DynQueued without a pending request", job.id);
                            continue;
                        };
                        if let Some(remaining_walltime) = job.remaining_walltime(now) {
                            dyn_requests.push(Self::dyn_request(job, pending, remaining_walltime));
                        }
                    }
                }
                JobState::Queued => queued.push(self.queued_entry(job)),
                _ => {}
            }
        }
        Snapshot {
            now,
            total_cores: self.cluster.total_cores(),
            running: running.into(),
            queued: queued.into(),
            dyn_requests,
            usage: None,
            deltas: None,
        }
    }

    /// How the scheduler sees an active job.
    fn running_entry(job: &Job) -> RunningJob {
        RunningJob {
            id: job.id,
            user: job.spec.user,
            group: job.spec.group,
            cores: job.cores_allocated,
            start_time: job.start_time.expect("running job started"),
            walltime_end: job.walltime_end().expect("running job started"),
            backfilled: job.backfilled,
            reserved_extra: job.reserved_extra,
            malleable: job.spec.malleable,
        }
    }

    /// How the scheduler sees a queued job.
    fn queued_entry(&self, job: &Job) -> QueuedJob {
        QueuedJob {
            id: job.id,
            user: job.spec.user,
            group: job.spec.group,
            queue: job.spec.effective_queue(),
            cores: job.spec.cores,
            walltime: job.spec.walltime,
            submit_time: job.submit_time,
            priority_boost: job.spec.priority_boost,
            suppress_backfill_while_queued: job.spec.suppress_backfill_while_queued,
            reserve_extra: self.reserve_for(job),
            moldable: job.spec.moldable,
        }
    }

    /// How the scheduler sees a `DynQueued` job's pending request. A job
    /// past its walltime still holds its cores for `OVERDUE_GRACE` in the
    /// scheduler's profile, and so must cores granted to it: a zero-length
    /// hold would leave them free for a second grant or a start in the
    /// same iteration.
    fn dyn_request(job: &Job, pending: &PendingDyn, remaining_walltime: SimDuration) -> DynRequest {
        DynRequest {
            job: job.id,
            user: job.spec.user,
            group: job.spec.group,
            extra_cores: pending.extra_cores,
            remaining_walltime: remaining_walltime.max(OVERDUE_GRACE),
            seq: pending.seq,
            deadline: pending.deadline,
        }
    }

    /// Rebuilds the maintained view from the live table (image load; a
    /// policy flip that changes every queued job's pre-reserve).
    fn rebuild_view(&mut self) {
        let (mut running, mut queued) = (Vec::new(), Vec::new());
        self.dyn_queued = 0;
        for job in self.jobs.values() {
            match job.state {
                JobState::Running | JobState::DynQueued => {
                    running.push(Self::running_entry(job));
                    self.dyn_queued += usize::from(job.state == JobState::DynQueued);
                }
                JobState::Queued => queued.push(self.queued_entry(job)),
                _ => {}
            }
        }
        self.running = running.into();
        self.queued = queued.into();
    }

    /// Appends to the delta log — once somebody drains it. Until the
    /// first [`PbsServer::snapshot_incremental`] the log stays empty: that
    /// snapshot's log is self-contained, so nothing before it is owed.
    fn note(&mut self, delta: ProfileDelta) {
        if self.snapshot_epoch > 0 {
            self.deltas.push(delta);
        }
    }

    /// View and delta log: `id` (in state `was`) stopped holding cores —
    /// finished, killed, preempted, or lost to a node failure.
    fn left_machine(&mut self, id: JobId, was: JobState) {
        self.running.remove(id);
        self.dyn_queued -= usize::from(was == JobState::DynQueued);
        self.note(ProfileDelta::Finished { job: id });
    }

    /// View and delta log: the running job `id` changed width (its
    /// allocation or its pre-reserve).
    fn resized(&mut self, id: JobId) {
        let job = &self.jobs[&id];
        let entry = self.running.get_mut(id).expect("active job is in view");
        entry.cores = job.cores_allocated;
        entry.reserved_extra = job.reserved_extra;
        self.note(ProfileDelta::Resized {
            job: id,
            held_cores: job.cores_allocated + job.reserved_extra,
        });
    }

    /// View: `id` was requeued (preempted, or its node failed).
    fn requeued(&mut self, id: JobId) {
        let entry = self.queued_entry(&self.jobs[&id]);
        self.queued.push(entry);
    }

    /// A pending request was settled without a grant: the job, if still
    /// `DynQueued`, goes back to `Running`.
    fn request_settled(&mut self, id: JobId) {
        if let Some(job) = self.jobs.get_mut(&id) {
            if job.state == JobState::DynQueued {
                job.state = JobState::Running;
                self.dyn_queued -= 1;
            }
        }
    }

    /// Like [`PbsServer::snapshot`], but carries the delta log: drains
    /// what was recorded since the previous incremental snapshot and
    /// stamps it with continuity epochs, so the scheduler updates its
    /// availability profile by delta, wipes the DFS slates of deleted
    /// jobs and charges closed usage segments to static fairshare. The
    /// first log (`base_epoch == 0`) has no recorded history behind it
    /// and carries the usage ledger's totals instead.
    /// [`PbsServer::snapshot`] (which leaves `deltas` as `None` and drains
    /// nothing) remains available for out-of-band inspection; the
    /// scheduler simply rebuilds on the next epoch gap.
    pub fn snapshot_incremental(&mut self, now: SimTime) -> Snapshot {
        let mut snap = self.snapshot(now);
        let base_epoch = self.snapshot_epoch;
        self.snapshot_epoch += 1;
        let deltas = if base_epoch == 0 {
            let charged = |(&user, &core_ms): (&UserId, &u64)| ProfileDelta::Charged {
                user,
                core_ms,
                at: now,
            };
            let totals = self.usage.iter().filter(|(_, &core_ms)| core_ms > 0);
            totals.map(charged).collect()
        } else {
            std::mem::take(&mut self.deltas)
        };
        snap.deltas = Some(DeltaLog {
            base_epoch,
            epoch: self.snapshot_epoch,
            deltas,
        });
        snap
    }

    /// One scheduling cycle (paper Algorithm 2): the incremental snapshot
    /// — with the decayed usage accounts attached when `maui` runs
    /// time-aware fairshare — one `maui` iteration over it, and the
    /// outcome applied. Returns the outcome (for the driver's decision
    /// log) with its concrete effects. The snapshot is dropped before
    /// [`PbsServer::apply`], so the shared scheduler view is never copied.
    pub fn run_cycle(&mut self, maui: &mut Maui, now: SimTime) -> (IterationOutcome, Vec<Applied>) {
        let outcome = {
            let mut snap = self.snapshot_incremental(now);
            if maui.config().fairshare.mode == FairshareMode::TimeAware {
                snap.usage = Some(self.usage_hist.snapshot(now));
            }
            maui.iterate(&snap)
        };
        debug_assert!(self.told_all_usage(maui, now), "{now}: fairshare tracker");
        let applied = self.apply(&outcome, now);
        debug_assert!(
            { maui.dfs().delayed_jobs() }.all(|job| self.queued.get(job).is_some()),
            "{now}: a DFS delay slate outlived its job's stay in the queue"
        );
        (outcome, applied)
    }

    /// Whether `maui`, having just absorbed this server's delta log, holds
    /// the usage ledger in its static-fairshare tracker: every closed
    /// segment, none twice. (Once the oldest window has rotated out of the
    /// tracker it holds less, and nothing is checked.)
    fn told_all_usage(&self, maui: &Maui, now: SimTime) -> bool {
        let fs = maui.fairshare();
        let retained = fs.config().window * fs.config().windows as u64;
        let forgetful = !retained.is_zero() && now >= SimTime::ZERO + retained;
        forgetful
            || self.usage().all(|(user, core_ms)| {
                let (held, told) = (fs.charged(user), core_ms as f64 / 1000.0);
                (held - told).abs() <= 1e-9 * told.max(1.0)
            })
    }

    /// Applies a scheduler outcome to real state, in the scheduler's
    /// decision order: preemptions and grants first, then starts. A
    /// journaling server then appends the outcome reduced to what this
    /// reads — the one append outside [`PbsServer::execute`], whose
    /// `Outcome` arm (recovery, followers) runs the same body.
    ///
    /// # Panics
    /// If the scheduler's plan cannot be realised (it planned against the
    /// snapshot this server produced, so failure is a bookkeeping bug).
    pub fn apply(&mut self, outcome: &IterationOutcome, now: SimTime) -> Vec<Applied> {
        let applied = self.apply_outcome(outcome, now);
        if self.journal.is_some() && !decides_nothing(outcome) {
            self.log(Record::Outcome {
                outcome: journal::reduce_outcome(outcome),
                now,
            });
        }
        applied
    }

    /// [`PbsServer::apply`] without the append.
    fn apply_outcome(&mut self, outcome: &IterationOutcome, now: SimTime) -> Vec<Applied> {
        let mut applied = Vec::new();
        for decision in &outcome.dyn_decisions {
            match decision {
                DynDecision::Granted {
                    job,
                    extra_cores,
                    preempted,
                    shrunk,
                    ..
                } => {
                    for victim in preempted {
                        self.preempt(*victim, now).expect("preempt planned victim");
                        applied.push(Applied::Preempted { job: *victim });
                    }
                    for resize in shrunk {
                        applied.push(self.resize(*resize, now).expect("planned shrink applies"));
                    }
                    let added = self
                        .cluster
                        .expand(*job, *extra_cores, self.alloc_policy)
                        .expect("planned expansion must fit");
                    // Charge the pre-grant constant-width segment before
                    // the width grows.
                    self.usage_mark(*job, now);
                    debug_assert_eq!(self.jobs[job].state, JobState::DynQueued);
                    self.request_settled(*job);
                    let j = self.jobs.get_mut(job).expect("granted job exists");
                    j.cores_allocated += extra_cores;
                    j.dyn_grants += 1;
                    // Under the guaranteeing policy the grant consumes the
                    // job's own pre-reserve.
                    j.reserved_extra = j.reserved_extra.saturating_sub(*extra_cores);
                    self.resized(*job);
                    self.dyn_pending.remove(job);
                    applied.push(Applied::DynGranted { job: *job, added });
                }
                DynDecision::Rejected { job, reason } => {
                    self.request_settled(*job);
                    self.dyn_pending.remove(job);
                    applied.push(Applied::DynRejected {
                        job: *job,
                        reason: *reason,
                    });
                }
                DynDecision::Deferred {
                    job,
                    available_hint,
                    ..
                } => {
                    // Negotiation: the request stays pending (the job
                    // remains DynQueued and keeps executing); the next
                    // iteration reconsiders it with its original FIFO seq.
                    debug_assert!(self.dyn_pending.contains_key(job));
                    applied.push(Applied::DynDeferred {
                        job: *job,
                        available_hint: *available_hint,
                    });
                }
            }
        }

        for resize in &outcome.grows {
            applied.push(self.resize(*resize, now).expect("planned grow applies"));
        }

        for start in &outcome.starts {
            let reserve = self.reserve_for(self.jobs.get(&start.job).expect("started job exists"));
            let job = self.jobs.get_mut(&start.job).expect("started job exists");
            assert_eq!(
                job.state,
                JobState::Queued,
                "{}: start of non-queued job",
                start.job
            );
            // Moldable jobs start at the scheduler-chosen width.
            let cores = start.cores.unwrap_or(job.spec.cores);
            job.state = JobState::Running;
            job.start_time = Some(now);
            job.cores_allocated = cores;
            job.backfilled = start.backfilled;
            job.reserved_extra = reserve;
            let walltime_end = job.walltime_end().expect("just started");
            let entry = Self::running_entry(job);
            self.queued.remove(start.job);
            self.running.push(entry);
            let alloc = self
                .cluster
                .allocate(start.job, cores, self.alloc_policy)
                .expect("planned start must fit");
            self.note(ProfileDelta::Started {
                job: start.job,
                held_cores: cores + reserve,
                walltime_end,
            });
            self.usage_open(start.job, now);
            applied.push(Applied::Started {
                job: start.job,
                alloc,
                backfilled: start.backfilled,
            });
        }

        applied
    }

    /// A compute node failed: its allocations are lost and every affected
    /// job is requeued (progress lost). The returned list names the
    /// victims — the fault-tolerance hook the paper's introduction
    /// motivates (spare nodes can be dynamically allocated to them).
    fn node_failed(&mut self, node: dynbatch_core::NodeId, now: SimTime) -> Result<Vec<JobId>> {
        let victims = self.cluster.fail_node(node)?;
        for &v in &victims {
            // Release whatever the job still holds on surviving nodes.
            if self.cluster.allocation_of(v).is_some() {
                self.cluster.release_all(v)?;
            }
            self.usage_close(v, now);
            self.dyn_pending.remove(&v);
            let job = self.jobs.get_mut(&v).expect("victim is a known job");
            let was = std::mem::replace(&mut job.state, JobState::Queued);
            job.start_time = None;
            job.cores_allocated = 0;
            job.backfilled = false;
            self.left_machine(v, was);
            self.requeued(v);
        }
        self.shed_reserves();
        self.note(ProfileDelta::CapacityChanged);
        Ok(victims)
    }

    /// Under the guaranteeing policy a running job holds its pre-reserve
    /// in the scheduler's profile but not in the cluster, so a node failure
    /// can leave more held than the machine has. The youngest reserves go
    /// first until what is held fits again.
    fn shed_reserves(&mut self) {
        let held: u32 = self
            .running
            .iter()
            .map(|r| r.cores + r.reserved_extra)
            .sum();
        let mut over = held.saturating_sub(self.cluster.total_cores());
        if over == 0 {
            return;
        }
        let reserved: Vec<JobId> = self
            .running
            .iter()
            .rev()
            .filter(|r| r.reserved_extra > 0)
            .map(|r| r.id)
            .collect();
        for id in reserved {
            if over == 0 {
                break;
            }
            let job = self.jobs.get_mut(&id).expect("running job is live");
            let shed = job.reserved_extra.min(over);
            job.reserved_extra -= shed;
            over -= shed;
            self.resized(id);
        }
    }

    /// Applies a scheduler-initiated malleable resize.
    fn resize(&mut self, r: dynbatch_sched::ResizeDecision, now: SimTime) -> Result<Applied> {
        let job = self.jobs.get(&r.job).ok_or(Error::UnknownJob(r.job))?;
        if !job.state.is_active() {
            return Err(Error::InvalidState {
                job: r.job,
                operation: "resize",
                state: "not active",
            });
        }
        debug_assert_eq!(
            job.cores_allocated, r.from_cores,
            "{}: resize base mismatch",
            r.job
        );
        let changed = if r.to_cores > r.from_cores {
            self.cluster
                .expand(r.job, r.to_cores - r.from_cores, self.alloc_policy)?
        } else {
            let give_back = r.from_cores - r.to_cores;
            let mut alloc = self
                .cluster
                .allocation_of(r.job)
                .ok_or(Error::UnknownJob(r.job))?
                .clone();
            let part = alloc.take(give_back);
            self.cluster.release_partial(r.job, &part)?;
            part
        };
        self.usage_mark(r.job, now);
        let job = self.jobs.get_mut(&r.job).expect("checked above");
        job.cores_allocated = r.to_cores;
        self.resized(r.job);
        Ok(Applied::Resized {
            job: r.job,
            from_cores: r.from_cores,
            to_cores: r.to_cores,
            changed,
        })
    }

    /// The pre-reserve a job receives at start under the guaranteeing
    /// policy (its execution model's dynamic demand), 0 otherwise.
    fn reserve_for(&self, job: &Job) -> u32 {
        if self.guarantee_evolving && job.spec.class == dynbatch_core::JobClass::Evolving {
            job.spec.exec.extra_cores()
        } else {
            0
        }
    }

    /// The FIFO sequence number of `id`'s pending dynamic request, if one
    /// is queued. Expiry timers capture this so a firing can be matched
    /// against the *exact* request it was armed for (a `Record::ExpireOne`
    /// carries it).
    pub fn pending_dyn_seq(&self, id: JobId) -> Option<u64> {
        self.dyn_pending.get(&id).map(|p| p.seq)
    }

    /// Times out the pending requests of `due`: each job returns to
    /// `Running`, and the driver tells its application the request failed
    /// (it may retry). Nothing due is no change at all.
    fn expire(&mut self, due: Vec<JobId>) -> Effect {
        if due.is_empty() {
            return Effect::Unchanged;
        }
        for &id in &due {
            self.dyn_pending.remove(&id);
            self.request_settled(id);
        }
        Effect::Expired(due)
    }

    /// Requeues a running backfilled job (preempted for a dynamic request).
    /// Its progress is lost; it competes in the queue again.
    fn preempt(&mut self, id: JobId, now: SimTime) -> Result<()> {
        let job = self.jobs.get(&id).ok_or(Error::UnknownJob(id))?;
        if !job.state.is_active() {
            return Err(Error::InvalidState {
                job: id,
                operation: "preempt",
                state: "not active",
            });
        }
        self.cluster.release_all(id)?;
        self.usage_close(id, now);
        self.dyn_pending.remove(&id);
        let job = self.jobs.get_mut(&id).expect("checked above");
        let was = std::mem::replace(&mut job.state, JobState::Queued);
        job.start_time = None;
        job.cores_allocated = 0;
        job.backfilled = false;
        self.left_machine(id, was);
        self.requeued(id);
        Ok(())
    }
}

/// An outcome with no start, dynamic decision or grow mutates nothing, and
/// is never journalled.
fn decides_nothing(outcome: &IterationOutcome) -> bool {
    outcome.starts.is_empty() && outcome.dyn_decisions.is_empty() && outcome.grows.is_empty()
}

/// Test shorthand: executes a `Submit` and hands back the id it assigned.
#[cfg(test)]
pub(crate) fn submit(s: &mut PbsServer, spec: JobSpec, now: SimTime) -> Result<JobId> {
    match s.execute(Record::Submit { spec, now })? {
        Effect::Submitted(id) => Ok(id),
        other => unreachable!("a submit has no {other:?}"),
    }
}

/// What the last compaction on this thread did — work counted, not timed.
#[cfg(test)]
pub(crate) mod compaction_work {
    use std::cell::Cell;

    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub(crate) struct Work {
        /// Position of the snapshot that was patched; `None` = full image.
        pub patched_from: Option<u64>,
        /// Job entries and accounting outcomes copied into the image.
        pub jobs: usize,
        pub outcomes: usize,
        /// Of those entries, the jobs retired since the patched snapshot;
        /// and the retired jobs dropped from the image (retention off).
        pub retired: usize,
        pub evicted: usize,
    }

    thread_local! {
        static LAST: Cell<Option<Work>> = const { Cell::new(None) };
    }

    pub(super) fn record(work: Work) {
        LAST.with(|last| last.set(Some(work)));
    }

    /// The work of the compaction since the previous call, if one ran.
    pub(crate) fn take() -> Option<Work> {
        LAST.with(Cell::take)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynbatch_core::{DfsConfig, ExecutionModel, GroupId, SchedulerConfig, SimDuration, UserId};
    use dynbatch_sched::Maui;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn rigid(name: &str, user: u32, cores: u32, secs: u64) -> JobSpec {
        JobSpec::rigid(
            name,
            UserId(user),
            GroupId(0),
            cores,
            SimDuration::from_secs(secs),
        )
    }

    fn server() -> PbsServer {
        PbsServer::new(Cluster::homogeneous(15, 8), AllocPolicy::Pack)
    }

    fn hp_maui() -> Maui {
        let mut cfg = SchedulerConfig::paper_eval();
        cfg.dfs = DfsConfig::highest_priority();
        Maui::new(cfg)
    }

    /// A `tm_dynget` without a negotiation window.
    fn dynget(job: JobId, extra_cores: u32, now: SimTime) -> Record {
        Record::DynGet {
            job,
            extra_cores,
            deadline: None,
            now,
        }
    }

    /// Drives one scheduler iteration against the server.
    fn cycle(server: &mut PbsServer, maui: &mut Maui, now: SimTime) -> Vec<Applied> {
        server.run_cycle(maui, now).1
    }

    #[test]
    fn qsub_then_start() {
        let mut s = server();
        let mut m = hp_maui();
        let id = submit(&mut s, rigid("A", 0, 16, 100), t(0)).unwrap();
        assert_eq!(s.queued_count(), 1);
        let applied = cycle(&mut s, &mut m, t(0));
        assert!(matches!(&applied[0], Applied::Started { job, .. } if *job == id));
        assert_eq!(s.job(id).unwrap().state, JobState::Running);
        assert_eq!(s.cluster().busy_cores(), 16);
        s.cluster().check_invariants().unwrap();
    }

    #[test]
    fn invalid_qsub_rejected() {
        let mut s = server();
        assert!(matches!(
            submit(&mut s, rigid("X", 0, 500, 100), t(0)),
            Err(Error::RequestExceedsSystem { .. })
        ));
        let mut bad = rigid("X", 0, 4, 100);
        bad.cores = 0;
        assert!(matches!(submit(&mut s, bad, t(0)), Err(Error::BadSpec(_))));
    }

    #[test]
    fn finish_records_outcome() {
        let mut s = server();
        let mut m = hp_maui();
        let id = submit(&mut s, rigid("A", 0, 16, 100), t(5)).unwrap();
        cycle(&mut s, &mut m, t(10));
        let finish = Record::Finish {
            job: id,
            now: t(110),
        };
        assert_eq!(s.execute(finish), Ok(Effect::Done));
        let [outcome] = s.accounting().outcomes() else {
            panic!("one outcome: {:?}", s.accounting().outcomes());
        };
        assert_eq!(outcome.wait(), SimDuration::from_secs(5));
        assert_eq!(outcome.runtime(), SimDuration::from_secs(100));
        assert_eq!(s.cluster().idle_cores(), 120);
        assert!(s.is_drained());
    }

    #[test]
    fn dynget_roundtrip_success() {
        let mut s = server();
        let mut m = hp_maui();
        let id = submit(
            &mut s,
            JobSpec::evolving(
                "F",
                UserId(6),
                GroupId(0),
                8,
                ExecutionModel::esp_evolving(1846, 1230, 4),
            ),
            t(0),
        )
        .unwrap();
        cycle(&mut s, &mut m, t(0));
        assert_eq!(s.job(id).unwrap().state, JobState::Running);

        // Application hits its threshold and calls tm_dynget.
        s.execute(dynget(id, 4, t(295))).unwrap();
        assert_eq!(s.job(id).unwrap().state, JobState::DynQueued);
        // A second request while one is pending is refused.
        assert!(matches!(
            s.execute(dynget(id, 4, t(296))),
            Err(Error::DynRequestPending(_))
        ));

        let applied = cycle(&mut s, &mut m, t(295));
        assert!(applied.iter().any(|a| matches!(
            a,
            Applied::DynGranted { job, added } if *job == id && added.total_cores() == 4
        )));
        let job = s.job(id).unwrap();
        assert_eq!(job.state, JobState::Running);
        assert_eq!(job.cores_allocated, 12);
        assert_eq!(job.dyn_requests, 1);
        assert_eq!(job.dyn_grants, 1);
        s.cluster().check_invariants().unwrap();
    }

    #[test]
    fn dynget_rejected_when_full() {
        let mut s = server();
        let mut m = hp_maui();
        let evolving = submit(
            &mut s,
            JobSpec::evolving(
                "F",
                UserId(6),
                GroupId(0),
                8,
                ExecutionModel::esp_evolving(1846, 1230, 4),
            ),
            t(0),
        )
        .unwrap();
        let filler = submit(&mut s, rigid("big", 1, 112, 2000), t(0)).unwrap();
        cycle(&mut s, &mut m, t(0));
        assert_eq!(s.cluster().idle_cores(), 0);
        let _ = filler;

        s.execute(dynget(evolving, 4, t(295))).unwrap();
        let applied = cycle(&mut s, &mut m, t(295));
        assert!(applied.iter().any(|a| matches!(
            a,
            Applied::DynRejected { job, reason: DfsReject::NoResources } if *job == evolving
        )));
        // Back to Running; the application may retry.
        assert_eq!(s.job(evolving).unwrap().state, JobState::Running);
        s.execute(dynget(evolving, 4, t(460))).unwrap();
        assert_eq!(s.job(evolving).unwrap().dyn_requests, 2);
    }

    #[test]
    fn dynfree_releases_subset() {
        let mut s = server();
        let mut m = hp_maui();
        let id = submit(&mut s, rigid("A", 0, 16, 1000), t(0)).unwrap();
        cycle(&mut s, &mut m, t(0));
        let alloc = s.cluster().allocation_of(id).unwrap().clone();
        let mut part = Allocation::empty();
        let (node, _) = alloc.entries().next().unwrap();
        part.add(node, 4);
        s.execute(Record::DynFree {
            job: id,
            released: part,
            now: t(100),
        })
        .unwrap();
        assert_eq!(s.job(id).unwrap().cores_allocated, 12);
        assert_eq!(s.cluster().idle_cores(), 108);
        // Releasing the entire allocation through tm_dynfree is refused.
        let all = s.cluster().allocation_of(id).unwrap().clone();
        assert!(s
            .execute(Record::DynFree {
                job: id,
                released: all,
                now: t(101)
            })
            .is_err());
        s.cluster().check_invariants().unwrap();
    }

    #[test]
    fn qdel_queued_and_running() {
        let mut s = server();
        let mut m = hp_maui();
        let a = submit(&mut s, rigid("A", 0, 8, 100), t(0)).unwrap();
        let b = submit(&mut s, rigid("B", 0, 8, 100), t(0)).unwrap();
        cycle(&mut s, &mut m, t(0));
        s.execute(Record::Qdel { job: a, now: t(10) }).unwrap();
        assert_eq!(s.job(a).unwrap().state, JobState::Cancelled);
        assert_eq!(s.cluster().cores_of(a), 0);
        s.execute(Record::Qdel { job: b, now: t(10) }).unwrap();
        assert!(s.is_drained());
        // Double delete fails.
        assert!(s.execute(Record::Qdel { job: a, now: t(11) }).is_err());
    }

    #[test]
    fn snapshot_reflects_state() {
        let mut s = server();
        let mut m = hp_maui();
        let a = submit(&mut s, rigid("A", 0, 100, 500), t(0)).unwrap();
        let b = submit(&mut s, rigid("B", 1, 100, 500), t(1)).unwrap();
        cycle(&mut s, &mut m, t(1));
        let snap = s.snapshot(t(2));
        assert_eq!(snap.running.len(), 1);
        assert_eq!(snap.running[0].id, a);
        assert_eq!(snap.queued.len(), 1);
        assert_eq!(snap.queued.iter().next().unwrap().id, b);
        assert_eq!(snap.total_cores, 120);
        assert!(snap.dyn_requests.is_empty());
    }

    /// With `enable_journal(1)` every record compacts: the newest record
    /// is a snapshot patched from the one before it.
    fn assert_newest_snapshot_is_fresh(s: &PbsServer) {
        let journal = s.journal().unwrap();
        let (pos, newest) = journal.latest_snapshot().unwrap();
        assert_eq!(pos, journal.total_appended());
        assert_eq!(*newest, s.image());
    }

    /// The maintained view against the walk it replaced (debug builds
    /// assert this inside every `snapshot`; this holds in release too).
    fn assert_view_is_the_walk(s: &PbsServer, now: SimTime) {
        let (view, walk) = (s.snapshot(now), s.snapshot_walk(now));
        assert_eq!(view.running, walk.running);
        assert_eq!(view.queued, walk.queued);
        assert_eq!(view.dyn_requests, walk.dyn_requests);
        assert_eq!(
            view.backfill_suppressed(),
            walk.queued.iter().any(|q| q.suppress_backfill_while_queued)
        );
        assert_eq!(s.queued_count(), walk.queued.len());
        assert_eq!(s.active_count(), walk.running.len());
    }

    #[test]
    fn view_follows_preemption_requeue_and_a_policy_flip() {
        let mut s = server();
        s.enable_journal(1);
        let mut cfg = SchedulerConfig::paper_eval();
        cfg.dfs = DfsConfig::highest_priority();
        cfg.preempt_backfilled_for_dyn = true;
        let mut m = Maui::new(cfg);
        let evolving = JobSpec::evolving(
            "F",
            UserId(6),
            GroupId(0),
            8,
            ExecutionModel::esp_evolving(1846, 1230, 4),
        );
        let f = submit(&mut s, evolving.clone(), t(0)).unwrap();
        let _wide = submit(&mut s, rigid("wide", 1, 100, 500), t(0)).unwrap();
        // `blocked` gets a reservation; `small` is backfilled around it.
        let blocked = submit(&mut s, rigid("blocked", 2, 120, 500), t(1)).unwrap();
        let small = submit(&mut s, rigid("small", 3, 12, 100), t(2)).unwrap();
        let mut z = rigid("Z", 4, 8, 100);
        z.suppress_backfill_while_queued = true;
        cycle(&mut s, &mut m, t(2));
        assert!(
            s.job(small).unwrap().backfilled,
            "12 cores fit around the reservation"
        );
        assert_view_is_the_walk(&s, t(2));

        // The machine is full: the request preempts the backfilled job,
        // which re-enters the queue *between* older and newer ids.
        let late = submit(&mut s, rigid("late", 5, 120, 50), t(3)).unwrap();
        s.execute(dynget(f, 4, t(295))).unwrap();
        assert_view_is_the_walk(&s, t(295));
        let applied = cycle(&mut s, &mut m, t(295));
        assert!(applied.contains(&Applied::Preempted { job: small }));
        assert_eq!(s.job(small).unwrap().state, JobState::Queued);
        assert_view_is_the_walk(&s, t(295));
        assert_newest_snapshot_is_fresh(&s);
        let queued: Vec<JobId> = s.snapshot(t(296)).queued.iter().map(|q| q.id).collect();
        assert_eq!(queued, vec![blocked, small, late]);

        // A Z job comes and goes; a queued evolving job's pre-reserve
        // follows the guaranteeing policy when it flips.
        let z = submit(&mut s, z, t(300)).unwrap();
        assert!(s.snapshot(t(300)).backfill_suppressed());
        let g = submit(&mut s, evolving, t(301)).unwrap();
        s.execute(Record::Guarantee { on: true }).unwrap();
        assert_eq!(s.snapshot(t(302)).queued.get(g).unwrap().reserve_extra, 4);
        assert_view_is_the_walk(&s, t(302));
        s.execute(Record::Guarantee { on: false }).unwrap();
        s.execute(Record::Qdel {
            job: z,
            now: t(303),
        })
        .unwrap();
        assert!(!s.snapshot(t(303)).backfill_suppressed());
        assert_view_is_the_walk(&s, t(303));

        // A node under the evolving job fails: it requeues too.
        let node = s
            .cluster()
            .allocation_of(f)
            .unwrap()
            .entries()
            .next()
            .unwrap()
            .0;
        let failed = s.execute(Record::NodeFailed { node, now: t(310) });
        assert!(matches!(failed, Ok(Effect::Requeued(victims)) if victims.contains(&f)));
        assert_view_is_the_walk(&s, t(310));
        assert_newest_snapshot_is_fresh(&s);
    }

    #[test]
    fn a_live_snapshot_is_not_changed_by_later_mutations() {
        // The snapshot shares the server's view; the first mutation after
        // it copies, so what the scheduler was handed stays what it was.
        let mut s = server();
        let mut m = hp_maui();
        let a = submit(&mut s, rigid("A", 0, 100, 500), t(0)).unwrap();
        let b = submit(&mut s, rigid("B", 1, 100, 500), t(1)).unwrap();
        let before = s.snapshot(t(1));
        let outcome = m.iterate(&before);
        s.apply(&outcome, t(1));
        s.execute(Record::Qdel { job: b, now: t(2) }).unwrap();
        let ids = |snap: &Snapshot| -> (Vec<JobId>, Vec<JobId>) {
            (
                snap.running.iter().map(|r| r.id).collect(),
                snap.queued.iter().map(|q| q.id).collect(),
            )
        };
        assert_eq!(ids(&before), (vec![], vec![a, b]));
        assert_eq!(ids(&s.snapshot(t(2))), (vec![a], vec![]));
    }

    #[test]
    fn dynqueued_without_pending_entry_is_counted_not_silent() {
        // Regression: the snapshot used to turn this breach into "no
        // request this cycle" without a trace. No command sequence can
        // produce it, so the state comes from a doctored image.
        let mut s = server();
        let mut m = hp_maui();
        let id = submit(
            &mut s,
            JobSpec::evolving(
                "F",
                UserId(6),
                GroupId(0),
                8,
                ExecutionModel::esp_evolving(1846, 1230, 4),
            ),
            t(0),
        )
        .unwrap();
        cycle(&mut s, &mut m, t(0));
        s.execute(dynget(id, 4, t(295))).unwrap();
        assert_eq!(s.snapshot(t(295)).dyn_requests.len(), 1);
        assert_eq!(s.invariant_breaches(), 0);

        let mut img = s.image();
        img.dyn_pending.clear();
        let broken = PbsServer::from_image(&img).unwrap();
        assert_eq!(broken.job(id).unwrap().state, JobState::DynQueued);
        let snap = std::panic::catch_unwind(|| {
            let snap = broken.snapshot(t(296));
            (
                snap.running.len(),
                snap.dyn_requests.len(),
                broken.invariant_breaches(),
            )
        });
        if cfg!(debug_assertions) {
            assert!(snap.is_err(), "test builds must fail on the breach");
        } else {
            // Still running, no request served, and the breach is on record.
            assert_eq!(snap.unwrap(), (1, 0, 1));
        }
    }

    #[test]
    fn compacting_snapshot_rebuilt_in_old_buffers_equals_fresh_image() {
        // Every record compacts, so every snapshot but the first is its
        // predecessor patched in place: longer, equal and — once
        // retention is turned off and terminal jobs are dropped — shorter.
        let mut s = server();
        s.enable_journal(1);
        let newest = |s: &PbsServer| s.journal().unwrap().latest_snapshot().unwrap().1.clone();
        let mut ids = Vec::new();
        for i in 0..12 {
            let spec = JobSpec::rigid(
                format!("job-with-a-long-name-{i}"),
                UserId(i),
                GroupId(0),
                4,
                SimDuration::from_secs(100 + u64::from(i)),
            );
            ids.push(submit(&mut s, spec, t(u64::from(i))).unwrap());
            assert_eq!(newest(&s), s.image());
        }
        for &id in &ids[..6] {
            s.execute(Record::Qdel {
                job: id,
                now: t(20),
            })
            .unwrap();
            assert_eq!(newest(&s), s.image());
        }
        assert_eq!(newest(&s).jobs.len(), 12);
        s.set_job_retention(false);
        submit(&mut s, rigid("late", 1, 4, 50), t(21)).unwrap();
        assert_eq!(newest(&s).jobs.len(), 7, "swept jobs leave the image");
        assert_eq!(newest(&s), s.image());
        // With retention off a deleted job is in the snapshot its own
        // record triggers and gone from the next one.
        s.execute(Record::Qdel {
            job: ids[6],
            now: t(22),
        })
        .unwrap();
        assert_eq!(newest(&s).jobs.len(), 7);
        submit(&mut s, rigid("later", 1, 4, 50), t(23)).unwrap();
        assert_eq!(newest(&s).jobs.len(), 7, "dropped job leaves the image");
        assert_eq!(newest(&s), s.image());
        let recovered = PbsServer::recover(s.journal().unwrap().clone()).unwrap();
        assert_eq!(recovered.state_digest(), s.state_digest());
    }

    #[test]
    fn compaction_copies_the_live_table_not_the_history() {
        // Work counted, not timed. Behind the journal sit 5 000 retained
        // terminal jobs and as many outcomes; each compaction may copy
        // only the live jobs and the ones retired since the snapshot it
        // patched.
        for lag_intervals in [0, 2] {
            let mut s = server();
            let mut m = hp_maui();
            for round in 0..50 {
                let ids: Vec<JobId> = (0..100)
                    .map(|i| submit(&mut s, rigid("old", i % 7, 1, 10), t(round)).unwrap())
                    .collect();
                cycle(&mut s, &mut m, t(round));
                for id in ids {
                    s.execute(Record::Finish {
                        job: id,
                        now: t(round),
                    })
                    .unwrap();
                }
            }
            assert_eq!(s.jobs().count(), 5_000);
            assert_eq!(s.accounting().outcomes().len(), 5_000);
            s.enable_journal(64);
            compaction_work::take();

            // The journal's length when the script retired a job (after
            // the command: a retirement is noted last) and when it
            // finished one (before it).
            let mut retired: Vec<u64> = Vec::new();
            let mut finished: Vec<u64> = Vec::new();
            let (mut queued, mut running) = (Vec::new(), Vec::new());
            let (mut compactions, mut patched, mut patched_older) = (0, 0, 0);
            for step in 0..4_000u64 {
                let now = t(100 + step);
                let journal = s.journal().unwrap();
                let stamp = journal.total_appended();
                let latest = journal.latest_snapshot().unwrap().0;
                s.journal_retain_from((stamp + 1).saturating_sub(64 * lag_intervals));
                let mut retires = false;
                match step % 8 {
                    0..=3 => queued.push(submit(&mut s, rigid("new", 1, 2, 500), now).unwrap()),
                    4 if !queued.is_empty() => {
                        s.execute(Record::Qdel {
                            job: queued.remove(0),
                            now,
                        })
                        .unwrap();
                        retires = true;
                    }
                    5 if !running.is_empty() => {
                        s.execute(Record::Finish {
                            job: running.remove(0),
                            now,
                        })
                        .unwrap();
                        retires = true;
                        finished.push(stamp);
                    }
                    6 => {
                        for applied in cycle(&mut s, &mut m, now) {
                            let Applied::Started { job, .. } = applied else {
                                panic!("rigid jobs only start: {applied:?}");
                            };
                            queued.retain(|&id| id != job);
                            running.push(job);
                        }
                    }
                    _ => {}
                }
                retired.extend(retires.then(|| s.journal().unwrap().total_appended()));
                let Some(work) = compaction_work::take() else {
                    continue;
                };
                compactions += 1;
                let Some(from) = work.patched_from else {
                    // The floor's first step above zero lands below the
                    // journal's start: nothing is discarded, once.
                    assert!(lag_intervals > 0 && compactions <= 3, "{work:?}");
                    continue;
                };
                // The command's own record triggered the compaction, so a
                // job it retires was still live in that image, and noted
                // after it.
                let live = s.live_jobs().count() + usize::from(retires);
                let noted = &retired[..retired.len() - usize::from(retires)];
                let since = noted.iter().filter(|&&at| at >= from).count();
                assert_eq!(work.retired, since, "{work:?}");
                assert_eq!(work.jobs, live + since, "{work:?}");
                assert!(work.jobs < 1_500, "{work:?}");
                let recorded = finished.iter().filter(|&&at| at >= from).count();
                assert_eq!(work.outcomes, recorded, "{work:?}");
                patched += 1;
                patched_older += usize::from(from < latest);
            }
            assert!(patched >= 30 && patched + 1 >= compactions, "{patched}");
            if lag_intervals == 0 {
                assert_eq!(patched_older, 0);
            } else {
                assert!(patched_older + 3 >= patched, "{patched_older} of {patched}");
            }
            assert!(s.jobs().count() > 6_000);
        }
    }

    #[test]
    fn negotiated_request_survives_apply_and_expires() {
        let mut s = server();
        let mut m = hp_maui();
        let evolving = submit(
            &mut s,
            JobSpec::evolving(
                "F",
                UserId(6),
                GroupId(0),
                8,
                ExecutionModel::esp_evolving(1000, 700, 4),
            ),
            t(0),
        )
        .unwrap();
        let _filler = submit(&mut s, rigid("big", 1, 112, 2000), t(0)).unwrap();
        cycle(&mut s, &mut m, t(0));
        assert_eq!(s.cluster().idle_cores(), 0);

        // Negotiated request with a deadline at t=500.
        s.execute(Record::DynGet {
            job: evolving,
            extra_cores: 4,
            deadline: Some(t(500)),
            now: t(100),
        })
        .unwrap();
        let applied = cycle(&mut s, &mut m, t(100));
        assert!(applied
            .iter()
            .any(|a| matches!(a, Applied::DynDeferred { .. })));
        // Still pending: the job stays DynQueued across the iteration.
        assert_eq!(s.job(evolving).unwrap().state, JobState::DynQueued);
        // Before the deadline nothing expires.
        let sweep = |at| Record::ExpireSweep { now: t(at) };
        assert_eq!(s.execute(sweep(400)), Ok(Effect::Unchanged));
        assert_eq!(s.job(evolving).unwrap().state, JobState::DynQueued);
        // At the deadline it expires and the job resumes Running.
        assert_eq!(s.execute(sweep(500)), Ok(Effect::Expired(vec![evolving])));
        assert_eq!(s.job(evolving).unwrap().state, JobState::Running);
        // The snapshot carries no stale request afterwards.
        assert!(s.snapshot(t(501)).dyn_requests.is_empty());
    }

    #[test]
    fn stale_expiry_never_revokes_a_grant_or_kills_a_successor() {
        // Regression: the expiry path used to sweep *every* due request
        // when any timer fired, so a stale timer could expire a request
        // that had since been granted and replaced. Seq-matched expiry
        // makes the stale firing a no-op.
        let mut s = server();
        let mut m = hp_maui();
        let id = submit(
            &mut s,
            JobSpec::evolving(
                "F",
                UserId(6),
                GroupId(0),
                8,
                ExecutionModel::esp_evolving(1846, 1230, 4),
            ),
            t(0),
        )
        .unwrap();
        cycle(&mut s, &mut m, t(0));

        // First negotiated request: granted on the idle machine.
        s.execute(Record::DynGet {
            job: id,
            extra_cores: 4,
            deadline: Some(t(500)),
            now: t(100),
        })
        .unwrap();
        let seq1 = s.pending_dyn_seq(id).expect("pending");
        let applied = cycle(&mut s, &mut m, t(100));
        assert!(applied
            .iter()
            .any(|a| matches!(a, Applied::DynGranted { .. })));
        // Its expiry timer fires after the grant: must be a no-op.
        let expire = |seq, at| Record::ExpireOne {
            job: id,
            seq,
            now: t(at),
        };
        assert_eq!(s.execute(expire(seq1, 600)), Ok(Effect::Unchanged));
        assert_eq!(s.job(id).unwrap().state, JobState::Running);

        // A successor request must not be killable by the stale seq.
        s.execute(Record::DynGet {
            job: id,
            extra_cores: 4,
            deadline: Some(t(900)),
            now: t(700),
        })
        .unwrap();
        let seq2 = s.pending_dyn_seq(id).expect("pending again");
        assert_ne!(seq1, seq2);
        let stale = s.execute(expire(seq1, 950));
        assert_eq!(stale, Ok(Effect::Unchanged), "stale seq no-ops");
        assert_eq!(s.job(id).unwrap().state, JobState::DynQueued);
        // The matching (seq, past-deadline) firing does expire it.
        assert_eq!(s.execute(expire(seq2, 950)), Ok(Effect::Expired(vec![id])));
        assert_eq!(s.job(id).unwrap().state, JobState::Running);
        // And before its deadline, even the matching seq does nothing.
        s.execute(Record::DynGet {
            job: id,
            extra_cores: 4,
            deadline: Some(t(2000)),
            now: t(960),
        })
        .unwrap();
        let seq3 = s.pending_dyn_seq(id).unwrap();
        assert_eq!(s.execute(expire(seq3, 1000)), Ok(Effect::Unchanged));
        assert_eq!(s.job(id).unwrap().state, JobState::DynQueued);
    }

    #[test]
    fn guarantee_reserve_tracked_and_consumed() {
        let mut s = server();
        s.execute(Record::Guarantee { on: true }).unwrap();
        let mut m = {
            let mut cfg = SchedulerConfig::paper_eval();
            cfg.dfs = DfsConfig::highest_priority();
            cfg.guarantee_evolving = true;
            Maui::new(cfg)
        };
        let id = submit(
            &mut s,
            JobSpec::evolving(
                "F",
                UserId(6),
                GroupId(0),
                8,
                ExecutionModel::esp_evolving(1000, 700, 4),
            ),
            t(0),
        )
        .unwrap();
        cycle(&mut s, &mut m, t(0));
        assert_eq!(s.job(id).unwrap().reserved_extra, 4);
        assert_eq!(s.reserved_unused_cores(), 4);
        // The grant consumes the reserve.
        s.execute(dynget(id, 4, t(160))).unwrap();
        cycle(&mut s, &mut m, t(160));
        let job = s.job(id).unwrap();
        assert_eq!(job.dyn_grants, 1);
        assert_eq!(job.cores_allocated, 12);
        assert_eq!(job.reserved_extra, 0);
        assert_eq!(s.reserved_unused_cores(), 0);
        s.cluster().check_invariants().unwrap();
    }

    #[test]
    fn grant_to_an_overdue_requester_keeps_its_cores_for_the_iteration() {
        let evolving = |name: &str, cores, set| {
            JobSpec::evolving(
                name,
                UserId(1),
                GroupId(0),
                cores,
                ExecutionModel::esp_evolving(set, set, 4),
            )
        };
        let mut s = server();
        let mut m = hp_maui();
        let late = submit(&mut s, evolving("late", 56, 100), t(0)).unwrap();
        let other = submit(&mut s, evolving("other", 55, 1000), t(0)).unwrap();
        cycle(&mut s, &mut m, t(0));
        assert_eq!(s.cluster().idle_cores(), 9);
        // `late` is 50 s past its walltime when it asks: its remaining
        // walltime is zero. Both requests fit the 9 idle cores alone,
        // together they do not.
        s.execute(dynget(late, 6, t(150))).unwrap();
        s.execute(dynget(other, 7, t(150))).unwrap();
        let applied = cycle(&mut s, &mut m, t(150));
        assert!(applied
            .iter()
            .any(|a| matches!(a, Applied::DynGranted { job, .. } if *job == late)));
        assert!(applied.iter().any(|a| matches!(
            a,
            Applied::DynRejected { job, reason: DfsReject::NoResources } if *job == other
        )));
        assert_eq!(s.cluster().idle_cores(), 3);
        s.cluster().check_invariants().unwrap();
    }

    #[test]
    fn node_failure_sheds_pre_reserves_the_machine_cannot_honour() {
        let mut s = PbsServer::new(Cluster::homogeneous(3, 8), AllocPolicy::Pack);
        s.execute(Record::Guarantee { on: true }).unwrap();
        s.enable_journal(0);
        let mut m = {
            let mut cfg = SchedulerConfig::paper_eval();
            cfg.dfs = DfsConfig::highest_priority();
            cfg.guarantee_evolving = true;
            Maui::new(cfg)
        };
        let evolving = |name: &str, cores, extra| {
            JobSpec::evolving(
                name,
                UserId(1),
                GroupId(0),
                cores,
                ExecutionModel::esp_evolving(1000, 700, extra),
            )
        };
        let old = submit(&mut s, evolving("old", 8, 6), t(0)).unwrap();
        let young = submit(&mut s, evolving("young", 4, 4), t(0)).unwrap();
        cycle(&mut s, &mut m, t(0));
        assert_eq!(s.reserved_unused_cores(), 10);
        // 22 of 24 cores held; the idle third node fails and 16 are left.
        let fail = Record::NodeFailed {
            node: dynbatch_core::NodeId(2),
            now: t(10),
        };
        assert_eq!(s.execute(fail), Ok(Effect::Requeued(Vec::new())));
        assert_eq!(s.job(young).unwrap().reserved_extra, 0);
        assert_eq!(s.job(old).unwrap().reserved_extra, 4);
        assert_view_is_the_walk(&s, t(10));
        cycle(&mut s, &mut m, t(10));
        let journal = s.journal().unwrap().clone();
        let recovered = PbsServer::recover(journal).unwrap();
        assert_eq!(recovered.state_digest(), s.state_digest());
        assert_eq!(recovered.reserved_unused_cores(), 4);
    }

    #[test]
    fn malleable_resize_round_trip() {
        let mut s = server();
        s.enable_journal(1);
        let mut m = {
            let mut cfg = SchedulerConfig::paper_eval();
            cfg.dfs = DfsConfig::highest_priority();
            cfg.grow_malleable_on_idle = true;
            Maui::new(cfg)
        };
        let id = submit(
            &mut s,
            JobSpec::malleable("pool", UserId(0), GroupId(0), 16, 8, 64, 16_000),
            t(0),
        )
        .unwrap();
        // First cycle starts it; second grows it onto the idle machine.
        cycle(&mut s, &mut m, t(0));
        assert_eq!(s.job(id).unwrap().cores_allocated, 16);
        let applied = cycle(&mut s, &mut m, t(1));
        let grew = applied.iter().any(|a| {
            matches!(
                a,
                Applied::Resized { job, from_cores: 16, to_cores: 64, .. } if *job == id
            )
        });
        assert!(grew, "{applied:?}");
        assert_eq!(s.job(id).unwrap().cores_allocated, 64);
        assert_eq!(s.cluster().cores_of(id), 64);
        assert_newest_snapshot_is_fresh(&s);
        s.cluster().check_invariants().unwrap();
    }

    #[test]
    fn moldable_start_uses_chosen_width() {
        let mut s = server();
        let mut m = hp_maui();
        let id = submit(
            &mut s,
            JobSpec::moldable("mold", UserId(0), GroupId(0), 8, 8, 48, 9_600),
            t(0),
        )
        .unwrap();
        let applied = cycle(&mut s, &mut m, t(0));
        assert!(applied.iter().any(|a| matches!(
            a,
            Applied::Started { job, alloc, .. } if *job == id && alloc.total_cores() == 48
        )));
        assert_eq!(s.job(id).unwrap().cores_allocated, 48);
    }

    // ------------------------------------------------------------------
    // The delta log: what is recorded, when, and what a gap costs.
    // ------------------------------------------------------------------

    /// A scheduler with windowed static fairshare switched on.
    fn windowed_maui() -> Maui {
        let mut cfg = SchedulerConfig::paper_eval();
        cfg.dfs = DfsConfig::highest_priority();
        cfg.fairshare.enabled = true;
        cfg.fairshare.windows = 4;
        cfg.fairshare.decay = 0.5;
        Maui::new(cfg)
    }

    #[test]
    fn the_log_records_only_once_somebody_drains_it() {
        let mut s = server();
        let mut m = hp_maui();
        // Plain snapshots drain nothing, so nothing is kept for them.
        let id = submit(&mut s, rigid("J", 0, 8, 100), t(0)).unwrap();
        let outcome = m.iterate(&s.snapshot(t(0)));
        s.apply(&outcome, t(0));
        s.execute(Record::Finish {
            job: id,
            now: t(10),
        })
        .unwrap();
        assert!(s.deltas.is_empty() && s.deltas.capacity() == 0);
        // The first drained log stands for all of that: totals, no history.
        let charged = |core_ms, at| ProfileDelta::Charged {
            user: UserId(0),
            core_ms,
            at,
        };
        let snap = s.snapshot_incremental(t(60));
        m.iterate(&snap);
        let first = snap.deltas.unwrap();
        assert_eq!((first.base_epoch, first.epoch), (0, 1));
        assert_eq!(first.deltas, [charged(80_000, t(60))]);
        let id = submit(&mut s, rigid("J", 0, 8, 100), t(60)).unwrap();
        cycle(&mut s, &mut m, t(60));
        s.execute(Record::Finish {
            job: id,
            now: t(70),
        })
        .unwrap();
        let queued = submit(&mut s, rigid("Q", 1, 8, 100), t(70)).unwrap();
        s.execute(Record::Qdel {
            job: queued,
            now: t(71),
        })
        .unwrap();
        assert!(matches!(s.deltas[0], ProfileDelta::Started { job, .. } if job == id));
        let (finished, left) = (
            ProfileDelta::Finished { job: id },
            ProfileDelta::LeftQueue { job: queued },
        );
        assert_eq!(s.deltas[1..], [charged(80_000, t(70)), finished, left]);
        // `reset`, `recover` and an image load all start over.
        s.enable_journal(0);
        let loaded = PbsServer::from_image(&s.image()).unwrap();
        let recovered = PbsServer::recover(s.take_journal().unwrap()).unwrap();
        s.reset(Cluster::homogeneous(15, 8), AllocPolicy::Pack);
        for (mut s, core_s) in [(s, 0.0), (recovered, 160.0), (loaded, 160.0)] {
            submit(&mut s, rigid("J", 0, 8, 100), t(80)).unwrap();
            let outcome = m.iterate(&s.snapshot(t(80)));
            s.apply(&outcome, t(80));
            assert!(s.deltas.is_empty());
            // The totals a first log carries replace what `m` held.
            let snap = s.snapshot_incremental(t(80));
            m.iterate(&snap);
            assert_eq!(snap.deltas.unwrap().base_epoch, 0);
            assert_eq!(m.fairshare().charged(UserId(0)), core_s);
        }
    }

    /// The window-attribution regression, where the mechanism lives: a
    /// usage segment that closes at t=59 min but reaches the scheduler at
    /// t=61 min — after the 1 h fairshare window boundary — is charged to
    /// the window covering the close instant, so a scheduler whose next
    /// cycle comes late agrees exactly with one that ran a cycle inside
    /// the window. (Charged to the window current at the drain, the late
    /// charge escaped one decay step.)
    #[test]
    fn a_late_drain_charges_the_window_the_segment_closed_in() {
        let close = t(59 * 60);
        let run = |cycle_at_close: bool| {
            let mut s = PbsServer::new(Cluster::homogeneous(1, 8), AllocPolicy::Pack);
            let mut m = windowed_maui();
            let id = submit(&mut s, rigid("seg", 0, 8, 3_600), t(0)).unwrap();
            cycle(&mut s, &mut m, t(0));
            s.execute(Record::Finish {
                job: id,
                now: close,
            })
            .unwrap();
            if cycle_at_close {
                cycle(&mut s, &mut m, close);
            }
            cycle(&mut s, &mut m, t(61 * 60));
            m
        };
        let (eager, late) = (run(true), run(false));
        assert_eq!(late.fairshare().charged(UserId(0)), (8 * 59 * 60) as f64);
        assert_eq!(late.fairshare(), eager.fairshare(), "late vs eager drain");
    }

    /// A scheduler that is handed something other than the next log of the
    /// server it follows — a plain snapshot in between, a log of another
    /// server, the log after one that was dropped — rebuilds instead of
    /// applying it, and decides what the reference decides.
    #[test]
    fn a_dropped_or_foreign_log_takes_the_gap_path() {
        use dynbatch_sched::reference::iterate_naive;
        let mut servers = [server(), server()];
        for k in 0..4 {
            submit(&mut servers[0], rigid("J", k, 32, 600), t(0)).unwrap();
            submit(&mut servers[1], rigid("O", k, 48, 600), t(0)).unwrap();
        }
        let (mut m, mut naive) = (windowed_maui(), windowed_maui());
        // (which server, drain its log?, is it a gap?), 100 s apart. A
        // plain snapshot drains nothing, so job 2's charge rides the log
        // after it; a log drained and dropped (`None`) is lost.
        let steps = [
            (0, Some(true), true),
            (0, Some(true), false),
            (0, Some(false), true),
            (0, Some(true), true),
            (1, Some(true), true),
            (1, Some(true), false),
            (0, Some(true), true),
            (0, None, true),
            (0, Some(true), true),
            (0, Some(true), false),
        ];
        let mut rebuilds = 0;
        for (k, (which, drain, gap)) in steps.into_iter().enumerate() {
            let (s, now) = (&mut servers[which], t(100 * k as u64));
            if which == 0 && (1..=3).contains(&k) {
                s.execute(Record::Finish {
                    job: JobId(k as u64),
                    now,
                })
                .unwrap();
            }
            let snap = match drain {
                Some(true) => s.snapshot_incremental(now),
                Some(false) => s.snapshot(now),
                None => {
                    drop(s.snapshot_incremental(now));
                    continue;
                }
            };
            let outcome = m.iterate(&snap);
            assert_eq!(outcome, iterate_naive(&mut naive, &snap), "step {k}");
            assert_eq!(m.fairshare(), naive.fairshare());
            rebuilds += gap as u64;
            assert_eq!(m.timeline_stats().rebuilds, rebuilds, "step {k}");
            drop(snap);
            s.apply(&outcome, now);
            if k == 3 {
                assert_eq!(m.fairshare().charged(UserId(1)), (32 * 200) as f64);
            }
        }
    }

    #[test]
    fn usage_charges_constant_width_segments() {
        // An 8-core evolving job runs 150 ms at width 8, grows to 16 and
        // runs another 150 ms: 8×150 + 16×150 = 3600 core-ms — charging
        // final-width × runtime (the old daemon-side bug) would say 4800.
        let mut s = server();
        let mut m = hp_maui();
        let id = submit(
            &mut s,
            JobSpec::evolving(
                "F",
                UserId(7),
                GroupId(0),
                8,
                ExecutionModel::esp_evolving(1846, 1230, 8),
            ),
            SimTime::ZERO,
        )
        .unwrap();
        cycle(&mut s, &mut m, SimTime::ZERO);
        s.execute(dynget(id, 8, SimTime::from_millis(150))).unwrap();
        cycle(&mut s, &mut m, SimTime::from_millis(150));
        assert_eq!(s.job(id).unwrap().cores_allocated, 16);
        s.execute(Record::Finish {
            job: id,
            now: SimTime::from_millis(300),
        })
        .unwrap();
        assert_eq!(s.usage_core_millis(UserId(7)), 3600);
        assert_eq!(s.usage().collect::<Vec<_>>(), vec![(UserId(7), 3600)]);
    }

    #[test]
    fn usage_survives_recovery_exactly() {
        // Crash mid-run with an open segment: the snapshot carries both
        // the closed core-ms and the open cursor, so the recovered server
        // keeps charging from the exact same split.
        let mut s = server();
        s.enable_journal(0);
        let mut m = hp_maui();
        let a = submit(&mut s, rigid("A", 1, 8, 100), SimTime::ZERO).unwrap();
        let b = submit(&mut s, rigid("B", 2, 4, 100), SimTime::ZERO).unwrap();
        cycle(&mut s, &mut m, SimTime::ZERO);
        s.execute(Record::Finish {
            job: a,
            now: SimTime::from_millis(500),
        })
        .unwrap();
        let digest = s.state_digest();
        let mut r = PbsServer::recover(s.take_journal().unwrap()).unwrap();
        assert_eq!(r.state_digest(), digest);
        assert_eq!(r.usage_core_millis(UserId(1)), 8 * 500);
        assert_eq!(r.usage_core_millis(UserId(2)), 0, "open segment uncharged");
        r.execute(Record::Finish {
            job: b,
            now: SimTime::from_millis(900),
        })
        .unwrap();
        assert_eq!(r.usage_core_millis(UserId(2)), 4 * 900);
    }

    #[test]
    fn out_of_order_finish_denies_instead_of_panicking() {
        let mut s = server();
        let mut m = hp_maui();
        let id = submit(&mut s, rigid("A", 0, 8, 100), t(0)).unwrap();
        // Finish before start: the job is queued, not active.
        assert!(s.execute(Record::Finish { job: id, now: t(1) }).is_err());
        cycle(&mut s, &mut m, t(1));
        s.execute(Record::Finish {
            job: id,
            now: t(50),
        })
        .unwrap();
        // Duplicate finish (double-delivered exit) denies too.
        assert!(s
            .execute(Record::Finish {
                job: id,
                now: t(51)
            })
            .is_err());
        assert!(s
            .execute(Record::Finish {
                job: JobId(99),
                now: t(51)
            })
            .is_err());
    }

    #[test]
    fn recover_from_journal_matches_live_state() {
        let mut s = server();
        s.enable_journal(0);
        let mut m = hp_maui();
        let a = submit(&mut s, rigid("A", 0, 16, 100), t(0)).unwrap();
        let b = submit(&mut s, rigid("B", 1, 64, 500), t(0)).unwrap();
        let ev = submit(
            &mut s,
            JobSpec::evolving(
                "F",
                UserId(6),
                GroupId(0),
                8,
                ExecutionModel::esp_evolving(1846, 1230, 4),
            ),
            t(1),
        )
        .unwrap();
        cycle(&mut s, &mut m, t(1));
        s.execute(Record::Finish {
            job: a,
            now: t(100),
        })
        .unwrap();
        cycle(&mut s, &mut m, t(100));
        s.execute(Record::DynGet {
            job: ev,
            extra_cores: 4,
            deadline: Some(t(900)),
            now: t(200),
        })
        .unwrap();
        cycle(&mut s, &mut m, t(200));
        s.execute(Record::Qdel {
            job: b,
            now: t(300),
        })
        .unwrap();
        let _ = b;

        let digest = s.state_digest();
        let recovered = PbsServer::recover(s.take_journal().unwrap()).unwrap();
        assert_eq!(recovered.state_digest(), digest);
        recovered.cluster().check_invariants().unwrap();
        // The recovered server keeps journaling where the crashed one
        // stopped.
        assert!(recovered.journal().is_some());
    }

    #[test]
    fn compacting_snapshots_bound_the_journal_and_stay_exact() {
        let mut s = server();
        s.enable_journal(4);
        let mut m = hp_maui();
        for i in 0..6 {
            let id = submit(&mut s, rigid("J", i, 8, 50), t(i as u64)).unwrap();
            cycle(&mut s, &mut m, t(i as u64));
            s.execute(Record::Finish {
                job: id,
                now: t(100 + i as u64),
            })
            .unwrap();
        }
        let journal = s.journal().unwrap();
        assert!(
            journal.len() <= 5,
            "compaction must bound the log, got {} records",
            journal.len()
        );
        let digest = s.state_digest();
        let recovered = PbsServer::recover(s.take_journal().unwrap()).unwrap();
        assert_eq!(recovered.state_digest(), digest);
    }

    #[test]
    fn dyn_requests_carry_fifo_seq() {
        let mut s = server();
        let mut m = hp_maui();
        let a = submit(
            &mut s,
            JobSpec::evolving(
                "F",
                UserId(1),
                GroupId(0),
                8,
                ExecutionModel::esp_evolving(1000, 700, 4),
            ),
            t(0),
        )
        .unwrap();
        let b = submit(
            &mut s,
            JobSpec::evolving(
                "G",
                UserId(2),
                GroupId(0),
                8,
                ExecutionModel::esp_evolving(1000, 700, 4),
            ),
            t(0),
        )
        .unwrap();
        cycle(&mut s, &mut m, t(0));
        s.execute(dynget(b, 4, t(100))).unwrap();
        s.execute(dynget(a, 4, t(160))).unwrap();
        let snap = s.snapshot(t(161));
        let seq_of = |j: JobId| snap.dyn_requests.iter().find(|r| r.job == j).unwrap().seq;
        assert!(seq_of(b) < seq_of(a), "b asked first");
    }
}
