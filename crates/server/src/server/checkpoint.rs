//! Durability: the journal switch, the one append ([`PbsServer::log`]),
//! the durable image and the patched image a compaction writes, and the
//! image loader and crash recovery.
//!
//! Invariant owned here: the journal tail is consistent with in-memory
//! state — a record is appended only after it took effect, every
//! snapshot in the journal (patched or full) equals [`PbsServer::image`]
//! at its position, and recovered state ≡ crash-free state, byte for
//! byte.

use super::dyn_protocol::PendingDyn;
use super::tables::Counter;
use super::PbsServer;
use crate::accounting::AccountingLog;
use crate::journal::{self, Journal, Record, ServerImage};
use crate::replication::Follower;
use dynbatch_cluster::{Allocation, Cluster};
use dynbatch_core::{Error, Job, JobId, JobOutcome, Result};
use dynbatch_sched::{QueuedSet, RunningSet};
use std::collections::BTreeMap;

/// Which jobs left the live table since which journal position — what
/// lets a compaction patch the image it discards instead of imaging the
/// whole table again ([`PbsServer::patched_image`]). A live job is copied
/// into every image, so nothing about it needs noting; a terminal job
/// never changes again, so the one thing to note is the moment a job
/// stops being live ([`PbsServer::retire`]).
#[derive(Debug, Clone, Default)]
pub(super) struct Retirements {
    /// One note per job retired while journaling: the journal's
    /// `total_appended` at that moment, and the id. Stamps never decrease.
    /// A snapshot appended at position `p` was taken after every
    /// retirement noted with a stamp below `p` and before every one noted
    /// at or above it.
    pub(super) notes: Vec<(u64, JobId)>,
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
    pub(super) fn invalidate(&mut self) {
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

impl PbsServer {
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

    /// Appends a record and compacts when the interval is reached. Called
    /// from two places, [`PbsServer::execute`] and [`PbsServer::apply`],
    /// each only after its mutation took effect, so a compacting snapshot
    /// always captures a state consistent with the log tail.
    pub(super) fn log(&mut self, record: Record) {
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

    /// Rebuilds a server from a snapshot image: cluster shape, node
    /// up/down state, exact per-job allocations, job table, pending
    /// negotiations and the accounting log; journaling off. Called only
    /// by a follower's install.
    pub(crate) fn restore(img: &ServerImage) -> Result<PbsServer> {
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

    /// Crash recovery: a follower catches up on the journal
    /// ([`Follower::catch_up`]) — with no journal of its own, so nothing
    /// is appended twice — and the journal is re-installed on the server
    /// it hands over, which keeps journaling where the crashed one
    /// stopped. A refused record fails it, naming the record's position.
    ///
    /// Invariant (pinned by the crash-at-every-record sweep): recovered
    /// state ≡ crash-free state, byte-for-byte.
    pub fn recover(journal: Journal) -> Result<PbsServer> {
        let mut server = Follower::catch_up(&journal).map_err(Error::BadConfig)?;
        server.journal = Some(journal);
        Ok(server)
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
