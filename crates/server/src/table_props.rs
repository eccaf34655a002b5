//! Property suite for the live/terminal job-table split and the
//! maintained scheduler view.
//!
//! Two servers are driven through one random command sequence, both
//! journaling with a short compaction interval and a retain floor that
//! trails the log by zero to three intervals: `kept` retains terminal
//! jobs (so it can crash and `recover`), `flip` has its job and
//! accounting retention toggled at random. After **every** operation
//! (submissions, cycles, finishes, deletes, requests and their expiry,
//! releases, node failures and repairs, recovery, image round trips,
//! starting over on new servers, retention flips; preemption and a policy flip with jobs
//! queued are driven directly in `server::tests`):
//!
//! * `snapshot()` (the view maintained at the mutation sites) equals the
//!   live-table walk it replaced, which equals the `#[cfg(test)]`
//!   full-scan reference over `jobs()`, on both servers;
//! * the two servers' snapshots and accounting digests are equal —
//!   retention changes memory, never a decision;
//! * `jobs()` is strictly id-ordered and is exactly the live jobs plus
//!   the terminal jobs a model says retention kept, and `live_jobs()`,
//!   the counters and `is_drained` agree with a scan of it;
//! * a command naming a terminal job fails with `InvalidState` where the
//!   job is retained and `UnknownJob` where it was evicted;
//! * every record executed grows the journal by exactly itself when
//!   `execute` reports a change (plus the compacting snapshot its append
//!   may trigger), and a denied or no-op record by nothing;
//! * a compacting snapshot, patched in place (live jobs and the jobs
//!   noted as retired since its predecessor copied again),
//!   equals a fresh `image()`; it was patched from the newest snapshot
//!   the compaction discarded whenever the notes reach back that far,
//!   and imaged from the whole table only when nothing was discarded or
//!   a recovery or retention flip had cut the notes off;
//! * cycles run on `kept`'s delta log, so the scheduler's timeline is
//!   asserted against the rebuild through every command kind; after each
//!   cycle every job with a DFS delay slate is queued (a `qdel` aims at a
//!   delayed job half the time), and `flip`, which nobody drains, holds an
//!   empty log.

use crate::journal::Record;
use crate::replication::installed;
use crate::server::compaction_work::{self, Work};
use crate::{Effect, PbsServer};
use dynbatch_cluster::{Allocation, Cluster};
use dynbatch_core::testkit::{check, TestRng};
use dynbatch_core::{
    AllocPolicy, DfsConfig, Error, ExecutionModel, GroupId, JobId, JobSpec, JobState, NodeId,
    Result, SchedulerConfig, SimDuration, SimTime, UserId,
};
use dynbatch_sched::{Maui, Snapshot};
use std::cell::Cell;
use std::collections::BTreeSet;

const NODES: u32 = 6;
const CORES_PER_NODE: u32 = 8;
/// A short compaction interval: snapshot records get written at the very
/// record that retires a job.
const SNAPSHOT_EVERY: usize = 5;

fn fresh_server() -> PbsServer {
    PbsServer::new(
        Cluster::homogeneous(NODES, CORES_PER_NODE),
        AllocPolicy::Pack,
    )
}

fn fresh_maui(guarantee: bool, preempt: bool) -> Maui {
    let mut cfg = SchedulerConfig::paper_eval();
    cfg.dfs = DfsConfig::highest_priority();
    cfg.guarantee_evolving = guarantee;
    // Preempted jobs go back into the middle of the id-ordered queue.
    cfg.preempt_backfilled_for_dyn = preempt;
    Maui::new(cfg)
}

fn random_spec(rng: &mut TestRng) -> JobSpec {
    let mut spec = random_class(rng);
    if rng.chance(0.05) {
        // An ESP Z job: while it queues, backfill is off.
        spec.priority_boost = 1_000_000;
        spec.suppress_backfill_while_queued = true;
    }
    spec
}

fn random_class(rng: &mut TestRng) -> JobSpec {
    let user = UserId(rng.range_u32(0, 4));
    let cores = rng.range_u32(1, 17);
    if rng.chance(0.4) {
        let set = rng.range(200, 2000);
        let mut spec = JobSpec::evolving(
            "E",
            user,
            GroupId(0),
            cores,
            ExecutionModel::esp_evolving(set, set * 2 / 3, rng.range_u32(1, 9)),
        );
        if rng.chance(0.5) {
            spec.dyn_timeout = Some(SimDuration::from_secs(rng.range(10, 300)));
        }
        spec
    } else {
        JobSpec::rigid(
            "R",
            user,
            GroupId(0),
            cores,
            SimDuration::from_secs(rng.range(50, 1500)),
        )
    }
}

fn same_view(a: &Snapshot, b: &Snapshot, what: &str) {
    assert_eq!(a.now, b.now, "{what}: now");
    assert_eq!(a.total_cores, b.total_cores, "{what}: total_cores");
    assert_eq!(a.running, b.running, "{what}: running");
    assert_eq!(a.queued, b.queued, "{what}: queued");
    assert_eq!(a.dyn_requests, b.dyn_requests, "{what}: dyn_requests");
}

/// Which compactions the seeded run went through, summed over all cases.
#[derive(Default)]
struct Witness {
    patched_from_latest: Cell<u32>,
    patched_from_older: Cell<u32>,
    rebuilt_after_recovery: Cell<u32>,
    rebuilt_after_retention_flip: Cell<u32>,
    retired_ids_patched: Cell<usize>,
    retired_ids_evicted: Cell<usize>,
    delayed_jobs_deleted: Cell<u32>,
}

fn bump<T: Copy + std::ops::Add<Output = T>>(cell: &Cell<T>, by: T) {
    cell.set(cell.get() + by);
}

/// Why a server's retirement notes were cut off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cut {
    Recovery,
    RetentionFlip,
}

/// What the test knows about one server's journal.
#[derive(Default)]
struct Tracked {
    /// The retain floor the journal holds (it keeps the maximum).
    floor: u64,
    /// Set when the notes are cut off, cleared by the full image that
    /// restarts them.
    cut: Option<Cut>,
    /// The newest snapshot is the newest record, yet the server moved on
    /// without a record: a retention flip swept jobs or outcomes, or a
    /// terminal job was dropped right after the snapshot was written.
    moved_on: bool,
}

/// The two servers plus what the test itself knows about them.
struct Twin<'w> {
    kept: PbsServer,
    flip: PbsServer,
    tracked: [Tracked; 2],
    witness: &'w Witness,
    /// The job the current operation retired, if any.
    retired: Option<JobId>,
    flip_retains: bool,
    flip_retains_outcomes: bool,
    /// Terminal ids `flip` should still hold.
    flip_kept_terminal: BTreeSet<JobId>,
    /// Every id that ever turned terminal (all retained by `kept`).
    terminal: Vec<JobId>,
    guarantee: bool,
    preempt: bool,
    maui: Maui,
}

impl<'w> Twin<'w> {
    fn new(guarantee: bool, preempt: bool, witness: &'w Witness) -> Self {
        let mut twin = Twin {
            kept: fresh_server(),
            flip: fresh_server(),
            tracked: Default::default(),
            witness,
            retired: None,
            flip_retains: true,
            flip_retains_outcomes: true,
            flip_kept_terminal: BTreeSet::new(),
            terminal: Vec::new(),
            guarantee,
            preempt,
            maui: fresh_maui(guarantee, preempt),
        };
        twin.arm();
        twin
    }

    /// Per-process settings, as after construction.
    fn arm(&mut self) {
        self.kept
            .execute(Record::Guarantee { on: self.guarantee })
            .unwrap();
        self.flip
            .execute(Record::Guarantee { on: self.guarantee })
            .unwrap();
        self.kept.enable_journal(SNAPSHOT_EVERY);
        self.flip.enable_journal(SNAPSHOT_EVERY);
        self.tracked = Default::default();
    }

    /// Runs a command on both servers, holding any compaction it causes
    /// to the patching contract.
    fn both<T>(&mut self, f: impl Fn(&mut PbsServer) -> T) -> (T, T) {
        let run = |server: &mut PbsServer, tracked: &mut Tracked| {
            let before = Discardable::of(server, tracked.floor);
            let out = f(server);
            if let Some(work) = compaction_work::take() {
                before.judge(work, tracked, self.witness);
            }
            out
        };
        let [kept, flip] = &mut self.tracked;
        (run(&mut self.kept, kept), run(&mut self.flip, flip))
    }

    /// Raises a server's retain floor to `intervals` compaction intervals
    /// behind its log, as a follower that far behind would.
    fn trail(&mut self, flip: bool, intervals: u64) {
        let (server, tracked) = if flip {
            (&mut self.flip, &mut self.tracked[1])
        } else {
            (&mut self.kept, &mut self.tracked[0])
        };
        let appended = server.journal().expect("journal on").total_appended();
        let pos = (appended + 1).saturating_sub(intervals * SNAPSHOT_EVERY as u64);
        server.journal_retain_from(pos);
        tracked.floor = tracked.floor.max(pos);
    }

    /// Runs a command that names only live jobs: the servers must agree.
    fn agree<T: PartialEq + std::fmt::Debug>(&mut self, f: impl Fn(&mut PbsServer) -> T) -> T {
        let (a, b) = self.both(f);
        assert_eq!(a, b, "retained and evicted servers answered differently");
        a
    }

    /// Executes a record that names only live jobs on both servers.
    fn execute(&mut self, record: Record) -> Result<Effect> {
        self.agree(|s| execute_and_check(s, record.clone()))
    }

    fn went_terminal(&mut self, id: JobId) {
        self.retired = Some(id);
        self.terminal.push(id);
        if self.flip_retains {
            self.flip_kept_terminal.insert(id);
        }
    }

    fn live_ids(&self, pred: impl Fn(JobState) -> bool) -> Vec<JobId> {
        self.kept
            .live_jobs()
            .filter(|j| pred(j.state))
            .map(|j| j.id)
            .collect()
    }

    fn check(&mut self, now: SimTime) {
        self.check_newest_snapshots();
        for (name, s) in [("kept", &self.kept), ("flip", &self.flip)] {
            same_view(&s.snapshot(now), &s.snapshot_walk(now), name);
            same_view(&s.snapshot_walk(now), &s.snapshot_full_scan(now), name);
            assert_eq!(
                s.snapshot(now).backfill_suppressed(),
                s.live_jobs()
                    .any(|j| j.state == JobState::Queued && j.spec.suppress_backfill_while_queued),
                "{name}: Z-rule count"
            );
            let all: Vec<&dynbatch_core::Job> = s.jobs().collect();
            assert!(
                all.windows(2).all(|w| w[0].id < w[1].id),
                "{name}: jobs() not strictly id-ordered"
            );
            let live: Vec<JobId> = s.live_jobs().map(|j| j.id).collect();
            let scanned: Vec<JobId> = all
                .iter()
                .filter(|j| !j.state.is_terminal())
                .map(|j| j.id)
                .collect();
            assert_eq!(live, scanned, "{name}: live_jobs() vs scan of jobs()");
            assert_eq!(s.is_drained(), scanned.is_empty(), "{name}: is_drained");
            assert_eq!(
                s.queued_count(),
                all.iter().filter(|j| j.state == JobState::Queued).count()
            );
            assert_eq!(
                s.active_count(),
                all.iter().filter(|j| j.state.is_active()).count()
            );
            assert_eq!(s.invariant_breaches(), 0);
            s.cluster().check_invariants().unwrap();
        }
        same_view(
            &self.kept.snapshot(now),
            &self.flip.snapshot(now),
            "kept vs flip",
        );
        assert_eq!(
            self.kept.accounting().digest(),
            self.flip.accounting().digest()
        );
        let terminal_ids = |s: &PbsServer| -> BTreeSet<JobId> {
            s.jobs()
                .filter(|j| j.state.is_terminal())
                .map(|j| j.id)
                .collect()
        };
        assert_eq!(
            terminal_ids(&self.kept),
            self.terminal.iter().copied().collect::<BTreeSet<_>>()
        );
        assert_eq!(terminal_ids(&self.flip), self.flip_kept_terminal);
        assert_eq!(self.flip.delta_log_len(), 0, "an undrained log grew");
    }

    /// A compacting snapshot is its predecessor patched in place: while it
    /// is the newest record it must equal a fresh image, on both servers.
    fn check_newest_snapshots(&mut self) {
        let retired = self.retired.take();
        for (i, s) in [&self.kept, &self.flip].into_iter().enumerate() {
            let tracked = &mut self.tracked[i];
            let journal = s.journal().expect("journal on");
            let (pos, snapshot) = journal.latest_snapshot().expect("genesis at least");
            if pos < journal.total_appended() || tracked.moved_on {
                continue;
            }
            let mut want = s.image();
            // `retire` runs after the record (and its compacting snapshot)
            // is written: with retention off the job is in the snapshot
            // and gone from the server. `kept` still has it.
            if let Some(id) = retired.filter(|&id| s.job(id).is_err()) {
                let at = want.jobs.partition_point(|(job, _)| job.id < id);
                let job = self.kept.job(id).expect("kept retains").clone();
                want.jobs.insert(at, (job, None));
                tracked.moved_on = true;
            }
            assert_eq!(*snapshot, want, "patched snapshot vs fresh image");
        }
    }

    /// Every job-addressed command against a terminal id: the kind of the
    /// error tells retained from evicted, and nothing changes.
    fn poke_terminal(&mut self, id: JobId, rng: &mut TestRng, now: SimTime) {
        let mut part = Allocation::empty();
        part.add(NodeId(0), 1);
        let which = rng.below(4);
        let record = match which {
            0 => Record::Qdel { job: id, now },
            1 => Record::DynGet {
                job: id,
                extra_cores: 2,
                deadline: None,
                now,
            },
            2 => Record::DynFree {
                job: id,
                released: part,
                now,
            },
            _ => Record::Finish { job: id, now },
        };
        let (kept, flip) = self.both(|s| execute_and_check(s, record.clone()));
        assert!(
            matches!(kept, Err(Error::InvalidState { job, .. }) if job == id),
            "retained terminal job: {kept:?}"
        );
        if self.flip_kept_terminal.contains(&id) {
            assert_eq!(flip, kept);
            assert!(self.flip.job(id).unwrap().state.is_terminal());
        } else {
            assert_eq!(flip, Err(Error::UnknownJob(id)), "evicted terminal job");
            assert_eq!(self.flip.job(id).err(), Some(Error::UnknownJob(id)));
        }
    }
}

#[test]
fn live_table_walks_match_full_scans_under_random_commands() {
    let witness = Witness::default();
    let case = |rng: &mut TestRng| {
        // What this suite added for journal compaction draws from a
        // stream of its own, so the command sequence stays the one the
        // seed above has always produced.
        let mut side = TestRng::from_seed(rng.clone().next_u64() ^ 0x0C0A_9AC7);
        let mut twin = Twin::new(rng.chance(0.3), rng.chance(0.5), &witness);
        let mut now = SimTime::ZERO;
        for _ in 0..160 {
            now += SimDuration::from_secs(rng.below(40));
            // Followers confirm in bursts: the floor mostly stands still
            // and now and then jumps to 0-3 intervals behind the log.
            for flip in [false, true] {
                if side.chance(0.3) {
                    twin.trail(flip, side.below(4));
                }
            }
            if side.chance(0.04) {
                twin.flip_retains_outcomes = !twin.flip_retains_outcomes;
                twin.flip
                    .set_accounting_retention(twin.flip_retains_outcomes);
                twin.tracked[1].retention_flipped();
            }
            match rng.below(20) {
                0..=4 => {
                    let spec = random_spec(rng);
                    // Denied when failed nodes left less than it asks for.
                    let _ = twin.execute(Record::Submit { spec, now });
                }
                5..=8 => {
                    // One scheduler cycle, not `run_cycle`: both servers
                    // produce the same view, so one outcome — from `kept`'s
                    // snapshot and delta log — applies to both.
                    let outcome = twin.maui.iterate(&twin.kept.snapshot_incremental(now));
                    twin.agree(|s| s.apply(&outcome, now));
                    for job in twin.maui.dfs().delayed_jobs() {
                        let state = twin.kept.job(job).map(|j| j.state);
                        assert_eq!(state, Ok(JobState::Queued), "{job} keeps a delay slate");
                    }
                }
                9..=10 => {
                    if let Some(&id) = pick(rng, &twin.live_ids(JobState::is_active)) {
                        twin.execute(Record::Finish { job: id, now }).unwrap();
                        twin.went_terminal(id);
                    }
                }
                11 => {
                    let mut victim = pick(rng, &twin.live_ids(|_| true)).copied();
                    // Half the time a queued job some grant has delayed:
                    // its slate has to go with it.
                    let mut delayed: Vec<JobId> = twin
                        .maui
                        .dfs()
                        .delayed_jobs()
                        .filter(|&id| twin.kept.job(id).is_ok_and(|j| j.state == JobState::Queued))
                        .collect();
                    delayed.sort_unstable();
                    if !delayed.is_empty() && side.chance(0.5) {
                        victim = Some(*side.pick(&delayed));
                    }
                    if let Some(id) = victim {
                        bump(&witness.delayed_jobs_deleted, delayed.contains(&id) as u32);
                        twin.execute(Record::Qdel { job: id, now }).unwrap();
                        twin.went_terminal(id);
                    }
                }
                12 => {
                    // Any live job, asking for what its execution model
                    // declares: queued, rigid (zero cores) and
                    // already-DynQueued ones exercise the denial paths.
                    if let Some(&id) = pick(rng, &twin.live_ids(|_| true)) {
                        let extra = twin.kept.job(id).unwrap().spec.exec.extra_cores();
                        let deadline = rng
                            .chance(0.5)
                            .then(|| now + SimDuration::from_secs(rng.range(5, 120)));
                        let _ = twin.execute(Record::DynGet {
                            job: id,
                            extra_cores: extra,
                            deadline,
                            now,
                        });
                    }
                }
                13 => {
                    if let Some(&id) = pick(rng, &twin.live_ids(JobState::is_active)) {
                        let mut alloc = twin.kept.cluster().allocation_of(id).unwrap().clone();
                        let part = alloc.take(rng.range_u32(1, 5));
                        let _ = twin.execute(Record::DynFree {
                            job: id,
                            released: part,
                            now,
                        });
                    }
                }
                14 => {
                    twin.execute(Record::ExpireSweep { now }).unwrap();
                }
                15 => {
                    let node = NodeId(rng.range_u32(0, NODES));
                    let up = twin
                        .kept
                        .cluster()
                        .nodes()
                        .any(|n| n.id() == node && n.is_up());
                    if up {
                        twin.execute(Record::NodeFailed { node, now }).unwrap();
                    } else {
                        twin.execute(Record::NodeRepaired { node }).unwrap();
                    }
                }
                16 => {
                    twin.flip_retains = !twin.flip_retains;
                    twin.flip.set_job_retention(twin.flip_retains);
                    if !twin.flip_retains {
                        twin.flip_kept_terminal.clear();
                    }
                    twin.tracked[1].retention_flipped();
                }
                17 => {
                    if let Some(&id) = pick(rng, &twin.terminal) {
                        twin.poke_terminal(id, rng, now);
                    }
                }
                18 => {
                    // Crash + recovery, or an image round trip: the job
                    // tables are rebuilt from a flat id-ordered list.
                    let digest = twin.kept.state_digest();
                    if rng.chance(0.5) {
                        let journal = twin.kept.take_journal().expect("journal on");
                        twin.kept = PbsServer::recover(journal).unwrap();
                        twin.tracked[0].cut = Some(Cut::Recovery);
                    } else {
                        twin.kept = installed(&twin.kept.image());
                        twin.kept.enable_journal(SNAPSHOT_EVERY);
                        twin.tracked[0] = Tracked::default();
                    }
                    assert_eq!(twin.kept.state_digest(), digest);
                    // An image holds the outcomes retained, and a server
                    // loaded from one digests only those: `flip` goes
                    // round while its log is whole. Retention is a
                    // per-process setting the image does not carry; set
                    // after the journal is on, it cuts the notes off like
                    // any other flip.
                    let log = twin.flip.accounting();
                    if log.outcomes().len() as u64 == log.recorded() {
                        twin.flip = installed(&twin.flip.image());
                        twin.flip.enable_journal(SNAPSHOT_EVERY);
                        twin.flip.set_job_retention(twin.flip_retains);
                        twin.flip
                            .set_accounting_retention(twin.flip_retains_outcomes);
                        twin.tracked[1] = Tracked::default();
                        twin.tracked[1].retention_flipped();
                    }
                }
                _ => {
                    if rng.chance(0.25) {
                        twin.kept = fresh_server();
                        twin.flip = fresh_server();
                        twin.flip_retains = true;
                        twin.flip_retains_outcomes = true;
                        twin.flip_kept_terminal.clear();
                        twin.terminal.clear();
                        twin.maui = fresh_maui(twin.guarantee, twin.preempt);
                        twin.arm();
                        assert!(twin.kept.jobs().next().is_none());
                    }
                }
            }
            twin.check(now);
        }
    };
    check(48, 0x7AB1E, case);
    // Coverage witnesses: the equalities above say nothing about a kind
    // of compaction the seeded run never performs.
    for (what, count) in [
        (
            "patched from the newest snapshot",
            witness.patched_from_latest.get(),
        ),
        (
            "patched from an older snapshot",
            witness.patched_from_older.get(),
        ),
        (
            "imaged in full after recovery",
            witness.rebuilt_after_recovery.get(),
        ),
        (
            "imaged in full after a retention flip",
            witness.rebuilt_after_retention_flip.get(),
        ),
    ] {
        assert!(count > 0, "no compaction was {what}");
    }
    assert!(
        witness.retired_ids_patched.get() > 0,
        "no retired job was brought to its final state"
    );
    assert!(
        witness.retired_ids_evicted.get() > 0,
        "no retired job was dropped from an image"
    );
    assert!(
        witness.delayed_jobs_deleted.get() > 0,
        "no queued job with a delay slate was deleted"
    );
    // Equalities only: the seeds on which a grant to a job past its
    // walltime booked nothing, and a node failure under the guaranteeing
    // policy left more pre-reserved than the machine had.
    for seed in [0x1, 0x2, 0x3, 0x7AB1F, 0x7AB20, 0x7AB21, 0x7AB22] {
        check(64, seed, case);
    }
}

impl Tracked {
    /// `flip` changed what it retains: the notes are cut off, and its
    /// image no longer holds what the flip swept.
    fn retention_flipped(&mut self) {
        self.cut = Some(Cut::RetentionFlip);
        self.moved_on = true;
    }
}

/// What a server's next compaction could patch, read before the command
/// that may trigger it.
struct Discardable {
    /// Position of the newest snapshot below the retain floor.
    newest: Option<u64>,
    /// Position of the newest snapshot in the journal.
    latest: u64,
    /// Where the server's retirement notes reach back to.
    patchable_from: Option<u64>,
}

impl Discardable {
    fn of(server: &PbsServer, floor: u64) -> Self {
        let journal = server.journal().expect("journal on");
        let newest = (journal.first_pos()..)
            .zip(journal.records())
            .filter(|(pos, r)| matches!(r, Record::Snapshot(_)) && (floor == 0 || *pos < floor))
            .map(|(pos, _)| pos)
            .last();
        Discardable {
            newest,
            latest: journal.latest_snapshot().expect("genesis at least").0,
            patchable_from: server.patchable_from(),
        }
    }

    /// A compaction ran: it must have patched `newest` unless it had no
    /// choice.
    fn judge(&self, work: Work, tracked: &mut Tracked, witness: &Witness) {
        let usable = self
            .newest
            .filter(|&pos| self.patchable_from.is_some_and(|from| pos >= from));
        assert_eq!(
            work.patched_from, usable,
            "{work:?}, newest discardable {:?}, notes from {:?}",
            self.newest, self.patchable_from
        );
        tracked.moved_on = false;
        if let Some(pos) = work.patched_from {
            assert_eq!(tracked.cut, None, "patched across a cut");
            if pos == self.latest {
                bump(&witness.patched_from_latest, 1);
            } else {
                bump(&witness.patched_from_older, 1);
            }
            bump(&witness.retired_ids_patched, work.retired);
            bump(&witness.retired_ids_evicted, work.evicted);
        } else if self.patchable_from.is_none() {
            match tracked.cut.take().expect("notes cut off by the test") {
                Cut::Recovery => bump(&witness.rebuilt_after_recovery, 1),
                Cut::RetentionFlip => bump(&witness.rebuilt_after_retention_flip, 1),
            }
        }
    }
}

/// Executes `record`, holding the journal to the one-record rule: it grows
/// by exactly that record when `execute` reports a change — plus the
/// compacting snapshot the append may trigger — and by nothing for a
/// denied or no-op record. (A logged no-op replays to the same state, so
/// no crash or digest comparison would notice one.)
fn execute_and_check(server: &mut PbsServer, record: Record) -> Result<Effect> {
    let positions = |s: &PbsServer| {
        let journal = s.journal().expect("journal on");
        let newest_snapshot = journal.latest_snapshot().expect("genesis at least").0;
        (journal.total_appended(), newest_snapshot)
    };
    let (before, _) = positions(server);
    let effect = server.execute(record);
    let (after, newest_snapshot) = positions(server);
    let changed = matches!(effect, Ok(ref e) if *e != Effect::Unchanged);
    let compacted = newest_snapshot > before;
    assert!(changed || !compacted, "{effect:?} compacted");
    assert_eq!(
        after - before,
        u64::from(changed) + u64::from(compacted),
        "{effect:?}"
    );
    effect
}

fn pick<'a, T>(rng: &mut TestRng, items: &'a [T]) -> Option<&'a T> {
    (!items.is_empty()).then(|| rng.pick(items))
}
