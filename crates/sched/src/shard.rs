//! Partitioned timeline maintenance and the shard worker pool.
//!
//! The sharded scheduler splits the cluster's cores into `N` contiguous
//! slices, each owned by one shard with its own
//! [`IncrementalTimeline`] — so per-shard profile maintenance and the
//! speculative planning passes (`Maui::iterate` with `shards > 1`) touch
//! disjoint state. Three pieces live here:
//!
//! * [`ShardLayout`] — the contiguous core split. On a homogeneous
//!   cluster whose node count the shard count divides, the slices are
//!   node-aligned and equal to [`dynbatch_cluster::Cluster::contiguous_slices`];
//!   otherwise a slice boundary may cross a node, which is harmless
//!   because the scheduler books cores, not nodes.
//! * [`ShardedTimeline`] — `N` incremental timelines plus the routing
//!   that keeps them coherent: every global [`ProfileDelta`] is routed
//!   to per-shard deltas through the [`ShardRouter`]'s pure
//!   hash-plus-load rule, and the per-shard profiles are merged with
//!   [`AvailabilityProfile::sum_from`] into a global profile **byte-equal
//!   to the serial timeline's** — the global step function is the
//!   pointwise sum of the shard step functions whatever the assignment,
//!   and the canonical profile form is unique.
//! * The **cross-shard reservation protocol** — shards publish free
//!   summaries ([`ShardedTimeline::free_summaries`]), the coordinator
//!   composes a [`MultiShardHold`] ([`ShardedTimeline::plan_hold`]), and
//!   [`ShardedTimeline::commit_hold`] applies one ordinary `Started`
//!   delta per part in shard-id order. If a part is rejected mid-commit
//!   (a stale summary — e.g. a node failed after the summary was
//!   published), **every part already placed is rolled back** with the
//!   matching `Finished` delta before the error returns: no shard may
//!   keep a hold of an aborted reservation.
//!
//! [`with_round_pool`] is the scoped worker pool the sharded planner
//! runs on: `sim::sweep`'s idiom (scoped threads, task-indexed slots)
//! extended with a round barrier so one pool can serve many
//! speculate/commit rounds without re-spawning threads.

use crate::incremental::{DeltaLog, IncrementalTimeline, ProfileDelta, TimelineStats};
use crate::router::{MultiShardHold, ShardRouter};
use crate::snapshot::Snapshot;
use crate::timeline::AvailabilityProfile;
use dynbatch_core::{JobId, SimTime};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The contiguous core split: shard `i` of `n` owns
/// `total / n + (i < total % n)` cores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLayout {
    cores: Vec<u32>,
}

impl ShardLayout {
    /// Splits `total_cores` over `shards` contiguous slices, remainder
    /// cores going to the lowest-id shards. Shards may own zero cores
    /// when there are more shards than cores.
    pub fn split(total_cores: u32, shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard");
        let n = shards as u32;
        let base = total_cores / n;
        let rem = total_cores % n;
        ShardLayout {
            cores: (0..n).map(|i| base + u32::from(i < rem)).collect(),
        }
    }

    /// Cores per shard, in shard-id order.
    pub fn cores(&self) -> &[u32] {
        &self.cores
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.cores.len()
    }

    /// Total cores across all shards.
    pub fn total(&self) -> u32 {
        self.cores.iter().sum()
    }
}

/// Why a cross-shard commit failed (the hold was fully rolled back).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCommitError {
    /// The shard that rejected its part.
    pub shard: usize,
    /// Cores the stale hold asked of it.
    pub asked: u32,
    /// Cores it actually had free.
    pub free: u32,
}

/// Where one job's booked cores live across the shards.
#[derive(Debug, Clone, PartialEq, Eq)]
struct JobParts {
    /// `(shard, cores)` slices, sorted by shard id, all non-zero.
    parts: Vec<(usize, u32)>,
    /// The job's true walltime end — a grow that spills onto a new shard
    /// must book the new slice with the same end as the old ones.
    walltime_end: SimTime,
}

/// `N` per-shard incremental timelines kept coherent with the serial
/// [`IncrementalTimeline`]: same continuity rules, same re-anchor and
/// re-clamp semantics, and a merged profile asserted byte-equal to the
/// serial one (`profile_from_running`) by `Maui`'s equality guards.
#[derive(Debug, Clone)]
pub struct ShardedTimeline {
    router: ShardRouter,
    layout: ShardLayout,
    shards: Vec<IncrementalTimeline>,
    parts: HashMap<JobId, JobParts>,
    /// Free cores per shard at the current anchor (`now` of the last
    /// advance) — the published summaries holds are composed from.
    free_now: Vec<u32>,
    /// The anchor of the last advance.
    now: SimTime,
    /// Epoch of the snapshot last advanced to (continuity tracking,
    /// mirroring the serial timeline).
    epoch: Option<u64>,
    merged: AvailabilityProfile,
    stats: TimelineStats,
}

impl ShardedTimeline {
    /// An empty sharded timeline; the first advance always rebuilds.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard");
        ShardedTimeline {
            router: ShardRouter::new(shards),
            layout: ShardLayout::split(0, shards),
            shards: (0..shards).map(|_| IncrementalTimeline::new()).collect(),
            parts: HashMap::new(),
            free_now: vec![0; shards],
            now: SimTime::ZERO,
            epoch: None,
            merged: AvailabilityProfile::new(SimTime::ZERO, 0),
            stats: TimelineStats::default(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The merged (whole-cluster) profile, anchored at the last advance.
    pub fn profile(&self) -> &AvailabilityProfile {
        &self.merged
    }

    /// One shard's own profile.
    pub fn shard_profile(&self, shard: usize) -> &AvailabilityProfile {
        self.shards[shard].profile()
    }

    /// Maintenance counters (rebuilds / delta batches count whole
    /// advances, not per-shard applications).
    pub fn stats(&self) -> TimelineStats {
        self.stats
    }

    /// Forgets continuity: the next advance rebuilds unconditionally.
    pub fn invalidate(&mut self) {
        self.epoch = None;
    }

    /// The per-shard free-capacity summaries at the current anchor —
    /// what the coordinator composes cross-shard holds from.
    pub fn free_summaries(&self) -> &[u32] {
        &self.free_now
    }

    /// Stage 1 of the reservation protocol: compose a hold of `width`
    /// cores for `job` from the published summaries. `None` when the
    /// shards cannot carry it.
    pub fn plan_hold(&self, job: JobId, width: u32) -> Option<MultiShardHold> {
        self.router.compose_hold(job, width, &self.free_now)
    }

    /// Stage 2: commit a composed hold by applying one ordinary
    /// `Started` delta per part, in shard-id order. On a mid-commit
    /// rejection — the summary went stale between compose and commit —
    /// every already-placed part is released again (the abort path) and
    /// the error names the rejecting shard. After `Ok`, the hold is
    /// indistinguishable from one routed through
    /// [`ShardedTimeline::advance`].
    pub fn commit_hold(
        &mut self,
        hold: &MultiShardHold,
        walltime_end: SimTime,
    ) -> Result<(), ShardCommitError> {
        let now = self.now;
        for (i, &(s, c)) in hold.parts.iter().enumerate() {
            let started = ProfileDelta::Started {
                job: hold.job,
                held_cores: c,
                walltime_end,
            };
            if c > self.free_now[s] || !self.shards[s].apply_ops(now, &[started]) {
                // Abort: release every part placed so far, in every shard
                // it touched — a rejected cross-shard reservation must
                // leave no residue anywhere.
                let free = self.free_now[s];
                for &(ps, pc) in &hold.parts[..i] {
                    let ok =
                        self.shards[ps].apply_ops(now, &[ProfileDelta::Finished { job: hold.job }]);
                    debug_assert!(ok, "rollback of a just-placed part cannot fail");
                    self.free_now[ps] += pc;
                }
                return Err(ShardCommitError {
                    shard: s,
                    asked: c,
                    free,
                });
            }
            self.free_now[s] -= c;
        }
        self.parts.insert(
            hold.job,
            JobParts {
                parts: hold.parts.clone(),
                walltime_end,
            },
        );
        Ok(())
    }

    /// Brings all shards up to `snap`: the delta fast path when the
    /// snapshot's log extends the epoch last advanced to, a full rebuild
    /// otherwise. Either way the merged profile equals
    /// `profile_from_running(snap.now, snap.total_cores, &snap.running)`.
    pub fn advance(&mut self, snap: &Snapshot) -> &AvailabilityProfile {
        let continuous = match (&snap.deltas, self.epoch) {
            (Some(log), Some(epoch)) => {
                log.base_epoch == epoch
                    && snap.total_cores == self.layout.total()
                    && snap.now >= self.now
                    && !log
                        .deltas
                        .iter()
                        .any(|d| matches!(d, ProfileDelta::CapacityChanged))
            }
            _ => false,
        };
        let applied = continuous && {
            let log = snap.deltas.as_ref().expect("continuity implies a log");
            self.apply_log(snap.now, log)
        };
        if applied {
            self.stats.delta_batches += 1;
        } else {
            self.rebuild(snap);
            self.stats.rebuilds += 1;
        }
        self.epoch = snap.deltas.as_ref().map(|log| log.epoch);
        self.merge();
        &self.merged
    }

    /// Routes one global delta log into per-shard applications. Returns
    /// `false` on any inconsistency — shard state may then be torn and
    /// the caller rebuilds everything.
    fn apply_log(&mut self, now: SimTime, log: &DeltaLog) -> bool {
        self.now = now;
        for tl in &mut self.shards {
            tl.reanchor(now);
        }
        for delta in &log.deltas {
            match *delta {
                ProfileDelta::Started {
                    job,
                    held_cores,
                    walltime_end,
                } => {
                    if self.parts.contains_key(&job) {
                        return false;
                    }
                    let Some(hold) = self.router.compose_hold(job, held_cores, &self.free_now)
                    else {
                        return false;
                    };
                    if self.commit_hold(&hold, walltime_end).is_err() {
                        return false;
                    }
                }
                ProfileDelta::Finished { job } => {
                    let Some(jp) = self.parts.remove(&job) else {
                        return false;
                    };
                    for &(s, c) in &jp.parts {
                        if !self.shards[s].apply_ops(now, &[ProfileDelta::Finished { job }]) {
                            return false;
                        }
                        self.free_now[s] += c;
                    }
                }
                ProfileDelta::Resized { job, held_cores } => {
                    if !self.route_resize(now, job, held_cores) {
                        return false;
                    }
                }
                // Filtered out by the continuity check; defensive.
                ProfileDelta::CapacityChanged => return false,
            }
            self.stats.deltas_applied += 1;
        }
        true
    }

    /// Routes a resize: a grow fills the shards already holding parts
    /// (in shard-id order) and spills the rest through the router; a
    /// shrink releases from the highest-id part backwards.
    fn route_resize(&mut self, now: SimTime, job: JobId, held_cores: u32) -> bool {
        let Some(jp) = self.parts.get_mut(&job) else {
            return false;
        };
        let cur: u32 = jp.parts.iter().map(|p| p.1).sum();
        if held_cores > cur {
            let mut extra = held_cores - cur;
            // Fill existing parts up to their shard's free cores first —
            // growing in place emits a plain `Resized` on that shard.
            for p in jp.parts.iter_mut() {
                if extra == 0 {
                    break;
                }
                let take = extra.min(self.free_now[p.0]);
                if take == 0 {
                    continue;
                }
                p.1 += take;
                extra -= take;
                self.free_now[p.0] -= take;
                let resized = ProfileDelta::Resized {
                    job,
                    held_cores: p.1,
                };
                if !self.shards[p.0].apply_ops(now, &[resized]) {
                    return false;
                }
            }
            if extra > 0 {
                // Spill onto shards the job does not touch yet: an
                // ordinary composed hold, booked with the job's walltime
                // end so the new slices end with the old ones.
                let Some(hold) = self.router.compose_hold(job, extra, &self.free_now) else {
                    return false;
                };
                for &(s, c) in &hold.parts {
                    debug_assert!(
                        !jp.parts.iter().any(|p| p.0 == s),
                        "in-place fill exhausted free cores on held shards"
                    );
                    let started = ProfileDelta::Started {
                        job,
                        held_cores: c,
                        walltime_end: jp.walltime_end,
                    };
                    if !self.shards[s].apply_ops(now, &[started]) {
                        return false;
                    }
                    self.free_now[s] -= c;
                    jp.parts.push((s, c));
                }
                jp.parts.sort_unstable_by_key(|p| p.0);
            }
        } else if held_cores < cur {
            let mut give = cur - held_cores;
            while give > 0 {
                let Some(last) = jp.parts.last_mut() else {
                    return false;
                };
                let (s, take) = (last.0, last.1.min(give));
                last.1 -= take;
                give -= take;
                self.free_now[s] += take;
                let op = if last.1 == 0 {
                    jp.parts.pop();
                    ProfileDelta::Finished { job }
                } else {
                    ProfileDelta::Resized {
                        job,
                        held_cores: last.1,
                    }
                };
                if !self.shards[s].apply_ops(now, &[op]) {
                    return false;
                }
            }
            if jp.parts.is_empty() {
                // A resize to zero width: the job holds nothing anywhere
                // (the serial timeline keeps a zero-core hold; shards
                // drop it, which merges to the same profile, and a later
                // `Resized` back up re-books it as a fresh hold).
                self.parts.remove(&job);
            }
        }
        true
    }

    /// The slow path: re-split the layout for the snapshot's capacity and
    /// route every running job's hold from scratch, in running-set order.
    fn rebuild(&mut self, snap: &Snapshot) {
        let n = self.shards.len();
        self.now = snap.now;
        self.layout = ShardLayout::split(snap.total_cores, n);
        self.free_now.copy_from_slice(self.layout.cores());
        self.parts.clear();
        let mut shard_parts: Vec<Vec<(JobId, u32, SimTime)>> = vec![Vec::new(); n];
        for r in &snap.running {
            let width = r.cores + r.reserved_extra;
            let hold = self
                .router
                .compose_hold(r.id, width, &self.free_now)
                .expect("running set cannot exceed total cores");
            for &(s, c) in &hold.parts {
                shard_parts[s].push((r.id, c, r.walltime_end));
                self.free_now[s] -= c;
            }
            self.parts.insert(
                r.id,
                JobParts {
                    parts: hold.parts,
                    walltime_end: r.walltime_end,
                },
            );
        }
        for (s, tl) in self.shards.iter_mut().enumerate() {
            tl.rebuild_parts(snap.now, self.layout.cores()[s], &shard_parts[s]);
        }
    }

    /// Merges the per-shard profiles into the whole-cluster profile.
    fn merge(&mut self) {
        let parts: Vec<&AvailabilityProfile> = self.shards.iter().map(|t| t.profile()).collect();
        self.merged.sum_from(&parts);
    }
}

/// Control block of the round pool.
struct PoolCtrl {
    round: AtomicU64,
    done: AtomicU64,
    stop: AtomicBool,
    panicked: AtomicBool,
}

/// Sets `stop` when dropped, so a panic unwinding out of the driver
/// releases the spinning workers instead of deadlocking the scope.
struct StopGuard<'a>(&'a PoolCtrl);

impl Drop for StopGuard<'_> {
    fn drop(&mut self) {
        self.0.stop.store(true, Ordering::Release);
    }
}

/// Runs `drive` with a round-synchronised worker pool over `shared`.
///
/// Calling the closure handed to `drive` runs `work(shared, worker_id)`
/// once on every worker (the caller participates as worker 0) and
/// returns when all are finished — one speculation round. Workers park
/// between rounds on a yield-spin, so a single `std::thread::scope`
/// serves an arbitrary number of rounds without re-spawning threads:
/// this is `sim::sweep`'s scoped-pool idiom plus a reusable barrier.
///
/// With `workers <= 1` no threads are spawned and a round is a plain
/// call to `work(shared, 0)` — the degenerate path a single-core host
/// (and the CI container) takes, same code, same results: `work` must
/// derive everything from `shared` and its claimed tasks, never from
/// the worker id or count.
///
/// A panic in `work` on any worker is re-raised from the next round
/// call on the driver; a panic in `drive` itself stops the workers
/// before the scope joins them.
pub fn with_round_pool<W, R>(
    workers: usize,
    shared: &W,
    work: impl Fn(&W, usize) + Sync,
    drive: impl FnOnce(&mut dyn FnMut()) -> R,
) -> R
where
    W: Sync,
{
    if workers <= 1 {
        let mut round = || work(shared, 0);
        return drive(&mut round);
    }
    let ctrl = PoolCtrl {
        round: AtomicU64::new(0),
        done: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        panicked: AtomicBool::new(false),
    };
    std::thread::scope(|scope| {
        let ctrl = &ctrl;
        let work = &work;
        for wid in 1..workers {
            scope.spawn(move || {
                let mut seen = 0u64;
                loop {
                    if ctrl.stop.load(Ordering::Acquire) {
                        break;
                    }
                    let r = ctrl.round.load(Ordering::Acquire);
                    if r == seen {
                        std::thread::yield_now();
                        continue;
                    }
                    seen = r;
                    // Keep a worker panic from deadlocking the barrier:
                    // record it, count the worker done, and let the
                    // driver re-raise after the round completes.
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        work(shared, wid)
                    }));
                    if outcome.is_err() {
                        ctrl.panicked.store(true, Ordering::Release);
                    }
                    ctrl.done.fetch_add(1, Ordering::Release);
                }
            });
        }
        let _guard = StopGuard(ctrl);
        let mut round = || {
            ctrl.done.store(0, Ordering::Relaxed);
            ctrl.round.fetch_add(1, Ordering::Release);
            work(shared, 0);
            while ctrl.done.load(Ordering::Acquire) < (workers - 1) as u64 {
                std::thread::yield_now();
            }
            assert!(
                !ctrl.panicked.load(Ordering::Acquire),
                "a shard worker panicked during the round"
            );
        };
        drive(&mut round)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::profile_from_running;
    use crate::snapshot::RunningJob;
    use dynbatch_core::{GroupId, UserId};
    use std::sync::atomic::AtomicUsize;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn running(id: u64, cores: u32, end: SimTime) -> RunningJob {
        RunningJob {
            id: JobId(id),
            user: UserId(0),
            group: GroupId(0),
            cores,
            start_time: SimTime::ZERO,
            walltime_end: end,
            backfilled: false,
            reserved_extra: 0,
            malleable: None,
        }
    }

    fn snap(
        now: SimTime,
        total: u32,
        running: Vec<RunningJob>,
        deltas: Option<DeltaLog>,
    ) -> Snapshot {
        Snapshot {
            now,
            total_cores: total,
            running: running.into(),
            deltas,
            ..Default::default()
        }
    }

    #[test]
    fn layout_splits_contiguously_with_remainder_first() {
        assert_eq!(ShardLayout::split(120, 4).cores(), &[30, 30, 30, 30]);
        assert_eq!(ShardLayout::split(10, 3).cores(), &[4, 3, 3]);
        assert_eq!(ShardLayout::split(2, 5).cores(), &[1, 1, 0, 0, 0]);
        assert_eq!(ShardLayout::split(7, 1).cores(), &[7]);
        assert_eq!(ShardLayout::split(10, 3).total(), 10);
    }

    #[test]
    fn sharded_advance_matches_serial_profile() {
        // Deltas routed across 3 shards must merge to exactly the serial
        // profile, through starts, finishes, resizes and overdue jobs.
        let mut tl = ShardedTimeline::new(3);
        let jobs = vec![running(1, 6, t(100)), running(2, 5, t(50))];
        tl.advance(&snap(
            t(0),
            16,
            jobs.clone(),
            Some(DeltaLog {
                base_epoch: 0,
                epoch: 1,
                deltas: vec![],
            }),
        ));
        assert_eq!(tl.stats().rebuilds, 1);
        assert_eq!(*tl.profile(), profile_from_running(t(0), 16, &jobs));

        // Wide job 3 (8 cores) cannot fit in one shard of ~5: it becomes
        // a cross-shard hold on the fast path.
        let jobs2 = vec![
            running(1, 6, t(100)),
            running(2, 5, t(50)),
            running(3, 5, t(80)),
        ];
        tl.advance(&snap(
            t(10),
            16,
            jobs2.clone(),
            Some(DeltaLog {
                base_epoch: 1,
                epoch: 2,
                deltas: vec![ProfileDelta::Started {
                    job: JobId(3),
                    held_cores: 5,
                    walltime_end: t(80),
                }],
            }),
        ));
        assert_eq!(tl.stats().delta_batches, 1);
        assert_eq!(*tl.profile(), profile_from_running(t(10), 16, &jobs2));

        // Shrink job 1, finish job 2, grow job 3 past its shard.
        let jobs3 = vec![running(1, 2, t(100)), running(3, 9, t(80))];
        tl.advance(&snap(
            t(20),
            16,
            jobs3.clone(),
            Some(DeltaLog {
                base_epoch: 2,
                epoch: 3,
                deltas: vec![
                    ProfileDelta::Resized {
                        job: JobId(1),
                        held_cores: 2,
                    },
                    ProfileDelta::Finished { job: JobId(2) },
                    ProfileDelta::Resized {
                        job: JobId(3),
                        held_cores: 9,
                    },
                ],
            }),
        ));
        assert_eq!(tl.stats().delta_batches, 2);
        assert_eq!(*tl.profile(), profile_from_running(t(20), 16, &jobs3));
        assert_eq!(
            tl.free_summaries().iter().sum::<u32>(),
            16 - 11,
            "summaries track booked cores"
        );
    }

    #[test]
    fn epoch_gap_forces_rebuild_and_recovers() {
        let mut tl = ShardedTimeline::new(2);
        let jobs = vec![running(1, 4, t(100))];
        tl.advance(&snap(
            t(0),
            8,
            jobs.clone(),
            Some(DeltaLog {
                base_epoch: 0,
                epoch: 1,
                deltas: vec![],
            }),
        ));
        tl.advance(&snap(
            t(5),
            8,
            jobs.clone(),
            Some(DeltaLog {
                base_epoch: 7,
                epoch: 8,
                deltas: vec![],
            }),
        ));
        assert_eq!(tl.stats().rebuilds, 2, "epoch gap rebuilds");
        assert_eq!(*tl.profile(), profile_from_running(t(5), 8, &jobs));
    }

    #[test]
    fn stale_hold_commit_aborts_everywhere() {
        // The cross-shard abort regression: a hold composed from stale
        // summaries must, when a later shard rejects its part, release
        // the parts earlier shards already booked. (Without the rollback
        // loop in `commit_hold`, the earlier shards keep phantom holds
        // and the summaries drift from the booked state.)
        let mut tl = ShardedTimeline::new(3);
        tl.advance(&snap(
            t(0),
            12,
            vec![],
            Some(DeltaLog {
                base_epoch: 0,
                epoch: 1,
                deltas: vec![],
            }),
        ));
        let before_free = tl.free_summaries().to_vec();
        let before_profiles: Vec<AvailabilityProfile> =
            (0..3).map(|s| tl.shard_profile(s).clone()).collect();

        // Compose a wide hold spanning all three shards, then invalidate
        // it: a competing job takes the last shard's cores between
        // compose and commit (the "node failed / summary stale" window).
        let wide = tl.plan_hold(JobId(10), 11).expect("11 of 12 fit");
        assert!(wide.parts.len() == 3, "hold spans all shards: {wide:?}");
        let competing = tl
            .router
            .compose_hold(JobId(99), 2, &[0, 0, 4])
            .expect("shard 2 has cores");
        tl.commit_hold(&competing, t(200)).expect("commit fits");

        let err = tl
            .commit_hold(&wide, t(100))
            .expect_err("stale hold must be rejected");
        assert_eq!(err.shard, 2, "the consumed shard rejects");

        // Abort must leave zero residue: summaries and every shard
        // profile (beyond the competing hold) exactly as before.
        for s in 0..3 {
            let expected_free = before_free[s] - if s == 2 { 2 } else { 0 };
            assert_eq!(tl.free_summaries()[s], expected_free, "shard {s} free");
            if s != 2 {
                assert_eq!(
                    *tl.shard_profile(s),
                    before_profiles[s],
                    "shard {s} kept a hold of the aborted reservation"
                );
            }
        }
        // And the aborted job is bookable again once capacity returns.
        let retry = tl.plan_hold(JobId(10), 9).expect("9 still free");
        tl.commit_hold(&retry, t(100)).expect("clean state commits");
    }

    #[test]
    fn round_pool_runs_every_worker_each_round() {
        for workers in [1, 2, 4] {
            let hits = AtomicUsize::new(0);
            let rounds = 5;
            with_round_pool(
                workers,
                &hits,
                |h, _wid| {
                    h.fetch_add(1, Ordering::Relaxed);
                },
                |round| {
                    for _ in 0..rounds {
                        round();
                    }
                },
            );
            assert_eq!(hits.load(Ordering::Relaxed), workers.max(1) * rounds);
        }
    }

    #[test]
    fn round_pool_propagates_worker_panics() {
        let caught = std::panic::catch_unwind(|| {
            with_round_pool(
                2,
                &(),
                |_, wid| {
                    if wid == 1 {
                        panic!("boom");
                    }
                },
                |round| round(),
            );
        });
        assert!(caught.is_err(), "worker panic must reach the driver");
    }
}
