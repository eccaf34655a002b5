//! Job prioritisation (Maui-style composite priority).
//!
//! The Maui scheduler computes a weighted sum of priority factors per job
//! and services jobs in descending order. We implement the factors the
//! paper's evaluation exercises: queue time (the FIFO backbone), the
//! expansion factor, resource size, an additive boost (used by the ESP Z
//! jobs), and the static-fairshare deviation.

use crate::fairshare::FairshareTracker;
use crate::snapshot::{QueuedJob, QueuedSet};
use crate::usage_history::UsageSnapshot;
use dynbatch_core::{FairshareConfig, PriorityWeights, QueueId, SimTime, UserId};
use std::cmp::Ordering;

/// The fairness mechanism feeding the composite priority — selected by
/// [`dynbatch_core::FairshareMode`].
///
/// `Static` is the classic windowed tracker; `TimeAware` reads the
/// decayed resource-hour accounts ([`crate::usage_history`]) and adds
/// budget demotion on top of the share-deviation delta. Passed by value:
/// it is a couple of borrows.
#[derive(Debug, Clone, Copy)]
pub enum FairnessView<'a> {
    /// No fairness contribution at all.
    None,
    /// Classic windowed fairshare (byte-identical to the historical
    /// behavior of passing `Option<&FairshareTracker>`).
    Static(&'a FairshareTracker),
    /// Decayed resource-hour fairness: share deviation plus budget
    /// demotion. `usage: None` (no accounts published yet) contributes
    /// the target-only delta, exactly like an empty history.
    TimeAware {
        /// The fairshare configuration (targets, budgets, demotion).
        config: &'a FairshareConfig,
        /// The decayed accounts valued at the scheduling instant.
        usage: Option<&'a UsageSnapshot>,
    },
}

impl FairnessView<'_> {
    /// The fairshare priority component for `user`: `target − share`,
    /// positive when the user is under-served.
    pub fn delta(&self, user: UserId) -> f64 {
        match self {
            FairnessView::None => 0.0,
            FairnessView::Static(fs) => fs.priority_delta(user),
            FairnessView::TimeAware { config, usage } => {
                if !config.enabled {
                    return 0.0;
                }
                let target = config
                    .user_targets
                    .get(&user)
                    .copied()
                    .unwrap_or(config.default_target);
                target - usage.map_or(0.0, |u| u.user_share(user))
            }
        }
    }

    /// The resource-hour budget demotion for a job of `user` in `queue`:
    /// `budget_demotion` when either the user or the queue is over its
    /// decayed core-hour budget, else `0.0`. Over-budget owners' jobs
    /// are *demoted*, never denied — they rank behind in-budget work and
    /// recover as decay drains the account.
    pub fn demotion(&self, user: UserId, queue: QueueId) -> f64 {
        match self {
            FairnessView::TimeAware {
                config,
                usage: Some(u),
            } if config.enabled => {
                let over_user = config
                    .user_budget_core_hours
                    .is_some_and(|b| u.user_core_hours(user) > b);
                let over_queue = config
                    .queue_budget_core_hours
                    .is_some_and(|b| u.queue_core_hours(queue) > b);
                if over_user || over_queue {
                    config.budget_demotion
                } else {
                    0.0
                }
            }
            _ => 0.0,
        }
    }
}

/// A queued job's computed priority, with deterministic tie-breaking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Priority {
    /// The composite score (higher runs first).
    pub score: f64,
    /// Tie-break 1: earlier submission wins.
    pub submit_time: SimTime,
    /// Tie-break 2: lower job id wins.
    pub job_seq: u64,
}

impl Priority {
    /// Total order: score desc, then submit asc, then id asc.
    pub fn cmp_desc(&self, other: &Priority) -> Ordering {
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.submit_time.cmp(&other.submit_time))
            .then_with(|| self.job_seq.cmp(&other.job_seq))
    }
}

/// Computes the composite priority of a queued job at instant `now`.
///
/// The budget demotion subtracts after the weighted sum; a demotion of
/// `0.0` (every non-time-aware view) leaves the score bit-identical to
/// the historical formula.
pub fn priority_of(
    job: &QueuedJob,
    now: SimTime,
    weights: &PriorityWeights,
    fairness: FairnessView<'_>,
) -> Priority {
    let wait_min = now.duration_since(job.submit_time).as_mins_f64();
    // The expansion factor is finite (the walltime floor sees to that),
    // so under a zero weight its term is a zero and adding it changes no
    // comparison: the two divisions are only made when they count.
    let expansion_term = if weights.expansion_weight == 0.0 {
        0.0
    } else {
        let walltime_min = job.walltime.as_mins_f64().max(1e-9);
        weights.expansion_weight * (wait_min / walltime_min)
    };
    let fs_delta = fairness.delta(job.user);
    let score = job.priority_boost as f64
        + weights.queue_time_weight * wait_min
        + expansion_term
        + weights.resource_weight * job.cores as f64
        + weights.fairshare_weight * fs_delta
        - fairness.demotion(job.user, job.queue);
    Priority {
        score,
        submit_time: job.submit_time,
        job_seq: job.id.0,
    }
}

/// Sorts queued jobs into scheduling order (highest priority first).
///
/// Generic over ownership so the scheduler can rank a vector of
/// `&QueuedJob` borrowed straight from the snapshot — the hot path never
/// clones the queue.
pub fn rank_jobs<J: std::borrow::Borrow<QueuedJob>>(
    jobs: &mut [J],
    now: SimTime,
    weights: &PriorityWeights,
    fairness: FairnessView<'_>,
) {
    jobs.sort_by(|a, b| {
        priority_of(a.borrow(), now, weights, fairness).cmp_desc(&priority_of(
            b.borrow(),
            now,
            weights,
            fairness,
        ))
    });
}

/// The queue in scheduling order, as [`RankOrder::rank`] hands it to the
/// passes of one iteration.
#[derive(Debug)]
pub(crate) struct Ranked<'a> {
    /// The queued jobs, highest priority first — the permutation
    /// [`rank_jobs`] produces.
    pub jobs: Vec<&'a QueuedJob>,
    /// Per job, in the same order: the fewest idle cores it can start on
    /// ([`QueuedJob::min_start_width`]). Kept apart from the jobs so a
    /// pass that only asks "could this fit in what is idle now?" reads
    /// four bytes per job, not the job.
    pub need: &'a [u32],
}

/// Ranks the queue once per cycle, starting from the previous cycle's
/// order.
///
/// Priorities drift with time, but the *order* of a queue rarely changes
/// between two cycles: jobs leave, new ones arrive at the back. So the
/// scheduler keeps the last order (as slot positions of the
/// [`QueuedSet`]), computes every job's [`Priority`] exactly once, checks
/// in the same pass that the sequence is still sorted, and sorts only
/// when it is not. [`Priority::cmp_desc`] is a total order over distinct
/// job ids, so the sorted permutation is unique — the result is exactly
/// what [`rank_jobs`] returns for the same queue, which debug builds
/// assert.
///
/// The remembered positions are a hint, never trusted: a position that no
/// longer holds a job is dropped, new slots are appended, and if the
/// candidates do not add up to the queue (a different server, a swept
/// slot vector) the pass restarts from id order.
#[derive(Debug, Clone, Default)]
pub(crate) struct RankOrder {
    /// `(priority, slot position)` per queued job in rank order: the
    /// previous cycle's result, overwritten in place by the next one.
    keys: Vec<(Priority, u32)>,
    /// Slot count of the previous cycle's queue: later slots are new.
    seen: usize,
    /// [`Ranked::need`] of the current cycle.
    need: Vec<u32>,
}

impl RankOrder {
    /// Ranks `queue` at `now`; see the type's documentation.
    pub fn rank<'a>(
        &'a mut self,
        queue: &'a QueuedSet,
        now: SimTime,
        weights: &PriorityWeights,
        fairness: FairnessView<'_>,
    ) -> Ranked<'a> {
        let slots = queue.slot_count();
        let fresh = self.seen.min(slots)..slots;
        self.seen = slots;
        let mut pass = RankPass {
            queue,
            now,
            weights,
            fairness,
            jobs: Vec::with_capacity(queue.len()),
            need: std::mem::take(&mut self.need),
            sorted: true,
        };
        pass.need.clear();
        // The survivors of the previous order, compacted in place…
        let mut kept = 0usize;
        for i in 0..self.keys.len() {
            let pos = self.keys[i].1;
            if let Some(priority) = pass.visit(pos, kept.checked_sub(1).map(|p| &self.keys[p].0)) {
                self.keys[kept] = (priority, pos);
                kept += 1;
            }
        }
        self.keys.truncate(kept);
        // …then the arrivals, in slot (id) order.
        self.append(&mut pass, fresh);
        if self.keys.len() != queue.len() {
            // The hint does not cover this queue: start over from id order.
            self.keys.clear();
            pass.restart();
            self.append(&mut pass, 0..slots);
        }
        if !pass.sorted {
            self.keys.sort_by(|a, b| a.0.cmp_desc(&b.0));
            pass.restart();
            for &(_, pos) in &self.keys {
                pass.take(queue.slot(pos as usize).expect("keyed slot holds a job"));
            }
        }
        let RankPass { jobs, need, .. } = pass;
        self.need = need;
        debug_assert!(
            {
                let mut spec: Vec<&QueuedJob> = queue.iter().collect();
                rank_jobs(&mut spec, now, weights, fairness);
                spec.iter().map(|j| j.id).eq(jobs.iter().map(|j| j.id))
            },
            "rank-once order diverged from rank_jobs at {now}"
        );
        Ranked {
            jobs,
            need: &self.need,
        }
    }

    /// Visits `positions` in turn, keying every job found after the ones
    /// already keyed.
    fn append(&mut self, pass: &mut RankPass<'_, '_>, positions: std::ops::Range<usize>) {
        for pos in positions {
            let pos = pos as u32;
            if let Some(priority) = pass.visit(pos, self.keys.last().map(|k| &k.0)) {
                self.keys.push((priority, pos));
            }
        }
    }
}

/// The state of one walk over candidate slot positions.
struct RankPass<'a, 'w> {
    queue: &'a QueuedSet,
    now: SimTime,
    weights: &'w PriorityWeights,
    fairness: FairnessView<'w>,
    /// The jobs met so far, and the width each needs to start.
    jobs: Vec<&'a QueuedJob>,
    need: Vec<u32>,
    /// Whether they came in rank order.
    sorted: bool,
}

impl<'a> RankPass<'a, '_> {
    /// Visits slot `pos`: if it holds a job, records it and returns its
    /// priority, having compared it with `prev`, its predecessor's.
    fn visit(&mut self, pos: u32, prev: Option<&Priority>) -> Option<Priority> {
        let job = self.queue.slot(pos as usize)?;
        let priority = priority_of(job, self.now, self.weights, self.fairness);
        if let Some(prev) = prev {
            self.sorted &= prev.cmp_desc(&priority).is_lt();
        }
        self.take(job);
        Some(priority)
    }

    fn take(&mut self, job: &'a QueuedJob) {
        debug_assert!(job.min_start_width() > 0, "{}: a job needs a core", job.id);
        self.jobs.push(job);
        self.need.push(job.min_start_width());
    }

    fn restart(&mut self) {
        self.jobs.clear();
        self.need.clear();
        self.sorted = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynbatch_core::{GroupId, JobId, SimDuration, UserId};

    fn job(id: u64, submit_s: u64, cores: u32, boost: i64) -> QueuedJob {
        QueuedJob {
            id: JobId(id),
            user: UserId(0),
            group: GroupId(0),
            queue: QueueId(0),
            cores,
            walltime: SimDuration::from_secs(600),
            submit_time: SimTime::from_secs(submit_s),
            priority_boost: boost,
            suppress_backfill_while_queued: false,
            reserve_extra: 0,
            moldable: None,
        }
    }

    #[test]
    fn queue_time_orders_fifo() {
        let mut jobs = vec![job(2, 100, 4, 0), job(1, 0, 4, 0)];
        rank_jobs(
            &mut jobs,
            SimTime::from_secs(200),
            &PriorityWeights::default(),
            FairnessView::None,
        );
        assert_eq!(jobs[0].id, JobId(1), "older job first");
    }

    #[test]
    fn boost_dominates() {
        // The Z-job rule: once submitted it has the highest priority.
        let mut jobs = vec![job(1, 0, 4, 0), job(2, 100, 120, 1_000_000)];
        rank_jobs(
            &mut jobs,
            SimTime::from_secs(200),
            &PriorityWeights::default(),
            FairnessView::None,
        );
        assert_eq!(jobs[0].id, JobId(2));
    }

    #[test]
    fn ties_break_by_submit_then_id() {
        let mut jobs = vec![job(3, 50, 4, 0), job(2, 50, 4, 0), job(1, 60, 4, 0)];
        let w = PriorityWeights {
            queue_time_weight: 0.0,
            ..Default::default()
        };
        rank_jobs(&mut jobs, SimTime::from_secs(100), &w, FairnessView::None);
        assert_eq!(
            jobs.iter().map(|j| j.id.0).collect::<Vec<_>>(),
            vec![2, 3, 1]
        );
    }

    #[test]
    fn resource_weight_favours_large_jobs() {
        let w = PriorityWeights {
            queue_time_weight: 0.0,
            resource_weight: 1.0,
            ..Default::default()
        };
        let mut jobs = vec![job(1, 0, 4, 0), job(2, 0, 60, 0)];
        rank_jobs(&mut jobs, SimTime::from_secs(100), &w, FairnessView::None);
        assert_eq!(jobs[0].id, JobId(2));
    }

    #[test]
    fn static_view_matches_tracker_delta() {
        use dynbatch_core::FairshareConfig;
        let cfg = FairshareConfig {
            enabled: true,
            default_target: 0.5,
            ..FairshareConfig::default()
        };
        let mut fs = FairshareTracker::new(cfg, SimTime::ZERO);
        fs.charge(UserId(0), 100.0);
        let view = FairnessView::Static(&fs);
        assert_eq!(view.delta(UserId(0)), fs.priority_delta(UserId(0)));
        assert_eq!(view.demotion(UserId(0), QueueId(0)), 0.0);
    }

    #[test]
    fn time_aware_delta_reads_decayed_share() {
        use crate::usage_history::UsageHistory;
        use dynbatch_core::FairshareConfig;
        let cfg = FairshareConfig {
            enabled: true,
            default_target: 0.25,
            ..FairshareConfig::default()
        };
        let mut hist = UsageHistory::new(cfg.half_life, 100);
        // Long steady 50-core usage → share ≈ 0.5, delta ≈ −0.25.
        for hour in 0..24 * 20 {
            hist.charge(
                UserId(0),
                QueueId(0),
                50 * 3_600_000,
                SimTime::ZERO + SimDuration::from_hours(hour),
            );
        }
        let now = SimTime::ZERO + SimDuration::from_hours(24 * 20);
        let snap = hist.snapshot(now);
        let view = FairnessView::TimeAware {
            config: &cfg,
            usage: Some(&snap),
        };
        assert!((view.delta(UserId(0)) - (0.25 - 0.5)).abs() < 0.02);
        // An unseen user gets the full target.
        assert!((view.delta(UserId(7)) - 0.25).abs() < 1e-12);
        // No published accounts yet: target-only delta, no demotion.
        let unpublished = FairnessView::TimeAware {
            config: &cfg,
            usage: None,
        };
        assert_eq!(unpublished.delta(UserId(0)), 0.25);
        assert_eq!(unpublished.demotion(UserId(0), QueueId(0)), 0.0);
    }

    #[test]
    fn budget_demotion_ranks_over_budget_last() {
        use crate::usage_history::UsageHistory;
        use dynbatch_core::FairshareConfig;
        let cfg = FairshareConfig {
            enabled: true,
            user_budget_core_hours: Some(10.0),
            ..FairshareConfig::default()
        };
        let mut hist = UsageHistory::new(cfg.half_life, 100);
        hist.charge(UserId(0), QueueId(0), 20 * 3_600_000, SimTime::ZERO); // 20 core-h
        let snap = hist.snapshot(SimTime::ZERO);
        let view = FairnessView::TimeAware {
            config: &cfg,
            usage: Some(&snap),
        };
        assert_eq!(view.demotion(UserId(0), QueueId(0)), cfg.budget_demotion);
        assert_eq!(view.demotion(UserId(1), QueueId(1)), 0.0);
        // Demotion outranks ordinary priority differences.
        let mut over = job(1, 0, 4, 0);
        over.user = UserId(0);
        let mut under = job(2, 100, 4, 0);
        under.user = UserId(1);
        let mut jobs = vec![over, under];
        rank_jobs(
            &mut jobs,
            SimTime::from_secs(5000),
            &PriorityWeights::default(),
            view,
        );
        assert_eq!(jobs[0].id, JobId(2), "in-budget user first");
        // Decay drains the account below budget → demotion lifts.
        let wk = SimTime::ZERO + SimDuration::from_hours(24 * 7);
        let later = hist.snapshot(wk);
        let view = FairnessView::TimeAware {
            config: &cfg,
            usage: Some(&later),
        };
        assert_eq!(view.demotion(UserId(0), QueueId(0)), 0.0);
    }

    #[test]
    fn queue_budget_demotes_whole_queue() {
        use crate::usage_history::UsageHistory;
        use dynbatch_core::FairshareConfig;
        let cfg = FairshareConfig {
            enabled: true,
            queue_budget_core_hours: Some(5.0),
            ..FairshareConfig::default()
        };
        let mut hist = UsageHistory::new(cfg.half_life, 100);
        hist.charge(UserId(0), QueueId(3), 6 * 3_600_000, SimTime::ZERO);
        let snap = hist.snapshot(SimTime::ZERO);
        let view = FairnessView::TimeAware {
            config: &cfg,
            usage: Some(&snap),
        };
        // Any user submitting into queue 3 is demoted; other queues fine.
        assert_eq!(view.demotion(UserId(9), QueueId(3)), cfg.budget_demotion);
        assert_eq!(view.demotion(UserId(0), QueueId(1)), 0.0);
    }

    /// Ranks `queue` through `order` and through `rank_jobs`, asserts the
    /// two agree, and returns the ids in rank order.
    fn rank_both_ways(
        order: &mut RankOrder,
        queue: &QueuedSet,
        now: SimTime,
        w: &PriorityWeights,
        view: FairnessView<'_>,
    ) -> Vec<u64> {
        let mut spec: Vec<&QueuedJob> = queue.iter().collect();
        rank_jobs(&mut spec, now, w, view);
        let ranked = order.rank(queue, now, w, view);
        let ids: Vec<u64> = ranked.jobs.iter().map(|j| j.id.0).collect();
        assert_eq!(ids, spec.iter().map(|j| j.id.0).collect::<Vec<_>>());
        let need: Vec<u32> = ranked.jobs.iter().map(|j| j.min_start_width()).collect();
        assert_eq!(ranked.need, need);
        ids
    }

    #[test]
    fn remembered_order_tracks_rank_jobs_while_priorities_cross() {
        use crate::usage_history::UsageHistory;
        use dynbatch_core::testkit::TestRng;
        use dynbatch_core::FairshareConfig;
        let mut rng = TestRng::from_seed(0x0D0E);
        let fs_cfg = FairshareConfig {
            enabled: true,
            default_target: 0.2,
            half_life: SimDuration::from_secs(600),
            user_budget_core_hours: Some(1.0),
            budget_demotion: 40.0,
            ..FairshareConfig::default()
        };
        let mut tracker = FairshareTracker::new(fs_cfg.clone(), SimTime::ZERO);
        let mut hist = UsageHistory::new(fs_cfg.half_life, 64);
        // Expansion factor: short jobs overtake long ones as both wait.
        // Fairshare and the budget demotion: whole users move at once.
        let w = PriorityWeights {
            queue_time_weight: 1.0,
            expansion_weight: 3.0,
            resource_weight: 0.0,
            fairshare_weight: 50.0,
        };
        let mut queue = QueuedSet::default();
        let (mut stat, mut aware) = (RankOrder::default(), RankOrder::default());
        let (mut last_stat, mut last_aware): (Vec<u64>, Vec<u64>) = Default::default();
        let (mut reordered_stat, mut reordered_aware) = (0, 0);
        let mut next_id = 1;
        let mut now = SimTime::from_secs(100);
        for _ in 0..300 {
            for _ in 0..rng.range_usize(0, 4) {
                let mut j = job(next_id, now.as_secs() - rng.below(100), 4, 0);
                j.user = UserId(rng.range_u32(0, 4));
                j.walltime = SimDuration::from_secs(rng.range(30, 4000));
                next_id += 1;
                queue.push(j);
            }
            let ids: Vec<JobId> = queue.iter().map(|q| q.id).collect();
            for id in ids {
                // Departures, and now and then a requeue into an old slot.
                if rng.chance(0.08) {
                    let gone = queue.remove(id).expect("listed");
                    if rng.chance(0.2) {
                        queue.push(gone);
                    }
                }
            }
            let user = UserId(rng.range_u32(0, 4));
            tracker.advance_to(now);
            tracker.charge(user, rng.range(0, 5000) as f64);
            hist.charge(user, QueueId(0), rng.range(0, 3_600_000), now);
            let usage = hist.snapshot(now);

            // Which jobs moved relative to each other since last cycle?
            let crossed = |before: &[u64], after: &[u64]| {
                let kept: Vec<u64> = before
                    .iter()
                    .copied()
                    .filter(|i| after.contains(i))
                    .collect();
                let still: Vec<u64> = after
                    .iter()
                    .copied()
                    .filter(|i| before.contains(i))
                    .collect();
                kept != still
            };
            let ids = rank_both_ways(&mut stat, &queue, now, &w, FairnessView::Static(&tracker));
            reordered_stat += usize::from(crossed(&last_stat, &ids));
            last_stat = ids;
            let view = FairnessView::TimeAware {
                config: &fs_cfg,
                usage: Some(&usage),
            };
            let ids = rank_both_ways(&mut aware, &queue, now, &w, view);
            reordered_aware += usize::from(crossed(&last_aware, &ids));
            last_aware = ids;
            now += SimDuration::from_secs(rng.range(1, 120));
        }
        assert!(
            reordered_stat > 20 && reordered_aware > 20,
            "the order must really change between cycles for this to test anything: \
             {reordered_stat} / {reordered_aware} of 300"
        );
    }

    #[test]
    fn remembered_order_survives_another_queue_and_a_swept_one() {
        let w = PriorityWeights::default();
        let mut order = RankOrder::default();
        let a: QueuedSet = (1..=50).map(|i| job(i, 100 - i, 4, 0)).collect();
        rank_both_ways(
            &mut order,
            &a,
            SimTime::from_secs(200),
            &w,
            FairnessView::None,
        );
        // A different, shorter queue: none of the remembered slots match.
        let b: QueuedSet = (7..=20).map(|i| job(i, i, 4, 0)).collect();
        rank_both_ways(
            &mut order,
            &b,
            SimTime::from_secs(300),
            &w,
            FairnessView::None,
        );
        // Departures until the set sweeps its empty slots: every position
        // shifts under the remembered order.
        let mut c = a.clone();
        for i in 1..=45 {
            c.remove(JobId(i));
            if i % 9 == 0 {
                rank_both_ways(
                    &mut order,
                    &c,
                    SimTime::from_secs(400 + i),
                    &w,
                    FairnessView::None,
                );
            }
        }
        assert!(c.slot_count() < 50, "the set swept its empty slots");
        let ids = rank_both_ways(
            &mut order,
            &c,
            SimTime::from_secs(500),
            &w,
            FairnessView::None,
        );
        assert_eq!(ids, vec![50, 49, 48, 47, 46]);
    }

    #[test]
    fn expansion_factor_prefers_short_waiting_jobs() {
        let w = PriorityWeights {
            queue_time_weight: 0.0,
            expansion_weight: 1.0,
            ..Default::default()
        };
        let mut short = job(1, 0, 4, 0);
        short.walltime = SimDuration::from_secs(60);
        let mut long = job(2, 0, 4, 0);
        long.walltime = SimDuration::from_secs(6000);
        let mut jobs = vec![long, short];
        rank_jobs(&mut jobs, SimTime::from_secs(120), &w, FairnessView::None);
        // Same wait, but the short job's expansion factor is larger.
        assert_eq!(jobs[0].id, JobId(1));
    }
}
