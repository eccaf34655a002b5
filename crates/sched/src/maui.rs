//! The extended Maui scheduling iteration (paper Algorithm 2).
//!
//! [`Maui::iterate`] consumes a [`Snapshot`] and produces an
//! [`IterationOutcome`]: which jobs to start (normally or by backfill),
//! which dynamic requests to grant or reject, and which reservations were
//! created. The resource manager applies the outcome; the scheduler itself
//! never touches cluster state, which is what lets the discrete-event
//! simulator and the threaded daemon share this code verbatim.
//!
//! Pass order, following the paper:
//!
//! 1. refresh statistics: absorb what the snapshot's delta log says about
//!    deleted jobs and closed usage segments, then roll DFS intervals and
//!    fairshare windows forward ([`update_statistics`]);
//! 2. rank eligible static jobs by priority; order dynamic requests FIFO;
//! 3. *plan* static jobs (reservations, no starts) — the StartNow /
//!    StartLater baseline;
//! 4. for each dynamic request: try idle resources (then preemptible ones,
//!    if the site allows), measure the delays the expansion would inflict
//!    on the top `ReservationDelayDepth` planned jobs, ask the DFS engine,
//!    and commit or reject;
//! 5. schedule static jobs for real (starts + reservations);
//! 6. backfill — unless a queued job suppresses it (the ESP Z rule).

use crate::dfs::{DelayCharge, DfsEngine, DfsReject, DfsVerdict};
use crate::fairshare::FairshareTracker;
use crate::incremental::{profile_from_running, IncrementalTimeline, ProfileDelta, TimelineStats};
use crate::plan::plan_starts;
use crate::priority::{FairnessView, RankOrder, RankStats, Ranked};
use crate::reference::naive_cycle;
use crate::reservation::{PlannedStart, Reservation};
use crate::snapshot::{DynRequest, QueuedJob, QueuedSet, RunningJob, RunningSet, Snapshot};
use crate::timeline::{planned_end, AvailabilityProfile};
use crate::usage_history::UsageSnapshot;
use dynbatch_core::{
    BackfillPolicy, FairshareConfig, FairshareMode, JobId, SchedulerConfig, SimTime, UserId,
};

/// A batch-system-initiated resize of a running malleable job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResizeDecision {
    /// The malleable job.
    pub job: JobId,
    /// Cores before.
    pub from_cores: u32,
    /// Cores after.
    pub to_cores: u32,
}

/// A job-start decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartDecision {
    /// The job to start.
    pub job: JobId,
    /// True iff started by the backfill pass.
    pub backfilled: bool,
    /// For moldable jobs: the core count the scheduler chose (within the
    /// job's moldable range). `None` = the requested cores.
    pub cores: Option<u32>,
}

/// The fate of one dynamic request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DynDecision {
    /// Expand the job's allocation.
    Granted {
        /// The evolving job.
        job: JobId,
        /// Cores to add.
        extra_cores: u32,
        /// The delays charged to queued jobs (already committed to DFS).
        delays: Vec<DelayCharge>,
        /// Backfilled jobs preempted to make room (empty unless the site
        /// enables `preempt_backfilled_for_dyn`).
        preempted: Vec<JobId>,
        /// Malleable jobs shrunk to make room (empty unless the site
        /// enables `shrink_malleable_for_dyn`).
        shrunk: Vec<ResizeDecision>,
    },
    /// Reject the request; the application continues on its current
    /// allocation (and may retry later).
    Rejected {
        /// The evolving job.
        job: JobId,
        /// Why.
        reason: DfsReject,
    },
    /// Negotiation: the request cannot be served now but its deadline has
    /// not passed — keep it queued and reconsider next iteration. The
    /// batch system "indicates the time of availability of resources"
    /// with its best estimate.
    Deferred {
        /// The evolving job.
        job: JobId,
        /// Why it could not be served right now.
        reason: DfsReject,
        /// Earliest instant the profile suggests the request could fit
        /// (`None` when even the far future cannot fit it).
        available_hint: Option<SimTime>,
    },
}

impl DynDecision {
    /// The evolving job this decision concerns.
    pub fn job(&self) -> JobId {
        match self {
            DynDecision::Granted { job, .. }
            | DynDecision::Rejected { job, .. }
            | DynDecision::Deferred { job, .. } => *job,
        }
    }

    /// True iff granted.
    pub fn is_granted(&self) -> bool {
        matches!(self, DynDecision::Granted { .. })
    }
}

/// Everything one iteration decided.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IterationOutcome {
    /// Jobs to start, in decision order.
    pub starts: Vec<StartDecision>,
    /// Reservations created (informational; they are re-derived each
    /// iteration).
    pub reservations: Vec<Reservation>,
    /// Decisions on dynamic requests, in FIFO order.
    pub dyn_decisions: Vec<DynDecision>,
    /// The planned starts used as the delay baseline (StartNow/StartLater
    /// classification), for observability.
    pub baseline_plan: Vec<PlannedStart>,
    /// Malleable growths onto idle cores (only under
    /// `grow_malleable_on_idle`).
    pub grows: Vec<ResizeDecision>,
}

impl IterationOutcome {
    /// Jobs granted dynamic resources this iteration.
    pub fn granted_jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        self.dyn_decisions
            .iter()
            .filter(|d| d.is_granted())
            .map(|d| d.job())
    }
}

/// Reusable profile buffers for the baseline plan and the dynamic-request
/// what-if pass. The scheduler keeps one set across iterations and refills
/// a buffer with [`AvailabilityProfile::assign_from`] before every use, so
/// planning performs no per-cycle or per-request heap allocation.
#[derive(Debug, Clone)]
struct PlanScratch {
    /// The partition-released view a request draws resources from.
    trial: AvailabilityProfile,
    /// The post-grant world (expansion held, unused partition re-held).
    expanded: AvailabilityProfile,
    /// Consumed by `plan_starts` when measuring before/after starts.
    plan: AvailabilityProfile,
}

impl Default for PlanScratch {
    /// Empty buffers; every user assigns into one before reading it.
    fn default() -> Self {
        let empty = || AvailabilityProfile::new(SimTime::ZERO, 0);
        PlanScratch {
            trial: empty(),
            expanded: empty(),
            plan: empty(),
        }
    }
}

/// The extended Maui scheduler.
///
/// Built once and then only [`iterate`](Maui::iterate)d: everything the
/// scheduler learns between cycles arrives in the [`Snapshot`], so no
/// driver holds a mutable handle on its accountants.
#[derive(Debug, Clone)]
pub struct Maui {
    pub(crate) config: SchedulerConfig,
    pub(crate) dfs: DfsEngine,
    pub(crate) fairshare: FairshareTracker,
    /// The persistent delta-maintained profile.
    timeline: IncrementalTimeline,
    /// Recycled buffer the per-iteration working base is staged in.
    base_buf: AvailabilityProfile,
    /// Recycled what-if buffers.
    scratch: PlanScratch,
    /// The queue's scheduling order, kept from cycle to cycle.
    rank: RankOrder,
}

impl Maui {
    /// Builds a scheduler from a site configuration.
    ///
    /// # Panics
    /// If the configuration is invalid.
    pub fn new(config: SchedulerConfig) -> Self {
        config.validate().expect("invalid scheduler configuration");
        let dfs = DfsEngine::new(config.dfs.clone(), SimTime::ZERO);
        let fairshare = FairshareTracker::new(config.fairshare.clone(), SimTime::ZERO);
        Maui {
            config,
            dfs,
            fairshare,
            timeline: IncrementalTimeline::new(),
            base_buf: AvailabilityProfile::new(SimTime::ZERO, 0),
            scratch: PlanScratch::default(),
            rank: RankOrder::default(),
        }
    }

    /// Counters for the incremental timeline (rebuilds vs delta batches).
    pub fn timeline_stats(&self) -> TimelineStats {
        self.timeline.stats()
    }

    /// Work counters of the kept rank order (entries walked, scores
    /// computed, sorts).
    pub fn rank_stats(&self) -> RankStats {
        self.rank.stats()
    }

    /// The site configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// The dynamic-fairness accountant (for inspection).
    pub fn dfs(&self) -> &DfsEngine {
        &self.dfs
    }

    /// The static-fairshare tracker (for inspection).
    pub fn fairshare(&self) -> &FairshareTracker {
        &self.fairshare
    }

    /// Runs one scheduling iteration (paper Algorithm 2).
    pub fn iterate(&mut self, snap: &Snapshot) -> IterationOutcome {
        let now = snap.now;
        // Debug builds run the executable spec next to every cycle, on
        // copies of the only state it advances.
        let spec = cfg!(debug_assertions).then(|| {
            let (mut dfs, mut fairshare) = (self.dfs.clone(), self.fairshare.clone());
            let outcome = naive_cycle(&self.config, &mut dfs, &mut fairshare, snap);
            (outcome, dfs, fairshare)
        });
        // Step 4 of Algorithm 1/2: update statistics.
        update_statistics(&self.config, &mut self.dfs, &mut self.fairshare, snap);

        // Steps 6–9: select and prioritise static jobs and dynamic
        // requests. The queue's order is kept across cycles and lent out
        // as slot positions; the planner gets the few jobs it looks at.
        let fairness = fairness_view(&self.config, &self.fairshare, snap.usage.as_ref());
        let ranked = self
            .rank
            .rank(&snap.queued, now, &self.config.priority, fairness);
        let head: Vec<&QueuedJob> = ranked.iter().take(self.config.lookahead_depth()).collect();

        // The base profile carries running jobs' remaining walltimes; all
        // planning happens on top of clones of it. It comes from the
        // persistent delta-maintained timeline, re-anchored to `now`. The
        // dynamic partition (paper §II-B) is held out of every *static*
        // plan; the dynamic path releases it when sizing requests.
        let mut base = std::mem::replace(&mut self.base_buf, AvailabilityProfile::new(now, 0));
        self.timeline.advance(snap);
        debug_assert_eq!(
            *self.timeline.profile(),
            profile_from_running(now, snap.total_cores, &snap.running),
            "incremental availability timeline diverged from the rebuild at {now}"
        );
        base.assign_from(self.timeline.profile());
        // The partition may be partly consumed by grants during this
        // iteration; `partition` tracks what remains held.
        let partition = hold_partition(&self.config, &mut base, now);
        // Step 10: plan static jobs without starting them — the baseline.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.plan.assign_from(&base);
        let mut outcome = IterationOutcome {
            baseline_plan: plan_starts(
                &mut scratch.plan,
                &head,
                self.config.lookahead_depth(),
                now,
            ),
            ..Default::default()
        };

        // Steps 11–24: the dynamic-request loop, in FIFO order; each
        // request sees the world the previous grant left.
        let mut world = DynWorld::new(base, partition);
        if self.config.dynamic_enabled && !snap.dyn_requests.is_empty() {
            let mut requests: Vec<&DynRequest> = snap.dyn_requests.iter().collect();
            requests.sort_by_key(|r| r.seq);
            let ctx = DynCtx {
                config: &self.config,
                head: &head,
                queued: &snap.queued,
                running: &snap.running,
                usage: snap.usage.as_ref(),
                now,
            };
            for req in requests {
                let decision = dynamic_request(&ctx, &mut self.dfs, &mut world, req, &mut scratch);
                outcome.dyn_decisions.push(decision);
            }
        }
        let DynWorld {
            base,
            preempted,
            resized,
            ..
        } = world;

        // Step 25: schedule static jobs (with starts) and create
        // reservations against the post-grant profile.
        let mut profile = base;
        let taken = static_pass(&self.config, &ranked, &mut profile, &mut outcome, now);

        // Step 26: backfill.
        if self.config.backfill != BackfillPolicy::None && !snap.backfill_suppressed() {
            for i in backfill_candidates(&ranked, &taken, profile.idle_at(now)) {
                // Backfill only ever takes cores away from "now".
                if profile.idle_at(now) == 0 {
                    break;
                }
                backfill_one(&mut profile, ranked.job(i), &mut outcome, now);
            }
        }

        // Malleability: pour leftover idle capacity into running malleable
        // jobs (never into cores the reservations already claim).
        grow_pass(
            &self.config,
            &snap.running,
            &mut profile,
            &preempted,
            &resized,
            &mut outcome,
            now,
        );

        // Started jobs leave the queue: wipe their per-job DFS slates.
        for s in &outcome.starts {
            self.dfs.job_left_queue(s.job);
        }

        // Recycle the working buffers for the next iteration.
        self.base_buf = profile;
        self.scratch = scratch;

        if let Some((spec, dfs, fairshare)) = spec {
            assert_eq!(
                outcome, spec,
                "iterate diverged from iterate_naive at {now}"
            );
            assert!(
                self.dfs == dfs && self.fairshare == fairshare,
                "iterate left other fairness statistics than iterate_naive at {now}"
            );
        }
        outcome
    }
}

/// Step 4 of Algorithm 1/2, "update statistics", for [`Maui::iterate`] and
/// [`crate::reference::iterate_naive`] alike: absorbs what the snapshot's
/// delta log says about the queue and about usage (the gap rule and the
/// entry kinds are [`crate::incremental`]'s contract), then rolls the DFS
/// interval and the fairshare window forward to `now`.
pub(crate) fn update_statistics(
    config: &SchedulerConfig,
    dfs: &mut DfsEngine,
    fairshare: &mut FairshareTracker,
    snap: &Snapshot,
) {
    match &snap.deltas {
        None => dfs.prune_slates(&snap.queued),
        Some(log) => {
            if log.base_epoch == 0 {
                dfs.prune_slates(&snap.queued);
                *fairshare = FairshareTracker::new(config.fairshare.clone(), SimTime::ZERO);
            }
            for delta in &log.deltas {
                match *delta {
                    ProfileDelta::LeftQueue { job } => dfs.job_left_queue(job),
                    ProfileDelta::Charged { user, core_ms, at } => {
                        fairshare.charge_at(user, core_ms as f64 / 1000.0, at);
                    }
                    _ => {}
                }
            }
        }
    }
    dfs.advance_to(snap.now);
    fairshare.advance_to(snap.now);
}

/// Selects the fairness mechanism for this iteration per
/// [`FairshareConfig::mode`]. A pure function of config + published
/// usage, so [`crate::reference::iterate_naive`] sees the identical view.
pub(crate) fn fairness_view<'a>(
    config: &'a SchedulerConfig,
    tracker: &'a FairshareTracker,
    usage: Option<&'a UsageSnapshot>,
) -> FairnessView<'a> {
    match config.fairshare.mode {
        FairshareMode::Static => FairnessView::Static(tracker),
        FairshareMode::TimeAware => FairnessView::TimeAware {
            config: &config.fairshare,
            usage,
        },
    }
}

/// The heavy-user penalty on the DFS target budget (time-aware mode
/// only): a requesting user above their decayed resource-hour share gets
/// their victims' `DFSTargetDelay` budgets scaled by `target / share`,
/// floored at 1/4 so over-budget users can still obtain small grants.
/// Everyone at or under target — and every static-mode run — scales by
/// exactly 1 (evaluate unchanged).
pub(crate) fn dfs_target_scale(
    fs: &FairshareConfig,
    usage: Option<&UsageSnapshot>,
    user: UserId,
) -> f64 {
    if fs.mode != FairshareMode::TimeAware || !fs.enabled {
        return 1.0;
    }
    let Some(u) = usage else {
        return 1.0;
    };
    let target = fs
        .user_targets
        .get(&user)
        .copied()
        .unwrap_or(fs.default_target);
    let share = u.user_share(user);
    if target <= 0.0 || share <= target {
        return 1.0;
    }
    (target / share).clamp(0.25, 1.0)
}

/// Read-only inputs of the dynamic-request loop.
struct DynCtx<'a> {
    config: &'a SchedulerConfig,
    /// The top `lookahead_depth` jobs of the ranked queue: all the delay
    /// measurement plans.
    head: &'a [&'a QueuedJob],
    /// The queue by id, for charging a planned job's delay to its owner.
    queued: &'a QueuedSet,
    running: &'a RunningSet,
    /// Decayed usage accounts published with the snapshot (time-aware
    /// mode), for the DFS heavy-user penalty.
    usage: Option<&'a UsageSnapshot>,
    now: SimTime,
}

/// The mutable world the dynamic loop threads through requests. Only a
/// grant in [`dynamic_request`] mutates it.
struct DynWorld {
    /// The base profile (dynamic partition held).
    base: AvailabilityProfile,
    /// Cores of the dynamic partition still held in `base`.
    partition: u32,
    /// Jobs preempted earlier in this iteration (a handful at most).
    preempted: Vec<JobId>,
    /// Running jobs whose core count changed in this iteration, with the
    /// new count: same-iteration shrinks and grants must be visible to
    /// later dynamic requests and to the grow pass. Everyone else still
    /// holds what the snapshot says ([`cores_now`]).
    resized: Vec<(JobId, u32)>,
}

impl DynWorld {
    fn new(base: AvailabilityProfile, partition: u32) -> Self {
        DynWorld {
            base,
            partition,
            preempted: Vec::new(),
            resized: Vec::new(),
        }
    }

    /// Records that `job` now holds `cores`.
    fn set_cores(&mut self, job: JobId, cores: u32) {
        match self.resized.iter_mut().find(|(id, _)| *id == job) {
            Some(entry) => entry.1 = cores,
            None => self.resized.push((job, cores)),
        }
    }
}

/// The cores `r` holds at this point of the iteration: its snapshot width
/// unless a grant or shrink earlier in the iteration changed it.
fn cores_now(resized: &[(JobId, u32)], r: &RunningJob) -> u32 {
    resized
        .iter()
        .find(|(id, _)| *id == r.id)
        .map_or(r.cores, |&(_, cores)| cores)
}

/// Holds the dynamic partition (paper §II-B) out of `base` — as much of
/// it as is durably idle — and returns the width held. A site without a
/// partition skips the whole-profile scan.
fn hold_partition(config: &SchedulerConfig, base: &mut AvailabilityProfile, now: SimTime) -> u32 {
    if config.dyn_partition_cores == 0 {
        return 0;
    }
    let partition = config
        .dyn_partition_cores
        .min(base.min_idle(now, SimTime::MAX));
    base.hold(now, SimTime::MAX, partition);
    partition
}

/// The availability hint attached to a deferral, computed only when the
/// request can actually be deferred (a live deadline).
pub(crate) fn defer_hint(
    req: &DynRequest,
    base: &AvailabilityProfile,
    now: SimTime,
) -> Option<SimTime> {
    match req.deadline {
        Some(d) if now < d => base.earliest_fit(req.extra_cores, req.remaining_walltime, now),
        _ => None,
    }
}

/// Negotiation (future-work extension): a request carrying a live deadline
/// is deferred — kept at the server and reconsidered next iteration, with
/// the scheduler's best availability estimate attached — instead of
/// rejected outright.
pub(crate) fn reject_or_defer(
    req: &DynRequest,
    reason: DfsReject,
    hint: Option<SimTime>,
    now: SimTime,
) -> DynDecision {
    match req.deadline {
        Some(d) if now < d => DynDecision::Deferred {
            job: req.job,
            reason,
            available_hint: hint,
        },
        _ => DynDecision::Rejected {
            job: req.job,
            reason,
        },
    }
}

/// Steps 12–23 for a single dynamic request: size it against the world
/// `w`, measure the delays the expansion would inflict, ask the DFS
/// engine, and — on a grant — charge the slate and make the expanded
/// world the one the next request sees.
fn dynamic_request(
    ctx: &DynCtx<'_>,
    dfs: &mut DfsEngine,
    w: &mut DynWorld,
    req: &DynRequest,
    scratch: &mut PlanScratch,
) -> DynDecision {
    let now = ctx.now;
    // A job preempted earlier in this very iteration (to feed another
    // dynamic request) is back in the queue; its own pending request is
    // moot.
    if w.preempted.contains(&req.job) {
        return DynDecision::Rejected {
            job: req.job,
            reason: DfsReject::NoResources,
        };
    }

    // Guaranteeing policy: a request covered by the job's own pre-reserve
    // is granted instantly — the capacity is already held in every plan,
    // so nobody is delayed and no fairness question arises.
    if let Some(holder) = ctx.running.get(req.job) {
        if holder.reserved_extra >= req.extra_cores {
            return DynDecision::Granted {
                job: req.job,
                extra_cores: req.extra_cores,
                delays: Vec::new(),
                preempted: Vec::new(),
                shrunk: Vec::new(),
            };
        }
    }

    // Step 12: try to allocate from the dynamic partition and the idle
    // cores, then (if the site allows) by shrinking malleable jobs, then
    // from preemptible (backfilled) resources — the §II-B source order.
    // The partition hold is lifted only inside the dynamic path: static
    // jobs can never touch it, so partition grants show up as zero delay.
    let trial = &mut scratch.trial;
    trial.assign_from(&w.base);
    if w.partition > 0 {
        // `base` holds the remaining partition to infinity (established
        // in `iterate`); the dynamic path may draw on it.
        trial.release(now, SimTime::MAX, w.partition);
    }
    let mut to_preempt: Vec<JobId> = Vec::new();
    let mut to_shrink: Vec<ResizeDecision> = Vec::new();
    if trial.idle_at(now) < req.extra_cores && ctx.config.shrink_malleable_for_dyn {
        // Shrink the jobs with the most slack first: they lose the
        // smallest fraction of their rate.
        let mut candidates: Vec<&RunningJob> = ctx
            .running
            .iter()
            .filter(|r| {
                r.id != req.job
                    && !w.preempted.contains(&r.id)
                    && r.malleable
                        .is_some_and(|m| cores_now(&w.resized, r) > m.min_cores)
            })
            .collect();
        candidates.sort_by_key(|r| {
            let slack = cores_now(&w.resized, r) - r.malleable.expect("filtered").min_cores;
            (std::cmp::Reverse(slack), r.id)
        });
        for cand in candidates {
            if trial.idle_at(now) >= req.extra_cores {
                break;
            }
            let from_cores = cores_now(&w.resized, cand);
            let min = cand.malleable.expect("filtered").min_cores;
            let deficit = req.extra_cores - trial.idle_at(now);
            let give = (from_cores - min).min(deficit);
            trial.release(now, planned_end(now, cand.walltime_end), give);
            to_shrink.push(ResizeDecision {
                job: cand.id,
                from_cores,
                to_cores: from_cores - give,
            });
        }
    }
    if trial.idle_at(now) < req.extra_cores && ctx.config.preempt_backfilled_for_dyn {
        // Preempt the youngest backfilled jobs first: they have
        // sacrificed the least work.
        let mut candidates: Vec<&RunningJob> = ctx
            .running
            .iter()
            .filter(|r| r.backfilled && r.id != req.job && !w.preempted.contains(&r.id))
            .collect();
        candidates.sort_by_key(|r| std::cmp::Reverse((r.start_time, r.id)));
        for cand in candidates {
            if trial.idle_at(now) >= req.extra_cores {
                break;
            }
            // A victim this very request already shrank holds only what
            // the shrink left it — and, once preempted, is not resized.
            let held = match to_shrink.iter().position(|r| r.job == cand.id) {
                Some(i) => to_shrink.remove(i).to_cores,
                None => cores_now(&w.resized, cand),
            };
            trial.release(now, planned_end(now, cand.walltime_end), held);
            to_preempt.push(cand.id);
        }
    }
    if trial.idle_at(now) < req.extra_cores {
        // Step 22: no resources at all.
        let hint = defer_hint(req, &w.base, now);
        return reject_or_defer(req, DfsReject::NoResources, hint, now);
    }

    // Build the post-grant world for static planning: the expansion held
    // on the partition-free view, then the *unused* slice of the dynamic
    // partition re-held to infinity so static jobs still cannot touch it.
    scratch.expanded.assign_from(&scratch.trial);
    let expanded = &mut scratch.expanded;
    expanded.hold_for(now, req.remaining_walltime, req.extra_cores);
    let unused_partition = w.partition.saturating_sub(req.extra_cores.min(w.partition));
    if unused_partition > 0 {
        expanded.hold(now, SimTime::MAX, unused_partition);
    }

    // Measure delays: plan the top ReservationDelayDepth jobs in the
    // current world (`base`, partition held) and in the post-grant world
    // (paper §III-D). Partition-only grants therefore measure zero delay
    // — static jobs never had those cores.
    let depth = ctx.config.reservation_delay_depth;
    scratch.plan.assign_from(&w.base);
    let before = plan_starts(&mut scratch.plan, ctx.head, depth, now);
    scratch.plan.assign_from(&scratch.expanded);
    let after = plan_starts(&mut scratch.plan, ctx.head, depth, now);

    let mut delays = Vec::new();
    for b in &before {
        // Match by job id: a plan may skip a job the other fits (e.g. a
        // full-machine job that only fits once the partition is in use).
        // A job plannable before but not after is pushed past the horizon
        // — charge the delay to its walltime as a bound.
        let job = ctx.queued.get(b.job).expect("planned job is queued");
        let delay = match after.iter().find(|a| a.job == b.job) {
            Some(a) => a.start.duration_since(b.start),
            None => job.walltime,
        };
        delays.push(DelayCharge {
            job: job.id,
            user: job.user,
            group: job.group,
            delay,
        });
    }

    // Steps 14–20: the fairness gate.
    let scale = dfs_target_scale(&ctx.config.fairshare, ctx.usage, req.user);
    if let DfsVerdict::Rejected(reason) = dfs.evaluate_scaled(req.user, &delays, scale) {
        let hint = defer_hint(req, &w.base, now);
        return reject_or_defer(req, reason, hint, now);
    }

    dfs.commit(req.user, &delays);
    // The expanded world becomes the base; the old base stays behind in
    // the scratch buffer, which the next request refills before reading.
    std::mem::swap(&mut w.base, &mut scratch.expanded);
    w.partition = unused_partition;
    // Re-expand the partition toward its configured width: shrinks and
    // preemptions can leave cores durably free (a preempted job frees its
    // whole width, not just the deficit), and without this the opening
    // clamp would pin the partition below `dyn_partition_cores` for the
    // rest of the iteration.
    let want = ctx.config.dyn_partition_cores.saturating_sub(w.partition);
    let regrow = want.min(w.base.min_idle(now, SimTime::MAX));
    if regrow > 0 {
        w.base.hold(now, SimTime::MAX, regrow);
        w.partition += regrow;
    }
    w.preempted.extend(to_preempt.iter().copied());
    for r in &to_shrink {
        w.set_cores(r.job, r.to_cores);
    }
    if let Some(holder) = ctx.running.get(req.job) {
        w.set_cores(req.job, cores_now(&w.resized, holder) + req.extra_cores);
    }
    DynDecision::Granted {
        job: req.job,
        extra_cores: req.extra_cores,
        delays,
        preempted: to_preempt,
        shrunk: to_shrink,
    }
}

/// Step 25: schedule static jobs (with starts) and create reservations
/// against the post-grant profile. Returns, per job of the visited prefix
/// of `ranked`, whether it was started or given a reservation — the jobs
/// the backfill pass must skip. The pass ends as soon as it is blocked and
/// out of reservations: nothing further down the queue can change.
fn static_pass(
    config: &SchedulerConfig,
    ranked: &Ranked<'_>,
    profile: &mut AvailabilityProfile,
    outcome: &mut IterationOutcome,
    now: SimTime,
) -> Vec<bool> {
    let mut blocked = false;
    let mut taken = Vec::new();
    let reservation_limit = match config.backfill {
        BackfillPolicy::Conservative => usize::MAX,
        _ => config.reservation_depth,
    };
    for job in ranked.iter() {
        if !blocked {
            if let Some(width) = mold_fit(profile, job, now) {
                profile.hold_for(now, job.walltime, width + job.reserve_extra);
                taken.push(true);
                outcome.starts.push(StartDecision {
                    job: job.id,
                    backfilled: false,
                    cores: (width != job.cores).then_some(width),
                });
                continue;
            }
            blocked = true;
        }
        if outcome.reservations.len() >= reservation_limit {
            break;
        }
        let width = job.cores + job.reserve_extra;
        // A job whose earliest fit is *now* is not blocked — it is a
        // backfill candidate, not a reservation holder.
        let start = profile
            .earliest_fit(width, job.walltime, now)
            .filter(|&start| start > now);
        taken.push(start.is_some());
        if let Some(start) = start {
            let end = start.saturating_add(job.walltime);
            profile.hold(start, end, width);
            outcome.reservations.push(Reservation {
                job: job.id,
                start,
                end,
                cores: width,
            });
        }
    }
    taken
}

/// Step 26's candidates, as indices into `ranked`: every job the static
/// pass neither started nor reserved whose narrowest start fits into the
/// `idle` cores free right now. Backfill only ever lowers that number, so
/// a job filtered here could not have started later in the pass either —
/// and with nothing idle there are no candidates at all (a queued job
/// needs at least one core).
fn backfill_candidates<'a>(
    ranked: &'a Ranked<'_>,
    taken: &'a [bool],
    idle: u32,
) -> impl Iterator<Item = usize> + 'a {
    let need = if idle == 0 { &[] } else { ranked.need };
    need.iter()
        .enumerate()
        .filter(move |&(i, &need)| need <= idle && !taken.get(i).is_some_and(|&t| t))
        .map(|(i, _)| i)
}

/// Starts `job` by backfill if it fits `profile` right now.
fn backfill_one(
    profile: &mut AvailabilityProfile,
    job: &QueuedJob,
    outcome: &mut IterationOutcome,
    now: SimTime,
) {
    if let Some(width) = mold_fit(profile, job, now) {
        profile.hold_for(now, job.walltime, width + job.reserve_extra);
        outcome.starts.push(StartDecision {
            job: job.id,
            backfilled: true,
            cores: (width != job.cores).then_some(width),
        });
    }
}

/// Malleability: pour leftover idle capacity into running malleable jobs
/// (never into cores the reservations already claim), in id order —
/// which is the running set's own.
fn grow_pass(
    config: &SchedulerConfig,
    running: &RunningSet,
    profile: &mut AvailabilityProfile,
    preempted: &[JobId],
    resized: &[(JobId, u32)],
    outcome: &mut IterationOutcome,
    now: SimTime,
) {
    if !config.grow_malleable_on_idle {
        return;
    }
    let growables: Vec<&RunningJob> = running
        .iter()
        .filter(|r| r.malleable.is_some() && !preempted.contains(&r.id))
        .collect();
    if growables.is_empty() {
        return;
    }
    // A shrink decided this very iteration must not be undone by a grow
    // in the same breath.
    let shrunk_now: Vec<JobId> = outcome
        .dyn_decisions
        .iter()
        .filter_map(|d| match d {
            DynDecision::Granted { shrunk, .. } => Some(shrunk.iter().map(|r| r.job)),
            _ => None,
        })
        .flatten()
        .collect();
    for r in growables {
        if shrunk_now.contains(&r.id) {
            continue;
        }
        let from_cores = cores_now(resized, r);
        let max = r.malleable.expect("filtered").max_cores;
        if from_cores >= max {
            continue;
        }
        let end = planned_end(now, r.walltime_end);
        let available = profile.min_idle(now, end);
        let give = available.min(max - from_cores);
        if give > 0 {
            profile.hold(now, end, give);
            outcome.grows.push(ResizeDecision {
                job: r.id,
                from_cores,
                to_cores: from_cores + give,
            });
        }
    }
}

/// The core count `job` can start on right now: its requested cores, or —
/// for a moldable job — the largest count in its range that fits (molding
/// happens before start and never after; paper §I). `None` when nothing
/// fits; the window scan stops at the first segment too narrow for the
/// job's smallest start.
///
/// Public for the brute-force oracle test that pins the `reserve_extra`
/// subtraction path; it is not part of the scheduler's driving API.
pub fn mold_fit(profile: &AvailabilityProfile, job: &QueuedJob, now: SimTime) -> Option<u32> {
    let end = now.saturating_add(job.walltime);
    let need = job.min_start_width();
    match job.moldable {
        None => profile.fits(now, end, need).then_some(job.cores),
        Some(r) => {
            let idle = profile.min_idle_at_least(now, end, need)?;
            let best = r.max_cores.min(idle - job.reserve_extra);
            (best >= r.min_cores).then_some(best)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reservation::StartKind;
    use dynbatch_core::{DfsConfig, GroupId, QueueId, SimDuration, UserId};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn running(id: u64, user: u32, cores: u32, end_s: u64) -> RunningJob {
        RunningJob {
            id: JobId(id),
            user: UserId(user),
            group: GroupId(0),
            cores,
            start_time: SimTime::ZERO,
            walltime_end: t(end_s),
            backfilled: false,
            reserved_extra: 0,
            malleable: None,
        }
    }

    fn queued(id: u64, user: u32, cores: u32, walltime_s: u64, submit_s: u64) -> QueuedJob {
        QueuedJob {
            id: JobId(id),
            user: UserId(user),
            group: GroupId(0),
            queue: QueueId(0),
            cores,
            walltime: d(walltime_s),
            submit_time: t(submit_s),
            priority_boost: 0,
            suppress_backfill_while_queued: false,
            reserve_extra: 0,
            moldable: None,
        }
    }

    fn dyn_req(job: u64, user: u32, extra: u32, remaining_s: u64, seq: u64) -> DynRequest {
        DynRequest {
            job: JobId(job),
            user: UserId(user),
            group: GroupId(0),
            extra_cores: extra,
            remaining_walltime: d(remaining_s),
            seq,
            deadline: None,
        }
    }

    fn maui(dfs: DfsConfig) -> Maui {
        let mut cfg = SchedulerConfig::paper_eval();
        cfg.dfs = dfs;
        Maui::new(cfg)
    }

    #[test]
    fn overdue_running_jobs_use_one_grace_clamp_at_every_site() {
        // Regression for the duplicated overdue-grace logic: the base
        // profile builder, the shrink/preempt what-if releases, and the
        // malleable grow pass must all clamp an overdue job's planning
        // window through the same `planned_end` helper. A job whose
        // walltime expired before `now` is held (and released) over
        // `[now, now + grace)`; a raw `walltime_end` at any one site
        // would produce a reversed window and panic, or silently release
        // cores the profile never held.
        let now = t(1000);
        let mut cfg = SchedulerConfig::paper_eval();
        cfg.dfs = DfsConfig::highest_priority();
        cfg.shrink_malleable_for_dyn = true;
        cfg.preempt_backfilled_for_dyn = true;
        cfg.grow_malleable_on_idle = true;
        let mut m = Maui::new(cfg);

        // All three running jobs except E are overdue (walltime_end < now).
        let mut bf = running(1, 0, 4, 500); // overdue, preemptible
        bf.backfilled = true;
        let mut shrinkable = running(2, 0, 4, 900); // overdue, malleable
        shrinkable.malleable = Some(dynbatch_core::MalleableRange {
            min_cores: 2,
            max_cores: 8,
        });
        let mut growable = running(4, 0, 2, 950); // overdue, at its minimum
        growable.malleable = Some(dynbatch_core::MalleableRange {
            min_cores: 2,
            max_cores: 8,
        });
        let evolving = running(3, 1, 4, 2000);

        let snap = Snapshot {
            now,
            total_cores: 20,
            running: vec![bf, shrinkable, growable, evolving].into(),
            queued: vec![].into(),
            // +10 forces the full source chain: 6 idle + 2 shrunk from the
            // overdue malleable + 4 preempted from the overdue backfill.
            dyn_requests: vec![dyn_req(3, 1, 10, 1000, 0)],
            usage: None,
            deltas: None,
        };
        let out = m.iterate(&snap);

        match &out.dyn_decisions[0] {
            DynDecision::Granted {
                preempted, shrunk, ..
            } => {
                assert_eq!(preempted, &[JobId(1)], "overdue backfill preempted");
                assert_eq!(shrunk.len(), 1);
                assert_eq!((shrunk[0].job, shrunk[0].to_cores), (JobId(2), 2));
            }
            other => panic!("expected a grant, got {other:?}"),
        }
        // The grow pass sees the overdue malleable job through the same
        // clamp: 2 cores stay durably free after the over-freeing
        // preemption, and the grow window `[now, planned_end)` is valid.
        assert_eq!(out.grows.len(), 1);
        assert_eq!((out.grows[0].job, out.grows[0].to_cores), (JobId(4), 4));
    }

    #[test]
    fn a_grant_to_an_overdue_job_keeps_its_cores_for_the_iteration() {
        // The server reports an overdue requester's remaining walltime as
        // one grace (never zero), the span the job itself is held for.
        // That hold must keep the granted cores from the next request and
        // from the static pass of the same iteration.
        let mut m = maui(DfsConfig::highest_priority());
        let mut overdue = dyn_req(1, 1, 6, 0, 0);
        overdue.remaining_walltime = crate::OVERDUE_GRACE;
        let snap = Snapshot {
            now: t(1000),
            total_cores: 20,
            running: vec![running(1, 1, 6, 900), running(2, 2, 5, 2000)].into(),
            queued: vec![queued(3, 3, 5, 100, 0)].into(),
            // 9 idle: 6 and then 7 do not both fit.
            dyn_requests: vec![overdue, dyn_req(2, 2, 7, 1000, 1)],
            usage: None,
            deltas: None,
        };
        let out = m.iterate(&snap);
        assert!(matches!(
            out.dyn_decisions[..],
            [
                DynDecision::Granted { job: JobId(1), .. },
                DynDecision::Rejected {
                    job: JobId(2),
                    reason: DfsReject::NoResources
                }
            ]
        ));
        assert!(out.starts.is_empty(), "5 cores do not fit the 3 left");
    }

    #[test]
    fn a_victim_shrunk_and_then_preempted_is_released_once() {
        // Regression (found by the naive-reference suite): a running job
        // that is both malleable and backfilled could be shrunk *and*
        // preempted for the same request; the preemption then released its
        // pre-shrink width on top of the shrink, and the grant was planned
        // on cores that do not exist (a panic once the victim's planned
        // end came before the requester's).
        let mut cfg = SchedulerConfig::paper_eval();
        cfg.dfs = DfsConfig::highest_priority();
        cfg.shrink_malleable_for_dyn = true;
        cfg.preempt_backfilled_for_dyn = true;
        let mut m = Maui::new(cfg);
        let mut both = running(2, 0, 4, 100);
        both.backfilled = true;
        both.malleable = Some(dynbatch_core::MalleableRange {
            min_cores: 2,
            max_cores: 4,
        });
        let mut bf = running(3, 0, 2, 100);
        bf.backfilled = true;
        let snap = Snapshot {
            now: t(0),
            total_cores: 8,
            running: vec![running(1, 1, 2, 1000), both, bf].into(),
            queued: Default::default(),
            // +6: 2 from the shrink, 2 from job 3, the last 2 from job 2.
            dyn_requests: vec![dyn_req(1, 1, 6, 1000, 0)],
            usage: None,
            deltas: None,
        };
        match &m.iterate(&snap).dyn_decisions[0] {
            DynDecision::Granted {
                preempted, shrunk, ..
            } => {
                assert_eq!(preempted, &[JobId(3), JobId(2)]);
                assert!(shrunk.is_empty(), "a preempted job is not resized");
            }
            other => panic!("expected a grant, got {other:?}"),
        }
    }

    #[test]
    fn empty_snapshot_is_a_noop() {
        let mut m = maui(DfsConfig::default());
        let out = m.iterate(&Snapshot {
            total_cores: 120,
            ..Default::default()
        });
        assert!(out.starts.is_empty());
        assert!(out.reservations.is_empty());
        assert!(out.dyn_decisions.is_empty());
    }

    #[test]
    fn starts_jobs_in_priority_order() {
        let mut m = maui(DfsConfig::default());
        let snap = Snapshot {
            now: t(100),
            total_cores: 8,
            running: vec![].into(),
            queued: vec![queued(2, 0, 4, 100, 50), queued(1, 0, 4, 100, 0)].into(),
            dyn_requests: vec![],
            usage: None,
            deltas: None,
        };
        let out = m.iterate(&snap);
        assert_eq!(out.starts.len(), 2);
        assert_eq!(out.starts[0].job, JobId(1), "older job starts first");
        assert!(!out.starts[0].backfilled);
    }

    #[test]
    fn blocked_job_gets_reservation_and_small_job_backfills() {
        let mut m = maui(DfsConfig::default());
        // 8 cores; a running job holds 6 until t=100.
        // Queued: big job (8 cores, high priority) is blocked until t=100;
        // a small old job (2 cores, 50 s) fits in the hole.
        let snap = Snapshot {
            now: t(0),
            total_cores: 8,
            running: vec![running(1, 0, 6, 100)].into(),
            queued: vec![queued(2, 0, 8, 100, 0), queued(3, 1, 2, 50, 10)].into(),
            dyn_requests: vec![],
            usage: None,
            deltas: None,
        };
        let out = m.iterate(&snap);
        assert_eq!(out.reservations.len(), 1);
        assert_eq!(out.reservations[0].job, JobId(2));
        assert_eq!(out.reservations[0].start, t(100));
        let bf: Vec<_> = out.starts.iter().filter(|s| s.backfilled).collect();
        assert_eq!(bf.len(), 1);
        assert_eq!(bf[0].job, JobId(3));
    }

    #[test]
    fn backfill_never_delays_the_reservation() {
        let mut m = maui(DfsConfig::default());
        // Same as above but the small job runs 150 s: it would collide
        // with the reservation at t=100 and must not start.
        let snap = Snapshot {
            now: t(0),
            total_cores: 8,
            running: vec![running(1, 0, 6, 100)].into(),
            queued: vec![queued(2, 0, 8, 100, 0), queued(3, 1, 2, 150, 10)].into(),
            dyn_requests: vec![],
            usage: None,
            deltas: None,
        };
        let out = m.iterate(&snap);
        assert!(out.starts.is_empty(), "nothing may start: {:?}", out.starts);
    }

    #[test]
    fn z_rule_suppresses_backfill() {
        let mut m = maui(DfsConfig::default());
        let mut z = queued(2, 0, 8, 100, 0);
        z.priority_boost = 1_000_000;
        z.suppress_backfill_while_queued = true;
        let snap = Snapshot {
            now: t(0),
            total_cores: 8,
            running: vec![running(1, 0, 6, 100)].into(),
            queued: vec![z, queued(3, 1, 2, 50, 10)].into(),
            dyn_requests: vec![],
            usage: None,
            deltas: None,
        };
        let out = m.iterate(&snap);
        assert!(
            out.starts.is_empty(),
            "the 50 s job would fit but backfill is suppressed while Z queues"
        );
    }

    #[test]
    fn dyn_request_granted_from_idle_with_hp() {
        let mut m = maui(DfsConfig::highest_priority());
        let snap = Snapshot {
            now: t(10),
            total_cores: 8,
            running: vec![running(1, 0, 4, 200)].into(),
            queued: vec![].into(),
            dyn_requests: vec![dyn_req(1, 0, 4, 190, 0)],
            usage: None,
            deltas: None,
        };
        let out = m.iterate(&snap);
        assert_eq!(out.dyn_decisions.len(), 1);
        assert!(out.dyn_decisions[0].is_granted());
    }

    #[test]
    fn dyn_request_rejected_without_resources() {
        let mut m = maui(DfsConfig::highest_priority());
        let snap = Snapshot {
            now: t(10),
            total_cores: 8,
            running: vec![running(1, 0, 8, 200)].into(),
            queued: vec![].into(),
            dyn_requests: vec![dyn_req(1, 0, 4, 190, 0)],
            usage: None,
            deltas: None,
        };
        let out = m.iterate(&snap);
        assert_eq!(
            out.dyn_decisions[0],
            DynDecision::Rejected {
                job: JobId(1),
                reason: DfsReject::NoResources
            }
        );
    }

    #[test]
    fn static_only_config_ignores_dyn_requests() {
        let mut cfg = SchedulerConfig::paper_eval();
        cfg.dynamic_enabled = false;
        let mut m = Maui::new(cfg);
        let snap = Snapshot {
            now: t(10),
            total_cores: 8,
            running: vec![running(1, 0, 4, 200)].into(),
            queued: vec![].into(),
            dyn_requests: vec![dyn_req(1, 0, 4, 190, 0)],
            usage: None,
            deltas: None,
        };
        let out = m.iterate(&snap);
        assert!(out.dyn_decisions.is_empty());
    }

    #[test]
    fn fig1_delay_measured_and_hp_grants_anyway() {
        // The paper's Fig 1: 6 nodes. A holds 2 until 8 h, B holds 2 until
        // 4 h, C (4 nodes) queued. A requests the 2 idle nodes.
        let h = 3600;
        let mut m = maui(DfsConfig::highest_priority());
        let snap = Snapshot {
            now: t(0),
            total_cores: 6,
            running: vec![running(1, 0, 2, 8 * h), running(2, 1, 2, 4 * h)].into(),
            queued: vec![queued(3, 2, 4, 4 * h, 0)].into(),
            dyn_requests: vec![dyn_req(1, 0, 2, 8 * h, 0)],
            usage: None,
            deltas: None,
        };
        let out = m.iterate(&snap);
        match &out.dyn_decisions[0] {
            DynDecision::Granted { delays, .. } => {
                assert_eq!(delays.len(), 1);
                assert_eq!(delays[0].job, JobId(3));
                // C slips from 4 h to 8 h: a 4-hour delay.
                assert_eq!(delays[0].delay, d(4 * h));
            }
            other => panic!("expected grant, got {other:?}"),
        }
        // And C did not start.
        assert!(out.starts.is_empty());
    }

    #[test]
    fn fig1_delay_rejected_under_target_policy() {
        let h = 3600;
        // Cap each user's cumulative delay at 1 h: the 4 h delay to C is
        // unfair, so the request must be rejected and C's reservation kept.
        let mut m = maui(DfsConfig::uniform_target(3600, SimDuration::from_hours(24)));
        let snap = Snapshot {
            now: t(0),
            total_cores: 6,
            running: vec![running(1, 0, 2, 8 * h), running(2, 1, 2, 4 * h)].into(),
            queued: vec![queued(3, 2, 4, 4 * h, 0)].into(),
            dyn_requests: vec![dyn_req(1, 0, 2, 8 * h, 0)],
            usage: None,
            deltas: None,
        };
        let out = m.iterate(&snap);
        assert!(matches!(
            out.dyn_decisions[0],
            DynDecision::Rejected {
                reason: DfsReject::UserTargetExceeded { .. },
                ..
            }
        ));
        assert_eq!(
            out.reservations[0].start,
            t(4 * h),
            "C's reservation unchanged"
        );
    }

    #[test]
    fn same_user_delay_is_exempt() {
        let h = 3600;
        // As above, but C belongs to the same user as the evolving job A:
        // the delay is not considered and the grant goes through even under
        // a strict policy.
        let mut m = maui(DfsConfig::uniform_target(1, SimDuration::from_hours(24)));
        let snap = Snapshot {
            now: t(0),
            total_cores: 6,
            running: vec![running(1, 0, 2, 8 * h), running(2, 1, 2, 4 * h)].into(),
            queued: vec![queued(3, 0, 4, 4 * h, 0)].into(),
            dyn_requests: vec![dyn_req(1, 0, 2, 8 * h, 0)],
            usage: None,
            deltas: None,
        };
        let out = m.iterate(&snap);
        assert!(out.dyn_decisions[0].is_granted());
    }

    #[test]
    fn delay_depth_bounds_the_charge() {
        let h = 3600;
        // ReservationDelayDepth = 1: only the first StartLater job's delay
        // is measured; a second queued job's delay goes unnoticed.
        let mut cfg = SchedulerConfig::paper_eval();
        cfg.reservation_delay_depth = 1;
        cfg.dfs = DfsConfig::uniform_target(10 * 3600, SimDuration::from_hours(24));
        let mut m = Maui::new(cfg);
        let snap = Snapshot {
            now: t(0),
            total_cores: 6,
            running: vec![running(1, 0, 2, 8 * h), running(2, 1, 2, 4 * h)].into(),
            queued: vec![queued(3, 2, 4, 4 * h, 0), queued(4, 3, 4, 4 * h, 10)].into(),
            dyn_requests: vec![dyn_req(1, 0, 2, 8 * h, 0)],
            usage: None,
            deltas: None,
        };
        let out = m.iterate(&snap);
        match &out.dyn_decisions[0] {
            DynDecision::Granted { delays, .. } => {
                assert_eq!(delays.len(), 1, "only depth-1 measured");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn preemption_frees_cores_for_dynamic_request() {
        let mut cfg = SchedulerConfig::paper_eval();
        cfg.dfs = DfsConfig::highest_priority();
        cfg.preempt_backfilled_for_dyn = true;
        let mut m = Maui::new(cfg);
        // All 8 cores busy: evolving job holds 4, a backfilled job holds 4.
        let mut bf = running(2, 1, 4, 300);
        bf.backfilled = true;
        bf.start_time = t(5);
        let snap = Snapshot {
            now: t(10),
            total_cores: 8,
            running: vec![running(1, 0, 4, 300), bf].into(),
            queued: vec![].into(),
            dyn_requests: vec![dyn_req(1, 0, 4, 290, 0)],
            usage: None,
            deltas: None,
        };
        let out = m.iterate(&snap);
        match &out.dyn_decisions[0] {
            DynDecision::Granted { preempted, .. } => {
                assert_eq!(preempted, &vec![JobId(2)]);
            }
            other => panic!("expected preempting grant, got {other:?}"),
        }
    }

    #[test]
    fn without_preemption_option_busy_system_rejects() {
        let mut cfg = SchedulerConfig::paper_eval();
        cfg.dfs = DfsConfig::highest_priority();
        cfg.preempt_backfilled_for_dyn = false;
        let mut m = Maui::new(cfg);
        let mut bf = running(2, 1, 4, 300);
        bf.backfilled = true;
        let snap = Snapshot {
            now: t(10),
            total_cores: 8,
            running: vec![running(1, 0, 4, 300), bf].into(),
            queued: vec![].into(),
            dyn_requests: vec![dyn_req(1, 0, 4, 290, 0)],
            usage: None,
            deltas: None,
        };
        let out = m.iterate(&snap);
        assert!(matches!(
            out.dyn_decisions[0],
            DynDecision::Rejected {
                reason: DfsReject::NoResources,
                ..
            }
        ));
    }

    #[test]
    fn fifo_order_of_dynamic_requests() {
        let mut m = maui(DfsConfig::highest_priority());
        // 8 cores, 4 busy; two requests for 4 cores each — only the first
        // (by seq) can be satisfied.
        let snap = Snapshot {
            now: t(10),
            total_cores: 8,
            running: vec![running(1, 0, 2, 200), running(2, 1, 2, 200)].into(),
            queued: vec![].into(),
            dyn_requests: vec![dyn_req(2, 1, 4, 190, 7), dyn_req(1, 0, 4, 190, 3)],
            usage: None,
            deltas: None,
        };
        let out = m.iterate(&snap);
        assert_eq!(out.dyn_decisions.len(), 2);
        assert_eq!(out.dyn_decisions[0].job(), JobId(1), "lower seq first");
        assert!(out.dyn_decisions[0].is_granted());
        assert!(!out.dyn_decisions[1].is_granted());
    }

    #[test]
    fn grant_converts_startnow_to_startlater() {
        // 8 cores: 4 busy until t=100 (evolving). A queued 4-core job could
        // StartNow, but the grant takes those 4 cores until t=100.
        let mut m = maui(DfsConfig::highest_priority());
        let snap = Snapshot {
            now: t(0),
            total_cores: 8,
            running: vec![running(1, 0, 4, 100)].into(),
            queued: vec![queued(2, 1, 4, 50, 0)].into(),
            dyn_requests: vec![dyn_req(1, 0, 4, 100, 0)],
            usage: None,
            deltas: None,
        };
        let out = m.iterate(&snap);
        assert!(out.dyn_decisions[0].is_granted());
        // Baseline says StartNow...
        assert_eq!(out.baseline_plan[0].kind, StartKind::Now);
        // ...but after the grant the job cannot start and is reserved at
        // t=100.
        assert!(out.starts.is_empty());
        assert_eq!(out.reservations[0].start, t(100));
        // And the charged delay is exactly 100 s.
        match &out.dyn_decisions[0] {
            DynDecision::Granted { delays, .. } => {
                assert_eq!(delays[0].delay, d(100));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn conservative_backfill_reserves_everyone() {
        let mut cfg = SchedulerConfig::paper_eval();
        cfg.backfill = BackfillPolicy::Conservative;
        cfg.reservation_depth = 1;
        let mut m = Maui::new(cfg);
        let snap = Snapshot {
            now: t(0),
            total_cores: 8,
            running: vec![running(1, 0, 8, 100)].into(),
            queued: vec![
                queued(2, 0, 8, 100, 0),
                queued(3, 1, 8, 100, 1),
                queued(4, 2, 8, 100, 2),
            ]
            .into(),
            dyn_requests: vec![],
            usage: None,
            deltas: None,
        };
        let out = m.iterate(&snap);
        assert_eq!(out.reservations.len(), 3, "conservative ignores depth");
    }

    #[test]
    fn deterministic_iteration() {
        let snap = Snapshot {
            now: t(0),
            total_cores: 16,
            running: vec![running(1, 0, 6, 100)].into(),
            queued: vec![
                queued(2, 0, 8, 100, 0),
                queued(3, 1, 2, 50, 10),
                queued(4, 2, 16, 30, 20),
            ]
            .into(),
            dyn_requests: vec![dyn_req(1, 0, 4, 90, 0)],
            usage: None,
            deltas: None,
        };
        let out1 = maui(DfsConfig::highest_priority()).iterate(&snap);
        let out2 = maui(DfsConfig::highest_priority()).iterate(&snap);
        assert_eq!(out1.starts, out2.starts);
        assert_eq!(out1.reservations, out2.reservations);
        assert_eq!(out1.dyn_decisions, out2.dyn_decisions);
    }
}
