//! Naive reference implementations — the executable specification.
//!
//! [`iterate_naive`] is the scheduling iteration with every pass visiting
//! every queued job, the base profile rebuilt from the running set and no
//! plan cached, as it ran before the cycle became independent of queue
//! depth and history. Debug builds of [`Maui::iterate`] run it beside
//! every cycle and assert the same outcome and the same fairness
//! statistics; `tests/prop_maui.rs` drives the two over random
//! multi-cycle runs in any build, and `perf_smoke` times it as the
//! baseline of its `scaled_iteration`, `incremental_timeline` and
//! `deep_queue` sections.
//!
//! [`NaiveProfile`] is the original O(n²) formulation of the
//! availability timeline, kept verbatim: `hold`/`release` scan and
//! re-coalesce the whole step vector, `earliest_fit` materialises a
//! candidate list and re-scans the steps per candidate. It exists for
//! the property suite (`tests/prop_timeline.rs`), which checks the
//! windowed [`crate::AvailabilityProfile`] against it on random operation
//! sequences — observational equivalence over `steps()` / `idle_at` /
//! `min_idle` / `earliest_fit`.
//!
//! Do not "optimise" this module: its value is being obviously correct.

use crate::dfs::{DelayCharge, DfsEngine, DfsReject, DfsVerdict};
use crate::fairshare::FairshareTracker;
use crate::incremental::profile_from_running;
use crate::maui::{
    defer_hint, dfs_target_scale, fairness_view, reject_or_defer, update_statistics, DynDecision,
    IterationOutcome, Maui, ResizeDecision, StartDecision,
};
use crate::plan::plan_starts;
use crate::priority::rank_jobs;
use crate::reservation::Reservation;
use crate::snapshot::{DynRequest, QueuedJob, RunningJob, Snapshot};
use crate::timeline::{planned_end, AvailabilityProfile};
use dynbatch_core::{BackfillPolicy, JobId, SchedulerConfig, SimDuration, SimTime};
use std::collections::{HashMap, HashSet};

/// The step function `time → idle cores`, in its original naive
/// formulation. Semantically identical to [`crate::AvailabilityProfile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaiveProfile {
    origin: SimTime,
    capacity: u32,
    steps: Vec<(SimTime, u32)>,
}

impl NaiveProfile {
    /// A fully idle profile: `capacity` cores free from `origin` onwards.
    pub fn new(origin: SimTime, capacity: u32) -> Self {
        NaiveProfile {
            origin,
            capacity,
            steps: vec![(origin, capacity)],
        }
    }

    /// The profile's origin.
    pub fn origin(&self) -> SimTime {
        self.origin
    }

    /// Total cores the profile was built with.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Idle cores at instant `t`.
    pub fn idle_at(&self, t: SimTime) -> u32 {
        assert!(t >= self.origin, "query before profile origin");
        match self.steps.binary_search_by(|&(s, _)| s.cmp(&t)) {
            Ok(i) => self.steps[i].1,
            Err(0) => unreachable!("first step is at origin"),
            Err(i) => self.steps[i - 1].1,
        }
    }

    /// Minimum idle cores over `[from, to)` — full linear scan.
    pub fn min_idle(&self, from: SimTime, to: SimTime) -> u32 {
        assert!(from >= self.origin && to >= from);
        if from == to {
            return self.idle_at(from);
        }
        let mut min = self.idle_at(from);
        for &(s, idle) in &self.steps {
            if s > from && s < to {
                min = min.min(idle);
            }
        }
        min
    }

    /// Subtracts `cores` over `[from, to)` — full scan + global coalesce.
    pub fn hold(&mut self, from: SimTime, to: SimTime, cores: u32) {
        assert!(from >= self.origin, "hold starts before origin");
        if cores == 0 || from >= to {
            return;
        }
        self.ensure_breakpoint(from);
        if to < SimTime::MAX {
            self.ensure_breakpoint(to);
        }
        for step in &mut self.steps {
            if step.0 >= from && (to == SimTime::MAX || step.0 < to) {
                assert!(
                    step.1 >= cores,
                    "hold over-commits at {}: {} idle < {cores}",
                    step.0,
                    step.1
                );
                step.1 -= cores;
            }
        }
        self.coalesce();
    }

    /// Convenience: hold for a duration starting at `from`.
    pub fn hold_for(&mut self, from: SimTime, duration: SimDuration, cores: u32) {
        self.hold(from, from.saturating_add(duration), cores);
    }

    /// Returns `cores` over `[from, to)` — full scan + global coalesce.
    pub fn release(&mut self, from: SimTime, to: SimTime, cores: u32) {
        assert!(from >= self.origin);
        if cores == 0 || from >= to {
            return;
        }
        self.ensure_breakpoint(from);
        if to < SimTime::MAX {
            self.ensure_breakpoint(to);
        }
        for step in &mut self.steps {
            if step.0 >= from && (to == SimTime::MAX || step.0 < to) {
                assert!(
                    step.1 + cores <= self.capacity,
                    "release exceeds capacity at {}",
                    step.0
                );
                step.1 += cores;
            }
        }
        self.coalesce();
    }

    /// Earliest fit — candidate list plus per-candidate rescan (O(n²)).
    pub fn earliest_fit(
        &self,
        cores: u32,
        duration: SimDuration,
        not_before: SimTime,
    ) -> Option<SimTime> {
        if cores > self.capacity {
            return None;
        }
        if cores == 0 {
            return Some(not_before.max(self.origin));
        }
        let start0 = not_before.max(self.origin);
        let mut candidates: Vec<SimTime> = vec![start0];
        candidates.extend(self.steps.iter().map(|&(s, _)| s).filter(|&s| s > start0));
        'candidate: for &t in &candidates {
            if self.idle_at(t) < cores {
                continue;
            }
            let end = t.saturating_add(duration);
            for &(s, idle) in &self.steps {
                if s > t && s < end && idle < cores {
                    continue 'candidate;
                }
            }
            return Some(t);
        }
        None
    }

    /// All breakpoints.
    pub fn steps(&self) -> &[(SimTime, u32)] {
        &self.steps
    }

    fn ensure_breakpoint(&mut self, t: SimTime) {
        match self.steps.binary_search_by(|&(s, _)| s.cmp(&t)) {
            Ok(_) => {}
            Err(i) => {
                debug_assert!(i > 0, "breakpoint before origin");
                let inherited = self.steps[i - 1].1;
                self.steps.insert(i, (t, inherited));
            }
        }
    }

    fn coalesce(&mut self) {
        self.steps.dedup_by(|next, prev| next.1 == prev.1);
    }
}

/// One scheduling iteration as it ran before the cycle stopped scaling
/// with the queue: rank by a comparison sort that recomputes priorities
/// per comparison, scan the queue for a Z job, index it by id in a hash
/// map, visit every job in the static pass and again in the backfill
/// pass, and answer every fit test with a full-window `min_idle`. The
/// base profile is rebuilt from the running set and no plan is cached.
///
/// [`Maui::iterate`] must return exactly this, decision for decision.
/// Advances `maui`'s DFS and fairshare state the way `iterate` does —
/// through the same [`update_statistics`] — and touches nothing else of
/// it.
pub fn iterate_naive(maui: &mut Maui, snap: &Snapshot) -> IterationOutcome {
    naive_cycle(&maui.config, &mut maui.dfs, &mut maui.fairshare, snap)
}

/// [`iterate_naive`] on the state it advances, so that `Maui::iterate`
/// can run it on copies.
pub(crate) fn naive_cycle(
    config: &SchedulerConfig,
    dfs: &mut DfsEngine,
    fairshare: &mut FairshareTracker,
    snap: &Snapshot,
) -> IterationOutcome {
    let now = snap.now;
    update_statistics(config, dfs, fairshare, snap);

    let mut ranked: Vec<&QueuedJob> = snap.queued.iter().collect();
    rank_jobs(
        &mut ranked,
        now,
        &config.priority,
        fairness_view(config, fairshare, snap.usage.as_ref()),
    );

    let mut base = profile_from_running(now, snap.total_cores, &snap.running);
    let mut partition = config
        .dyn_partition_cores
        .min(base.min_idle(now, SimTime::MAX));
    if partition > 0 {
        base.hold(now, SimTime::MAX, partition);
    }
    let mut outcome = IterationOutcome {
        baseline_plan: plan_starts(&mut base.clone(), &ranked, config.lookahead_depth(), now),
        ..Default::default()
    };

    // The dynamic-request loop (paper Algorithm 2, steps 11–24).
    let mut preempted: HashSet<JobId> = HashSet::new();
    let mut cur_cores: HashMap<JobId, u32> = snap.running.iter().map(|r| (r.id, r.cores)).collect();
    if config.dynamic_enabled {
        let mut requests: Vec<&DynRequest> = snap.dyn_requests.iter().collect();
        requests.sort_by_key(|r| r.seq);
        let jobs_by_id: HashMap<JobId, &QueuedJob> = ranked.iter().map(|j| (j.id, *j)).collect();
        for req in requests {
            let decision = naive_dynamic_request(
                config,
                dfs,
                snap,
                &ranked,
                &jobs_by_id,
                req,
                &mut base,
                &mut partition,
                &mut preempted,
                &mut cur_cores,
            );
            outcome.dyn_decisions.push(decision);
        }
    }

    // Static starts and reservations.
    let mut profile = base;
    let mut blocked = false;
    let mut started: HashSet<JobId> = HashSet::new();
    let mut reserved: HashSet<JobId> = HashSet::new();
    let reservation_limit = match config.backfill {
        BackfillPolicy::Conservative => usize::MAX,
        _ => config.reservation_depth,
    };
    for job in &ranked {
        if !blocked {
            if let Some(width) = naive_mold_fit(&profile, job, now) {
                profile.hold_for(now, job.walltime, width + job.reserve_extra);
                started.insert(job.id);
                outcome.starts.push(StartDecision {
                    job: job.id,
                    backfilled: false,
                    cores: (width != job.cores).then_some(width),
                });
                continue;
            }
            blocked = true;
        }
        if outcome.reservations.len() < reservation_limit {
            let width = job.cores + job.reserve_extra;
            if let Some(start) = profile.earliest_fit(width, job.walltime, now) {
                if start > now {
                    let end = start.saturating_add(job.walltime);
                    profile.hold(start, end, width);
                    reserved.insert(job.id);
                    outcome.reservations.push(Reservation {
                        job: job.id,
                        start,
                        end,
                        cores: width,
                    });
                }
            }
        }
    }

    // Backfill.
    let suppressed = snap.queued.iter().any(|q| q.suppress_backfill_while_queued);
    if config.backfill != BackfillPolicy::None && !suppressed {
        for job in &ranked {
            if started.contains(&job.id) || reserved.contains(&job.id) {
                continue;
            }
            if let Some(width) = naive_mold_fit(&profile, job, now) {
                profile.hold_for(now, job.walltime, width + job.reserve_extra);
                outcome.starts.push(StartDecision {
                    job: job.id,
                    backfilled: true,
                    cores: (width != job.cores).then_some(width),
                });
            }
        }
    }

    // Malleable grows.
    if config.grow_malleable_on_idle {
        let shrunk_now: HashSet<JobId> = outcome
            .dyn_decisions
            .iter()
            .filter_map(|d| match d {
                DynDecision::Granted { shrunk, .. } => Some(shrunk.iter().map(|r| r.job)),
                _ => None,
            })
            .flatten()
            .collect();
        let mut growables: Vec<&RunningJob> = snap
            .running
            .iter()
            .filter(|r| {
                !preempted.contains(&r.id) && !shrunk_now.contains(&r.id) && r.malleable.is_some()
            })
            .collect();
        growables.sort_by_key(|r| r.id);
        for r in growables {
            let cores_now = cur_cores[&r.id];
            let max = r.malleable.expect("filtered").max_cores;
            if cores_now >= max {
                continue;
            }
            let end = planned_end(now, r.walltime_end);
            let give = profile.min_idle(now, end).min(max - cores_now);
            if give > 0 {
                profile.hold(now, end, give);
                cur_cores.insert(r.id, cores_now + give);
                outcome.grows.push(ResizeDecision {
                    job: r.id,
                    from_cores: cores_now,
                    to_cores: cores_now + give,
                });
            }
        }
    }

    for s in &outcome.starts {
        dfs.job_left_queue(s.job);
    }
    outcome
}

/// `mold_fit` with a full-window scan.
fn naive_mold_fit(profile: &AvailabilityProfile, job: &QueuedJob, now: SimTime) -> Option<u32> {
    let idle = profile.min_idle(now, now.saturating_add(job.walltime));
    match job.moldable {
        None => (idle >= job.cores + job.reserve_extra).then_some(job.cores),
        Some(r) => {
            let best = r.max_cores.min(idle.saturating_sub(job.reserve_extra));
            (best >= r.min_cores).then_some(best)
        }
    }
}

/// Steps 12–23 for one dynamic request, evaluated and committed in one
/// go against the iteration's mutable world (`base`, `partition`,
/// `preempted`, `cur_cores`).
#[allow(clippy::too_many_arguments)]
fn naive_dynamic_request(
    config: &SchedulerConfig,
    dfs: &mut DfsEngine,
    snap: &Snapshot,
    ranked: &[&QueuedJob],
    jobs_by_id: &HashMap<JobId, &QueuedJob>,
    req: &DynRequest,
    base: &mut AvailabilityProfile,
    partition: &mut u32,
    preempted: &mut HashSet<JobId>,
    cur_cores: &mut HashMap<JobId, u32>,
) -> DynDecision {
    let now = snap.now;
    if preempted.contains(&req.job) {
        return DynDecision::Rejected {
            job: req.job,
            reason: DfsReject::NoResources,
        };
    }
    if let Some(holder) = snap.running.iter().find(|r| r.id == req.job) {
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

    let mut trial = base.clone();
    if *partition > 0 {
        trial.release(now, SimTime::MAX, *partition);
    }
    let mut to_preempt: Vec<JobId> = Vec::new();
    let mut to_shrink: Vec<ResizeDecision> = Vec::new();
    if trial.idle_at(now) < req.extra_cores && config.shrink_malleable_for_dyn {
        let mut candidates: Vec<&RunningJob> = snap
            .running
            .iter()
            .filter(|r| {
                r.id != req.job
                    && !preempted.contains(&r.id)
                    && r.malleable.is_some_and(|m| cur_cores[&r.id] > m.min_cores)
            })
            .collect();
        candidates.sort_by_key(|r| {
            let slack = cur_cores[&r.id] - r.malleable.expect("filtered").min_cores;
            (std::cmp::Reverse(slack), r.id)
        });
        for cand in candidates {
            if trial.idle_at(now) >= req.extra_cores {
                break;
            }
            let cores_now = cur_cores[&cand.id];
            let min = cand.malleable.expect("filtered").min_cores;
            let deficit = req.extra_cores - trial.idle_at(now);
            let give = (cores_now - min).min(deficit);
            trial.release(now, planned_end(now, cand.walltime_end), give);
            to_shrink.push(ResizeDecision {
                job: cand.id,
                from_cores: cores_now,
                to_cores: cores_now - give,
            });
        }
    }
    if trial.idle_at(now) < req.extra_cores && config.preempt_backfilled_for_dyn {
        let mut candidates: Vec<&RunningJob> = snap
            .running
            .iter()
            .filter(|r| r.backfilled && r.id != req.job && !preempted.contains(&r.id))
            .collect();
        candidates.sort_by_key(|r| std::cmp::Reverse((r.start_time, r.id)));
        for cand in candidates {
            if trial.idle_at(now) >= req.extra_cores {
                break;
            }
            let held = match to_shrink.iter().position(|r| r.job == cand.id) {
                Some(i) => to_shrink.remove(i).to_cores,
                None => cur_cores[&cand.id],
            };
            trial.release(now, planned_end(now, cand.walltime_end), held);
            to_preempt.push(cand.id);
        }
    }
    if trial.idle_at(now) < req.extra_cores {
        let hint = defer_hint(req, base, now);
        return reject_or_defer(req, DfsReject::NoResources, hint, now);
    }

    let mut expanded = trial;
    expanded.hold_for(now, req.remaining_walltime, req.extra_cores);
    let unused_partition = partition.saturating_sub(req.extra_cores.min(*partition));
    if unused_partition > 0 {
        expanded.hold(now, SimTime::MAX, unused_partition);
    }

    let depth = config.reservation_delay_depth;
    let before = plan_starts(&mut base.clone(), ranked, depth, now);
    let after = plan_starts(&mut expanded.clone(), ranked, depth, now);
    let mut delays = Vec::new();
    for b in &before {
        let job = jobs_by_id.get(&b.job).expect("planned job is queued");
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

    let scale = dfs_target_scale(&config.fairshare, snap.usage.as_ref(), req.user);
    match dfs.evaluate_scaled(req.user, &delays, scale) {
        DfsVerdict::Rejected(reason) => {
            let hint = defer_hint(req, base, now);
            reject_or_defer(req, reason, hint, now)
        }
        DfsVerdict::Allowed => {
            dfs.commit(req.user, &delays);
            *base = expanded;
            *partition = unused_partition;
            let want = config.dyn_partition_cores.saturating_sub(*partition);
            let regrow = want.min(base.min_idle(now, SimTime::MAX));
            if regrow > 0 {
                base.hold(now, SimTime::MAX, regrow);
                *partition += regrow;
            }
            preempted.extend(to_preempt.iter().copied());
            for r in &to_shrink {
                cur_cores.insert(r.job, r.to_cores);
            }
            if let Some(c) = cur_cores.get_mut(&req.job) {
                *c += req.extra_cores;
            }
            DynDecision::Granted {
                job: req.job,
                extra_cores: req.extra_cores,
                delays,
                preempted: to_preempt,
                shrunk: to_shrink,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_basic_profile_behaviour() {
        let t = SimTime::from_secs;
        let mut p = NaiveProfile::new(t(0), 10);
        p.hold(t(5), t(15), 4);
        assert_eq!(p.idle_at(t(0)), 10);
        assert_eq!(p.idle_at(t(5)), 6);
        assert_eq!(p.idle_at(t(15)), 10);
        assert_eq!(p.min_idle(t(0), t(20)), 6);
        assert_eq!(
            p.earliest_fit(8, SimDuration::from_secs(10), t(0)),
            Some(t(15))
        );
        p.release(t(5), t(15), 4);
        assert_eq!(p.steps().len(), 1);
    }
}
