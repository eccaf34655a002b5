//! Dynamic fairness (DFS) — the paper's §III-D.
//!
//! Static fairshare rebalances *historical usage*; it cannot stop a single
//! dynamic allocation from pushing a queued job hours into the future. The
//! DFS engine does: every candidate dynamic allocation comes with the list
//! of delays it would inflict on planned queued jobs, and the engine
//! accepts or rejects it against site-configured limits:
//!
//! * `DFSSingleJobDelay` — caps the *accumulated* delay of each individual
//!   queued job (`DFSSingleDelayTime`);
//! * `DFSTargetDelay` — caps the *cumulative* delay charged to a user (and
//!   to a group) within one `DFSInterval`;
//! * `DFSDynDelayPerm` — some credentials may never be delayed at all;
//! * delays to the evolving job's **own** user are exempt;
//! * at each interval boundary, accumulated user/group delay decays by
//!   `DFSDecay` (the paper's worked example: limit 4800 s, current 3600 s,
//!   decay 0.2 ⇒ the next interval starts charged with 720 s).

use crate::snapshot::QueuedSet;
use dynbatch_core::{DfsConfig, GroupId, JobId, SimDuration, SimTime, UserId};
use std::collections::HashMap;

/// One delay a candidate dynamic allocation would inflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayCharge {
    /// The queued job being pushed back.
    pub job: JobId,
    /// Its owner.
    pub user: UserId,
    /// Its owner's group.
    pub group: GroupId,
    /// How much later it would start.
    pub delay: SimDuration,
}

/// Why a dynamic request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DfsReject {
    /// Not enough idle (or preemptible) resources at all.
    NoResources,
    /// A delayed job's owner carries `DFSDynDelayPerm = 0`.
    PermDenied {
        /// The protected user.
        user: UserId,
    },
    /// A single queued job's accumulated delay would exceed its cap.
    SingleExceeded {
        /// The job whose cap would burst.
        job: JobId,
        /// Its accumulated delay including this charge.
        would_be: SimDuration,
        /// The applicable cap.
        limit: SimDuration,
    },
    /// A user's cumulative interval delay would exceed the target cap.
    UserTargetExceeded {
        /// The user.
        user: UserId,
        /// Cumulative delay including this charge.
        would_be: SimDuration,
        /// The applicable cap.
        limit: SimDuration,
    },
    /// A group's cumulative interval delay would exceed the target cap.
    GroupTargetExceeded {
        /// The group.
        group: GroupId,
        /// Cumulative delay including this charge.
        would_be: SimDuration,
        /// The applicable cap.
        limit: SimDuration,
    },
}

/// The verdict on one candidate dynamic allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DfsVerdict {
    /// The allocation is fair; commit it.
    Allowed,
    /// The allocation violates a policy.
    Rejected(DfsReject),
}

/// The stateful dynamic-fairness accountant.
#[derive(Debug, Clone, PartialEq)]
pub struct DfsEngine {
    config: DfsConfig,
    interval_start: SimTime,
    /// Cumulative delay charged per user in the current interval.
    user_delay: HashMap<UserId, SimDuration>,
    /// Cumulative delay charged per group in the current interval.
    group_delay: HashMap<GroupId, SimDuration>,
    /// Accumulated delay per *queued job* (does not decay; cleared when the
    /// job starts or leaves the queue).
    job_delay: HashMap<JobId, SimDuration>,
}

impl DfsEngine {
    /// A fresh engine whose first interval starts at `start`.
    pub fn new(config: DfsConfig, start: SimTime) -> Self {
        DfsEngine {
            config,
            interval_start: start,
            user_delay: HashMap::new(),
            group_delay: HashMap::new(),
            job_delay: HashMap::new(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &DfsConfig {
        &self.config
    }

    /// Rolls interval boundaries forward to cover `now`, decaying
    /// accumulated user/group delay by `DFSDecay` per boundary crossed.
    ///
    /// The naive implementation walks one boundary at a time — a
    /// month-scale gap with a 1 h interval is ~720 decay sweeps on the
    /// scheduler hot path. [`SimDuration::mul_f64`] rounds to the
    /// millisecond per application, so `k` sweeps are *not* one
    /// `decay^k`; instead the common cases short-circuit (empty maps,
    /// decay 0 or 1) and the general loop stops as soon as the maps drain
    /// or hit a rounding fixed point, then jumps the remaining
    /// boundaries. Equivalence with the naive loop is pinned by a
    /// property test below.
    pub fn advance_to(&mut self, now: SimTime) {
        if self.config.interval.is_zero() || now < self.interval_start + self.config.interval {
            return;
        }
        let i_ms = self.config.interval.as_millis();
        let k = (now - self.interval_start).as_millis() / i_ms;
        let end = self.interval_start + SimDuration::from_millis(k * i_ms);
        let decay = self.config.decay;
        if self.user_delay.is_empty() && self.group_delay.is_empty() {
            // Nothing to decay: every boundary is a no-op.
        } else if decay == 0.0 {
            // The first boundary already wipes everything.
            self.user_delay.clear();
            self.group_delay.clear();
        } else if decay == 1.0 {
            // Values are fixed under decay; one sweep drops the zero
            // entries the naive loop would have retained out.
            self.user_delay.retain(|_, v| !v.is_zero());
            self.group_delay.retain(|_, v| !v.is_zero());
        } else {
            // General decay: walk boundaries, but stop once the maps
            // drain or a rounding fixed point makes further sweeps
            // no-ops (`mul_f64` can pin small values, e.g. 1 ms × 0.9
            // rounds back to 1 ms).
            for _ in 0..k {
                let mut changed = false;
                for v in self.user_delay.values_mut() {
                    let next = v.mul_f64(decay);
                    changed |= next != *v;
                    *v = next;
                }
                for v in self.group_delay.values_mut() {
                    let next = v.mul_f64(decay);
                    changed |= next != *v;
                    *v = next;
                }
                self.user_delay.retain(|_, v| !v.is_zero());
                self.group_delay.retain(|_, v| !v.is_zero());
                if !changed {
                    break;
                }
            }
        }
        self.interval_start = end;
    }

    /// Evaluates whether charging `delays` (on behalf of an evolving job
    /// owned by `evolving_user`) is fair under the configured policy.
    ///
    /// Zero-delay and same-user charges are ignored (paper: "when the
    /// evolving job and the static job are from the same user, the delay is
    /// not considered").
    pub fn evaluate(&self, evolving_user: UserId, delays: &[DelayCharge]) -> DfsVerdict {
        self.evaluate_scaled(evolving_user, delays, 1.0)
    }

    /// [`DfsEngine::evaluate`] with the `DFSTargetDelay` budgets scaled by
    /// `target_scale` — the time-aware heavy-user penalty. The Maui gate
    /// passes a scale < 1 when the requesting user is above their decayed
    /// resource-hour share, so recent heavy users get proportionally less
    /// headroom to inflict delays on queued jobs. A scale ≥ 1 leaves the
    /// configured budgets untouched (`evaluate` is exactly scale = 1).
    pub fn evaluate_scaled(
        &self,
        evolving_user: UserId,
        delays: &[DelayCharge],
        target_scale: f64,
    ) -> DfsVerdict {
        let scale_limit = |limit: SimDuration| {
            if target_scale < 1.0 {
                limit.mul_f64(target_scale)
            } else {
                limit
            }
        };
        let policy = self.config.policy;
        let relevant: Vec<&DelayCharge> = delays
            .iter()
            .filter(|d| !d.delay.is_zero() && d.user != evolving_user)
            .collect();
        if relevant.is_empty() {
            return DfsVerdict::Allowed;
        }

        // Permission applies under every policy, including NONE? The paper
        // presents DFSDynDelayPerm as part of the DFS parameter family; with
        // DFSPolicy NONE "the delay caused to static jobs will be ignored",
        // so NONE bypasses everything, including perm flags.
        if policy == dynbatch_core::DfsPolicy::None {
            return DfsVerdict::Allowed;
        }

        for d in &relevant {
            let limits = self.config.effective_limits(d.user, d.group);
            if !limits.dyn_delay_perm {
                return DfsVerdict::Rejected(DfsReject::PermDenied { user: d.user });
            }
        }

        if policy.checks_single() {
            for d in &relevant {
                let limits = self.config.effective_limits(d.user, d.group);
                if let Some(limit) = limits.single_delay_time {
                    let acc = self
                        .job_delay
                        .get(&d.job)
                        .copied()
                        .unwrap_or(SimDuration::ZERO);
                    let would_be = acc.saturating_add(d.delay);
                    if would_be > limit {
                        return DfsVerdict::Rejected(DfsReject::SingleExceeded {
                            job: d.job,
                            would_be,
                            limit,
                        });
                    }
                }
            }
        }

        if policy.checks_target() {
            // Aggregate this request's charges per user and per group.
            let mut per_user: HashMap<UserId, SimDuration> = HashMap::new();
            let mut per_group: HashMap<GroupId, SimDuration> = HashMap::new();
            let mut user_group: HashMap<UserId, GroupId> = HashMap::new();
            for d in &relevant {
                *per_user.entry(d.user).or_insert(SimDuration::ZERO) += d.delay;
                *per_group.entry(d.group).or_insert(SimDuration::ZERO) += d.delay;
                user_group.insert(d.user, d.group);
            }
            let mut users: Vec<_> = per_user.into_iter().collect();
            users.sort_by_key(|(u, _)| *u);
            for (user, charge) in users {
                let group = user_group[&user];
                let limits = self.config.effective_limits(user, group);
                if let Some(limit) = limits.target_delay_time.map(scale_limit) {
                    let cur = self
                        .user_delay
                        .get(&user)
                        .copied()
                        .unwrap_or(SimDuration::ZERO);
                    let would_be = cur.saturating_add(charge);
                    if would_be > limit {
                        return DfsVerdict::Rejected(DfsReject::UserTargetExceeded {
                            user,
                            would_be,
                            limit,
                        });
                    }
                }
            }
            let mut groups: Vec<_> = per_group.into_iter().collect();
            groups.sort_by_key(|(g, _)| *g);
            for (group, charge) in groups {
                if let Some(glim) = self.config.groups.get(&group) {
                    if let Some(limit) = glim.target_delay_time.map(scale_limit) {
                        let cur = self
                            .group_delay
                            .get(&group)
                            .copied()
                            .unwrap_or(SimDuration::ZERO);
                        let would_be = cur.saturating_add(charge);
                        if would_be > limit {
                            return DfsVerdict::Rejected(DfsReject::GroupTargetExceeded {
                                group,
                                would_be,
                                limit,
                            });
                        }
                    }
                }
            }
        }

        DfsVerdict::Allowed
    }

    /// Commits the charges of an *allowed* allocation into the statistics
    /// (paper Algorithm 2, step 17: "Update dynamic fairshare statistics").
    pub fn commit(&mut self, evolving_user: UserId, delays: &[DelayCharge]) {
        for d in delays {
            if d.delay.is_zero() || d.user == evolving_user {
                continue;
            }
            *self.user_delay.entry(d.user).or_insert(SimDuration::ZERO) += d.delay;
            *self.group_delay.entry(d.group).or_insert(SimDuration::ZERO) += d.delay;
            *self.job_delay.entry(d.job).or_insert(SimDuration::ZERO) += d.delay;
        }
    }

    /// Clears per-job accounting once `job` starts or leaves the queue.
    pub(crate) fn job_left_queue(&mut self, job: JobId) {
        self.job_delay.remove(&job);
    }

    /// Drops the slate of every job not in `queued` — the gap rule of
    /// [`crate::incremental`]: departures nobody recorded are read off
    /// the queue itself.
    pub(crate) fn prune_slates(&mut self, queued: &QueuedSet) {
        self.job_delay.retain(|&job, _| queued.get(job).is_some());
    }

    /// The jobs carrying a delay slate, in no particular order. Right
    /// after an iteration each of them is queued: a slate is wiped when
    /// its job starts, and at the top of the iteration that learns of its
    /// deletion.
    pub fn delayed_jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        self.job_delay.keys().copied()
    }

    /// The user's cumulative charged delay in the current interval.
    pub fn user_charged(&self, user: UserId) -> SimDuration {
        self.user_delay
            .get(&user)
            .copied()
            .unwrap_or(SimDuration::ZERO)
    }

    /// The queued job's accumulated delay.
    pub fn job_charged(&self, job: JobId) -> SimDuration {
        self.job_delay
            .get(&job)
            .copied()
            .unwrap_or(SimDuration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynbatch_core::{CredLimits, DfsPolicy};

    fn charge(job: u64, user: u32, group: u32, secs: u64) -> DelayCharge {
        DelayCharge {
            job: JobId(job),
            user: UserId(user),
            group: GroupId(group),
            delay: SimDuration::from_secs(secs),
        }
    }

    fn target_cfg(limit_secs: u64) -> DfsConfig {
        DfsConfig::uniform_target(limit_secs, SimDuration::from_hours(1))
    }

    #[test]
    fn policy_none_allows_everything() {
        let eng = DfsEngine::new(DfsConfig::highest_priority(), SimTime::ZERO);
        let v = eng.evaluate(UserId(99), &[charge(1, 0, 0, 100_000)]);
        assert_eq!(v, DfsVerdict::Allowed);
    }

    #[test]
    fn target_limit_enforced() {
        let mut eng = DfsEngine::new(target_cfg(500), SimTime::ZERO);
        // 400 s: fine.
        let d1 = [charge(1, 0, 0, 400)];
        assert_eq!(eng.evaluate(UserId(9), &d1), DfsVerdict::Allowed);
        eng.commit(UserId(9), &d1);
        assert_eq!(eng.user_charged(UserId(0)), SimDuration::from_secs(400));
        // Another 200 s would burst the 500 s cap.
        let d2 = [charge(2, 0, 0, 200)];
        match eng.evaluate(UserId(9), &d2) {
            DfsVerdict::Rejected(DfsReject::UserTargetExceeded {
                user,
                would_be,
                limit,
            }) => {
                assert_eq!(user, UserId(0));
                assert_eq!(would_be, SimDuration::from_secs(600));
                assert_eq!(limit, SimDuration::from_secs(500));
            }
            v => panic!("expected target rejection, got {v:?}"),
        }
        // 100 s exactly reaches the cap: allowed (limit is inclusive).
        let d3 = [charge(2, 0, 0, 100)];
        assert_eq!(eng.evaluate(UserId(9), &d3), DfsVerdict::Allowed);
    }

    #[test]
    fn same_user_delays_exempt() {
        let eng = DfsEngine::new(target_cfg(500), SimTime::ZERO);
        // The evolving job's own user may be delayed without limit.
        let v = eng.evaluate(UserId(0), &[charge(1, 0, 0, 100_000)]);
        assert_eq!(v, DfsVerdict::Allowed);
    }

    #[test]
    fn zero_delays_ignored() {
        let eng = DfsEngine::new(target_cfg(1), SimTime::ZERO);
        let v = eng.evaluate(UserId(9), &[charge(1, 0, 0, 0)]);
        assert_eq!(v, DfsVerdict::Allowed);
    }

    #[test]
    fn perm_denied_blocks() {
        let mut cfg = target_cfg(10_000);
        cfg.users.insert(UserId(2), CredLimits::never_delay());
        let eng = DfsEngine::new(cfg, SimTime::ZERO);
        let v = eng.evaluate(UserId(9), &[charge(1, 2, 0, 1)]);
        assert_eq!(
            v,
            DfsVerdict::Rejected(DfsReject::PermDenied { user: UserId(2) })
        );
    }

    #[test]
    fn group_perm_denied_blocks_members() {
        let mut cfg = target_cfg(10_000);
        cfg.groups.insert(GroupId(6), CredLimits::never_delay());
        let eng = DfsEngine::new(cfg, SimTime::ZERO);
        let v = eng.evaluate(UserId(9), &[charge(1, 2, 6, 1)]);
        assert_eq!(
            v,
            DfsVerdict::Rejected(DfsReject::PermDenied { user: UserId(2) })
        );
    }

    #[test]
    fn single_job_limit_accumulates() {
        let mut cfg = DfsConfig {
            policy: DfsPolicy::SingleJobDelay,
            ..DfsConfig::default()
        };
        cfg.default_limits = CredLimits::single(SimDuration::from_secs(1800));
        let mut eng = DfsEngine::new(cfg, SimTime::ZERO);
        let d1 = [charge(1, 0, 0, 1000)];
        assert_eq!(eng.evaluate(UserId(9), &d1), DfsVerdict::Allowed);
        eng.commit(UserId(9), &d1);
        assert_eq!(eng.job_charged(JobId(1)), SimDuration::from_secs(1000));
        // The same job can take at most 800 more.
        let d2 = [charge(1, 0, 0, 900)];
        assert!(matches!(
            eng.evaluate(UserId(9), &d2),
            DfsVerdict::Rejected(DfsReject::SingleExceeded { job: JobId(1), .. })
        ));
        // A different job of the same user is fresh.
        let d3 = [charge(2, 0, 0, 900)];
        assert_eq!(eng.evaluate(UserId(9), &d3), DfsVerdict::Allowed);
        // Once job 1 starts, its slate is wiped.
        eng.job_left_queue(JobId(1));
        assert_eq!(eng.evaluate(UserId(9), &d2), DfsVerdict::Allowed);
    }

    #[test]
    fn group_target_enforced() {
        let mut cfg = DfsConfig {
            policy: DfsPolicy::TargetDelay,
            interval: SimDuration::from_hours(6),
            ..DfsConfig::default()
        };
        cfg.groups
            .insert(GroupId(5), CredLimits::target(SimDuration::from_hours(4)));
        let mut eng = DfsEngine::new(cfg, SimTime::ZERO);
        // Two users of group 5 accumulate toward the same group cap.
        let d1 = [charge(1, 0, 5, 3 * 3600)];
        assert_eq!(eng.evaluate(UserId(9), &d1), DfsVerdict::Allowed);
        eng.commit(UserId(9), &d1);
        let d2 = [charge(2, 1, 5, 2 * 3600)];
        assert!(matches!(
            eng.evaluate(UserId(9), &d2),
            DfsVerdict::Rejected(DfsReject::GroupTargetExceeded {
                group: GroupId(5),
                ..
            })
        ));
    }

    #[test]
    fn decay_at_interval_boundary() {
        // Paper's example: current 3600 s, decay 0.2 ⇒ next interval starts
        // at 720 s.
        let mut cfg = target_cfg(4800);
        cfg.decay = 0.2;
        let mut eng = DfsEngine::new(cfg, SimTime::ZERO);
        let d = [charge(1, 0, 0, 3600)];
        eng.commit(UserId(9), &d);
        eng.advance_to(SimTime::ZERO + SimDuration::from_hours(1));
        assert_eq!(eng.user_charged(UserId(0)), SimDuration::from_secs(720));
        // The user can absorb 4080 more seconds this interval.
        let ok = [charge(2, 0, 0, 4080)];
        assert_eq!(eng.evaluate(UserId(9), &ok), DfsVerdict::Allowed);
        let too_much = [charge(2, 0, 0, 4081)];
        assert!(matches!(
            eng.evaluate(UserId(9), &too_much),
            DfsVerdict::Rejected(_)
        ));
    }

    #[test]
    fn multiple_intervals_decay_geometrically() {
        let mut cfg = target_cfg(10_000);
        cfg.decay = 0.5;
        let mut eng = DfsEngine::new(cfg, SimTime::ZERO);
        eng.commit(UserId(9), &[charge(1, 0, 0, 8000)]);
        eng.advance_to(SimTime::ZERO + SimDuration::from_hours(3));
        assert_eq!(eng.user_charged(UserId(0)), SimDuration::from_secs(1000));
    }

    #[test]
    fn zero_decay_forgets_everything() {
        let mut eng = DfsEngine::new(target_cfg(500), SimTime::ZERO);
        eng.commit(UserId(9), &[charge(1, 0, 0, 500)]);
        eng.advance_to(SimTime::ZERO + SimDuration::from_hours(1));
        assert_eq!(eng.user_charged(UserId(0)), SimDuration::ZERO);
        assert_eq!(
            eng.evaluate(UserId(9), &[charge(2, 0, 0, 500)]),
            DfsVerdict::Allowed
        );
    }

    /// The naive one-sweep-per-boundary loop `advance_to` replaced —
    /// retained as the executable specification.
    fn naive_advance(eng: &mut DfsEngine, now: SimTime) {
        if eng.config.interval.is_zero() {
            return;
        }
        while now >= eng.interval_start + eng.config.interval {
            let decay = eng.config.decay;
            for v in eng.user_delay.values_mut() {
                *v = v.mul_f64(decay);
            }
            for v in eng.group_delay.values_mut() {
                *v = v.mul_f64(decay);
            }
            eng.user_delay.retain(|_, v| !v.is_zero());
            eng.group_delay.retain(|_, v| !v.is_zero());
            eng.interval_start += eng.config.interval;
        }
    }

    fn assert_engines_equal(a: &DfsEngine, b: &DfsEngine, ctx: &str) {
        assert_eq!(a.interval_start, b.interval_start, "{ctx}: interval_start");
        assert_eq!(a.user_delay, b.user_delay, "{ctx}: user_delay");
        assert_eq!(a.group_delay, b.group_delay, "{ctx}: group_delay");
        assert_eq!(a.job_delay, b.job_delay, "{ctx}: job_delay");
    }

    #[test]
    fn advance_jump_matches_naive_loop() {
        // Property test: random commit/advance interleavings — gaps up to
        // a month against a 1 h interval, decays including the 0.0 / 1.0
        // fast paths and rounding-fixed-point cases — leave the
        // fast-path engine in exactly the naive engine's state.
        let mut rng = 0x2014_0907_u64;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        for decay in [0.0, 0.2, 0.5, 0.9, 1.0] {
            let mut cfg = target_cfg(1_000_000);
            cfg.decay = decay;
            let mut fast = DfsEngine::new(cfg.clone(), SimTime::ZERO);
            let mut slow = DfsEngine::new(cfg, SimTime::ZERO);
            let mut now = SimTime::ZERO;
            for step in 0..150 {
                let gap_ms = match next() % 4 {
                    0 => next() % 3_600_000,
                    1 => 3_600_000 + next() % 3_600_000,
                    2 => next() % (24 * 3_600_000),
                    _ => next() % (31 * 24 * 3_600_000),
                };
                now += SimDuration::from_millis(gap_ms);
                fast.advance_to(now);
                naive_advance(&mut slow, now);
                // Charge a small delay (sometimes 1 ms, to exercise the
                // mul_f64 rounding fixed point) to a random user/group.
                let d = [charge_ms(
                    next() % 8,
                    (next() % 4) as u32,
                    (next() % 2) as u32,
                    {
                        if next() % 3 == 0 {
                            1
                        } else {
                            next() % 10_000
                        }
                    },
                )];
                fast.commit(UserId(99), &d);
                slow.commit(UserId(99), &d);
                assert_engines_equal(&fast, &slow, &format!("decay={decay} step={step}"));
            }
        }
    }

    fn charge_ms(job: u64, user: u32, group: u32, ms: u64) -> DelayCharge {
        DelayCharge {
            job: JobId(job),
            user: UserId(user),
            group: GroupId(group),
            delay: SimDuration::from_millis(ms),
        }
    }

    #[test]
    fn scaled_budget_tightens_target() {
        let eng = DfsEngine::new(target_cfg(500), SimTime::ZERO);
        let d = [charge(1, 0, 0, 400)];
        // Full budget: 400 s under the 500 s cap.
        assert_eq!(eng.evaluate_scaled(UserId(9), &d, 1.0), DfsVerdict::Allowed);
        // Heavy-user penalty halves the cap: 400 s bursts 250 s.
        assert!(matches!(
            eng.evaluate_scaled(UserId(9), &d, 0.5),
            DfsVerdict::Rejected(DfsReject::UserTargetExceeded {
                limit,
                ..
            }) if limit == SimDuration::from_secs(250)
        ));
        // Scales above 1 never loosen the configured cap.
        let big = [charge(1, 0, 0, 501)];
        assert!(matches!(
            eng.evaluate_scaled(UserId(9), &big, 4.0),
            DfsVerdict::Rejected(DfsReject::UserTargetExceeded { .. })
        ));
        // evaluate() is exactly scale = 1.
        assert_eq!(
            eng.evaluate(UserId(9), &d),
            eng.evaluate_scaled(UserId(9), &d, 1.0)
        );
    }

    #[test]
    fn combined_policy_checks_both() {
        let mut cfg = DfsConfig {
            policy: DfsPolicy::SingleAndTargetDelay,
            interval: SimDuration::from_hours(1),
            ..DfsConfig::default()
        };
        cfg.default_limits = CredLimits {
            dyn_delay_perm: true,
            target_delay_time: Some(SimDuration::from_secs(1000)),
            single_delay_time: Some(SimDuration::from_secs(300)),
        };
        let mut eng = DfsEngine::new(cfg, SimTime::ZERO);
        // Single limit trips first.
        assert!(matches!(
            eng.evaluate(UserId(9), &[charge(1, 0, 0, 400)]),
            DfsVerdict::Rejected(DfsReject::SingleExceeded { .. })
        ));
        // Spread across jobs: the user target trips.
        let spread = [
            charge(1, 0, 0, 300),
            charge(2, 0, 0, 300),
            charge(3, 0, 0, 300),
        ];
        assert_eq!(eng.evaluate(UserId(9), &spread), DfsVerdict::Allowed);
        eng.commit(UserId(9), &spread);
        assert!(matches!(
            eng.evaluate(UserId(9), &[charge(4, 0, 0, 200)]),
            DfsVerdict::Rejected(DfsReject::UserTargetExceeded { .. })
        ));
    }
}
