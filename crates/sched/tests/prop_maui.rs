//! Property tests of the full Maui iteration: for arbitrary (consistent)
//! snapshots and site policies, the outcome never violates capacity,
//! ranges, or determinism — and over random multi-cycle runs fed by a
//! delta log (with plain snapshots interleaved and resource-manager
//! restarts) it equals the visit-every-job reference iteration decision
//! for decision, and leaves the same fairness statistics.

use dynbatch_core::testkit::{check, TestRng};
use dynbatch_core::{
    BackfillPolicy, DfsConfig, FairshareMode, GroupId, JobId, MalleableRange, QueueId,
    SchedulerConfig, SimDuration, SimTime, UserId,
};
use dynbatch_sched::reference::iterate_naive;
use dynbatch_sched::{
    DeltaLog, DynDecision, DynRequest, IterationOutcome, Maui, ProfileDelta, QueuedJob, QueuedSet,
    RunningJob, Snapshot, UsageHistory,
};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};

const CAPACITY: u32 = 64;

fn random_snapshot(rng: &mut TestRng) -> (Snapshot, SchedulerConfig) {
    let now = SimTime::from_secs(1000);
    let mut snap = Snapshot {
        now,
        total_cores: CAPACITY,
        running: Default::default(),
        queued: Default::default(),
        dyn_requests: Vec::new(),
        usage: None,
        deltas: None,
    };
    let mut used = 0u32;
    let mut seq = 0u64;
    let n_running = rng.range_usize(0, 10);
    for i in 0..n_running {
        let cores = rng.range_u32(1, 12);
        if used + cores > CAPACITY {
            break;
        }
        used += cores;
        let id = JobId(i as u64);
        let end_s = rng.range(10, 5000);
        let malleable = rng.chance(0.5);
        snap.running.push(RunningJob {
            id,
            user: UserId((i % 5) as u32),
            group: GroupId((i % 2) as u32),
            cores,
            start_time: SimTime::from_secs(500),
            walltime_end: now + SimDuration::from_secs(end_s),
            backfilled: rng.chance(0.5),
            reserved_extra: 0,
            malleable: malleable.then_some(MalleableRange {
                min_cores: 1,
                max_cores: cores + 8,
            }),
        });
        if rng.chance(0.5) {
            snap.dyn_requests.push(DynRequest {
                job: id,
                user: UserId((i % 5) as u32),
                group: GroupId((i % 2) as u32),
                extra_cores: rng.range_u32(1, 8),
                remaining_walltime: SimDuration::from_secs(end_s),
                seq,
                deadline: None,
            });
            seq += 1;
        }
    }
    let n_queued = rng.range_usize(0, 20);
    for i in 0..n_queued {
        snap.queued.push(QueuedJob {
            id: JobId(1000 + i as u64),
            user: UserId((i % 5) as u32),
            group: GroupId((i % 2) as u32),
            queue: QueueId(0),
            cores: rng.range_u32(1, 40).min(CAPACITY),
            walltime: SimDuration::from_secs(rng.range(10, 3000)),
            submit_time: SimTime::from_secs(1000 - rng.below(1000)),
            priority_boost: 0,
            suppress_backfill_while_queued: false,
            reserve_extra: 0,
            moldable: None,
        });
    }
    let mut cfg = SchedulerConfig::paper_eval();
    cfg.reservation_depth = rng.range_usize(0, 8);
    cfg.reservation_delay_depth = rng.range_usize(0, 8);
    cfg.dfs = if rng.chance(0.5) {
        DfsConfig::highest_priority()
    } else {
        DfsConfig::uniform_target(rng.range(10, 5000), SimDuration::from_hours(1))
    };
    cfg.preempt_backfilled_for_dyn = rng.chance(0.5);
    cfg.shrink_malleable_for_dyn = rng.chance(0.5);
    cfg.grow_malleable_on_idle = rng.chance(0.5);
    (snap, cfg)
}

#[test]
fn iteration_outcomes_are_always_consistent() {
    check(192, 0x1417E, |rng| {
        let (snap, cfg) = random_snapshot(rng);
        let mut maui = Maui::new(cfg.clone());
        let out = maui.iterate(&snap);

        // Account capacity at `now` after applying every decision.
        let mut used: i64 = snap.running.iter().map(|r| r.cores as i64).sum();
        let mut granted_jobs = std::collections::HashSet::new();
        let mut granted_extra: std::collections::HashMap<JobId, i64> =
            std::collections::HashMap::new();
        for d in &out.dyn_decisions {
            match d {
                DynDecision::Granted {
                    job,
                    extra_cores,
                    preempted,
                    shrunk,
                    ..
                } => {
                    assert!(granted_jobs.insert(*job), "one grant per job");
                    granted_extra.insert(*job, *extra_cores as i64);
                    for p in preempted {
                        let victim = snap
                            .running
                            .iter()
                            .find(|r| r.id == *p)
                            .expect("preempted job is running");
                        assert!(victim.backfilled, "only backfilled jobs preempted");
                        // The victim releases everything it holds — its
                        // snapshot cores plus any expansion granted to it
                        // earlier this iteration.
                        used -= victim.cores as i64 + granted_extra.remove(p).unwrap_or(0);
                    }
                    for r in shrunk {
                        let m = snap
                            .running
                            .iter()
                            .find(|x| x.id == r.job)
                            .expect("shrunk job is running")
                            .malleable
                            .expect("shrunk job is malleable");
                        assert!(r.to_cores >= m.min_cores, "never below min");
                        assert!(r.to_cores < r.from_cores, "shrink shrinks");
                        used -= (r.from_cores - r.to_cores) as i64;
                    }
                    used += *extra_cores as i64;
                }
                DynDecision::Rejected { .. } | DynDecision::Deferred { .. } => {}
            }
        }
        for s in &out.starts {
            let job = snap
                .queued
                .iter()
                .find(|q| q.id == s.job)
                .expect("started job queued");
            used += s.cores.unwrap_or(job.cores) as i64;
        }
        for g in &out.grows {
            let m = snap
                .running
                .iter()
                .find(|x| x.id == g.job)
                .expect("grown job is running")
                .malleable
                .expect("grown job is malleable");
            assert!(g.to_cores <= m.max_cores, "never above max");
            assert!(g.to_cores > g.from_cores, "grow grows");
            used += (g.to_cores - g.from_cores) as i64;
        }
        assert!(used <= CAPACITY as i64, "capacity respected: {used}");

        // No duplicate starts; every started job was queued.
        let mut seen = std::collections::HashSet::new();
        for s in &out.starts {
            assert!(seen.insert(s.job), "{:?} started twice", s.job);
        }

        // Reservations begin strictly in the future.
        for r in &out.reservations {
            assert!(r.start > snap.now);
            assert!(r.end > r.start);
        }

        // Determinism: a fresh scheduler under the same config agrees.
        let out2 = Maui::new(cfg.clone()).iterate(&snap);
        assert_eq!(out.starts, out2.starts);
        assert_eq!(out.dyn_decisions, out2.dyn_decisions);
        assert_eq!(out.grows, out2.grows);

        // And the reference, which caches no plan, agrees too: the cache
        // is a pure work-saving device.
        assert_eq!(out, iterate_naive(&mut Maui::new(cfg), &snap));
    });
}

#[test]
fn dfs_cap_bounds_committed_delay() {
    check(192, 0xCA9, |rng| {
        let (snap, mut cfg) = random_snapshot(rng);
        let cap = rng.range(10, 500);
        cfg.dfs = DfsConfig::uniform_target(cap, SimDuration::from_hours(1));
        let mut maui = Maui::new(cfg);
        let out = maui.iterate(&snap);
        // Sum committed delay per (non-self) user: never above the cap.
        let mut per_user = std::collections::HashMap::new();
        for d in &out.dyn_decisions {
            if let DynDecision::Granted { delays, job, .. } = d {
                let owner = snap.running.iter().find(|r| r.id == *job).map(|r| r.user);
                for c in delays {
                    if Some(c.user) != owner {
                        *per_user.entry(c.user).or_insert(0u64) += c.delay.as_millis();
                    }
                }
            }
        }
        for (user, ms) in per_user {
            assert!(
                ms <= cap * 1000,
                "{user}: committed {ms} ms exceeds cap {cap} s"
            );
        }
    });
}

/// A miniature resource manager for the equivalence suite: it applies
/// each outcome the way the server does (preempt → shrink → grant → grow
/// → start), lets time pass, retires and admits jobs, and keeps the
/// queue in one long-lived [`QueuedSet`] so slots empty, get swept and
/// get refilled or inserted mid-vector by requeues under the scheduler's
/// remembered order; now and then it rebuilds the set from its jobs. What
/// it does between two snapshots it records in a delta log, under the
/// server's rules: nothing before the first drain, and a first log that
/// carries the usage totals.
struct World {
    now: SimTime,
    running: Vec<RunningJob>,
    queued: QueuedSet,
    /// Every job ever queued, for requeueing a preempted one.
    specs: HashMap<JobId, QueuedJob>,
    usage: UsageHistory,
    /// Core-milliseconds charged per user, all time.
    charged: BTreeMap<UserId, u64>,
    log: Vec<ProfileDelta>,
    epoch: u64,
    next_id: u64,
    next_seq: u64,
}

impl World {
    fn new() -> Self {
        World {
            now: SimTime::from_secs(10_000),
            running: Vec::new(),
            queued: QueuedSet::default(),
            specs: HashMap::new(),
            usage: UsageHistory::new(SimDuration::from_hours(1), CAPACITY as u64),
            charged: BTreeMap::new(),
            log: Vec::new(),
            epoch: 0,
            next_id: 1,
            next_seq: 0,
        }
    }

    fn admit(&mut self, rng: &mut TestRng) {
        let cores = rng.range_u32(1, 40);
        let z = rng.chance(0.02);
        let job = QueuedJob {
            id: JobId(self.next_id),
            user: UserId(rng.range_u32(0, 5)),
            group: GroupId(rng.range_u32(0, 2)),
            queue: QueueId(rng.range_u32(0, 2)),
            cores,
            walltime: if rng.chance(0.05) {
                SimDuration::ZERO
            } else {
                SimDuration::from_secs(rng.range(10, 3000))
            },
            submit_time: SimTime::from_millis(self.now.as_millis() - rng.below(2_000_000)),
            priority_boost: if z { 1_000_000 } else { 0 },
            suppress_backfill_while_queued: z,
            reserve_extra: if rng.chance(0.15) {
                rng.range_u32(1, 5)
            } else {
                0
            },
            moldable: rng.chance(0.15).then(|| MalleableRange {
                min_cores: rng.range_u32(1, cores + 1),
                max_cores: rng.range_u32(cores, cores + 9),
            }),
        };
        self.next_id += 1;
        self.specs.insert(job.id, job.clone());
        self.queued.push(job);
    }

    fn note(&mut self, delta: ProfileDelta) {
        if self.epoch > 0 {
            self.log.push(delta);
        }
    }

    /// The log a snapshot carries: mostly the drained one; now and then
    /// none at all (a plain snapshot: nothing is drained), or the first of
    /// a restarted resource manager (`base_epoch == 0`).
    fn drain(&mut self, rng: &mut TestRng) -> Option<DeltaLog> {
        if rng.chance(0.05) {
            return None;
        }
        if rng.chance(0.05) {
            self.epoch = 0;
        }
        let base_epoch = self.epoch;
        self.epoch += 1;
        let deltas = if base_epoch == 0 {
            self.log.clear();
            let totals = self.charged.iter();
            totals
                .map(|(&user, &core_ms)| ProfileDelta::Charged {
                    user,
                    core_ms,
                    at: self.now,
                })
                .collect()
        } else {
            std::mem::take(&mut self.log)
        };
        Some(DeltaLog {
            base_epoch,
            epoch: self.epoch,
            deltas,
        })
    }

    fn snapshot(&mut self, rng: &mut TestRng, time_aware: bool) -> Snapshot {
        let mut dyn_requests = Vec::new();
        for r in &self.running {
            // An overdue job's expansion would be held for no time at all.
            if r.walltime_end > self.now && rng.chance(0.3) {
                dyn_requests.push(DynRequest {
                    job: r.id,
                    user: r.user,
                    group: r.group,
                    extra_cores: rng.range_u32(1, 9),
                    remaining_walltime: r.walltime_end.duration_since(self.now),
                    seq: self.next_seq,
                    deadline: rng.chance(0.3).then(|| {
                        SimTime::from_millis(self.now.as_millis() - 50_000 + rng.below(100_000))
                    }),
                });
                self.next_seq += 1;
            }
        }
        // The scheduler orders requests by `seq`, whatever order they
        // arrive in.
        dyn_requests.reverse();
        Snapshot {
            now: self.now,
            total_cores: CAPACITY,
            running: self.running.clone().into(),
            queued: self.queued.clone(),
            dyn_requests,
            usage: time_aware.then(|| self.usage.snapshot(self.now)),
            deltas: self.drain(rng),
        }
    }

    fn apply(&mut self, out: &IterationOutcome, rng: &mut TestRng) {
        let now = self.now;
        let at = |running: &[RunningJob], id: JobId| {
            running
                .iter()
                .position(|r| r.id == id)
                .expect("decision names a running job")
        };
        for d in &out.dyn_decisions {
            if let DynDecision::Granted {
                job,
                extra_cores,
                preempted,
                shrunk,
                ..
            } = d
            {
                for victim in preempted {
                    let i = at(&self.running, *victim);
                    self.running.swap_remove(i);
                    self.queued.push(self.specs[victim].clone());
                    self.note(ProfileDelta::Finished { job: *victim });
                }
                for r in shrunk {
                    let i = at(&self.running, r.job);
                    assert_eq!(self.running[i].cores, r.from_cores);
                    self.running[i].cores = r.to_cores;
                    self.resized(i);
                }
                let i = at(&self.running, *job);
                self.running[i].cores += extra_cores;
                self.running[i].reserved_extra =
                    self.running[i].reserved_extra.saturating_sub(*extra_cores);
                self.resized(i);
            }
        }
        for g in &out.grows {
            let i = at(&self.running, g.job);
            assert_eq!(self.running[i].cores, g.from_cores);
            self.running[i].cores = g.to_cores;
            self.resized(i);
        }
        for s in &out.starts {
            let q = self.queued.remove(s.job).expect("started job was queued");
            if q.walltime.is_zero() {
                // Holds nothing in any plan: over before it began.
                continue;
            }
            let cores = s.cores.unwrap_or(q.cores);
            // Both fairness mechanisms are charged a job's whole walltime
            // as it starts.
            let core_ms = cores as u64 * q.walltime.as_millis();
            self.usage.charge(q.user, q.queue, core_ms, now);
            *self.charged.entry(q.user).or_insert(0) += core_ms;
            self.note(ProfileDelta::Charged {
                user: q.user,
                core_ms,
                at: now,
            });
            self.note(ProfileDelta::Started {
                job: q.id,
                held_cores: cores + q.reserve_extra,
                walltime_end: now + q.walltime,
            });
            self.running.push(RunningJob {
                id: q.id,
                user: q.user,
                group: q.group,
                cores,
                start_time: now,
                walltime_end: now + q.walltime,
                backfilled: s.backfilled,
                reserved_extra: q.reserve_extra,
                // Only evolving jobs pre-reserve, and those never resize.
                malleable: (q.reserve_extra == 0 && rng.chance(0.3)).then(|| MalleableRange {
                    min_cores: rng.range_u32(1, cores + 1),
                    max_cores: rng.range_u32(cores, cores + 9),
                }),
            });
        }
        let held: u32 = self
            .running
            .iter()
            .map(|r| r.cores + r.reserved_extra)
            .sum();
        assert!(held <= CAPACITY, "outcome over-committed the machine");
    }

    /// Log: the running job at `i` changed width.
    fn resized(&mut self, i: usize) {
        let r = &self.running[i];
        self.note(ProfileDelta::Resized {
            job: r.id,
            held_cores: r.cores + r.reserved_extra,
        });
    }

    /// Time passes: due jobs mostly finish (a few linger overdue), some
    /// finish early, some queued jobs are deleted, new ones arrive.
    fn advance(&mut self, rng: &mut TestRng) {
        self.now += SimDuration::from_secs(rng.below(200));
        let now = self.now;
        let mut gone = Vec::new();
        self.running.retain(|r| {
            let due = r.walltime_end <= now;
            let stays = !(due && rng.chance(0.8) || !due && rng.chance(0.1));
            if !stays {
                gone.push(ProfileDelta::Finished { job: r.id });
            }
            stays
        });
        let ids: Vec<JobId> = self.queued.iter().map(|q| q.id).collect();
        for id in ids {
            if rng.chance(0.03) {
                self.queued.remove(id);
                gone.push(ProfileDelta::LeftQueue { job: id });
            }
        }
        for delta in gone {
            self.note(delta);
        }
        let arrivals = if rng.chance(0.05) {
            80
        } else {
            rng.range_usize(0, 6)
        };
        for _ in 0..arrivals {
            self.admit(rng);
        }
        if rng.chance(0.03) {
            // The same jobs in a set of their own, as an image load
            // rebuilds the view: other slots, no change log.
            self.queued = self.queued.iter().cloned().collect();
        }
    }
}

fn random_config(rng: &mut TestRng) -> SchedulerConfig {
    let mut cfg = SchedulerConfig::paper_eval();
    cfg.reservation_depth = *rng.pick(&[0, 1, 5]);
    cfg.reservation_delay_depth = *rng.pick(&[0, 1, 5, 8]);
    cfg.backfill = *rng.pick(&[
        BackfillPolicy::None,
        BackfillPolicy::Easy,
        BackfillPolicy::Easy,
        BackfillPolicy::Conservative,
    ]);
    cfg.dfs = if rng.chance(0.5) {
        DfsConfig::highest_priority()
    } else {
        DfsConfig::uniform_target(rng.range(10, 5000), SimDuration::from_hours(1))
    };
    cfg.preempt_backfilled_for_dyn = rng.chance(0.5);
    cfg.shrink_malleable_for_dyn = rng.chance(0.5);
    cfg.grow_malleable_on_idle = rng.chance(0.5);
    cfg.dyn_partition_cores = *rng.pick(&[0, 0, 0, 4, 8]);
    cfg.priority.queue_time_weight = *rng.pick(&[1.0, 1.0, 0.0]);
    cfg.priority.expansion_weight = *rng.pick(&[0.0, 0.0, 25.0]);
    cfg.priority.resource_weight = *rng.pick(&[0.0, 0.0, 1.0, -1.0]);
    if rng.chance(0.5) {
        cfg.fairshare.enabled = true;
        cfg.priority.fairshare_weight = 500.0;
        if rng.chance(0.5) {
            cfg.fairshare.mode = FairshareMode::TimeAware;
            cfg.fairshare.half_life = SimDuration::from_hours(1);
            cfg.fairshare.user_budget_core_hours = Some(20.0);
            cfg.fairshare.budget_demotion = 300.0;
        }
    }
    cfg
}

#[test]
fn iterate_equals_the_naive_reference_over_random_cycles() {
    // Coverage witnesses: the equivalence below only pins the loop's
    // grant-to-grant hand-off (the base/expanded buffer swap, the
    // `resized` / `preempted` threading) if the seeded run reaches it.
    let multi_grant_cycles = Cell::new(0u32);
    let grants_after_a_shrink_or_preemption = Cell::new(0u32);
    // ... and the log's fast path and gap rule only if both are taken.
    let delta_fed_cycles = Cell::new(0u64);
    let restarts_with_usage = Cell::new(0u32);
    check(96, 0x5EED_CAFE, |rng| {
        let cfg = random_config(rng);
        let time_aware = cfg.fairshare.mode == FairshareMode::TimeAware;
        let mut fast = Maui::new(cfg.clone());
        let mut naive = Maui::new(cfg);
        let mut world = World::new();
        // A copy of the world's queue held across cycles: the world's
        // next mutation forks its storage.
        let mut fork: Option<QueuedSet> = None;
        // Some runs open on a deep queue, the rest grow one.
        for _ in 0..if rng.chance(0.3) { 150 } else { 5 } {
            world.admit(rng);
        }
        for cycle in 0..40 {
            let snap = world.snapshot(rng, time_aware);
            if let Some(log) = snap.deltas.as_ref().filter(|log| log.base_epoch == 0) {
                restarts_with_usage.set(restarts_with_usage.get() + !log.deltas.is_empty() as u32);
            }
            let a = fast.iterate(&snap);
            let b = iterate_naive(&mut naive, &snap);
            assert_eq!(a.starts, b.starts, "cycle {cycle}: starts");
            assert_eq!(
                a.reservations, b.reservations,
                "cycle {cycle}: reservations"
            );
            assert_eq!(
                a.dyn_decisions, b.dyn_decisions,
                "cycle {cycle}: dyn decisions"
            );
            assert_eq!(
                a.baseline_plan, b.baseline_plan,
                "cycle {cycle}: baseline plan"
            );
            assert_eq!(a.grows, b.grows, "cycle {cycle}: grows");
            assert!(
                fast.dfs() == naive.dfs() && fast.fairshare() == naive.fairshare(),
                "cycle {cycle}: fairness statistics"
            );
            // No slate outlives its job's stay in the queue.
            for job in fast.dfs().delayed_jobs() {
                assert!(snap.queued.get(job).is_some(), "{job} keeps a delay slate");
            }
            drop(snap);
            let mut grants = 0;
            let mut disturbed = false;
            for d in &a.dyn_decisions {
                if let DynDecision::Granted {
                    preempted, shrunk, ..
                } = d
                {
                    grants += 1;
                    if disturbed {
                        grants_after_a_shrink_or_preemption
                            .set(grants_after_a_shrink_or_preemption.get() + 1);
                    }
                    disturbed |= !preempted.is_empty() || !shrunk.is_empty();
                }
            }
            if grants >= 2 {
                multi_grant_cycles.set(multi_grant_cycles.get() + 1);
            }
            world.apply(&a, rng);
            world.advance(rng);
            match fork.take() {
                None if rng.chance(0.1) => fork = Some(world.queued.clone()),
                Some(mut stale) if rng.chance(0.3) => {
                    // The copy goes its own way (a job leaves it) and is
                    // fed to both schedulers cycles late, out of order
                    // and without a log; its outcome is not applied.
                    let gone = stale.iter().map(|q| q.id).nth(rng.range_usize(0, 3));
                    if let Some(id) = gone {
                        stale.remove(id);
                    }
                    let snap = Snapshot {
                        now: world.now,
                        total_cores: CAPACITY,
                        running: world.running.clone().into(),
                        queued: stale,
                        dyn_requests: Vec::new(),
                        usage: time_aware.then(|| world.usage.snapshot(world.now)),
                        deltas: None,
                    };
                    let a = fast.iterate(&snap);
                    assert_eq!(a, iterate_naive(&mut naive, &snap), "cycle {cycle}: a fork");
                }
                held => fork = held,
            }
        }
        delta_fed_cycles.set(delta_fed_cycles.get() + fast.timeline_stats().delta_batches);
    });
    assert!(
        delta_fed_cycles.get() > 1000,
        "the delta log carried only {} of 3840 cycles",
        delta_fed_cycles.get()
    );
    assert!(
        restarts_with_usage.get() > 0,
        "no resource-manager restart re-seeded the usage totals"
    );
    assert!(
        multi_grant_cycles.get() > 0,
        "no cycle committed two grants: the grant-to-grant hand-off went untested"
    );
    assert!(
        grants_after_a_shrink_or_preemption.get() > 0,
        "no grant followed a same-cycle shrink or preemption"
    );
}
