//! Brute-force oracle for `mold_fit`, the start-width chooser.
//!
//! The production code computes the moldable width arithmetically
//! (`max_cores.min(idle.saturating_sub(reserve_extra))`); the oracle
//! instead *tries every candidate width* in the moldable range against
//! the naive reference profile. Equality over random profiles and jobs
//! pins the `reserve_extra` subtraction (a width fits only if the job's
//! guaranteeing pre-reserve fits on top of it) and the saturation when
//! the reserve alone exceeds the idle cores.

use dynbatch_core::testkit::{check, TestRng};
use dynbatch_core::{GroupId, JobId, MalleableRange, QueueId, SimDuration, SimTime, UserId};
use dynbatch_sched::reference::NaiveProfile;
use dynbatch_sched::{mold_fit, AvailabilityProfile, QueuedJob};

/// Random feasible holds applied to both representations.
fn build(rng: &mut TestRng, capacity: u32) -> (AvailabilityProfile, NaiveProfile) {
    let mut fast = AvailabilityProfile::new(SimTime::ZERO, capacity);
    let mut naive = NaiveProfile::new(SimTime::ZERO, capacity);
    for _ in 0..rng.range_usize(0, 30) {
        let from = SimTime::from_secs(rng.below(2000));
        let to = from + SimDuration::from_secs(rng.range(1, 2000));
        let avail = fast.min_idle(from, to);
        if avail > 0 {
            let cores = rng.range_u32(1, avail + 1);
            fast.hold(from, to, cores);
            naive.hold(from, to, cores);
        }
    }
    (fast, naive)
}

/// The spec: the largest width in the moldable range (or the fixed
/// request) whose `width + reserve_extra` fits `[now, now + walltime)`,
/// found by trying every candidate against the naive profile.
fn oracle(naive: &NaiveProfile, job: &QueuedJob, now: SimTime) -> Option<u32> {
    let idle = naive.min_idle(now, now.saturating_add(job.walltime));
    let fits = |w: u32| idle >= w + job.reserve_extra;
    match job.moldable {
        None => fits(job.cores).then_some(job.cores),
        Some(r) => (r.min_cores..=r.max_cores).rev().find(|&w| fits(w)),
    }
}

#[test]
fn mold_fit_matches_brute_force_oracle() {
    check(512, 0x401D, |rng| {
        const CAPACITY: u32 = 48;
        let (fast, naive) = build(rng, CAPACITY);
        let now = SimTime::from_secs(rng.below(3000));
        // 70 % moldable (ranges may exceed capacity), 30 % rigid; half
        // the jobs carry a guaranteeing pre-reserve.
        let moldable = rng.chance(0.7).then(|| {
            let min_cores = rng.range_u32(1, CAPACITY + 1);
            MalleableRange {
                min_cores,
                max_cores: rng.range_u32(min_cores, CAPACITY + 4),
            }
        });
        let job = QueuedJob {
            id: JobId(1),
            user: UserId(0),
            group: GroupId(0),
            queue: QueueId(0),
            cores: rng.range_u32(1, CAPACITY + 4),
            walltime: SimDuration::from_secs(rng.range(1, 3000)),
            submit_time: SimTime::ZERO,
            priority_boost: 0,
            suppress_backfill_while_queued: false,
            reserve_extra: if rng.chance(0.5) {
                rng.range_u32(0, 9)
            } else {
                0
            },
            moldable,
        };
        assert_eq!(
            mold_fit(&fast, &job, now),
            oracle(&naive, &job, now),
            "molding diverged (cores {}, moldable {:?}, reserve {})",
            job.cores,
            job.moldable,
            job.reserve_extra
        );
    });
}

/// The backfill pass probes a candidate only if `now + walltime` is within
/// the horizon of its narrowest start (`AvailabilityProfile::idle_horizon`).
/// That filter must be exact: on random profiles, for every width up to
/// the cores idle now and walltimes from 0 to past the last breakpoint, it
/// rejects exactly the rigid and moldable jobs `mold_fit` finds no width
/// for.
#[test]
fn the_idle_horizon_rejects_exactly_what_mold_fit_cannot_place() {
    check(256, 0x0B12, |rng| {
        const CAPACITY: u32 = 48;
        let (fast, _) = build(rng, CAPACITY);
        let now = SimTime::from_secs(rng.below(3000));
        let mut horizon = vec![SimTime::ZERO; 3];
        fast.idle_horizon(now, &mut horizon);
        let idle = fast.idle_at(now);
        assert_eq!(horizon.len(), idle as usize + 1);
        let last = fast.steps().last().expect("a profile has a step").0;
        let past_last = last.duration_since(now) + SimDuration::from_secs(1);
        for need in 1..=idle + 2 {
            let reserve_extra = rng.range_u32(0, need.min(4));
            let mut walltimes = vec![
                SimDuration::ZERO,
                SimDuration::from_millis(1),
                SimDuration::from_secs(rng.range(1, 4000)),
                past_last,
                SimDuration::MAX,
            ];
            // Ending exactly at the width's horizon, and just past it.
            if let Some(&until) = horizon.get(need as usize).filter(|&&t| t != SimTime::MAX) {
                let exact = until.duration_since(now);
                walltimes.extend([exact, exact + SimDuration::from_millis(1)]);
            }
            for walltime in walltimes {
                let min_cores = need - reserve_extra;
                let rigid = QueuedJob {
                    id: JobId(1),
                    user: UserId(0),
                    group: GroupId(0),
                    queue: QueueId(0),
                    cores: min_cores,
                    walltime,
                    submit_time: SimTime::ZERO,
                    priority_boost: 0,
                    suppress_backfill_while_queued: false,
                    reserve_extra,
                    moldable: None,
                };
                let moldable = QueuedJob {
                    cores: min_cores + rng.range_u32(0, 8),
                    moldable: Some(MalleableRange {
                        min_cores,
                        max_cores: min_cores + rng.range_u32(0, CAPACITY),
                    }),
                    ..rigid.clone()
                };
                for job in [rigid, moldable] {
                    assert_eq!(job.min_start_width(), need);
                    let within = horizon
                        .get(need as usize)
                        .is_some_and(|&until| now.saturating_add(walltime) <= until);
                    assert_eq!(
                        within,
                        mold_fit(&fast, &job, now).is_some(),
                        "width {need} for {walltime:?} at {now}: horizon {horizon:?}, \
                         steps {:?}",
                        fast.steps()
                    );
                }
            }
        }
    });
}
