//! Property tests of the availability timeline: the algebra the whole
//! scheduler stands on.

use dynbatch_core::testkit::{check, TestRng};
use dynbatch_core::{SimDuration, SimTime};
use dynbatch_sched::reference::NaiveProfile;
use dynbatch_sched::AvailabilityProfile;

/// A random, always-feasible sequence of holds.
fn holds(rng: &mut TestRng) -> Vec<(u64, u64, u32)> {
    let n = rng.range_usize(0, 40);
    (0..n)
        .map(|_| (rng.below(5000), rng.range(1, 5000), rng.range_u32(1, 16)))
        .collect()
}

fn build(capacity: u32, ops: &[(u64, u64, u32)]) -> AvailabilityProfile {
    let mut p = AvailabilityProfile::new(SimTime::ZERO, capacity);
    for &(from, len, cores) in ops {
        let from = SimTime::from_secs(from);
        let to = from + SimDuration::from_secs(len);
        if p.min_idle(from, to) >= cores {
            p.hold(from, to, cores);
        }
    }
    p
}

#[test]
fn idle_never_exceeds_capacity() {
    check(128, 0xA11CE, |rng| {
        let p = build(64, &holds(rng));
        for &(t, idle) in p.steps() {
            assert!(idle <= 64, "at {t}: {idle}");
        }
    });
}

#[test]
fn hold_release_round_trips() {
    check(128, 0xB0B, |rng| {
        let mut p = build(64, &holds(rng));
        let before = p.clone();
        let from = SimTime::from_secs(100);
        let to = SimTime::from_secs(900);
        let cores = p.min_idle(from, to);
        if cores > 0 {
            p.hold(from, to, cores);
            p.release(from, to, cores);
        }
        assert_eq!(p, before);
    });
}

#[test]
fn earliest_fit_is_sound_and_earliest() {
    check(128, 0xFEED, |rng| {
        let ops = holds(rng);
        let cores = rng.range_u32(1, 64);
        let dur = SimDuration::from_secs(rng.range(1, 2000));
        let nb = SimTime::from_secs(rng.below(3000));
        let p = build(64, &ops);
        let start = p.earliest_fit(cores, dur, nb).expect("within capacity");
        // Sound: the window really fits.
        assert!(start >= nb);
        assert!(p.min_idle(start, start + dur) >= cores);
        // Earliest: no breakpoint (or nb itself) strictly before `start`
        // also fits.
        let mut candidates: Vec<SimTime> = vec![nb];
        candidates.extend(p.steps().iter().map(|&(t, _)| t).filter(|&t| t > nb));
        for t in candidates {
            if t < start {
                assert!(
                    p.min_idle(t, t + dur) < cores,
                    "{t} would have fit before {start}"
                );
            }
        }
    });
}

#[test]
fn min_idle_equals_pointwise_minimum() {
    check(128, 0xC0FFEE, |rng| {
        let ops = holds(rng);
        let from = SimTime::from_secs(rng.below(4000));
        let to = from + SimDuration::from_secs(rng.range(1, 2000));
        let p = build(64, &ops);
        let reported = p.min_idle(from, to);
        // Sample pointwise (at from + every interior breakpoint).
        let mut minimum = p.idle_at(from);
        for &(t, _) in p.steps() {
            if t > from && t < to {
                minimum = minimum.min(p.idle_at(t));
            }
        }
        assert_eq!(reported, minimum);
    });
}

#[test]
fn fits_is_min_idle_with_an_early_exit() {
    check(256, 0xF175, |rng| {
        let p = build(64, &holds(rng));
        // Windows at the origin (the scheduler's "now"), mid-profile,
        // empty, and running past the last breakpoint to infinity.
        let from = SimTime::from_secs(if rng.chance(0.3) { 0 } else { rng.below(6000) });
        let to = match rng.below(4) {
            0 => from,
            1 => SimTime::MAX,
            _ => from + SimDuration::from_secs(rng.range(1, 4000)),
        };
        let min = p.min_idle(from, to);
        for cores in [0, 1, min.saturating_sub(1), min, min + 1, 64, 65] {
            assert_eq!(
                p.fits(from, to, cores),
                min >= cores,
                "{cores} in [{from}, {to})"
            );
            assert_eq!(
                p.min_idle_at_least(from, to, cores),
                (min >= cores).then_some(min)
            );
        }
    });
}

#[test]
fn holds_commute() {
    check(128, 0xD1CE, |rng| {
        // Applying a feasibility-filtered op list in order equals applying
        // the same accepted ops in one pass (determinism check through the
        // breakpoint/coalescing machinery).
        let ops = holds(rng);
        let p1 = build(64, &ops);
        let p2 = build(64, &ops);
        assert_eq!(p1, p2);
    });
}

/// A time either within 10 s of the origin or within 10 s of
/// `SimTime::MAX` — every interesting overflow boundary lives there.
fn edge_time(rng: &mut TestRng) -> SimTime {
    if rng.chance(0.5) {
        SimTime::from_millis(u64::MAX - rng.below(10_000))
    } else {
        SimTime::from_millis(rng.below(10_000))
    }
}

/// `hold` / `release` / `earliest_fit` at the far end of the time axis:
/// the timeline saturates window ends at `SimTime::MAX` (`hold_for` and
/// `earliest_fit`'s end computation) rather than overflowing, and the
/// naive reference must agree observationally on windows and durations
/// within a hair of `MAX` — including `to == SimTime::MAX` ("to
/// infinity") itself.
#[test]
fn operations_near_simtime_max_match_naive_reference() {
    check(256, 0x7EE7, |rng| {
        const CAPACITY: u32 = 32;
        let mut fast = AvailabilityProfile::new(SimTime::ZERO, CAPACITY);
        let mut naive = NaiveProfile::new(SimTime::ZERO, CAPACITY);
        let mut held: Vec<(SimTime, SimTime, u32)> = Vec::new();
        let ops = rng.range_usize(1, 50);
        for _ in 0..ops {
            match rng.below(4) {
                // hold an explicit (possibly infinite) window
                0 => {
                    let a = edge_time(rng);
                    let b = if rng.chance(0.25) {
                        SimTime::MAX
                    } else {
                        edge_time(rng)
                    };
                    let (from, to) = if a <= b { (a, b) } else { (b, a) };
                    let avail = fast.min_idle(from, to);
                    if avail > 0 && from < to {
                        let cores = rng.range_u32(1, avail + 1);
                        fast.hold(from, to, cores);
                        naive.hold(from, to, cores);
                        held.push((from, to, cores));
                    }
                }
                // hold_for with a duration that saturates past MAX
                1 => {
                    let from = edge_time(rng);
                    let dur = SimDuration::from_millis(u64::MAX - rng.below(20_000));
                    let to = from.saturating_add(dur);
                    let avail = fast.min_idle(from, to);
                    if avail > 0 && from < to {
                        let cores = rng.range_u32(1, avail + 1);
                        fast.hold_for(from, dur, cores);
                        naive.hold_for(from, dur, cores);
                        held.push((from, to, cores));
                    }
                }
                // release a previously held window (possibly split)
                2 => {
                    if let Some(i) =
                        (!held.is_empty()).then(|| rng.below(held.len() as u64) as usize)
                    {
                        let (from, to, cores) = held.swap_remove(i);
                        let part = rng.range_u32(1, cores + 1);
                        fast.release(from, to, part);
                        naive.release(from, to, part);
                        if part < cores {
                            held.push((from, to, cores - part));
                        }
                    }
                }
                // queries, with durations big enough to saturate
                _ => {
                    let t = edge_time(rng);
                    assert_eq!(fast.idle_at(t), naive.idle_at(t), "idle_at({t})");
                    let b = edge_time(rng);
                    let (from, to) = if t <= b { (t, b) } else { (b, t) };
                    assert_eq!(
                        fast.min_idle(from, to),
                        naive.min_idle(from, to),
                        "min_idle({from}, {to})"
                    );
                    let cores = rng.range_u32(0, CAPACITY + 4);
                    let dur = SimDuration::from_millis(u64::MAX - rng.below(20_000));
                    let nb = edge_time(rng);
                    assert_eq!(
                        fast.earliest_fit(cores, dur, nb),
                        naive.earliest_fit(cores, dur, nb),
                        "earliest_fit({cores}, {dur}, {nb})"
                    );
                }
            }
            assert_eq!(fast.steps(), naive.steps(), "step vectors diverged");
        }
    });
}

/// The windowed implementation is observationally equivalent to the naive
/// reference ([`NaiveProfile`], the original full-scan formulation) on
/// random interleavings of `hold` / `release` / queries. This is the
/// contract that lets the optimised timeline replace the naive one in the
/// scheduler hot path without changing a single decision.
#[test]
fn windowed_profile_matches_naive_reference() {
    check(256, 0x5EED5, |rng| {
        const CAPACITY: u32 = 64;
        let mut fast = AvailabilityProfile::new(SimTime::ZERO, CAPACITY);
        let mut naive = NaiveProfile::new(SimTime::ZERO, CAPACITY);
        // Released windows we can later re-hold (so `release` stays
        // feasible: it must never push idle above capacity).
        let mut held: Vec<(SimTime, SimTime, u32)> = Vec::new();
        let ops = rng.range_usize(1, 60);
        for _ in 0..ops {
            match rng.below(4) {
                // hold a feasible window
                0 => {
                    let from = SimTime::from_secs(rng.below(5000));
                    let to = if rng.chance(0.1) {
                        SimTime::MAX
                    } else {
                        from + SimDuration::from_secs(rng.range(1, 5000))
                    };
                    let avail = fast.min_idle(from, to);
                    if avail > 0 {
                        let cores = rng.range_u32(1, avail + 1);
                        fast.hold(from, to, cores);
                        naive.hold(from, to, cores);
                        held.push((from, to, cores));
                    }
                }
                // release a previously held window (possibly split)
                1 => {
                    if let Some(i) =
                        (!held.is_empty()).then(|| rng.below(held.len() as u64) as usize)
                    {
                        let (from, to, cores) = held.swap_remove(i);
                        let part = rng.range_u32(1, cores + 1);
                        fast.release(from, to, part);
                        naive.release(from, to, part);
                        if part < cores {
                            held.push((from, to, cores - part));
                        }
                    }
                }
                // point / window queries
                2 => {
                    let t = SimTime::from_secs(rng.below(6000));
                    assert_eq!(fast.idle_at(t), naive.idle_at(t), "idle_at({t})");
                    let to = t + SimDuration::from_secs(rng.below(4000));
                    assert_eq!(
                        fast.min_idle(t, to),
                        naive.min_idle(t, to),
                        "min_idle({t}, {to})"
                    );
                }
                // earliest_fit queries (including infeasible core counts)
                _ => {
                    let cores = rng.range_u32(0, CAPACITY + 4);
                    let dur = SimDuration::from_secs(rng.below(3000));
                    let nb = SimTime::from_secs(rng.below(6000));
                    assert_eq!(
                        fast.earliest_fit(cores, dur, nb),
                        naive.earliest_fit(cores, dur, nb),
                        "earliest_fit({cores}, {dur}, {nb})"
                    );
                }
            }
            // The step vectors agree exactly (both stay coalesced).
            assert_eq!(fast.steps(), naive.steps(), "step vectors diverged");
        }
    });
}
