//! The resource-availability timeline.
//!
//! Every planning question the scheduler asks — *can this job start now?*,
//! *when is the earliest start for the highest-priority blocked job?*,
//! *would this backfill candidate (or this dynamic expansion) delay a
//! reservation?* — reduces to queries on a step function from time to idle
//! cores. [`AvailabilityProfile`] is that step function.
//!
//! The profile is built per scheduling iteration from the running jobs'
//! remaining walltimes, then *holds* are layered on as the iteration plans
//! starts, reservations and candidate dynamic expansions. Cloning a profile
//! is cheap (one `Vec` copy) and [`AvailabilityProfile::assign_from`]
//! makes repeated what-if clones allocation-free, which the
//! delay-measurement pass exploits.
//!
//! # Complexity
//!
//! With `n` breakpoints and `k` breakpoints inside the mutated window:
//!
//! * [`AvailabilityProfile::idle_at`] — O(log n);
//! * [`AvailabilityProfile::min_idle`] — O(log n + k);
//! * [`AvailabilityProfile::fits`] — O(log n + k) at worst, O(1) when
//!   the window's first segment is already too narrow;
//! * [`AvailabilityProfile::hold`] / [`AvailabilityProfile::release`] —
//!   O(log n + k) value updates plus at most two breakpoint insertions
//!   and two boundary merges (each an O(n) `Vec` shift in the worst
//!   case, but no full-vector rescan or re-coalesce);
//! * [`AvailabilityProfile::earliest_fit`] — a single O(n) forward sweep
//!   with a running infeasibility cursor; no allocation.
//!
//! The naive O(n²) formulations these replaced live on as
//! [`crate::reference::NaiveProfile`], the executable specification the
//! property suite checks this implementation against.

use dynbatch_core::{SimDuration, SimTime};

/// How long past its walltime an overdue running job is still planned to
/// hold its cores (see [`planned_end`]).
pub const OVERDUE_GRACE: SimDuration = SimDuration::from_millis(1);

/// The instant the planner books a running job's hold as ending: its
/// walltime end, clamped to at least one grace tick past `now`.
///
/// A job past its walltime still physically holds its cores until the
/// resource manager reaps it. Planning it as ending at `now + 1 ms` keeps
/// the cores un-bookable *right now* while freeing them almost immediately
/// for reservations. (In the simulator kills are exact and the clamp never
/// engages; the wall-clock daemon needs it.) Every path that books running
/// jobs — the base rebuild, the malleable grow pass, shrink/preempt
/// releases, and the incremental delta applier — must agree on this clamp,
/// which is why it lives here rather than inline at each call site.
pub fn planned_end(now: SimTime, walltime_end: SimTime) -> SimTime {
    walltime_end.max(now.saturating_add(OVERDUE_GRACE))
}

/// A step function `time → idle cores` over `[origin, ∞)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AvailabilityProfile {
    origin: SimTime,
    capacity: u32,
    /// Breakpoints: `(start_time, idle_from_here_on)`. Always non-empty,
    /// sorted by time, first entry at `origin`; idle values within
    /// `0..=capacity`.
    steps: Vec<(SimTime, u32)>,
}

impl AvailabilityProfile {
    /// A fully idle profile: `capacity` cores free from `origin` onwards.
    pub fn new(origin: SimTime, capacity: u32) -> Self {
        AvailabilityProfile {
            origin,
            capacity,
            steps: vec![(origin, capacity)],
        }
    }

    /// The profile's origin (the scheduling instant).
    pub fn origin(&self) -> SimTime {
        self.origin
    }

    /// Total cores the profile was built with.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Idle cores at instant `t` (`t` may not precede the origin).
    pub fn idle_at(&self, t: SimTime) -> u32 {
        assert!(t >= self.origin, "query before profile origin");
        self.steps[self.segment_index(t)].1
    }

    /// Minimum idle cores over `[from, to)`. O(log n + k) for `k`
    /// breakpoints inside the window.
    pub fn min_idle(&self, from: SimTime, to: SimTime) -> u32 {
        assert!(from >= self.origin && to >= from);
        // Index of the segment containing `from`.
        let lo = self.segment_index(from);
        if from == to {
            return self.steps[lo].1;
        }
        let mut min = self.steps[lo].1;
        for &(s, idle) in &self.steps[lo + 1..] {
            if s >= to {
                break;
            }
            min = min.min(idle);
        }
        min
    }

    /// Whether at least `cores` cores are idle throughout `[from, to)` —
    /// `min_idle(from, to) >= cores`, but the scan stops at the first
    /// segment below `cores` instead of running to the end of the window.
    /// The fit test of every start and backfill candidate: on a full
    /// machine the very first segment answers it.
    pub fn fits(&self, from: SimTime, to: SimTime, cores: u32) -> bool {
        self.min_idle_at_least(from, to, cores).is_some()
    }

    /// `min_idle(from, to)` when it is at least `floor`, `None` as soon
    /// as a segment falls below it.
    pub fn min_idle_at_least(&self, from: SimTime, to: SimTime, floor: u32) -> Option<u32> {
        assert!(from >= self.origin && to >= from);
        let lo = self.segment_index(from);
        let mut min = self.steps[lo].1;
        if min < floor {
            return None;
        }
        for &(s, idle) in &self.steps[lo + 1..] {
            if s >= to {
                break;
            }
            if idle < floor {
                return None;
            }
            min = min.min(idle);
        }
        Some(min)
    }

    /// For every width `w` up to the cores idle at `from`, the first
    /// breakpoint after `from` at which fewer than `w` cores are idle
    /// ([`SimTime::MAX`] if there is none), written to `out[w]`; `out`
    /// gets one entry per width from 0 to the idle count. So
    /// `fits(from, to, w)` holds iff `w < out.len()` and `to <= out[w]`.
    /// One pass over the breakpoints after `from`.
    pub fn idle_horizon(&self, from: SimTime, out: &mut Vec<SimTime>) {
        assert!(from >= self.origin, "query before profile origin");
        let lo = self.segment_index(from);
        let mut floor = self.steps[lo].1;
        out.clear();
        out.resize(floor as usize + 1, SimTime::MAX);
        for &(s, idle) in &self.steps[lo + 1..] {
            if idle < floor {
                // The widths above `idle` first lack room here.
                out[idle as usize + 1..=floor as usize].fill(s);
                floor = idle;
                if floor == 0 {
                    break;
                }
            }
        }
    }

    /// Index of the segment whose span contains `t` (requires
    /// `t >= origin`).
    fn segment_index(&self, t: SimTime) -> usize {
        // Nearly every query of a scheduling pass is about "now".
        if t == self.origin {
            return 0;
        }
        match self.steps.binary_search_by(|&(s, _)| s.cmp(&t)) {
            Ok(i) => i,
            Err(0) => unreachable!("first step is at origin"),
            Err(i) => i - 1,
        }
    }

    /// Subtracts `cores` from the idle count over `[from, to)` — a running
    /// job, a planned start, a reservation, or a candidate dynamic
    /// expansion.
    ///
    /// # Panics
    /// If the subtraction would drive any segment negative: callers must
    /// check fit first (this keeps over-commitment bugs loud).
    pub fn hold(&mut self, from: SimTime, to: SimTime, cores: u32) {
        assert!(from >= self.origin, "hold starts before origin");
        if cores == 0 || from >= to {
            return;
        }
        self.apply_window(from, to, |step, capacity| {
            let _ = capacity;
            assert!(
                step.1 >= cores,
                "hold over-commits at {}: {} idle < {cores}",
                step.0,
                step.1
            );
            step.1 -= cores;
        });
    }

    /// Convenience: hold for a duration starting at `from`.
    pub fn hold_for(&mut self, from: SimTime, duration: SimDuration, cores: u32) {
        self.hold(from, from.saturating_add(duration), cores);
    }

    /// Returns `cores` to the idle count over `[from, to)` (e.g. a job
    /// finished early in a what-if scenario).
    ///
    /// # Panics
    /// If any segment would exceed capacity.
    pub fn release(&mut self, from: SimTime, to: SimTime, cores: u32) {
        assert!(from >= self.origin);
        if cores == 0 || from >= to {
            return;
        }
        self.apply_window(from, to, |step, capacity| {
            assert!(
                step.1 + cores <= capacity,
                "release exceeds capacity at {}",
                step.0
            );
            step.1 += cores;
        });
    }

    /// Applies `mutate` to every segment overlapping `[from, to)`, touching
    /// only that index range: breakpoints are materialised at the window
    /// edges, the affected values updated in place, and only the two
    /// boundary joints re-checked for coalescing (a uniform update cannot
    /// make two *interior* neighbours equal — they differed before).
    fn apply_window(
        &mut self,
        from: SimTime,
        to: SimTime,
        mut mutate: impl FnMut(&mut (SimTime, u32), u32),
    ) {
        self.ensure_breakpoint(from);
        if to < SimTime::MAX {
            self.ensure_breakpoint(to);
        }
        let lo = self
            .steps
            .binary_search_by(|&(s, _)| s.cmp(&from))
            .expect("breakpoint at `from` was just ensured");
        let hi = if to == SimTime::MAX {
            self.steps.len()
        } else {
            self.steps
                .binary_search_by(|&(s, _)| s.cmp(&to))
                .expect("breakpoint at `to` was just ensured")
        };
        let capacity = self.capacity;
        for step in &mut self.steps[lo..hi] {
            mutate(step, capacity);
        }
        // Coalesce at the window edges only, higher index first so `lo`
        // stays valid while `hi` is handled.
        if hi < self.steps.len() && self.steps[hi].1 == self.steps[hi - 1].1 {
            self.steps.remove(hi);
        }
        if lo > 0 && self.steps[lo].1 == self.steps[lo - 1].1 {
            self.steps.remove(lo);
        }
    }

    /// The earliest `t ≥ not_before` such that at least `cores` cores are
    /// idle throughout `[t, t + duration)`. Returns `None` only if `cores`
    /// exceeds capacity (otherwise the far future always fits — running
    /// jobs end).
    pub fn earliest_fit(
        &self,
        cores: u32,
        duration: SimDuration,
        not_before: SimTime,
    ) -> Option<SimTime> {
        if cores > self.capacity {
            return None;
        }
        let start0 = not_before.max(self.origin);
        if cores == 0 {
            return Some(start0);
        }
        // Single forward sweep: `candidate` is the earliest start not yet
        // ruled out. Every segment is visited at most once — an infeasible
        // segment pushes the candidate past itself; a feasible one extends
        // the contiguous feasible run until it covers `duration`.
        let mut i = self.segment_index(start0);
        let mut candidate = start0;
        loop {
            if self.steps[i].1 < cores {
                // Infeasible here: restart the window at the next break.
                i += 1;
                if i == self.steps.len() {
                    // Unreachable in practice: holds are finite, so the
                    // last segment always has idle ≥ cores. Kept as a
                    // guard.
                    return None;
                }
                candidate = self.steps[i].0;
                continue;
            }
            let end = candidate.saturating_add(duration);
            if i + 1 == self.steps.len() || self.steps[i + 1].0 >= end {
                // Feasible through `end` (or to ∞): the candidate stands.
                return Some(candidate);
            }
            // The window extends into the next segment; keep sweeping.
            i += 1;
        }
    }

    /// All breakpoints, for inspection and testing.
    pub fn steps(&self) -> &[(SimTime, u32)] {
        &self.steps
    }

    /// Overwrites `self` with a copy of `other`, reusing `self`'s step
    /// buffer. This is the scratch-profile API: a what-if pass keeps one
    /// scratch `AvailabilityProfile` alive and `assign_from`s the base
    /// into it before each trial, so steady-state planning allocates
    /// nothing (`clone()` would allocate a fresh `Vec` per trial).
    pub fn assign_from(&mut self, other: &AvailabilityProfile) {
        self.origin = other.origin;
        self.capacity = other.capacity;
        self.steps.clear();
        self.steps.extend_from_slice(&other.steps);
    }

    /// Re-anchors the profile at `new_origin` (which may not precede the
    /// current origin), dropping every breakpoint strictly before it. The
    /// step function over `[new_origin, ∞)` is unchanged, and the result
    /// is identical to rebuilding the same holds with `new_origin` as the
    /// origin — dropping a prefix cannot make two surviving neighbours
    /// equal, so the canonical (coalesced) form is preserved.
    ///
    /// This is the incremental timeline's re-anchor step: amortised O(1)
    /// per breakpoint ever created, versus the O(running jobs) full
    /// rebuild it replaces.
    pub fn advance_origin(&mut self, new_origin: SimTime) {
        assert!(new_origin >= self.origin, "profile origin may only advance");
        if new_origin == self.origin {
            return;
        }
        let i = self.segment_index(new_origin);
        if i > 0 {
            self.steps.drain(..i);
        }
        self.steps[0].0 = new_origin;
        self.origin = new_origin;
    }

    /// Resets to a fully idle profile, reusing the step buffer.
    pub fn reset(&mut self, origin: SimTime, capacity: u32) {
        self.origin = origin;
        self.capacity = capacity;
        self.steps.clear();
        self.steps.push((origin, capacity));
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn fresh_profile_is_flat() {
        let p = AvailabilityProfile::new(t(0), 120);
        assert_eq!(p.idle_at(t(0)), 120);
        assert_eq!(p.idle_at(t(1_000_000)), 120);
        assert_eq!(p.steps().len(), 1);
    }

    #[test]
    fn hold_creates_steps() {
        let mut p = AvailabilityProfile::new(t(0), 10);
        p.hold(t(5), t(15), 4);
        assert_eq!(p.idle_at(t(0)), 10);
        assert_eq!(p.idle_at(t(5)), 6);
        assert_eq!(p.idle_at(t(14)), 6);
        assert_eq!(p.idle_at(t(15)), 10);
    }

    #[test]
    fn overlapping_holds_stack() {
        let mut p = AvailabilityProfile::new(t(0), 10);
        p.hold(t(0), t(10), 3);
        p.hold(t(5), t(20), 3);
        assert_eq!(p.idle_at(t(4)), 7);
        assert_eq!(p.idle_at(t(5)), 4);
        assert_eq!(p.idle_at(t(10)), 7);
        assert_eq!(p.idle_at(t(20)), 10);
    }

    #[test]
    #[should_panic(expected = "over-commits")]
    fn hold_over_capacity_panics() {
        let mut p = AvailabilityProfile::new(t(0), 4);
        p.hold(t(0), t(10), 3);
        p.hold(t(5), t(6), 2);
    }

    #[test]
    fn hold_to_infinity() {
        let mut p = AvailabilityProfile::new(t(0), 10);
        p.hold(t(3), SimTime::MAX, 10);
        assert_eq!(p.idle_at(t(2)), 10);
        assert_eq!(p.idle_at(t(3)), 0);
        assert_eq!(p.idle_at(t(1_000_000)), 0);
    }

    #[test]
    fn release_undoes_hold() {
        let mut p = AvailabilityProfile::new(t(0), 10);
        p.hold(t(0), t(10), 4);
        p.release(t(0), t(10), 4);
        assert_eq!(p, AvailabilityProfile::new(t(0), 10));
    }

    #[test]
    fn min_idle_over_window() {
        let mut p = AvailabilityProfile::new(t(0), 10);
        p.hold(t(5), t(6), 8);
        assert_eq!(p.min_idle(t(0), t(5)), 10);
        assert_eq!(p.min_idle(t(0), t(6)), 2);
        assert_eq!(p.min_idle(t(6), t(100)), 10);
        assert_eq!(p.min_idle(t(3), t(3)), 10, "empty window = point query");
    }

    #[test]
    fn earliest_fit_immediate() {
        let p = AvailabilityProfile::new(t(0), 10);
        assert_eq!(p.earliest_fit(10, d(100), t(0)), Some(t(0)));
    }

    #[test]
    fn earliest_fit_waits_for_release() {
        let mut p = AvailabilityProfile::new(t(0), 10);
        p.hold(t(0), t(50), 8); // running job: 8 cores until t=50
                                // 4 cores for 10s can't fit until t=50.
        assert_eq!(p.earliest_fit(4, d(10), t(0)), Some(t(50)));
        // 2 cores fit immediately.
        assert_eq!(p.earliest_fit(2, d(10), t(0)), Some(t(0)));
    }

    #[test]
    fn earliest_fit_needs_contiguous_window() {
        let mut p = AvailabilityProfile::new(t(0), 10);
        p.hold(t(20), t(30), 8); // a future reservation
                                 // 4 cores for 10s fit at t=0 (ends before the reservation).
        assert_eq!(p.earliest_fit(4, d(10), t(0)), Some(t(0)));
        // 4 cores for 25s would collide with [20,30): next chance is t=30.
        assert_eq!(p.earliest_fit(4, d(25), t(0)), Some(t(30)));
    }

    #[test]
    fn earliest_fit_honours_not_before() {
        let p = AvailabilityProfile::new(t(0), 10);
        assert_eq!(p.earliest_fit(1, d(1), t(42)), Some(t(42)));
    }

    #[test]
    fn earliest_fit_impossible() {
        let p = AvailabilityProfile::new(t(0), 10);
        assert_eq!(p.earliest_fit(11, d(1), t(0)), None);
        assert_eq!(p.earliest_fit(0, d(1), t(5)), Some(t(5)));
    }

    #[test]
    fn coalescing_keeps_profile_small() {
        let mut p = AvailabilityProfile::new(t(0), 10);
        p.hold(t(0), t(10), 4);
        p.hold(t(10), t(20), 4);
        // Adjacent equal segments merge: origin step + release at 20.
        assert_eq!(p.steps().len(), 2);
    }

    #[test]
    fn assign_from_reuses_buffer() {
        let mut base = AvailabilityProfile::new(t(0), 10);
        base.hold(t(5), t(15), 4);
        let mut scratch = AvailabilityProfile::new(t(99), 1);
        scratch.assign_from(&base);
        assert_eq!(scratch, base);
        // Mutating the scratch leaves the base untouched.
        scratch.hold(t(0), t(5), 2);
        assert_eq!(base.idle_at(t(0)), 10);
        assert_eq!(scratch.idle_at(t(0)), 8);
        // Re-assigning restores equality without reallocating semantics.
        scratch.assign_from(&base);
        assert_eq!(scratch, base);
    }

    #[test]
    fn reset_restores_flat_profile() {
        let mut p = AvailabilityProfile::new(t(0), 10);
        p.hold(t(1), t(2), 3);
        p.reset(t(7), 20);
        assert_eq!(p, AvailabilityProfile::new(t(7), 20));
    }

    #[test]
    fn boundary_merge_with_preexisting_equal_neighbour() {
        // A hold whose window ends exactly where an equal-valued segment
        // begins must merge across that joint.
        let mut p = AvailabilityProfile::new(t(0), 10);
        p.hold(t(20), t(30), 4); // (0,10),(20,6),(30,10)
        p.hold(t(0), t(20), 4); // → (0,6),(30,10) after the hi-side merge
        assert_eq!(p.steps(), &[(t(0), 6), (t(30), 10)]);
        p.release(t(0), t(30), 4); // back to flat: lo- and hi-side merges
        assert_eq!(p.steps(), &[(t(0), 10)]);
    }

    #[test]
    fn earliest_fit_from_mid_segment() {
        let mut p = AvailabilityProfile::new(t(0), 10);
        p.hold(t(0), t(50), 8);
        // not_before falls inside the constrained segment; 2 cores fit
        // right there, 4 must wait for the release at t=50.
        assert_eq!(p.earliest_fit(2, d(10), t(25)), Some(t(25)));
        assert_eq!(p.earliest_fit(4, d(10), t(25)), Some(t(50)));
    }

    #[test]
    fn advance_origin_preserves_suffix_and_canonical_form() {
        let mut p = AvailabilityProfile::new(t(0), 10);
        p.hold(t(5), t(15), 4);
        p.hold(t(20), t(30), 7);

        // Advance into the middle of the first hold: the prefix breakpoints
        // vanish, the suffix is untouched.
        p.advance_origin(t(7));
        let mut fresh = AvailabilityProfile::new(t(7), 10);
        fresh.hold(t(7), t(15), 4);
        fresh.hold(t(20), t(30), 7);
        assert_eq!(p, fresh, "re-anchored profile must match a rebuild");

        // Advancing to an existing breakpoint and past all holds also
        // matches rebuilds.
        p.advance_origin(t(20));
        let mut fresh = AvailabilityProfile::new(t(20), 10);
        fresh.hold(t(20), t(30), 7);
        assert_eq!(p, fresh);
        p.advance_origin(t(40));
        assert_eq!(p, AvailabilityProfile::new(t(40), 10));
        assert_eq!(p.steps().len(), 1);

        // Same-instant advance is a no-op.
        p.advance_origin(t(40));
        assert_eq!(p, AvailabilityProfile::new(t(40), 10));
    }

    #[test]
    #[should_panic(expected = "origin may only advance")]
    fn advance_origin_backwards_panics() {
        let mut p = AvailabilityProfile::new(t(10), 4);
        p.advance_origin(t(9));
    }

    #[test]
    fn planned_end_clamps_overdue_jobs() {
        // Future walltime end: untouched.
        assert_eq!(planned_end(t(10), t(50)), t(50));
        // Overdue (or exactly due) job: one grace tick past now.
        let tick = SimTime::from_millis(10_001);
        assert_eq!(planned_end(t(10), t(10)), tick);
        assert_eq!(planned_end(t(10), t(3)), tick);
        // At the far-future boundary the clamp saturates instead of
        // overflowing.
        assert_eq!(planned_end(SimTime::MAX, t(3)), SimTime::MAX);
    }

    #[test]
    fn paper_fig1_scenario() {
        // Fig 1: 6 nodes (here: 6 cores, 1 core = 1 node). Job A holds 2
        // for 8 h; job B holds 2 for 4 h. Queued job C needs 4 for 4 h.
        let h = 3600;
        let mut p = AvailabilityProfile::new(t(0), 6);
        p.hold(t(0), t(8 * h), 2); // A
        p.hold(t(0), t(4 * h), 2); // B
                                   // C's earliest start: when B ends, at 4 h.
        assert_eq!(p.earliest_fit(4, d(4 * h), t(0)), Some(t(4 * h)));
        // Now A dynamically grabs the 2 idle nodes until its walltime end.
        p.hold(t(0), t(8 * h), 2);
        // C is pushed to 8 h — the unfair 4-hour delay the paper draws.
        assert_eq!(p.earliest_fit(4, d(4 * h), t(0)), Some(t(8 * h)));
    }
}
