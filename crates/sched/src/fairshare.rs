//! Static fairshare (classic Maui, paper §III-A).
//!
//! Tracks historical per-user resource usage in fixed windows with
//! geometric decay, and turns the deviation from a configured target share
//! into a priority adjustment. This is the *static* mechanism the paper
//! contrasts with its new *dynamic* fairness (see [`crate::dfs`]): it
//! rebalances users over hours of usage history, but — as §III-D argues —
//! cannot bound the delay a single dynamic allocation inflicts on queued
//! jobs, which is why DFS exists.

use dynbatch_core::{FairshareConfig, SimDuration, SimTime, UserId};
use std::collections::HashMap;

/// Rolling windowed usage tracker.
#[derive(Debug, Clone, PartialEq)]
pub struct FairshareTracker {
    config: FairshareConfig,
    /// `windows[0]` is the current window; older windows follow.
    windows: Vec<HashMap<UserId, f64>>,
    window_start: SimTime,
    /// Total core-seconds charged per window (for share computation).
    totals: Vec<f64>,
}

impl FairshareTracker {
    /// A tracker starting its first window at `start`.
    pub fn new(config: FairshareConfig, start: SimTime) -> Self {
        let n = config.windows.max(1);
        FairshareTracker {
            config,
            windows: vec![HashMap::new(); n],
            totals: vec![0.0; n],
            window_start: start,
        }
    }

    /// The tracker's configuration.
    pub fn config(&self) -> &FairshareConfig {
        &self.config
    }

    /// Advances window rotation to cover `now`.
    ///
    /// A `window` of `ZERO` means an *infinite* window: nothing ever
    /// rotates and usage accumulates forever (see
    /// [`FairshareTracker::usage_share`]; config validation pins
    /// `windows == 1` in that case so the dormant history knobs cannot
    /// silently pretend decay is happening).
    ///
    /// Rotation jumps directly to the target window rather than spinning
    /// one `rotate_right(1)` per elapsed window — a month-scale idle gap
    /// with a 1 h window would otherwise burn ~720 rotations per call on
    /// the scheduler hot path. Equivalence with the naive loop is pinned
    /// by a property test below.
    pub fn advance_to(&mut self, now: SimTime) {
        if self.config.window.is_zero() || now < self.window_start + self.config.window {
            return;
        }
        let w_ms = self.config.window.as_millis();
        let k = (now - self.window_start).as_millis() / w_ms;
        if k >= self.windows.len() as u64 {
            // The gap swallows the whole retained span: clear everything.
            for w in &mut self.windows {
                w.clear();
            }
            for t in &mut self.totals {
                *t = 0.0;
            }
        } else {
            let k = k as usize;
            self.windows.rotate_right(k);
            for w in &mut self.windows[..k] {
                w.clear();
            }
            self.totals.rotate_right(k);
            for t in &mut self.totals[..k] {
                *t = 0.0;
            }
        }
        self.window_start += SimDuration::from_millis(k * w_ms);
    }

    /// Charges `core_seconds` of usage to `user` in the current window.
    pub fn charge(&mut self, user: UserId, core_seconds: f64) {
        *self.windows[0].entry(user).or_insert(0.0) += core_seconds;
        self.totals[0] += core_seconds;
    }

    /// Charges `core_seconds` to `user`, attributed to the instant `at`
    /// the underlying usage segment closed — not to whichever window is
    /// current when the charge is synced. A segment that closed just
    /// before a window boundary lands in the window covering its close
    /// time even when the sync happens after the boundary, so streamed
    /// and eager runs (different sync cadence) agree on decayed shares.
    pub fn charge_at(&mut self, user: UserId, core_seconds: f64, at: SimTime) {
        self.advance_to(at);
        if self.config.window.is_zero() || at >= self.window_start {
            self.charge(user, core_seconds);
            return;
        }
        // A later event already rotated past `at`: back-attribute into
        // the historical window covering it. `behind ∈ ((i−1)·w, i·w]`
        // maps to `windows[i]`.
        let behind = (self.window_start - at).as_millis();
        let w_ms = self.config.window.as_millis();
        let idx = ((behind - 1) / w_ms + 1) as usize;
        if idx < self.windows.len() {
            *self.windows[idx].entry(user).or_insert(0.0) += core_seconds;
            self.totals[idx] += core_seconds;
        }
        // Older than the retained span: already fully decayed, drop.
    }

    /// Total core-seconds charged to `user` across all retained windows,
    /// undecayed — raw bookkeeping, for accounting assertions (the
    /// priority path uses [`FairshareTracker::usage_share`]).
    pub fn charged(&self, user: UserId) -> f64 {
        self.windows
            .iter()
            .map(|w| w.get(&user).copied().unwrap_or(0.0))
            .sum()
    }

    /// The user's decayed usage share across all retained windows,
    /// in `[0, 1]` (0 when the system has seen no usage at all).
    ///
    /// With an infinite window (`window == ZERO`) this is explicitly the
    /// user's lifetime usage over lifetime total — no decay applies.
    pub fn usage_share(&self, user: UserId) -> f64 {
        if self.config.window.is_zero() {
            let total = self.totals[0];
            return if total <= 0.0 {
                0.0
            } else {
                self.windows[0].get(&user).copied().unwrap_or(0.0) / total
            };
        }
        let mut usage = 0.0;
        let mut total = 0.0;
        let mut weight = 1.0;
        for (w, t) in self.windows.iter().zip(&self.totals) {
            usage += weight * w.get(&user).copied().unwrap_or(0.0);
            total += weight * t;
            weight *= self.config.decay;
        }
        if total <= 0.0 {
            0.0
        } else {
            usage / total
        }
    }

    /// The fairshare priority component: `target − usage_share`, positive
    /// when the user is under-served.
    pub fn priority_delta(&self, user: UserId) -> f64 {
        if !self.config.enabled {
            return 0.0;
        }
        let target = self
            .config
            .user_targets
            .get(&user)
            .copied()
            .unwrap_or(self.config.default_target);
        target - self.usage_share(user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FairshareConfig {
        FairshareConfig {
            enabled: true,
            window: SimDuration::from_hours(1),
            windows: 3,
            decay: 0.5,
            default_target: 0.5,
            ..FairshareConfig::default()
        }
    }

    #[test]
    fn empty_tracker_is_neutral() {
        let fs = FairshareTracker::new(cfg(), SimTime::ZERO);
        assert_eq!(fs.usage_share(UserId(0)), 0.0);
        assert!((fs.priority_delta(UserId(0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn usage_shares_sum_sensibly() {
        let mut fs = FairshareTracker::new(cfg(), SimTime::ZERO);
        fs.charge(UserId(0), 300.0);
        fs.charge(UserId(1), 100.0);
        assert!((fs.usage_share(UserId(0)) - 0.75).abs() < 1e-12);
        assert!((fs.usage_share(UserId(1)) - 0.25).abs() < 1e-12);
        // Heavy user gets a negative delta, light user positive.
        assert!(fs.priority_delta(UserId(0)) < fs.priority_delta(UserId(1)));
    }

    #[test]
    fn windows_rotate_and_decay() {
        let mut fs = FairshareTracker::new(cfg(), SimTime::ZERO);
        fs.charge(UserId(0), 100.0);
        // Advance one full window: the usage moves into history with
        // weight = decay.
        fs.advance_to(SimTime::ZERO + SimDuration::from_hours(1));
        fs.charge(UserId(1), 100.0);
        // User 0: 0.5·100 decayed; user 1: 1.0·100 current.
        let s0 = fs.usage_share(UserId(0));
        let s1 = fs.usage_share(UserId(1));
        assert!((s0 - (50.0 / 150.0)).abs() < 1e-12, "{s0}");
        assert!((s1 - (100.0 / 150.0)).abs() < 1e-12, "{s1}");
    }

    #[test]
    fn history_falls_off_the_end() {
        let mut fs = FairshareTracker::new(cfg(), SimTime::ZERO);
        fs.charge(UserId(0), 100.0);
        // 3 windows retained; advance 4 → the charge is forgotten.
        fs.advance_to(SimTime::ZERO + SimDuration::from_hours(4));
        assert_eq!(fs.usage_share(UserId(0)), 0.0);
    }

    #[test]
    fn disabled_is_neutral() {
        let mut c = cfg();
        c.enabled = false;
        let mut fs = FairshareTracker::new(c, SimTime::ZERO);
        fs.charge(UserId(0), 1000.0);
        assert_eq!(fs.priority_delta(UserId(0)), 0.0);
    }

    #[test]
    fn explicit_targets() {
        let mut c = cfg();
        c.user_targets.insert(UserId(7), 0.9);
        let fs = FairshareTracker::new(c, SimTime::ZERO);
        assert!((fs.priority_delta(UserId(7)) - 0.9).abs() < 1e-12);
    }

    /// The naive one-rotation-per-window loop the jump in `advance_to`
    /// replaced — retained as the executable specification.
    fn naive_advance(fs: &mut FairshareTracker, now: SimTime) {
        if fs.config.window.is_zero() {
            return;
        }
        while now >= fs.window_start + fs.config.window {
            fs.windows.rotate_right(1);
            fs.windows[0] = HashMap::new();
            fs.totals.rotate_right(1);
            fs.totals[0] = 0.0;
            fs.window_start += fs.config.window;
        }
    }

    fn assert_trackers_equal(a: &FairshareTracker, b: &FairshareTracker, ctx: &str) {
        assert_eq!(a.window_start, b.window_start, "{ctx}: window_start");
        assert_eq!(a.totals, b.totals, "{ctx}: totals");
        assert_eq!(a.windows, b.windows, "{ctx}: windows");
    }

    #[test]
    fn advance_jump_matches_naive_loop() {
        // Property test: random interleavings of charges and advances —
        // including month-scale gaps that swallow the retained span —
        // leave the jump tracker in exactly the naive tracker's state.
        let mut rng = 0x2014_2014_u64;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        for windows in [1usize, 2, 3, 8] {
            let mut c = cfg();
            c.windows = windows;
            let mut fast = FairshareTracker::new(c.clone(), SimTime::ZERO);
            let mut slow = FairshareTracker::new(c, SimTime::ZERO);
            let mut now = SimTime::ZERO;
            for step in 0..200 {
                // Gaps from sub-window to ~a month (window is 1 h).
                let gap_ms = match next() % 4 {
                    0 => next() % 3_600_000,             // within-window
                    1 => 3_600_000 + next() % 3_600_000, // one-ish window
                    2 => next() % (24 * 3_600_000),      // up to a day
                    _ => next() % (31 * 24 * 3_600_000), // up to a month
                };
                now += SimDuration::from_millis(gap_ms);
                fast.advance_to(now);
                naive_advance(&mut slow, now);
                let user = UserId((next() % 5) as u32);
                let amount = (next() % 1000) as f64;
                fast.charge(user, amount);
                slow.charge(user, amount);
                assert_trackers_equal(&fast, &slow, &format!("windows={windows} step={step}"));
            }
        }
    }

    #[test]
    fn charge_at_attributes_to_closing_window() {
        // A segment closing at t=59 min synced after the 1 h boundary
        // must land in the *previous* window, exactly as if it had been
        // charged before the boundary.
        let close = SimTime::ZERO + SimDuration::from_mins(59);
        let sync = SimTime::ZERO + SimDuration::from_mins(61);

        let mut eager = FairshareTracker::new(cfg(), SimTime::ZERO);
        eager.advance_to(close);
        eager.charge(UserId(0), 100.0);
        eager.advance_to(sync);

        let mut late = FairshareTracker::new(cfg(), SimTime::ZERO);
        late.advance_to(sync);
        late.charge_at(UserId(0), 100.0, close);

        assert_trackers_equal(&eager, &late, "boundary-crossing sync");
        // And two windows back: close in window 0, sync two boundaries on.
        let sync2 = SimTime::ZERO + SimDuration::from_mins(125);
        eager.advance_to(sync2);
        late.advance_to(sync2);
        late.charge_at(UserId(1), 50.0, close);
        let mut eager2 = eager.clone();
        eager2.windows[2].insert(UserId(1), 50.0);
        eager2.totals[2] += 50.0;
        assert_trackers_equal(&eager2, &late, "two windows back");
        // Older than the retained span: dropped entirely.
        let far = SimTime::ZERO + SimDuration::from_hours(100);
        late.advance_to(far);
        let before = late.clone();
        late.charge_at(UserId(2), 7.0, close);
        assert_trackers_equal(&before, &late, "beyond retained span");
    }

    #[test]
    fn charge_at_in_current_window_is_plain_charge() {
        let mut a = FairshareTracker::new(cfg(), SimTime::ZERO);
        let mut b = FairshareTracker::new(cfg(), SimTime::ZERO);
        let t = SimTime::ZERO + SimDuration::from_mins(10);
        a.advance_to(t);
        a.charge(UserId(0), 42.0);
        b.charge_at(UserId(0), 42.0, t);
        assert_trackers_equal(&a, &b, "current window");
    }

    #[test]
    fn infinite_window_accumulates_forever() {
        let mut c = cfg();
        c.window = SimDuration::ZERO;
        c.windows = 1;
        let mut fs = FairshareTracker::new(c, SimTime::ZERO);
        fs.charge(UserId(0), 300.0);
        fs.advance_to(SimTime::ZERO + SimDuration::from_hours(10_000));
        fs.charge(UserId(1), 100.0);
        // Lifetime usage over lifetime total, no decay ever.
        assert!((fs.usage_share(UserId(0)) - 0.75).abs() < 1e-12);
        assert!((fs.usage_share(UserId(1)) - 0.25).abs() < 1e-12);
        // charge_at degenerates to charge.
        fs.charge_at(UserId(1), 100.0, SimTime::ZERO);
        assert!((fs.usage_share(UserId(1)) - 0.4).abs() < 1e-12);
    }
}
