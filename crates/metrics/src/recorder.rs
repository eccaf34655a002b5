//! Utilization recording.
//!
//! Integrates busy core-time over a run: the simulator (or daemon) reports
//! every change in the number of busy cores, and the recorder accumulates
//! exact core-seconds between changes. System utilization — the paper's
//! "Util [%]" column — is busy core-time divided by capacity × makespan.

use dynbatch_core::{SimDuration, SimTime};

/// Exact busy-core-time integrator.
#[derive(Debug, Clone)]
pub struct UtilizationRecorder {
    capacity: u32,
    start: SimTime,
    last_change: SimTime,
    busy_now: u32,
    core_millis: u128,
    /// (time, busy) samples at every change, for time-series plots.
    samples: Vec<(SimTime, u32)>,
    /// When false, the time series is not retained (low-memory streamed
    /// replays); the core-millis integral is exact either way.
    samples_enabled: bool,
}

impl UtilizationRecorder {
    /// A recorder for a system of `capacity` cores, starting at `start`.
    pub fn new(capacity: u32, start: SimTime) -> Self {
        UtilizationRecorder {
            capacity,
            start,
            last_change: start,
            busy_now: 0,
            core_millis: 0,
            samples: vec![(start, 0)],
            samples_enabled: true,
        }
    }

    /// Enables or disables time-series sample retention. With samples off
    /// the recorder runs in O(1) memory; `core_seconds`/`utilization`
    /// stay exact (they read the integral, not the series). Disabling
    /// drops any samples already buffered.
    pub fn set_samples_enabled(&mut self, enabled: bool) {
        self.samples_enabled = enabled;
        if !enabled {
            self.samples.clear();
        }
    }

    /// Reports that the busy-core count is `busy` as of `now`.
    pub fn record(&mut self, now: SimTime, busy: u32) {
        assert!(
            busy <= self.capacity,
            "busy {busy} exceeds capacity {}",
            self.capacity
        );
        assert!(now >= self.last_change, "time went backwards");
        self.core_millis +=
            self.busy_now as u128 * now.duration_since(self.last_change).as_millis() as u128;
        self.last_change = now;
        if busy != self.busy_now {
            self.busy_now = busy;
            if self.samples_enabled {
                self.samples.push((now, busy));
            }
        }
    }

    /// Busy core-seconds accumulated up to `end`.
    pub fn core_seconds(&self, end: SimTime) -> f64 {
        let tail = self.busy_now as u128 * end.duration_since(self.last_change).as_millis() as u128;
        (self.core_millis + tail) as f64 / 1000.0
    }

    /// Utilization over `[start, end]` as a fraction in `[0, 1]`.
    pub fn utilization(&self, end: SimTime) -> f64 {
        let span = end.duration_since(self.start).as_secs_f64();
        if span <= 0.0 || self.capacity == 0 {
            return 0.0;
        }
        self.core_seconds(end) / (self.capacity as f64 * span)
    }

    /// The busy-core time series (time, busy cores).
    pub fn samples(&self) -> &[(SimTime, u32)] {
        &self.samples
    }

    /// System capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }
}

/// Computes makespan-derived throughput in jobs per minute.
pub fn throughput_jobs_per_min(jobs: usize, makespan: SimDuration) -> f64 {
    let mins = makespan.as_mins_f64();
    if mins <= 0.0 {
        0.0
    } else {
        jobs as f64 / mins
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn integrates_exactly() {
        let mut r = UtilizationRecorder::new(10, t(0));
        r.record(t(0), 5);
        r.record(t(10), 10); // 5 cores × 10 s = 50 cs
        r.record(t(20), 0); // 10 × 10 = 100 cs
        assert!((r.core_seconds(t(30)) - 150.0).abs() < 1e-9);
        // Utilization over 30 s of a 10-core system: 150/300 = 0.5.
        assert!((r.utilization(t(30)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tail_usage_counts() {
        let mut r = UtilizationRecorder::new(4, t(0));
        r.record(t(0), 4);
        assert!((r.core_seconds(t(100)) - 400.0).abs() < 1e-9);
        assert!((r.utilization(t(100)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_span_is_zero() {
        let r = UtilizationRecorder::new(4, t(0));
        assert_eq!(r.utilization(t(0)), 0.0);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn overcapacity_panics() {
        let mut r = UtilizationRecorder::new(4, t(0));
        r.record(t(0), 5);
    }

    #[test]
    fn samples_dedupe_unchanged() {
        let mut r = UtilizationRecorder::new(4, t(0));
        r.record(t(1), 2);
        r.record(t(2), 2);
        r.record(t(3), 3);
        assert_eq!(r.samples().len(), 3); // initial, t=1, t=3
    }

    #[test]
    fn throughput() {
        assert!(
            (throughput_jobs_per_min(230, SimDuration::from_mins(265)) - 230.0 / 265.0).abs()
                < 1e-12
        );
        assert_eq!(throughput_jobs_per_min(10, SimDuration::ZERO), 0.0);
    }
}
