//! Machine-speed pacing for the gated timings.
//!
//! The reference box is a shared two-core VM whose speed moves between two
//! plateaus about 1.45× apart, for seconds to minutes at a time, whatever
//! this process does: medians of raw wall time came out 20–30 % apart
//! from one run to the next. So every gated timing is taken in *laps* of
//! about 40 ms, and between laps the harness runs a fixed reference unit —
//! one dynamic-ESP simulation, the same seed every time. A lap's time is
//! scaled by `best reference time of the run ÷ reference time next to the
//! lap`: an estimate of what the lap costs when the machine is at its
//! fastest. The reference is product code on purpose — its slowdown tracks
//! the workloads' far better than a synthetic loop's did (±1 % against
//! ±5 % on `deepq_1200c`) — and because only the *ratio* of two of its own
//! timings is used, a change that speeds the product up cancels out of
//! the factor. Memory-bound work (`replay_retained`'s snapshot walk) has
//! interference of its own that the factor does not see; its bound is
//! wider for that.

use crate::inputs;
use crate::stats;
use dynbatch_bench::alloc_meter;
use dynbatch_cluster::Cluster;
use dynbatch_core::SchedulerConfig;
use dynbatch_sim::BatchSim;
use dynbatch_workload::WorkloadItem;
use std::time::{Duration, Instant};

/// Measured work accumulates into a lap until it is at least this long.
const MIN_LAP: Duration = Duration::from_millis(40);

/// Seed of the reference unit; never a workload's.
const REFERENCE_SEED: u64 = 0x0dd_ba11;

/// Wall seconds of measured work and the lap each piece fell in. A unit
/// or phase is a few such pieces; a lap may hold pieces of several.
#[derive(Debug, Default, Clone)]
pub struct Pieces(Vec<(f64, u32)>);

impl Pieces {
    /// Room for `laps` pieces, so that adding one never allocates: a
    /// stretch watched by the allocation meter reserves before it starts.
    pub fn with_capacity(laps: usize) -> Self {
        Pieces(Vec::with_capacity(laps))
    }

    /// Raw wall seconds of the measured work.
    pub fn wall_s(&self) -> f64 {
        self.0.iter().map(|p| p.0).sum()
    }
}

pub struct Pacer {
    items: Vec<WorkloadItem>,
    sched: SchedulerConfig,
    /// Every reference time of the run, seconds; run `i + 1` closes lap `i`.
    samples: Vec<f64>,
    /// The fastest of `samples`.
    best_s: f64,
    /// Measured wall seconds in the open lap.
    open_s: f64,
    /// On-CPU seconds all reference runs took so far.
    reference_cpu_s: f64,
    /// Allocator high-water mark seen before a reference run reset it,
    /// since the last [`Pacer::watch_peak`].
    peak_seen: usize,
}

impl Pacer {
    pub fn new() -> Self {
        let mut pacer = Pacer {
            items: inputs::esp_unit(REFERENCE_SEED),
            sched: inputs::dyn500(),
            // Reserved up front: a push must never allocate inside a
            // stretch the allocation meter is watching.
            samples: Vec::with_capacity(1 << 16),
            best_s: f64::INFINITY,
            open_s: 0.0,
            reference_cpu_s: 0.0,
            peak_seen: 0,
        };
        // Warm the reference itself before its first counted run.
        for _ in 0..3 {
            pacer.reference();
        }
        pacer.samples.clear();
        pacer.best_s = f64::INFINITY;
        pacer.reference();
        pacer
    }

    /// Runs the reference unit.
    fn reference(&mut self) {
        // The unit's allocations must not pass for the workload's.
        self.peak_seen = self.peak_seen.max(alloc_meter::peak_bytes());
        let cpu0 = stats::thread_cpu_ns();
        let t0 = Instant::now();
        let mut sim = BatchSim::new(Cluster::homogeneous(15, 8), self.sched.clone());
        sim.load(&self.items);
        sim.run();
        std::hint::black_box(sim.stats());
        let secs = t0.elapsed().as_secs_f64();
        drop(sim);
        if let (Some(a), Some(b)) = (cpu0, stats::thread_cpu_ns()) {
            self.reference_cpu_s += b.saturating_sub(a) as f64 / 1e9;
        }
        alloc_meter::reset_peak();
        self.samples.push(secs);
        self.best_s = self.best_s.min(secs);
    }

    /// Adds a piece of measured wall time to the open lap and to `to`.
    pub fn add(&mut self, wall: Duration, to: &mut Pieces) -> u32 {
        let secs = wall.as_secs_f64();
        self.open_s += secs;
        let lap = (self.samples.len() - 1) as u32;
        match to.0.last_mut() {
            Some(last) if last.1 == lap => last.0 += secs,
            _ => to.0.push((secs, lap)),
        }
        lap
    }

    /// Closes the open lap if it is long enough, by running the reference
    /// unit. Call only between pieces of measured work.
    pub fn tick(&mut self) {
        if self.open_s >= MIN_LAP.as_secs_f64() {
            self.finish();
        }
    }

    /// Closes the open lap, however short. Call once after the last piece.
    pub fn finish(&mut self) {
        if self.open_s > 0.0 {
            self.reference();
            self.open_s = 0.0;
        }
    }

    /// The run's fastest reference time, seconds, and how many reference
    /// runs it is the fastest of.
    pub fn best(&self) -> (f64, usize) {
        (self.best_s, self.samples.len())
    }

    /// Median reference time of the run, seconds.
    pub fn median(&self) -> f64 {
        stats::median(&mut self.samples.clone())
    }

    /// What a timing that fell in lap `lap` is multiplied by: the best
    /// reference time over the mean of the two reference runs around the
    /// lap. Valid once the lap is closed.
    pub fn factor(&self, lap: u32) -> f64 {
        let i = lap as usize;
        let after = self.samples.get(i + 1).unwrap_or(&self.samples[i]);
        self.best_s / ((self.samples[i] + after) / 2.0)
    }

    /// Seconds `pieces` would take with the machine at its fastest.
    pub fn paced_s(&self, pieces: &Pieces) -> f64 {
        pieces.0.iter().map(|&(s, lap)| s * self.factor(lap)).sum()
    }

    /// On-CPU seconds the reference runs have taken so far — read before
    /// and after a stretch to take them out of a CPU-time reading.
    pub fn reference_cpu_s(&self) -> f64 {
        self.reference_cpu_s
    }

    /// Starts watching the allocator's high-water mark across reference
    /// runs (each of which resets the meter).
    pub fn watch_peak(&mut self) {
        self.peak_seen = 0;
    }

    /// The highest mark a reference run has overwritten since
    /// [`Pacer::watch_peak`].
    pub fn peak_seen(&self) -> usize {
        self.peak_seen
    }
}
