//! Micro-probes of layers no workload span isolates, and the context
//! units a traced run adds for layers its workload bypasses.

use crate::inputs;
use crate::observe::Mode;
use crate::simload;
use crate::trace::Recorder;
use dynbatch_core::SimTime;
use dynbatch_simtime::EventQueue;
use dynbatch_workload::SwfSource;
use std::path::Path;
use std::time::Instant;

/// Nanoseconds per `schedule` + `pop` pair on an `EventQueue` holding
/// `pending` events — the queue depth a run's admission window sustains.
pub fn schedule_pop_ns(pending: usize) -> f64 {
    const PAIRS: u64 = 200_000;
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..pending.max(1) as u64 {
        q.schedule(SimTime::from_millis(1_000 + i * 7), 0);
    }
    let t0 = Instant::now();
    for i in 0..PAIRS {
        let at = q.now() + dynbatch_core::SimDuration::from_millis(1_000 + (i * 13) % 977);
        q.schedule(at, 1);
        std::hint::black_box(q.pop());
    }
    t0.elapsed().as_nanos() as f64 / PAIRS as f64
}

/// Parses the SWF file at `path` through `SwfSource` with no simulator
/// behind it; returns `(jobs, seconds)`.
pub fn swf_parse(path: &Path, swf: &dynbatch_workload::SwfConfig) -> (usize, f64) {
    let file = std::fs::File::open(path).expect("trace written by the caller");
    let src = SwfSource::with_own_registry(std::io::BufReader::new(file), swf.clone());
    let t0 = Instant::now();
    let jobs = src.count();
    (jobs, t0.elapsed().as_secs_f64())
}

/// Context for a workload with no `BatchSim` in it: a few traced ESP
/// units, so the `sim`, `sched` and `server.snapshot` metrics are
/// measured (on something the workload does not run) rather than absent.
pub fn sim_context(rec: &mut Recorder, seed: u64) {
    for u in 0..4 {
        let items = inputs::esp_unit(seed.wrapping_add(u));
        simload::run_eager(
            (15, 8),
            &inputs::dyn500(),
            &items,
            false,
            Mode::traced(rec, u as u32),
        );
    }
}

/// Context for a workload without replication: two traced replicated ESP
/// units. Returns their failures (none expected).
pub fn replication_context(rec: &mut Recorder, seed: u64) -> Vec<String> {
    let mut failures = Vec::new();
    for u in 0..2 {
        let items = inputs::esp_unit(seed.wrapping_add(100 + u));
        let unit = simload::run_replicated(
            &inputs::dyn500(),
            &items,
            None,
            Mode::traced(rec, 1_000 + u as u32),
        );
        failures.extend(unit.failures);
    }
    failures
}

/// Context for a workload that reads no trace: write and parse a
/// 2 000-job one. Returns `(bytes per job, parse µs per job)`.
pub fn swf_context(out_dir: &Path, seed: u64) -> std::io::Result<(f64, f64)> {
    const JOBS: usize = 2_000;
    let path = out_dir.join(format!("trace-context-{}.swf", std::process::id()));
    let bytes = inputs::write_trace(&path, seed, JOBS)?;
    let (jobs, secs) = swf_parse(&path, &inputs::swf_config(seed));
    std::fs::remove_file(&path)?;
    assert_eq!(jobs, JOBS, "context trace parses whole");
    Ok((bytes as f64 / JOBS as f64, secs * 1e6 / JOBS as f64))
}
