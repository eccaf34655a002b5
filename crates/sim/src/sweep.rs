//! The deterministic parallel sweep engine.
//!
//! The paper's results are all *ensembles* — four Table-II
//! configurations, per-seed waiting-time distributions, multi-seed
//! ablations. This module shards a `(configuration × seed)` task matrix
//! across a scoped-thread worker pool so a campaign saturates every core,
//! while guaranteeing results **bit-identical to the serial path and
//! independent of worker count and scheduling order**:
//!
//! * **Task-indexed results.** Every task has a fixed id (`config_index ×
//!   seeds.len() + seed_index`); its result lands in a pre-sized slot
//!   vector at that id. Which worker ran it, and in what order, is
//!   unobservable in the output.
//! * **Per-task RNG streams.** A task derives all of its randomness from
//!   its `(config, seed)` coordinates — the workload generator receives
//!   the seed, and [`task_rng`] hands custom sweeps a decorrelated
//!   `SplitMix64` for the same coordinates. Nothing is drawn from a
//!   shared stream, so no task can perturb another.
//! * **Shared atomic cursor.** Workers pull the next task id from one
//!   `AtomicUsize`; the *assignment* of tasks to workers is racy and
//!   irrelevant, the *computation* of each task is pure.
//! * **A fresh simulator per cell.** Every task builds its own
//!   [`crate::BatchSim`]; no state outlives a cell.
//!
//! The pool earns its lines with a measured speed-up: `perf_smoke`'s
//! fairness section times its 512-cell campaign at one worker and at
//! `available_parallelism()`, and the full run fails below 1.3× on a
//! machine with two or more cores.
//!
//! Plain `std::thread::scope` threads — no external runtime — keep the
//! workspace fully offline-buildable.

use crate::experiment::{
    run_experiment_streamed, ExperimentConfig, ExperimentResult, IngestOptions,
};
use dynbatch_simtime::SplitMix64;
use dynbatch_workload::WorkloadItem;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a requested worker count: `0` means "one per available core".
/// The result is always at least 1.
pub fn worker_count(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `tasks` independent closures on `workers` threads and returns
/// their results **indexed by task id** — element `i` is `run(i)`,
/// regardless of which worker computed it or when.
///
/// `run` must derive everything from its task index (it is called exactly
/// once per index). A panic in any task propagates to the caller after
/// the scope unwinds.
pub fn parallel_tasks<T, F>(tasks: usize, workers: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = worker_count(workers).min(tasks.max(1));
    let cursor = AtomicUsize::new(0);
    let worker_loop = || {
        let mut out: Vec<(usize, T)> = Vec::new();
        loop {
            let idx = cursor.fetch_add(1, Ordering::Relaxed);
            if idx >= tasks {
                break;
            }
            out.push((idx, run(idx)));
        }
        out
    };

    let produced: Vec<Vec<(usize, T)>> = if workers <= 1 {
        vec![worker_loop()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker_loop)).collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        })
    };

    // Land every result in its task-id slot: the output order is a pure
    // function of the task matrix, not of thread scheduling.
    let mut slots: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
    for (idx, value) in produced.into_iter().flatten() {
        debug_assert!(slots[idx].is_none(), "task {idx} computed twice");
        slots[idx] = Some(value);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every task id was claimed exactly once"))
        .collect()
}

/// A decorrelated per-task RNG stream for custom sweep bodies: two
/// distinct `(config_index, seed)` coordinates never share a stream, and
/// the stream is independent of worker count by construction.
pub fn task_rng(config_index: usize, seed: u64) -> SplitMix64 {
    // One SplitMix64 step over the mixed coordinates decorrelates
    // neighbouring seeds (seed, seed+1, ...) into unrelated streams.
    let mixed = seed ^ (config_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    SplitMix64::new(SplitMix64::new(mixed).next_u64())
}

/// One cell of the sweep matrix with its result.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Index into the `configs` slice passed to [`run_sweep`].
    pub config: usize,
    /// The seed this run used.
    pub seed: u64,
    /// Everything the run produced.
    pub result: ExperimentResult,
}

/// Runs the full `(config × seed)` matrix and returns results in
/// row-major task order (`config` major, `seed` minor) — exactly the
/// order two nested serial loops would produce, whatever `workers` is.
///
/// `generate` builds the workload **stream** for one cell from its
/// configuration and seed; it must be a pure function of those two
/// values. The stream is admitted lazily through the default lookahead
/// window, so per-worker peak memory is O(window) rather than O(trace) —
/// a materialized `Vec` still works via `.into_iter()`. `workers = 0`
/// uses one worker per available core; `workers = 1` degrades to the
/// serial loop (same code path, same results).
pub fn run_sweep<G, S>(
    configs: &[ExperimentConfig],
    seeds: &[u64],
    workers: usize,
    generate: G,
) -> Vec<SweepResult>
where
    G: Fn(&ExperimentConfig, u64) -> S + Sync,
    S: Iterator<Item = WorkloadItem>,
{
    if configs.is_empty() || seeds.is_empty() {
        return Vec::new();
    }
    let tasks = configs.len() * seeds.len();
    let opts = IngestOptions::default();
    parallel_tasks(tasks, workers, |idx| {
        let config = idx / seeds.len();
        let seed = seeds[idx % seeds.len()];
        let cfg = &configs[config];
        SweepResult {
            config,
            seed,
            result: run_experiment_streamed(cfg, generate(cfg, seed), &opts),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynbatch_core::{CredRegistry, DfsConfig, SchedulerConfig};
    use dynbatch_workload::{generate_synthetic, SyntheticConfig};

    fn small_config(label: &str, dfs: DfsConfig) -> ExperimentConfig {
        let mut sched = SchedulerConfig::paper_eval();
        sched.dfs = dfs;
        ExperimentConfig {
            label: label.into(),
            nodes: 4,
            cores_per_node: 8,
            sched,
        }
    }

    fn gen(_cfg: &ExperimentConfig, seed: u64) -> Vec<WorkloadItem> {
        let mut reg = CredRegistry::new();
        generate_synthetic(
            &SyntheticConfig {
                jobs: 12,
                seed,
                total_cores: 32,
                cores: (1, 16),
                ..Default::default()
            },
            &mut reg,
        )
    }

    #[test]
    fn parallel_tasks_results_are_task_indexed() {
        for workers in [1, 2, 3, 7] {
            let out = parallel_tasks(23, workers, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_tasks_handles_edge_sizes() {
        assert!(parallel_tasks(0, 4, |i| i).is_empty());
        assert_eq!(parallel_tasks(1, 8, |i| i + 1), vec![1]);
    }

    #[test]
    fn task_rng_streams_are_decorrelated() {
        let a: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(task_rng(0, 1), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(task_rng(0, 2), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(task_rng(1, 1), |r, _| Some(r.next_u64()))
            .collect();
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Same coordinates → same stream, wherever/whenever it runs.
        let a2: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(task_rng(0, 1), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, a2);
    }

    #[test]
    fn sweep_is_worker_count_independent() {
        let configs = vec![
            small_config("hp", DfsConfig::highest_priority()),
            small_config(
                "capped",
                DfsConfig::uniform_target(200, dynbatch_core::SimDuration::from_hours(1)),
            ),
        ];
        let seeds = vec![1, 2, 3];
        let serial = run_sweep(&configs, &seeds, 1, |c, s| gen(c, s).into_iter());
        for workers in [2, 3, 5] {
            let parallel = run_sweep(&configs, &seeds, workers, |c, s| gen(c, s).into_iter());
            assert_eq!(serial.len(), parallel.len());
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(s.config, p.config);
                assert_eq!(s.seed, p.seed);
                assert_eq!(s.result.summary, p.result.summary);
                assert_eq!(s.result.outcomes, p.result.outcomes);
                assert_eq!(s.result.stats, p.result.stats);
            }
        }
    }

    #[test]
    fn sweep_matches_fresh_serial_experiments() {
        let configs = vec![small_config("hp", DfsConfig::highest_priority())];
        let seeds = vec![7, 8];
        let swept = run_sweep(&configs, &seeds, 2, |c, s| gen(c, s).into_iter());
        for cell in &swept {
            let fresh =
                crate::experiment::run_experiment(&configs[0], &gen(&configs[0], cell.seed));
            assert_eq!(cell.result.summary, fresh.summary);
            assert_eq!(cell.result.outcomes, fresh.outcomes);
            assert_eq!(cell.result.stats, fresh.stats);
        }
    }

    #[test]
    fn empty_axes_yield_empty_sweeps() {
        let configs = vec![small_config("hp", DfsConfig::highest_priority())];
        assert!(run_sweep(&configs, &[], 4, |c, s| gen(c, s).into_iter()).is_empty());
        assert!(run_sweep(&[], &[1], 4, |c, s| gen(c, s).into_iter()).is_empty());
    }
}
