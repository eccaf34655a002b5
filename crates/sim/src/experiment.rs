//! Experiment runner: workload in, paper-style results out.
//!
//! Wraps a full [`BatchSim`] run into the aggregates the paper reports —
//! a Table-II row ([`RunSummary`]), the per-job outcomes behind the
//! waiting-time figures, and the simulator counters.

use crate::batch_sim::{BatchSim, SimStats, DEFAULT_LOOKAHEAD};
use dynbatch_cluster::Cluster;
use dynbatch_core::{JobOutcome, SchedulerConfig, SimDuration};
use dynbatch_metrics::RunSummary;
use dynbatch_workload::WorkloadItem;

/// Cluster geometry plus scheduler configuration for one run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Display label ("Static", "Dyn-HP", ...).
    pub label: String,
    /// Number of compute nodes (the paper: 15).
    pub nodes: u32,
    /// Cores per node (the paper: 8).
    pub cores_per_node: u32,
    /// The full scheduler configuration.
    pub sched: SchedulerConfig,
}

impl ExperimentConfig {
    /// The paper's testbed (15 × 8 cores) under `sched`.
    pub fn paper_cluster(label: impl Into<String>, sched: SchedulerConfig) -> Self {
        ExperimentConfig {
            label: label.into(),
            nodes: 15,
            cores_per_node: 8,
            sched,
        }
    }
}

/// How a run ingests its workload and what it retains.
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Streamed ingestion's lookahead window: submissions enter the event
    /// queue no further than this beyond the earliest pending event.
    pub window: SimDuration,
    /// Disable every O(trace) side buffer (per-job outcomes, utilization
    /// samples, the dynamic-decision log); aggregates and digests still
    /// accumulate. `ExperimentResult::outcomes` comes back empty.
    pub low_memory: bool,
    /// Capture a [`RunFingerprint`] of the end state, for byte-equality
    /// comparisons between ingestion modes.
    pub fingerprint: bool,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            window: DEFAULT_LOOKAHEAD,
            low_memory: false,
            fingerprint: false,
        }
    }
}

/// An end-of-run identity check: two runs over the same workload under
/// the same configuration and retention mode must produce equal
/// fingerprints, whatever their ingestion mode or lookahead window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunFingerprint {
    /// The server's full-state digest (jobs, cluster, allocator, plus
    /// retained outcomes when retention is on).
    pub state_digest: String,
    /// The accounting ledger's rolling FNV-1a digest over every recorded
    /// outcome — retention-mode independent by construction.
    pub accounting_digest: u64,
}

/// Everything a run produced.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The Table-II row.
    pub summary: RunSummary,
    /// Per-job outcomes (for the waiting-time figures). Empty when the
    /// run used [`IngestOptions::low_memory`].
    pub outcomes: Vec<JobOutcome>,
    /// Simulator counters.
    pub stats: SimStats,
    /// End-state fingerprint, when [`IngestOptions::fingerprint`] asked
    /// for one.
    pub fingerprint: Option<RunFingerprint>,
}

/// Runs `workload` to completion under `cfg` and aggregates the results.
///
/// # Panics
/// If the workload does not drain (a job neither finishes nor is killed —
/// impossible for well-formed workloads).
pub fn run_experiment(cfg: &ExperimentConfig, workload: &[WorkloadItem]) -> ExperimentResult {
    let cluster = Cluster::homogeneous(cfg.nodes, cfg.cores_per_node);
    let mut sim = BatchSim::new(cluster, cfg.sched.clone());
    run_loaded(&mut sim, cfg, workload)
}

/// Like [`run_experiment`], but recycles an existing simulator via
/// [`BatchSim::reset`] instead of constructing a fresh one — the sweep
/// engine's per-worker fast path. Results are bit-identical to
/// [`run_experiment`] (the `reset_reuse_matches_fresh` test pins it).
pub fn run_experiment_on(
    sim: &mut BatchSim,
    cfg: &ExperimentConfig,
    workload: &[WorkloadItem],
) -> ExperimentResult {
    sim.reset(
        Cluster::homogeneous(cfg.nodes, cfg.cores_per_node),
        cfg.sched.clone(),
    );
    run_loaded(sim, cfg, workload)
}

/// Like [`run_experiment`], but ingests the workload through a stream
/// with a bounded lookahead window: per-run peak memory is O(window),
/// independent of trace length. Results are identical to the eager path
/// for any window (the streaming-ingest test suite pins it).
pub fn run_experiment_streamed<S>(
    cfg: &ExperimentConfig,
    stream: S,
    opts: &IngestOptions,
) -> ExperimentResult
where
    S: Iterator<Item = WorkloadItem>,
{
    let cluster = Cluster::homogeneous(cfg.nodes, cfg.cores_per_node);
    let mut sim = BatchSim::new(cluster, cfg.sched.clone());
    run_experiment_streamed_on(&mut sim, cfg, stream, opts)
}

/// [`run_experiment_streamed`] over a recycled simulator — the sweep
/// engine's per-worker fast path in streaming form.
pub fn run_experiment_streamed_on<S>(
    sim: &mut BatchSim,
    cfg: &ExperimentConfig,
    stream: S,
    opts: &IngestOptions,
) -> ExperimentResult
where
    S: Iterator<Item = WorkloadItem>,
{
    sim.reset(
        Cluster::homogeneous(cfg.nodes, cfg.cores_per_node),
        cfg.sched.clone(),
    );
    sim.set_low_memory(opts.low_memory);
    sim.run_streamed(stream, opts.window);
    finish(sim, cfg, opts)
}

/// The eager counterpart of [`run_experiment_streamed`]: materialized
/// ingestion under the same [`IngestOptions`] (for apples-to-apples
/// memory and fingerprint comparisons).
pub fn run_experiment_materialized(
    cfg: &ExperimentConfig,
    workload: &[WorkloadItem],
    opts: &IngestOptions,
) -> ExperimentResult {
    let cluster = Cluster::homogeneous(cfg.nodes, cfg.cores_per_node);
    let mut sim = BatchSim::new(cluster, cfg.sched.clone());
    sim.set_low_memory(opts.low_memory);
    sim.load(workload);
    sim.run();
    finish(&mut sim, cfg, opts)
}

/// The shared tail of both entry points: `sim` must be in the fresh (or
/// just-reset) state for `cfg`.
fn run_loaded(
    sim: &mut BatchSim,
    cfg: &ExperimentConfig,
    workload: &[WorkloadItem],
) -> ExperimentResult {
    sim.load(workload);
    sim.run();
    finish(sim, cfg, &IngestOptions::default())
}

/// Aggregates a completed run. The summary is computed from the
/// accounting ledger's O(1) running totals — identical arithmetic to
/// [`RunSummary::from_outcomes`], but independent of whether per-job
/// outcomes were retained.
fn finish(sim: &mut BatchSim, cfg: &ExperimentConfig, opts: &IngestOptions) -> ExperimentResult {
    assert!(
        sim.server().is_drained(),
        "{}: workload did not drain ({} jobs stuck)",
        cfg.label,
        sim.server().queued_count() + sim.server().active_count()
    );

    let outcomes: Vec<JobOutcome> = sim.server().accounting().outcomes().to_vec();
    let end = sim.last_completion();
    let utilization = sim.utilization().utilization(end);
    let summary = RunSummary::from_totals(
        cfg.label.clone(),
        sim.server().accounting().totals(),
        sim.first_submit(),
        end,
        utilization,
    );
    let fingerprint = opts.fingerprint.then(|| RunFingerprint {
        state_digest: sim.server().state_digest(),
        accounting_digest: sim.server().accounting().digest(),
    });
    ExperimentResult {
        summary,
        outcomes,
        stats: sim.stats(),
        fingerprint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynbatch_core::{CredRegistry, DfsConfig, SimDuration};
    use dynbatch_workload::{generate_esp, EspConfig};

    fn sched(dfs: DfsConfig) -> SchedulerConfig {
        let mut cfg = SchedulerConfig::paper_eval();
        cfg.dfs = dfs;
        cfg
    }

    #[test]
    fn small_synthetic_run_drains() {
        use dynbatch_workload::{generate_synthetic, SyntheticConfig};
        let mut reg = CredRegistry::new();
        let wl = generate_synthetic(
            &SyntheticConfig {
                jobs: 40,
                ..Default::default()
            },
            &mut reg,
        );
        let cfg = ExperimentConfig::paper_cluster("synth", sched(DfsConfig::highest_priority()));
        let res = run_experiment(&cfg, &wl);
        assert_eq!(res.outcomes.len(), 40);
        assert!(res.summary.utilization > 0.0);
        assert!(res.summary.makespan > SimDuration::ZERO);
    }

    #[test]
    fn esp_static_run_matches_paper_shape() {
        let mut reg = CredRegistry::new();
        let wl = generate_esp(&EspConfig::paper_static(), &mut reg);
        let cfg = ExperimentConfig::paper_cluster("Static", sched(DfsConfig::highest_priority()));
        let res = run_experiment(&cfg, &wl);
        assert_eq!(res.outcomes.len(), 230);
        assert_eq!(res.summary.satisfied_dyn_jobs, 0);
        // Paper: 265.78 min at 77.45 % utilization. Our rounding of job
        // sizes shifts totals a little; assert the ballpark.
        let mins = res.summary.makespan.as_mins_f64();
        assert!((200.0..330.0).contains(&mins), "makespan {mins} min");
        assert!(
            (0.60..0.92).contains(&res.summary.utilization),
            "util {}",
            res.summary.utilization
        );
    }

    #[test]
    fn esp_dynamic_hp_beats_static() {
        let mut reg = CredRegistry::new();
        let static_wl = generate_esp(&EspConfig::paper_static(), &mut reg);
        let dyn_wl = generate_esp(&EspConfig::paper_dynamic(), &mut reg);

        let st = run_experiment(
            &ExperimentConfig::paper_cluster("Static", sched(DfsConfig::highest_priority())),
            &static_wl,
        );
        let hp = run_experiment(
            &ExperimentConfig::paper_cluster("Dyn-HP", sched(DfsConfig::highest_priority())),
            &dyn_wl,
        );
        // The paper's headline: dynamic allocation shortens the workload
        // and raises utilization and throughput.
        assert!(hp.summary.satisfied_dyn_jobs > 0);
        assert!(
            hp.summary.makespan < st.summary.makespan,
            "dyn {} vs static {}",
            hp.summary.makespan,
            st.summary.makespan
        );
        assert!(hp.summary.throughput_jobs_per_min > st.summary.throughput_jobs_per_min);
    }

    #[test]
    fn reset_reuse_matches_fresh() {
        // One simulator recycled across *different* configurations and
        // workloads must reproduce fresh-simulator results bit for bit —
        // the property the sweep engine's allocation recycling rests on.
        let mut reg = CredRegistry::new();
        let static_wl = generate_esp(&EspConfig::paper_static(), &mut reg);
        let dyn_wl = generate_esp(&EspConfig::paper_dynamic(), &mut reg);
        let cfg_static =
            ExperimentConfig::paper_cluster("Static", sched(DfsConfig::highest_priority()));
        let cfg_dyn = ExperimentConfig::paper_cluster(
            "Dyn-500",
            sched(DfsConfig::uniform_target(500, SimDuration::from_hours(1))),
        );

        let mut sim = crate::BatchSim::new(
            Cluster::homogeneous(cfg_dyn.nodes, cfg_dyn.cores_per_node),
            cfg_dyn.sched.clone(),
        );
        // Dirty the simulator with a full dynamic run, then reuse it for
        // both configurations in both orders.
        let first = crate::experiment::run_experiment_on(&mut sim, &cfg_dyn, &dyn_wl);
        let timeline = sim.maui().timeline_stats();
        assert_eq!(timeline.rebuilds, 1, "only the first cycle may rebuild");
        assert!(timeline.delta_batches > 0 && timeline.deltas_applied > 0);
        let reused_static = crate::experiment::run_experiment_on(&mut sim, &cfg_static, &static_wl);
        let reused_dyn = crate::experiment::run_experiment_on(&mut sim, &cfg_dyn, &dyn_wl);
        // Reset starts from a clean epoch: one rebuild again, the same
        // deltas.
        assert_eq!(
            sim.maui().timeline_stats(),
            timeline,
            "reset must not leak timeline state"
        );

        let fresh_static = run_experiment(&cfg_static, &static_wl);
        let fresh_dyn = run_experiment(&cfg_dyn, &dyn_wl);
        for (reused, fresh) in [
            (&first, &fresh_dyn),
            (&reused_static, &fresh_static),
            (&reused_dyn, &fresh_dyn),
        ] {
            assert_eq!(reused.summary, fresh.summary);
            assert_eq!(reused.outcomes, fresh.outcomes);
            assert_eq!(reused.stats, fresh.stats);
        }
    }

    #[test]
    fn deterministic_experiments() {
        let mut reg = CredRegistry::new();
        let wl = generate_esp(&EspConfig::paper_dynamic(), &mut reg);
        let cfg = ExperimentConfig::paper_cluster("Dyn-HP", sched(DfsConfig::highest_priority()));
        let a = run_experiment(&cfg, &wl);
        let b = run_experiment(&cfg, &wl);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.stats, b.stats);
    }
}
