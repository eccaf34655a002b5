//! Streaming ingestion equality suite: for every workload source, a
//! replay through the lazy bounded-lookahead pipeline must be
//! byte-identical — end-state fingerprint, summary, per-job outcomes,
//! simulator counters — to the eager materialize-everything path, at
//! every lookahead window. Plus the interaction corners the pipeline
//! introduces: qdel of a not-yet-streamed submission, low-memory
//! retention against full retention, and the bounded-residency guarantee
//! itself.

use dynbatch::cluster::Cluster;
use dynbatch::core::{
    CredRegistry, DfsConfig, FairshareMode, SchedulerConfig, SimDuration, SimTime,
};
use dynbatch::sim::{
    run_experiment_materialized, run_experiment_streamed, BatchSim, ExperimentConfig, IngestOptions,
};
use dynbatch::workload::{
    stream_esp, stream_quadflow, stream_synthetic, EspConfig, QuadflowConfig, SwfConfig, SwfSource,
    SyntheticConfig, WorkloadItem,
};

fn config() -> ExperimentConfig {
    let mut sched = SchedulerConfig::paper_eval();
    sched.dfs = DfsConfig::uniform_target(500, SimDuration::from_hours(1));
    ExperimentConfig::paper_cluster("ingest-eq", sched)
}

/// A synthetic mix the 120-core paper cluster is not overloaded by, so
/// queues stay short and the suite stays fast.
fn synth_cfg(seed: u64, jobs: usize) -> SyntheticConfig {
    SyntheticConfig {
        seed,
        jobs,
        users: 6,
        total_cores: 120,
        mean_interarrival: SimDuration::from_secs(30),
        runtime_secs: (60, 900),
        cores: (1, 8),
        evolving_fraction: 0.3,
        extra_cores: 4,
        det_factor: 0.7,
    }
}

const WINDOWS: [SimDuration; 2] = [SimDuration::ZERO, SimDuration::from_hours(2)];

/// Runs one workload through the materialized path (the reference) and
/// through the streamed path at both windows, asserting full equality.
fn assert_stream_matches<F, S>(label: &str, make_stream: F)
where
    F: Fn() -> S,
    S: Iterator<Item = WorkloadItem>,
{
    assert_stream_matches_under(config(), label, make_stream)
}

fn assert_stream_matches_under<F, S>(cfg: ExperimentConfig, label: &str, make_stream: F)
where
    F: Fn() -> S,
    S: Iterator<Item = WorkloadItem>,
{
    let opts = IngestOptions {
        fingerprint: true,
        ..Default::default()
    };
    let items: Vec<WorkloadItem> = make_stream().collect();
    let reference = run_experiment_materialized(&cfg, &items, &opts);
    assert!(reference.fingerprint.is_some());
    for window in WINDOWS {
        let streamed = run_experiment_streamed(
            &cfg,
            make_stream(),
            &IngestOptions {
                window,
                ..opts.clone()
            },
        );
        assert_eq!(
            streamed.fingerprint, reference.fingerprint,
            "{label}: fingerprint diverged at window {window}"
        );
        assert_eq!(
            streamed.summary, reference.summary,
            "{label}: summary diverged at window {window}"
        );
        assert_eq!(
            streamed.outcomes, reference.outcomes,
            "{label}: outcomes diverged at window {window}"
        );
        assert_eq!(
            streamed.stats, reference.stats,
            "{label}: stats diverged at window {window}"
        );
    }
}

/// Time-aware fairness parity: decayed-usage fairshare (with demotion
/// budgets and a heavy-user DFS penalty in play) reads server state
/// through the published usage snapshot, so the streamed pipeline must
/// stay byte-identical to the materialized reference under it too.
#[test]
fn time_aware_fairness_streams_equal_materialized() {
    let mut cfg = config();
    cfg.sched.fairshare.enabled = true;
    cfg.sched.fairshare.mode = FairshareMode::TimeAware;
    cfg.sched.fairshare.half_life = SimDuration::from_hours(6);
    cfg.sched.fairshare.default_target = 0.15;
    cfg.sched.fairshare.user_budget_core_hours = Some(40.0);
    for seed in [1u64, 2] {
        assert_stream_matches_under(cfg.clone(), &format!("time-aware seed {seed}"), || {
            let mut reg = CredRegistry::new();
            stream_synthetic(&synth_cfg(seed, 60), &mut reg)
        });
    }
}

#[test]
fn esp_streams_equal_materialized() {
    for seed in [1u64, 2, 3] {
        assert_stream_matches(&format!("esp seed {seed}"), || {
            let mut wl = EspConfig::paper_dynamic();
            wl.seed = seed;
            let mut reg = CredRegistry::new();
            stream_esp(&wl, &mut reg)
        });
    }
}

#[test]
fn quadflow_streams_equal_materialized() {
    for seed in [1u64, 2, 3] {
        assert_stream_matches(&format!("quadflow seed {seed}"), || {
            let mut reg = CredRegistry::new();
            stream_quadflow(
                &QuadflowConfig {
                    seed,
                    jobs: 14,
                    ..Default::default()
                },
                &mut reg,
            )
        });
    }
}

#[test]
fn synthetic_streams_equal_materialized() {
    for seed in [1u64, 2, 3] {
        assert_stream_matches(&format!("synthetic seed {seed}"), || {
            let mut reg = CredRegistry::new();
            stream_synthetic(&synth_cfg(seed, 60), &mut reg)
        });
    }
}

#[test]
fn swf_file_streams_equal_materialized() {
    use dynbatch::workload::{parse_swf, write_swf};
    for seed in [1u64, 2, 3] {
        // A trace on disk (here: in a string) parsed twice — slurped
        // eagerly vs streamed through a deliberately tiny BufRead.
        let text = {
            let mut reg = CredRegistry::new();
            let items: Vec<WorkloadItem> =
                stream_synthetic(&synth_cfg(seed, 60), &mut reg).collect();
            write_swf(&items, &reg)
        };
        let swf_cfg = SwfConfig {
            evolving_fraction: 0.25,
            seed,
            ..Default::default()
        };
        let cfg = config();
        let opts = IngestOptions {
            fingerprint: true,
            ..Default::default()
        };
        let mut reg = CredRegistry::new();
        let items = parse_swf(&text, &swf_cfg, &mut reg).expect("trace parses");
        let reference = run_experiment_materialized(&cfg, &items, &opts);
        for window in WINDOWS {
            let reader = std::io::BufReader::with_capacity(8, text.as_bytes());
            let mut src = SwfSource::with_own_registry(reader, swf_cfg.clone());
            let streamed = run_experiment_streamed(
                &cfg,
                &mut src,
                &IngestOptions {
                    window,
                    ..opts.clone()
                },
            );
            assert!(src.error().is_none());
            assert_eq!(
                streamed.fingerprint, reference.fingerprint,
                "swf seed {seed}"
            );
            assert_eq!(streamed.summary, reference.summary);
            assert_eq!(streamed.outcomes, reference.outcomes);
            assert_eq!(streamed.stats, reference.stats);
        }
    }
}

/// The lazy-cancellation corner: a qdel aimed at a submission the stream
/// has not yet produced must cancel it cleanly — never resurrect it when
/// the lookahead window finally reaches its index — and must equal the
/// eager path, where the same qdel cancels an already-scheduled Submit.
#[test]
fn qdel_of_unstreamed_submission_cancels_cleanly() {
    let wl_cfg = synth_cfg(11, 30);
    let sched = config().sched;
    let items: Vec<WorkloadItem> = {
        let mut reg = CredRegistry::new();
        stream_synthetic(&wl_cfg, &mut reg).collect()
    };
    let victim = 25u32; // late in the trace
    let qdel_at = SimTime::ZERO + SimDuration::from_secs(5);
    assert!(
        items[victim as usize].at > qdel_at + SimDuration::from_mins(1),
        "victim must submit well after the qdel fires"
    );

    // Eager: every Submit already scheduled; the qdel cancels the token.
    let mut eager = BatchSim::new(Cluster::homogeneous(15, 8), sched.clone());
    eager.load(&items);
    eager.inject_qdel(qdel_at, victim);
    eager.run();
    assert!(eager.server().is_drained());

    // Streamed, zero window: at qdel time the victim is far beyond the
    // admission horizon, so the qdel marks a not-yet-admitted index.
    let mut streamed = BatchSim::new(Cluster::homogeneous(15, 8), sched);
    streamed.inject_qdel(qdel_at, victim);
    streamed.run_streamed(items.iter().cloned(), SimDuration::ZERO);
    assert!(streamed.server().is_drained());

    for sim in [&eager, &streamed] {
        assert_eq!(sim.stats().qdels, 1);
        // The victim never became a job: one fewer outcome than items.
        assert_eq!(sim.server().accounting().recorded(), items.len() as u64 - 1);
    }
    assert_eq!(eager.stats(), streamed.stats());
    assert_eq!(
        eager.server().accounting().digest(),
        streamed.server().accounting().digest()
    );
    assert_eq!(
        eager.server().state_digest(),
        streamed.server().state_digest()
    );
}

/// Low-memory mode drops the O(trace) side buffers and nothing else: on
/// fresh simulators, a low-memory streamed run keeps no outcomes but
/// reports the accounting digest, summary and counters of the
/// full-retention run over the same stream, for two different workloads.
#[test]
fn streamed_low_memory_matches_full_retention() {
    let cfg = config();
    let full = IngestOptions {
        fingerprint: true,
        ..Default::default()
    };
    let low_memory = IngestOptions {
        low_memory: true,
        ..full.clone()
    };
    let make = |seed: u64| {
        let mut reg = CredRegistry::new();
        stream_synthetic(&synth_cfg(seed, 50), &mut reg)
    };
    for seed in [4, 5] {
        let kept = run_experiment_streamed(&cfg, make(seed), &full);
        let low = run_experiment_streamed(&cfg, make(seed), &low_memory);
        assert!(!kept.outcomes.is_empty());
        assert!(low.outcomes.is_empty(), "low-memory retains no outcomes");
        assert_eq!(
            low.fingerprint.as_ref().unwrap().accounting_digest,
            kept.fingerprint.as_ref().unwrap().accounting_digest,
            "the accounting digest is retention-mode independent"
        );
        assert_eq!(low.summary, kept.summary);
        assert_eq!(low.stats, kept.stats);
    }
}

/// The bounded-residency guarantee itself: a long trace replayed through
/// a small window keeps admitted-but-unsubmitted residency proportional
/// to the window, not the trace.
#[test]
fn streamed_admission_residency_is_window_bounded() {
    let jobs = 3000usize;
    let wl_cfg = SyntheticConfig {
        mean_interarrival: SimDuration::from_secs(20),
        ..synth_cfg(9, jobs)
    };
    let window = SimDuration::from_mins(30);
    let mut reg = CredRegistry::new();
    let mut sim = BatchSim::new(Cluster::homogeneous(15, 8), config().sched);
    sim.set_low_memory(true);
    sim.run_streamed(stream_synthetic(&wl_cfg, &mut reg), window);
    assert!(sim.server().is_drained());
    assert_eq!(sim.server().accounting().totals().jobs, jobs as u64);
    // ~90 arrivals fit a 30-minute window at 20 s mean interarrival;
    // leave generous headroom for queue-horizon effects, but stay far
    // below the trace length (an eager load would peak at 3000).
    let peak = sim.admission_peak();
    assert!(
        peak <= 800,
        "admission residency {peak} is not window-bounded"
    );

    // And the eager path really does peak at the trace length — the
    // contrast the pipeline exists to remove.
    let mut reg = CredRegistry::new();
    let items: Vec<WorkloadItem> = stream_synthetic(&wl_cfg, &mut reg).collect();
    let mut eager = BatchSim::new(Cluster::homogeneous(15, 8), config().sched);
    eager.load(&items);
    assert_eq!(eager.admission_peak(), jobs);
}
