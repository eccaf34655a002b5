//! Time-aware fairness: end-to-end pins.
//!
//! Three properties the decayed resource-hour machinery must hold at the
//! system level (the unit-level decay/attribution math lives in
//! `dynbatch-sched`):
//!
//! 1. **Static inertness** — with `FairshareMode::Static` (the default),
//!    every new knob (half-life, budgets, targets) is inert: runs are
//!    byte-identical to a config that never mentions them. This is the
//!    "no behaviour change unless opted in" contract of the mode axis.
//! 2. **Determinism** — time-aware runs are byte-identical across
//!    sweep worker counts: fairness state is fed from the journalled
//!    ledger, never from scheduling order noise.
//! 3. **Demote, not deny** — an over-budget owner's job ranks behind
//!    in-budget work but still runs when nothing else wants the cores.

use dynbatch::core::{
    CredRegistry, DfsConfig, FairshareMode, JobId, QueueId, SchedulerConfig, SimDuration, SimTime,
    UserId,
};
use dynbatch::sched::{Maui, QueuedJob, Snapshot, UsageHistory};
use dynbatch::sim::{run_experiment_materialized, run_sweep, ExperimentConfig, IngestOptions};
use dynbatch::workload::{stream_synthetic, SyntheticConfig, WorkloadItem};

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

fn base() -> ExperimentConfig {
    let mut sched = SchedulerConfig::paper_eval();
    sched.dfs = DfsConfig::uniform_target(500, SimDuration::from_hours(1));
    ExperimentConfig::paper_cluster("fairness", sched)
}

fn time_aware(mut cfg: ExperimentConfig) -> ExperimentConfig {
    cfg.sched.fairshare.enabled = true;
    cfg.sched.fairshare.mode = FairshareMode::TimeAware;
    cfg.sched.fairshare.half_life = SimDuration::from_hours(6);
    cfg.sched.fairshare.default_target = 0.15;
    cfg.sched.fairshare.user_budget_core_hours = Some(40.0);
    cfg
}

fn items(seed: u64) -> Vec<WorkloadItem> {
    let mut reg = CredRegistry::new();
    stream_synthetic(&synth_cfg(seed, 60), &mut reg).collect()
}

fn fingerprinted(
    cfg: &ExperimentConfig,
    workload: &[WorkloadItem],
) -> dynbatch::sim::ExperimentResult {
    run_experiment_materialized(
        cfg,
        workload,
        &IngestOptions {
            fingerprint: true,
            ..Default::default()
        },
    )
}

/// Static mode must not see the time-aware knobs at all: a config that
/// sets half-life, budgets and targets — but keeps `mode: Static` — runs
/// byte-identically to one that never mentions them.
#[test]
fn static_mode_ignores_time_aware_knobs() {
    let plain = base();
    let mut knobbed = base();
    knobbed.sched.fairshare.default_target = 0.9;
    knobbed.sched.fairshare.user_budget_core_hours = Some(0.001);
    knobbed.sched.fairshare.queue_budget_core_hours = Some(0.001);
    knobbed.sched.fairshare.budget_demotion = 1e12;
    // The half-life is the one knob that *is* server state even in Static
    // mode (the decayed accounts are always maintained, journal-durable,
    // just unread), so it is excluded from the state-digest comparison
    // below and pinned behaviourally instead.
    let mut halved = base();
    halved.sched.fairshare.half_life = SimDuration::from_mins(7);
    for seed in [1u64, 2] {
        let wl = items(seed);
        let a = fingerprinted(&plain, &wl);
        let b = fingerprinted(&knobbed, &wl);
        assert_eq!(a.fingerprint, b.fingerprint, "seed {seed}");
        assert_eq!(a.summary, b.summary, "seed {seed}");
        assert_eq!(a.outcomes, b.outcomes, "seed {seed}");
        assert_eq!(a.stats, b.stats, "seed {seed}");
        let c = fingerprinted(&halved, &wl);
        assert_eq!(
            a.fingerprint.as_ref().unwrap().accounting_digest,
            c.fingerprint.as_ref().unwrap().accounting_digest,
            "seed {seed}: half-life must not steer Static scheduling"
        );
        assert_eq!(a.summary, c.summary, "seed {seed}");
        assert_eq!(a.outcomes, c.outcomes, "seed {seed}");
        assert_eq!(a.stats, c.stats, "seed {seed}");
    }
}

/// Time-aware sweeps are worker-count independent (the sweep engine
/// recycles simulators across runs; fairness state must fully reset).
#[test]
fn time_aware_sweep_is_worker_count_independent() {
    let configs = [base(), time_aware(base())];
    let seeds = [1u64, 2, 3];
    let run = |workers: usize| {
        run_sweep(&configs, &seeds, workers, |_, seed| {
            let mut reg = CredRegistry::new();
            stream_synthetic(&synth_cfg(seed, 40), &mut reg)
        })
    };
    let serial = run(1);
    let parallel = run(3);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!((a.config, a.seed), (b.config, b.seed));
        assert_eq!(a.result.summary, b.result.summary);
        assert_eq!(a.result.stats, b.result.stats);
    }
}

/// Budget semantics: over-budget owners' jobs are demoted behind
/// in-budget work — but never denied. Alone, the demoted job runs.
#[test]
fn over_budget_user_is_demoted_not_denied() {
    let mut sched = SchedulerConfig::paper_eval();
    sched.dfs = DfsConfig::highest_priority();
    sched.fairshare.enabled = true;
    sched.fairshare.mode = FairshareMode::TimeAware;
    sched.fairshare.user_budget_core_hours = Some(10.0);

    // User 0 has burned 20 decayed core-hours — double its budget.
    let mut hist = UsageHistory::new(sched.fairshare.half_life, 8);
    hist.charge(UserId(0), QueueId(0), 20 * 3_600_000, SimTime::ZERO);

    let qjob = |id: u64, user: u32, submit_s: u64| QueuedJob {
        id: JobId(id),
        user: UserId(user),
        group: dynbatch::core::GroupId(user),
        queue: QueueId(user),
        cores: 8,
        walltime: SimDuration::from_secs(600),
        submit_time: SimTime::from_secs(submit_s),
        priority_boost: 0,
        suppress_backfill_while_queued: false,
        reserve_extra: 0,
        moldable: None,
    };
    let snap = |queued: Vec<QueuedJob>| Snapshot {
        now: SimTime::from_secs(5_000),
        total_cores: 8,
        running: Default::default(),
        queued: queued.into(),
        dyn_requests: Vec::new(),
        usage: Some(hist.snapshot(SimTime::from_secs(5_000))),
        deltas: None,
    };

    // Contended: the over-budget user submitted *earlier* (a big
    // queue-time edge) yet the in-budget user's job starts.
    let mut maui = Maui::new(sched.clone());
    let out = maui.iterate(&snap(vec![qjob(1, 0, 0), qjob(2, 1, 4_000)]));
    assert_eq!(out.starts.len(), 1);
    assert_eq!(out.starts[0].job, JobId(2), "in-budget user runs first");

    // Alone: demotion is not denial — the same job starts immediately.
    let mut maui = Maui::new(sched);
    let out = maui.iterate(&snap(vec![qjob(1, 0, 0)]));
    assert_eq!(out.starts.len(), 1);
    assert_eq!(out.starts[0].job, JobId(1), "demoted, never denied");
}
