//! Fairshare usage accounting: end-to-end pins.
//!
//! Properties the decayed resource-hour machinery — and the feed both
//! fairshare modes draw on — must hold at the system level (the
//! unit-level decay/attribution math lives in `dynbatch-sched`):
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
//! 4. **One feed, every driver** — the static tracker is charged from the
//!    server's delta log and nowhere else, per constant-width segment: a
//!    grown job's narrow and wide segments, a preempted job's, a
//!    node-failure victim's — in the simulator and in a bare `run_cycle`
//!    loop alike, and a crash + `recover` loses none of it. (Debug builds
//!    of `run_cycle` assert after every cycle, in every driver, that the
//!    tracker holds what the usage ledger held when the cycle began; which
//!    window a segment lands in is `server::tests::a_late_drain…`'s.)

use dynbatch::cluster::Cluster;
use dynbatch::core::{
    AllocPolicy, CredRegistry, DfsConfig, ExecutionModel, FairshareMode, GroupId, JobId, JobSpec,
    NodeId, QueueId, SchedulerConfig, SimDuration, SimTime, UserId,
};
use dynbatch::sched::{Maui, QueuedJob, Snapshot, UsageHistory};
use dynbatch::server::{PbsServer, Record};
use dynbatch::sim::{
    run_experiment_materialized, run_sweep, BatchSim, ExperimentConfig, IngestOptions,
};
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

/// The one-feed scenario, on 4 x 8 cores under static fairshare at a
/// weight that moves priorities: E (8 cores) and A (16) start, Z (32) is
/// blocked behind them and S (8) backfills the hole. At 24 min — 16 % of
/// its run — E asks for 8 more: nothing is idle, S is preempted. Node 1,
/// half of A, fails at 50 min and is repaired; everything ends past the
/// 1 h window boundary. Job ids are 1 E, 2 A, 3 Z, 4 S; users 0 to 3.
fn one_feed_scenario() -> (SchedulerConfig, Vec<JobSpec>) {
    let mut sched = SchedulerConfig::paper_eval();
    sched.dfs = DfsConfig::highest_priority();
    sched.preempt_backfilled_for_dyn = true;
    sched.fairshare.enabled = true;
    sched.priority.fairshare_weight = 600.0;
    let rigid = |name: &str, user, cores, secs| {
        JobSpec::rigid(
            name,
            UserId(user),
            GroupId(0),
            cores,
            SimDuration::from_secs(secs),
        )
    };
    let e = ExecutionModel::esp_evolving(9_000, 6_000, 8);
    let jobs = vec![
        JobSpec::evolving("E", UserId(0), GroupId(0), 8, e),
        rigid("A", 1, 16, 4_000),
        rigid("Z", 2, 32, 600),
        rigid("S", 3, 8, 5_000),
    ];
    (sched, jobs)
}

/// Per user, what the ledger holds at the end of a run, in
/// core-milliseconds — and the tracker holds the same.
fn totals(server: &PbsServer, maui: &Maui) -> Vec<u64> {
    let ledger = (0..4).map(|u| server.usage_core_millis(UserId(u)));
    let totals: Vec<u64> = ledger.collect();
    for (user, &core_ms) in totals.iter().enumerate() {
        let charged = maui.fairshare().charged(UserId(user as u32));
        assert!(
            (charged - core_ms as f64 / 1000.0).abs() < 1e-6,
            "user {user}: {charged}"
        );
    }
    totals
}

/// A run with a crash + `recover` in it ends on the crash-free one's totals.
fn assert_a_crash_loses_nothing(clean: &[u64], crashed: &[u64]) {
    // S was preempted and A lost a node: both are charged for what they
    // held until then — the simulator used to charge such a run nothing —
    // and for their second runs.
    assert!(clean[3] > 8 * 1_440 * 1_000 && clean[1] > 16 * 3_000 * 1_000);
    assert_eq!(clean, crashed);
}

#[test]
fn simulator_charges_static_fairshare_per_closed_segment() {
    let run = |crash: Option<u64>| {
        let (sched, jobs) = one_feed_scenario();
        let mut sim = BatchSim::new(Cluster::homogeneous(4, 8), sched);
        let at = SimTime::ZERO;
        sim.load(
            &jobs
                .into_iter()
                .map(|spec| WorkloadItem { at, spec })
                .collect::<Vec<_>>(),
        );
        sim.inject_failure(SimTime::from_secs(3_000), NodeId(1));
        sim.inject_repair(SimTime::from_secs(3_100), NodeId(1));
        if let Some(at) = crash {
            sim.enable_journal(8);
            sim.inject_server_crash(SimTime::from_secs(at));
        }
        sim.run();
        assert!(sim.server().is_drained());
        assert!(sim.now() > SimTime::from_secs(3_600), "no window boundary");
        assert_eq!((sim.stats().dyn_granted, sim.stats().preemptions), (1, 1));
        // E held 8 cores until its grant and 16 from there on: less than
        // its final width over the whole run, which is what the simulator
        // used to charge, at the end.
        let outcomes = sim.server().accounting().outcomes();
        let e = outcomes.iter().find(|o| o.name == "E").expect("E ran");
        let wide_s = e
            .end_time
            .duration_since(SimTime::from_secs(1_440))
            .as_secs();
        let e_ms = (8 * 1_440 + 16 * wide_s) * 1_000;
        assert_eq!(sim.server().usage_core_millis(UserId(0)), e_ms);
        totals(sim.server(), sim.maui())
    };
    assert_a_crash_loses_nothing(&run(None), &run(Some(2_000)));
}

#[test]
fn a_bare_cycle_loop_charges_static_fairshare_per_closed_segment() {
    /// What happens before the cycle every step ends with.
    enum Step {
        Idle,
        Execute(Record),
        Crash,
        /// The oldest running job exits.
        FinishOne,
    }
    use Step::*;
    let at = SimTime::from_secs;
    let early = [
        (0, Idle),
        (
            1_440,
            Execute(Record::DynGet {
                job: JobId(1),
                extra_cores: 8,
                deadline: None,
                now: at(1_440),
            }),
        ),
        (2_000, Crash),
        (
            3_000,
            Execute(Record::NodeFailed {
                node: NodeId(1),
                now: at(3_000),
            }),
        ),
        (3_100, Execute(Record::NodeRepaired { node: NodeId(1) })),
    ];
    let script: Vec<(u64, Step)> = early
        .into_iter()
        .chain((7..16).map(|k| (k * 1_000, FinishOne)))
        .collect();
    let run = |crash: bool| {
        let (sched, jobs) = one_feed_scenario();
        let mut server = PbsServer::new(Cluster::homogeneous(4, 8), AllocPolicy::Pack);
        server.enable_journal(8);
        for spec in jobs {
            let now = SimTime::ZERO;
            server.execute(Record::Submit { spec, now }).expect("qsub");
        }
        let mut maui = Maui::new(sched.clone());
        for (secs, step) in &script {
            let now = at(*secs);
            match step {
                Execute(record) => drop(server.execute(record.clone()).expect("executes")),
                Crash if crash => {
                    let journal = server.take_journal().expect("journal on");
                    server = PbsServer::recover(journal).expect("journal replays");
                    maui = Maui::new(sched.clone());
                }
                FinishOne => {
                    let oldest = server.live_jobs().find(|j| j.state.is_active());
                    if let Some(job) = oldest.map(|j| j.id) {
                        let finish = Record::Finish { job, now };
                        server.execute(finish).expect("finish");
                    }
                }
                Crash | Idle => {}
            }
            server.run_cycle(&mut maui, now);
        }
        assert!(server.is_drained());
        // E: 8 cores to the grant at 24 min, 16 from there to its exit.
        let e_ms = (8 * 1_440 + 16 * (7_000 - 1_440)) * 1_000;
        assert_eq!(server.usage_core_millis(UserId(0)), e_ms);
        totals(&server, &maui)
    };
    assert_a_crash_loses_nothing(&run(false), &run(true));
}
