//! The negotiation extension (the paper's §III-C future work): a
//! `tm_dynget()` carrying a timeout stays queued at the server — the
//! scheduler reconsiders it every iteration and reports availability
//! estimates — instead of failing straight back to the application.

use dynbatch::cluster::Cluster;
use dynbatch::core::{
    CredRegistry, DfsConfig, ExecutionModel, GroupId, JobClass, JobSpec, SchedulerConfig,
    SimDuration, SimTime, SpeedupModel, UserId,
};
use dynbatch::daemon::{DaemonConfig, DaemonHandle, FaultPlan};
use dynbatch::server::TmResponse;
use dynbatch::sim::BatchSim;
use dynbatch::workload::WorkloadItem;
use std::time::Duration;

fn hp_sched() -> SchedulerConfig {
    let mut s = SchedulerConfig::paper_eval();
    s.dfs = DfsConfig::highest_priority();
    s
}

/// An evolving spec that issues one negotiated request at 10 % of its
/// 1000 s static runtime, with the given negotiation window.
fn negotiating_spec(reg: &mut CredRegistry, name: &str, timeout: Option<SimDuration>) -> JobSpec {
    let user = reg.user(name);
    let group = reg.group_of(user);
    JobSpec {
        name: name.into(),
        user,
        group,
        class: JobClass::Evolving,
        cores: 8,
        walltime: SimDuration::from_secs(1000),
        exec: ExecutionModel::Evolving {
            set: SimDuration::from_secs(1000),
            det: SimDuration::from_secs(700),
            extra_cores: 8,
            request_points: vec![0.1],
            speedup: SpeedupModel::Interpolate,
        },
        priority_boost: 0,
        suppress_backfill_while_queued: false,
        malleable: None,
        moldable: None,
        dyn_timeout: timeout,
        queue: None,
    }
}

fn filler(reg: &mut CredRegistry, cores: u32, secs: u64) -> JobSpec {
    let user = reg.user("filler");
    JobSpec::rigid(
        "filler",
        user,
        reg.group_of(user),
        cores,
        SimDuration::from_secs(secs),
    )
}

/// Cluster: 2 nodes × 8 = 16 cores. The evolving job holds 8; a filler
/// holds the other 8 until t = 300 s. The request fires at t = 100 s.
fn scenario(timeout: Option<SimDuration>, filler_secs: u64) -> BatchSim {
    let mut reg = CredRegistry::new();
    let mut sim = BatchSim::new(Cluster::homogeneous(2, 8), hp_sched());
    sim.load(&[
        WorkloadItem {
            at: SimTime::ZERO,
            spec: negotiating_spec(&mut reg, "nego", timeout),
        },
        WorkloadItem {
            at: SimTime::ZERO,
            spec: filler(&mut reg, 8, filler_secs),
        },
    ]);
    sim
}

#[test]
fn without_negotiation_busy_request_fails() {
    let mut sim = scenario(None, 300);
    sim.run();
    assert_eq!(sim.stats().dyn_granted, 0);
    assert_eq!(sim.stats().dyn_rejected, 1);
    let o = &sim.server().accounting().outcomes();
    let nego = o.iter().find(|o| o.name == "nego").unwrap();
    assert_eq!(nego.runtime(), SimDuration::from_secs(1000), "ran static");
}

#[test]
fn negotiated_request_granted_when_resources_free_up() {
    // Window of 400 s: the filler ends at t = 300 < 100 + 400, so the
    // deferred request is granted at t = 300.
    let mut sim = scenario(Some(SimDuration::from_secs(400)), 300);
    sim.run();
    assert_eq!(sim.stats().dyn_granted, 1);
    assert!(
        sim.stats().dyn_deferred >= 1,
        "it waited at least one cycle"
    );
    assert_eq!(sim.stats().dyn_expired, 0);
    let outcomes = sim.server().accounting().outcomes();
    let nego = outcomes.iter().find(|o| o.name == "nego").unwrap();
    // Granted at t=300 (30 % of SET elapsed): runtime = 0.3·1000 + 0.7·700.
    assert_eq!(nego.runtime(), SimDuration::from_secs(790));
    assert_eq!(nego.cores_final, 16);
}

#[test]
fn negotiated_request_expires_at_deadline() {
    // Window of 100 s: deadline t = 200 < filler end t = 300 — expires.
    let mut sim = scenario(Some(SimDuration::from_secs(100)), 300);
    sim.run();
    assert_eq!(sim.stats().dyn_granted, 0);
    assert_eq!(sim.stats().dyn_expired, 1);
    let outcomes = sim.server().accounting().outcomes();
    let nego = outcomes.iter().find(|o| o.name == "nego").unwrap();
    assert_eq!(nego.runtime(), SimDuration::from_secs(1000), "ran static");
    assert_eq!(nego.cores_final, 8);
}

#[test]
fn negotiation_respects_fairness_once_resources_appear() {
    // Same busy window, but a queued 8-core job would start exactly on the
    // cores the filler frees at t = 300: granting the deferred request
    // there would push it to the evolving job's walltime end (t = 1000), a
    // 700 s delay. Under a tight DFS cap the request must keep being
    // refused on fairness grounds until its deadline (t = 700) passes —
    // before the waiter finishes (t = 800) and would have made a free
    // grant possible.
    let mut sched = SchedulerConfig::paper_eval();
    sched.dfs = DfsConfig::uniform_target(1, SimDuration::from_hours(1));
    let mut reg = CredRegistry::new();
    let mut sim = BatchSim::new(Cluster::homogeneous(2, 8), sched);
    let waiter = {
        let user = reg.user("waiter");
        JobSpec::rigid(
            "waiter",
            user,
            reg.group_of(user),
            8,
            SimDuration::from_secs(500),
        )
    };
    sim.load(&[
        WorkloadItem {
            at: SimTime::ZERO,
            spec: negotiating_spec(&mut reg, "nego", Some(SimDuration::from_secs(600))),
        },
        WorkloadItem {
            at: SimTime::ZERO,
            spec: filler(&mut reg, 8, 300),
        },
        WorkloadItem {
            at: SimTime::from_secs(10),
            spec: waiter,
        },
    ]);
    sim.run();
    assert_eq!(
        sim.stats().dyn_granted,
        0,
        "fairness holds through negotiation"
    );
    assert_eq!(sim.stats().dyn_expired, 1);
    // And the protected waiter indeed started as soon as the filler ended.
    let outcomes = sim.server().accounting().outcomes();
    let w = outcomes.iter().find(|o| o.name == "waiter").unwrap();
    assert_eq!(w.start_time, SimTime::from_secs(300));
}

/// The same negotiation through the daemon's mom door, in virtual time:
/// the parked `tm_dynget` is granted the instant the blocker exits, and a
/// second one is denied the instant its window closes.
#[test]
fn daemon_negotiated_roundtrip() {
    let d = DaemonHandle::simulate(
        DaemonConfig {
            nodes: 2,
            cores_per_node: 8,
            sched: hp_sched(),
            ..DaemonConfig::default()
        },
        FaultPlan::none(0),
    );
    let mk = |name: &str, user: u32, cores: u32, ms: u64| {
        let runtime = SimDuration::from_millis(ms);
        JobSpec::rigid(name, UserId(user), GroupId(0), cores, runtime)
    };
    let app = d.qsub(mk("app", 0, 8, 60_000)).expect("qsub");
    assert!(d.await_running(app, Duration::from_secs(2)));
    // Fill the second node for 200 ms.
    let blocker = d.qsub(mk("blocker", 1, 8, 200)).expect("qsub blocker");
    assert!(d.await_running(blocker, Duration::from_secs(2)));

    // Non-negotiated request fails immediately.
    assert!(matches!(d.tm_dynget(app, 8), TmResponse::DynDenied));
    assert_eq!(d.now(), SimTime::ZERO);

    // Negotiated request (2 s window) waits until the blocker exits, then
    // is granted.
    let resp = d.tm_dynget_negotiated(app, 8, Duration::from_secs(2));
    match resp {
        TmResponse::DynGranted { added } => assert_eq!(added.total_cores(), 8),
        other => panic!("expected negotiated grant, got {other:?}"),
    }
    assert_eq!(d.now(), SimTime::from_millis(200), "granted at the exit");

    // A second negotiated request can only expire (machine is full now).
    let resp = d.tm_dynget_negotiated(app, 8, Duration::from_millis(150));
    assert!(matches!(resp, TmResponse::DynDenied), "{resp:?}");
    assert_eq!(d.now(), SimTime::from_millis(350), "denied at the expiry");

    let _ = d.qdel(app);
}
