//! The paper's Fig 1 scenario, end-to-end through the full simulator:
//! dynamic allocation to job A delays queued job C by 4 hours unless a
//! dynamic-fairness policy forbids it.
//!
//! Cluster: 6 nodes × 1 core (1 core = 1 "node" of the figure).
//! Job A: 2 cores, 8 h walltime, evolving (wants 2 more).
//! Job B: 2 cores, 4 h.
//! Job C: 4 cores, submitted immediately after — must wait for B.

use dynbatch::cluster::Cluster;
use dynbatch::core::{
    CredLimits, CredRegistry, DfsConfig, DfsPolicy, ExecutionModel, JobClass, JobSpec,
    SchedulerConfig, SimDuration, SimTime, SpeedupModel,
};
use dynbatch::sim::BatchSim;
use dynbatch::workload::WorkloadItem;

const HOUR: u64 = 3600;

fn scenario(dfs: DfsConfig) -> BatchSim {
    let mut sched = SchedulerConfig::paper_eval();
    sched.dfs = dfs;
    let mut sim = BatchSim::new(Cluster::homogeneous(6, 1), sched);

    let mut reg = CredRegistry::new();
    let ua = reg.user("user_a");
    let ub = reg.user("user_b");
    let uc = reg.user("user_c");
    let g = reg.group_of(ua);

    // Job A: evolving, 8 h static runtime; asks for +2 cores at 10 % of
    // its runtime (and would finish at the same time — the interesting
    // part of Fig 1 is the *delay to C*, not A's speedup).
    let a = JobSpec {
        name: "A".into(),
        user: ua,
        group: g,
        class: JobClass::Evolving,
        cores: 2,
        walltime: SimDuration::from_hours(8),
        exec: ExecutionModel::Evolving {
            set: SimDuration::from_hours(8),
            det: SimDuration::from_hours(8),
            extra_cores: 2,
            request_points: vec![0.1],
            speedup: SpeedupModel::Interpolate,
        },
        priority_boost: 0,
        suppress_backfill_while_queued: false,
        malleable: None,
        moldable: None,
        dyn_timeout: None,
        queue: None,
    };
    let b = JobSpec::rigid("B", ub, g, 2, SimDuration::from_hours(4));
    let c = JobSpec::rigid("C", uc, g, 4, SimDuration::from_hours(4));

    sim.load(&[
        WorkloadItem {
            at: SimTime::ZERO,
            spec: a,
        },
        WorkloadItem {
            at: SimTime::ZERO,
            spec: b,
        },
        WorkloadItem {
            at: SimTime::from_secs(60),
            spec: c,
        },
    ]);
    sim
}

fn wait_of(sim: &BatchSim, name: &str) -> SimDuration {
    sim.server()
        .accounting()
        .outcomes()
        .iter()
        .find(|o| o.name == name)
        .unwrap_or_else(|| panic!("{name} completed"))
        .wait()
}

#[test]
fn highest_priority_grant_delays_c_by_four_hours() {
    let mut sim = scenario(DfsConfig::highest_priority());
    sim.run();
    assert_eq!(sim.stats().dyn_granted, 1, "A's request granted under HP");
    let wait_c = wait_of(&sim, "C");
    // Without the grant C starts when B ends (t = 4 h); with it, when A's
    // walltime ends (t = 8 h). C submitted at t = 60 s.
    assert_eq!(wait_c, SimDuration::from_secs(8 * HOUR - 60));
}

#[test]
fn qdel_of_the_delayed_job_clears_its_dfs_slate() {
    // C (third submission, job id 3) is charged the 4 h once A's request
    // is granted at 48 min; an operator deletes it at 1 h.
    let c = dynbatch::core::JobId(3);
    let mut sim = scenario(DfsConfig::highest_priority());
    sim.inject_qdel(SimTime::from_secs(HOUR), 2);
    while sim.now() < SimTime::from_secs(48 * 60) {
        assert!(sim.step());
    }
    assert_eq!(
        sim.maui().dfs().job_charged(c),
        SimDuration::from_hours(4),
        "C delayed by the grant"
    );
    sim.run();
    assert_eq!(sim.stats().qdels, 1);
    assert!(sim.maui().dfs().job_charged(c).is_zero());
}

#[test]
fn target_policy_protects_c() {
    // A cumulative cap of 1 h per 24 h interval: the 4 h delay is refused.
    let mut sim = scenario(DfsConfig::uniform_target(HOUR, SimDuration::from_hours(24)));
    sim.run();
    assert_eq!(sim.stats().dyn_granted, 0);
    assert!(sim.stats().dyn_rejected_fairness >= 1);
    let wait_c = wait_of(&sim, "C");
    assert_eq!(
        wait_c,
        SimDuration::from_secs(4 * HOUR - 60),
        "C starts when B ends"
    );
}

#[test]
fn single_job_policy_protects_c() {
    let mut dfs = DfsConfig {
        policy: DfsPolicy::SingleJobDelay,
        ..DfsConfig::default()
    };
    dfs.default_limits = CredLimits::single(SimDuration::from_mins(30));
    let mut sim = scenario(dfs);
    sim.run();
    assert_eq!(sim.stats().dyn_granted, 0);
    assert_eq!(wait_of(&sim, "C"), SimDuration::from_secs(4 * HOUR - 60));
}

#[test]
fn perm_flag_protects_c() {
    // user_c's jobs may never be delayed by dynamic allocations.
    let mut dfs = DfsConfig {
        policy: DfsPolicy::TargetDelay,
        ..DfsConfig::default()
    };
    // user_c is interned third (index 2) in the scenario's registry.
    dfs.users
        .insert(dynbatch::core::UserId(2), CredLimits::never_delay());
    let mut sim = scenario(dfs);
    sim.run();
    assert_eq!(sim.stats().dyn_granted, 0);
    assert_eq!(wait_of(&sim, "C"), SimDuration::from_secs(4 * HOUR - 60));
}

#[test]
fn a_is_unaffected_by_rejection() {
    // A rejected evolving job continues on its current allocation.
    let mut sim = scenario(DfsConfig::uniform_target(HOUR, SimDuration::from_hours(24)));
    sim.run();
    let a = sim
        .server()
        .accounting()
        .outcomes()
        .iter()
        .find(|o| o.name == "A")
        .expect("A completed");
    assert_eq!(a.cores_final, 2);
    assert_eq!(a.runtime(), SimDuration::from_hours(8));
}
