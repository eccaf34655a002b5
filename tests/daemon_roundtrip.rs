//! Integration tests of the deployment: the same protocol the simulator
//! drives, between daemons that talk only by message. The wall-clock
//! tests run the ensemble on its own thread against the wall clock
//! (`DaemonHandle::start`); the tests that pin a time step the same
//! ensemble in virtual time (`DaemonHandle::simulate`), where every
//! instant is exact.

mod common;

use common::assert_no_tagged_threads;
use dynbatch::core::{
    DfsConfig, ExecutionModel, GroupId, JobSpec, JobState, SchedulerConfig, SimDuration, SimTime,
    SpeedupModel, UserId,
};
use dynbatch::daemon::{DaemonConfig, DaemonHandle, FaultPlan, Virtual};
use dynbatch::server::TmResponse;
use std::time::Duration;

fn ms(millis: u64) -> SimTime {
    SimTime::from_millis(millis)
}

fn rigid(name: &str, user: u32, cores: u32, millis: u64) -> JobSpec {
    let runtime = SimDuration::from_millis(millis);
    JobSpec::rigid(name, UserId(user), GroupId(0), cores, runtime)
}

fn config(nodes: u32) -> DaemonConfig {
    let mut sched = SchedulerConfig::paper_eval();
    sched.dfs = DfsConfig::highest_priority();
    DaemonConfig {
        nodes,
        cores_per_node: 8,
        sched,
        ..DaemonConfig::default()
    }
}

fn daemon(nodes: u32) -> DaemonHandle {
    DaemonHandle::start(config(nodes))
}

/// The same ensemble in virtual time, its net fault-free.
fn simulated(config: DaemonConfig) -> DaemonHandle<Virtual> {
    DaemonHandle::simulate(config, FaultPlan::none(0))
}

#[test]
fn fifo_queue_processes_in_order() {
    let d = simulated(config(2));
    // Three full-machine jobs: strictly sequential.
    let ids: Vec<_> = (0..3)
        .map(|i| d.qsub(rigid(&format!("j{i}"), i, 16, 40)).unwrap())
        .collect();
    assert!(d.await_drained(Duration::from_secs(5)));
    // All terminal; nothing lingers.
    for &id in &ids {
        assert_eq!(d.qstat(id), Some(JobState::Completed));
    }
    // In submission order, each starting the instant the one before ends.
    let outcomes = d.outcomes();
    for (k, id) in ids.into_iter().enumerate() {
        let o = outcomes.iter().find(|o| o.id == id).expect("job ran");
        let start = 40 * k as u64;
        assert_eq!((o.start_time, o.end_time), (ms(start), ms(start + 40)));
    }
}

/// The mom door on the wall clock: grants and a partial free through the
/// mother superior, then a shutdown that leaves no thread behind.
#[test]
fn grow_then_shrink_then_finish() {
    let d = daemon(4);
    let tag = d.thread_tag().to_string();
    let job = d.qsub(rigid("elastic", 0, 8, 3_000)).unwrap();
    assert!(d.await_running(job, Duration::from_secs(2)));

    let TmResponse::DynGranted { added } = d.tm_dynget(job, 12) else {
        panic!("expected grant");
    };
    assert_eq!(added.total_cores(), 12);

    // Release an arbitrary subset (not the whole grant).
    let part = {
        let mut a = added.clone();
        a.take(5)
    };
    assert!(matches!(d.tm_dynfree(job, part), TmResponse::Freed));

    // Second grow after the first completed is fine.
    let TmResponse::DynGranted { added: more } = d.tm_dynget(job, 4) else {
        panic!("expected second grant");
    };
    assert_eq!(more.total_cores(), 4);

    let _ = d.qdel(job);
    assert!(d.await_drained(Duration::from_secs(5)));
    d.shutdown();
    assert_no_tagged_threads(&tag);
}

#[test]
fn overhead_grows_but_stays_small() {
    // A miniature Fig 12: allocating more nodes costs more hops but stays
    // far under a second in-process.
    let d = daemon(12);
    let job = d.qsub(rigid("grower", 0, 8, 60_000)).unwrap();
    assert!(d.await_running(job, Duration::from_secs(2)));

    for nodes in [1u32, 5, 10] {
        let (resp, latency) = d.tm_dynget_timed(job, nodes * 8);
        let TmResponse::DynGranted { added } = resp else {
            panic!("grant of {nodes} nodes");
        };
        assert_eq!(added.total_cores(), nodes * 8);
        assert!(
            latency < Duration::from_millis(500),
            "{nodes} nodes took {latency:?}"
        );
        assert!(matches!(d.tm_dynfree(job, added), TmResponse::Freed));
    }
    let _ = d.qdel(job);
    d.shutdown();
}

#[test]
fn queued_rigid_jobs_eventually_run_despite_grants() {
    // No starvation: an evolving job grabbing cores does not wedge the
    // queue forever (its walltime bounds the grant): the waiter starts
    // the instant the grower's 300 ms are up.
    let d = simulated(config(2));
    let grower = d.qsub(rigid("grower", 0, 8, 300)).unwrap();
    assert!(d.await_running(grower, Duration::from_secs(2)));
    let _ = d.tm_dynget(grower, 8); // takes the rest of the machine
    let waiter = d.qsub(rigid("waiter", 1, 16, 50)).unwrap();
    assert!(d.await_drained(Duration::from_secs(5)));
    assert_eq!(d.qstat(waiter), Some(JobState::Completed));
    let outcomes = d.outcomes();
    let w = outcomes
        .iter()
        .find(|o| o.id == waiter)
        .expect("waiter ran");
    assert_eq!((w.start_time, w.end_time), (ms(300), ms(350)));
}

#[test]
fn concurrent_clients_hammer_the_daemon() {
    // Many client threads submitting, growing, shrinking and deleting at
    // once: the server must serialise everything without deadlock or
    // bookkeeping drift.
    use std::sync::Arc;
    let d = Arc::new(daemon(8));
    let mut handles = Vec::new();
    for t in 0..6u32 {
        let d = Arc::clone(&d);
        handles.push(std::thread::spawn(move || {
            for i in 0..10u32 {
                let id = d
                    .qsub(rigid(
                        &format!("t{t}-j{i}"),
                        t,
                        1 + (i % 8),
                        20 + (i as u64 % 30),
                    ))
                    .expect("qsub");
                if i % 3 == 0 && d.await_running(id, Duration::from_secs(2)) {
                    // Try to grow; success depends on contention — both
                    // outcomes are fine, the protocol must just answer.
                    match d.tm_dynget(id, 4) {
                        TmResponse::DynGranted { added } => {
                            let _ = d.tm_dynfree(id, added);
                        }
                        TmResponse::DynDenied | TmResponse::Freed => {}
                    }
                }
                if i % 7 == 0 {
                    let _ = d.qdel(id);
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }
    assert!(
        d.await_drained(Duration::from_secs(20)),
        "all 60 jobs terminal"
    );
    match Arc::try_unwrap(d) {
        Ok(d) => d.shutdown(),
        Err(_) => panic!("all clients joined"),
    }
}

/// Regression: a preempted-then-restarted job must run its full duration
/// the second time. Pre-fix, the first run's detached app-exit timer kept
/// ticking through the preemption and killed the *restarted* run early;
/// now app-exit firings carry the run generation and stale ones are
/// dropped (the cancelled timer never even fires).
#[test]
fn stale_app_timer_cannot_kill_restarted_job() {
    let mut config = config(2);
    config.sched.preempt_backfilled_for_dyn = true;
    let d = simulated(config);

    // 16 cores. The grower holds 8; "blocked" (16 cores) queues behind it
    // with a reservation at the grower's end; the filler backfills into
    // the idle half.
    let grower = d.qsub(rigid("grower", 0, 8, 400)).unwrap();
    assert!(d.await_running(grower, Duration::from_secs(2)));
    let blocked = d.qsub(rigid("blocked", 1, 16, 50)).unwrap();
    let filler = d.qsub(rigid("filler", 2, 8, 150)).unwrap();
    assert!(d.await_running(filler, Duration::from_secs(2)));

    // t = 40: +8 can only come from preempting the backfilled filler. Its
    // first run dies 40 ms in; its stale 150 ms exit would be due at 150.
    d.run_until(ms(40));
    let TmResponse::DynGranted { added } = d.tm_dynget(grower, 8) else {
        panic!("preemption feeds the grant");
    };

    // t = 120: release the grant; the filler backfills a second time and
    // must now run its full 150 ms, past the stale exit.
    d.run_until(ms(120));
    assert!(matches!(d.tm_dynfree(grower, added), TmResponse::Freed));

    assert!(d.await_drained(Duration::from_secs(10)));
    for id in [grower, blocked, filler] {
        assert_eq!(d.qstat(id), Some(JobState::Completed));
    }
    let outcomes = d.outcomes();
    let f = outcomes
        .iter()
        .find(|o| o.id == filler)
        .expect("filler ran");
    assert_eq!(
        (f.start_time, f.end_time),
        (ms(120), ms(270)),
        "the restarted filler runs its full 150 ms"
    );
}

/// Regression: fairshare must charge a resized job per constant-width
/// segment, not `final cores × whole runtime`. A job that doubles at its
/// midpoint owes 1.5× its base usage — pre-fix it was billed 2×.
#[test]
fn fairshare_charges_segments_not_final_width() {
    let d = simulated(config(4));
    let user = 7u32;
    let job = d.qsub(rigid("midgrow", user, 8, 300)).unwrap();
    assert!(d.await_running(job, Duration::from_secs(2)));
    d.run_until(ms(150));
    let TmResponse::DynGranted { added } = d.tm_dynget(job, 8) else {
        panic!("24 free cores: grant expected");
    };
    assert_eq!(added.total_cores(), 8);
    assert!(d.await_drained(Duration::from_secs(5)));
    assert_eq!(d.now(), ms(300));

    // 8 cores × 0.15 s + 16 cores × 0.15 s = 3.6 core·s; the final-width
    // charge would be 16 × 0.3 = 4.8.
    let charged = d.fairshare_charged(UserId(user));
    let segments = 8.0 * 0.15 + 16.0 * 0.15;
    assert!(
        (charged - segments).abs() < 1e-9,
        "expected {segments} core·s of segmented usage, got {charged}"
    );
}

/// A granted evolving job finishes at its re-paced time, as in the
/// simulator: SET 4 s, DET 1 s, and a `tm_dynget` granted at the start
/// puts the evolved total at DET. (Its own request point, at 90 % of SET,
/// never comes.)
#[test]
fn granted_evolving_job_finishes_at_its_evolved_total() {
    let d = simulated(config(4));
    let exec = ExecutionModel::Evolving {
        set: SimDuration::from_secs(4),
        det: SimDuration::from_secs(1),
        extra_cores: 8,
        request_points: vec![0.9],
        speedup: SpeedupModel::Interpolate,
    };
    let job = d
        .qsub(JobSpec::evolving("grows", UserId(0), GroupId(0), 8, exec))
        .unwrap();
    assert!(d.await_running(job, Duration::from_secs(2)));
    let TmResponse::DynGranted { added } = d.tm_dynget(job, 8) else {
        panic!("24 free cores: grant expected");
    };
    assert_eq!(added.total_cores(), 8);
    assert!(d.await_drained(Duration::from_secs(10)));
    assert_eq!(d.qstat(job), Some(JobState::Completed));
    let outcomes = d.outcomes();
    let o = outcomes.iter().find(|o| o.id == job).expect("job finished");
    assert_eq!(o.cores_final, 16);
    assert_eq!(
        o.runtime(),
        SimDuration::from_secs(1),
        "the grant at the start re-paces the exit to DET (SET is 4 s)"
    );
}

/// Walltime is enforced, as in the simulator: a 5 s job that asked for
/// 300 ms is deleted by the reaper, one grace millisecond past it.
#[test]
fn walltime_kills_an_overrunning_job() {
    let d = simulated(config(2));
    let mut spec = rigid("overrun", 0, 8, 5_000);
    spec.walltime = SimDuration::from_millis(300);
    let job = d.qsub(spec).unwrap();
    assert!(
        d.await_drained(Duration::from_secs(3)),
        "still running 3 s after submission, past its 300 ms walltime"
    );
    assert_eq!(d.now(), ms(301), "killed at its walltime");
    assert_eq!(d.qstat(job), Some(JobState::Cancelled));
}
