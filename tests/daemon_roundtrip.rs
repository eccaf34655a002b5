//! Integration tests of the threaded (wall-clock) deployment: the same
//! protocol the simulator drives, over real threads and channels.

use dynbatch::core::{
    DfsConfig, ExecutionModel, GroupId, JobClass, JobSpec, JobState, SchedulerConfig, SimDuration,
    UserId,
};
use dynbatch::daemon::{DaemonConfig, DaemonHandle};
use dynbatch::server::TmResponse;
use std::time::Duration;

fn ms(millis: u64) -> Duration {
    Duration::from_millis(millis)
}

fn rigid(name: &str, user: u32, cores: u32, millis: u64) -> JobSpec {
    JobSpec {
        name: name.into(),
        user: UserId(user),
        group: GroupId(0),
        class: JobClass::Rigid,
        cores,
        walltime: SimDuration::from_millis(millis),
        exec: ExecutionModel::Fixed {
            duration: SimDuration::from_millis(millis),
        },
        priority_boost: 0,
        suppress_backfill_while_queued: false,
        malleable: None,
        moldable: None,
        dyn_timeout: None,
        queue: None,
    }
}

fn daemon(nodes: u32) -> DaemonHandle {
    let mut sched = SchedulerConfig::paper_eval();
    sched.dfs = DfsConfig::highest_priority();
    DaemonHandle::start(DaemonConfig {
        nodes,
        cores_per_node: 8,
        sched,
        faults: None,
        followers: 0,
    })
}

#[test]
fn fifo_queue_processes_in_order() {
    let d = daemon(2);
    // Three full-machine jobs: strictly sequential.
    let ids: Vec<_> = (0..3)
        .map(|i| d.qsub(rigid(&format!("j{i}"), i, 16, 40)).unwrap())
        .collect();
    assert!(d.await_drained(Duration::from_secs(5)));
    // All terminal; nothing lingers.
    for id in ids {
        assert_eq!(d.qstat(id), Some(JobState::Completed));
    }
    d.shutdown();
}

#[test]
fn grow_then_shrink_then_finish() {
    let d = daemon(4);
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
    // queue forever (its walltime bounds the grant).
    let d = daemon(2);
    let grower = d.qsub(rigid("grower", 0, 8, 300)).unwrap();
    assert!(d.await_running(grower, Duration::from_secs(2)));
    let _ = d.tm_dynget(grower, 8); // takes the rest of the machine
    let waiter = d.qsub(rigid("waiter", 1, 16, 50)).unwrap();
    assert!(d.await_drained(Duration::from_secs(5)));
    assert_eq!(d.qstat(waiter), Some(JobState::Completed));
    d.shutdown();
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
    let mut sched = SchedulerConfig::paper_eval();
    sched.dfs = DfsConfig::highest_priority();
    sched.preempt_backfilled_for_dyn = true;
    let d = DaemonHandle::start(DaemonConfig {
        nodes: 2,
        cores_per_node: 8,
        sched,
        faults: None,
        followers: 0,
    });

    // 16 cores. The grower holds 8; "blocked" (16 cores) queues behind it
    // with a reservation at the grower's end; the filler backfills into
    // the idle half.
    let grower = d.qsub(rigid("grower", 0, 8, 400)).unwrap();
    assert!(d.await_running(grower, ms(2_000)));
    let blocked = d.qsub(rigid("blocked", 1, 16, 50)).unwrap();
    let filler = d.qsub(rigid("filler", 2, 8, 150)).unwrap();
    assert!(d.await_running(filler, ms(2_000)));

    // ~t=45: +8 can only come from preempting the backfilled filler. Its
    // first run dies ~40 ms in; its (pre-fix detached) 150 ms exit timer
    // is still due at ~t=155.
    std::thread::sleep(ms(40));
    let TmResponse::DynGranted { added } = d.tm_dynget(grower, 8) else {
        panic!("preemption feeds the grant");
    };

    // ~t=125: release the grant; the filler backfills a second time and
    // must now survive past the stale timer's ~t=155 firing.
    std::thread::sleep(ms(80));
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
    assert!(
        f.runtime() >= SimDuration::from_millis(140),
        "restarted filler was cut short after {:?} — stale timer kill",
        f.runtime()
    );
    d.shutdown();
}

/// Regression: fairshare must charge a resized job per constant-width
/// segment, not `final cores × whole runtime`. A job that doubles at its
/// midpoint owes 1.5× its base usage — pre-fix it was billed 2×.
#[test]
fn fairshare_charges_segments_not_final_width() {
    let d = daemon(4);
    let user = 7u32;
    let job = d.qsub(rigid("midgrow", user, 8, 300)).unwrap();
    assert!(d.await_running(job, ms(2_000)));
    std::thread::sleep(ms(150));
    let TmResponse::DynGranted { added } = d.tm_dynget(job, 8) else {
        panic!("24 free cores: grant expected");
    };
    assert_eq!(added.total_cores(), 8);
    assert!(d.await_drained(Duration::from_secs(5)));

    // 8 cores × ~0.15 s + 16 cores × ~0.15 s ≈ 3.6 core·s; the pre-fix
    // final-width charge would be 16 × 0.3 = 4.8.
    let charged = d.fairshare_charged(UserId(user));
    assert!(
        charged > 3.0 && charged < 4.3,
        "expected ≈3.6 core·s of segmented usage, got {charged}"
    );
    d.shutdown();
}
