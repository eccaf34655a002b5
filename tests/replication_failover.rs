//! Replicated-daemon failover and follower-read staleness, at the live
//! ensemble level: 1 leader + 2 followers streaming the journal, moms
//! and timers attached, real reactor clients on the wire.
//!
//! Covers the daemon half of the replication contract:
//!
//! * **Failover re-attach** — a leader kill mid-run promotes a follower;
//!   running jobs keep their (idempotently re-sent) `RunJob`s, app-exit
//!   deadlines are re-armed for remaining runtime, and the ensemble
//!   drains with every acked submission completed. Every ack — of a
//!   line or of a `DaemonHandle::qsub` / `qdel`, which are reactor
//!   clients too — was released by the group-commit gate only once the
//!   followers had the record; the status query pins `acked_lost == 0`.
//! * **Parked negotiations survive** — a `tm_dynget` whose request
//!   record replicated before the kill is answered by the *promoted*
//!   leader (grant or window expiry), never left hanging; the
//!   reconcile sweep only denies callers whose records died unreplicated.
//! * **Follower-read staleness (satellite 2)** — qstat lines are served
//!   by followers, and one routed after an acked write never observes
//!   pre-write state, even with the stream maximally delayed;
//!   follower-served replies echo the applied-record watermark.

mod common;

use common::assert_no_tagged_threads;
use dynbatch::core::{DfsConfig, JobId, JobState, SchedulerConfig};
use dynbatch::daemon::{DaemonConfig, DaemonHandle, FaultPlan, ServerCrash};
use dynbatch::server::replication::ReplFaultPlan;
use dynbatch::server::{Reply, TmResponse};
use std::time::Duration;

fn sched() -> SchedulerConfig {
    let mut s = SchedulerConfig::paper_eval();
    s.dfs = DfsConfig::highest_priority();
    s
}

fn spec(name: &str, user: u32, cores: u32, ms: u64) -> dynbatch::core::JobSpec {
    dynbatch::core::JobSpec::rigid(
        name,
        dynbatch::core::UserId(user),
        dynbatch::core::GroupId(0),
        cores,
        dynbatch::core::SimDuration::from_millis(ms),
    )
}

fn replicated_config(kill_after: Option<u64>, repl_faults: Option<ReplFaultPlan>) -> DaemonConfig {
    let mut faults = FaultPlan::none(1);
    if let Some(k) = kill_after {
        faults.leader_kills.push(ServerCrash { after_record: k });
    }
    faults.replication = repl_faults;
    DaemonConfig {
        nodes: 3,
        cores_per_node: 8,
        sched: sched(),
        faults: Some(faults),
        followers: 2,
    }
}

/// Leader kill mid-run: a follower takes over, re-attaches the moms, and
/// the ensemble drains with every acked job completed. Submissions ride
/// the reactor's group-commit path, so every ack the clients read was
/// released by the replication gate — `acked_lost` must be zero.
#[test]
fn failover_drains_and_loses_no_acked_job() {
    let d = DaemonHandle::start(replicated_config(Some(6), None));
    let tag = d.thread_tag().to_string();

    let mut acked = Vec::new();
    for i in 0..8u32 {
        let client = d.connect();
        client.send(&format!(
            "qsub name=j{i} user={} group=0 cores={} wall_ms={}",
            i % 3,
            2 + i % 4,
            60 + 30 * u64::from(i)
        ));
        match client.recv_timeout(Duration::from_secs(10)) {
            Some(Reply::Submitted(id)) => acked.push(id),
            other => panic!("qsub {i} answered {other:?}"),
        }
        client.disconnect();
    }
    assert!(
        d.await_drained(Duration::from_secs(20)),
        "replicated ensemble must drain through the leader kill"
    );
    for id in &acked {
        assert_eq!(
            d.qstat(*id),
            Some(JobState::Completed),
            "acked job {id:?} lost across failover"
        );
    }
    let status = d.replication_status().expect("replication is on");
    assert_eq!(status.failovers, 1, "the kill point must have fired");
    assert!(status.term >= 2, "promotion bumps the term");
    assert_eq!(
        status.acked_lost, 0,
        "an ack waits for the followers: acked loss is impossible"
    );
    assert!(
        status.errors.is_empty(),
        "no divergence expected: {:?}",
        status.errors
    );
    d.shutdown();
    assert_no_tagged_threads(&tag);
}

/// A negotiated `tm_dynget` parked across the kill: its request record
/// replicated before the leader died, so the promoted leader re-arms the
/// window from *recovered* state and answers the caller — here by window
/// expiry, since the filler pins the machine past the horizon. The
/// caller must never hang on the dead leader's promise.
#[test]
fn parked_negotiation_survives_failover() {
    // The kill coordinate sits past the setup traffic; the nudge loop
    // below pushes the journal across it while the negotiation is parked.
    let d = DaemonHandle::start(replicated_config(Some(14), None));
    let tag = d.thread_tag().to_string();

    let grower = d
        .qsub(dynbatch::core::JobSpec::evolving(
            "grower",
            dynbatch::core::UserId(0),
            dynbatch::core::GroupId(0),
            8,
            dynbatch::core::ExecutionModel::esp_evolving(30_000, 20_000, 4),
        ))
        .expect("grower submits");
    assert!(d.await_running(grower, Duration::from_secs(5)));
    // Fill the rest of the machine (3×8 = 24 cores) so +16 cannot be
    // granted inside the window.
    let filler = d.qsub(spec("filler", 1, 16, 30_000)).expect("filler");
    assert!(d.await_running(filler, Duration::from_secs(5)));

    std::thread::scope(|scope| {
        let caller = scope.spawn(|| d.tm_dynget_negotiated(grower, 16, Duration::from_secs(3)));
        // Let the request record land and replicate, then drive the
        // journal past the kill coordinate while the caller is parked.
        std::thread::sleep(Duration::from_millis(200));
        for i in 0..6 {
            let _ = d.qsub(spec(&format!("nudge{i}"), 2, 1, 40));
            std::thread::sleep(Duration::from_millis(30));
            if d.replication_status().is_some_and(|s| s.failovers >= 1) {
                break;
            }
        }
        let resp = caller.join().expect("dynget caller returns");
        assert!(
            matches!(resp, TmResponse::DynGranted { .. } | TmResponse::DynDenied),
            "parked negotiation must be answered after failover, got {resp:?}"
        );
    });
    let status = d.replication_status().expect("replication is on");
    assert!(
        status.failovers >= 1,
        "nudge traffic must have crossed the kill coordinate"
    );
    d.shutdown();
    assert_no_tagged_threads(&tag);
}

/// The ack rule holds for the typed client API as it does for lines: the
/// leader dies on the very record a `DaemonHandle::qsub` appended (genesis
/// snapshot = record 1, that `Submit` = record 2), at the first command
/// boundary after it. The id that call returned must name the same job on
/// the promoted leader — the followers had the record before the caller
/// had the id — and so must every id and every deletion either API acks
/// from then on, typed calls and line clients racing.
#[test]
fn typed_door_acks_are_replication_gated() {
    let d = DaemonHandle::start(replicated_config(Some(2), None));
    let tag = d.thread_tag().to_string();

    let first = d.qsub(spec("typed0", 0, 8, 80)).expect("first typed qsub");
    let (mut typed, lines) = std::thread::scope(|scope| {
        let line_client = scope.spawn(|| {
            let client = d.connect();
            (0..10u32)
                .map(|i| {
                    client.send(&format!(
                        "qsub name=line{i} user=1 group=0 cores={} wall_ms={}",
                        4 + 4 * (i % 2),
                        40 + 10 * u64::from(i)
                    ));
                    match client.recv_timeout(Duration::from_secs(10)) {
                        Some(Reply::Submitted(id)) => id,
                        other => panic!("line qsub {i} answered {other:?}"),
                    }
                })
                .collect::<Vec<JobId>>()
        });
        // (id, whether a qdel of it was acked)
        let mut typed = vec![(first, false)];
        for i in 1..10u32 {
            let id = d
                .qsub(spec(&format!("typed{i}"), 2, 8, 60 + 10 * u64::from(i)))
                .expect("typed qsub");
            // Every third job is deleted at once — queued or running if the
            // machine (24 cores) got to it, denied if it already finished.
            typed.push((id, i % 3 == 0 && d.qdel(id).is_ok()));
        }
        (typed, line_client.join().expect("line client"))
    });
    assert!(
        d.await_drained(Duration::from_secs(20)),
        "replicated ensemble must drain through the leader kill"
    );

    typed.extend(lines.into_iter().map(|id| (id, false)));
    let mut ids: Vec<JobId> = typed.iter().map(|&(id, _)| id).collect();
    ids.sort();
    ids.dedup();
    // A leader that forgot an acked submission hands its id out again.
    assert_eq!(ids.len(), typed.len(), "an acked job id was issued twice");
    assert!(typed.iter().any(|&(_, deleted)| deleted));
    for &(id, deleted) in &typed {
        let want = if deleted {
            JobState::Cancelled
        } else {
            JobState::Completed
        };
        assert_eq!(d.qstat(id), Some(want), "ack for {id:?} lost in failover");
    }
    let status = d.replication_status().expect("replication is on");
    assert_eq!(status.failovers, 1, "the kill point must have fired");
    assert_eq!(status.acked_lost, 0);
    assert!(
        status.errors.is_empty(),
        "no divergence expected: {:?}",
        status.errors
    );
    d.shutdown();
    assert_no_tagged_threads(&tag);
}

/// Read-your-writes under a lagging stream: with every frame deferred a
/// pump, followers chronically trail the leader — yet a qstat issued right
/// after an acked qsub observes the job, because the leader answers every
/// read (`Reply::Status`), on the writing connection and on one that never
/// wrote.
#[test]
fn follower_reads_respect_read_your_writes() {
    let faults = ReplFaultPlan {
        seed: 7,
        delay_permille: 1000, // defer every frame one pump
        ..ReplFaultPlan::default()
    };
    let d = DaemonHandle::start(replicated_config(None, Some(faults)));
    let tag = d.thread_tag().to_string();

    let mut first = None;
    for i in 0..30u32 {
        let client = d.connect();
        client.send(&format!(
            "qsub name=ryw{i} user={} group=0 cores=2 wall_ms=40",
            i % 3
        ));
        let id = match client.recv_timeout(Duration::from_secs(5)) {
            Some(Reply::Submitted(id)) => id,
            other => panic!("qsub answered {other:?}"),
        };
        first.get_or_insert(id);
        // Same connection, write acked: the read must observe the job.
        client.send(&format!("qstat {}", id.0));
        match client.recv_timeout(Duration::from_secs(5)) {
            Some(Reply::Status(state)) => assert!(!state.is_empty()),
            other => panic!("acked write read {i} answered {other:?}"),
        }
        client.disconnect();
    }
    let probe = d.connect();
    let probed = first.expect("at least one submission").0;
    for _ in 0..20 {
        probe.send(&format!("qstat {probed}"));
        match probe.recv_timeout(Duration::from_secs(5)) {
            Some(Reply::Status(state)) => assert!(!state.is_empty()),
            other => panic!("probe read answered {other:?}"),
        }
    }
    probe.disconnect();
    assert!(d.await_drained(Duration::from_secs(15)));
    d.shutdown();
    assert_no_tagged_threads(&tag);
}
