//! Replicated-daemon failover at the ensemble level: 1 leader + 2
//! followers streaming the journal, moms and deadlines attached, real
//! reactor clients on the wire. Every test with a leader kill or a stream
//! fault runs in virtual time (`DaemonHandle::simulate`, the faults in
//! one `FaultPlan`), so it sleeps nowhere and pins its instants; one
//! fault-free test runs the ensemble on the wall clock. Neither driver
//! gives a follower a thread: the server daemon hosts them inline.
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
//!   reconcile sweep only denies callers whose records died unreplicated,
//!   and a denied caller's job takes its next `tm_dynget` at once.
//! * **The leader answers every read** — with every run deferred to the
//!   next pump, the followers trail the leader, and a `qstat` after an
//!   acked `qsub` still observes the job: follower reads are gone, so no
//!   read waits on, or sees, a follower.

mod common;

use common::{assert_no_tagged_threads, tagged_threads, tagged_threads_at_least};
use dynbatch::core::{
    DfsConfig, GroupId, JobId, JobSpec, JobState, SchedulerConfig, SimDuration, SimTime, UserId,
};
use dynbatch::daemon::{DaemonConfig, DaemonHandle, FaultPlan, ServerCrash, Virtual};
use dynbatch::server::{Reply, TmResponse};
use std::time::Duration;

fn spec(name: &str, user: u32, cores: u32, ms: u64) -> JobSpec {
    let runtime = SimDuration::from_millis(ms);
    JobSpec::rigid(name, UserId(user), GroupId(0), cores, runtime)
}

/// Three nodes, a leader and two followers.
fn replicated_config() -> DaemonConfig {
    let mut sched = SchedulerConfig::paper_eval();
    sched.dfs = DfsConfig::highest_priority();
    DaemonConfig {
        nodes: 3,
        cores_per_node: 8,
        sched,
        followers: 2,
    }
}

/// The replicated ensemble in virtual time, the leader killed once its
/// journal has appended `kill_after` records, the rest of `faults` as
/// given.
fn replicated(kill_after: Option<u64>, faults: FaultPlan) -> DaemonHandle<Virtual> {
    let kill = kill_after.map(|after_record| ServerCrash { after_record });
    let faults = FaultPlan {
        server_crashes: kill.into_iter().collect(),
        ..faults
    };
    DaemonHandle::simulate(replicated_config(), faults)
}

/// A line `qsub` on its own connection, acked.
fn line_qsub(d: &DaemonHandle<Virtual>, line: &str) -> JobId {
    let client = d.connect();
    client.send(line);
    match d.await_reply(&client, Duration::from_secs(1)) {
        Some(Reply::Submitted(id)) => id,
        other => panic!("{line} answered {other:?}"),
    }
}

/// The leader was killed `failovers` times, and nothing acked was lost or
/// diverged.
fn assert_failovers(d: &DaemonHandle<Virtual>, failovers: u64) {
    let status = d.replication_status().expect("replication is on");
    assert_eq!(status.failovers, failovers, "the kill points must fire");
    assert_eq!(status.term, 1 + failovers, "promotion bumps the term");
    assert_eq!(
        status.acked_lost, 0,
        "an ack waits for the followers: acked loss is impossible"
    );
    assert!(
        status.errors.is_empty(),
        "no divergence: {:?}",
        status.errors
    );
}

/// Leader kill mid-run: a follower takes over, re-attaches the moms, and
/// the ensemble drains with every acked job completed. Submissions ride
/// the reactor's group-commit path, so every ack the clients read was
/// released by the replication gate — `acked_lost` must be zero.
#[test]
fn failover_drains_and_loses_no_acked_job() {
    let d = replicated(Some(6), FaultPlan::none(0));
    let acked: Vec<JobId> = (0..8u32)
        .map(|i| {
            let (cores, ms) = (2 + i % 4, 60 + 30 * u64::from(i));
            let line = format!(
                "qsub name=j{i} user={} group=0 cores={cores} wall_ms={ms}",
                i % 3
            );
            line_qsub(&d, &line)
        })
        .collect();
    assert!(
        d.await_drained(Duration::from_secs(1)),
        "replicated ensemble must drain through the leader kill"
    );
    for id in &acked {
        assert_eq!(
            d.qstat(*id),
            Some(JobState::Completed),
            "acked job {id:?} lost across failover"
        );
    }
    assert_failovers(&d, 1);
}

/// A negotiated `tm_dynget` parked across the kill: its request record
/// replicated before the leader died, so the promoted leader re-arms the
/// window from *recovered* state and answers the caller — by window
/// expiry, since the filler pins the machine past it. The leader dies on
/// the record of the short job's finish (genesis snapshot = 1, three
/// submits and starts = 2–7, the `DynGet` and the cycle deferring it =
/// 8–9, the finish = 10), at 100 ms, while the caller is parked.
#[test]
fn parked_negotiation_survives_failover() {
    let d = replicated(Some(10), FaultPlan::none(0));
    let grower = d.qsub(spec("grower", 0, 8, 30_000)).expect("grower");
    assert!(d.await_running(grower, Duration::from_secs(1)));
    // The rest of the machine (3×8 = 24 cores): +16 cannot be granted
    // inside the window.
    let filler = d.qsub(spec("filler", 1, 15, 30_000)).expect("filler");
    let short = d.qsub(spec("short", 2, 1, 100)).expect("short");
    assert!(d.await_running(filler, Duration::from_secs(1)));
    assert!(d.await_running(short, Duration::from_secs(1)));
    let status = d.replication_status().expect("replication is on");
    assert_eq!((status.leader_appended, status.failovers), (7, 0));

    let resp = d.tm_dynget_negotiated(grower, 16, Duration::from_secs(3));
    assert!(matches!(resp, TmResponse::DynDenied), "{resp:?}");
    assert_eq!(d.now(), SimTime::from_millis(3_000), "the window answers");
    assert_failovers(&d, 1);
    for job in [grower, filler] {
        d.qdel(job).expect("qdel");
    }
    assert!(d.await_drained(Duration::from_secs(1)));
    assert_eq!(d.qstat(short), Some(JobState::Completed));
}

/// A negotiation lost with the leader does not wedge its mom. The leader
/// dies on the journal record of a mom-forwarded negotiated `tm_dynget`
/// (genesis snapshot = 1, the grower's `Submit` = 2 and start = 3, the
/// filler's `Submit` = 4 and start = 5, the `DynGet` = 6). The crash check
/// runs before the record is streamed, so it dies with the leader and the
/// failover reconcile denies the caller at once. The mother superior must
/// then forward the job's next `tm_dynget`, which the promoted leader
/// grants once the filler is gone.
#[test]
fn lost_negotiation_does_not_wedge_its_mom() {
    let d = replicated(Some(6), FaultPlan::none(0));
    let grower = d.qsub(spec("grower", 0, 8, 30_000)).expect("grower");
    assert!(d.await_running(grower, Duration::from_secs(1)));
    // The rest of the machine (3×8 = 24 cores): +8 cannot be granted.
    let filler = d.qsub(spec("filler", 1, 16, 30_000)).expect("filler");
    assert!(d.await_running(filler, Duration::from_secs(1)));
    let status = d.replication_status().expect("replication is on");
    assert_eq!(
        (status.leader_appended, status.failovers),
        (5, 0),
        "the kill must land on the DynGet's record"
    );

    let lost = d.tm_dynget_negotiated(grower, 8, Duration::from_secs(30));
    assert!(matches!(lost, TmResponse::DynDenied), "{lost:?}");
    assert_eq!(d.now(), SimTime::ZERO, "the reconcile, not the window");
    assert_failovers(&d, 1);

    d.qdel(filler).expect("qdel filler");
    let next = d.tm_dynget(grower, 8);
    assert!(
        matches!(&next, TmResponse::DynGranted { added } if added.total_cores() == 8),
        "the mom must forward the next tm_dynget, got {next:?}"
    );
    d.qdel(grower).expect("qdel grower");
    assert!(d.await_drained(Duration::from_secs(1)));
}

/// The ack rule holds for the typed client API as it does for lines: the
/// leader dies on the very record a `DaemonHandle::qsub` appended (genesis
/// snapshot = record 1, that `Submit` = record 2), at the first command
/// boundary after it. The id that call returned must name the same job on
/// the promoted leader — the followers had the record before the caller
/// had the id — and so must every id and every deletion either API acks
/// from then on, typed calls and line commands interleaved.
#[test]
fn typed_door_acks_are_replication_gated() {
    let d = replicated(Some(2), FaultPlan::none(0));
    let first = d.qsub(spec("typed0", 0, 8, 80)).expect("first typed qsub");
    // (id, whether a qdel of it was acked)
    let mut typed = vec![(first, false)];
    let lines = d.connect();
    for i in 1..10u32 {
        let (cores, ms) = (4 + 4 * (i % 2), 40 + 10 * u64::from(i));
        lines.send(&format!(
            "qsub name=line{i} user=1 group=0 cores={cores} wall_ms={ms}"
        ));
        let id = d
            .qsub(spec(&format!("typed{i}"), 2, 8, 60 + 10 * u64::from(i)))
            .expect("typed qsub");
        // Every third job is deleted at once — queued or running if the
        // machine (24 cores) got to it, denied if it already finished.
        typed.push((id, i % 3 == 0 && d.qdel(id).is_ok()));
    }
    for i in 1..10u32 {
        match d.await_reply(&lines, Duration::from_secs(1)) {
            Some(Reply::Submitted(id)) => typed.push((id, false)),
            other => panic!("line qsub {i} answered {other:?}"),
        }
    }
    assert!(
        d.await_drained(Duration::from_secs(1)),
        "replicated ensemble must drain through the leader kill"
    );

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
    assert_failovers(&d, 1);
}

/// The leader answers every read while the stream lags: with every run
/// deferred a pump, the followers chronically trail the leader — yet a `qstat` issued right after an acked `qsub`
/// observes the job (`Reply::Status`), on the writing connection and on
/// one that never wrote.
#[test]
fn the_leader_answers_every_read_while_the_stream_lags() {
    let lagging = FaultPlan {
        delay_permille: 1000,
        ..FaultPlan::none(7)
    };
    let d = replicated(None, lagging);
    let read = |client: &dynbatch::server::ReactorClient, id: JobId| {
        client.send(&format!("qstat {}", id.0));
        match d.await_reply(client, Duration::from_secs(1)) {
            Some(Reply::Status(state)) => assert!(!state.is_empty()),
            other => panic!("read of acked {id:?} answered {other:?}"),
        }
    };
    let mut first = None;
    for i in 0..30u32 {
        let client = d.connect();
        let user = i % 3;
        client.send(&format!(
            "qsub name=ryw{i} user={user} group=0 cores=2 wall_ms=40"
        ));
        let id = match d.await_reply(&client, Duration::from_secs(1)) {
            Some(Reply::Submitted(id)) => id,
            other => panic!("qsub answered {other:?}"),
        };
        first.get_or_insert(id);
        // Same connection, write acked: the read must observe the job.
        read(&client, id);
    }
    let probe = d.connect();
    for _ in 0..20 {
        read(&probe, first.expect("at least one submission"));
    }
    assert!(d.await_drained(Duration::from_secs(1)));
    assert_failovers(&d, 0);
}

/// Followers start no thread under `simulate`: none is alive at boot,
/// after a leader kill (whose host rejoins as a follower) or after the
/// drain — under any name a follower thread had (`rep0`, `rep1`,
/// `rejoin{n}`).
#[test]
fn simulated_followers_start_no_thread() {
    let no_follower_thread = |when: &str| {
        for tag in ["rep0", "rep1", "rejoin"] {
            let live = tagged_threads(tag);
            assert!(live.is_empty(), "{when}: follower threads {live:?}");
        }
    };
    let d = replicated(Some(4), FaultPlan::none(0));
    no_follower_thread("at boot");
    let ids: Vec<JobId> = (0..4u32)
        .map(|i| d.qsub(spec(&format!("t{i}"), i, 4, 50)).expect("qsub"))
        .collect();
    assert_failovers(&d, 1);
    no_follower_thread("after the leader kill");
    assert!(d.await_drained(Duration::from_secs(1)));
    for id in ids {
        assert_eq!(d.qstat(id), Some(JobState::Completed));
    }
    no_follower_thread("after the drain");
}

/// The fault-free replicated ensemble on the wall clock: one thread, the
/// ensemble's, with its followers inline; every follower at the leader's
/// watermark once the workload drained, and not one thread left after
/// `shutdown`.
#[test]
fn threaded_followers_keep_up_and_leave_no_thread() {
    let d = DaemonHandle::start(replicated_config());
    let tag = d.thread_tag().to_string();
    let ensemble = vec![format!("{tag}srv")];
    assert_eq!(tagged_threads_at_least(&tag, 1), ensemble);
    let typed = d.qsub(spec("typed", 0, 8, 40)).expect("typed qsub");
    let client = d.connect();
    client.send("qsub name=line user=1 group=0 cores=4 wall_ms=40");
    let line = match client.recv_timeout(Duration::from_secs(5)) {
        Some(Reply::Submitted(id)) => id,
        other => panic!("line qsub answered {other:?}"),
    };
    assert!(d.await_drained(Duration::from_secs(5)));
    for id in [typed, line] {
        assert_eq!(d.qstat(id), Some(JobState::Completed));
    }
    assert_eq!(
        tagged_threads(&tag),
        ensemble,
        "one thread, followers included"
    );
    let status = d.replication_status().expect("replication is on");
    assert_eq!(status.follower_watermarks, vec![status.leader_appended; 2]);
    assert!(status.errors.is_empty(), "{:?}", status.errors);
    d.shutdown();
    assert_no_tagged_threads(&tag);
}
