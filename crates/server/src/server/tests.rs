use super::*;
use crate::journal::{record_to_json, Journal, Record};
use crate::replication::installed;
use dynbatch_cluster::{Allocation, Cluster};
use dynbatch_core::{AllocPolicy, Error, JobId, JobSpec, JobState, SimTime};
use dynbatch_core::{DfsConfig, ExecutionModel, GroupId, SchedulerConfig, SimDuration, UserId};
use dynbatch_sched::Maui;
use dynbatch_sched::{DfsReject, ProfileDelta, Snapshot};

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn rigid(name: &str, user: u32, cores: u32, secs: u64) -> JobSpec {
    JobSpec::rigid(
        name,
        UserId(user),
        GroupId(0),
        cores,
        SimDuration::from_secs(secs),
    )
}

fn server() -> PbsServer {
    PbsServer::new(Cluster::homogeneous(15, 8), AllocPolicy::Pack)
}

fn hp_maui() -> Maui {
    let mut cfg = SchedulerConfig::paper_eval();
    cfg.dfs = DfsConfig::highest_priority();
    Maui::new(cfg)
}

/// A `tm_dynget` without a negotiation window.
fn dynget(job: JobId, extra_cores: u32, now: SimTime) -> Record {
    Record::DynGet {
        job,
        extra_cores,
        deadline: None,
        now,
    }
}

/// Drives one scheduler iteration against the server.
fn cycle(server: &mut PbsServer, maui: &mut Maui, now: SimTime) -> Vec<Applied> {
    server.run_cycle(maui, now).1
}

#[test]
fn qsub_then_start() {
    let mut s = server();
    let mut m = hp_maui();
    let id = submit(&mut s, rigid("A", 0, 16, 100), t(0)).unwrap();
    assert_eq!(s.queued_count(), 1);
    let applied = cycle(&mut s, &mut m, t(0));
    assert!(matches!(&applied[0], Applied::Started { job, .. } if *job == id));
    assert_eq!(s.job(id).unwrap().state, JobState::Running);
    assert_eq!(s.cluster().busy_cores(), 16);
    s.cluster().check_invariants().unwrap();
}

#[test]
fn invalid_qsub_rejected() {
    let mut s = server();
    assert!(matches!(
        submit(&mut s, rigid("X", 0, 500, 100), t(0)),
        Err(Error::RequestExceedsSystem { .. })
    ));
    let mut bad = rigid("X", 0, 4, 100);
    bad.cores = 0;
    assert!(matches!(submit(&mut s, bad, t(0)), Err(Error::BadSpec(_))));
}

#[test]
fn finish_records_outcome() {
    let mut s = server();
    let mut m = hp_maui();
    let id = submit(&mut s, rigid("A", 0, 16, 100), t(5)).unwrap();
    cycle(&mut s, &mut m, t(10));
    let finish = Record::Finish {
        job: id,
        now: t(110),
    };
    assert_eq!(s.execute(finish), Ok(Effect::Done));
    let [outcome] = s.accounting().outcomes() else {
        panic!("one outcome: {:?}", s.accounting().outcomes());
    };
    assert_eq!(outcome.wait(), SimDuration::from_secs(5));
    assert_eq!(outcome.runtime(), SimDuration::from_secs(100));
    assert_eq!(s.cluster().idle_cores(), 120);
    assert!(s.is_drained());
}

#[test]
fn dynget_roundtrip_success() {
    let mut s = server();
    let mut m = hp_maui();
    let id = submit(
        &mut s,
        JobSpec::evolving(
            "F",
            UserId(6),
            GroupId(0),
            8,
            ExecutionModel::esp_evolving(1846, 1230, 4),
        ),
        t(0),
    )
    .unwrap();
    cycle(&mut s, &mut m, t(0));
    assert_eq!(s.job(id).unwrap().state, JobState::Running);

    // Application hits its threshold and calls tm_dynget.
    s.execute(dynget(id, 4, t(295))).unwrap();
    assert_eq!(s.job(id).unwrap().state, JobState::DynQueued);
    // A second request while one is pending is refused.
    assert!(matches!(
        s.execute(dynget(id, 4, t(296))),
        Err(Error::DynRequestPending(_))
    ));

    let applied = cycle(&mut s, &mut m, t(295));
    assert!(applied.iter().any(|a| matches!(
        a,
        Applied::DynGranted { job, added } if *job == id && added.total_cores() == 4
    )));
    let job = s.job(id).unwrap();
    assert_eq!(job.state, JobState::Running);
    assert_eq!(job.cores_allocated, 12);
    assert_eq!(job.dyn_requests, 1);
    assert_eq!(job.dyn_grants, 1);
    s.cluster().check_invariants().unwrap();
}

#[test]
fn dynget_rejected_when_full() {
    let mut s = server();
    let mut m = hp_maui();
    let evolving = submit(
        &mut s,
        JobSpec::evolving(
            "F",
            UserId(6),
            GroupId(0),
            8,
            ExecutionModel::esp_evolving(1846, 1230, 4),
        ),
        t(0),
    )
    .unwrap();
    let filler = submit(&mut s, rigid("big", 1, 112, 2000), t(0)).unwrap();
    cycle(&mut s, &mut m, t(0));
    assert_eq!(s.cluster().idle_cores(), 0);
    let _ = filler;

    s.execute(dynget(evolving, 4, t(295))).unwrap();
    let applied = cycle(&mut s, &mut m, t(295));
    assert!(applied.iter().any(|a| matches!(
        a,
        Applied::DynRejected { job, reason: DfsReject::NoResources } if *job == evolving
    )));
    // Back to Running; the application may retry.
    assert_eq!(s.job(evolving).unwrap().state, JobState::Running);
    s.execute(dynget(evolving, 4, t(460))).unwrap();
    assert_eq!(s.job(evolving).unwrap().dyn_requests, 2);
}

#[test]
fn dynfree_releases_subset() {
    let mut s = server();
    let mut m = hp_maui();
    let id = submit(&mut s, rigid("A", 0, 16, 1000), t(0)).unwrap();
    cycle(&mut s, &mut m, t(0));
    let alloc = s.cluster().allocation_of(id).unwrap().clone();
    let mut part = Allocation::empty();
    let (node, _) = alloc.entries().next().unwrap();
    part.add(node, 4);
    s.execute(Record::DynFree {
        job: id,
        released: part,
        now: t(100),
    })
    .unwrap();
    assert_eq!(s.job(id).unwrap().cores_allocated, 12);
    assert_eq!(s.cluster().idle_cores(), 108);
    // Releasing the entire allocation through tm_dynfree is refused.
    let all = s.cluster().allocation_of(id).unwrap().clone();
    assert!(s
        .execute(Record::DynFree {
            job: id,
            released: all,
            now: t(101)
        })
        .is_err());
    s.cluster().check_invariants().unwrap();
}

#[test]
fn qdel_queued_and_running() {
    let mut s = server();
    let mut m = hp_maui();
    let a = submit(&mut s, rigid("A", 0, 8, 100), t(0)).unwrap();
    let b = submit(&mut s, rigid("B", 0, 8, 100), t(0)).unwrap();
    cycle(&mut s, &mut m, t(0));
    s.execute(Record::Qdel { job: a, now: t(10) }).unwrap();
    assert_eq!(s.job(a).unwrap().state, JobState::Cancelled);
    assert_eq!(s.cluster().cores_of(a), 0);
    s.execute(Record::Qdel { job: b, now: t(10) }).unwrap();
    assert!(s.is_drained());
    // Double delete fails.
    assert!(s.execute(Record::Qdel { job: a, now: t(11) }).is_err());
}

#[test]
fn snapshot_reflects_state() {
    let mut s = server();
    let mut m = hp_maui();
    let a = submit(&mut s, rigid("A", 0, 100, 500), t(0)).unwrap();
    let b = submit(&mut s, rigid("B", 1, 100, 500), t(1)).unwrap();
    cycle(&mut s, &mut m, t(1));
    let snap = s.snapshot(t(2));
    assert_eq!(snap.running.len(), 1);
    assert_eq!(snap.running[0].id, a);
    assert_eq!(snap.queued.len(), 1);
    assert_eq!(snap.queued.iter().next().unwrap().id, b);
    assert_eq!(snap.total_cores, 120);
    assert!(snap.dyn_requests.is_empty());
}

/// With `enable_journal(1)` every record compacts: the newest record
/// is a snapshot patched from the one before it.
fn assert_newest_snapshot_is_fresh(s: &PbsServer) {
    let journal = s.journal().unwrap();
    let (pos, newest) = journal.latest_snapshot().unwrap();
    assert_eq!(pos, journal.total_appended());
    assert_eq!(*newest, s.image());
}

/// The maintained view against the walk it replaced (debug builds
/// assert this inside every `snapshot`; this holds in release too).
fn assert_view_is_the_walk(s: &PbsServer, now: SimTime) {
    let (view, walk) = (s.snapshot(now), s.snapshot_walk(now));
    assert_eq!(view.running, walk.running);
    assert_eq!(view.queued, walk.queued);
    assert_eq!(view.dyn_requests, walk.dyn_requests);
    assert_eq!(
        view.backfill_suppressed(),
        walk.queued.iter().any(|q| q.suppress_backfill_while_queued)
    );
    assert_eq!(s.queued_count(), walk.queued.len());
    assert_eq!(s.active_count(), walk.running.len());
}

#[test]
fn view_follows_preemption_requeue_and_a_policy_flip() {
    let mut s = server();
    s.enable_journal(1);
    let mut cfg = SchedulerConfig::paper_eval();
    cfg.dfs = DfsConfig::highest_priority();
    cfg.preempt_backfilled_for_dyn = true;
    let mut m = Maui::new(cfg);
    let evolving = JobSpec::evolving(
        "F",
        UserId(6),
        GroupId(0),
        8,
        ExecutionModel::esp_evolving(1846, 1230, 4),
    );
    let f = submit(&mut s, evolving.clone(), t(0)).unwrap();
    let _wide = submit(&mut s, rigid("wide", 1, 100, 500), t(0)).unwrap();
    // `blocked` gets a reservation; `small` is backfilled around it.
    let blocked = submit(&mut s, rigid("blocked", 2, 120, 500), t(1)).unwrap();
    let small = submit(&mut s, rigid("small", 3, 12, 100), t(2)).unwrap();
    let mut z = rigid("Z", 4, 8, 100);
    z.suppress_backfill_while_queued = true;
    cycle(&mut s, &mut m, t(2));
    assert!(
        s.job(small).unwrap().backfilled,
        "12 cores fit around the reservation"
    );
    assert_view_is_the_walk(&s, t(2));

    // The machine is full: the request preempts the backfilled job,
    // which re-enters the queue *between* older and newer ids.
    let late = submit(&mut s, rigid("late", 5, 120, 50), t(3)).unwrap();
    s.execute(dynget(f, 4, t(295))).unwrap();
    assert_view_is_the_walk(&s, t(295));
    let applied = cycle(&mut s, &mut m, t(295));
    assert!(applied.contains(&Applied::Preempted { job: small }));
    assert_eq!(s.job(small).unwrap().state, JobState::Queued);
    assert_view_is_the_walk(&s, t(295));
    assert_newest_snapshot_is_fresh(&s);
    let queued: Vec<JobId> = s.snapshot(t(296)).queued.iter().map(|q| q.id).collect();
    assert_eq!(queued, vec![blocked, small, late]);

    // A Z job comes and goes; a queued evolving job's pre-reserve
    // follows the guaranteeing policy when it flips.
    let z = submit(&mut s, z, t(300)).unwrap();
    assert!(s.snapshot(t(300)).backfill_suppressed());
    let g = submit(&mut s, evolving, t(301)).unwrap();
    s.execute(Record::Guarantee { on: true }).unwrap();
    assert_eq!(s.snapshot(t(302)).queued.get(g).unwrap().reserve_extra, 4);
    assert_view_is_the_walk(&s, t(302));
    s.execute(Record::Guarantee { on: false }).unwrap();
    s.execute(Record::Qdel {
        job: z,
        now: t(303),
    })
    .unwrap();
    assert!(!s.snapshot(t(303)).backfill_suppressed());
    assert_view_is_the_walk(&s, t(303));

    // A node under the evolving job fails: it requeues too.
    let node = s
        .cluster()
        .allocation_of(f)
        .unwrap()
        .entries()
        .next()
        .unwrap()
        .0;
    let failed = s.execute(Record::NodeFailed { node, now: t(310) });
    assert!(matches!(failed, Ok(Effect::Requeued(victims)) if victims.contains(&f)));
    assert_view_is_the_walk(&s, t(310));
    assert_newest_snapshot_is_fresh(&s);
}

#[test]
fn a_live_snapshot_is_not_changed_by_later_mutations() {
    // The snapshot shares the server's view; the first mutation after
    // it copies, so what the scheduler was handed stays what it was.
    let mut s = server();
    let mut m = hp_maui();
    let a = submit(&mut s, rigid("A", 0, 100, 500), t(0)).unwrap();
    let b = submit(&mut s, rigid("B", 1, 100, 500), t(1)).unwrap();
    let before = s.snapshot(t(1));
    let outcome = m.iterate(&before);
    s.apply(&outcome, t(1));
    s.execute(Record::Qdel { job: b, now: t(2) }).unwrap();
    let ids = |snap: &Snapshot| -> (Vec<JobId>, Vec<JobId>) {
        (
            snap.running.iter().map(|r| r.id).collect(),
            snap.queued.iter().map(|q| q.id).collect(),
        )
    };
    assert_eq!(ids(&before), (vec![], vec![a, b]));
    assert_eq!(ids(&s.snapshot(t(2))), (vec![a], vec![]));
}

#[test]
fn dynqueued_without_pending_entry_is_counted_not_silent() {
    // Regression: the snapshot used to turn this breach into "no
    // request this cycle" without a trace. No command sequence can
    // produce it, so the state comes from a doctored image.
    let mut s = server();
    let mut m = hp_maui();
    let id = submit(
        &mut s,
        JobSpec::evolving(
            "F",
            UserId(6),
            GroupId(0),
            8,
            ExecutionModel::esp_evolving(1846, 1230, 4),
        ),
        t(0),
    )
    .unwrap();
    cycle(&mut s, &mut m, t(0));
    s.execute(dynget(id, 4, t(295))).unwrap();
    assert_eq!(s.snapshot(t(295)).dyn_requests.len(), 1);
    assert_eq!(s.invariant_breaches(), 0);

    let mut img = s.image();
    img.dyn_pending.clear();
    let broken = installed(&img);
    assert_eq!(broken.job(id).unwrap().state, JobState::DynQueued);
    let snap = std::panic::catch_unwind(|| {
        let snap = broken.snapshot(t(296));
        (
            snap.running.len(),
            snap.dyn_requests.len(),
            broken.invariant_breaches(),
        )
    });
    if cfg!(debug_assertions) {
        assert!(snap.is_err(), "test builds must fail on the breach");
    } else {
        // Still running, no request served, and the breach is on record.
        assert_eq!(snap.unwrap(), (1, 0, 1));
    }
}

#[test]
fn compacting_snapshot_rebuilt_in_old_buffers_equals_fresh_image() {
    // Every record compacts, so every snapshot but the first is its
    // predecessor patched in place: longer, equal and — once
    // retention is turned off and terminal jobs are dropped — shorter.
    let mut s = server();
    s.enable_journal(1);
    let newest = |s: &PbsServer| s.journal().unwrap().latest_snapshot().unwrap().1.clone();
    let mut ids = Vec::new();
    for i in 0..12 {
        let spec = JobSpec::rigid(
            format!("job-with-a-long-name-{i}"),
            UserId(i),
            GroupId(0),
            4,
            SimDuration::from_secs(100 + u64::from(i)),
        );
        ids.push(submit(&mut s, spec, t(u64::from(i))).unwrap());
        assert_eq!(newest(&s), s.image());
    }
    for &id in &ids[..6] {
        s.execute(Record::Qdel {
            job: id,
            now: t(20),
        })
        .unwrap();
        assert_eq!(newest(&s), s.image());
    }
    assert_eq!(newest(&s).jobs.len(), 12);
    s.set_job_retention(false);
    submit(&mut s, rigid("late", 1, 4, 50), t(21)).unwrap();
    assert_eq!(newest(&s).jobs.len(), 7, "swept jobs leave the image");
    assert_eq!(newest(&s), s.image());
    // With retention off a deleted job is in the snapshot its own
    // record triggers and gone from the next one.
    s.execute(Record::Qdel {
        job: ids[6],
        now: t(22),
    })
    .unwrap();
    assert_eq!(newest(&s).jobs.len(), 7);
    submit(&mut s, rigid("later", 1, 4, 50), t(23)).unwrap();
    assert_eq!(newest(&s).jobs.len(), 7, "dropped job leaves the image");
    assert_eq!(newest(&s), s.image());
    let recovered = PbsServer::recover(s.journal().unwrap().clone()).unwrap();
    assert_eq!(recovered.state_digest(), s.state_digest());
}

#[test]
fn compaction_copies_the_live_table_not_the_history() {
    // Work counted, not timed. Behind the journal sit 5 000 retained
    // terminal jobs and as many outcomes; each compaction may copy
    // only the live jobs and the ones retired since the snapshot it
    // patched.
    for lag_intervals in [0, 2] {
        let mut s = server();
        let mut m = hp_maui();
        for round in 0..50 {
            let ids: Vec<JobId> = (0..100)
                .map(|i| submit(&mut s, rigid("old", i % 7, 1, 10), t(round)).unwrap())
                .collect();
            cycle(&mut s, &mut m, t(round));
            for id in ids {
                s.execute(Record::Finish {
                    job: id,
                    now: t(round),
                })
                .unwrap();
            }
        }
        assert_eq!(s.jobs().count(), 5_000);
        assert_eq!(s.accounting().outcomes().len(), 5_000);
        s.enable_journal(64);
        compaction_work::take();

        // The journal's length when the script retired a job (after
        // the command: a retirement is noted last) and when it
        // finished one (before it).
        let mut retired: Vec<u64> = Vec::new();
        let mut finished: Vec<u64> = Vec::new();
        let (mut queued, mut running) = (Vec::new(), Vec::new());
        let (mut compactions, mut patched, mut patched_older) = (0, 0, 0);
        for step in 0..4_000u64 {
            let now = t(100 + step);
            let journal = s.journal().unwrap();
            let stamp = journal.total_appended();
            let latest = journal.latest_snapshot().unwrap().0;
            s.journal_retain_from((stamp + 1).saturating_sub(64 * lag_intervals));
            let mut retires = false;
            match step % 8 {
                0..=3 => queued.push(submit(&mut s, rigid("new", 1, 2, 500), now).unwrap()),
                4 if !queued.is_empty() => {
                    s.execute(Record::Qdel {
                        job: queued.remove(0),
                        now,
                    })
                    .unwrap();
                    retires = true;
                }
                5 if !running.is_empty() => {
                    s.execute(Record::Finish {
                        job: running.remove(0),
                        now,
                    })
                    .unwrap();
                    retires = true;
                    finished.push(stamp);
                }
                6 => {
                    for applied in cycle(&mut s, &mut m, now) {
                        let Applied::Started { job, .. } = applied else {
                            panic!("rigid jobs only start: {applied:?}");
                        };
                        queued.retain(|&id| id != job);
                        running.push(job);
                    }
                }
                _ => {}
            }
            retired.extend(retires.then(|| s.journal().unwrap().total_appended()));
            let Some(work) = compaction_work::take() else {
                continue;
            };
            compactions += 1;
            let Some(from) = work.patched_from else {
                // The floor's first step above zero lands below the
                // journal's start: nothing is discarded, once.
                assert!(lag_intervals > 0 && compactions <= 3, "{work:?}");
                continue;
            };
            // The command's own record triggered the compaction, so a
            // job it retires was still live in that image, and noted
            // after it.
            let live = s.live_jobs().count() + usize::from(retires);
            let noted = &retired[..retired.len() - usize::from(retires)];
            let since = noted.iter().filter(|&&at| at >= from).count();
            assert_eq!(work.retired, since, "{work:?}");
            assert_eq!(work.jobs, live + since, "{work:?}");
            assert!(work.jobs < 1_500, "{work:?}");
            let recorded = finished.iter().filter(|&&at| at >= from).count();
            assert_eq!(work.outcomes, recorded, "{work:?}");
            patched += 1;
            patched_older += usize::from(from < latest);
        }
        assert!(patched >= 30 && patched + 1 >= compactions, "{patched}");
        if lag_intervals == 0 {
            assert_eq!(patched_older, 0);
        } else {
            assert!(patched_older + 3 >= patched, "{patched_older} of {patched}");
        }
        assert!(s.jobs().count() > 6_000);
    }
}

#[test]
fn negotiated_request_survives_apply_and_expires() {
    let mut s = server();
    let mut m = hp_maui();
    let evolving = submit(
        &mut s,
        JobSpec::evolving(
            "F",
            UserId(6),
            GroupId(0),
            8,
            ExecutionModel::esp_evolving(1000, 700, 4),
        ),
        t(0),
    )
    .unwrap();
    let _filler = submit(&mut s, rigid("big", 1, 112, 2000), t(0)).unwrap();
    cycle(&mut s, &mut m, t(0));
    assert_eq!(s.cluster().idle_cores(), 0);

    // Negotiated request with a deadline at t=500.
    s.execute(Record::DynGet {
        job: evolving,
        extra_cores: 4,
        deadline: Some(t(500)),
        now: t(100),
    })
    .unwrap();
    let applied = cycle(&mut s, &mut m, t(100));
    assert!(applied
        .iter()
        .any(|a| matches!(a, Applied::DynDeferred { .. })));
    // Still pending: the job stays DynQueued across the iteration.
    assert_eq!(s.job(evolving).unwrap().state, JobState::DynQueued);
    // Before the deadline nothing expires.
    let sweep = |at| Record::ExpireSweep { now: t(at) };
    assert_eq!(s.execute(sweep(400)), Ok(Effect::Unchanged));
    assert_eq!(s.job(evolving).unwrap().state, JobState::DynQueued);
    // At the deadline it expires and the job resumes Running.
    assert_eq!(s.execute(sweep(500)), Ok(Effect::Expired(vec![evolving])));
    assert_eq!(s.job(evolving).unwrap().state, JobState::Running);
    // The snapshot carries no stale request afterwards.
    assert!(s.snapshot(t(501)).dyn_requests.is_empty());
}

#[test]
fn guarantee_reserve_tracked_and_consumed() {
    let mut s = server();
    s.execute(Record::Guarantee { on: true }).unwrap();
    let mut m = {
        let mut cfg = SchedulerConfig::paper_eval();
        cfg.dfs = DfsConfig::highest_priority();
        cfg.guarantee_evolving = true;
        Maui::new(cfg)
    };
    let id = submit(
        &mut s,
        JobSpec::evolving(
            "F",
            UserId(6),
            GroupId(0),
            8,
            ExecutionModel::esp_evolving(1000, 700, 4),
        ),
        t(0),
    )
    .unwrap();
    cycle(&mut s, &mut m, t(0));
    assert_eq!(s.job(id).unwrap().reserved_extra, 4);
    assert_eq!(s.reserved_unused_cores(), 4);
    // The grant consumes the reserve.
    s.execute(dynget(id, 4, t(160))).unwrap();
    cycle(&mut s, &mut m, t(160));
    let job = s.job(id).unwrap();
    assert_eq!(job.dyn_grants, 1);
    assert_eq!(job.cores_allocated, 12);
    assert_eq!(job.reserved_extra, 0);
    assert_eq!(s.reserved_unused_cores(), 0);
    s.cluster().check_invariants().unwrap();
}

#[test]
fn grant_to_an_overdue_requester_keeps_its_cores_for_the_iteration() {
    let evolving = |name: &str, cores, set| {
        JobSpec::evolving(
            name,
            UserId(1),
            GroupId(0),
            cores,
            ExecutionModel::esp_evolving(set, set, 4),
        )
    };
    let mut s = server();
    let mut m = hp_maui();
    let late = submit(&mut s, evolving("late", 56, 100), t(0)).unwrap();
    let other = submit(&mut s, evolving("other", 55, 1000), t(0)).unwrap();
    cycle(&mut s, &mut m, t(0));
    assert_eq!(s.cluster().idle_cores(), 9);
    // `late` is 50 s past its walltime when it asks: its remaining
    // walltime is zero. Both requests fit the 9 idle cores alone,
    // together they do not.
    s.execute(dynget(late, 6, t(150))).unwrap();
    s.execute(dynget(other, 7, t(150))).unwrap();
    let applied = cycle(&mut s, &mut m, t(150));
    assert!(applied
        .iter()
        .any(|a| matches!(a, Applied::DynGranted { job, .. } if *job == late)));
    assert!(applied.iter().any(|a| matches!(
        a,
        Applied::DynRejected { job, reason: DfsReject::NoResources } if *job == other
    )));
    assert_eq!(s.cluster().idle_cores(), 3);
    s.cluster().check_invariants().unwrap();
}

#[test]
fn node_failure_sheds_pre_reserves_the_machine_cannot_honour() {
    let mut s = PbsServer::new(Cluster::homogeneous(3, 8), AllocPolicy::Pack);
    s.execute(Record::Guarantee { on: true }).unwrap();
    s.enable_journal(0);
    let mut m = {
        let mut cfg = SchedulerConfig::paper_eval();
        cfg.dfs = DfsConfig::highest_priority();
        cfg.guarantee_evolving = true;
        Maui::new(cfg)
    };
    let evolving = |name: &str, cores, extra| {
        JobSpec::evolving(
            name,
            UserId(1),
            GroupId(0),
            cores,
            ExecutionModel::esp_evolving(1000, 700, extra),
        )
    };
    let old = submit(&mut s, evolving("old", 8, 6), t(0)).unwrap();
    let young = submit(&mut s, evolving("young", 4, 4), t(0)).unwrap();
    cycle(&mut s, &mut m, t(0));
    assert_eq!(s.reserved_unused_cores(), 10);
    // 22 of 24 cores held; the idle third node fails and 16 are left.
    let fail = Record::NodeFailed {
        node: dynbatch_core::NodeId(2),
        now: t(10),
    };
    assert_eq!(s.execute(fail), Ok(Effect::Requeued(Vec::new())));
    assert_eq!(s.job(young).unwrap().reserved_extra, 0);
    assert_eq!(s.job(old).unwrap().reserved_extra, 4);
    assert_view_is_the_walk(&s, t(10));
    cycle(&mut s, &mut m, t(10));
    let journal = s.journal().unwrap().clone();
    let recovered = PbsServer::recover(journal).unwrap();
    assert_eq!(recovered.state_digest(), s.state_digest());
    assert_eq!(recovered.reserved_unused_cores(), 4);
}

#[test]
fn malleable_resize_round_trip() {
    let mut s = server();
    s.enable_journal(1);
    let mut m = {
        let mut cfg = SchedulerConfig::paper_eval();
        cfg.dfs = DfsConfig::highest_priority();
        cfg.grow_malleable_on_idle = true;
        Maui::new(cfg)
    };
    let id = submit(
        &mut s,
        JobSpec::malleable("pool", UserId(0), GroupId(0), 16, 8, 64, 16_000),
        t(0),
    )
    .unwrap();
    // First cycle starts it; second grows it onto the idle machine.
    cycle(&mut s, &mut m, t(0));
    assert_eq!(s.job(id).unwrap().cores_allocated, 16);
    let applied = cycle(&mut s, &mut m, t(1));
    let grew = applied.iter().any(|a| {
        matches!(
            a,
            Applied::Resized { job, from_cores: 16, to_cores: 64, .. } if *job == id
        )
    });
    assert!(grew, "{applied:?}");
    assert_eq!(s.job(id).unwrap().cores_allocated, 64);
    assert_eq!(s.cluster().cores_of(id), 64);
    assert_newest_snapshot_is_fresh(&s);
    s.cluster().check_invariants().unwrap();
}

#[test]
fn moldable_start_uses_chosen_width() {
    let mut s = server();
    let mut m = hp_maui();
    let id = submit(
        &mut s,
        JobSpec::moldable("mold", UserId(0), GroupId(0), 8, 8, 48, 9_600),
        t(0),
    )
    .unwrap();
    let applied = cycle(&mut s, &mut m, t(0));
    assert!(applied.iter().any(|a| matches!(
        a,
        Applied::Started { job, alloc, .. } if *job == id && alloc.total_cores() == 48
    )));
    assert_eq!(s.job(id).unwrap().cores_allocated, 48);
}

// ------------------------------------------------------------------
// The delta log: what is recorded, when, and what a gap costs.
// ------------------------------------------------------------------

/// A scheduler with windowed static fairshare switched on.
fn windowed_maui() -> Maui {
    let mut cfg = SchedulerConfig::paper_eval();
    cfg.dfs = DfsConfig::highest_priority();
    cfg.fairshare.enabled = true;
    cfg.fairshare.windows = 4;
    cfg.fairshare.decay = 0.5;
    Maui::new(cfg)
}

#[test]
fn the_log_records_only_once_somebody_drains_it() {
    let mut s = server();
    let mut m = hp_maui();
    // Plain snapshots drain nothing, so nothing is kept for them.
    let id = submit(&mut s, rigid("J", 0, 8, 100), t(0)).unwrap();
    let outcome = m.iterate(&s.snapshot(t(0)));
    s.apply(&outcome, t(0));
    s.execute(Record::Finish {
        job: id,
        now: t(10),
    })
    .unwrap();
    assert!(s.deltas.is_empty() && s.deltas.capacity() == 0);
    // The first drained log stands for all of that: totals, no history.
    let charged = |core_ms, at| ProfileDelta::Charged {
        user: UserId(0),
        core_ms,
        at,
    };
    let snap = s.snapshot_incremental(t(60));
    m.iterate(&snap);
    let first = snap.deltas.unwrap();
    assert_eq!((first.base_epoch, first.epoch), (0, 1));
    assert_eq!(first.deltas, [charged(80_000, t(60))]);
    let id = submit(&mut s, rigid("J", 0, 8, 100), t(60)).unwrap();
    cycle(&mut s, &mut m, t(60));
    s.execute(Record::Finish {
        job: id,
        now: t(70),
    })
    .unwrap();
    let queued = submit(&mut s, rigid("Q", 1, 8, 100), t(70)).unwrap();
    s.execute(Record::Qdel {
        job: queued,
        now: t(71),
    })
    .unwrap();
    assert!(matches!(s.deltas[0], ProfileDelta::Started { job, .. } if job == id));
    let (finished, left) = (
        ProfileDelta::Finished { job: id },
        ProfileDelta::LeftQueue { job: queued },
    );
    assert_eq!(s.deltas[1..], [charged(80_000, t(70)), finished, left]);
    // A new server, `recover` and an image load all start over.
    s.enable_journal(0);
    let loaded = installed(&s.image());
    let recovered = PbsServer::recover(s.take_journal().unwrap()).unwrap();
    let fresh = PbsServer::new(Cluster::homogeneous(15, 8), AllocPolicy::Pack);
    for (mut s, core_s) in [(fresh, 0.0), (recovered, 160.0), (loaded, 160.0)] {
        submit(&mut s, rigid("J", 0, 8, 100), t(80)).unwrap();
        let outcome = m.iterate(&s.snapshot(t(80)));
        s.apply(&outcome, t(80));
        assert!(s.deltas.is_empty());
        // The totals a first log carries replace what `m` held.
        let snap = s.snapshot_incremental(t(80));
        m.iterate(&snap);
        assert_eq!(snap.deltas.unwrap().base_epoch, 0);
        assert_eq!(m.fairshare().charged(UserId(0)), core_s);
    }
}

/// The window-attribution regression, where the mechanism lives: a
/// usage segment that closes at t=59 min but reaches the scheduler at
/// t=61 min — after the 1 h fairshare window boundary — is charged to
/// the window covering the close instant, so a scheduler whose next
/// cycle comes late agrees exactly with one that ran a cycle inside
/// the window. (Charged to the window current at the drain, the late
/// charge escaped one decay step.)
#[test]
fn a_late_drain_charges_the_window_the_segment_closed_in() {
    let close = t(59 * 60);
    let run = |cycle_at_close: bool| {
        let mut s = PbsServer::new(Cluster::homogeneous(1, 8), AllocPolicy::Pack);
        let mut m = windowed_maui();
        let id = submit(&mut s, rigid("seg", 0, 8, 3_600), t(0)).unwrap();
        cycle(&mut s, &mut m, t(0));
        s.execute(Record::Finish {
            job: id,
            now: close,
        })
        .unwrap();
        if cycle_at_close {
            cycle(&mut s, &mut m, close);
        }
        cycle(&mut s, &mut m, t(61 * 60));
        m
    };
    let (eager, late) = (run(true), run(false));
    assert_eq!(late.fairshare().charged(UserId(0)), (8 * 59 * 60) as f64);
    assert_eq!(late.fairshare(), eager.fairshare(), "late vs eager drain");
}

/// A scheduler that is handed something other than the next log of the
/// server it follows — a plain snapshot in between, a log of another
/// server, the log after one that was dropped — rebuilds instead of
/// applying it, and decides what the reference decides.
#[test]
fn a_dropped_or_foreign_log_takes_the_gap_path() {
    use dynbatch_sched::reference::iterate_naive;
    let mut servers = [server(), server()];
    for k in 0..4 {
        submit(&mut servers[0], rigid("J", k, 32, 600), t(0)).unwrap();
        submit(&mut servers[1], rigid("O", k, 48, 600), t(0)).unwrap();
    }
    let (mut m, mut naive) = (windowed_maui(), windowed_maui());
    // (which server, drain its log?, is it a gap?), 100 s apart. A
    // plain snapshot drains nothing, so job 2's charge rides the log
    // after it; a log drained and dropped (`None`) is lost.
    let steps = [
        (0, Some(true), true),
        (0, Some(true), false),
        (0, Some(false), true),
        (0, Some(true), true),
        (1, Some(true), true),
        (1, Some(true), false),
        (0, Some(true), true),
        (0, None, true),
        (0, Some(true), true),
        (0, Some(true), false),
    ];
    let mut rebuilds = 0;
    for (k, (which, drain, gap)) in steps.into_iter().enumerate() {
        let (s, now) = (&mut servers[which], t(100 * k as u64));
        if which == 0 && (1..=3).contains(&k) {
            s.execute(Record::Finish {
                job: JobId(k as u64),
                now,
            })
            .unwrap();
        }
        let snap = match drain {
            Some(true) => s.snapshot_incremental(now),
            Some(false) => s.snapshot(now),
            None => {
                drop(s.snapshot_incremental(now));
                continue;
            }
        };
        let outcome = m.iterate(&snap);
        assert_eq!(outcome, iterate_naive(&mut naive, &snap), "step {k}");
        assert_eq!(m.fairshare(), naive.fairshare());
        rebuilds += gap as u64;
        assert_eq!(m.timeline_stats().rebuilds, rebuilds, "step {k}");
        drop(snap);
        s.apply(&outcome, now);
        if k == 3 {
            assert_eq!(m.fairshare().charged(UserId(1)), (32 * 200) as f64);
        }
    }
}

#[test]
fn usage_charges_constant_width_segments() {
    // An 8-core evolving job runs 150 ms at width 8, grows to 16 and
    // runs another 150 ms: 8×150 + 16×150 = 3600 core-ms — charging
    // final-width × runtime (the old daemon-side bug) would say 4800.
    let mut s = server();
    let mut m = hp_maui();
    let id = submit(
        &mut s,
        JobSpec::evolving(
            "F",
            UserId(7),
            GroupId(0),
            8,
            ExecutionModel::esp_evolving(1846, 1230, 8),
        ),
        SimTime::ZERO,
    )
    .unwrap();
    cycle(&mut s, &mut m, SimTime::ZERO);
    s.execute(dynget(id, 8, SimTime::from_millis(150))).unwrap();
    cycle(&mut s, &mut m, SimTime::from_millis(150));
    assert_eq!(s.job(id).unwrap().cores_allocated, 16);
    s.execute(Record::Finish {
        job: id,
        now: SimTime::from_millis(300),
    })
    .unwrap();
    assert_eq!(s.usage_core_millis(UserId(7)), 3600);
    assert_eq!(s.usage().collect::<Vec<_>>(), vec![(UserId(7), 3600)]);
}

#[test]
fn usage_survives_recovery_exactly() {
    // Crash mid-run with an open segment: the snapshot carries both
    // the closed core-ms and the open cursor, so the recovered server
    // keeps charging from the exact same split.
    let mut s = server();
    s.enable_journal(0);
    let mut m = hp_maui();
    let a = submit(&mut s, rigid("A", 1, 8, 100), SimTime::ZERO).unwrap();
    let b = submit(&mut s, rigid("B", 2, 4, 100), SimTime::ZERO).unwrap();
    cycle(&mut s, &mut m, SimTime::ZERO);
    s.execute(Record::Finish {
        job: a,
        now: SimTime::from_millis(500),
    })
    .unwrap();
    let digest = s.state_digest();
    let mut r = PbsServer::recover(s.take_journal().unwrap()).unwrap();
    assert_eq!(r.state_digest(), digest);
    assert_eq!(r.usage_core_millis(UserId(1)), 8 * 500);
    assert_eq!(r.usage_core_millis(UserId(2)), 0, "open segment uncharged");
    r.execute(Record::Finish {
        job: b,
        now: SimTime::from_millis(900),
    })
    .unwrap();
    assert_eq!(r.usage_core_millis(UserId(2)), 4 * 900);
}

#[test]
fn out_of_order_finish_denies_instead_of_panicking() {
    let mut s = server();
    let mut m = hp_maui();
    let id = submit(&mut s, rigid("A", 0, 8, 100), t(0)).unwrap();
    // Finish before start: the job is queued, not active.
    assert!(s.execute(Record::Finish { job: id, now: t(1) }).is_err());
    cycle(&mut s, &mut m, t(1));
    s.execute(Record::Finish {
        job: id,
        now: t(50),
    })
    .unwrap();
    // Duplicate finish (double-delivered exit) denies too.
    assert!(s
        .execute(Record::Finish {
            job: id,
            now: t(51)
        })
        .is_err());
    assert!(s
        .execute(Record::Finish {
            job: JobId(99),
            now: t(51)
        })
        .is_err());
}

#[test]
fn recover_from_journal_matches_live_state() {
    let mut s = server();
    s.enable_journal(0);
    let mut m = hp_maui();
    let a = submit(&mut s, rigid("A", 0, 16, 100), t(0)).unwrap();
    let b = submit(&mut s, rigid("B", 1, 64, 500), t(0)).unwrap();
    let ev = submit(
        &mut s,
        JobSpec::evolving(
            "F",
            UserId(6),
            GroupId(0),
            8,
            ExecutionModel::esp_evolving(1846, 1230, 4),
        ),
        t(1),
    )
    .unwrap();
    cycle(&mut s, &mut m, t(1));
    s.execute(Record::Finish {
        job: a,
        now: t(100),
    })
    .unwrap();
    cycle(&mut s, &mut m, t(100));
    s.execute(Record::DynGet {
        job: ev,
        extra_cores: 4,
        deadline: Some(t(900)),
        now: t(200),
    })
    .unwrap();
    cycle(&mut s, &mut m, t(200));
    s.execute(Record::Qdel {
        job: b,
        now: t(300),
    })
    .unwrap();
    let _ = b;

    let digest = s.state_digest();
    let recovered = PbsServer::recover(s.take_journal().unwrap()).unwrap();
    assert_eq!(recovered.state_digest(), digest);
    recovered.cluster().check_invariants().unwrap();
    // The recovered server keeps journaling where the crashed one
    // stopped.
    assert!(recovered.journal().is_some());
}

#[test]
fn compacting_snapshots_bound_the_journal_and_stay_exact() {
    let mut s = server();
    s.enable_journal(4);
    let mut m = hp_maui();
    for i in 0..6 {
        let id = submit(&mut s, rigid("J", i, 8, 50), t(i as u64)).unwrap();
        cycle(&mut s, &mut m, t(i as u64));
        s.execute(Record::Finish {
            job: id,
            now: t(100 + i as u64),
        })
        .unwrap();
    }
    let journal = s.journal().unwrap();
    assert!(
        journal.len() <= 5,
        "compaction must bound the log, got {} records",
        journal.len()
    );
    let digest = s.state_digest();
    let recovered = PbsServer::recover(s.take_journal().unwrap()).unwrap();
    assert_eq!(recovered.state_digest(), digest);
}

#[test]
fn dyn_requests_carry_fifo_seq() {
    let mut s = server();
    let mut m = hp_maui();
    let a = submit(
        &mut s,
        JobSpec::evolving(
            "F",
            UserId(1),
            GroupId(0),
            8,
            ExecutionModel::esp_evolving(1000, 700, 4),
        ),
        t(0),
    )
    .unwrap();
    let b = submit(
        &mut s,
        JobSpec::evolving(
            "G",
            UserId(2),
            GroupId(0),
            8,
            ExecutionModel::esp_evolving(1000, 700, 4),
        ),
        t(0),
    )
    .unwrap();
    cycle(&mut s, &mut m, t(0));
    s.execute(dynget(b, 4, t(100))).unwrap();
    s.execute(dynget(a, 4, t(160))).unwrap();
    let snap = s.snapshot(t(161));
    let seq_of = |j: JobId| snap.dyn_requests.iter().find(|r| r.job == j).unwrap().seq;
    assert!(seq_of(b) < seq_of(a), "b asked first");
}

/// Recovery runs the follower's checks: a record spliced into the tail
/// after the latest snapshot that the server refuses — a `Finish` for a
/// job nobody submitted — fails recovery at that record, and the error
/// names the record's journal position as a follower reports it.
#[test]
fn a_spliced_record_fails_recovery_at_its_position() {
    let mut s = server();
    let mut m = hp_maui();
    s.enable_journal(8);
    for k in 0..6u64 {
        let id = submit(&mut s, rigid("J", (k % 2) as u32, 8, 100), t(k)).unwrap();
        cycle(&mut s, &mut m, t(k));
        if k % 2 == 1 {
            let finish = Record::Finish {
                job: id,
                now: t(k + 1),
            };
            s.execute(finish).unwrap();
        }
    }
    let journal = s.take_journal().unwrap();
    let records = journal.records();
    let last_snapshot = records
        .iter()
        .rposition(|r| matches!(r, Record::Snapshot(_)))
        .unwrap();
    assert!(journal.first_pos() > 1, "the script compacts");
    assert!(
        records.len() - last_snapshot > 2,
        "a tail follows the snapshot: {} records from {last_snapshot}",
        records.len()
    );

    let alien = Record::Finish {
        job: JobId(999),
        now: t(50),
    };
    let mut lines: Vec<String> = journal.to_text().lines().map(str::to_owned).collect();
    let at = last_snapshot + 2;
    lines.insert(at, record_to_json(&alien).to_string_compact());
    let spliced = Journal::from_text(&lines.join("\n")).unwrap();
    // The text journal counts from 1: the alien record is at `at + 1`.
    assert!(matches!(
        spliced.records_from(at as u64 + 1).unwrap()[0],
        Record::Finish {
            job: JobId(999),
            ..
        }
    ));

    let err = PbsServer::recover(spliced).map(|_| ()).unwrap_err();
    assert!(
        err.to_string()
            .contains(&format!("apply of record {} failed", at + 1)),
        "{err}"
    );
}
