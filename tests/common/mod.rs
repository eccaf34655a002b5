//! What the integration suites share: the scripted scenario the
//! crash-recovery sweep and the replication chaos sweep both drive, step
//! by step, against a `PbsServer` + `Maui` — journal records and
//! scheduler cycles —, the thread-leak check every suite that starts a
//! wall-clock ensemble ends with, and what the virtual-time chaos suites
//! check of every run: the grant invariant, the mother superior against
//! the server, the dynamic-request count against the calls made, the moms
//! left empty, and the trace fingerprint.

// Each suite is its own crate and uses its own part of this module.
#![allow(dead_code, unused_imports)]

use dynbatch::cluster::Allocation;
use dynbatch::core::codec::to_bytes;
use dynbatch::core::{
    DfsConfig, ExecutionModel, GroupId, JobId, JobSpec, NodeId, SchedulerConfig, SimDuration,
    SimTime, UserId,
};
use dynbatch::daemon::{DaemonConfig, DaemonHandle, Virtual};
use dynbatch::sched::Maui;
use dynbatch::server::{PbsServer, Record};
pub use dynbatch::sim::reactor_drive::accounting_text;
use std::time::Duration;

pub fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

pub fn rigid(name: &str, user: u32, cores: u32, secs: u64) -> JobSpec {
    JobSpec::rigid(
        name,
        UserId(user),
        GroupId(0),
        cores,
        SimDuration::from_secs(secs),
    )
}

pub fn evolving(name: &str, user: u32, cores: u32) -> JobSpec {
    JobSpec::evolving(
        name,
        UserId(user),
        GroupId(0),
        cores,
        ExecutionModel::esp_evolving(1846, 1230, 4),
    )
}

pub fn hp_maui() -> Maui {
    let mut cfg = SchedulerConfig::paper_eval();
    cfg.dfs = DfsConfig::highest_priority();
    Maui::new(cfg)
}

/// One scripted step at `t(secs)`: a record for the server to execute, or
/// (`None`) a scheduler cycle. Each step writes at most one journal record,
/// so a crash "after record k" is a crash at the step boundary that wrote
/// it.
pub type Step = (u64, Option<Record>);

pub fn apply_step(s: &mut PbsServer, m: &mut Maui, step: &Option<Record>, now: SimTime) {
    match step {
        Some(record) => {
            let _ = s.execute(record.clone());
        }
        None => {
            s.run_cycle(m, now);
        }
    }
}

/// A scenario touching every record kind the journal knows: submit,
/// start, finish, qdel (of queued, running and DynQueued jobs), the
/// dynget/dynfree negotiation phases, expiry, node fail/repair.
/// Job ids are assigned sequentially by the server: A=1, B=2, EV=3,
/// D=4, C=5, E=6.
pub fn script() -> Vec<Step> {
    const A: JobId = JobId(1);
    const B: JobId = JobId(2);
    const EV: JobId = JobId(3);
    const D: JobId = JobId(4);
    const E: JobId = JobId(6);
    let cycle = |secs| (secs, None);
    let submit = |secs, spec| (secs, Some(Record::Submit { spec, now: t(secs) }));
    let finish = |secs, job| (secs, Some(Record::Finish { job, now: t(secs) }));
    let dynget = |secs, job, extra_cores, deadline| {
        let now = t(secs);
        let deadline = Some(t(deadline));
        let record = Record::DynGet {
            job,
            extra_cores,
            deadline,
            now,
        };
        (secs, Some(record))
    };
    vec![
        submit(0, rigid("A", 0, 16, 100)),
        cycle(0),
        submit(1, rigid("B", 1, 64, 500)),
        cycle(1),
        submit(2, evolving("EV", 2, 8)),
        cycle(2),
        submit(3, evolving("D", 3, 8)),
        cycle(3),
        // EV asks for +4 within a negotiation window; grantable (24 idle).
        dynget(5, EV, 4, 60),
        cycle(5),
        // D asks for more than the machine can ever free within its
        // window: stays DynQueued (deferred each cycle).
        dynget(6, D, 100, 400),
        cycle(6),
        // A 40-core job queues behind the running set.
        submit(7, rigid("C", 4, 40, 50)),
        cycle(7),
        // qdel of the DynQueued job D: pending negotiation must die too.
        (20, Some(Record::Qdel { job: D, now: t(20) })),
        cycle(20),
        // EV gives back part of its grant.
        (
            30,
            Some(Record::DynFree {
                job: EV,
                released: Allocation::from_pairs([(NodeId(11), 2)]),
                now: t(30),
            }),
        ),
        cycle(30),
        // A node dies (whatever it hosts is requeued), later repaired.
        (
            40,
            Some(Record::NodeFailed {
                node: NodeId(2),
                now: t(40),
            }),
        ),
        cycle(40),
        (50, Some(Record::NodeRepaired { node: NodeId(2) })),
        cycle(50),
        finish(105, A),
        cycle(105),
        submit(130, rigid("E", 5, 8, 40)),
        cycle(130),
        finish(170, E),
        cycle(170),
        // Sweep any pending windows past their deadlines.
        (450, Some(Record::ExpireSweep { now: t(450) })),
        cycle(450),
        finish(520, B),
        cycle(520),
        finish(600, EV),
        cycle(600),
    ]
}

/// Threads of this process still alive whose name starts with `tag` (an
/// ensemble's thread prefix).
pub fn tagged_threads(tag: &str) -> Vec<String> {
    let mut live = Vec::new();
    let Ok(entries) = std::fs::read_dir("/proc/self/task") else {
        return live; // not Linux: skip the leak check
    };
    for e in entries.flatten() {
        if let Ok(name) = std::fs::read_to_string(e.path().join("comm")) {
            let name = name.trim_end().to_string();
            if name.starts_with(tag) {
                live.push(name);
            }
        }
    }
    live
}

/// The threads named `{tag}…` once at least `n` are up — a spawned
/// thread names itself as it starts —, waiting half a second at most.
pub fn tagged_threads_at_least(tag: &str, n: usize) -> Vec<String> {
    for _ in 0..250 {
        let live = tagged_threads(tag);
        if live.len() >= n {
            return live;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    tagged_threads(tag)
}

pub fn assert_no_tagged_threads(tag: &str) {
    // A joined thread's /proc entry disappears promptly, but give the
    // kernel a moment before declaring a leak.
    for _ in 0..250 {
        if tagged_threads(tag).is_empty() {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("threads leaked past shutdown: {:?}", tagged_threads(tag));
}

/// The grant invariant: the cores of a `DynGranted` a caller received are
/// held by that job at the server when the grant arrives (a virtual
/// handle's call returns at the step that answered it).
pub fn assert_grant_held(d: &DaemonHandle<Virtual>, job: JobId, added: &Allocation, seed: u64) {
    let server = d.server();
    let held = server.cluster().allocation_of(job);
    assert!(
        held.is_some_and(|h| added.entries().all(|(n, c)| h.cores_on(n) >= c)),
        "seed {seed}: {job:?} was granted {added:?} but holds {held:?}"
    );
}

/// No mom holds more of `job` than the server does: while the server
/// allocates the job, the hostlist a mom keeps for it has at most the
/// cores the server allocates it on every node. (A run that has ended
/// leaves its mom's entry until its `KillJob` lands; the drained check,
/// [`assert_moms_empty`], catches one that stays.)
pub fn assert_moms_within_server(d: &DaemonHandle<Virtual>, job: JobId, seed: u64) {
    let Some(held) = d.server().cluster().allocation_of(job).cloned() else {
        return;
    };
    for (node, mom) in d.moms().iter().enumerate() {
        let hostlist = mom.get(&job).into_iter().flat_map(|h| h.entries());
        for (n, c) in hostlist {
            assert!(
                c <= held.cores_on(n),
                "seed {seed}: mom {node} holds {c} cores of {job:?} on {n}, the server {held:?}"
            );
        }
    }
}

/// Each job's dynamic requests and grants, as its outcome books them, are
/// at most the `tm_dynget` calls the workload made for it (`calls`).
pub fn assert_requests_within_calls(d: &DaemonHandle<Virtual>, calls: &[JobId], seed: u64) {
    for o in d.outcomes() {
        let made = calls.iter().filter(|&&job| job == o.id).count() as u32;
        assert!(
            o.dyn_requests <= made && o.dyn_grants <= made,
            "seed {seed}: {:?} made {made} tm_dynget calls but booked {} requests, {} grants",
            o.id,
            o.dyn_requests,
            o.dyn_grants
        );
    }
}

/// Once everything has landed, no mom holds a job entry — and so no
/// parked caller and no fan-out, which live in the entry.
pub fn assert_moms_empty(d: &DaemonHandle<Virtual>, seed: u64) {
    let moms = d.moms();
    assert!(
        moms.iter().all(|m| m.is_empty()),
        "seed {seed}: moms hold entries after the drain: {moms:?}"
    );
}

/// Seed `seed`'s deployment in the virtual-time chaos suites: `nodes`
/// 8-core nodes running `sched`, and two followers on every fourth seed,
/// where a server crash is a leader kill.
pub fn deployment(seed: u64, nodes: u32, sched: SchedulerConfig) -> DaemonConfig {
    let followers = if seed % 4 == 3 { 2 } else { 0 };
    DaemonConfig {
        nodes,
        cores_per_node: 8,
        sched,
        followers,
    }
}

/// With followers, a drained run lost no acked record in its failovers
/// and no follower diverged.
pub fn assert_replication_whole(d: &DaemonHandle<Virtual>, seed: u64) {
    if let Some(status) = d.replication_status() {
        assert_eq!(status.acked_lost, 0, "seed {seed}: {status:?}");
        assert!(status.errors.is_empty(), "seed {seed}: {status:?}");
    }
}

/// The seeds below 1000 whose last two digits fall in `digits`: how the
/// virtual-time chaos suites split their 500 seeds across tests.
pub fn seeds_ending(digits: std::ops::Range<u64>) -> Vec<u64> {
    (0..1000).filter(|s| digits.contains(&(s % 100))).collect()
}

/// What one seed's run left: the final server image, the journal records
/// appended and the deliveries made. Running a seed twice must give the
/// same fingerprint.
pub fn trace(d: &DaemonHandle<Virtual>) -> (Vec<u8>, u64, u64) {
    let server = d.server();
    let appended = server.journal().map_or(0, |j| j.total_appended());
    (to_bytes(&server.image()), appended, d.deliveries())
}
