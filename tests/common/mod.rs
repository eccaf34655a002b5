//! What the integration suites share: the scripted scenario the
//! crash-recovery sweep and the replication chaos sweep both drive, op by
//! op, against a `PbsServer` + `Maui`, and the thread-leak check every
//! suite that starts an ensemble ends with.

// Each suite is its own crate and uses its own part of this module.
#![allow(dead_code, unused_imports)]

use dynbatch::cluster::Allocation;
use dynbatch::core::{
    DfsConfig, ExecutionModel, GroupId, JobId, JobSpec, NodeId, SchedulerConfig, SimDuration,
    SimTime, UserId,
};
use dynbatch::sched::Maui;
use dynbatch::server::PbsServer;
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

/// One scripted input. Each op maps to at most one journal record, so a
/// crash "after record k" is a crash at the op boundary that wrote it.
pub enum Op {
    Sub(JobSpec),
    Cycle,
    Finish(JobId),
    DynGet {
        job: JobId,
        extra: u32,
        deadline: Option<u64>,
    },
    DynFree {
        job: JobId,
        node: u32,
        cores: u32,
    },
    Qdel(JobId),
    Fail(u32),
    Repair(u32),
    Expire,
}

pub fn apply_op(s: &mut PbsServer, m: &mut Maui, op: &Op, now: SimTime) {
    match op {
        Op::Sub(spec) => {
            let _ = s.qsub(spec.clone(), now);
        }
        Op::Cycle => {
            s.run_cycle(m, now);
        }
        Op::Finish(job) => {
            let _ = s.job_finished(*job, now);
        }
        Op::DynGet {
            job,
            extra,
            deadline,
        } => {
            let _ = s.tm_dynget_negotiated(*job, *extra, deadline.map(t), now);
        }
        Op::DynFree { job, node, cores } => {
            let released = Allocation::from_pairs([(NodeId(*node), *cores)]);
            let _ = s.tm_dynfree(*job, &released, now);
        }
        Op::Qdel(job) => {
            let _ = s.qdel(*job, now);
        }
        Op::Fail(node) => {
            let _ = s.node_failed(NodeId(*node), now);
        }
        Op::Repair(node) => {
            let _ = s.node_repaired(NodeId(*node));
        }
        Op::Expire => {
            let _ = s.expire_dyn_requests(now);
        }
    }
}

/// A scenario touching every record kind the journal knows: submit,
/// start, finish, qdel (of queued, running and DynQueued jobs), the
/// dynget/dynfree negotiation phases, expiry, node fail/repair.
/// Job ids are assigned sequentially by the server: A=1, B=2, EV=3,
/// D=4, C=5, E=6.
pub fn script() -> Vec<(u64, Op)> {
    const A: JobId = JobId(1);
    const B: JobId = JobId(2);
    const EV: JobId = JobId(3);
    const D: JobId = JobId(4);
    const E: JobId = JobId(6);
    vec![
        (0, Op::Sub(rigid("A", 0, 16, 100))),
        (0, Op::Cycle),
        (1, Op::Sub(rigid("B", 1, 64, 500))),
        (1, Op::Cycle),
        (2, Op::Sub(evolving("EV", 2, 8))),
        (2, Op::Cycle),
        (3, Op::Sub(evolving("D", 3, 8))),
        (3, Op::Cycle),
        // EV asks for +4 within a negotiation window; grantable (24 idle).
        (
            5,
            Op::DynGet {
                job: EV,
                extra: 4,
                deadline: Some(60),
            },
        ),
        (5, Op::Cycle),
        // D asks for more than the machine can ever free within its
        // window: stays DynQueued (deferred each cycle).
        (
            6,
            Op::DynGet {
                job: D,
                extra: 100,
                deadline: Some(400),
            },
        ),
        (6, Op::Cycle),
        // A 40-core job queues behind the running set.
        (7, Op::Sub(rigid("C", 4, 40, 50))),
        (7, Op::Cycle),
        // qdel of the DynQueued job D: pending negotiation must die too.
        (20, Op::Qdel(D)),
        (20, Op::Cycle),
        // EV gives back part of its grant.
        (
            30,
            Op::DynFree {
                job: EV,
                node: 11,
                cores: 2,
            },
        ),
        (30, Op::Cycle),
        // A node dies (whatever it hosts is requeued), later repaired.
        (40, Op::Fail(2)),
        (40, Op::Cycle),
        (50, Op::Repair(2)),
        (50, Op::Cycle),
        (105, Op::Finish(A)),
        (105, Op::Cycle),
        (130, Op::Sub(rigid("E", 5, 8, 40))),
        (130, Op::Cycle),
        (170, Op::Finish(E)),
        (170, Op::Cycle),
        // Sweep any pending windows past their deadlines.
        (450, Op::Expire),
        (450, Op::Cycle),
        (520, Op::Finish(B)),
        (520, Op::Cycle),
        (600, Op::Finish(EV)),
        (600, Op::Cycle),
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
