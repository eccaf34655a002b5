//! Regenerates the paper's **Fig 12**: the overhead of a dynamic
//! allocation of 1–10 nodes, measured on the wall-clock deployment
//! (`DaemonHandle::start`: the daemon ensemble paced on its own thread,
//! each call crossing a channel into it, wall-clock time).
//!
//! Two scenarios, as in the paper:
//!
//! 1. no other workload at the batch system;
//! 2. a queue of rigid jobs with `ReservationDelayDepth = 5`, so every
//!    grant decision performs the full delay-measurement pass.
//!
//! The measured round trip covers: application → mother-superior mom →
//! server → scheduler iteration (with DFS delay what-ifs) → allocation →
//! dyn_join fan-out (ping/ack per newly allocated node) → hostlist back to
//! the application. Every daemon-to-daemon hop is a delivery on the
//! ensemble's one thread. The paper reports sub-second values on real
//! hardware; in-process, the round trip lands in the microsecond range —
//! the *shape* (growth with node count; loaded slower than idle) is the
//! reproduction target. With no thread hop per added node, the growth is
//! small (EXPERIMENTS.md, Fig 12).
//!
//! ```text
//! cargo run --release -p dynbatch-bench --bin fig12_overhead [-- --reps N]
//! ```

use dynbatch_cluster::Allocation;
use dynbatch_core::{DfsConfig, GroupId, JobSpec, SchedulerConfig, SimDuration, UserId};
use dynbatch_daemon::{DaemonConfig, DaemonHandle};
use dynbatch_server::TmResponse;
use std::time::Duration;

const CORES_PER_NODE: u32 = 8;

fn spec(name: &str, user: u32, cores: u32, millis: u64) -> JobSpec {
    let runtime = SimDuration::from_millis(millis);
    JobSpec::rigid(name, UserId(user), GroupId(0), cores, runtime)
}

/// Measures the dynamic allocation of `nodes` whole nodes, `reps` times,
/// returning mean microseconds.
fn measure(nodes: u32, with_workload: bool, reps: u32) -> f64 {
    let mut sched = SchedulerConfig::paper_eval();
    sched.dfs = DfsConfig::highest_priority();
    // 12 compute nodes: 1 for the requesting job + up to 10 to grab + 1
    // spare, as in the paper's 1-node job growing by up to 10 nodes.
    let daemon = DaemonHandle::start(DaemonConfig {
        nodes: 12,
        cores_per_node: CORES_PER_NODE,
        sched,
        ..DaemonConfig::default()
    });

    // The evolving job: one statically allocated node.
    let job = daemon
        .qsub(spec("grower", 0, CORES_PER_NODE, 120_000))
        .expect("qsub grower");
    assert!(daemon.await_running(job, Duration::from_secs(5)));

    if with_workload {
        // A rigid backlog that keeps the queue non-empty (each job wants
        // the whole machine, so none can start) — the scheduler's delay
        // pass has ReservationDelayDepth = 5 jobs to re-plan per grant.
        for i in 0..8 {
            daemon
                .qsub(spec(
                    &format!("queued{i}"),
                    1 + i,
                    12 * CORES_PER_NODE,
                    60_000,
                ))
                .expect("qsub backlog");
        }
    }

    let mut total_us = 0.0;
    for _ in 0..reps {
        let (resp, latency) = daemon.tm_dynget_timed(job, nodes * CORES_PER_NODE);
        let TmResponse::DynGranted { added } = resp else {
            panic!("expected grant of {nodes} nodes");
        };
        assert_eq!(added.total_cores(), nodes * CORES_PER_NODE);
        total_us += latency.as_secs_f64() * 1e6;
        // Release what we took so the next rep starts from one node.
        let resp = daemon.tm_dynfree(job, added);
        assert!(matches!(resp, TmResponse::Freed));
    }

    let _ = daemon.qdel(job);
    daemon.shutdown();
    total_us / reps as f64
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let reps: u32 = match args.iter().position(|a| a == "--reps") {
        Some(i) => args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or(20),
        None => 20,
    };

    println!("Fig 12 — time for a dynamic allocation of 1–10 nodes ({reps} reps each)\n");
    println!(
        "{:<8} {:>18} {:>22}",
        "Nodes", "no workload [µs]", "with workload [µs]"
    );
    println!("{}", "-".repeat(50));
    let mut idle_series = Vec::new();
    let mut loaded_series = Vec::new();
    for nodes in 1..=10 {
        let idle = measure(nodes, false, reps);
        let loaded = measure(nodes, true, reps);
        idle_series.push(idle);
        loaded_series.push(loaded);
        println!("{nodes:<8} {idle:>18.1} {loaded:>22.1}");
    }

    let grow_idle = idle_series.last().unwrap() / idle_series.first().unwrap();
    println!("\n10-node vs 1-node allocation cost: {grow_idle:.2}× (paper: rising, sub-second);");
    println!(
        "loaded vs idle at 10 nodes: {:.2}×",
        loaded_series.last().unwrap() / idle_series.last().unwrap()
    );
    let _ = Allocation::empty(); // keep the hostlist type linked for docs
}
