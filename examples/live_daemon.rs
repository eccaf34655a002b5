//! A live run of the batch system on the wall clock — the server and mom
//! daemons paced on their own thread, wall-clock time — modelling the paper's nested-weather-
//! simulation motivation: a main simulation that must spawn an auxiliary
//! analysis alongside itself without disturbing its own allocation, then
//! release the extra nodes when the phenomenon passes.
//!
//! One wall millisecond is one model millisecond; the whole demo takes a
//! couple of seconds.
//!
//! ```text
//! cargo run --example live_daemon
//! ```

use dynbatch::core::{DfsConfig, GroupId, JobSpec, SchedulerConfig, SimDuration, UserId};
use dynbatch::daemon::{DaemonConfig, DaemonHandle};
use dynbatch::server::TmResponse;
use std::time::Duration;

fn rigid(name: &str, user: u32, cores: u32, millis: u64) -> JobSpec {
    let runtime = SimDuration::from_millis(millis);
    JobSpec::rigid(name, UserId(user), GroupId(0), cores, runtime)
}

fn main() {
    let mut sched = SchedulerConfig::paper_eval();
    sched.dfs = DfsConfig::highest_priority();
    let daemon = DaemonHandle::start(DaemonConfig {
        nodes: 8,
        cores_per_node: 8,
        sched,
        ..DaemonConfig::default()
    });
    println!("booted: 1 pbs_server + 8 pbs_mom daemons (8 cores each)\n");

    // The main weather simulation: 24 cores, long-running.
    let weather = daemon
        .qsub(rigid("weather-main", 0, 24, 2_000))
        .expect("qsub weather");
    assert!(daemon.await_running(weather, Duration::from_secs(2)));
    println!("weather-main running on 24 cores");

    // A storm appears: track it with a nested simulation on extra nodes,
    // leaving the main allocation untouched.
    let (resp, latency) = daemon.tm_dynget_timed(weather, 16);
    let added = match resp {
        TmResponse::DynGranted { added } => {
            println!(
                "tm_dynget(+16 cores) GRANTED in {:?}: hostlist {added}",
                latency
            );
            added
        }
        other => {
            println!("tm_dynget denied: {other:?}");
            daemon.shutdown();
            return;
        }
    };

    // ... nested simulation runs on `added` (an MPI code would
    // MPI_Comm_spawn onto that hostlist) ...
    std::thread::sleep(Duration::from_millis(300));

    // The storm dissipates: release the extra nodes — any subset may go
    // back (no SLURM-style all-or-nothing restriction).
    let half = {
        let mut a = added.clone();
        a.take(8)
    };
    match daemon.tm_dynfree(weather, half) {
        TmResponse::Freed => println!("released 8 of the 16 extra cores (partial dyn_free)"),
        other => println!("unexpected: {other:?}"),
    }

    // Meanwhile other users' rigid jobs keep flowing through the queue.
    for i in 0..4 {
        daemon
            .qsub(rigid(&format!("batch{i}"), 1 + i, 16, 150))
            .expect("qsub batch");
    }
    println!("4 rigid jobs submitted behind the weather job");

    assert!(
        daemon.await_drained(Duration::from_secs(10)),
        "workload drains"
    );
    println!("\nall jobs completed; shutting down daemons");
    daemon.shutdown();
}
