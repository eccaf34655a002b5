//! Reactor chaos: client connect/disconnect churn over the daemon
//! ensemble under seeded fault injection, in virtual time, including
//! mid-burst server crashes (journal-positioned, recovery =
//! snapshot-load + replay).
//!
//! Each seed derives — entirely from the seed — a wave pattern of
//! short-lived reactor clients: every wave connects a few clients, each
//! submits a handful of jobs through the text protocol, and then either
//! reads its acks or vanishes without reading a single reply (the churn
//! half); after each wave, the last acked job still running asks its
//! mother superior for more cores. Meanwhile the seed's `FaultPlan`
//! drops, delays and duplicates mom traffic and kills moms, and the
//! server crashes once its journal passes a seeded record count (every
//! run here carries at least one server crash, so the burst always spans
//! a recovery). A quarter of the seeds boot with two followers: there
//! each server crash is a **leader kill**, and the same seed faults the
//! replication stream and crashes followers.
//!
//! Invariants per seed:
//!
//! 1. the ensemble **drains** — churned clients' unread acks included,
//!    every submitted job runs to completion;
//! 2. **no acked command is lost** — every `Submitted(id)` a client
//!    actually received still names a (completed) job after the crashes,
//!    the ack-on-append contract end to end, through failover too: with
//!    followers `acked_lost` reads 0 and no follower diverged;
//! 3. every **grant** a caller receives names cores its job holds at the
//!    server when it arrives;
//! 4. each job's booked dynamic **requests and grants** are at most the
//!    `tm_dynget` calls made for it;
//! 5. once every delivery has landed, **no mom holds a job entry** (so no
//!    parked caller and no fan-out);
//! 6. the seed is **one trace**: a second run of it ends with the same
//!    server image, journal length and delivery count.
//!
//! `reactor_churn_seeds_00_09` … `_40_49` take the seeds below 1000
//! whose last two digits fall in their range (500 in all);
//! `reactor_churn_10k_seeds` (ignored; `scripts/check.sh` runs it in
//! release) sweeps 10 000. A separate,
//! wall-clock test pins the backpressure policy at ensemble level — a
//! stalled reader that never drains its replies must not block the
//! scheduler cycle or any other client's acks — and is the reactor
//! door's smoke test on the wall clock, with the thread-leak check.

mod common;

use common::{
    assert_grant_held, assert_moms_empty, assert_no_tagged_threads, assert_replication_whole,
    assert_requests_within_calls, deployment, seeds_ending, trace,
};
use dynbatch::core::{DfsConfig, JobId, JobState, SchedulerConfig, SimDuration};
use dynbatch::daemon::{DaemonConfig, DaemonHandle, FaultPlan, ServerCrash};
use dynbatch::server::{Reply, TmResponse};
use dynbatch::simtime::SplitMix64;
use std::time::Duration;

fn sched() -> SchedulerConfig {
    let mut s = SchedulerConfig::paper_eval();
    s.dfs = DfsConfig::highest_priority();
    s
}

/// The seeded fault plan for `config`, forced to include at least one
/// mid-burst server crash so every seed exercises recovery under open
/// connections.
fn plan_with_crash(seed: u64, config: &DaemonConfig) -> FaultPlan {
    let mut faults = FaultPlan::from_seed(seed, config, SimDuration::from_millis(300));
    if faults.server_crashes.is_empty() {
        faults.server_crashes.push(ServerCrash {
            after_record: 3 + seed % 10,
        });
    }
    faults
}

/// One chaos run: seed-derived waves of connect / submit / (read | churn)
/// against a faulted 2-node ensemble. The invariants are asserted inside;
/// returns the trace fingerprint.
fn churn_run(seed: u64) -> (Vec<u8>, u64, u64) {
    let config = deployment(seed, 2, sched());
    let faults = plan_with_crash(seed, &config);
    let d = DaemonHandle::simulate(config, faults);

    let mut rng = SplitMix64::new(seed).derive(0xC4A0);
    let mut acked: Vec<JobId> = Vec::new();
    let mut calls: Vec<JobId> = Vec::new();
    let waves = 2 + rng.next_below(3);
    for w in 0..waves {
        let n_clients = 1 + rng.next_below(3) as usize;
        let mut clients = Vec::with_capacity(n_clients);
        // All clients of a wave submit before any reads replies — their
        // commands genuinely interleave at the reactor.
        for c in 0..n_clients {
            let client = d.connect();
            let n_jobs = 1 + rng.next_below(3);
            for j in 0..n_jobs {
                let line = format!(
                    "qsub name=w{w}c{c}j{j} user={} group=0 cores={} wall_ms={}",
                    rng.next_below(5),
                    1 + rng.next_below(4),
                    40 + rng.next_below(160)
                );
                client.send(&line);
            }
            clients.push((client, n_jobs));
        }
        for (c, (client, n_jobs)) in clients.into_iter().enumerate() {
            // The first client of every wave always reads, so each seed
            // has acked commands to hold the crash accountable for.
            if c > 0 && rng.chance_permille(350) {
                // Churn: the client vanishes without reading one reply.
                // Its commands are already in flight and must still apply
                // (the drain assertion covers them); the unread acks are
                // discarded, never leaked, never blocking.
                client.disconnect();
                continue;
            }
            for _ in 0..n_jobs {
                let reply = d
                    .await_reply(&client, Duration::from_secs(10))
                    .unwrap_or_else(|| panic!("seed {seed}: ack lost in wave {w}"));
                match reply {
                    Reply::Submitted(id) => acked.push(id),
                    other => panic!("seed {seed}: qsub answered {other:?}"),
                }
            }
            client.disconnect();
        }
        // The mom door under the same faults: the wave's last acked job,
        // if it runs, asks for more cores.
        let extra = 1 + rng.next_below(4) as u32;
        let last = acked.last().copied();
        if let Some(job) = last.filter(|&job| d.qstat(job) == Some(JobState::Running)) {
            calls.push(job);
            if let TmResponse::DynGranted { added } = d.tm_dynget(job, extra) {
                assert_grant_held(&d, job, &added, seed);
            }
        }
    }

    // Virtual time is exact: at most 36 jobs of at most 200 ms each share
    // 16 cores, so the burst drains within two seconds unless a job waits
    // on a lost message or a long timer.
    assert!(
        d.await_drained(Duration::from_secs(2)),
        "seed {seed}: ensemble must drain through churn + server crash"
    );
    // Ack-on-append, end to end: every submission a client saw acked
    // survived the seeded server crash(es) and ran to completion.
    for id in &acked {
        assert_eq!(
            d.qstat(*id),
            Some(JobState::Completed),
            "seed {seed}: acked job {id:?} lost or wedged after recovery"
        );
    }
    assert!(!acked.is_empty(), "seed {seed}: no client ever read an ack");
    while d.step() {}
    assert_requests_within_calls(&d, &calls, seed);
    assert_moms_empty(&d, seed);
    assert_replication_whole(&d, seed);
    trace(&d)
}

fn sweep(seeds: Vec<u64>) {
    let workers = dynbatch::sim::sweep::worker_count(0).div_ceil(4).min(4);
    dynbatch::sim::sweep::parallel_tasks(seeds.len(), workers, |i| {
        let seed = seeds[i];
        assert!(
            churn_run(seed) == churn_run(seed),
            "seed {seed} is not one trace"
        );
    });
}

#[test]
fn reactor_churn_seeds_00_09() {
    sweep(seeds_ending(0..10));
}

#[test]
fn reactor_churn_seeds_10_19() {
    sweep(seeds_ending(10..20));
}

#[test]
fn reactor_churn_seeds_20_29() {
    sweep(seeds_ending(20..30));
}

#[test]
fn reactor_churn_seeds_30_39() {
    sweep(seeds_ending(30..40));
}

#[test]
fn reactor_churn_seeds_40_49() {
    sweep(seeds_ending(40..50));
}

/// 10 000 seeds: `scripts/check.sh` runs this in release with
/// `--ignored`.
#[test]
#[ignore = "release-build sweep; scripts/check.sh runs it"]
fn reactor_churn_10k_seeds() {
    sweep((0..10_000).collect());
}

/// Backpressure at ensemble level: a client that floods commands and
/// never reads a reply must not block the scheduler cycle or another
/// client's acks. Its replies fill the bounded channel, spill to the
/// overflow queue, and are discarded on disconnect — the reactor never
/// performs a blocking send.
#[test]
fn stalled_reader_blocks_nothing() {
    let d = DaemonHandle::start(DaemonConfig {
        nodes: 2,
        cores_per_node: 8,
        sched: sched(),
        ..DaemonConfig::default()
    });
    let tag = d.thread_tag().to_string();

    let stalled = d.connect();
    // Well past the reply-channel capacity: the surplus lands in the
    // reactor's overflow queue while the stalled socket stays full.
    for i in 0..200u64 {
        stalled.send(&format!("qstat {}", i + 1));
    }

    let live = d.connect();
    live.send("qsub name=live user=1 group=0 cores=4 wall_ms=80");
    let reply = live
        .recv_timeout(Duration::from_secs(5))
        .expect("live client must be acked despite the stalled peer");
    let Reply::Submitted(id) = reply else {
        panic!("expected submission ack, got {reply:?}");
    };

    assert!(
        d.await_drained(Duration::from_secs(10)),
        "scheduler must keep cycling with a stalled reader attached"
    );
    assert_eq!(d.qstat(id), Some(JobState::Completed));
    drop(stalled); // unread replies die with the connection
    live.disconnect();
    d.shutdown();
    assert_no_tagged_threads(&tag);
}
