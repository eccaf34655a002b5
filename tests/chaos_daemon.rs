//! Chaos suite: the daemon protocol path under seeded fault injection, in
//! virtual time.
//!
//! Every test drives the same submit / dynget / dynfree / preempt / qdel
//! workload through the virtual ensemble (`DaemonHandle::simulate`) while
//! a seeded [`FaultPlan`] drops, delays, duplicates and reorders
//! deliveries between daemons and crash-restarts moms, and the **server**
//! itself crash-restarts at seeded points in its write-ahead journal
//! (recovery = snapshot-load + replay, then re-arming deadlines and
//! re-attaching moms). A quarter of the seeds boot with two followers:
//! there each server crash is a **leader kill** (a follower is promoted),
//! and the same seed drops, defers and shuffles the replication stream's
//! frames and crashes followers. The invariants asserted for every seed:
//!
//! 1. the ensemble **drains** — no lost message may wedge a job;
//! 2. per-job **final states match the fault-free run** (everything
//!    completes; the deliberately qdel'd job is cancelled);
//! 3. every **grant** the caller receives names cores the job holds at
//!    the server when it arrives, and then and after the next pause the
//!    grower's mother superior holds no more of it than the server does;
//! 4. each job's booked dynamic **requests and grants** are at most the
//!    `tm_dynget` calls made for it;
//! 5. once every delivery has landed, **no mom holds a job entry** (so no
//!    parked caller and no fan-out);
//! 6. the seed is **one trace**: a second run of it ends with the same
//!    server image, journal length and delivery count;
//! 7. with followers, **no acked record is lost** in a failover and no
//!    follower diverges (`acked_lost == 0`, no replication error).
//!
//! The run is single-threaded and sleeps nowhere, so a failing seed is a
//! one-line repro. `chaos_seeds_00_09` … `chaos_seeds_40_49` take the
//! seeds below 1000 whose last two digits fall in their range (500 in
//! all); `chaos_10k_seeds` (ignored; `scripts/check.sh` runs it in
//! release) sweeps 10 000.

mod common;

use common::{
    assert_grant_held, assert_moms_empty, assert_moms_within_server, assert_replication_whole,
    assert_requests_within_calls, deployment, seeds_ending, trace,
};
use dynbatch::core::{DfsConfig, GroupId, JobSpec, JobState, SchedulerConfig, SimDuration, UserId};
use dynbatch::daemon::{DaemonConfig, DaemonHandle, FaultPlan};
use dynbatch::server::TmResponse;
use std::time::Duration;

fn rigid(name: &str, user: u32, cores: u32, millis: u64) -> JobSpec {
    let runtime = SimDuration::from_millis(millis);
    JobSpec::rigid(name, UserId(user), GroupId(0), cores, runtime)
}

/// One run: each job's final state in submission order, and the trace
/// fingerprint. Asserts drain and the grant and mom invariants.
type Run = (Vec<Option<JobState>>, (Vec<u8>, u64, u64));

/// Seed `seed`'s deployment: 4 nodes, with two followers on a quarter
/// of the seeds.
fn config(seed: u64) -> DaemonConfig {
    let mut sched = SchedulerConfig::paper_eval();
    sched.dfs = DfsConfig::highest_priority();
    sched.preempt_backfilled_for_dyn = true;
    deployment(seed, 4, sched)
}

/// Runs the canonical workload on `config` under `faults`.
fn run_workload(config: DaemonConfig, faults: FaultPlan) -> Run {
    let seed = faults.seed;
    let d = DaemonHandle::simulate(config, faults);
    let pause = |millis| d.run_until(d.now() + SimDuration::from_millis(millis));

    // 32 cores. The grower holds 8; "blocked" (32 cores) reserves the
    // whole machine behind it; three fillers backfill into the remaining
    // 24, so the grower's +8 can only be fed by preempting one of them.
    let grower = d.qsub(rigid("grower", 0, 8, 250)).unwrap();
    assert!(
        d.await_running(grower, Duration::from_secs(5)),
        "seed {seed}: grower must start"
    );
    let blocked = d.qsub(rigid("blocked", 1, 32, 60)).unwrap();
    let fillers: Vec<_> = (0..3)
        .map(|i| {
            d.qsub(rigid(&format!("filler{i}"), 2 + i, 8, 200 - 40 * i as u64))
                .unwrap()
        })
        .collect();
    // Queued with a 30 s walltime: can never backfill, gets qdel'd below.
    let victim = d.qsub(rigid("victim", 9, 8, 30_000)).unwrap();

    pause(40);
    // Under faults the reply may be a denial (e.g. the mother superior
    // crashed mid-call) — the grant is not part of the final states.
    let granted = match d.tm_dynget(grower, 8) {
        TmResponse::DynGranted { added } => {
            assert_grant_held(&d, grower, &added, seed);
            assert_moms_within_server(&d, grower, seed);
            Some(added)
        }
        _ => None,
    };
    pause(80);
    if granted.is_some() {
        assert_moms_within_server(&d, grower, seed);
    }
    if let Some(added) = granted {
        let _ = d.tm_dynfree(grower, added);
    }
    let _ = d.qdel(victim);

    // Virtual time is exact: every job's work ends within 300 ms of its
    // start and the join retries back off to at most 256 ms, so a job
    // still holding on a second from now waits on a long timer (the
    // victim's 30 s walltime) — wedged.
    assert!(
        d.await_drained(Duration::from_secs(1)),
        "seed {seed}: ensemble must drain"
    );
    // Every delivery still in flight lands.
    while d.step() {}
    assert_requests_within_calls(&d, &[grower], seed);
    assert_moms_empty(&d, seed);
    assert_replication_whole(&d, seed);
    let mut ids = vec![grower, blocked];
    ids.extend(fillers);
    ids.push(victim);
    let states = ids.into_iter().map(|id| d.qstat(id)).collect();
    (states, trace(&d))
}

/// Fault-free reference, asserted against the scenario's intent so a
/// silent workload drift cannot hollow out the sweep.
fn baseline() -> Vec<Option<JobState>> {
    let (states, _) = run_workload(config(0), FaultPlan::none(0));
    let mut expected = vec![Some(JobState::Completed); 5];
    expected.push(Some(JobState::Cancelled));
    assert_eq!(states, expected, "fault-free run must complete everything");
    states
}

/// One seed, twice: its final states must equal the fault-free run's, and
/// its second run must replay the first exactly.
fn chaos_seed(seed: u64, reference: &[Option<JobState>]) {
    let config = config(seed);
    let faults = FaultPlan::from_seed(seed, &config, SimDuration::from_millis(300));
    let (states, first) = run_workload(config.clone(), faults.clone());
    assert_eq!(
        states, reference,
        "seed {seed} diverged from fault-free run"
    );
    let (_, second) = run_workload(config, faults);
    assert!(first == second, "seed {seed} is not one trace");
}

fn sweep(seeds: Vec<u64>) {
    let reference = baseline();
    let workers = dynbatch::sim::sweep::worker_count(0).div_ceil(4).min(4);
    dynbatch::sim::sweep::parallel_tasks(seeds.len(), workers, |i| {
        chaos_seed(seeds[i], &reference)
    });
}

/// The net engaged but silent: the scenario's intent holds, and the
/// fault-free run is one trace too.
#[test]
fn chaos_zero_fault_seed_matches_intent() {
    baseline();
    let first = run_workload(config(0), FaultPlan::none(0));
    assert!(first == run_workload(config(0), FaultPlan::none(0)));
}

#[test]
fn chaos_seeds_00_09() {
    sweep(seeds_ending(0..10));
}

#[test]
fn chaos_seeds_10_19() {
    sweep(seeds_ending(10..20));
}

#[test]
fn chaos_seeds_20_29() {
    sweep(seeds_ending(20..30));
}

#[test]
fn chaos_seeds_30_39() {
    sweep(seeds_ending(30..40));
}

#[test]
fn chaos_seeds_40_49() {
    sweep(seeds_ending(40..50));
}

/// 10 000 seeds: `scripts/check.sh` runs this in release with
/// `--ignored`.
#[test]
#[ignore = "release-build sweep; scripts/check.sh runs it"]
fn chaos_10k_seeds() {
    sweep((0..10_000).collect());
}
