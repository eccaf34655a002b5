//! Chaos suite: the daemon protocol path under seeded fault injection.
//!
//! Every test drives the same submit / dynget / dynfree / preempt / qdel
//! workload through a live ensemble while a seeded [`FaultPlan`] drops,
//! delays, duplicates and reorders channel deliveries, crash-restarts
//! moms, and crash-restarts the **server** itself at seeded points in its
//! write-ahead journal (recovery = snapshot-load + replay, then re-arming
//! deadlines and re-attaching moms). The interleaving-independent
//! invariants asserted for every seed:
//!
//! 1. the ensemble **drains** — no lost message may wedge a job;
//! 2. per-job **final states match the fault-free run** (everything
//!    completes; the deliberately qdel'd job is cancelled);
//! 3. `shutdown()` leaves **zero live daemon threads** (checked by
//!    scanning `/proc/self/task` for the ensemble's thread-name tag).
//!
//! The 50 seeds are split across five `#[test]` functions so the sweep
//! parallelises under the default test runner, and each function shards
//! its seeds over the deterministic sweep engine
//! (`sim::sweep::parallel_tasks`): every seed's ensemble is independent,
//! so the per-seed final states are identical at any worker count.

mod common;

use common::assert_no_tagged_threads;
use dynbatch::core::{
    DfsConfig, ExecutionModel, GroupId, JobClass, JobSpec, JobState, SchedulerConfig, SimDuration,
    UserId,
};
use dynbatch::daemon::{DaemonConfig, DaemonHandle, FaultPlan};
use dynbatch::server::TmResponse;
use std::time::Duration;

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

/// Runs the canonical workload under `plan` and returns each job's final
/// state in submission order. Asserts drain and clean shutdown.
fn run_workload(plan: FaultPlan) -> Vec<Option<JobState>> {
    let mut sched = SchedulerConfig::paper_eval();
    sched.dfs = DfsConfig::highest_priority();
    sched.preempt_backfilled_for_dyn = true;
    let seed = plan.seed;
    let d = DaemonHandle::start(DaemonConfig {
        nodes: 4,
        cores_per_node: 8,
        sched,
        faults: Some(plan),
        followers: 0,
    });
    let tag = d.thread_tag().to_string();

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

    std::thread::sleep(Duration::from_millis(40));
    // Under faults the reply may be a denial (e.g. the mother superior
    // crashed mid-call) — the grant is not part of the invariant, the
    // drain and final states are.
    let granted = match d.tm_dynget(grower, 8) {
        TmResponse::DynGranted { added } => Some(added),
        _ => None,
    };
    std::thread::sleep(Duration::from_millis(80));
    if let Some(added) = granted {
        let _ = d.tm_dynfree(grower, added);
    }
    let _ = d.qdel(victim);

    assert!(
        d.await_drained(Duration::from_secs(10)),
        "seed {seed}: ensemble must drain"
    );
    let mut ids = vec![grower, blocked];
    ids.extend(fillers);
    ids.push(victim);
    let states: Vec<_> = ids.into_iter().map(|id| d.qstat(id)).collect();
    d.shutdown();
    assert_no_tagged_threads(&tag);
    states
}

/// Fault-free reference, asserted against the scenario's intent so a
/// silent workload drift cannot hollow out the sweep.
fn baseline() -> Vec<Option<JobState>> {
    let states = run_workload(FaultPlan::none(0));
    let mut expected = vec![Some(JobState::Completed); 5];
    expected.push(Some(JobState::Cancelled));
    assert_eq!(states, expected, "fault-free run must complete everything");
    states
}

fn sweep(seeds: std::ops::Range<u64>) {
    let reference = baseline();
    let seeds: Vec<u64> = seeds.collect();
    // Each ensemble is thread-heavy but sleep-bound, so a few in flight
    // overlap their waits; stay well under the core count because the
    // five chaos test functions already run concurrently.
    let workers = dynbatch::sim::sweep::worker_count(0).div_ceil(4).min(4);
    let all_states = dynbatch::sim::sweep::parallel_tasks(seeds.len(), workers, |i| {
        run_workload(FaultPlan::from_seed(
            seeds[i],
            4,
            Duration::from_millis(300),
        ))
    });
    for (seed, states) in seeds.iter().zip(all_states) {
        assert_eq!(
            states, reference,
            "seed {seed} diverged from fault-free run"
        );
    }
}

/// The harness engaged but silent: behaviour must match no-harness runs.
/// (`scripts/check.sh` runs this one as its quick smoke.)
#[test]
fn chaos_zero_fault_seed_matches_intent() {
    baseline();
}

#[test]
fn chaos_seeds_00_09() {
    sweep(0..10);
}

#[test]
fn chaos_seeds_10_19() {
    sweep(10..20);
}

#[test]
fn chaos_seeds_20_29() {
    sweep(20..30);
}

#[test]
fn chaos_seeds_30_39() {
    sweep(30..40);
}

#[test]
fn chaos_seeds_40_49() {
    sweep(40..50);
}
