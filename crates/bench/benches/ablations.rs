//! Ablation benchmarks for the design knobs DESIGN.md calls out:
//! `ReservationDelayDepth` (how many planned jobs each dynamic request
//! re-plans), backfill policy, and the DFS evaluation itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dynbatch_core::{
    BackfillPolicy, DfsConfig, GroupId, JobId, QueueId, SchedulerConfig, SimDuration, SimTime,
    UserId,
};
use dynbatch_sched::{DelayCharge, DfsEngine, DynRequest, Maui, QueuedJob, RunningJob, Snapshot};
use std::hint::black_box;

fn loaded_snapshot() -> Snapshot {
    let mut snap = Snapshot {
        now: SimTime::from_secs(500),
        total_cores: 120,
        running: Default::default(),
        queued: Default::default(),
        dyn_requests: Vec::new(),
        usage: None,
        deltas: None,
    };
    for i in 0..12u64 {
        snap.running.push(RunningJob {
            id: JobId(i),
            user: UserId((i % 6) as u32),
            group: GroupId(0),
            cores: 8,
            start_time: SimTime::from_secs(100),
            walltime_end: SimTime::from_secs(600 + 200 * i),
            backfilled: false,
            reserved_extra: 0,
            malleable: None,
        });
    }
    for i in 0..60u64 {
        snap.queued.push(QueuedJob {
            id: JobId(100 + i),
            user: UserId((i % 6) as u32),
            group: GroupId(0),
            queue: QueueId(0),
            cores: 8 + (i % 5) as u32 * 8,
            walltime: SimDuration::from_secs(600),
            submit_time: SimTime::from_secs(i),
            priority_boost: 0,
            suppress_backfill_while_queued: false,
            reserve_extra: 0,
            moldable: None,
        });
    }
    for i in 0..6u64 {
        snap.dyn_requests.push(DynRequest {
            job: JobId(i),
            user: UserId((i % 6) as u32),
            group: GroupId(0),
            extra_cores: 4,
            remaining_walltime: SimDuration::from_secs(700),
            seq: i,
            deadline: None,
        });
    }
    snap
}

fn bench_delay_depth(c: &mut Criterion) {
    let snap = loaded_snapshot();
    let mut group = c.benchmark_group("ablation/reservation_delay_depth");
    for &depth in &[1usize, 5, 20, 60] {
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &depth| {
            let mut cfg = SchedulerConfig::paper_eval();
            cfg.reservation_delay_depth = depth;
            cfg.dfs = DfsConfig::uniform_target(500, SimDuration::from_hours(1));
            let mut m = Maui::new(cfg);
            b.iter(|| black_box(m.iterate(&snap)));
        });
    }
    group.finish();
}

fn bench_backfill_policy(c: &mut Criterion) {
    let snap = loaded_snapshot();
    let mut group = c.benchmark_group("ablation/backfill_policy");
    for (name, policy) in [
        ("none", BackfillPolicy::None),
        ("easy", BackfillPolicy::Easy),
        ("conservative", BackfillPolicy::Conservative),
    ] {
        group.bench_function(name, |b| {
            let mut cfg = SchedulerConfig::paper_eval();
            cfg.backfill = policy;
            cfg.dfs = DfsConfig::highest_priority();
            let mut m = Maui::new(cfg);
            b.iter(|| black_box(m.iterate(&snap)));
        });
    }
    group.finish();
}

fn bench_dfs_evaluate(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/dfs_evaluate");
    for &charges in &[1usize, 5, 25] {
        group.bench_with_input(BenchmarkId::from_parameter(charges), &charges, |b, &n| {
            let cfg = DfsConfig::uniform_target(500, SimDuration::from_hours(1));
            let eng = DfsEngine::new(cfg, SimTime::ZERO);
            let delays: Vec<DelayCharge> = (0..n)
                .map(|i| DelayCharge {
                    job: JobId(i as u64),
                    user: UserId((i % 6) as u32),
                    group: GroupId(0),
                    delay: SimDuration::from_secs(60),
                })
                .collect();
            b.iter(|| black_box(eng.evaluate(UserId(99), &delays)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_delay_depth,
    bench_backfill_policy,
    bench_dfs_evaluate
);
criterion_main!(benches);
