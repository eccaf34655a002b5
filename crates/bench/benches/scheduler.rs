//! Microbenchmarks of one extended Maui iteration (paper Algorithm 2):
//! ranking, planning, delay measurement, DFS checks, backfill.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dynbatch_core::{
    DfsConfig, GroupId, JobId, QueueId, SchedulerConfig, SimDuration, SimTime, UserId,
};
use dynbatch_sched::{DynRequest, Maui, QueuedJob, RunningJob, Snapshot};
use dynbatch_simtime::SplitMix64;
use std::hint::black_box;

/// A saturated 120-core snapshot: `running` jobs hold most cores, `queued`
/// jobs wait, `dyn_reqs` evolving jobs ask for more.
fn snapshot(running: usize, queued: usize, dyn_reqs: usize) -> Snapshot {
    let mut rng = SplitMix64::new(7);
    let mut snap = Snapshot {
        now: SimTime::from_secs(1000),
        total_cores: 120,
        running: Default::default(),
        queued: Default::default(),
        dyn_requests: Vec::new(),
        usage: None,
        deltas: None,
    };
    let mut used = 0u32;
    for i in 0..running {
        let cores = (1 + rng.next_below(8) as u32)
            .min(110u32.saturating_sub(used))
            .max(1);
        used += cores;
        snap.running.push(RunningJob {
            id: JobId(i as u64),
            user: UserId((i % 10) as u32),
            group: GroupId(0),
            cores,
            start_time: SimTime::from_secs(rng.next_below(900)),
            walltime_end: SimTime::from_secs(1100 + rng.next_below(3600)),
            backfilled: i % 3 == 0,
            reserved_extra: 0,
            malleable: None,
        });
    }
    for i in 0..queued {
        snap.queued.push(QueuedJob {
            id: JobId((1000 + i) as u64),
            user: UserId((i % 10) as u32),
            group: GroupId(0),
            queue: QueueId(0),
            cores: 4 + rng.next_below(40) as u32,
            walltime: SimDuration::from_secs(300 + rng.next_below(1500)),
            submit_time: SimTime::from_secs(rng.next_below(1000)),
            priority_boost: 0,
            suppress_backfill_while_queued: false,
            reserve_extra: 0,
            moldable: None,
        });
    }
    for i in 0..dyn_reqs.min(running) {
        snap.dyn_requests.push(DynRequest {
            job: JobId(i as u64),
            user: UserId((i % 10) as u32),
            group: GroupId(0),
            extra_cores: 4,
            remaining_walltime: SimDuration::from_secs(600),
            seq: i as u64,
            deadline: None,
        });
    }
    snap
}

fn maui(dfs: DfsConfig) -> Maui {
    let mut cfg = SchedulerConfig::paper_eval();
    cfg.dfs = dfs;
    Maui::new(cfg)
}

fn bench_static_iteration(c: &mut Criterion) {
    let mut group = c.benchmark_group("maui/static_iteration");
    for &queued in &[10usize, 50, 200] {
        let snap = snapshot(20, queued, 0);
        group.bench_with_input(BenchmarkId::from_parameter(queued), &snap, |b, snap| {
            let mut m = maui(DfsConfig::highest_priority());
            b.iter(|| black_box(m.iterate(snap)));
        });
    }
    group.finish();
}

fn bench_dynamic_iteration(c: &mut Criterion) {
    let mut group = c.benchmark_group("maui/dynamic_iteration");
    for &reqs in &[1usize, 5, 15] {
        let snap = snapshot(20, 50, reqs);
        group.bench_with_input(BenchmarkId::from_parameter(reqs), &snap, |b, snap| {
            let mut m = maui(DfsConfig::uniform_target(500, SimDuration::from_hours(1)));
            b.iter(|| black_box(m.iterate(snap)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_static_iteration, bench_dynamic_iteration);
criterion_main!(benches);
