//! Performance smoke harness: the measurements the repo benchmark
//! (`benchmark/`, `BENCHMARK.json`) does not carry, written to
//! `BENCH_sched.json`. Every section asserts that the two things it
//! compares decide identically before it times them.
//!
//! 1. **`scaled_iteration`** — a first `Maui::iterate` on a 10×-ESP-scale
//!    snapshot (150 nodes / 1200 cores, 2300 jobs) against the executable
//!    spec, `sched::reference::iterate_naive` (every pass visits every
//!    job, profile rebuilt): median and p95 of 30 alternating runs.
//! 2. **`incremental_timeline`** — a multi-tick snapshot sequence (jobs
//!    finishing, starting and resizing between scheduler cycles, each
//!    tick carrying the server's [`DeltaLog`]). Profile maintenance alone
//!    (`IncrementalTimeline::advance` vs `rebuild_into`) and the whole
//!    sequence through `Maui::iterate` vs `iterate_naive`, which rebuilds
//!    the profile every tick; per-tick decisions asserted equal first;
//!    medians and p95s of 30 alternating runs, and the full run gates
//!    profile maintenance at ≥ 2× the rebuild.
//! 3. **`deep_queue`** — one steady-state cycle (one pending `tm_dynget`,
//!    six idle cores) at queue depth 250 / 1 000 / 4 000 behind the same
//!    150×8 machine, against `iterate_naive`; the full
//!    run gates the depth-4 000 cycle at ≤ 0.25× the reference's and
//!    records `depth4000 / depth250`. Per depth it also records the work
//!    of a cycle in exact counts — priority scores computed, sorts, heap
//!    allocations and their bytes — which `scripts/check.sh` gates.
//! 4. **`esp_table2`** — the paper configurations (Static, Dyn-HP,
//!    Dyn-500, Dyn-100) over the ESP workload, wall clock plus
//!    per-iteration stats.
//! 5. **`journal`** — the Dyn-HP ESP run with the write-ahead journal off
//!    vs on: median overhead of alternating pairs, bounded by
//!    [`JOURNAL_OVERHEAD_BOUND_PCT`].
//! 6. **`ingest`** — a month-scale synthetic SWF trace written to disk
//!    once, then replayed under a counting global allocator streamed
//!    (`SwfSource` over a `BufRead`, lazy admission through a bounded
//!    lookahead window, O(trace) side buffers off) and materialized
//!    (slurp, `parse_swf`, eager `load`, same retention mode). End-state
//!    fingerprints, summaries and counters are asserted identical; the
//!    full run gates the peak-allocation ratio at ≥ 10×.
//! 7. **`fairness`** — a skewed synthetic campaign under static and
//!    time-aware fairshare: per-user p95 wait spread and Jain's index over
//!    a seed ensemble. The campaign runs through the sweep worker pool at
//!    one worker and at `available_parallelism()` workers, cell results
//!    asserted identical, the speed-up the median of [`SWEEP_PAIRS`]
//!    alternating pairs; the full run gates it at ≥
//!    [`SWEEP_SPEEDUP_FLOOR`]× on a machine with two or more cores.
//!
//! `--quick` (or `DYNBATCH_QUICK=1`) shrinks the workload and the seed or
//! repetition counts for CI; the full run is the one whose numbers are
//! recorded in the committed JSON.

use dynbatch_bench::alloc_meter;
use dynbatch_cluster::Cluster;
use dynbatch_core::json::Json;
use dynbatch_core::{
    CredRegistry, DfsConfig, FairshareMode, JobId, JobOutcome, QueueId, SchedulerConfig,
    SimDuration, SimTime,
};
use dynbatch_metrics::{stats::quantile, user_wait_fairness, Aggregate};
use dynbatch_sched::incremental::rebuild_into;
use dynbatch_sched::reference::iterate_naive;
use dynbatch_sched::{
    AvailabilityProfile, DeltaLog, DynRequest, IncrementalTimeline, IterationOutcome, Maui,
    ProfileDelta, QueuedJob, RunningJob, Snapshot,
};
use dynbatch_sim::{run_sweep, sweep::worker_count, BatchSim, ExperimentConfig};
use dynbatch_simtime::SplitMix64;
use dynbatch_workload::{generate_esp, stream_synthetic, EspConfig, SyntheticConfig};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Every byte the harness allocates flows through the counter so the
/// ingest section can assert a peak-memory *ratio* and the deep-queue
/// section an allocation *count* deterministically.
#[global_allocator]
static ALLOC: alloc_meter::TallyingAlloc = alloc_meter::TallyingAlloc;

/// Journal section: alternating journal-off / journal-on pairs timed, and
/// the bound on their median overhead. Eight runs on the reference box
/// read 9.0–10.5 %, and 13.3 % once, when the box changed speed inside
/// the run (pair IQR 11 points against the usual 2–4); the same
/// measurement with every compaction imaging the whole job table (the
/// parent of the change that made compactions patch) read 12.3–14.7 %
/// in four.
const JOURNAL_PAIRS: usize = 15;
const JOURNAL_OVERHEAD_BOUND_PCT: f64 = 14.0;

/// Fairness section: alternating one-worker / all-worker runs of the sweep
/// campaign, and the floor on the median speed-up. The 256-seed campaign
/// read 1.56–1.77× from one to two workers on the reference box.
const SWEEP_PAIRS: usize = 5;
const SWEEP_SPEEDUP_FLOOR: f64 = 1.3;

/// A saturated snapshot scaled from the paper's testbed: `nodes` 8-core
/// nodes, `jobs` total jobs split into running / queued, with dynamic
/// requests from a slice of the running evolving jobs.
fn scaled_snapshot(nodes: u32, jobs: usize, seed: u64) -> Snapshot {
    let total_cores = nodes * 8;
    let mut rng = SplitMix64::new(seed);
    let now = SimTime::from_secs(10_000);
    let horizon = 4 * 3600; // running jobs end within 4 h, like ESP
    let mut snap = Snapshot {
        now,
        total_cores,
        running: Default::default(),
        queued: Default::default(),
        dyn_requests: Vec::new(),
        usage: None,
        deltas: None,
    };
    // Fill ~95% of the machine with small running jobs so planning is
    // forced to look ahead and the availability timeline carries many
    // distinct steps (the interesting regime: hundreds of step joints).
    let mut used = 0u32;
    let mut id = 0u64;
    let mut seq = 0u64;
    while used + 3 <= total_cores * 95 / 100 {
        let cores = 1 + rng.next_below(3) as u32;
        used += cores;
        let end = now + SimDuration::from_secs(10 + rng.next_below(horizon));
        snap.running.push(RunningJob {
            id: JobId(id),
            user: dynbatch_core::UserId((id % 10) as u32),
            group: dynbatch_core::GroupId(0),
            cores,
            start_time: SimTime::from_secs(rng.next_below(9_000)),
            walltime_end: end,
            backfilled: false,
            reserved_extra: 0,
            malleable: None,
        });
        // Every fourth running job is evolving and asks for more cores.
        if id.is_multiple_of(4) {
            snap.dyn_requests.push(DynRequest {
                job: JobId(id),
                user: dynbatch_core::UserId((id % 10) as u32),
                group: dynbatch_core::GroupId(0),
                extra_cores: 2 + rng.next_below(4) as u32,
                remaining_walltime: end.duration_since(now),
                seq,
                deadline: None,
            });
            seq += 1;
        }
        id += 1;
    }
    while (snap.running.len() + snap.queued.len()) < jobs {
        snap.queued.push(QueuedJob {
            id: JobId(100_000 + id),
            user: dynbatch_core::UserId((id % 10) as u32),
            group: dynbatch_core::GroupId(0),
            queue: QueueId(0),
            cores: 4 + rng.next_below(40) as u32,
            walltime: SimDuration::from_secs(300 + rng.next_below(1_500)),
            submit_time: SimTime::from_secs(rng.next_below(10_000)),
            priority_boost: 0,
            suppress_backfill_while_queued: false,
            reserve_extra: 0,
            moldable: None,
        });
        id += 1;
    }
    snap
}

/// A multi-cycle snapshot sequence over the scaled cluster, mimicking
/// what [`PbsServer::snapshot_incremental`] feeds the scheduler: each
/// tick advances `now` by 30 s, retires running jobs well past their
/// walltime (a short overdue tail survives, exercising the grace
/// re-clamp), starts queued jobs into the freed cores, resizes one
/// running job, and stamps a [`DeltaLog`] mirroring exactly those edits
/// with consecutive epochs.
fn tick_sequence(nodes: u32, jobs: usize, seed: u64, ticks: usize) -> Vec<Snapshot> {
    let total_cores = nodes * 8;
    let mut rng = SplitMix64::new(seed ^ 0x71C5);
    let mut snap = scaled_snapshot(nodes, jobs, seed);
    // The running and queued jobs as plain vectors: the tick edits them
    // in place, each snapshot takes a copy.
    let mut running: Vec<RunningJob> = snap.running.to_vec();
    let mut queued: Vec<QueuedJob> = snap.queued.iter().cloned().collect();
    let mut epoch = 0u64;
    let mut seq = snap
        .dyn_requests
        .iter()
        .map(|r| r.seq + 1)
        .max()
        .unwrap_or(0);
    let mut out = Vec::with_capacity(ticks);
    snap.deltas = Some(DeltaLog {
        base_epoch: epoch,
        epoch: epoch + 1,
        deltas: Vec::new(),
    });
    epoch += 1;
    out.push(snap.clone());
    for _ in 1..ticks {
        snap.now += SimDuration::from_secs(30);
        let now = snap.now;
        let mut deltas = Vec::new();
        // Retire jobs 60 s past their walltime; until then they stay
        // running overdue, pinned to the one-grace clamp on both paths.
        let mut i = 0;
        while i < running.len() {
            if running[i].walltime_end + SimDuration::from_secs(60) <= now {
                let gone = running.swap_remove(i);
                deltas.push(ProfileDelta::Finished { job: gone.id });
            } else {
                i += 1;
            }
        }
        let mut used: u32 = running.iter().map(|r| r.cores + r.reserved_extra).sum();
        // Resize one running job by a core (grow if it fits, else shrink).
        if !running.is_empty() {
            let i = rng.next_below(running.len() as u64) as usize;
            let r = &mut running[i];
            if used < total_cores {
                r.cores += 1;
                used += 1;
            } else if r.cores > 1 {
                r.cores -= 1;
                used -= 1;
            }
            deltas.push(ProfileDelta::Resized {
                job: r.id,
                held_cores: r.cores + r.reserved_extra,
            });
        }
        // Start queued jobs into whatever the retirements freed.
        let mut started = 0;
        while started < 4 {
            match queued.last() {
                Some(q) if used + q.cores <= total_cores => {
                    let q = queued.pop().expect("just peeked");
                    used += q.cores;
                    let end = now + SimDuration::from_secs(120 + rng.next_below(7_200));
                    deltas.push(ProfileDelta::Started {
                        job: q.id,
                        held_cores: q.cores,
                        walltime_end: end,
                    });
                    running.push(RunningJob {
                        id: q.id,
                        user: q.user,
                        group: q.group,
                        cores: q.cores,
                        start_time: now,
                        walltime_end: end,
                        backfilled: false,
                        reserved_extra: 0,
                        malleable: None,
                    });
                    started += 1;
                }
                _ => break,
            }
        }
        // Fresh dynamic requests from the surviving evolving jobs.
        snap.dyn_requests = running
            .iter()
            .filter(|r| r.id.0.is_multiple_of(4) && r.walltime_end > now)
            .take(16)
            .map(|r| {
                seq += 1;
                DynRequest {
                    job: r.id,
                    user: r.user,
                    group: r.group,
                    extra_cores: 2,
                    remaining_walltime: r.walltime_end.duration_since(now),
                    seq,
                    deadline: None,
                }
            })
            .collect();
        snap.running = running.clone().into();
        snap.queued = queued.clone().into();
        snap.deltas = Some(DeltaLog {
            base_epoch: epoch,
            epoch: epoch + 1,
            deltas,
        });
        epoch += 1;
        out.push(snap.clone());
    }
    out
}

/// The deep-queue snapshot: a 150×8 machine with all but six cores
/// running, and the oldest `depth` jobs of a 4 000-job backlog (1–64
/// cores, 1–30 min, one submission a second, 32 users) queued behind it.
/// The running set does not depend on `depth`.
fn deep_queue_snapshot(depth: usize) -> Snapshot {
    let total_cores = 150 * 8;
    let now = SimTime::from_secs(20_000);
    let mut rng = SplitMix64::new(0xDEE9);
    let mut running = Vec::new();
    let mut used = 0;
    while used < total_cores - 6 {
        let cores = (1 + rng.next_below(16) as u32).min(total_cores - 6 - used);
        used += cores;
        let id = running.len() as u64;
        running.push(RunningJob {
            id: JobId(id),
            user: dynbatch_core::UserId((id % 32) as u32),
            group: dynbatch_core::GroupId(0),
            cores,
            start_time: now - SimDuration::from_secs(1 + rng.next_below(1_000)),
            walltime_end: now + SimDuration::from_secs(60 + rng.next_below(1_740)),
            backfilled: false,
            reserved_extra: 0,
            malleable: None,
        });
    }
    let first_end = running[0].walltime_end;
    let mut rng = SplitMix64::new(0xBAC7);
    let queued: Vec<QueuedJob> = (0..4_000u64)
        .map(|i| QueuedJob {
            id: JobId(10_000 + i),
            user: dynbatch_core::UserId(rng.next_below(32) as u32),
            group: dynbatch_core::GroupId(0),
            queue: QueueId(0),
            cores: 1 + rng.next_below(64) as u32,
            walltime: SimDuration::from_secs(60 + rng.next_below(1_740)),
            submit_time: SimTime::from_secs(10_000 + i),
            priority_boost: 0,
            suppress_backfill_while_queued: false,
            reserve_extra: 0,
            moldable: None,
        })
        .take(depth)
        .collect();
    Snapshot {
        now,
        total_cores,
        running: running.into(),
        queued: queued.into(),
        // What triggers most cycles of a busy site: one `tm_dynget`.
        dyn_requests: vec![DynRequest {
            job: JobId(0),
            user: dynbatch_core::UserId(0),
            group: dynbatch_core::GroupId(0),
            extra_cores: 4,
            remaining_walltime: first_end.duration_since(now),
            seq: 0,
            deadline: None,
        }],
        usage: None,
        deltas: None,
    }
}

/// 3a. Deep queue: what one steady-state scheduler cycle costs as the
/// queue behind a full machine deepens 16-fold. Each depth keeps a warm
/// `Maui` (it has ranked this queue before and follows the delta log, as
/// between two cycles of a run); the depths are timed interleaved, rep by
/// rep, and the visit-every-job reference in blocks between them, so the
/// box's drift lands on everything alike. Decisions are asserted identical
/// to the reference first. Returns the section, `depth4000 / depth250` of
/// the medians, and the depth-4000 median over the reference's.
fn deep_queue_section(reps: usize) -> (Json, f64, f64) {
    const BLOCK: usize = 10;
    let depths = [250usize, 1_000, 4_000];
    let mut cfg = SchedulerConfig::paper_eval();
    cfg.dfs = DfsConfig::uniform_target(500, SimDuration::from_hours(1));
    let mut snaps: Vec<Snapshot> = depths.iter().map(|&d| deep_queue_snapshot(d)).collect();
    for snap in &snaps {
        assert!(snap.idle_cores() <= 8, "the machine is all but full");
        let a = Maui::new(cfg.clone()).iterate(snap);
        let b = iterate_naive(&mut Maui::new(cfg.clone()), snap);
        assert_eq!(a, b, "deep queue: decisions diverged");
    }
    let mut mauis: Vec<Maui> = depths.iter().map(|_| Maui::new(cfg.clone())).collect();
    let mut naive = Maui::new(cfg.clone());
    let mut us: Vec<Vec<f64>> = depths.iter().map(|_| Vec::with_capacity(reps)).collect();
    let mut naive_us: Vec<Vec<f64>> = depths.iter().map(|_| Vec::new()).collect();
    // Work done by the timed cycles, in exact counts: heap allocations
    // (calls, bytes) and, below, the rank order's own counters.
    let mut allocated = vec![(0usize, 0usize); depths.len()];
    let mut first_cycle = Vec::new();
    // Epoch 0 is the untimed first cycle (full rank, timeline rebuild).
    for epoch in 0..=reps {
        for (k, snap) in snaps.iter_mut().enumerate() {
            snap.deltas = Some(DeltaLog {
                base_epoch: epoch as u64,
                epoch: epoch as u64 + 1,
                deltas: Vec::new(),
            });
            let before = alloc_meter::allocated();
            let t0 = Instant::now();
            black_box(mauis[k].iterate(snap));
            let dt = t0.elapsed().as_secs_f64() * 1e6;
            let after = alloc_meter::allocated();
            if epoch > 0 {
                us[k].push(dt);
                allocated[k].0 += after.0 - before.0;
                allocated[k].1 += after.1 - before.1;
            } else {
                first_cycle.push(mauis[k].rank_stats());
            }
        }
        // The reference churns through enough memory to evict the
        // scheduler's working set, so it runs between blocks, not cycles.
        if epoch % BLOCK == 0 {
            for (k, snap) in snaps.iter().enumerate() {
                let t0 = Instant::now();
                black_box(iterate_naive(&mut naive, snap));
                naive_us[k].push(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    let mut rows = Vec::new();
    let mut medians = Vec::new();
    let mut naive_medians = Vec::new();
    for (k, &depth) in depths.iter().enumerate() {
        us[k].sort_by(f64::total_cmp);
        naive_us[k].sort_by(f64::total_cmp);
        let (median, p95) = (quantile(&us[k], 0.5), quantile(&us[k], 0.95));
        let naive_median = quantile(&naive_us[k], 0.5);
        eprintln!(
            "  depth {depth:>5}  iterate median {median:>7.1} us  p95 {p95:>7.1} us  \
             (visit-every-job reference {naive_median:.1} us)"
        );
        medians.push(median);
        naive_medians.push(naive_median);
        let rank = mauis[k].rank_stats();
        let evaluations = rank.evaluations - first_cycle[k].evaluations;
        let per_cycle = |total: u64| Json::Float(total as f64 / reps as f64);
        eprintln!(
            "               per cycle: {:.1} scores computed, {:.1} allocations of {:.0} bytes",
            evaluations as f64 / reps as f64,
            allocated[k].0 as f64 / reps as f64,
            allocated[k].1 as f64 / reps as f64,
        );
        rows.push(Json::obj(vec![
            ("queue_depth", Json::UInt(depth as u64)),
            ("iterate_us_median", Json::Float(median)),
            ("iterate_us_p95", Json::Float(p95)),
            ("reference_us_median", Json::Float(naive_median)),
            ("priority_evaluations_per_cycle", per_cycle(evaluations)),
            ("rank_sorts", Json::UInt(rank.sorts - first_cycle[k].sorts)),
            ("allocs_per_iterate", per_cycle(allocated[k].0 as u64)),
            ("alloc_bytes_per_iterate", per_cycle(allocated[k].1 as u64)),
        ]));
    }
    let ratio = medians[2] / medians[0];
    let over_reference = medians[2] / naive_medians[2];
    let per_job_ns = (medians[2] - medians[0]) * 1e3 / (depths[2] - depths[0]) as f64;
    let section = Json::obj(vec![
        ("nodes", Json::UInt(150)),
        ("cores", Json::UInt(1200)),
        ("idle_cores", Json::UInt(snaps[0].idle_cores() as u64)),
        ("running_jobs", Json::UInt(snaps[0].running.len() as u64)),
        ("pending_dyn_requests", Json::UInt(1)),
        ("reps", Json::UInt(reps as u64)),
        ("per_depth", Json::Arr(rows)),
        ("depth4000_over_depth250", Json::Float(ratio)),
        ("marginal_ns_per_queued_job", Json::Float(per_job_ns)),
        ("depth4000_over_reference", Json::Float(over_reference)),
        (
            "gate",
            Json::Str("depth4000 <= 0.25 x reference at depth 4000 (full runs)".into()),
        ),
        // Set only after the asserts against `iterate_naive` above.
        ("identical_decisions", Json::Bool(true)),
    ]);
    (section, ratio, over_reference)
}

fn timed_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64() * 1e3, out)
}

/// Median and 95th percentile of a set of timings, in milliseconds.
struct Timing {
    median_ms: f64,
    p95_ms: f64,
}

/// Times `reps` runs of `a` and of `b`, alternating so the box's drift
/// lands on both alike, and returns each side's timing and last result.
fn time_pair<A, B>(
    reps: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (Timing, A, Timing, B) {
    let (mut a_ms, mut b_ms) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    let mut last = None;
    for _ in 0..reps {
        let (ms, out_a) = timed_ms(&mut a);
        a_ms.push(ms);
        let (ms, out_b) = timed_ms(&mut b);
        b_ms.push(ms);
        last = Some((out_a, out_b));
    }
    let timing = |mut ms: Vec<f64>| {
        ms.sort_by(f64::total_cmp);
        Timing {
            median_ms: quantile(&ms, 0.5),
            p95_ms: quantile(&ms, 0.95),
        }
    };
    let (out_a, out_b) = last.expect("reps >= 1");
    (timing(a_ms), out_a, timing(b_ms), out_b)
}

fn run_esp_config(label: &str, cap: Option<u64>, dynamic: bool, seed: u64) -> Json {
    let mut reg = CredRegistry::new();
    let mut wl_cfg = if dynamic {
        EspConfig::paper_dynamic()
    } else {
        EspConfig::paper_static()
    };
    wl_cfg.seed = seed;
    let wl = generate_esp(&wl_cfg, &mut reg);
    let mut sim = BatchSim::new(Cluster::homogeneous(15, 8), table2_sched(cap));
    sim.load(&wl);
    let t0 = Instant::now();
    sim.run();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let stats = sim.stats();
    assert!(sim.server().is_drained(), "{label}: run did not drain");
    Json::obj(vec![
        ("config", Json::Str(label.to_owned())),
        (
            "jobs",
            Json::UInt(sim.server().accounting().outcomes().len() as u64),
        ),
        ("wall_ms", Json::Float(wall_ms)),
        ("cycles", Json::UInt(stats.cycles)),
        (
            "mean_iteration_us",
            Json::Float(wall_ms * 1e3 / stats.cycles.max(1) as f64),
        ),
        ("dyn_granted", Json::UInt(stats.dyn_granted)),
        ("dyn_rejected", Json::UInt(stats.dyn_rejected)),
        (
            "makespan_mins",
            Json::Float(
                sim.last_completion()
                    .duration_since(sim.first_submit())
                    .as_mins_f64(),
            ),
        ),
    ])
}

/// The scheduler configuration of one Table-II/sweep column.
fn table2_sched(cap: Option<u64>) -> SchedulerConfig {
    let mut cfg = SchedulerConfig::paper_eval();
    cfg.dfs = match cap {
        None => DfsConfig::highest_priority(),
        Some(c) => DfsConfig::uniform_target(c, SimDuration::from_hours(1)),
    };
    cfg
}

/// One fairness-ensemble column: the sweep workload under a fairshare
/// mode. The synthetic mix is deliberately **skewed** — user 0 owns a
/// third of the submissions (`users: 3` over round-robin assignment ⇒
/// uneven per-user demand once core sizes randomise) — so per-user wait
/// spread has something to measure.
fn fairness_sched(mode: FairshareMode) -> SchedulerConfig {
    let mut cfg = SchedulerConfig::paper_eval();
    cfg.dfs = DfsConfig::uniform_target(500, SimDuration::from_hours(1));
    // Give the fairshare delta real weight in both arms (the default is
    // 0.0 — pure FIFO — under which the two modes are indistinguishable):
    // a full share deviation is worth ~an hour of queueing.
    cfg.priority.fairshare_weight = 60.0;
    cfg.fairshare.enabled = true;
    cfg.fairshare.mode = mode;
    cfg.fairshare.half_life = SimDuration::from_hours(6);
    cfg.fairshare.default_target = 1.0 / 6.0;
    if mode == FairshareMode::TimeAware {
        cfg.fairshare.user_budget_core_hours = Some(60.0);
    }
    cfg
}

fn fairness_workload(cfg: &ExperimentConfig, seed: u64) -> dynbatch_workload::SyntheticStream {
    let _ = cfg;
    let mut reg = CredRegistry::new();
    let wl = SyntheticConfig {
        seed,
        jobs: 80,
        users: 6,
        total_cores: 120,
        mean_interarrival: SimDuration::from_secs(25),
        runtime_secs: (60, 900),
        cores: (1, 12),
        evolving_fraction: 0.3,
        extra_cores: 4,
        det_factor: 0.7,
    };
    stream_synthetic(&wl, &mut reg)
}

/// The fairness headline: the spread (max − min) of per-user p95 waiting
/// times, seconds — 0 when every user experiences the same tail latency.
fn p95_wait_spread_s(outcomes: &[JobOutcome]) -> f64 {
    let mut by_user: HashMap<u32, Vec<f64>> = HashMap::new();
    for o in outcomes {
        by_user
            .entry(o.user.0)
            .or_default()
            .push(o.wait().as_secs_f64());
    }
    let p95s: Vec<f64> = by_user.values().map(|w| quantile(w, 0.95)).collect();
    let max = p95s.iter().copied().fold(f64::MIN, f64::max);
    let min = p95s.iter().copied().fold(f64::MAX, f64::min);
    if p95s.is_empty() {
        0.0
    } else {
        max - min
    }
}

fn aggregate_json(a: &Aggregate) -> Json {
    Json::obj(vec![
        ("mean", Json::Float(a.mean)),
        ("stddev", Json::Float(a.stddev)),
        ("p50", Json::Float(a.p50)),
        ("p95", Json::Float(a.p95)),
        ("p99", Json::Float(a.p99)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick")
        || std::env::var("DYNBATCH_QUICK").is_ok_and(|v| v == "1");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_sched.json".to_owned());

    let (nodes, jobs) = if quick { (40, 600) } else { (150, 2300) };
    // Paired timings below report the median and p95 of this many runs.
    let reps = 30;
    // Deep-lookahead stress configuration for the scaled measurements: at
    // 10× the paper's testbed the site would plan correspondingly deeper,
    // and depth is what every what-if plan pays for.
    // Identical on both sides of every comparison.
    let mut cfg = SchedulerConfig::paper_eval();
    cfg.reservation_depth = 20;
    cfg.reservation_delay_depth = 20;

    // 1. A first Maui::iterate on the scaled snapshot against the
    // visit-every-job reference.
    eprintln!("perf_smoke: scaled iteration ({nodes} nodes, {jobs} jobs, {reps} reps)");
    let snap = scaled_snapshot(nodes, jobs, 42);
    let (reference, out_r, iterate, out_i) = time_pair(
        reps,
        || iterate_naive(&mut Maui::new(cfg.clone()), &snap),
        || Maui::new(cfg.clone()).iterate(&snap),
    );
    assert_eq!(out_r, out_i, "scaled iteration: decisions diverged");
    eprintln!(
        "  reference {:.2} ms (p95 {:.2})  iterate {:.2} ms (p95 {:.2})  ({:.1}x)",
        reference.median_ms,
        reference.p95_ms,
        iterate.median_ms,
        iterate.p95_ms,
        reference.median_ms / iterate.median_ms
    );

    // 2. Incremental timeline: a multi-tick delta-carrying snapshot
    // sequence through a delta-fed Maui and through the reference, which
    // rebuilds the profile every tick. Decisions first, tick by tick.
    let ticks = if quick { 40 } else { 150 };
    eprintln!("perf_smoke: incremental timeline ({ticks} ticks)");
    let seq_snaps = tick_sequence(nodes, jobs, 43, ticks);
    {
        let mut fed = Maui::new(cfg.clone());
        let mut naive = Maui::new(cfg.clone());
        for (i, s) in seq_snaps.iter().enumerate() {
            let (a, b) = (fed.iterate(s), iterate_naive(&mut naive, s));
            assert_eq!(a, b, "tick {i}: decisions diverged");
        }
        let st = fed.timeline_stats();
        assert_eq!(st.rebuilds, 1, "only the first tick may rebuild");
        assert_eq!(st.delta_batches as usize, ticks - 1);
    }
    // Maintenance alone: applying each tick's deltas (plus re-anchoring)
    // vs rebuilding the base profile from the running set — the edit this
    // section exists to measure.
    let (reb_profile, _, inc_profile, _) = time_pair(
        reps,
        || {
            let mut buf = AvailabilityProfile::new(SimTime::ZERO, 0);
            for s in &seq_snaps {
                rebuild_into(&mut buf, s.now, s.total_cores, &s.running);
                black_box(buf.steps().len());
            }
        },
        || {
            let mut tl = IncrementalTimeline::new();
            for s in &seq_snaps {
                tl.advance(s);
                black_box(tl.profile().steps().len());
            }
        },
    );
    let maintenance_speedup = reb_profile.median_ms / inc_profile.median_ms;
    // End to end: the whole sequence through the reference and through
    // `iterate`. The reference rebuilds, re-ranks and re-plans everything
    // every tick, so this ratio is the cycle's, not the timeline's alone —
    // that one is the maintenance speedup above.
    let run_seq = |cycle: fn(&mut Maui, &Snapshot) -> IterationOutcome| {
        let mut m = Maui::new(cfg.clone());
        let mut n = 0usize;
        for s in &seq_snaps {
            n += black_box(cycle(&mut m, s)).starts.len();
        }
        n
    };
    let (it_reb, _, it_inc, _) =
        time_pair(reps, || run_seq(iterate_naive), || run_seq(Maui::iterate));
    eprintln!(
        "  profile rebuild {:.2} ms (p95 {:.2})  incremental {:.2} ms (p95 {:.2})  \
         ({maintenance_speedup:.1}x); reference {:.2} (p95 {:.2}) -> iterate {:.2} ms (p95 {:.2})",
        reb_profile.median_ms,
        reb_profile.p95_ms,
        inc_profile.median_ms,
        inc_profile.p95_ms,
        it_reb.median_ms,
        it_reb.p95_ms,
        it_inc.median_ms,
        it_inc.p95_ms,
    );

    // 3. Deep queue: steady-state cycle cost at queue depth 250 / 1 000 /
    // 4 000 behind a full machine.
    let deep_reps = if quick { 30 } else { 300 };
    eprintln!("perf_smoke: deep queue (depths 250/1000/4000, {deep_reps} reps)");
    let (deep_queue_json, deep_queue_ratio, deep_queue_over_reference) =
        deep_queue_section(deep_reps);
    eprintln!(
        "  depth4000 / depth250 = {deep_queue_ratio:.2}; depth4000 / reference = \
         {deep_queue_over_reference:.2}"
    );

    // 4. Table II end-to-end sweep. Quick mode keeps the two extreme
    // columns (Static, Dyn-HP) rather than all four.
    let esp_seed = 2014;
    let all_configs: &[(&str, Option<u64>, bool)] = &[
        ("Static", None, false),
        ("Dyn-HP", None, true),
        ("Dyn-500", Some(500), true),
        ("Dyn-100", Some(100), true),
    ];
    let configs = if quick {
        &all_configs[..2]
    } else {
        all_configs
    };
    let mut esp = Vec::new();
    for &(label, cap, dynamic) in configs {
        let row = run_esp_config(label, cap, dynamic, esp_seed);
        eprintln!(
            "  {label:<8} wall {:>8.1} ms  cycles {:>5}",
            row.req("wall_ms").unwrap().as_f64().unwrap(),
            row.req("cycles").unwrap().as_u64().unwrap(),
        );
        esp.push(row);
    }

    // 5. Journal overhead: the Dyn-HP ESP run with the write-ahead
    // journal off vs on (compacting snapshot every 64 records). The two
    // runs must agree on the outcome count — journaling is observation,
    // not policy — and durability must stay cheap: the median overhead of
    // the off/on pairs is asserted under JOURNAL_OVERHEAD_BOUND_PCT.
    eprintln!("perf_smoke: journal overhead (Dyn-HP ESP, journal off vs on)");
    let journal_wl = {
        let mut reg = CredRegistry::new();
        let mut wl_cfg = EspConfig::paper_dynamic();
        wl_cfg.seed = esp_seed;
        generate_esp(&wl_cfg, &mut reg)
    };
    let journal_run = |journal: bool| {
        let mut sim = BatchSim::new(Cluster::homogeneous(15, 8), table2_sched(None));
        if journal {
            sim.enable_journal(64);
        }
        sim.load(&journal_wl);
        sim.run();
        assert!(sim.server().is_drained(), "journal section: run must drain");
        let jobs = sim.server().accounting().outcomes().len();
        let records = sim.server().journal().map_or(0, |j| j.total_appended());
        (jobs, records)
    };
    // Alternating off/on pairs, each pair's overhead taken on its own and
    // the median pair reported: a host whose speed drifts between two
    // plateaus ~1.4× apart moves both halves of a pair together, and the
    // odd pair that straddles a switch falls outside the median.
    let (mut base_all, mut journal_all, mut overhead_all) = (Vec::new(), Vec::new(), Vec::new());
    let (mut base_jobs, mut journal_jobs, mut journal_records) = (0, 0, 0);
    for _ in 0..JOURNAL_PAIRS {
        let (base, (jobs, _)) = timed_ms(|| journal_run(false));
        base_jobs = jobs;
        let (journaled, (jobs, records)) = timed_ms(|| journal_run(true));
        (journal_jobs, journal_records) = (jobs, records);
        base_all.push(base);
        journal_all.push(journaled);
        overhead_all.push((journaled - base) / base * 100.0);
    }
    assert_eq!(
        base_jobs, journal_jobs,
        "journaling changed the outcome count — it must be pure observation"
    );
    for all in [&mut base_all, &mut journal_all, &mut overhead_all] {
        all.sort_by(f64::total_cmp);
    }
    let (base_ms, journaled_ms) = (quantile(&base_all, 0.5), quantile(&journal_all, 0.5));
    let journal_overhead_pct = quantile(&overhead_all, 0.5);
    let journal_overhead_iqr = quantile(&overhead_all, 0.75) - quantile(&overhead_all, 0.25);
    let overhead_us = base_ms * journal_overhead_pct / 100.0 * 1e3;
    let append_us_per_job = (overhead_us / base_jobs.max(1) as f64).max(0.0);
    eprintln!(
        "  baseline {base_ms:.2} ms  journaled {journaled_ms:.2} ms  \
         ({journal_overhead_pct:+.1}% median of {JOURNAL_PAIRS} pairs, IQR \
         {journal_overhead_iqr:.1} points, {append_us_per_job:.2} us/job, \
         {journal_records} records)"
    );
    assert!(
        journal_overhead_pct <= JOURNAL_OVERHEAD_BOUND_PCT,
        "journal append overhead regressed past the {JOURNAL_OVERHEAD_BOUND_PCT}% bound: \
         median {journal_overhead_pct:.1}% (journaled {journaled_ms:.2} ms vs baseline \
         {base_ms:.2} ms)"
    );

    // 6. Streaming ingestion: a month-scale synthetic SWF trace replayed
    // streamed vs materialized under the counting allocator. The trace is
    // written to disk streaming too — it never exists in memory here.
    let ingest_days: usize = if quick { 2 } else { 30 };
    let ingest_jobs = ingest_days * 86_400 / 25; // 25 s mean interarrival
    eprintln!("perf_smoke: streaming ingestion ({ingest_days}-day trace, {ingest_jobs} jobs)");
    let swf_path = std::env::temp_dir().join(format!("dynbatch-ingest-{}.swf", std::process::id()));
    {
        let mut reg = CredRegistry::new();
        let src = dynbatch_workload::stream_synthetic(
            &dynbatch_workload::SyntheticConfig {
                seed: 20_140_808,
                jobs: ingest_jobs,
                users: 32,
                total_cores: 120,
                mean_interarrival: SimDuration::from_secs(25),
                runtime_secs: (60, 1800),
                cores: (1, 8),
                evolving_fraction: 0.0, // the evolving conversion happens at parse time
                extra_cores: 4,
                det_factor: 0.7,
            },
            &mut reg,
        );
        let file = std::fs::File::create(&swf_path).expect("create trace file");
        let mut out = std::io::BufWriter::new(file);
        let written = dynbatch_workload::write_swf_to(&mut out, src, 8).expect("write trace");
        std::io::Write::flush(&mut out).expect("flush trace");
        assert_eq!(written, ingest_jobs);
    }
    let swf_cfg = dynbatch_workload::SwfConfig {
        evolving_fraction: 0.1,
        seed: 77,
        ..Default::default()
    };
    let ingest_cfg = ExperimentConfig::paper_cluster("ingest", table2_sched(None));
    let ingest_window_hours = 6u64;
    let ingest_opts = dynbatch_sim::IngestOptions {
        window: SimDuration::from_hours(ingest_window_hours),
        low_memory: true,
        fingerprint: true,
    };

    // Streamed replay: file → BufRead → lazy admission. Peak allocation
    // above the entry level is the number under test.
    let t0 = Instant::now();
    let stream_base = alloc_meter::reset_peak();
    let (stream_result, stream_peak) = {
        let file = std::fs::File::open(&swf_path).expect("open trace");
        let reader = std::io::BufReader::new(file);
        let mut src = dynbatch_workload::SwfSource::with_own_registry(reader, swf_cfg.clone());
        let result = dynbatch_sim::run_experiment_streamed(&ingest_cfg, &mut src, &ingest_opts);
        assert!(src.error().is_none(), "generated trace parses cleanly");
        assert_eq!(src.emitted(), ingest_jobs);
        let peak = alloc_meter::peak_bytes().saturating_sub(stream_base);
        (result, peak)
    };
    let stream_secs = t0.elapsed().as_secs_f64();

    // Materialized replay: slurp + parse + eager load, identical
    // retention mode so the comparison isolates the ingestion pipeline.
    let t0 = Instant::now();
    let mat_base = alloc_meter::reset_peak();
    let (mat_result, mat_peak) = {
        let text = std::fs::read_to_string(&swf_path).expect("read trace");
        let mut reg = CredRegistry::new();
        let items = dynbatch_workload::parse_swf(&text, &swf_cfg, &mut reg).expect("trace parses");
        assert_eq!(items.len(), ingest_jobs);
        let result = dynbatch_sim::run_experiment_materialized(&ingest_cfg, &items, &ingest_opts);
        let peak = alloc_meter::peak_bytes().saturating_sub(mat_base);
        (result, peak)
    };
    let mat_secs = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&swf_path);

    assert_eq!(
        stream_result.fingerprint, mat_result.fingerprint,
        "streamed vs materialized ingestion diverged in end state"
    );
    assert_eq!(stream_result.summary, mat_result.summary);
    assert_eq!(stream_result.stats, mat_result.stats);
    let ingest_ratio = mat_peak as f64 / stream_peak.max(1) as f64;
    eprintln!(
        "  streamed {:>7.1} MiB peak {stream_secs:.2} s  materialized {:>7.1} MiB peak \
         {mat_secs:.2} s  ({ingest_ratio:.1}x less memory, {} jobs completed)",
        stream_peak as f64 / (1u64 << 20) as f64,
        mat_peak as f64 / (1u64 << 20) as f64,
        stream_result.summary.jobs_completed
    );
    if !quick {
        assert!(
            ingest_ratio >= 10.0,
            "streaming ingestion peak-memory advantage regressed below 10x: {ingest_ratio:.2}x"
        );
    }

    // 7. Fairness ensemble: the same skewed synthetic campaign under the
    // classic windowed fairshare (Static) and the decayed resource-hour
    // mode (TimeAware), per-seed per-user p95 wait spread + Jain's index
    // over user mean waits, aggregated across the seed ensemble.
    let fair_seed_count: usize = if quick { 8 } else { 256 };
    let fair_seeds: Vec<u64> = (0..fair_seed_count).map(|i| 7_000 + i as u64).collect();
    eprintln!(
        "perf_smoke: fairness ensemble ({} seeds x static/time-aware)",
        fair_seeds.len()
    );
    let fair_cfgs = vec![
        ExperimentConfig::paper_cluster("static", fairness_sched(FairshareMode::Static)),
        ExperimentConfig::paper_cluster("time-aware", fairness_sched(FairshareMode::TimeAware)),
    ];
    // Alternating one-worker / all-worker pairs, the speed-up taken per
    // pair and the median pair reported, as in the journal section.
    let sweep_workers = worker_count(0);
    let sweep =
        |workers| timed_ms(|| run_sweep(&fair_cfgs, &fair_seeds, workers, fairness_workload));
    let (mut serial_all, mut parallel_all, mut speedup_all) = (Vec::new(), Vec::new(), Vec::new());
    let mut fair_cells = Vec::new();
    for _ in 0..SWEEP_PAIRS {
        let (serial_ms, serial_cells) = sweep(1);
        let (parallel_ms, cells) = sweep(sweep_workers);
        for (s, p) in serial_cells.iter().zip(&cells) {
            assert_eq!((s.config, s.seed), (p.config, p.seed));
            assert_eq!(
                s.result.summary, p.result.summary,
                "sweep: worker count changed a run"
            );
            assert_eq!(s.result.outcomes, p.result.outcomes);
            assert_eq!(s.result.stats, p.result.stats);
        }
        fair_cells = cells;
        serial_all.push(serial_ms);
        parallel_all.push(parallel_ms);
        speedup_all.push(serial_ms / parallel_ms);
    }
    for all in [&mut serial_all, &mut parallel_all, &mut speedup_all] {
        all.sort_by(f64::total_cmp);
    }
    let (serial_sweep_ms, parallel_sweep_ms) =
        (quantile(&serial_all, 0.5), quantile(&parallel_all, 0.5));
    let parallel_speedup = quantile(&speedup_all, 0.5);
    eprintln!(
        "  sweep 1 worker {serial_sweep_ms:.1} ms  {sweep_workers} workers \
         {parallel_sweep_ms:.1} ms  ({parallel_speedup:.2}x, median of {SWEEP_PAIRS} \
         alternating pairs)"
    );
    let fairness_modes: Vec<Json> = fair_cfgs
        .iter()
        .enumerate()
        .map(|(ci, cfg)| {
            let mut spreads = Vec::new();
            let mut jains = Vec::new();
            for cell in fair_cells.iter().filter(|c| c.config == ci) {
                spreads.push(p95_wait_spread_s(&cell.result.outcomes));
                jains.push(user_wait_fairness(&cell.result.outcomes));
            }
            let spread = dynbatch_metrics::aggregate(&spreads);
            let jain = dynbatch_metrics::aggregate(&jains);
            eprintln!(
                "  {:<11} p95-wait spread mean {:>7.1} s  jain mean {:.4}",
                cfg.label, spread.mean, jain.mean
            );
            Json::obj(vec![
                ("mode", Json::Str(cfg.label.clone())),
                ("p95_wait_spread_s", aggregate_json(&spread)),
                ("jain_user_mean_wait", aggregate_json(&jain)),
            ])
        })
        .collect();
    let fairness_json = Json::obj(vec![
        ("seeds", Json::UInt(fair_seeds.len() as u64)),
        (
            "workload",
            Json::Str("synthetic 80 jobs / 6 users / 120 cores".into()),
        ),
        (
            "headline",
            Json::Str("per-user p95 wait spread, seconds".into()),
        ),
        ("modes", Json::Arr(fairness_modes)),
        ("workers", Json::UInt(sweep_workers as u64)),
        ("pairs", Json::UInt(SWEEP_PAIRS as u64)),
        ("serial_ms", Json::Float(serial_sweep_ms)),
        ("parallel_ms", Json::Float(parallel_sweep_ms)),
        ("parallel_speedup", Json::Float(parallel_speedup)),
    ]);

    let report = Json::obj(vec![
        ("version", Json::UInt(1)),
        ("quick", Json::Bool(quick)),
        (
            "scaled_iteration",
            Json::obj(vec![
                ("reps", Json::UInt(reps as u64)),
                ("reference_ms", Json::Float(reference.median_ms)),
                ("reference_ms_p95", Json::Float(reference.p95_ms)),
                ("iterate_ms", Json::Float(iterate.median_ms)),
                ("iterate_ms_p95", Json::Float(iterate.p95_ms)),
                (
                    "speedup",
                    Json::Float(reference.median_ms / iterate.median_ms),
                ),
                ("identical_decisions", Json::Bool(true)),
            ]),
        ),
        (
            "incremental_timeline",
            Json::obj(vec![
                ("ticks", Json::UInt(ticks as u64)),
                ("reps", Json::UInt(reps as u64)),
                ("profile_rebuild_ms", Json::Float(reb_profile.median_ms)),
                ("profile_rebuild_ms_p95", Json::Float(reb_profile.p95_ms)),
                ("profile_incremental_ms", Json::Float(inc_profile.median_ms)),
                (
                    "profile_incremental_ms_p95",
                    Json::Float(inc_profile.p95_ms),
                ),
                ("maintenance_speedup", Json::Float(maintenance_speedup)),
                ("reference_ms", Json::Float(it_reb.median_ms)),
                ("reference_ms_p95", Json::Float(it_reb.p95_ms)),
                ("iterate_ms", Json::Float(it_inc.median_ms)),
                ("iterate_ms_p95", Json::Float(it_inc.p95_ms)),
                (
                    "iterate_speedup",
                    Json::Float(it_reb.median_ms / it_inc.median_ms),
                ),
                ("identical_decisions", Json::Bool(true)),
            ]),
        ),
        ("deep_queue", deep_queue_json),
        ("esp_table2", Json::Arr(esp)),
        (
            "journal",
            Json::obj(vec![
                ("jobs", Json::UInt(base_jobs as u64)),
                ("records", Json::UInt(journal_records)),
                ("snapshot_every", Json::UInt(64)),
                ("pairs", Json::UInt(JOURNAL_PAIRS as u64)),
                ("baseline_ms", Json::Float(base_ms)),
                ("journaled_ms", Json::Float(journaled_ms)),
                ("overhead_pct", Json::Float(journal_overhead_pct)),
                ("overhead_pct_iqr", Json::Float(journal_overhead_iqr)),
                (
                    "overhead_bound_pct",
                    Json::Float(JOURNAL_OVERHEAD_BOUND_PCT),
                ),
                ("append_us_per_job", Json::Float(append_us_per_job)),
            ]),
        ),
        (
            "ingest",
            Json::obj(vec![
                ("trace_days", Json::UInt(ingest_days as u64)),
                ("trace_jobs", Json::UInt(ingest_jobs as u64)),
                ("lookahead_hours", Json::UInt(ingest_window_hours)),
                (
                    "streamed",
                    Json::obj(vec![
                        ("peak_alloc_bytes", Json::UInt(stream_peak as u64)),
                        ("wall_secs", Json::Float(stream_secs)),
                    ]),
                ),
                (
                    "materialized",
                    Json::obj(vec![
                        ("peak_alloc_bytes", Json::UInt(mat_peak as u64)),
                        ("wall_secs", Json::Float(mat_secs)),
                    ]),
                ),
                ("peak_reduction", Json::Float(ingest_ratio)),
                // Set only after the fingerprint/summary/stats asserts
                // above — false is unrepresentable in an emitted report.
                ("identical_results", Json::Bool(true)),
            ]),
        ),
        ("fairness", fairness_json),
    ]);
    std::fs::write(&out_path, report.to_string_pretty()).expect("write report");
    eprintln!("perf_smoke: wrote {out_path}");

    if !quick {
        assert!(
            maintenance_speedup >= 2.0,
            "incremental profile maintenance regressed below 2x: {maintenance_speedup:.2}x"
        );
        assert!(
            deep_queue_over_reference <= 0.25,
            "a cycle at queue depth 4000 costs {deep_queue_over_reference:.2}x the \
             visit-every-job reference (bound 0.25)"
        );
        if sweep_workers >= 2 {
            assert!(
                parallel_speedup >= SWEEP_SPEEDUP_FLOOR,
                "the sweep worker pool ran {parallel_speedup:.2}x faster on {sweep_workers} \
                 workers than on one (floor {SWEEP_SPEEDUP_FLOOR}x)"
            );
        }
    }
}
