//! Dependency-light performance smoke harness (no criterion).
//!
//! The measurements, written to `BENCH_sched.json`:
//!
//! 1. **Scaled planning kernel** — one scheduler iteration's hot path
//!    (profile build, mold-fit sweep, reservations, backfill, dynamic
//!    what-if delay loop) on a 10×-ESP-scale snapshot (150 nodes / 1200
//!    cores, 2300 jobs), implemented twice: the *pre-change* formulation
//!    on [`NaiveProfile`] (full-scan `min_idle`, global re-coalescing
//!    `hold`, allocating `earliest_fit`, per-request clone + replan of the
//!    "before" plan) and the *optimised* formulation on
//!    [`AvailabilityProfile`] (windowed ops, scratch buffers, cached
//!    before-plan, `JobId` index). Both kernels implement the same
//!    decision policy and the harness asserts their decisions are
//!    identical before trusting the timing.
//! 2. **Full `Maui::iterate`** on the same scaled snapshot, before-plan
//!    cache on vs off, decisions asserted identical.
//! 3. **Incremental timeline** — a multi-tick snapshot sequence (jobs
//!    finishing, starting and resizing between scheduler cycles, each
//!    tick carrying the server's [`DeltaLog`]) driven through a delta-fed
//!    `Maui` and a rebuild-every-iteration `Maui`. Decisions are asserted
//!    identical tick by tick — with the rebuild-equivalence guard enabled
//!    on the correctness pass — before either path is timed.
//!    A second part (**deep queue**) times one steady-state cycle —
//!    one pending `tm_dynget`, six idle cores — at queue depth 250 /
//!    1 000 / 4 000 behind the same 150×8 machine, decisions asserted
//!    identical to `sched::reference::iterate_naive`; the full run gates
//!    the depth-4 000 cycle at ≤ 0.25× the reference's and records
//!    `depth4000 / depth250`.
//! 4. **Table II end-to-end** — the paper configurations (Static, Dyn-HP,
//!    Dyn-500, Dyn-100) over the ESP workload, wall clock plus
//!    per-iteration stats.
//! 5. **Journal overhead** — the Dyn-HP ESP run with the write-ahead
//!    state journal disabled vs enabled, append cost charged per
//!    scheduled job, with a ≤10 % regression sanity bound (durability
//!    must stay in the noise).
//! 6. **Command reactor** — sustained submissions/sec through the
//!    `server::reactor` front-end: N client threads race `qsub` lines
//!    into the reactor while the host drains admission batches into a
//!    journaled `PbsServer` with group-commit acks: every command's
//!    journal record is appended before its reply (ack-on-append).
//! 7. **Sweep engine** — a `(config × seed)` ESP campaign run serially
//!    (fresh simulator per run) and on the parallel sweep engine at two
//!    different worker counts, per-seed `RunSummary`s asserted identical
//!    across all three. Written to `BENCH_sweep.json`, with requested
//!    (null when auto-derived) and effective worker counts recorded
//!    separately so emitted content stays comparable across hosts.
//!
//! 8. **Streaming ingestion** — a month-scale synthetic SWF trace is
//!    written to disk once, then replayed twice under a counting global
//!    allocator: streamed (`SwfSource` over a `BufRead`, lazy admission
//!    through a bounded lookahead window, O(trace) side buffers off) and
//!    materialized (slurp + `parse_swf` + eager `load`, same retention
//!    mode). End-state fingerprints, summaries and counters are asserted
//!    identical before the peak-allocation ratio is trusted; the full run
//!    gates the ratio at ≥10× and the materialized/streamed wall-time
//!    ratio at ≤1.3 (cycle cost must not depend on preloaded events).
//!
//! `--quick` (or `DYNBATCH_QUICK=1`) shrinks the workload, repetition
//! counts and sweep matrix in **every** section for CI; the full run is
//! the one whose numbers are recorded in the committed JSON files.

use dynbatch_bench::alloc_meter;
use dynbatch_cluster::Cluster;
use dynbatch_core::json::Json;
use dynbatch_core::{
    AllocPolicy, CredRegistry, DfsConfig, FairshareMode, JobId, JobOutcome, QueueId,
    SchedulerConfig, SimDuration, SimTime,
};
use dynbatch_metrics::{
    stats::quantile, summarize_ensemble, user_wait_fairness, Aggregate, RunSummary,
};
use dynbatch_sched::incremental::rebuild_into;
use dynbatch_sched::reference::NaiveProfile;
use dynbatch_sched::{
    rank_jobs, AvailabilityProfile, DeltaLog, DynRequest, FairnessView, IncrementalTimeline, Maui,
    ProfileDelta, QueuedJob, RunningJob, Snapshot,
};
use dynbatch_server::reactor::apply_to_server;
use dynbatch_server::{PbsServer, Reactor};
use dynbatch_sim::{run_experiment, run_sweep, sweep::worker_count, BatchSim, ExperimentConfig};
use dynbatch_simtime::SplitMix64;
use dynbatch_workload::{
    generate_esp, stream_esp, stream_synthetic, EspConfig, SyntheticConfig, WorkloadItem,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::thread;
use std::time::Instant;

/// Every byte the harness allocates flows through the counter so the
/// ingest section can assert a peak-memory *ratio* deterministically.
#[global_allocator]
static ALLOC: alloc_meter::CountingAlloc = alloc_meter::CountingAlloc;

/// A planned (job, start) pair — the comparable output of both kernels.
type Plan = Vec<(JobId, SimTime)>;

/// What one iteration decides; both kernels must produce the same value.
#[derive(Debug, PartialEq, Eq)]
struct KernelOut {
    starts: Vec<(JobId, bool)>,
    reservations: Vec<(JobId, SimTime)>,
    grants: Vec<JobId>,
    delay_ms: u64,
}

const GRACE: SimDuration = SimDuration::from_millis(1);

/// Journal section: alternating journal-off / journal-on pairs timed, and
/// the bound on their median overhead. Eight runs on the reference box
/// read 9.0–10.5 %, and 13.3 % once, when the box changed speed inside
/// the run (pair IQR 11 points against the usual 2–4); the same
/// measurement with every compaction imaging the whole job table (the
/// parent of the change that made compactions patch) read 12.3–14.7 %
/// in four.
const JOURNAL_PAIRS: usize = 15;
const JOURNAL_OVERHEAD_BOUND_PCT: f64 = 14.0;

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
    use dynbatch_sched::reference::iterate_naive;
    const BLOCK: usize = 10;
    let depths = [250usize, 1_000, 4_000];
    let mut cfg = SchedulerConfig::paper_eval();
    cfg.dfs = DfsConfig::uniform_target(500, SimDuration::from_hours(1));
    let mut snaps: Vec<Snapshot> = depths.iter().map(|&d| deep_queue_snapshot(d)).collect();
    for snap in &snaps {
        assert!(snap.idle_cores() <= 8, "the machine is all but full");
        let a = Maui::new(cfg.clone()).iterate(snap);
        let b = iterate_naive(&mut Maui::new(cfg.clone()), snap);
        assert_eq!(a.starts, b.starts, "deep queue: starts diverged");
        assert_eq!(
            a.dyn_decisions, b.dyn_decisions,
            "deep queue: dyn decisions diverged"
        );
        assert_eq!(
            a.reservations, b.reservations,
            "deep queue: reservations diverged"
        );
        assert_eq!(
            a.baseline_plan, b.baseline_plan,
            "deep queue: baseline plan diverged"
        );
    }
    let mut mauis: Vec<Maui> = depths.iter().map(|_| Maui::new(cfg.clone())).collect();
    let mut naive = Maui::new(cfg.clone());
    let mut us: Vec<Vec<f64>> = depths.iter().map(|_| Vec::with_capacity(reps)).collect();
    let mut naive_us: Vec<Vec<f64>> = depths.iter().map(|_| Vec::new()).collect();
    // Epoch 0 is the untimed first cycle (full rank, timeline rebuild).
    for epoch in 0..=reps {
        for (k, snap) in snaps.iter_mut().enumerate() {
            snap.deltas = Some(DeltaLog {
                base_epoch: epoch as u64,
                epoch: epoch as u64 + 1,
                deltas: Vec::new(),
            });
            let t0 = Instant::now();
            black_box(mauis[k].iterate(snap));
            let dt = t0.elapsed().as_secs_f64() * 1e6;
            if epoch > 0 {
                us[k].push(dt);
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
        rows.push(Json::obj(vec![
            ("queue_depth", Json::UInt(depth as u64)),
            ("iterate_us_median", Json::Float(median)),
            ("iterate_us_p95", Json::Float(p95)),
            ("reference_us_median", Json::Float(naive_median)),
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

/// `plan_starts` in the pre-change formulation.
fn naive_plan(
    profile: &mut NaiveProfile,
    ranked: &[QueuedJob],
    depth: usize,
    now: SimTime,
) -> Plan {
    let mut plans = Vec::new();
    for job in ranked.iter().take(depth) {
        let Some(start) = profile.earliest_fit(job.cores, job.walltime, now) else {
            continue;
        };
        profile.hold(start, start.saturating_add(job.walltime), job.cores);
        plans.push((job.id, start));
    }
    plans
}

/// `plan_starts` in the optimised formulation (ref-based queue).
fn opt_plan(
    profile: &mut AvailabilityProfile,
    ranked: &[&QueuedJob],
    depth: usize,
    now: SimTime,
) -> Plan {
    let mut plans = Vec::new();
    for job in ranked.iter().take(depth) {
        let Some(start) = profile.earliest_fit(job.cores, job.walltime, now) else {
            continue;
        };
        profile.hold(start, start.saturating_add(job.walltime), job.cores);
        plans.push((job.id, start));
    }
    plans
}

/// One scheduler iteration's hot path exactly as the pre-optimisation code
/// performed it: naive profile ops and — crucially — the "before" plan
/// recomputed from a fresh clone for every dynamic request.
///
/// Ranking is hoisted out of both kernels (`ranked` arrives pre-sorted):
/// the priority comparator is untouched by the overhaul, and including it
/// would only dilute the measurement of what actually changed.
fn naive_kernel(snap: &Snapshot, ranked: &[QueuedJob], cfg: &SchedulerConfig) -> KernelOut {
    let now = snap.now;
    let mut base = NaiveProfile::new(now, snap.total_cores);
    for r in &snap.running {
        base.hold(
            now,
            r.walltime_end.max(now + GRACE),
            r.cores + r.reserved_extra,
        );
    }
    black_box(naive_plan(
        &mut base.clone(),
        ranked,
        cfg.lookahead_depth(),
        now,
    ));

    let mut requests: Vec<DynRequest> = snap.dyn_requests.clone();
    requests.sort_by_key(|r| r.seq);
    let mut grants = Vec::new();
    let mut delay_ms = 0u64;
    let depth = cfg.reservation_delay_depth;
    for req in &requests {
        let trial = base.clone();
        if trial.idle_at(now) < req.extra_cores {
            continue; // rejected: no resources
        }
        let mut expanded = trial.clone();
        expanded.hold_for(now, req.remaining_walltime, req.extra_cores);
        let before = naive_plan(&mut base.clone(), ranked, depth, now);
        let after = naive_plan(&mut expanded.clone(), ranked, depth, now);
        for &(job, start) in &before {
            let d = match after.iter().find(|&&(a, _)| a == job) {
                Some(&(_, s)) => s.duration_since(start),
                None => ranked
                    .iter()
                    .find(|j| j.id == job)
                    .map(|j| j.walltime)
                    .unwrap_or(SimDuration::ZERO),
            };
            let owner = ranked
                .iter()
                .find(|j| j.id == job)
                .expect("planned job is queued");
            black_box(owner.user);
            delay_ms += d.as_millis();
        }
        base = expanded; // highest-priority policy: grant whenever it fits
        grants.push(req.job);
    }

    let mut profile = base;
    let mut starts = Vec::new();
    let mut reservations = Vec::new();
    let mut taken: Vec<JobId> = Vec::new();
    let mut blocked = false;
    for job in ranked {
        if !blocked {
            if profile.min_idle(now, now.saturating_add(job.walltime)) >= job.cores {
                profile.hold_for(now, job.walltime, job.cores);
                starts.push((job.id, false));
                taken.push(job.id);
                continue;
            }
            blocked = true;
        }
        if reservations.len() < cfg.reservation_depth {
            if let Some(start) = profile.earliest_fit(job.cores, job.walltime, now) {
                if start > now {
                    profile.hold(start, start.saturating_add(job.walltime), job.cores);
                    reservations.push((job.id, start));
                    taken.push(job.id);
                }
            }
        }
    }
    for job in ranked {
        if taken.contains(&job.id) {
            continue;
        }
        if profile.min_idle(now, now.saturating_add(job.walltime)) >= job.cores {
            profile.hold_for(now, job.walltime, job.cores);
            starts.push((job.id, true));
            taken.push(job.id);
        }
    }
    KernelOut {
        starts,
        reservations,
        grants,
        delay_ms,
    }
}

/// The same iteration on the optimised machinery: borrowed queue, windowed
/// profile, scratch buffers, cached before-plan, `JobId` index.
fn opt_kernel(snap: &Snapshot, ranked_src: &[QueuedJob], cfg: &SchedulerConfig) -> KernelOut {
    let now = snap.now;
    let ranked: Vec<&QueuedJob> = ranked_src.iter().collect();
    let mut base = AvailabilityProfile::new(now, snap.total_cores);
    for r in &snap.running {
        base.hold(
            now,
            r.walltime_end.max(now + GRACE),
            r.cores + r.reserved_extra,
        );
    }
    let mut scratch = AvailabilityProfile::new(now, snap.total_cores);
    let mut expanded = AvailabilityProfile::new(now, snap.total_cores);
    scratch.assign_from(&base);
    black_box(opt_plan(&mut scratch, &ranked, cfg.lookahead_depth(), now));

    let mut requests: Vec<&DynRequest> = snap.dyn_requests.iter().collect();
    requests.sort_by_key(|r| r.seq);
    let jobs_by_id: HashMap<JobId, &QueuedJob> = ranked.iter().map(|j| (j.id, *j)).collect();
    let mut before_plan: Option<Plan> = None;
    let mut grants = Vec::new();
    let mut delay_ms = 0u64;
    let depth = cfg.reservation_delay_depth;
    for req in requests {
        if base.idle_at(now) < req.extra_cores {
            continue; // rejected: no resources
        }
        expanded.assign_from(&base);
        expanded.hold_for(now, req.remaining_walltime, req.extra_cores);
        if before_plan.is_none() {
            scratch.assign_from(&base);
            before_plan = Some(opt_plan(&mut scratch, &ranked, depth, now));
        }
        let before = before_plan.as_deref().expect("just ensured");
        scratch.assign_from(&expanded);
        let after = opt_plan(&mut scratch, &ranked, depth, now);
        for &(job, start) in before {
            let d = match after.iter().find(|&&(a, _)| a == job) {
                Some(&(_, s)) => s.duration_since(start),
                None => jobs_by_id[&job].walltime,
            };
            black_box(jobs_by_id[&job].user);
            delay_ms += d.as_millis();
        }
        base.assign_from(&expanded);
        before_plan = Some(after);
        grants.push(req.job);
    }

    let mut profile = base;
    let mut starts = Vec::new();
    let mut reservations = Vec::new();
    let mut taken: Vec<JobId> = Vec::new();
    let mut blocked = false;
    for job in &ranked {
        if !blocked {
            if profile.min_idle(now, now.saturating_add(job.walltime)) >= job.cores {
                profile.hold_for(now, job.walltime, job.cores);
                starts.push((job.id, false));
                taken.push(job.id);
                continue;
            }
            blocked = true;
        }
        if reservations.len() < cfg.reservation_depth {
            if let Some(start) = profile.earliest_fit(job.cores, job.walltime, now) {
                if start > now {
                    profile.hold(start, start.saturating_add(job.walltime), job.cores);
                    reservations.push((job.id, start));
                    taken.push(job.id);
                }
            }
        }
    }
    for job in &ranked {
        if taken.contains(&job.id) {
            continue;
        }
        if profile.min_idle(now, now.saturating_add(job.walltime)) >= job.cores {
            profile.hold_for(now, job.walltime, job.cores);
            starts.push((job.id, true));
            taken.push(job.id);
        }
    }
    KernelOut {
        starts,
        reservations,
        grants,
        delay_ms,
    }
}

fn time_ms<T>(reps: u32, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    (best, last.expect("reps >= 1"))
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

/// The per-cell workload of the sweep campaign: a pure function of the
/// cell's configuration and seed (the engine's determinism contract).
fn sweep_workload(cfg: &ExperimentConfig, seed: u64) -> dynbatch_workload::EspStream {
    let mut reg = CredRegistry::new();
    let mut wl_cfg = if cfg.label == "Static" {
        EspConfig::paper_static()
    } else {
        EspConfig::paper_dynamic()
    };
    wl_cfg.seed = seed;
    stream_esp(&wl_cfg, &mut reg)
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
    let out_sweep_path = args
        .iter()
        .position(|a| a == "--out-sweep")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_sweep.json".to_owned());

    let (nodes, jobs, reps) = if quick { (40, 600, 3) } else { (150, 2300, 10) };
    // Deep-lookahead stress configuration for the scaled measurements: at
    // 10× the paper's testbed the site would plan correspondingly deeper,
    // and depth is exactly what the cached what-if planning amortises.
    // Identical on both sides of every comparison.
    let mut cfg = SchedulerConfig::paper_eval();
    cfg.reservation_depth = 20;
    cfg.reservation_delay_depth = 20;

    // 1. Scaled planning kernel: pre-change vs optimised, decisions equal.
    eprintln!("perf_smoke: scaled kernel ({nodes} nodes, {jobs} jobs, {reps} reps)");
    let snap = scaled_snapshot(nodes, jobs, 42);
    let ranked: Vec<QueuedJob> = {
        let mut v: Vec<QueuedJob> = snap.queued.iter().cloned().collect();
        rank_jobs(&mut v, snap.now, &cfg.priority, FairnessView::None);
        v
    };
    let (naive_ms, naive_out) = time_ms(reps, || naive_kernel(&snap, &ranked, &cfg));
    let (opt_ms, opt_out) = time_ms(reps, || opt_kernel(&snap, &ranked, &cfg));
    assert_eq!(
        naive_out, opt_out,
        "kernel decisions diverged — timing is meaningless"
    );
    let kernel_speedup = naive_ms / opt_ms;
    eprintln!("  naive {naive_ms:.2} ms  optimized {opt_ms:.2} ms  speedup {kernel_speedup:.1}x");

    // 2. Full Maui::iterate on the scaled snapshot, cache on vs off.
    let iterate = |cache: bool| {
        let mut m = Maui::new(cfg.clone());
        m.set_plan_cache_enabled(cache);
        m.iterate(&snap)
    };
    let (uncached_ms, out_u) = time_ms(reps, || iterate(false));
    let (cached_ms, out_c) = time_ms(reps, || iterate(true));
    assert_eq!(out_u.starts, out_c.starts);
    assert_eq!(out_u.dyn_decisions, out_c.dyn_decisions);
    assert_eq!(out_u.reservations, out_c.reservations);
    eprintln!(
        "  iterate uncached {uncached_ms:.2} ms  cached {cached_ms:.2} ms  ({:.1}x)",
        uncached_ms / cached_ms
    );

    // 3. Incremental timeline: a multi-tick delta-carrying snapshot
    // sequence through a delta-fed Maui and a rebuild-every-iteration
    // Maui. Correctness first (decisions asserted identical per tick,
    // rebuild-equivalence guard enabled), then timing with the guard off.
    let ticks = if quick { 40 } else { 150 };
    eprintln!("perf_smoke: incremental timeline ({ticks} ticks)");
    let seq_snaps = tick_sequence(nodes, jobs, 43, ticks);
    {
        let mut m_inc = Maui::new(cfg.clone());
        m_inc.set_incremental_check_enabled(true);
        let mut m_reb = Maui::new(cfg.clone());
        m_reb.set_incremental_enabled(false);
        for (i, s) in seq_snaps.iter().enumerate() {
            let a = m_inc.iterate(s);
            let b = m_reb.iterate(s);
            assert_eq!(a.starts, b.starts, "tick {i}: starts diverged");
            assert_eq!(
                a.dyn_decisions, b.dyn_decisions,
                "tick {i}: dynamic decisions diverged"
            );
            assert_eq!(
                a.reservations, b.reservations,
                "tick {i}: reservations diverged"
            );
            assert_eq!(a.grows, b.grows, "tick {i}: grows diverged");
        }
        let st = m_inc.timeline_stats();
        assert_eq!(st.rebuilds, 1, "only the first tick may rebuild");
        assert_eq!(st.delta_batches as usize, ticks - 1);
    }
    // Maintenance alone: applying each tick's deltas (plus re-anchoring)
    // vs rebuilding the base profile from the running set — the edit this
    // section exists to measure.
    let (reb_profile_ms, _) = time_ms(reps, || {
        let mut buf = AvailabilityProfile::new(SimTime::ZERO, 0);
        for s in &seq_snaps {
            rebuild_into(&mut buf, s.now, s.total_cores, &s.running);
            black_box(buf.steps().len());
        }
    });
    let (inc_profile_ms, _) = time_ms(reps, || {
        let mut tl = IncrementalTimeline::new();
        for s in &seq_snaps {
            tl.advance(s);
            black_box(tl.profile().steps().len());
        }
    });
    let maintenance_speedup = reb_profile_ms / inc_profile_ms;
    // End to end: the full iterate sequence both ways. Planning dominates
    // each iteration, so the headline here is the maintenance speedup;
    // this pins "incremental is never slower overall".
    let run_seq = |incremental: bool| {
        let mut m = Maui::new(cfg.clone());
        m.set_incremental_enabled(incremental);
        let mut n = 0usize;
        for s in &seq_snaps {
            n += black_box(m.iterate(s)).starts.len();
        }
        n
    };
    let it_reps = reps.min(3);
    let (it_reb_ms, _) = time_ms(it_reps, || run_seq(false));
    let (it_inc_ms, _) = time_ms(it_reps, || run_seq(true));
    eprintln!(
        "  profile rebuild {reb_profile_ms:.2} ms  incremental {inc_profile_ms:.2} ms  \
         ({maintenance_speedup:.1}x); iterate {it_reb_ms:.2} -> {it_inc_ms:.2} ms"
    );

    // 3a. Deep queue: steady-state cycle cost at queue depth 250 / 1 000 /
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
        let (base, (jobs, _)) = time_ms(1, || journal_run(false));
        base_jobs = jobs;
        let (journaled, (jobs, records)) = time_ms(1, || journal_run(true));
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
    // The replication section below compares best-of runs.
    let journal_ms = journal_all[0];
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

    // 5b. Replication: the same Dyn-HP ESP run (same journal config) with
    // the journal streamed to two hot followers. Before any number is
    // trusted, the replicated leader's end digest is asserted
    // byte-identical to the journal-only run — streaming is observation,
    // not policy — and every follower must converge to that digest
    // (checked outside the timed region: convergence is a correctness
    // barrier, not hot-path work). The hot-path bound: the leader's run
    // with journal + streaming stays within 15 % of journal-only (same
    // jitter floor as the journal gate). Followers apply every record on
    // their own threads, so the 15 % bound is only physical when the box
    // has cores for them to run on — with `cores > followers` it is
    // enforced as-is; on smaller boxes the follower apply work has
    // nowhere to overlap and serialises into the leader's wall clock, so
    // the gate degrades to the serialized-ensemble bound (leader + every
    // follower's apply, each within 25 %: a follower's apply costs a
    // journal-*off* run plus decode, so when compactions stopped imaging
    // the whole table the unit of this budget shrank and the followers'
    // share did not — on the two-core reference box the replicated run
    // reads 2.6–3.6× journal-only before that change and 3.3–3.9× after,
    // at 9.6–13 ms or 18.6–20.5 ms by the box's speed, on either tree).
    // Perf posture mirrors
    // a group-commit deployment: the stream pumps every 16 event steps,
    // watermark polls batch every 64 pumps, and rolling-digest frames are
    // off (each serialises the full image); `converge()` still
    // byte-compares every follower against the leader at the end. Also
    // measured: worst append→apply lag, sustained follower-read
    // throughput from racing client threads, and the wall-clock cost of
    // a failover through to the promoted leader's first scheduling
    // decision.
    eprintln!("perf_smoke: replication (Dyn-HP ESP, journal-only vs journal+2 followers)");
    let repl_followers = 2u32;
    let journal_digest = {
        let mut sim = BatchSim::new(Cluster::homogeneous(15, 8), table2_sched(None));
        sim.enable_journal(64);
        sim.load(&journal_wl);
        sim.run();
        sim.server().state_digest()
    };
    let mut repl_ms = f64::INFINITY;
    let mut repl_kept = None;
    for _ in 0..reps {
        let mut sim = BatchSim::new(Cluster::homogeneous(15, 8), table2_sched(None));
        sim.enable_journal(64);
        sim.load(&journal_wl);
        let mut rs = dynbatch_sim::ReplicatedSim::new(
            sim,
            repl_followers,
            dynbatch_server::replication::HubConfig {
                digest_every: 0,
                ack_every: 64,
                ..Default::default()
            },
        );
        rs.set_pump_stride(16);
        let t_run = Instant::now();
        rs.run();
        repl_ms = repl_ms.min(t_run.elapsed().as_secs_f64() * 1e3);
        rs.converge()
            .expect("followers converge to the leader digest");
        if let Some(prev) = repl_kept.replace(rs) {
            dynbatch_sim::ReplicatedSim::shutdown(prev);
        }
    }
    let mut repl_rs = repl_kept.expect("at least one rep ran");
    let repl_stats = repl_rs.stats();
    assert_eq!(
        repl_rs.sim().server().state_digest(),
        journal_digest,
        "streaming must not perturb the leader (replication-off byte-identity)"
    );
    let repl_overhead_pct = (repl_ms - journal_ms) / journal_ms * 100.0;
    let cores = worker_count(0);
    let repl_parallel = cores > repl_followers as usize;
    let repl_gate = if repl_parallel {
        "parallel"
    } else {
        "serialized"
    };
    let repl_budget_ms = if repl_parallel {
        journal_ms * 1.15 + 2.0
    } else {
        journal_ms * (1.0 + repl_followers as f64) * 1.25 + 2.0
    };
    eprintln!(
        "  journal-only {journal_ms:.2} ms  replicated {repl_ms:.2} ms \
         ({repl_overhead_pct:+.1}%, max lag {} records, {repl_gate} gate \
         on {cores} cores: budget {repl_budget_ms:.2} ms)",
        repl_stats.max_lag
    );
    assert!(
        repl_ms <= repl_budget_ms,
        "journal+streaming overhead regressed past the {repl_gate} bound: \
         {repl_ms:.2} ms vs budget {repl_budget_ms:.2} ms \
         (journal-only {journal_ms:.2} ms)"
    );

    // Follower-read throughput: client threads hammer the replicas
    // directly (the daemon's qstat offload path) while the leader idles.
    let read_threads = 4usize;
    let reads_per_thread: usize = if quick { 2_000 } else { 20_000 };
    let repl_jobs = repl_rs.sim().server().accounting().outcomes().len() as u64;
    let readers: Vec<_> = (0..read_threads)
        .map(|i| {
            repl_rs
                .hub()
                .reader(i % repl_followers as usize)
                .expect("live follower")
        })
        .collect();
    let t0 = Instant::now();
    thread::scope(|scope| {
        for (i, reader) in readers.into_iter().enumerate() {
            scope.spawn(move || {
                for k in 0..reads_per_thread {
                    let id = JobId(
                        1 + (k as u64)
                            .wrapping_mul(2_654_435_761)
                            .wrapping_add(i as u64)
                            % repl_jobs.max(1),
                    );
                    let read = reader.read(id).expect("follower answers reads");
                    assert!(read.watermark > 0, "replica reads echo their watermark");
                }
            });
        }
    });
    let follower_reads_per_sec =
        (read_threads * reads_per_thread) as f64 / t0.elapsed().as_secs_f64();
    eprintln!(
        "  follower reads {follower_reads_per_sec:>9.0}/s ({read_threads} threads x {reads_per_thread})"
    );

    // Failover-to-first-decision: kill the (converged) leader, promote,
    // re-journal, and run one scheduling cycle on the promoted state.
    let repl_appended = repl_stats.leader_appended;
    let repl_now = repl_rs.sim().now();
    let t0 = Instant::now();
    let (mut promoted, failover_report) = repl_rs
        .hub()
        .fail_over(repl_appended, repl_appended)
        .expect("a converged follower promotes");
    promoted.enable_journal(64);
    let mut promoted_maui = Maui::new(table2_sched(None));
    let outcome = promoted_maui.iterate(&promoted.snapshot(repl_now));
    promoted.apply(&outcome, repl_now);
    let failover_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        failover_report.lost_records, 0,
        "a converged ensemble loses nothing at failover"
    );
    eprintln!(
        "  failover-to-first-decision {failover_ms:.2} ms (promoted {})",
        failover_report.promoted
    );
    repl_rs.shutdown();

    // 7. Command reactor: sustained submissions/sec through the reactor
    // front-end with group-commit acks (replies flushed once per
    // admission batch, after every record of the batch is journaled).
    let reactor_clients = 8usize;
    let reactor_subs: usize = if quick { 2_000 } else { 20_000 };
    eprintln!(
        "perf_smoke: command reactor ({reactor_clients} clients, {reactor_subs} submissions)"
    );
    let (gc_secs, gc_batches) = {
        let mut reactor = Reactor::new();
        // Clients pipeline their whole share before reading replies;
        // size the reply channels so the slow-reader path never engages.
        reactor.set_reply_capacity(reactor_subs / reactor_clients + 2);
        let clients: Vec<_> = (0..reactor_clients).map(|_| reactor.connect()).collect();
        let mut server = PbsServer::new(Cluster::homogeneous(150, 8), AllocPolicy::Pack);
        server.enable_journal(4096);
        let lines: Vec<String> = (0..reactor_subs)
            .map(|i| {
                format!(
                    "qsub name=s{i} user={} group=0 cores=1 wall_ms=60000",
                    i % 32
                )
            })
            .collect();
        let t0 = Instant::now();
        thread::scope(|scope| {
            for (c, client) in clients.into_iter().enumerate() {
                let lines = &lines;
                scope.spawn(move || {
                    let mine: Vec<&String> =
                        lines.iter().skip(c).step_by(reactor_clients).collect();
                    for l in &mine {
                        client.send(l);
                    }
                    for _ in &mine {
                        client.recv().expect("reactor dropped before acking");
                    }
                });
            }
            let mut applied = 0usize;
            while applied < reactor_subs {
                let n =
                    reactor.poll_with(|_, cmd| apply_to_server(&mut server, cmd, SimTime::ZERO));
                applied += n;
                if n == 0 {
                    thread::yield_now();
                }
            }
        });
        let secs = t0.elapsed().as_secs_f64();
        let stats = reactor.stats();
        assert_eq!(stats.applied as usize, reactor_subs);
        assert_eq!(stats.denied_parse, 0, "generated qsub lines must all parse");
        assert!(
            server.journal().map_or(0, |j| j.total_appended()) >= reactor_subs as u64,
            "every acked submission must have a journal record"
        );
        (secs, stats.batches)
    };
    let gc_rate = reactor_subs as f64 / gc_secs;
    eprintln!("  group-commit {gc_rate:>9.0} subs/s ({gc_batches} batches)");

    // 9. Streaming ingestion: a month-scale synthetic SWF trace replayed
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
    // Both replays run the same cycles over the same live jobs; only the
    // number of pending Submit events differs (a 6 h window vs the whole
    // trace), and that may cost a deeper heap, not a scan.
    let ingest_wall_ratio = mat_secs / stream_secs;
    eprintln!(
        "  streamed {:>7.1} MiB peak {stream_secs:.2} s  materialized {:>7.1} MiB peak \
         {mat_secs:.2} s  ({ingest_ratio:.1}x less memory, {ingest_wall_ratio:.2}x the wall \
         time, {} jobs completed)",
        stream_peak as f64 / (1u64 << 20) as f64,
        mat_peak as f64 / (1u64 << 20) as f64,
        stream_result.summary.jobs_completed
    );
    if !quick {
        assert!(
            ingest_ratio >= 10.0,
            "streaming ingestion peak-memory advantage regressed below 10x: {ingest_ratio:.2}x"
        );
        assert!(
            ingest_wall_ratio <= 1.3,
            "materialized replay took {ingest_wall_ratio:.2}x the streamed wall time \
             ({mat_secs:.2} s vs {stream_secs:.2} s): a per-cycle cost grows with preloaded events"
        );
    }

    // 8. Fairness ensemble: the same skewed synthetic campaign under the
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
    let fair_cells = run_sweep(&fair_cfgs, &fair_seeds, 0, fairness_workload);
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
    ]);

    let report = Json::obj(vec![
        ("version", Json::UInt(1)),
        ("quick", Json::Bool(quick)),
        (
            "scaled_kernel",
            Json::obj(vec![
                ("nodes", Json::UInt(nodes as u64)),
                ("cores", Json::UInt(nodes as u64 * 8)),
                ("jobs", Json::UInt(jobs as u64)),
                ("reps", Json::UInt(reps as u64)),
                ("naive_ms", Json::Float(naive_ms)),
                ("optimized_ms", Json::Float(opt_ms)),
                ("speedup", Json::Float(kernel_speedup)),
                ("identical_decisions", Json::Bool(true)),
            ]),
        ),
        (
            "scaled_iteration",
            Json::obj(vec![
                ("uncached_ms", Json::Float(uncached_ms)),
                ("cached_ms", Json::Float(cached_ms)),
                ("speedup", Json::Float(uncached_ms / cached_ms)),
                ("identical_decisions", Json::Bool(true)),
            ]),
        ),
        (
            "incremental_timeline",
            Json::obj(vec![
                ("ticks", Json::UInt(ticks as u64)),
                ("profile_rebuild_ms", Json::Float(reb_profile_ms)),
                ("profile_incremental_ms", Json::Float(inc_profile_ms)),
                ("maintenance_speedup", Json::Float(maintenance_speedup)),
                ("iterate_rebuild_ms", Json::Float(it_reb_ms)),
                ("iterate_incremental_ms", Json::Float(it_inc_ms)),
                ("iterate_speedup", Json::Float(it_reb_ms / it_inc_ms)),
                ("identical_decisions", Json::Bool(true)),
            ]),
        ),
        ("deep_queue", deep_queue_json),
        ("esp_table2", Json::Arr(esp)),
        (
            "reactor",
            Json::obj(vec![
                ("clients", Json::UInt(reactor_clients as u64)),
                ("submissions", Json::UInt(reactor_subs as u64)),
                (
                    "group_commit",
                    Json::obj(vec![
                        ("wall_secs", Json::Float(gc_secs)),
                        ("subs_per_sec", Json::Float(gc_rate)),
                        ("batches", Json::UInt(gc_batches)),
                    ]),
                ),
            ]),
        ),
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
            "replication",
            Json::obj(vec![
                ("followers", Json::UInt(u64::from(repl_followers))),
                ("journal_only_ms", Json::Float(journal_ms)),
                ("replicated_ms", Json::Float(repl_ms)),
                ("overhead_pct", Json::Float(repl_overhead_pct)),
                ("gate", Json::Str(repl_gate.to_owned())),
                ("gate_budget_ms", Json::Float(repl_budget_ms)),
                (
                    "max_append_apply_lag_records",
                    Json::UInt(repl_stats.max_lag),
                ),
                ("leader_records", Json::UInt(repl_stats.leader_appended)),
                (
                    "follower_reads_per_sec",
                    Json::Float(follower_reads_per_sec),
                ),
                ("failover_to_first_decision_ms", Json::Float(failover_ms)),
                // Set only after the digest asserts above — false is
                // unrepresentable in an emitted report.
                ("leader_digest_identical", Json::Bool(true)),
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
                (
                    "materialized_over_streamed_wall",
                    Json::Float(ingest_wall_ratio),
                ),
                // Set only after the fingerprint/summary/stats asserts
                // above — false is unrepresentable in an emitted report.
                ("identical_results", Json::Bool(true)),
            ]),
        ),
        ("fairness", fairness_json),
    ]);
    std::fs::write(&out_path, report.to_string_pretty()).expect("write report");
    eprintln!("perf_smoke: wrote {out_path}");

    // 6. Sweep engine: the same (config × seed) ESP campaign serially and
    // in parallel at two worker counts, per-seed summaries asserted equal.
    let (sweep_seed_count, sweep_configs) = if quick { (8, 2) } else { (256, 4) };
    let seeds: Vec<u64> = (0..sweep_seed_count).map(|i| 2014 + i as u64).collect();
    let sweep_cfgs: Vec<ExperimentConfig> = all_configs[..sweep_configs]
        .iter()
        .map(|&(label, cap, _)| ExperimentConfig {
            label: label.to_owned(),
            nodes: 15,
            cores_per_node: 8,
            sched: table2_sched(cap),
        })
        .collect();
    let total_runs = sweep_cfgs.len() * seeds.len();
    eprintln!(
        "perf_smoke: sweep engine ({} configs x {} seeds = {total_runs} runs)",
        sweep_cfgs.len(),
        seeds.len()
    );

    // Serial baseline: a fresh simulator per run, in task-id order —
    // exactly what the engine must reproduce bit for bit.
    let t0 = Instant::now();
    let mut serial: Vec<RunSummary> = Vec::with_capacity(total_runs);
    for cfg in &sweep_cfgs {
        for &seed in &seeds {
            let wl: Vec<WorkloadItem> = sweep_workload(cfg, seed).collect();
            serial.push(run_experiment(cfg, &wl).summary);
        }
    }
    let serial_secs = t0.elapsed().as_secs_f64();

    // The two worker counts: `--workers N` pins the first and is recorded
    // as the requested value; absent, both derive from the host's core
    // count and the request is recorded as null. The per-seed summaries
    // are asserted identical to serial either way, so only the clearly
    // labeled effective/timing fields may vary across hosts.
    let workers_requested: Option<usize> = args
        .iter()
        .position(|a| a == "--workers")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1);
    let w_a = workers_requested.unwrap_or_else(|| worker_count(0)).max(2);
    let w_b = if w_a > 2 { w_a / 2 } else { w_a + 1 };
    let mut parallel_rows = Vec::new();
    let mut best_speedup = 0.0f64;
    for workers in [w_a, w_b] {
        let t0 = Instant::now();
        let cells = run_sweep(&sweep_cfgs, &seeds, workers, sweep_workload);
        let par_secs = t0.elapsed().as_secs_f64();
        assert_eq!(cells.len(), total_runs);
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(
                cell.result.summary, serial[i],
                "sweep[{workers} workers] task {i} ({} seed {}) diverged from serial",
                sweep_cfgs[cell.config].label, cell.seed
            );
        }
        let speedup = serial_secs / par_secs;
        best_speedup = best_speedup.max(speedup);
        eprintln!(
            "  {workers:>2} workers  {par_secs:>6.2} s  ({:.0} runs/s, {speedup:.2}x vs serial)",
            total_runs as f64 / par_secs
        );
        parallel_rows.push(Json::obj(vec![
            ("workers_effective", Json::UInt(workers as u64)),
            ("wall_secs", Json::Float(par_secs)),
            ("runs_per_sec", Json::Float(total_runs as f64 / par_secs)),
            ("speedup_vs_serial", Json::Float(speedup)),
            ("summaries_match_serial", Json::Bool(true)),
        ]));
    }

    // Per-config ensemble statistics over the (identical) summaries.
    let ensembles: Vec<Json> = sweep_cfgs
        .iter()
        .enumerate()
        .map(|(ci, cfg)| {
            let runs = &serial[ci * seeds.len()..(ci + 1) * seeds.len()];
            let e = summarize_ensemble(&cfg.label, runs);
            Json::obj(vec![
                ("config", Json::Str(e.label.clone())),
                ("runs", Json::UInt(e.runs as u64)),
                ("makespan_mins", aggregate_json(&e.makespan_mins)),
                ("utilization", aggregate_json(&e.utilization)),
                ("mean_wait_secs", aggregate_json(&e.mean_wait_secs)),
                (
                    "throughput_jobs_per_min",
                    aggregate_json(&e.throughput_jobs_per_min),
                ),
                ("satisfied_dyn_jobs", aggregate_json(&e.satisfied_dyn_jobs)),
            ])
        })
        .collect();

    let sweep_report = Json::obj(vec![
        ("version", Json::UInt(1)),
        ("quick", Json::Bool(quick)),
        ("configs", Json::UInt(sweep_cfgs.len() as u64)),
        ("seeds", Json::UInt(seeds.len() as u64)),
        ("total_runs", Json::UInt(total_runs as u64)),
        (
            "workers_requested",
            workers_requested.map_or(Json::Null, |n| Json::UInt(n as u64)),
        ),
        ("available_parallelism", Json::UInt(worker_count(0) as u64)),
        (
            "serial",
            Json::obj(vec![
                ("wall_secs", Json::Float(serial_secs)),
                ("runs_per_sec", Json::Float(total_runs as f64 / serial_secs)),
            ]),
        ),
        ("parallel", Json::Arr(parallel_rows)),
        ("best_speedup", Json::Float(best_speedup)),
        ("per_config_ensemble", Json::Arr(ensembles)),
    ]);
    std::fs::write(&out_sweep_path, sweep_report.to_string_pretty()).expect("write sweep report");
    eprintln!("perf_smoke: wrote {out_sweep_path}");

    if !quick {
        assert!(
            kernel_speedup >= 5.0,
            "scaled kernel speedup regressed below 5x: {kernel_speedup:.2}x"
        );
        assert!(
            maintenance_speedup >= 2.0,
            "incremental profile maintenance regressed below 2x: {maintenance_speedup:.2}x"
        );
        assert!(
            deep_queue_over_reference <= 0.25,
            "a cycle at queue depth 4000 costs {deep_queue_over_reference:.2}x the \
             visit-every-job reference (bound 0.25)"
        );
        // The parallel-efficiency bar only applies where there are cores
        // to scale onto; the determinism asserts above always run.
        if worker_count(0) >= 4 {
            assert!(
                best_speedup >= 3.0,
                "sweep engine speedup regressed below 3x on a {}-core host: {best_speedup:.2}x",
                worker_count(0)
            );
        }
    }
    println!("kernel_speedup_x {kernel_speedup:.2}");
    println!("sweep_speedup_x {best_speedup:.2}");
}
