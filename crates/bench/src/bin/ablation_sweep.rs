//! Ablation studies over the design knobs the paper discusses:
//!
//! * `ReservationDelayDepth` — how many planned jobs each dynamic request
//!   is delay-checked against (paper Fig 5: "a proper choice for a site
//!   depends on its workload characteristics");
//! * `DFSDecay` — how much charged delay carries across intervals
//!   (paper §III-D's worked example);
//! * walltime padding — the paper's §III-D observation that measured
//!   delays over-estimate actual delays when users over-request;
//! * the evolving-job fraction — the paper fixes 30 %; sweep it;
//! * a malleable admixture — the future-work extension quantified.
//!
//! Each row is a full dynamic-ESP (or modified) run, averaged over seeds.
//! The per-seed runs of a row are sharded over all cores by the
//! deterministic sweep engine (`sim::sweep`) — row values are identical
//! to the serial loop at any worker count. `--workers` (sweep-engine
//! pool width) defaults to `std::thread::available_parallelism()`. The
//! JSON echo before the tables records the *requested* value (null when
//! defaulted) separately from the *effective* one, so campaign logs from
//! different hosts stay comparable: everything below the echo line is
//! host-independent, and a startup pin re-runs the baseline row
//! single-threaded to assert the per-seed summaries are byte-identical to
//! the host-derived setting — the knob is pure parallelism, enforced, not
//! assumed.
//!
//! ```text
//! cargo run --release -p dynbatch-bench --bin ablation_sweep \
//!     [-- --seeds N] [--workers W]
//! ```

use dynbatch_bench::alloc_meter;
use dynbatch_core::json::Json;
use dynbatch_core::{
    CredRegistry, DfsConfig, FairshareMode, JobClass, JobSpec, SchedulerConfig, SimDuration,
};
use dynbatch_sim::{run_sweep, ExperimentConfig, ExperimentResult};
use dynbatch_workload::{generate_esp, EspConfig};

#[global_allocator]
static ALLOC: alloc_meter::CountingAlloc = alloc_meter::CountingAlloc;

fn seeds_from_args() -> Vec<u64> {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--seeds") {
        Some(i) => {
            let n: u64 = args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or(3);
            (1..=n).collect()
        }
        None => vec![1, 2, 3],
    }
}

fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn flag_value(flag: &str) -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
}

/// Sweep-engine pool width as requested on the command line — `None`
/// when `--workers` was absent and the host default applies.
fn workers_requested() -> Option<usize> {
    flag_value("--workers")
}

/// The pool width actually used: the request, or one worker per
/// available core.
fn workers_effective() -> usize {
    workers_requested().unwrap_or_else(available_cores)
}

/// The `--fairness {static,time-aware}` axis: the fairshare mode every
/// table runs under. Static (the default) is the classic windowed
/// tracker; time-aware switches the whole campaign onto the decayed
/// resource-hour accounts (6 h half-life, uniform 0.1 target).
fn fairness_mode() -> FairshareMode {
    let args: Vec<String> = std::env::args().collect();
    let v = args
        .iter()
        .position(|a| a == "--fairness")
        .and_then(|i| args.get(i + 1));
    match v.map(|s| s.as_str()) {
        None | Some("static") => FairshareMode::Static,
        Some("time-aware") => FairshareMode::TimeAware,
        Some(other) => panic!("--fairness must be 'static' or 'time-aware', got '{other}'"),
    }
}

fn apply_fairness(sched: &mut SchedulerConfig, mode: FairshareMode) {
    if mode == FairshareMode::TimeAware {
        sched.fairshare.enabled = true;
        sched.fairshare.mode = mode;
        sched.fairshare.half_life = SimDuration::from_hours(6);
        sched.fairshare.default_target = 0.1;
    }
}

struct Avg {
    makespan_min: f64,
    util_pct: f64,
    satisfied: f64,
    fairness_rejects: f64,
    delay_charged_s: f64,
    resizes: f64,
}

fn average(results: &[ExperimentResult]) -> Avg {
    let n = results.len() as f64;
    Avg {
        makespan_min: results
            .iter()
            .map(|r| r.summary.makespan.as_mins_f64())
            .sum::<f64>()
            / n,
        util_pct: results
            .iter()
            .map(|r| r.summary.utilization * 100.0)
            .sum::<f64>()
            / n,
        satisfied: results
            .iter()
            .map(|r| r.summary.satisfied_dyn_jobs as f64)
            .sum::<f64>()
            / n,
        fairness_rejects: results
            .iter()
            .map(|r| r.stats.dyn_rejected_fairness as f64)
            .sum::<f64>()
            / n,
        delay_charged_s: results
            .iter()
            .map(|r| r.stats.delay_charged_ms as f64 / 1000.0)
            .sum::<f64>()
            / n,
        resizes: results
            .iter()
            .map(|r| r.stats.malleable_resizes as f64)
            .sum::<f64>()
            / n,
    }
}

fn header(title: &str) {
    println!("\n=== {title} ===");
    println!(
        "{:<22} {:>10} {:>9} {:>10} {:>10} {:>12} {:>9}",
        "setting", "time[min]", "util[%]", "satisfied", "fair-rej", "delay[s]", "resizes"
    );
}

fn row(label: &str, a: &Avg) {
    println!(
        "{:<22} {:>10.2} {:>9.2} {:>10.1} {:>10.1} {:>12.0} {:>9.1}",
        label,
        a.makespan_min,
        a.util_pct,
        a.satisfied,
        a.fairness_rejects,
        a.delay_charged_s,
        a.resizes
    );
}

fn run_many(
    seeds: &[u64],
    wl_mut: impl Fn(&mut EspConfig) + Sync,
    sched_mut: impl Fn(&mut SchedulerConfig),
    post: impl Fn(&mut Vec<dynbatch_workload::WorkloadItem>, &mut CredRegistry) + Sync,
) -> Avg {
    let mut sched = SchedulerConfig::paper_eval();
    sched.dfs = DfsConfig::uniform_target(200, SimDuration::from_hours(1));
    apply_fairness(&mut sched, fairness_mode());
    sched_mut(&mut sched);
    let configs = [ExperimentConfig::paper_cluster("ablation", sched)];
    // One row = one configuration × all seeds, sharded across the worker
    // pool; each cell regenerates its workload from its own seed.
    let results: Vec<ExperimentResult> =
        run_sweep(&configs, seeds, workers_effective(), |_, seed| {
            let mut reg = CredRegistry::new();
            let mut wl_cfg = EspConfig::paper_dynamic();
            wl_cfg.seed = seed;
            wl_mut(&mut wl_cfg);
            let mut wl = generate_esp(&wl_cfg, &mut reg);
            post(&mut wl, &mut reg);
            wl.into_iter()
        })
        .into_iter()
        .map(|cell| cell.result)
        .collect();
    average(&results)
}

/// Host-independence pin: the baseline row re-run single-threaded must
/// produce per-seed summaries byte-identical to the effective (possibly
/// host-derived) worker count. A host with a different
/// core count changes only the echo line, never a table value.
fn determinism_pin(seeds: &[u64]) {
    let run = |workers: usize| {
        let mut sched = SchedulerConfig::paper_eval();
        sched.dfs = DfsConfig::uniform_target(200, SimDuration::from_hours(1));
        apply_fairness(&mut sched, fairness_mode());
        let configs = [ExperimentConfig::paper_cluster("pin", sched)];
        run_sweep(&configs, seeds, workers, |_, seed| {
            let mut reg = CredRegistry::new();
            let mut wl_cfg = EspConfig::paper_dynamic();
            wl_cfg.seed = seed;
            generate_esp(&wl_cfg, &mut reg).into_iter()
        })
        .into_iter()
        .map(|cell| cell.result.summary)
        .collect::<Vec<_>>()
    };
    let reference = run(1);
    let host = run(workers_effective());
    assert_eq!(
        reference, host,
        "ablation rows depend on host parallelism — workers must be pure mechanism"
    );
}

fn main() {
    let seeds = seeds_from_args();
    // The pin runs first so the header can also echo memory: its second
    // leg replays the baseline row at the host's effective settings, so
    // the allocator high-water mark over it is the real working set of a
    // full sweep round, and peak/workers approximates the per-worker
    // (simulator + in-flight streamed workload) footprint.
    let alloc_base = alloc_meter::reset_peak();
    determinism_pin(&seeds);
    let pin_peak = alloc_meter::peak_bytes().saturating_sub(alloc_base);
    // Echo the parallelism settings as JSON so a campaign log records
    // what was asked for (null = defaulted) and what actually ran; only
    // this line may vary across hosts.
    println!(
        "{}",
        Json::to_string_compact(&Json::obj(vec![
            ("seeds", Json::UInt(seeds.len() as u64)),
            (
                "workers_requested",
                workers_requested().map_or(Json::Null, |n| Json::UInt(n as u64))
            ),
            ("workers_effective", Json::UInt(workers_effective() as u64)),
            (
                "available_parallelism",
                Json::UInt(available_cores() as u64)
            ),
            (
                "fairness_mode",
                Json::Str(
                    match fairness_mode() {
                        FairshareMode::Static => "static",
                        FairshareMode::TimeAware => "time-aware",
                    }
                    .into()
                )
            ),
            ("pin_peak_alloc_bytes", Json::UInt(pin_peak as u64)),
            (
                "peak_alloc_per_worker_bytes",
                Json::UInt((pin_peak / workers_effective().max(1)) as u64)
            ),
        ]))
    );
    println!("(parallelism pin: baseline row identical at workers=1 and host settings)");
    println!(
        "Ablations on the dynamic ESP workload (DFS target 200 s/h unless varied; {} seeds)",
        seeds.len()
    );

    header("ReservationDelayDepth (delay-measurement window)");
    for depth in [0usize, 1, 5, 20, 60] {
        let a = run_many(
            &seeds,
            |_| {},
            |s| s.reservation_delay_depth = depth,
            |_, _| {},
        );
        row(&format!("depth = {depth}"), &a);
    }
    println!("(depth 0 measures no delays at all — fairness cannot see harm, grants rise)");

    header("DFSDecay (delay memory across 1 h intervals)");
    for decay in [0.0f64, 0.2, 0.5, 0.9, 1.0] {
        let a = run_many(&seeds, |_| {}, |s| s.dfs.decay = decay, |_, _| {});
        row(&format!("decay = {decay}"), &a);
    }
    println!("(decay 1.0 never forgets: the cumulative cap eventually locks grants out)");

    header("Walltime padding (user over-request factor)");
    for wf in [1.0f64, 1.25, 1.5, 2.0] {
        let a = run_many(&seeds, |w| w.walltime_factor = wf, |_| {}, |_, _| {});
        row(&format!("walltime × {wf}"), &a);
    }
    println!(
        "(padding inflates measured delays — §III-D's over-estimation — and throttles backfill)"
    );

    header("Evolving-job share (paper fixes 30 %)");
    for evolving in [false, true] {
        let a = run_many(&seeds, |w| w.evolving = evolving, |_| {}, |_, _| {});
        row(
            if evolving {
                "30 % evolving"
            } else {
                "0 % (static)"
            },
            &a,
        );
    }

    header("Dynamic partition size (§II-B's second source)");
    for part in [0u32, 4, 8, 16] {
        let a = run_many(
            &seeds,
            |_| {},
            |s| s.dyn_partition_cores = part,
            move |wl, _| {
                // A site running a permanent dynamic partition cannot admit
                // full-machine jobs; cap the Z jobs at what static work may
                // use (they keep their highest-priority drain semantics).
                for item in wl.iter_mut().filter(|i| i.spec.name == "Z") {
                    item.spec.cores = 120 - part;
                }
            },
        );
        row(&format!("partition = {part}"), &a);
    }
    println!("(partition grants are delay-free, but the slice is lost to static work — the");
    println!(" paper's §II-B trade-off: availability for evolving jobs vs system capacity)");

    header("Fairness mode (decayed resource-hour axis)");
    for (label, mode, half_hours) in [
        ("static windowed", FairshareMode::Static, 0u64),
        ("time-aware 1 h", FairshareMode::TimeAware, 1),
        ("time-aware 6 h", FairshareMode::TimeAware, 6),
        ("time-aware 24 h", FairshareMode::TimeAware, 24),
    ] {
        let a = run_many(
            &seeds,
            |_| {},
            |s| {
                s.fairshare.enabled = true;
                s.fairshare.mode = mode;
                if mode == FairshareMode::TimeAware {
                    s.fairshare.half_life = SimDuration::from_hours(half_hours);
                    s.fairshare.default_target = 0.1;
                }
            },
            |_, _| {},
        );
        row(label, &a);
    }
    println!("(shorter half-lives forgive past heavy use faster; the static window forgets");
    println!(" in whole-window steps — the time-aware axis trades memory for reactivity)");

    header("Malleable admixture (future-work extension)");
    for (label, enable) in [("no malleability", false), ("shrink+grow", true)] {
        let a = run_many(
            &seeds,
            |_| {},
            |s| {
                s.shrink_malleable_for_dyn = enable;
                s.grow_malleable_on_idle = enable;
            },
            |wl, reg| {
                // Convert the 15 type-M jobs into malleable work pools of
                // the same total work (30 cores × 187 s each).
                let user = reg.user_in_group("user09", "espusers");
                let group = reg.group_of(user);
                for item in wl.iter_mut().filter(|i| i.spec.name == "M") {
                    item.spec = JobSpec::malleable("M", user, group, 30, 15, 60, 30 * 187);
                }
            },
        );
        row(label, &a);
    }
    println!("(malleable M jobs stretch and shrink around the rigid/evolving mix)");

    // Silence the unused-import lint for JobClass used only in docs above.
    let _ = JobClass::Malleable;
}
