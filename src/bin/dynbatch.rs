//! `dynbatch` — command-line front end to the batch-system simulator.
//!
//! * `dynbatch esp` — run the (dynamic or static) ESP benchmark and print
//!   a Table-II row.
//! * `dynbatch run` — run a workload trace (JSON or SWF) and print the
//!   summary; optionally dump the per-job waiting-time series and/or the
//!   Gantt schedule as CSV.
//! * `dynbatch gen-esp` — write the ESP workload as a replayable JSON
//!   trace.
//!
//! [`USAGE`] lists each subcommand's flags. A subcommand accepts only the
//! flags it reads: an unknown flag, a valued flag without its value or an
//! unparseable value prints the usage text and exits with code 2.

use dynbatch::core::{CredRegistry, DfsConfig, SchedulerConfig, SimDuration};
use dynbatch::metrics::{gantt_csv, render_csv, render_table2, waits_by_submission};
use dynbatch::sim::{run_experiment, ExperimentConfig};
use dynbatch::workload::{generate_esp, parse_swf, EspConfig, SwfConfig, Trace, WorkloadItem};
use std::process::ExitCode;

/// The flag synopsis printed with every command-line error.
const USAGE: &str = "\
usage: dynbatch <esp|run|gen-esp> [flags]

  dynbatch esp [--static] [--seed N] [--seeds K] [--walltime-factor F]
               [scheduler flags]
  dynbatch run --trace FILE.json | --swf FILE.swf
               [--evolving-fraction F] [--max-jobs N]
               [--csv-waits FILE] [--csv-gantt FILE] [scheduler flags]
  dynbatch gen-esp --out FILE.json [--static] [--seed N]

  scheduler flags: [--dfs-cap SECS] [--nodes N] [--cores-per-node C]
               [--reservation-depth N] [--reservation-delay-depth N]
               [--guarantee] [--shrink-malleable] [--grow-malleable]";

/// A flag a subcommand reads: its name and whether a value follows it.
type Flag = (&'static str, bool);

/// Cluster and scheduler flags, read by `esp` and `run` alike.
const SCHED_FLAGS: &[Flag] = &[
    ("dfs-cap", true),
    ("nodes", true),
    ("cores-per-node", true),
    ("reservation-depth", true),
    ("reservation-delay-depth", true),
    ("guarantee", false),
    ("shrink-malleable", false),
    ("grow-malleable", false),
];
const ESP_FLAGS: &[Flag] = &[
    ("static", false),
    ("seed", true),
    ("seeds", true),
    ("walltime-factor", true),
];
const RUN_FLAGS: &[Flag] = &[
    ("trace", true),
    ("swf", true),
    ("evolving-fraction", true),
    ("max-jobs", true),
    ("csv-waits", true),
    ("csv-gantt", true),
];
const GEN_ESP_FLAGS: &[Flag] = &[("out", true), ("static", false), ("seed", true)];

/// Why a command failed: a bad command line (usage text, exit code 2) or
/// a run that could not complete (exit code 1).
enum Failure {
    Usage(String),
    Run(String),
}

impl Failure {
    /// The `map_err` adapter for a failed read or write of `path`.
    fn at<E: std::fmt::Display>(path: &str) -> impl FnOnce(E) -> Failure + '_ {
        move |e| Failure::Run(format!("{path}: {e}"))
    }
}

impl From<String> for Failure {
    /// Bare messages come from flag handling.
    fn from(msg: String) -> Self {
        Failure::Usage(msg)
    }
}

/// The flags of one subcommand: `--key value` pairs plus boolean `--key`.
struct Args {
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses `raw` (the arguments after the subcommand) against the
    /// flags the subcommand reads. Anything else — an unknown flag, a
    /// valued flag without its value, a stray positional — is an error.
    fn parse(raw: &[String], known: &[Flag]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument {arg:?}"));
            };
            let Some(&(_, takes_value)) = known.iter().find(|(n, _)| *n == name) else {
                return Err(format!("unknown flag --{name}"));
            };
            let value = if takes_value {
                match it.next() {
                    Some(v) if !v.starts_with("--") => Some(v.clone()),
                    _ => return Err(format!("--{name}: missing value")),
                }
            } else {
                None
            };
            flags.push((name.to_string(), value));
        }
        Ok(Args { flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value {v:?}")),
        }
    }
}

fn sched_from(args: &Args) -> Result<SchedulerConfig, String> {
    let mut s = SchedulerConfig::paper_eval();
    s.dfs = match args.get("dfs-cap") {
        None => DfsConfig::highest_priority(),
        Some(v) => {
            let cap: u64 = v
                .parse()
                .map_err(|_| format!("--dfs-cap: bad value {v:?}"))?;
            DfsConfig::uniform_target(cap, SimDuration::from_hours(1))
        }
    };
    s.reservation_depth = args.num("reservation-depth", 5usize)?;
    s.reservation_delay_depth = args.num("reservation-delay-depth", 5usize)?;
    s.guarantee_evolving = args.has("guarantee");
    s.shrink_malleable_for_dyn = args.has("shrink-malleable");
    s.grow_malleable_on_idle = args.has("grow-malleable");
    s.validate()?;
    Ok(s)
}

fn cluster_from(args: &Args, sched: SchedulerConfig) -> Result<ExperimentConfig, String> {
    Ok(ExperimentConfig {
        label: "cli".into(),
        nodes: args.num("nodes", 15u32)?,
        cores_per_node: args.num("cores-per-node", 8u32)?,
        sched,
    })
}

/// A job wider than the whole cluster can never start, and `BatchSim`
/// takes a workload the server refuses for a bug: turn it away here.
fn check_fits(wl: &[WorkloadItem], cfg: &ExperimentConfig) -> Result<(), String> {
    let capacity = cfg.nodes.saturating_mul(cfg.cores_per_node);
    match wl.iter().find(|item| item.spec.cores > capacity) {
        Some(item) => Err(format!(
            "job {} requests {} cores, the cluster has {capacity}",
            item.spec.name, item.spec.cores
        )),
        None => Ok(()),
    }
}

fn cmd_esp(args: &Args) -> Result<(), Failure> {
    let seeds: u64 = args.num("seeds", 1u64)?;
    let base_seed: u64 = args.num("seed", EspConfig::default().seed)?;
    let mut summaries = Vec::new();
    let mut acc: Option<dynbatch::metrics::RunSummary> = None;
    let n = seeds.max(1);
    for k in 0..n {
        let mut wl_cfg = if args.has("static") {
            EspConfig::paper_static()
        } else {
            EspConfig::paper_dynamic()
        };
        wl_cfg.seed = if n == 1 { base_seed } else { base_seed + k };
        wl_cfg.walltime_factor = args.num("walltime-factor", 1.0f64)?;
        let mut reg = CredRegistry::new();
        let wl = generate_esp(&wl_cfg, &mut reg);
        let cfg = cluster_from(args, sched_from(args)?)?;
        check_fits(&wl, &cfg)?;
        let r = run_experiment(&cfg, &wl);
        acc = Some(match acc {
            None => r.summary,
            Some(mut a) => {
                a.makespan += r.summary.makespan;
                a.utilization += r.summary.utilization;
                a.throughput_jobs_per_min += r.summary.throughput_jobs_per_min;
                a.satisfied_dyn_jobs += r.summary.satisfied_dyn_jobs;
                a
            }
        });
    }
    let mut s = acc.expect("at least one run");
    s.makespan = s.makespan / n;
    s.utilization /= n as f64;
    s.throughput_jobs_per_min /= n as f64;
    s.satisfied_dyn_jobs /= n as usize;
    s.label = if args.has("static") {
        "ESP-static".into()
    } else {
        "ESP-dynamic".into()
    };
    summaries.push(s);
    print!("{}", render_table2(&summaries));
    Ok(())
}

fn load_workload(args: &Args) -> Result<Vec<WorkloadItem>, Failure> {
    if let Some(path) = args.get("trace") {
        let trace = Trace::load(path).map_err(Failure::at(path))?;
        Ok(trace.items)
    } else if let Some(path) = args.get("swf") {
        let text = std::fs::read_to_string(path).map_err(Failure::at(path))?;
        let mut reg = CredRegistry::new();
        let cfg = SwfConfig {
            total_cores: args.num("nodes", 15u32)? * args.num("cores-per-node", 8u32)?,
            evolving_fraction: args.num("evolving-fraction", 0.0f64)?,
            max_jobs: args.num("max-jobs", 0usize)?,
            ..Default::default()
        };
        parse_swf(&text, &cfg, &mut reg).map_err(Failure::at(path))
    } else {
        Err(Failure::Usage(
            "run: need --trace FILE.json or --swf FILE.swf".into(),
        ))
    }
}

fn cmd_run(args: &Args) -> Result<(), Failure> {
    let wl = load_workload(args)?;
    let cfg = cluster_from(args, sched_from(args)?)?;
    check_fits(&wl, &cfg)?;
    let r = run_experiment(&cfg, &wl);
    print!("{}", render_table2(std::slice::from_ref(&r.summary)));
    println!(
        "\njobs: {}  grants: {}  rejects: {} ({} fairness)  resizes: {}  preemptions: {}",
        r.outcomes.len(),
        r.stats.dyn_granted,
        r.stats.dyn_rejected,
        r.stats.dyn_rejected_fairness,
        r.stats.malleable_resizes,
        r.stats.preemptions,
    );
    if let Some(path) = args.get("csv-gantt") {
        std::fs::write(path, gantt_csv(&r.outcomes)).map_err(Failure::at(path))?;
        println!("schedule (Gantt) written to {path}");
    }
    if let Some(path) = args.get("csv-waits") {
        let rows: Vec<Vec<f64>> = waits_by_submission(&r.outcomes)
            .into_iter()
            .map(|(i, w)| vec![i as f64, w])
            .collect();
        std::fs::write(path, render_csv(&["job", "wait_s"], &rows)).map_err(Failure::at(path))?;
        println!("waiting-time series written to {path}");
    }
    Ok(())
}

fn cmd_gen_esp(args: &Args) -> Result<(), Failure> {
    let out = args
        .get("out")
        .ok_or_else(|| Failure::Usage("gen-esp: need --out FILE.json".into()))?;
    let mut wl_cfg = if args.has("static") {
        EspConfig::paper_static()
    } else {
        EspConfig::paper_dynamic()
    };
    wl_cfg.seed = args.num("seed", EspConfig::default().seed)?;
    let mut reg = CredRegistry::new();
    let items = generate_esp(&wl_cfg, &mut reg);
    let trace = Trace::new(
        format!(
            "ESP ({}) seed {}",
            if args.has("static") {
                "static"
            } else {
                "dynamic"
            },
            wl_cfg.seed
        ),
        reg,
        items,
    );
    trace.save(out).map_err(Failure::at(out))?;
    println!("wrote {} jobs to {out}", trace.items.len());
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    type Cmd = fn(&Args) -> Result<(), Failure>;
    let (cmd, known): (Cmd, Vec<Flag>) = match raw.first().map(String::as_str) {
        Some("esp") => (cmd_esp, [ESP_FLAGS, SCHED_FLAGS].concat()),
        Some("run") => (cmd_run, [RUN_FLAGS, SCHED_FLAGS].concat()),
        Some("gen-esp") => (cmd_gen_esp, GEN_ESP_FLAGS.to_vec()),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = Args::parse(&raw[1..], &known)
        .map_err(Failure::Usage)
        .and_then(|args| cmd(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(e)) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Failure::Run(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
