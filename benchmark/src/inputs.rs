//! Seeded input generation. The program under test receives only what is
//! generated here; the same `--seed` gives the same inputs.

use crate::spec::Workload;
use dynbatch_core::{CredRegistry, DfsConfig, SchedulerConfig, SimDuration};
use dynbatch_simtime::SplitMix64;
use dynbatch_workload::{
    generate_esp, generate_synthetic, stream_synthetic, write_swf_to, EspConfig, SwfConfig,
    SyntheticConfig, WorkloadItem,
};
use std::io::Write;
use std::path::{Path, PathBuf};

/// The seed of unit `unit` of stream `tag` under run seed `seed`.
fn derived_seed(seed: u64, tag: u64, unit: u64) -> u64 {
    SplitMix64::new(seed).derive(tag).derive(unit).next_u64()
}

/// Dyn-500: a uniform 500 s cumulative-delay target per user and hour.
pub fn dyn500() -> SchedulerConfig {
    let mut cfg = SchedulerConfig::paper_eval();
    cfg.dfs = DfsConfig::uniform_target(500, SimDuration::from_hours(1));
    cfg
}

/// What `dynbatch run` uses without flags: highest-priority DFS.
pub fn cli_default() -> SchedulerConfig {
    let mut cfg = SchedulerConfig::paper_eval();
    cfg.dfs = DfsConfig::highest_priority();
    cfg
}

/// The paper's dynamic ESP (230 jobs, 69 evolving) under one submission
/// seed.
pub fn esp_unit(seed: u64) -> Vec<WorkloadItem> {
    let mut reg = CredRegistry::new();
    let cfg = EspConfig {
        seed,
        ..EspConfig::paper_dynamic()
    };
    generate_esp(&cfg, &mut reg)
}

/// A `jobs`-job burst arriving 1 s apart on 1 200 cores: 14× more work
/// than the machine clears, so the queue grows to ~85 % of the burst.
pub fn deepq_unit(seed: u64, jobs: usize) -> Vec<WorkloadItem> {
    let mut reg = CredRegistry::new();
    let cfg = SyntheticConfig {
        seed,
        jobs,
        users: 32,
        total_cores: 1200,
        mean_interarrival: SimDuration::from_secs(1),
        runtime_secs: (60, 1800),
        cores: (1, 64),
        evolving_fraction: 0.3,
        extra_cores: 4,
        det_factor: 0.7,
    };
    generate_synthetic(&cfg, &mut reg)
}

/// Writes a `jobs`-job synthetic trace (25 s mean interarrival, 1–8
/// cores, 120-core machine) as SWF, streaming; returns the bytes written.
pub fn write_trace(path: &Path, seed: u64, jobs: usize) -> std::io::Result<u64> {
    let mut reg = CredRegistry::new();
    let src = stream_synthetic(
        &SyntheticConfig {
            seed,
            jobs,
            users: 32,
            total_cores: 120,
            mean_interarrival: SimDuration::from_secs(25),
            runtime_secs: (60, 1800),
            cores: (1, 8),
            // Jobs turn evolving at parse time (`SwfConfig`), as for a
            // real archive trace.
            evolving_fraction: 0.0,
            extra_cores: 4,
            det_factor: 0.7,
        },
        &mut reg,
    );
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let written = write_swf_to(&mut out, src, 8)?;
    assert_eq!(written, jobs, "trace generator emits every job");
    out.flush()?;
    Ok(std::fs::metadata(path)?.len())
}

/// How the replay workloads read a trace: 10 % of jobs turn evolving.
pub fn swf_config(seed: u64) -> SwfConfig {
    SwfConfig {
        evolving_fraction: 0.1,
        seed,
        ..SwfConfig::default()
    }
}

/// What the generator predicts a command line's reply to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Submitted(u64),
    Ok,
    Status,
    Denied,
}

/// One client round: a write phase (60 % `qsub`, 30 % `qstat`, 10 %
/// `qdel`) and a `qstat`-only read phase, each line with the reply the
/// generator's model of the server predicts.
pub struct ClientScript {
    pub write: Vec<String>,
    pub write_expect: Vec<Expect>,
    pub read: Vec<String>,
    pub read_expect: Vec<Expect>,
}

impl ClientScript {
    /// Jobs the write phase admits.
    pub fn admitted(&self) -> usize {
        self.write_expect
            .iter()
            .filter(|e| matches!(e, Expect::Submitted(_)))
            .count()
    }
}

/// Generates a client round against a server whose next job id is
/// `first_id`. Targets are jobs this script created, or — one in ten —
/// an id the server has never issued, so denials occur and are counted.
pub fn client_script(
    seed: u64,
    first_id: u64,
    max_cores: u64,
    n_write: usize,
    n_read: usize,
) -> ClientScript {
    let mut rng = SplitMix64::new(seed);
    // `alive[k]`: job `first_id + k` exists and has not been deleted.
    let mut alive: Vec<bool> = Vec::new();
    let unknown = |rng: &mut SplitMix64| first_id + 1_000_000_000 + rng.next_below(1000);
    let mut script = ClientScript {
        write: Vec::with_capacity(n_write),
        write_expect: Vec::with_capacity(n_write),
        read: Vec::with_capacity(n_read),
        read_expect: Vec::with_capacity(n_read),
    };
    for i in 0..n_write {
        let roll = rng.next_below(100);
        let (line, expect) = if roll < 60 {
            let user = rng.next_below(32);
            let cores = 1 + rng.next_below(max_cores);
            let secs = 60 + rng.next_below(1740);
            let line = if rng.next_below(10) < 3 {
                format!(
                    "qsub name=b{i} user={user} group=0 cores={cores} class=evolving \
                     set_s={secs} det_s={} extra=4",
                    secs * 7 / 10
                )
            } else {
                format!(
                    "qsub name=b{i} user={user} group=0 cores={cores} wall_ms={}",
                    secs * 1000
                )
            };
            alive.push(true);
            (line, Expect::Submitted(first_id + alive.len() as u64 - 1))
        } else {
            let del = roll >= 90;
            let verb = if del { "qdel" } else { "qstat" };
            if alive.is_empty() || rng.next_below(10) == 0 {
                (format!("{verb} {}", unknown(&mut rng)), Expect::Denied)
            } else {
                let k = rng.next_below(alive.len() as u64) as usize;
                let expect = match (del, alive[k]) {
                    (false, _) => Expect::Status,
                    (true, true) => {
                        alive[k] = false;
                        Expect::Ok
                    }
                    (true, false) => Expect::Denied,
                };
                (format!("{verb} {}", first_id + k as u64), expect)
            }
        };
        script.write.push(line);
        script.write_expect.push(expect);
    }
    for _ in 0..n_read {
        let (id, expect) = if alive.is_empty() || rng.next_below(50) == 0 {
            (unknown(&mut rng), Expect::Denied)
        } else {
            (
                first_id + rng.next_below(alive.len() as u64),
                Expect::Status,
            )
        };
        script.read.push(format!("qstat {id}"));
        script.read_expect.push(expect);
    }
    script
}

/// Everything one run of one workload needs, generated from the seed.
pub struct Inputs {
    /// Main-phase units that are in-memory workloads (ESP, deep queue).
    pub units: Vec<Vec<WorkloadItem>>,
    /// The SWF trace the replay workloads read, its byte size and the
    /// parse configuration.
    pub trace: Option<(PathBuf, u64, SwfConfig)>,
    /// Client rounds: all of `submit_burst`'s units, the tail rounds of
    /// the others.
    pub client: Vec<ClientScript>,
    /// A small unit of the same kind, run once per set-up to warm up.
    pub warmup: Vec<WorkloadItem>,
    /// Seconds spent in the workload generators and the jobs generated.
    pub generate_s: f64,
    pub generated_jobs: usize,
}

/// Sizes of a run: main-phase units and the client rounds that follow.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub units: usize,
    pub client_rounds: usize,
    pub write_lines: usize,
    pub read_lines: usize,
}

impl Sizes {
    /// `scale` is `--seconds / 10`, a tenth of that with `--quick`. Unit
    /// and round *counts* scale, never a unit's definition — except that
    /// a `submit_burst` round shrinks to 5 000 lines below half scale, so
    /// a smoke run stays one.
    pub fn of(w: Workload, scale: f64) -> Sizes {
        let scaled = |n: usize| ((n as f64 * scale).round() as usize).max(1);
        let client_rounds = scaled(w.nominal_client_rounds());
        if w == Workload::SubmitBurst {
            let lines = if scale < 0.5 { 5_000 } else { w.unit_size() };
            Sizes {
                units: 0,
                client_rounds,
                write_lines: lines,
                read_lines: 4 * lines,
            }
        } else {
            Sizes {
                units: scaled(w.nominal_units()),
                client_rounds,
                write_lines: 6_400,
                // A qstat takes well under a microsecond: fewer lines than
                // this and a round's read phase is over in 10 ms.
                read_lines: 76_800,
            }
        }
    }
}

/// Generates the inputs of workload `w` under `seed`. `out_dir` receives
/// the SWF trace of the replay workloads.
pub fn build(w: Workload, seed: u64, sizes: Sizes, out_dir: &Path) -> std::io::Result<Inputs> {
    let t0 = std::time::Instant::now();
    let mut generated_jobs = 0;
    let mut units = Vec::new();
    let mut trace = None;
    let warmup;
    match w {
        Workload::EspDyn500 | Workload::EspReplicated => {
            for u in 0..sizes.units {
                units.push(esp_unit(derived_seed(seed, 1, u as u64)));
            }
            generated_jobs = units.len() * w.unit_size();
            warmup = esp_unit(derived_seed(seed, 2, 0));
        }
        Workload::Deepq1200c => {
            for u in 0..sizes.units {
                units.push(deepq_unit(derived_seed(seed, 1, u as u64), w.unit_size()));
            }
            generated_jobs = units.len() * w.unit_size();
            warmup = deepq_unit(derived_seed(seed, 2, 0), 400);
        }
        Workload::ReplayRetained | Workload::ReplayStreamed => {
            let path = out_dir.join(format!("trace-{}-{}.swf", w.name(), std::process::id()));
            let bytes = write_trace(&path, derived_seed(seed, 1, 0), w.unit_size())?;
            generated_jobs = w.unit_size();
            trace = Some((path, bytes, swf_config(derived_seed(seed, 3, 0))));
            warmup = esp_unit(derived_seed(seed, 2, 0));
        }
        Workload::SubmitBurst => warmup = Vec::new(),
    }
    let generate_s = t0.elapsed().as_secs_f64();
    let (nodes, per_node) = w.cluster();
    let max_cores = u64::from(nodes * per_node).min(64);
    // Sim workloads leave a server that has issued `unit_size` ids.
    let first_id = if w == Workload::SubmitBurst {
        1
    } else {
        w.unit_size() as u64 + 1
    };
    let client = (0..sizes.client_rounds)
        .map(|r| {
            client_script(
                derived_seed(seed, 4, r as u64),
                first_id,
                max_cores,
                sizes.write_lines,
                sizes.read_lines,
            )
        })
        .collect();
    Ok(Inputs {
        units,
        trace,
        client,
        warmup,
        generate_s,
        generated_jobs,
    })
}
