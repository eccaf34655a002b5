//! The repo benchmark: six workloads, nine gated end-to-end metrics and an
//! outside-in per-layer trace. See `README.md` beside this package and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! dynbatch-benchmark [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
//!                    [--quick] [--report] [--selftest] [--write-pins]
//! ```
//!
//! With `--workload` the run happens in this process and the last line of
//! standard output is the result object the driver reads. Without it,
//! every workload runs in a child process of its own, one after another.

mod client;
mod inputs;
mod observe;
mod pace;
mod probes;
mod run;
mod simload;
mod spec;
mod stats;
mod suite;
mod trace;

use spec::Workload;

#[global_allocator]
static ALLOC: dynbatch_bench::alloc_meter::CountingAlloc =
    dynbatch_bench::alloc_meter::CountingAlloc;

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Unit counts ÷ 10 — a smoke run; no bound applies to its numbers.
    pub quick: bool,
    /// Make the traced run's probe/step reconciliation check fatal.
    pub report: bool,
    pub selftest: bool,
    pub write_pins: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::NOMINAL_SECONDS,
        trace: false,
        quick: false,
        report: false,
        selftest: false,
        write_pins: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer")?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds takes a positive number")?;
            }
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                args.trace = match it.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                };
            }
            "--quick" => args.quick = true,
            "--report" => args.report = true,
            "--selftest" => args.selftest = true,
            "--write-pins" => args.write_pins = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> std::process::ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    let ok = if args.selftest {
        suite::selftest(&args)
    } else if args.write_pins {
        suite::write_pins(&args)
    } else if let Some(w) = args.workload {
        run::run_and_print(w, &args)
    } else {
        suite::run_all(&args)
    };
    match ok {
        Ok(true) => std::process::ExitCode::SUCCESS,
        Ok(false) => std::process::ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
