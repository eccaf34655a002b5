//! Runs over all six workloads: the plain "run everything" mode, the
//! back-to-back self-test against the benchmark's own bounds, and the
//! pin writer. Each workload runs in a child process of its own, so no
//! run inherits another's heap or caches.

use crate::run;
use crate::spec::{Workload, WORKLOADS};
use crate::Args;
use dynbatch_core::json::{self, Json};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Runs one workload in a child process; returns everything it printed
/// but its last line, that line parsed (the result object), and whether
/// it exited with success.
fn child(w: Workload, args: &Args) -> Result<(String, Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    for (on, flag) in [
        (args.quick, "--quick"),
        (args.report, "--report"),
        (args.write_pins, "--write-pins"),
    ] {
        if on {
            cmd.arg(flag);
        }
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", w.name()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (report, last) = text.trim_end().rsplit_once('\n').unwrap_or(("", &text));
    let result = json::parse(last).map_err(|e| format!("{}: no result object: {e}", w.name()))?;
    Ok((report.to_owned(), result, out.status.success()))
}

/// Every workload once, each report echoed, one result line per workload.
pub fn run_all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for w in WORKLOADS {
        let (report, result, success) = child(w, args)?;
        println!("{report}\n{} {}", w.name(), result.to_string_compact());
        ok &= success;
    }
    Ok(ok)
}

/// `name → bound` of the end-to-end metrics, from `BENCHMARK.json` in the
/// working directory (the repo root).
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    let doc = json::parse(&text)?;
    let mut out = BTreeMap::new();
    for m in doc
        .req("end_to_end")?
        .as_arr()
        .ok_or("end_to_end must be a list")?
    {
        let name = m
            .req("name")?
            .as_str()
            .ok_or("metric name must be a string")?;
        let bound = m.req("bound")?.as_f64().ok_or("bound must be a number")?;
        out.insert(name.to_owned(), bound);
    }
    Ok(out)
}

fn values(result: &Json) -> BTreeMap<String, f64> {
    let Some(Json::Obj(pairs)) = result.get("metrics") else {
        return BTreeMap::new();
    };
    pairs
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect()
}

/// The full untraced set twice, back to back: fails if any end-to-end
/// metric of a workload differs between the two by more than its bound.
pub fn selftest(args: &Args) -> Result<bool, String> {
    let bounds = bounds()?;
    let args = Args {
        trace: false,
        ..args.clone()
    };
    let mut sets = Vec::new();
    let mut ok = true;
    for set in 0..2 {
        let mut results = Vec::new();
        for w in WORKLOADS {
            eprintln!("selftest: set {} of 2, {}", set + 1, w.name());
            let (_, result, success) = child(w, &args)?;
            if !success {
                println!("{}: run {} failed its output checks", w.name(), set + 1);
                ok = false;
            }
            results.push(values(&result));
        }
        sets.push(results);
    }
    println!(
        "{:<16} {:<24} {:>16} {:>16} {:>8} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        for (name, &bound) in &bounds {
            let (Some(&a), Some(&b)) = (sets[0][i].get(name), sets[1][i].get(name)) else {
                println!("{:<16} {name:<24} missing", w.name());
                ok = false;
                continue;
            };
            let diff = (b - a).abs() / a.abs().max(f64::MIN_POSITIVE);
            // A --quick run is a smoke test: its numbers carry no bound.
            let over = diff > bound && !args.quick;
            println!(
                "{:<16} {name:<24} {a:>16.4} {b:>16.4} {:>7.2}% {:>6.0}%{}",
                w.name(),
                100.0 * diff,
                100.0 * bound,
                if over { "  OVER" } else { "" }
            );
            ok &= !over;
        }
    }
    println!("selftest: {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

/// Runs every workload at the default seed and rewrites `pins.json` (in
/// the source tree; rebuild afterwards, the pins are compiled in).
pub fn write_pins(args: &Args) -> Result<bool, String> {
    if let Some(w) = args.workload {
        // Child mode: report the observed digests, compare nothing.
        return run::run_and_print(w, args);
    }
    let mut entries = Vec::new();
    for w in WORKLOADS {
        // --quick keeps the first unit and first round whole, and those
        // are what is pinned — except submit_burst's rounds, which shrink.
        let args = Args {
            seed: crate::spec::DEFAULT_SEED,
            trace: false,
            quick: w != Workload::SubmitBurst,
            ..args.clone()
        };
        let (report, _, _) = child(w, &args)?;
        let hex: Vec<&str> = report
            .lines()
            .find(|l| l.trim_start().starts_with("digests:"))
            .ok_or(format!("{}: no digests line", w.name()))?
            .split_whitespace()
            .filter(|t| t.starts_with("0x"))
            .collect();
        let [accounting, state, replies] = hex[..] else {
            return Err(format!("{}: malformed digests line", w.name()));
        };
        entries.push(format!(
            "    \"{}\": {{\"accounting_digest\": \"{accounting}\", \"state_hash\": \"{state}\", \"reply_hash\": \"{replies}\"}}",
            w.name()
        ));
    }
    let text = format!(
        "{{\n  \"seed\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        crate::spec::DEFAULT_SEED,
        entries.join(",\n")
    );
    std::fs::write("benchmark/pins.json", &text)
        .map_err(|e| format!("benchmark/pins.json: {e}"))?;
    print!("{text}");
    Ok(true)
}
