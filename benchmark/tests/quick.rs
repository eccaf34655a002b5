//! Runs every workload in `--quick` mode, untraced and traced, and checks
//! what it prints against the name lists in `BENCHMARK.json`.

use dynbatch_core::json::{self, Json};
use std::path::Path;
use std::process::Command;

fn names_and_units(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.req(key)
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|m| {
            let field = |f: &str| m.req(f).unwrap().as_str().unwrap().to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn quick_runs_emit_exactly_the_declared_metrics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
    let doc = json::parse(&text).unwrap();
    let end_to_end = names_and_units(&doc, "end_to_end");
    let per_layer = names_and_units(&doc, "per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for (name, _) in end_to_end.iter().chain(&per_layer) {
        assert!(well_formed(name), "metric name {name:?}");
    }

    let workloads = doc.req("workloads").unwrap().as_arr().unwrap();
    assert_eq!(workloads.len(), 6);
    for w in workloads {
        let name = w.req("name").unwrap().as_str().unwrap();
        assert!(well_formed(name), "workload name {name:?}");
        for (trace, declared) in [("0", &end_to_end), ("1", &per_layer)] {
            let out = Command::new(env!("CARGO_BIN_EXE_dynbatch-benchmark"))
                .current_dir(root)
                .args([
                    "--workload",
                    name,
                    "--seed",
                    "77",
                    "--quick",
                    "--trace",
                    trace,
                ])
                .output()
                .unwrap();
            let stdout = String::from_utf8(out.stdout).unwrap();
            assert!(
                out.status.success(),
                "{name} --trace {trace} failed:\n{stdout}"
            );
            let result = json::parse(stdout.lines().last().unwrap()).unwrap();
            assert_eq!(result.req("correct").unwrap().as_bool(), Some(true));
            assert_eq!(result.req("failed").unwrap().as_u64(), Some(0));
            assert!(result.req("attempted").unwrap().as_u64().unwrap() >= 1);
            let Json::Obj(metrics) = result.req("metrics").unwrap() else {
                panic!("{name}: metrics is not an object");
            };
            let emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| {
                    let value = v.req("value").unwrap().as_f64().unwrap();
                    assert!(value.is_finite(), "{name}: {k} = {value}");
                    (
                        k.clone(),
                        v.req("unit").unwrap().as_str().unwrap().to_owned(),
                    )
                })
                .collect();
            assert_eq!(&emitted, declared, "{name} --trace {trace}");
        }
    }
}
