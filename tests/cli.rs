//! The `dynbatch` binary's command line: every subcommand accepts only
//! the flags it reads, and a bad command line is a usage error (exit
//! code 2, usage text on stderr) rather than a silently different run.

use std::process::{Command, Output};

fn dynbatch(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dynbatch"))
        .args(args)
        .output()
        .expect("dynbatch binary runs")
}

/// Asserts a usage failure: exit code 2, nothing on stdout, and stderr
/// naming the problem ahead of the usage text.
fn assert_usage_error(args: &[&str], problem: &str) {
    let out = dynbatch(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a result");
    assert!(stderr.contains(problem), "{args:?}: stderr {stderr}");
    assert!(stderr.contains("usage: dynbatch"), "{args:?}: {stderr}");
}

#[test]
fn unknown_flag_is_rejected() {
    // A misspelt `--dfs-cap` used to run Dyn-HP without a word.
    assert_usage_error(
        &["run", "--swf", "t.swf", "--dfs_cap", "500"],
        "unknown flag --dfs_cap",
    );
    // Known to `run`, but not to `gen-esp`.
    assert_usage_error(
        &["gen-esp", "--out", "t.json", "--nodes", "4"],
        "unknown flag --nodes",
    );
}

#[test]
fn valued_flag_without_its_value_is_rejected() {
    // `--seed` used to swallow nothing and keep the default seed.
    assert_usage_error(&["esp", "--seed", "--static"], "--seed: missing value");
    assert_usage_error(&["esp", "--static", "--seed"], "--seed: missing value");
}

#[test]
fn unparseable_value_is_rejected() {
    assert_usage_error(&["esp", "--nodes", "many"], "--nodes: bad value");
}

#[test]
fn workload_wider_than_the_cluster_is_rejected() {
    // Used to die in `BatchSim` with a backtrace. ESP scales its widths
    // to a 120-core machine; one 8-core node holds none of the wide ones.
    assert_usage_error(
        &["esp", "--nodes", "1", "--static"],
        "cores, the cluster has 8",
    );
    // The same workload through `run --trace`.
    let trace = std::env::temp_dir().join(format!("dynbatch-cli-{}.json", std::process::id()));
    let trace = trace.to_str().expect("utf-8 temp path");
    let out = dynbatch(&["gen-esp", "--static", "--out", trace]);
    assert!(out.status.success(), "stderr {:?}", out.stderr);
    assert_usage_error(
        &["run", "--trace", trace, "--nodes", "2"],
        "cores, the cluster has 16",
    );
    let out = dynbatch(&["run", "--trace", trace, "--nodes", "15"]);
    std::fs::remove_file(trace).expect("trace written above");
    assert!(out.status.success(), "stderr {:?}", out.stderr);
}

#[test]
fn static_esp_prints_a_table_row() {
    for args in [
        &["esp", "--static", "--seed", "1"][..],
        &["esp", "--static", "--nodes", "15"],
    ] {
        let out = dynbatch(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "stderr {:?}", out.stderr);
        assert!(stdout.contains("ESP-static"), "no Table-II row in {stdout}");
    }
}
