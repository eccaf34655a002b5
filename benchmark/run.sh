#!/usr/bin/env bash
# The repo benchmark. Builds the harness in release mode, offline, then
# runs it; run from the repo root.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
#                    [--quick] [--report] [--selftest]
#
# With --workload: one run, whose last line of output is the result
# object BENCHMARK.json's driver reads. Without: all six workloads, each
# in a process of its own. --trace gives the per-layer metrics and writes
# benchmark/out/trace-<workload>.json; --report makes the probe/step
# reconciliation check fatal. --selftest runs the untraced set twice and
# fails if any end-to-end metric moves by more than its own bound.
set -euo pipefail

manifest=benchmark/Cargo.toml
if [ ! -f "$manifest" ]; then
    echo "benchmark/run.sh: run from the repo root ($manifest not found)" >&2
    exit 2
fi
# Build output goes to stderr: standard output carries only the report.
cargo build --release --offline --quiet --manifest-path "$manifest" >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/dynbatch-benchmark" "$@"
