#!/usr/bin/env bash
# Repo-wide gate: formatting, lints, tests, and the quick perf smoke.
# Run from anywhere; operates on the repo root. Fully offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test -q --workspace

echo "==> chaos zero-fault smoke"
cargo test -q --test chaos_daemon chaos_zero_fault

echo "==> crash-recovery smoke (~5 sampled journal crash points)"
cargo test -q --test crash_recovery crash_smoke_sampled_indices

echo "==> parallel sweep smoke (serial == parallel)"
cargo test -q --test sweep_engine

echo "==> incremental timeline equivalence (delta path == rebuild path)"
cargo test -q --test timeline_incremental

echo "==> reactor smoke (serial apply vs reactor-batched apply, identical digest)"
cargo test -q --test reactor_equivalence reactor_equivalence_at_1_8_64_clients
cargo test -q --test reactor_chaos stalled_reader_blocks_nothing

echo "==> dynamic-partition regressions (same-cycle re-expansion / shrink)"
cargo test -q --test partition

echo "==> streaming ingestion (streamed == materialized for every generator,"
echo "    qdel-before-admission, window-bounded residency)"
cargo test -q --test streaming_ingest

echo "==> history-independent cycle (live-table walks == full scans under"
echo "    random commands; queue peek/slot-table properties)"
cargo test -q -p dynbatch-server --lib table_props
cargo test -q -p dynbatch-simtime --test prop_queue

echo "==> checkpoints that cost the live table (both table_props servers"
echo "    journal under a trailing retain floor: patched snapshot == fresh"
echo "    image after every command, patched whenever a valid predecessor is"
echo "    discarded, every kind of compaction witnessed; entries and outcomes"
echo "    copied per compaction counted against 5 000 retained jobs)"
cargo test -q -p dynbatch-server --lib live_table_walks_match_full_scans_under_random_commands
cargo test -q -p dynbatch-server --lib compaction_copies_the_live_table_not_the_history
cargo test -q -p dynbatch-server --lib compacting_snapshot_rebuilt_in_old_buffers_equals_fresh_image
cargo test -q -p dynbatch-server --lib compact_hands_back_the_newest_discarded_snapshot
cargo test -q --test crash_recovery crash_sweep_survives_compaction

echo "==> command line (usage errors exit 2; a workload wider than the"
echo "    cluster is one of them)"
cargo test -q --test cli

echo "==> queue-depth-independent cycle (Maui::iterate == the visit-every-job"
echo "    reference over random multi-cycle runs; remembered rank order =="
echo "    rank_jobs while priorities cross; fits == min_idle >= cores; the"
echo "    maintained scheduler view == the live-table walk, via table_props above)"
cargo test -q -p dynbatch-sched --test prop_maui
cargo test -q -p dynbatch-sched --test prop_timeline
cargo test -q -p dynbatch-sched --lib priority
cargo test -q -p dynbatch-server --lib view_

echo "==> replication smoke (transport hardening, 50-seed leader-kill chaos"
echo "    sweep, compaction handoff, daemon failover with live clients)"
cargo test -q --test replication_chaos
cargo test -q --test replication_failover
cargo test -q -p dynbatch-server replication
cargo test -q -p dynbatch-sim replica

echo "==> time-aware fairness suite (static inertness, sweep-worker"
echo "    determinism, demote-not-deny budgets)"
cargo test -q --test fairness
cargo test -q -p dynbatch-sched --lib usage_history
cargo test -q -p dynbatch-sched --lib fairshare
cargo test -q -p dynbatch-sched --lib dfs

echo "==> perf_smoke --quick (runs the incremental path with the"
echo "    rebuild-equivalence assert enabled on every tick)"
cargo run --release -q -p dynbatch-bench --bin perf_smoke -- --quick \
  --out /tmp/BENCH_sched.quick.json

echo "==> frozen benchmark harness still builds and passes against this tree"
echo "    (API drift in PbsServer/BatchSim/EventQueue fails here, not in the"
echo "    benchmark pipeline)"
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

echo "==> BENCH_sched.json (committed, and the quick run's) carries exactly"
echo "    the sections perf_smoke still measures, each with the field its claim"
echo "    rests on, and none of the sections the repo benchmark superseded"
for report in BENCH_sched.json /tmp/BENCH_sched.quick.json; do
  for key in scaled_iteration incremental_timeline deep_queue \
      depth4000_over_reference esp_table2 journal overhead_bound_pct ingest \
      peak_reduction identical_results fairness; do
    grep -q "\"$key\"" "$report" \
      || { echo "$report lacks \"$key\" — regenerate with: cargo run \
--release -p dynbatch-bench --bin perf_smoke"; exit 1; }
  done
  for gone in scaled_kernel reactor replication materialized_over_streamed_wall; do
    if grep -q "\"$gone\"" "$report"; then
      echo "$report carries the deleted \"$gone\" section again"; exit 1
    fi
  done
done

echo "==> deep_queue in exact counts (its queue is single-class FIFO): no priority"
echo "    score computed and no sort at any depth; bytes allocated per cycle at"
echo "    depth 4000 within 2x those at depth 250"
for report in BENCH_sched.json /tmp/BENCH_sched.quick.json; do
  awk -v report="$report" '
    function value(field) { gsub(/,/, "", field); return field + 0 }
    /"queue_depth"/ { depth = value($2) }
    /"priority_evaluations_per_cycle"/ || /"rank_sorts"/ {
      if (value($2) != 0) {
        print report ": deep_queue depth " depth " reports " $1 " " $2 " (must be 0)"
        bad = 1
      }
      seen[depth]++
    }
    /"alloc_bytes_per_iterate"/ { bytes[depth] = value($2) }
    END {
      for (d in seen) rows += (seen[d] == 2)
      if (rows != 3 || !(250 in bytes) || !(4000 in bytes)) {
        print report ": deep_queue lacks its work counters — regenerate with: " \
          "cargo run --release -p dynbatch-bench --bin perf_smoke"
        exit 1
      }
      if (bytes[4000] > 2 * bytes[250]) {
        print report ": a cycle at depth 4000 allocates " bytes[4000] \
          " bytes, over 2x the " bytes[250] " at depth 250"
        bad = 1
      }
      exit bad
    }' "$report"
done

echo "check.sh: all gates passed"
