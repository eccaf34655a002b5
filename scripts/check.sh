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

echo "==> cargo test (every suite of the workspace, once; EXPERIMENTS.md maps"
echo "    each claim to the suite that pins it)"
cargo test -q --workspace

echo "==> the virtual-time chaos sweeps: 10 000 seeds of the daemon protocol path"
echo "    and 10 000 of reactor churn, each run twice and required to replay as one"
echo "    trace (release build)"
cargo test --release -q --test chaos_daemon --test reactor_chaos -- --ignored

echo "==> perf_smoke --quick (every comparison asserts identical decisions"
echo "    against sched::reference::iterate_naive before it is timed)"
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
      peak_reduction identical_results fairness parallel_speedup machine_size \
      largest_over_smallest; do
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

echo "==> deep_queue in exact counts (its queue is single-class FIFO and does not"
echo "    change between its cycles): no rank entry walked, no priority score"
echo "    computed and no sort at any depth; bytes allocated per cycle at depth 4000"
echo "    within 2x those at depth 250"
for report in BENCH_sched.json /tmp/BENCH_sched.quick.json; do
  awk -v report="$report" '
    function value(field) { gsub(/,/, "", field); return field + 0 }
    /"queue_depth"/ { depth = value($2) }
    /"rank_entries_walked_per_cycle"/ || /"priority_evaluations_per_cycle"/ \
        || /"rank_sorts"/ {
      if (value($2) != 0) {
        print report ": deep_queue depth " depth " reports " $1 " " $2 " (must be 0)"
        bad = 1
      }
      seen[depth]++
    }
    /"alloc_bytes_per_iterate"/ { bytes[depth] = value($2) }
    END {
      for (d in seen) rows += (seen[d] == 3)
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

echo "==> the scheduler is reached through the snapshot only: no switch, mutable"
echo "    accessor or per-driver coupling duty came back"
gone='set_plan_cache_enabled|set_incremental_enabled|set_incremental_check_enabled'
gone="$gone|dfs_mut|fairshare_mut|maui_mut|set_publish_usage"
gone="$gone|set_collect_usage_events|take_usage_events|sync_fairshare"
if grep -rnE "$gone" crates src tests examples; then
  echo "a deleted name reappeared (see above)"; exit 1
fi

echo "==> one client front door, one ack rule, one replication configuration: no"
echo "    switch, dead spelling or typed write request came back (field syntax for"
echo "    the two names that live on in prose and in a test's name)"
gone='ReplicationConfig|read_offload|ack_after_replicate *:|read_your_writes *:'
gone="$gone|ClientMsg|ClientReq::QSub|ClientReq::QDel"
if grep -rnE "$gone" crates src tests examples; then
  echo "a deleted name reappeared (see above)"; exit 1
fi

echo "==> every thin mechanism got its verdict: follower read routing, the"
echo "    before-plan cache and per-worker simulator recycling (and every reset"
echo "    that served it) are gone"
gone='ReadRouter|FollowerReader|read_follower|FollowerMsg::Read|CachedPlan'
gone="$gone|run_experiment_on|run_experiment_streamed_on|parallel_tasks_with"
if grep -rnE "$gone" crates src tests examples \
    || grep -rnE 'pub fn reset\(' crates/server crates/sim crates/simtime crates/metrics; then
  echo "a deleted name reappeared (see above)"; exit 1
fi

echo "==> one door into durable state: PbsServer::execute applies and journals every"
echo "    input record, PbsServer::apply every scheduler outcome — two append sites,"
echo "    no public mutator (DaemonHandle's client calls of the same names live in"
echo "    crates/daemon), no second dispatch over Record, no test-side spelling"
logs=$(cat crates/server/src/server/*.rs | grep -c 'self\.log(')
if [ "$logs" -gt 2 ]; then
  echo "crates/server/src/server/ appends to the journal at $logs sites (at most 2)"
  exit 1
fi
mutators='qsub|qdel|tm_dynget|tm_dynget_negotiated|tm_dynfree|job_finished|node_failed'
mutators="$mutators|node_repaired|expire_dyn_request|expire_dyn_requests|set_guarantee_evolving"
if grep -rnE 'fn replay\b|apply_record' crates src tests examples \
    || grep -nE 'enum Op\b' tests/common/mod.rs \
    || grep -rnE "pub fn ($mutators)\b" crates/server; then
  echo "a deleted name reappeared (see above)"; exit 1
fi

echo "==> one catch-up path: crash recovery is a follower fed the journal, so the"
echo "    image loader has no public face and one call site, the follower's install"
if grep -rnE 'from_image|set_dyn_log_enabled' crates src tests examples; then
  echo "a deleted name reappeared (see above)"; exit 1
fi
restores=$(grep -rnE '(PbsServer|Self)::restore\(' crates src tests examples || true)
if [ "$(printf '%s' "$restores" | grep -c '')" -ne 1 ] \
    || [[ "$restores" != crates/server/src/replication/follower.rs:* ]]; then
  echo "PbsServer::restore must have exactly one call site, in the follower's install:"
  echo "${restores:-  (none)}"; exit 1
fi

echo "==> one world-advance loop: the reactor gate drives BatchSim through its one"
echo "    command door; the second world and the leftovers nothing called are gone"
gone='script_from_stream|poll_with|job_exited|JobFinished|fn revision'
if grep -rnE "$gone" crates src tests examples \
    || grep -rnE 'struct World' crates/sim src tests examples \
    || grep -nE 'PbsServer::(new|recover)|Maui::new' crates/sim/src/reactor_drive.rs; then
  echo "a deleted name reappeared, or reactor_drive builds a world of its own (see above)"
  exit 1
fi

echo "==> one event core under both drivers: the daemon keeps no second copy of the"
echo "    run timers, app exits, expiries or crash re-arming, no second deadline"
echo "    queue, no second record of a parked TM call or writer of the mother-"
echo "    superior directory, and the server is recovered from its journal in one"
echo "    place (the core's restart)"
gone='app_timers|dyn_timers|arm_app_timer|arm_dyn_timer|JobExited|ExpireDyn|ExpireOne'
gone="$gone|expire_one|wait_for_state|fn gen_of"
gone="$gone|TimerService|TimerHandle|TimerId|ReplyRouter|ReplyKind|JobStarted"
if grep -rnE "$gone" crates src tests examples; then
  echo "a deleted name reappeared (see above)"; exit 1
fi
recovers=$(grep -rn 'PbsServer::recover(' crates src examples \
    --exclude=tests.rs --exclude=table_props.rs | grep -vE '^crates/[^/]+/tests/' || true)
if [ "$(printf '%s' "$recovers" | grep -c '')" -gt 1 ]; then
  echo "PbsServer::recover( has more than one non-test call site:"
  echo "$recovers"; exit 1
fi

echo "==> faults live only in virtual time: no threaded chaos layer came back, and"
echo "    neither the daemons nor the chaos suites wait on the wall clock"
gone='ChaosCore|postman_main|Post::Later|raw_mom_txs'
if grep -rnE "$gone" crates src tests examples \
    || grep -rn 'thread::sleep' crates/daemon/src tests/chaos_daemon.rs tests/reactor_chaos.rs; then
  echo "a deleted name or a sleep reappeared (see above)"; exit 1
fi

echo "==> every fault in one plan: the replication stream's faults and the server's"
echo "    crashes live in FaultPlan, DaemonConfig is the deployment alone, and the"
echo "    failover suite waits on no wall clock"
if grep -rnE 'struct Replication\b' crates/daemon \
    || awk '/pub struct DaemonConfig/,/^}/' crates/daemon/src/daemon.rs | grep -n 'server_crashes' \
    || grep -n 'thread::sleep' tests/replication_failover.rs; then
  echo "a second fault plan, a fault in the deployment or a sleep came back (see above)"
  exit 1
fi

echo "==> replication without a second fault plan or follower threads in the"
echo "    daemon: the hub draws no fault (the daemon's hops take the plan's"
echo "    expendable rule), and the only follower threads are ReplicatedSim's"
if grep -rnE 'ReplFaultPlan|reorder_permille|FollowerMsg::Crash' crates src tests examples \
    || grep -n 'fn stream(' crates/daemon/src/fault.rs; then
  echo "a second fault plan or its pieces came back (see above)"; exit 1
fi
spawners=$(grep -rlE 'thread::(spawn|Builder|scope)' crates src tests examples \
    | xargs grep -lE '\bFollower(Link)?\b' | grep -vx 'crates/sim/src/replica_drive.rs' || true)
if [ -n "$spawners" ]; then
  echo "a follower thread is spawned outside crates/sim/src/replica_drive.rs:"
  echo "$spawners"; exit 1
fi

echo "==> one mom and one link rule: the mom lives in the daemon crate as one entry"
echo "    per job, every daemon message is applied once in send order by the link, and"
echo "    a server crash is the one crash schedule (a leader kill with followers)"
gone='MomOutput|leader_kills|leader_kill_points|MomRestarted|fn stale\('
if grep -rnE "$gone" crates src tests examples \
    || grep -rnE 'mod mom\b|pub use mom\b|\bMom\b' crates/server \
    || grep -rnE '(BTree|Hash)Map<JobId, *(BTree|Hash)Set<u64>>' crates/daemon; then
  echo "a deleted name reappeared (see above)"; exit 1
fi

echo "==> one spelling on the replication wire: frames, images and every"
echo "    replica-equality check are binary (crates/server/src/codec.rs); no JSON"
echo "    frame codec or digest query came back, the wire modules read no JSON,"
echo "    and ReplicatedSim::converge compares encoded images"
repl=crates/server/src/replication
if grep -rnE 'frame_to_json|frame_from_json|DigestQuery' crates src tests examples \
    || grep -nE 'json|Json' $repl/framing.rs $repl/hub.rs $repl/follower.rs \
    || grep -nE 'state_digest' crates/sim/src/replica_drive.rs; then
  echo "the replication wire speaks JSON again (see above)"; exit 1
fi

echo "==> one ensemble loop: the wall clock paces the ensemble the virtual driver"
echo "    steps, through the same net; no thread per daemon, raw-channel net, inbox"
echo "    per mom or mom shutdown came back"
if grep -rnE 'fn spawn<|impl Net for Wires|MomMsg::Shutdown|mom_rxs' crates/daemon; then
  echo "a deleted name reappeared (see above)"; exit 1
fi

echo "==> the ensemble owns its state: no shared net handle, locked directory or"
echo "    net trait in the daemon crate, and the one RefCell is the virtual"
echo "    driver's, at the handle's boundary"
if grep -rnE 'VirtualNet|Rc<|Mutex|POISONED|trait Net' crates/daemon/src \
    || grep -rn 'RefCell' crates/daemon/src | grep -v 'pub struct Virtual('; then
  echo "shared state came back into the daemon crate (see above)"; exit 1
fi

echo "check.sh: all gates passed"
