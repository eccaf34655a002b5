//! The scheduler's before-plan cache is a pure optimisation: over the full
//! dynamic-ESP workload it takes the dynamic decisions (including every
//! [`DelayCharge`]) of a scheduler that replans for every request.
//!
//! That scheduler is `sched::reference::iterate_naive`, which caches
//! nothing, and the comparison happens inside `Maui::iterate`: a debug
//! build runs the reference beside every cycle, on a copy of the fairness
//! statistics, and asserts the same outcome. These runs put the workloads
//! whose grants mutate the base profile through that assert and check
//! that they reached it; in a release build (where the assert is compiled
//! out) `prop_maui` and `perf_smoke` carry the comparison.
//!
//! [`DelayCharge`]: dynbatch::sched::DelayCharge

use dynbatch::cluster::Cluster;
use dynbatch::core::{CredRegistry, DfsConfig, SchedulerConfig, SimDuration, SimTime};
use dynbatch::sched::DynDecision;
use dynbatch::sim::BatchSim;
use dynbatch::workload::{generate_esp, EspConfig};

/// Runs the dynamic ESP workload to drain and returns the decision log.
fn run_esp(cfg: SchedulerConfig, seed: u64) -> Vec<(SimTime, DynDecision)> {
    let mut reg = CredRegistry::new();
    let mut wl_cfg = EspConfig::paper_dynamic();
    wl_cfg.seed = seed;
    let wl = generate_esp(&wl_cfg, &mut reg);
    let mut sim = BatchSim::new(Cluster::homogeneous(15, 8), cfg);
    sim.load(&wl);
    sim.run();
    assert!(sim.server().is_drained());
    sim.dyn_decision_log().to_vec()
}

/// Cycles that decided two or more requests: the second one is where a
/// cached "before" plan is served instead of recomputed.
fn multi_request_cycles(log: &[(SimTime, DynDecision)]) -> usize {
    log.windows(2).filter(|w| w[0].0 == w[1].0).count()
}

#[test]
fn cached_and_uncached_runs_are_byte_identical() {
    for (label, dfs) in [
        ("Dyn-HP", DfsConfig::highest_priority()),
        (
            "Dyn-500",
            DfsConfig::uniform_target(500, SimDuration::from_hours(1)),
        ),
        (
            "Dyn-100",
            DfsConfig::uniform_target(100, SimDuration::from_hours(1)),
        ),
    ] {
        for seed in [1u64, 2014] {
            let mut cfg = SchedulerConfig::paper_eval();
            cfg.dfs = dfs.clone();
            let log = run_esp(cfg, seed);
            // The workload actually exercises the dynamic path, and the
            // cache: without both the per-cycle assert would be vacuous.
            assert!(
                log.iter().any(|(_, d)| d.is_granted()),
                "{label}/{seed}: no grants"
            );
            assert!(
                multi_request_cycles(&log) > 0,
                "{label}/{seed}: no cycle decided two requests"
            );
        }
    }
}

#[test]
fn preemption_and_shrink_paths_are_cache_invariant() {
    // The grant path that preempts backfilled jobs or shrinks malleable
    // ones mutates the base profile too — the cache must be invalidated
    // there exactly as in the plain-grant path.
    let mut cfg = SchedulerConfig::paper_eval();
    cfg.dfs = DfsConfig::highest_priority();
    cfg.preempt_backfilled_for_dyn = true;
    cfg.shrink_malleable_for_dyn = true;
    cfg.grow_malleable_on_idle = true;
    let log = run_esp(cfg, 7);
    assert!(
        log.iter().any(|(_, d)| matches!(
            d,
            DynDecision::Granted { preempted, .. } if !preempted.is_empty()
        )),
        "no grant preempted a backfilled job"
    );
}
