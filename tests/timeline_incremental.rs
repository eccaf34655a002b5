//! End-to-end rebuild-equivalence for the incremental availability
//! timeline (`dynbatch::sched::incremental`).
//!
//! The delta-maintained base profile is a pure optimisation: a simulator
//! run on it must take byte-identical scheduling decisions — every grant,
//! delay charge, start and reservation — as a scheduler that rebuilds the
//! profile from `Snapshot::running` each iteration. That scheduler is
//! `sched::reference::iterate_naive`, and the comparison happens inside
//! `Maui::iterate`: a debug build asserts the maintained profile
//! byte-equal to the rebuild and the whole outcome equal to the
//! reference's on every cycle. The runs here put each variant through
//! those asserts — preemption, malleable shrink/grow, the dynamic
//! partition (including its re-expansion after over-freeing grants), the
//! guaranteeing policy, negotiation deferrals, and node fail/repair (the
//! capacity-change rebuild path) — and check the delta path carried them.
//! In a release build `prop_maui` and `perf_smoke` carry the comparison.

use dynbatch::cluster::Cluster;
use dynbatch::core::{CredRegistry, DfsConfig, NodeId, SchedulerConfig, SimDuration, SimTime};
use dynbatch::sched::{DynDecision, TimelineStats};
use dynbatch::sim::BatchSim;
use dynbatch::workload::{generate_esp, EspConfig, WorkloadItem};

struct RunResult {
    dyn_log: Vec<(SimTime, DynDecision)>,
    stats: TimelineStats,
}

/// Runs `wl` to drain, optionally injecting node failures/repairs.
fn run(
    cfg: SchedulerConfig,
    wl: &[WorkloadItem],
    faults: &[(u64, u32)],
    repairs: &[(u64, u32)],
) -> RunResult {
    let mut sim = BatchSim::new(Cluster::homogeneous(15, 8), cfg);
    sim.load(wl);
    for &(at, node) in faults {
        sim.inject_failure(SimTime::from_secs(at), NodeId(node));
    }
    for &(at, node) in repairs {
        sim.inject_repair(SimTime::from_secs(at), NodeId(node));
    }
    sim.run();
    assert!(sim.server().is_drained());
    RunResult {
        dyn_log: sim.dyn_decision_log().to_vec(),
        stats: sim.maui().timeline_stats(),
    }
}

fn esp_workload(seed: u64) -> Vec<WorkloadItem> {
    let mut reg = CredRegistry::new();
    let mut wl_cfg = EspConfig::paper_dynamic();
    wl_cfg.seed = seed;
    generate_esp(&wl_cfg, &mut reg)
}

/// The ESP workload without its full-machine Z jobs — for variants where
/// capacity is reduced (failed nodes) or permanently partitioned, under
/// which a 120-core job could never submit or start.
fn esp_workload_partial(seed: u64) -> Vec<WorkloadItem> {
    let mut wl = esp_workload(seed);
    wl.retain(|item| item.spec.cores < 120);
    wl
}

#[test]
fn incremental_and_rebuild_runs_are_byte_identical() {
    for (label, dfs) in [
        ("Dyn-HP", DfsConfig::highest_priority()),
        (
            "Dyn-500",
            DfsConfig::uniform_target(500, SimDuration::from_hours(1)),
        ),
    ] {
        for seed in [1u64, 2014] {
            let mut cfg = SchedulerConfig::paper_eval();
            cfg.dfs = dfs.clone();
            let inc = run(cfg, &esp_workload(seed), &[], &[]);

            assert!(
                inc.dyn_log.iter().any(|(_, d)| d.is_granted()),
                "{label}/{seed}: no grants — the comparison would be vacuous"
            );
            // The fast path actually carried the run: exactly the first
            // iteration rebuilt (no capacity changes here), the rest
            // applied deltas.
            assert_eq!(inc.stats.rebuilds, 1, "{label}/{seed}: extra rebuilds");
            assert!(inc.stats.delta_batches > 0 && inc.stats.deltas_applied > 0);
        }
    }
}

#[test]
fn feature_variants_are_equivalent() {
    type Tweak = Box<dyn Fn(&mut SchedulerConfig)>;
    let variants: Vec<(&str, Tweak)> = vec![
        (
            "preempt+shrink+grow",
            Box::new(|c: &mut SchedulerConfig| {
                c.preempt_backfilled_for_dyn = true;
                c.shrink_malleable_for_dyn = true;
                c.grow_malleable_on_idle = true;
            }),
        ),
        (
            "guaranteeing",
            Box::new(|c: &mut SchedulerConfig| c.guarantee_evolving = true),
        ),
    ];
    for (label, tweak) in variants {
        let mut cfg = SchedulerConfig::paper_eval();
        cfg.dfs = DfsConfig::highest_priority();
        tweak(&mut cfg);
        let inc = run(cfg, &esp_workload(7), &[], &[]);
        assert_eq!(inc.stats.rebuilds, 1, "{label}: extra rebuilds");
        assert!(inc.stats.delta_batches > 0, "{label}: no delta batch");
    }
}

#[test]
fn dynamic_partition_variant_is_equivalent() {
    // A permanent dynamic partition (plus preemption, which over-frees
    // cores and triggers the partition's re-expansion) — full-machine
    // jobs excluded since they can never start beside the partition.
    let mut cfg = SchedulerConfig::paper_eval();
    cfg.dfs = DfsConfig::highest_priority();
    cfg.dyn_partition_cores = 16;
    cfg.preempt_backfilled_for_dyn = true;
    let inc = run(cfg, &esp_workload_partial(7), &[], &[]);
    assert_eq!(inc.stats.rebuilds, 1, "dyn-partition: extra rebuilds");
    assert!(inc.dyn_log.iter().any(|(_, d)| d.is_granted()));
}

#[test]
fn negotiation_deferrals_are_equivalent() {
    // Give every evolving job a negotiation window so requests are
    // deferred and retried across iterations (server state changes with
    // no running-set delta — the log must stay consistent through them).
    let mut wl = esp_workload(11);
    for item in &mut wl {
        if item.spec.exec.extra_cores() > 0 {
            item.spec.dyn_timeout = Some(SimDuration::from_secs(1800));
        }
    }
    let mut cfg = SchedulerConfig::paper_eval();
    cfg.dfs = DfsConfig::uniform_target(100, SimDuration::from_hours(1));
    let inc = run(cfg, &wl, &[], &[]);
    assert_eq!(inc.stats.rebuilds, 1, "negotiation: extra rebuilds");
    assert!(
        inc.dyn_log
            .iter()
            .any(|(_, d)| matches!(d, DynDecision::Deferred { .. })),
        "no request was deferred"
    );
}

#[test]
fn fault_injection_rebuild_path_is_equivalent() {
    // Node failures requeue victims and change capacity; repairs change
    // capacity again. Each capacity change invalidates the delta stream —
    // the timeline must fall back to a rebuild and then resume applying
    // deltas, staying byte-identical throughout.
    let faults = [(3_000u64, 3u32), (20_000, 7)];
    let repairs = [(40_000u64, 3u32), (60_000, 7)];
    let mut cfg = SchedulerConfig::paper_eval();
    cfg.dfs = DfsConfig::highest_priority();
    let inc = run(cfg, &esp_workload_partial(5), &faults, &repairs);
    // Initial rebuild plus one per capacity-changing drain.
    assert!(
        inc.stats.rebuilds >= 3,
        "capacity changes must force rebuilds (saw {})",
        inc.stats.rebuilds
    );
    assert!(
        inc.stats.delta_batches > 0,
        "the fast path must resume after each rebuild"
    );
}
