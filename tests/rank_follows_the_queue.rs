//! A deep-queue cycle costs what changed, not the queue: the scheduler's
//! kept rank order follows the queued set's change log, and walks every
//! entry only when it cannot (a new set identity: a sweep of the slot
//! vector, a requeue, a copy). Exact work counts from
//! `Maui::rank_stats`, over a `BatchSim` run shaped like the
//! `deepq_1200c` benchmark workload (150×8 cores, one submission a
//! second, 1–64 cores, 1–30 min) at a smaller job count. A debug build
//! also holds every cycle equal to `iterate_naive` and the kept order
//! equal to `rank_jobs`.

use dynbatch::cluster::Cluster;
use dynbatch::core::{CredRegistry, DfsConfig, SchedulerConfig, SimDuration};
use dynbatch::sim::BatchSim;
use dynbatch::workload::{generate_synthetic, SyntheticConfig};

#[test]
fn a_deep_queue_cycle_walks_what_changed_not_the_queue() {
    let items = generate_synthetic(
        &SyntheticConfig {
            seed: 31,
            jobs: 1_200,
            users: 32,
            total_cores: 1_200,
            mean_interarrival: SimDuration::from_secs(1),
            runtime_secs: (60, 1_800),
            cores: (1, 64),
            evolving_fraction: 0.3,
            extra_cores: 4,
            det_factor: 0.7,
        },
        &mut CredRegistry::new(),
    );
    let mut cfg = SchedulerConfig::paper_eval();
    cfg.dfs = DfsConfig::uniform_target(500, SimDuration::from_hours(1));
    let mut sim = BatchSim::new(Cluster::homogeneous(150, 8), cfg);
    sim.load(&items);
    // The queue's identity and depth between two steps.
    let queue = |sim: &BatchSim| {
        let snap = sim.server().snapshot(sim.now());
        (snap.queued.identity(), snap.queued.len())
    };
    let (mut identity, mut deepest) = (queue(&sim).0, 0);
    // Whether the step before last and the last step renewed the
    // identity; the order has seen no set before the first cycle.
    let mut renewed = [true, true];
    let mut stats = sim.maui().rank_stats();
    while sim.step() {
        let (now_identity, depth) = queue(&sim);
        renewed = [renewed[1], now_identity != identity];
        identity = now_identity;
        deepest = deepest.max(depth);
        // A cycle sees the identity left by the step before it, or one
        // its own step's events made.
        let before = std::mem::replace(&mut stats, sim.maui().rank_stats());
        assert!(
            stats.fallbacks == before.fallbacks || renewed.contains(&true),
            "cycle {} walked the queue though its identity held: {stats:?}",
            stats.cycles
        );
    }
    assert!(sim.server().is_drained());
    assert!(deepest >= 1_000, "the queue got only {deepest} deep");
    // Every job arrived once (plus once per requeue) and left once.
    let arrivals = items.len() as u64 + sim.stats().preemptions;
    assert!(
        stats.entries_walked - stats.fallback_entries <= 2 * arrivals + stats.boundaries,
        "{stats:?} against {arrivals} arrivals and as many departures"
    );
    assert!(
        stats.fallbacks * 20 < stats.cycles,
        "most cycles follow the log: {stats:?}"
    );
    assert_eq!(
        (stats.evaluations, stats.sorts),
        (0, 0),
        "a FIFO queue: {stats:?}"
    );
}
