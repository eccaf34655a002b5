//! Replicated-ensemble driver: a [`BatchSim`] leader streaming its
//! journal to hot-standby followers after every event step.
//!
//! [`ReplicatedSim`] wraps an already-journaled [`BatchSim`] and a
//! [`ReplicationHub`], pumping the stream at every `step()` so follower
//! lag is bounded by one event's worth of records (plus whatever the
//! fault plan withholds). It tracks the worst observed append→apply lag
//! and can force convergence ([`ReplicatedSim::converge`]) to check the
//! replica-equivalence invariant: once a follower's watermark reaches
//! the leader's `total_appended`, its encoded image must be byte-equal to
//! the leader's — same contract the server-side chaos suite pins, here
//! exercised against month-scale workload replay.

use crate::batch_sim::BatchSim;
use dynbatch_core::codec::to_bytes;
use dynbatch_server::replication::{HubConfig, ReplicationHub};

/// Summary counters of a replicated run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplicaStats {
    /// Event steps driven.
    pub steps: u64,
    /// Worst observed `total_appended - min(follower watermark)` right
    /// after a pump (0 when every follower was fully caught up at every
    /// step).
    pub max_lag: u64,
    /// Journal records appended by the leader over the run.
    pub leader_appended: u64,
}

/// A [`BatchSim`] leader plus a follower ensemble fed from its journal.
pub struct ReplicatedSim {
    sim: BatchSim,
    hub: ReplicationHub,
    stats: ReplicaStats,
    pump_stride: u64,
}

impl ReplicatedSim {
    /// Wraps `sim` (which must already have its journal enabled — the
    /// stream is the journal) with `followers` hot standbys.
    ///
    /// # Panics
    ///
    /// Panics if `sim` has no journal.
    pub fn new(sim: BatchSim, followers: u32, cfg: HubConfig) -> Self {
        assert!(
            sim.server().journal().is_some(),
            "ReplicatedSim requires an enabled journal (call enable_journal first)"
        );
        let mut hub = ReplicationHub::new(cfg);
        for i in 0..followers {
            hub.add_follower(&format!("simrep{i}"));
        }
        let mut rs = ReplicatedSim {
            sim,
            hub,
            stats: ReplicaStats::default(),
            pump_stride: 1,
        };
        rs.pump();
        rs
    }

    /// Pumps the stream every `n` event steps instead of every step
    /// (minimum 1, the default). A batched cadence trades follower lag —
    /// still bounded, still measured in `max_lag` — for a cheaper leader
    /// hot path; the repo benchmark uses it to mirror a group-commit
    /// streaming interval.
    pub fn set_pump_stride(&mut self, n: u64) {
        self.pump_stride = n.max(1);
    }

    /// One leader event step followed by a stream pump; returns `false`
    /// once the event queue is exhausted.
    pub fn step(&mut self) -> bool {
        let more = self.sim.step();
        self.stats.steps += 1;
        if self.stats.steps.is_multiple_of(self.pump_stride) || !more {
            self.pump();
        }
        more
    }

    /// Drives the simulation to completion.
    pub fn run(&mut self) {
        while self.step() {}
    }

    fn pump(&mut self) {
        // Pin compaction behind the replicated watermark: records the
        // followers have not confirmed stay streamable as plain records,
        // so a hot follower crosses compaction via a Mark frame instead
        // of a full snapshot transfer.
        if let Some(w) = self.hub.replicated_watermark() {
            self.sim.journal_retain_from(w + 1);
        }
        self.hub.pump(self.sim.server());
        let appended = self.appended();
        self.stats.leader_appended = appended;
        if let Some(w) = self.hub.replicated_watermark() {
            self.stats.max_lag = self.stats.max_lag.max(appended.saturating_sub(w));
        }
    }

    fn appended(&self) -> u64 {
        self.sim
            .server()
            .journal()
            .map(|j| j.total_appended())
            .unwrap_or(0)
    }

    /// Pumps until every live follower has applied the full journal, then
    /// verifies each follower's encoded image is byte-identical to the
    /// leader's. Errors on divergence, a dead ensemble, or a wedged
    /// stream.
    pub fn converge(&mut self) -> Result<(), String> {
        let target = self.appended();
        for round in 0.. {
            if round > 100_000 {
                return Err(format!(
                    "stream wedged: watermark {:?} never reached {target}",
                    self.hub.replicated_watermark()
                ));
            }
            let report = self.hub.pump(self.sim.server());
            if !report.errors.is_empty() {
                return Err(report.errors.join("; "));
            }
            // Batched-ack configs poll watermarks only every few pumps;
            // convergence needs fresh visibility each round.
            self.hub.refresh_acks();
            match self.hub.replicated_watermark() {
                None => return Err("no live followers".into()),
                Some(w) if w >= target => break,
                Some(_) => {}
            }
        }
        let leader = to_bytes(&self.sim.server().image());
        for (idx, name) in self.hub.follower_names().iter().enumerate() {
            match self.hub.follower_image(idx) {
                Some(image) if image == leader => {}
                Some(_) => return Err(format!("follower {name} diverged from leader")),
                None => {} // dead or crashed by the fault plan — not a divergence
            }
        }
        Ok(())
    }

    /// Run counters (steps, worst lag, leader appended).
    pub fn stats(&self) -> ReplicaStats {
        self.stats
    }

    /// The leader simulation.
    pub fn sim(&self) -> &BatchSim {
        &self.sim
    }

    /// The follower hub (watermarks, reads, failover).
    pub fn hub(&mut self) -> &mut ReplicationHub {
        &mut self.hub
    }

    /// Stops the follower threads and returns the leader simulation.
    pub fn shutdown(mut self) -> BatchSim {
        self.hub.shutdown();
        self.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynbatch_cluster::Cluster;
    use dynbatch_core::{CredRegistry, SchedulerConfig};
    use dynbatch_server::replication::ReplFaultPlan;
    use dynbatch_workload::{generate_synthetic, SyntheticConfig};

    fn seeded_sim(jobs: usize) -> BatchSim {
        let cfg = SyntheticConfig {
            jobs,
            ..SyntheticConfig::default()
        };
        let mut reg = CredRegistry::default();
        let items = generate_synthetic(&cfg, &mut reg);
        let mut sim = BatchSim::new(Cluster::homogeneous(15, 8), SchedulerConfig::paper_eval());
        sim.enable_journal(0);
        sim.load(&items);
        sim
    }

    #[test]
    fn replicated_run_converges_clean() {
        let mut rs = ReplicatedSim::new(seeded_sim(40), 2, HubConfig::default());
        rs.run();
        rs.converge()
            .expect("followers converge to the leader image");
        let stats = rs.stats();
        assert!(stats.leader_appended > 40, "journal grew past submissions");
        rs.shutdown();
    }

    #[test]
    fn replicated_run_converges_under_faults() {
        let cfg = HubConfig {
            faults: ReplFaultPlan::from_seed(0xFACE, 2, 0),
            ..HubConfig::default()
        };
        let mut rs = ReplicatedSim::new(seeded_sim(40), 2, cfg);
        rs.run();
        rs.converge().expect("faulty stream still converges");
        rs.shutdown();
    }

    /// The group-commit perf posture all at once — compacting journal,
    /// batched watermark polls, strided pumps — with a compaction
    /// interval small enough that the stream crosses many snapshot
    /// boundaries. Regression guard for the seeding livelock: a fresh
    /// (stateless) follower must be seeded with an installable snapshot
    /// image, never a Mark frame it cannot cross.
    #[test]
    fn replicated_run_converges_batched_over_compactions() {
        let cfg = SyntheticConfig {
            jobs: 200,
            ..SyntheticConfig::default()
        };
        let mut reg = CredRegistry::default();
        let items = generate_synthetic(&cfg, &mut reg);
        let mut sim = BatchSim::new(Cluster::homogeneous(15, 8), SchedulerConfig::paper_eval());
        sim.enable_journal(64);
        sim.load(&items);
        let mut rs = ReplicatedSim::new(
            sim,
            2,
            HubConfig {
                digest_every: 0,
                ack_every: 64,
                ..HubConfig::default()
            },
        );
        rs.set_pump_stride(16);
        rs.run();
        rs.converge()
            .expect("batched cadence converges over compactions");
        rs.shutdown();
    }
}
