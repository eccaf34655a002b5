//! Replicated-ensemble driver: a [`BatchSim`] leader streaming its
//! journal to hot-standby followers after every event step.
//!
//! [`ReplicatedSim`] wraps an already-journaled [`BatchSim`] and a
//! [`ReplicationHub`], pumping the stream at every `step()` so follower
//! lag is bounded by one event's worth of records. It tracks the worst
//! observed append→apply lag and can force convergence
//! ([`ReplicatedSim::converge`]) to check the replica-equivalence
//! invariant: once a follower's watermark reaches the leader's
//! `total_appended`, its encoded image must be byte-equal to the
//! leader's — same contract the server-side chaos suite pins, here
//! exercised against month-scale workload replay.
//!
//! Each follower runs on a thread of its own (`simrep{i}`), because a
//! follower is another machine: its applies are not the leader's work.
//! These are the only follower threads there are.

use crate::batch_sim::BatchSim;
use dynbatch_core::codec::to_bytes;
use dynbatch_server::replication::{
    Follower, FollowerLink, HubConfig, ReplicationHub, WatermarkReply,
};
use dynbatch_server::PbsServer;
use std::sync::mpsc::{channel, Sender};
use std::thread::{self, JoinHandle};

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

/// Work for a follower thread, run there in send order.
type Job = Box<dyn FnOnce(&mut Follower) + Send>;

/// A [`Follower`] on its own thread. A read is a round trip queued behind
/// every run sent before it, so it sees what the follower has applied of
/// them. Dropping the link ends the thread and joins it.
pub struct Remote {
    tx: Option<Sender<Job>>,
    join: Option<JoinHandle<()>>,
}

impl Remote {
    /// Spawns a follower thread named `name`.
    fn spawn(name: &str) -> Remote {
        let (tx, rx) = channel::<Job>();
        let serve = move || {
            let mut follower = Follower::new();
            rx.into_iter().for_each(|job| job(&mut follower));
        };
        let join = thread::Builder::new().name(name.to_owned()).spawn(serve);
        let join = join.expect("spawn follower thread");
        Remote {
            tx: Some(tx),
            join: Some(join),
        }
    }

    /// Queues `job` for the follower thread; `false` once it is gone.
    fn post(&self, job: impl FnOnce(&mut Follower) + Send + 'static) -> bool {
        let tx = self.tx.as_ref();
        tx.is_some_and(|tx| tx.send(Box::new(job)).is_ok())
    }

    /// Runs `read` on the follower thread and waits for its answer.
    fn call<T: Send + 'static>(
        &self,
        read: impl FnOnce(&mut Follower) -> Option<T> + Send + 'static,
    ) -> Option<T> {
        let (tx, rx) = channel();
        self.post(move |follower| {
            let _ = tx.send(read(follower));
        });
        rx.recv().ok()? // a gone thread drops `tx`, and the wait ends
    }
}

impl FollowerLink for Remote {
    fn send(&mut self, run: Vec<u8>) -> bool {
        self.post(move |follower| {
            follower.send(run);
        })
    }

    fn ack(&mut self) -> Option<WatermarkReply> {
        self.call(|follower| follower.ack())
    }

    fn image(&mut self) -> Option<Vec<u8>> {
        self.call(|follower| follower.image_bytes())
    }

    fn promote(self) -> Option<(PbsServer, u64)> {
        self.call(|follower| follower.take_promoted())
    }
}

impl Drop for Remote {
    fn drop(&mut self) {
        drop(self.tx.take()); // the thread's receive loop ends
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// A [`BatchSim`] leader plus a follower ensemble fed from its journal.
pub struct ReplicatedSim {
    sim: BatchSim,
    hub: ReplicationHub<Remote>,
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
            let name = format!("simrep{i}");
            hub.add_follower(&name, Remote::spawn(&name));
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
        self.sim.stream_to(&mut self.hub);
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
        if !self.hub.await_replicated(self.sim.server(), target) {
            let w = self.hub.replicated_watermark();
            return Err(format!(
                "stream wedged: watermark {w:?} never reached {target}"
            ));
        }
        let errors = self.hub.pump(self.sim.server());
        if !errors.is_empty() {
            return Err(errors.join("; "));
        }
        if self.hub.replicated_watermark().is_none() {
            return Err("no live followers".into());
        }
        let leader = to_bytes(&self.sim.server().image());
        for (idx, name) in self.hub.follower_names().iter().enumerate() {
            match self.hub.follower_image(idx) {
                Some(image) if image == leader => {}
                Some(_) => return Err(format!("follower {name} diverged from leader")),
                None => {} // dead: not a divergence
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
    pub fn hub(&mut self) -> &mut ReplicationHub<Remote> {
        &mut self.hub
    }

    /// Stops the follower threads, joins them, and returns the leader
    /// simulation.
    pub fn shutdown(self) -> BatchSim {
        drop(self.hub);
        self.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynbatch_cluster::Cluster;
    use dynbatch_core::{CredRegistry, SchedulerConfig};
    use dynbatch_workload::{generate_synthetic, SyntheticConfig};
    use std::sync::Mutex;

    /// The tests here run one at a time: each counts the follower
    /// threads alive.
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

    /// Follower threads of this process alive now.
    fn follower_threads() -> usize {
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return 0; // not Linux: nothing to count
        };
        let comm = |t: std::fs::DirEntry| std::fs::read_to_string(t.path().join("comm"));
        let names = tasks.flatten().filter_map(|t| comm(t).ok());
        names.filter(|name| name.starts_with("simrep")).count()
    }

    fn seeded_sim(jobs: usize, snapshot_every: usize) -> BatchSim {
        let cfg = SyntheticConfig {
            jobs,
            ..SyntheticConfig::default()
        };
        let mut reg = CredRegistry::default();
        let items = generate_synthetic(&cfg, &mut reg);
        let mut sim = BatchSim::new(Cluster::homogeneous(15, 8), SchedulerConfig::paper_eval());
        sim.enable_journal(snapshot_every);
        sim.load(&items);
        sim
    }

    #[test]
    fn replicated_run_converges_clean() {
        let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        let mut rs = ReplicatedSim::new(seeded_sim(40, 0), 2, HubConfig::default());
        rs.run();
        rs.converge()
            .expect("followers converge to the leader image");
        let stats = rs.stats();
        assert!(stats.leader_appended > 40, "journal grew past submissions");
        rs.shutdown();
    }

    /// The group-commit perf posture all at once — compacting journal,
    /// batched watermark reads, strided pumps — with a compaction
    /// interval small enough that the stream crosses many snapshot
    /// boundaries: it converges, on one thread per follower, and leaves
    /// no thread behind. Also the regression guard for the seeding
    /// livelock: a fresh (stateless) follower must be seeded with an
    /// installable snapshot image, never a Mark frame it cannot cross.
    #[test]
    fn batched_run_converges_over_compactions_and_leaves_no_thread() {
        let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        let cfg = HubConfig {
            digest_every: 0,
            ack_every: 64,
        };
        let mut rs = ReplicatedSim::new(seeded_sim(200, 64), 2, cfg);
        rs.set_pump_stride(16);
        rs.run();
        rs.converge()
            .expect("batched cadence converges over compactions");
        // Each thread has answered a read by now, so it has named itself.
        assert_eq!(follower_threads(), 2);
        assert_eq!(rs.hub().stats().resends, 0, "nothing was lost");
        rs.shutdown();
        assert_eq!(follower_threads(), 0, "a follower thread outlived shutdown");
    }
}
