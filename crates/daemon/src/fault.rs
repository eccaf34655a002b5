//! Deterministic fault injection for the daemon's channel layer.
//!
//! A [`FaultPlan`] (seeded by [`SplitMix64`]) wraps every daemon-internal
//! channel in a link that can **drop**, **delay**, **duplicate**, and —
//! via delays overtaking each other — **reorder** deliveries, plus
//! schedule mom **crash/restart** events. Delayed and duplicated messages
//! are carried by a postman thread: one loop over a
//! [`dynbatch_simtime::EventQueue`] of deliveries, keyed by milliseconds
//! since the ensemble booted, that waits on its channel until the next
//! delivery is due — the way the server thread waits for its next event.
//! Deliveries leave in deadline order, ties in send order; the thread is
//! joined on shutdown, so even a fault-ridden ensemble leaves zero live
//! threads.
//!
//! ## Fault model (what may happen to which message)
//!
//! | class | messages | faults |
//! |---|---|---|
//! | *expendable* | `PeerMsg` ping/ack fan-out | drop, duplicate, delay |
//! | *sturdy* | everything else | duplicate, delay |
//!
//! Only the dyn_join ping/ack traffic may be dropped, because only it has
//! retransmission (exponential-backoff retries in `mom_main`); dropping a
//! message with no retry path would model a failure the real protocol
//! handles at the TCP layer. Sturdy duplicates are survivable because the
//! receiving state machines are idempotent: the server refuses a
//! duplicated command that no longer applies, and moms ignore acks from
//! completed rounds. Client↔server and app↔mom (TM calls) channels are
//! never faulted — they model in-process or node-local calls, not network
//! hops.
//!
//! Determinism: all randomness comes from streams derived from the plan's
//! seed. Thread interleaving still varies between runs, so a seed pins the
//! *fault pressure*, not an exact trace — the chaos suite asserts
//! interleaving-independent invariants (drain, outcome equivalence, clean
//! shutdown) across many seeds.

use crate::wire::{recv_until, MomMsg, ServerCmd};
use dynbatch_core::SimTime;
use dynbatch_simtime::{EventQueue, SplitMix64};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A seeded fault schedule for one daemon ensemble.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed of every derived randomness stream.
    pub seed: u64,
    /// Drop probability (‰) for expendable (retried) messages.
    pub drop_permille: u32,
    /// Duplicate probability (‰).
    pub dup_permille: u32,
    /// Delay probability (‰); a delayed message may overtake or be
    /// overtaken — this is also the reorder mechanism.
    pub delay_permille: u32,
    /// Upper bound on an injected delay.
    pub max_delay: Duration,
    /// Mom crash/restart schedule: (time after boot, node index).
    pub mom_kills: Vec<(Duration, u32)>,
    /// Server crash/recovery schedule, in journal-record coordinates:
    /// the server daemon crashes at the first command boundary once its
    /// write-ahead journal has appended `after_record` records, then
    /// restarts by snapshot-load + replay.
    pub server_crashes: Vec<ServerCrash>,
    /// Leader kill/failover schedule, in journal-record coordinates: the
    /// leader dies for good at the first command boundary past
    /// `after_record` and the highest-watermark replication follower is
    /// promoted in its place. Ignored when replication is off.
    pub leader_kills: Vec<ServerCrash>,
    /// Faults on the replication stream itself (frame drop/delay/
    /// reorder, follower crashes). `None` = clean stream.
    pub replication: Option<dynbatch_server::replication::ReplFaultPlan>,
}

/// One scheduled server crash, positioned by journal progress rather than
/// wall time so a seed pins *where in the mutation history* the server
/// dies, independent of thread interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerCrash {
    /// Crash once this many journal records have been appended.
    pub after_record: u64,
}

impl FaultPlan {
    /// The zero-fault plan: the harness is engaged (every message routes
    /// through the chaos layer) but no fault ever triggers. Used as the
    /// smoke seed: behaviour must be identical to running without a plan.
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_permille: 0,
            dup_permille: 0,
            delay_permille: 0,
            max_delay: Duration::ZERO,
            mom_kills: Vec::new(),
            server_crashes: Vec::new(),
            leader_kills: Vec::new(),
            replication: None,
        }
    }

    /// A randomized schedule derived entirely from `seed` for an ensemble
    /// of `nodes` moms: moderate drop/dup/delay pressure plus up to two
    /// mom crashes inside the first `horizon` of the run.
    pub fn from_seed(seed: u64, nodes: u32, horizon: Duration) -> Self {
        let mut rng = SplitMix64::new(seed).derive(0x9A7);
        let kills = rng.next_below(3) as usize;
        let mom_kills = (0..kills)
            .map(|_| {
                let at = Duration::from_millis(rng.next_below(horizon.as_millis().max(1) as u64));
                (at, rng.next_below(nodes.max(1) as u64) as u32)
            })
            .collect();
        // Server crash points are drawn *after* every other field so that
        // adding them left the pre-existing derivation (and thus every
        // previously pinned seed's drop/dup/delay pressure) untouched.
        let (drop_permille, dup_permille, delay_permille, max_delay) = (
            rng.next_below(301) as u32,
            rng.next_below(201) as u32,
            rng.next_below(251) as u32,
            Duration::from_millis(5 + rng.next_below(36)),
        );
        let crashes = rng.next_below(3) as usize;
        let mut server_crashes: Vec<ServerCrash> = (0..crashes)
            .map(|_| ServerCrash {
                after_record: 1 + rng.next_below(40),
            })
            .collect();
        server_crashes.sort_by_key(|c| c.after_record);
        server_crashes.dedup();
        FaultPlan {
            seed,
            drop_permille,
            dup_permille,
            delay_permille,
            max_delay,
            mom_kills,
            server_crashes,
            // Replication faults are opt-in (the replication chaos suite
            // builds them explicitly), so pinned seeds keep their exact
            // historical pressure: nothing new is drawn here.
            leader_kills: Vec::new(),
            replication: None,
        }
    }
}

/// A faulted delivery in flight (held by the postman until due).
pub(crate) enum Delivery {
    /// To mom `idx`.
    ToMom(usize, MomMsg),
    /// To the server.
    ToServer(ServerCmd),
}

/// What the postman's channel carries.
enum Post {
    /// Deliver after the delay, counted from when the postman reads it.
    Later(Duration, Delivery),
    /// Stop; pending deliveries are dropped.
    Stop,
}

pub(crate) struct ChaosCore {
    plan: FaultPlan,
    rng: Mutex<SplitMix64>,
    postman: Sender<Post>,
}

impl ChaosCore {
    fn draw_delay(&self, rng: &mut SplitMix64) -> Option<Duration> {
        if !rng.chance_permille(self.plan.delay_permille) {
            return None;
        }
        let max = self.plan.max_delay.as_millis() as u64;
        Some(Duration::from_millis(if max == 0 {
            0
        } else {
            1 + rng.next_below(max)
        }))
    }

    fn post(&self, after: Duration, delivery: Delivery) {
        let _ = self.postman.send(Post::Later(after, delivery));
    }

    /// Routes one message: returns `false` when the message was consumed
    /// (dropped, or handed to the postman); `true` when the caller should
    /// deliver it on the raw channel now.
    fn route(&self, expendable: bool, make: impl Fn() -> Delivery) -> bool {
        let mut rng = self.rng.lock().unwrap();
        if expendable && rng.chance_permille(self.plan.drop_permille) {
            return false; // dropped on the floor
        }
        if rng.chance_permille(self.plan.dup_permille) {
            let extra = self
                .draw_delay(&mut rng)
                .unwrap_or(Duration::from_millis(1));
            self.post(extra, make());
        }
        if let Some(delay) = self.draw_delay(&mut rng) {
            self.post(delay, make());
            return false;
        }
        true
    }
}

/// The per-ensemble chaos engine: owns the postman thread.
pub(crate) struct Chaos {
    core: Arc<ChaosCore>,
    postman: JoinHandle<()>,
}

impl Chaos {
    /// Builds the engine and schedules the plan's mom kills.
    pub(crate) fn start(
        plan: FaultPlan,
        name: &str,
        server_raw: Sender<ServerCmd>,
        mom_raw: Vec<Sender<MomMsg>>,
    ) -> Self {
        let mut queue = EventQueue::new();
        for &(at, node) in &plan.mom_kills {
            queue.schedule(
                SimTime::from_millis(at.as_millis() as u64),
                Delivery::ToMom(node as usize, MomMsg::Crash),
            );
        }
        let (tx, rx) = channel();
        let epoch = Instant::now();
        let postman = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || postman_main(rx, queue, epoch, server_raw, mom_raw))
            .expect("spawn chaos postman");
        let rng = SplitMix64::new(plan.seed).derive(0xFA01);
        Chaos {
            core: Arc::new(ChaosCore {
                plan,
                rng: Mutex::new(rng),
                postman: tx,
            }),
            postman,
        }
    }

    pub(crate) fn core(&self) -> Arc<ChaosCore> {
        Arc::clone(&self.core)
    }

    /// Stops and joins the postman; undelivered faults are discarded.
    pub(crate) fn shutdown(self) {
        let _ = self.core.postman.send(Post::Stop);
        let _ = self.postman.join();
    }
}

/// The postman's thread: hands every due delivery to its raw channel, then
/// waits for the next post or the next deadline. A deadline is computed
/// here, rounded up to whole milliseconds since `epoch` and clamped to the
/// queue's `now()` — never earlier than the delay asked for, never in the
/// queue's past.
fn postman_main(
    rx: Receiver<Post>,
    mut queue: EventQueue<Delivery>,
    epoch: Instant,
    server_raw: Sender<ServerCmd>,
    mom_raw: Vec<Sender<MomMsg>>,
) {
    let mut due = Vec::new();
    loop {
        queue.drain_until(
            SimTime::from_millis(epoch.elapsed().as_millis() as u64),
            &mut due,
        );
        for d in due.drain(..) {
            match d.payload {
                Delivery::ToMom(idx, msg) => {
                    if let Some(tx) = mom_raw.get(idx) {
                        let _ = tx.send(msg);
                    }
                }
                Delivery::ToServer(cmd) => {
                    let _ = server_raw.send(cmd);
                }
            }
        }
        let wake = queue
            .peek_time()
            .map(|at| epoch + Duration::from_millis(at.as_millis()));
        match recv_until(&rx, wake) {
            Ok(Some(Post::Later(after, delivery))) => {
                let ms = (epoch.elapsed() + after).as_micros().div_ceil(1000) as u64;
                queue.schedule(SimTime::from_millis(ms).max(queue.now()), delivery);
            }
            Ok(None) => {}
            Ok(Some(Post::Stop)) | Err(_) => return,
        }
    }
}

/// A (possibly faulted) sender towards one mom.
#[derive(Clone)]
pub(crate) struct MomLink {
    pub(crate) idx: usize,
    raw: Sender<MomMsg>,
    chaos: Option<Arc<ChaosCore>>,
}

impl MomLink {
    pub(crate) fn new(idx: usize, raw: Sender<MomMsg>, chaos: Option<Arc<ChaosCore>>) -> Self {
        MomLink { idx, raw, chaos }
    }

    /// Sends through the fault layer. Control messages ([`MomMsg::Crash`],
    /// [`MomMsg::Shutdown`]) and TM calls ([`MomMsg::Tm`] — an app talking
    /// to its node-local mom, not a network hop) always bypass it.
    pub(crate) fn send(&self, msg: MomMsg) {
        let faultable = !matches!(msg, MomMsg::Crash | MomMsg::Shutdown | MomMsg::Tm { .. });
        match (&self.chaos, faultable) {
            (Some(chaos), true) => {
                let expendable = matches!(msg, MomMsg::Peer(_));
                if chaos.route(expendable, || Delivery::ToMom(self.idx, msg.clone())) {
                    let _ = self.raw.send(msg);
                }
            }
            _ => {
                let _ = self.raw.send(msg);
            }
        }
    }
}

/// A (possibly faulted) sender towards the server.
#[derive(Clone)]
pub(crate) struct ServerLink {
    raw: Sender<ServerCmd>,
    chaos: Option<Arc<ChaosCore>>,
}

impl ServerLink {
    pub(crate) fn new(raw: Sender<ServerCmd>, chaos: Option<Arc<ChaosCore>>) -> Self {
        ServerLink { raw, chaos }
    }

    /// Sends through the fault layer (mom→server traffic is sturdy: never
    /// dropped, possibly delayed or duplicated).
    pub(crate) fn send(&self, cmd: ServerCmd) {
        match &self.chaos {
            Some(chaos) => {
                if chaos.route(false, || Delivery::ToServer(cmd.clone())) {
                    let _ = self.raw.send(cmd);
                }
            }
            None => {
                let _ = self.raw.send(cmd);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fault_plan_never_triggers() {
        let plan = FaultPlan::none(7);
        assert_eq!(plan.drop_permille, 0);
        assert_eq!(plan.dup_permille, 0);
        assert_eq!(plan.delay_permille, 0);
        assert!(plan.mom_kills.is_empty());
        assert!(plan.server_crashes.is_empty());
    }

    #[test]
    fn seeded_plans_are_reproducible_and_bounded() {
        let a = FaultPlan::from_seed(42, 8, Duration::from_millis(400));
        let b = FaultPlan::from_seed(42, 8, Duration::from_millis(400));
        assert_eq!(a.drop_permille, b.drop_permille);
        assert_eq!(a.mom_kills, b.mom_kills);
        assert_eq!(a.server_crashes, b.server_crashes);
        let mut seeds_with_crashes = 0;
        for seed in 0..200 {
            let p = FaultPlan::from_seed(seed, 4, Duration::from_millis(300));
            assert!(p.drop_permille <= 300);
            assert!(p.dup_permille <= 200);
            assert!(p.delay_permille <= 250);
            assert!(p.max_delay <= Duration::from_millis(40));
            assert!(p.mom_kills.len() <= 2);
            for &(at, node) in &p.mom_kills {
                assert!(at < Duration::from_millis(300));
                assert!(node < 4);
            }
            assert!(p.server_crashes.len() <= 2);
            assert!(p
                .server_crashes
                .windows(2)
                .all(|w| w[0].after_record < w[1].after_record));
            for c in &p.server_crashes {
                assert!((1..=40).contains(&c.after_record));
            }
            seeds_with_crashes += usize::from(!p.server_crashes.is_empty());
        }
        // The stream really exercises server crashes across the seed space.
        assert!(seeds_with_crashes > 50, "{seeds_with_crashes}");
    }

    #[test]
    fn zero_fault_links_deliver_immediately_and_in_order() {
        let (server_tx, server_rx) = std::sync::mpsc::channel();
        let (mom_tx, mom_rx) = std::sync::mpsc::channel();
        let chaos = Chaos::start(
            FaultPlan::none(1),
            "t.chaos0",
            server_tx.clone(),
            vec![mom_tx.clone()],
        );
        let link = MomLink::new(0, mom_tx, Some(chaos.core()));
        let slink = ServerLink::new(server_tx, Some(chaos.core()));
        for i in 0..50u64 {
            link.send(MomMsg::FromServer(dynbatch_server::ServerToMom::KillJob {
                job: dynbatch_core::JobId(i),
            }));
            slink.send(ServerCmd::MomRestarted(dynbatch_core::NodeId(i as u32)));
        }
        for i in 0..50u64 {
            match mom_rx.try_recv().expect("synchronous delivery") {
                MomMsg::FromServer(dynbatch_server::ServerToMom::KillJob { job }) => {
                    assert_eq!(job.0, i)
                }
                other => panic!("{other:?}"),
            }
            match server_rx.try_recv().expect("synchronous delivery") {
                ServerCmd::MomRestarted(node) => assert_eq!(u64::from(node.0), i),
                other => panic!("{other:?}"),
            }
        }
        chaos.shutdown();
    }

    /// The postman delivers in deadline order, equal deadlines in send
    /// order, and shutdown joins it at once while a far-future delivery is
    /// still pending (that delivery is dropped).
    #[test]
    fn postman_keeps_deadline_then_send_order_and_joins_on_shutdown() {
        let (server_tx, server_rx) = std::sync::mpsc::channel();
        let chaos = Chaos::start(FaultPlan::none(1), "t.post", server_tx, Vec::new());
        let core = chaos.core();
        let post = |ms: u64, node: u32| {
            core.post(
                Duration::from_millis(ms),
                Delivery::ToServer(ServerCmd::MomRestarted(dynbatch_core::NodeId(node))),
            )
        };
        let next = || match server_rx.recv_timeout(Duration::from_secs(2)) {
            Ok(ServerCmd::MomRestarted(node)) => node.0,
            other => panic!("{other:?}"),
        };
        for (ms, node) in [(60, 3), (10, 1), (30, 2)] {
            post(ms, node);
        }
        assert_eq!([next(), next(), next()], [1, 2, 3], "deadline order");
        for node in 0..5 {
            post(20, node);
        }
        let ties: Vec<u32> = (0..5).map(|_| next()).collect();
        assert_eq!(ties, [0, 1, 2, 3, 4], "equal deadlines leave in send order");
        post(600_000, 99);
        let t0 = std::time::Instant::now();
        drop(core);
        chaos.shutdown();
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
        assert!(server_rx.try_recv().is_err(), "a pending delivery leaked");
    }

    #[test]
    fn dropping_plan_loses_only_expendable_messages() {
        let (server_tx, server_rx) = std::sync::mpsc::channel();
        let (mom_tx, mom_rx) = std::sync::mpsc::channel();
        let mut plan = FaultPlan::none(3);
        plan.drop_permille = 1000; // drop every droppable message
        let chaos = Chaos::start(plan, "t.chaos1", server_tx.clone(), vec![mom_tx.clone()]);
        let link = MomLink::new(0, mom_tx, Some(chaos.core()));
        let slink = ServerLink::new(server_tx, Some(chaos.core()));
        link.send(MomMsg::Peer(crate::wire::PeerMsg::JoinAck {
            job: dynbatch_core::JobId(1),
            round: 0,
            from: dynbatch_core::NodeId(2),
        }));
        slink.send(ServerCmd::MomRestarted(dynbatch_core::NodeId(1)));
        assert!(mom_rx.try_recv().is_err(), "peer message dropped");
        assert!(server_rx.try_recv().is_ok(), "sturdy message survived");
        chaos.shutdown();
    }
}
