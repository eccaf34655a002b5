//! The ensemble and its one loop, and fault injection, in virtual time
//! only.
//!
//! An `Ensemble` is the server daemon, one mom daemon per node, one
//! seeded net between them and one inbox. Every daemon-to-daemon message
//! goes through the net's queue of deliveries. Clients — reactor
//! connections, TM calls with their reply `Sender`, observation requests
//! — write every input into the inbox, which the ensemble reads in send
//! order. The ensemble always steps the earlier of the next delivery and
//! the next daemon deadline, a deadline first on a tie, each at its
//! instant. Two clocks drive it:
//!
//! - [`DaemonHandle::simulate`] steps it on the caller's thread, in
//!   virtual time. It reads the inbox once nothing more is due at the
//!   current instant, so an input lands after every message sent before
//!   it. A call on the handle steps the ensemble until its answer
//!   arrives, so the caller never sleeps.
//! - [`DaemonHandle::start`] paces it against the wall clock on its own
//!   thread (`Ensemble::pace`), with [`FaultPlan::none`]. The thread
//!   sleeps on the inbox until the next deadline or delivery is due. It
//!   steps each of those at its due instant and each client input at the
//!   wall instant it is read.
//!
//! Every fault of the deployment is in one [`FaultPlan`], seeded by
//! [`SplitMix64`], which only `simulate` takes. In the net's queue the
//! plan may **drop**, **delay** and **duplicate** a delivery. Delays overtake each other, which **reorders**
//! deliveries; mom **crash/restart** events are deliveries too. A message
//! with no fault arrives at its send instant, in send order. The server
//! **crashes** at the plan's journal-record points — with followers each
//! is a leader kill —, and the plan's rates and follower crashes fault
//! the replication stream.
//!
//! ## Fault model (what may happen to which message)
//!
//! | class | messages | faults |
//! |---|---|---|
//! | *expendable* | `PeerMsg` ping/ack fan-out | drop, duplicate, delay |
//! | *sturdy* | every other daemon message | duplicate, delay |
//! | *replication* | journal frames, leader → follower | drop, delay one pump, reorder a pump's batch |
//!
//! Only the dyn_join ping/ack traffic and the replication frames may be
//! dropped: only they are retransmitted (exponential-backoff retries at
//! the mother superior; go-back-N from the acked watermark at the hub).
//! Dropping any other message would model a loss with no retry path.
//! The frames take the plan's rates: `drop_permille` drops a frame,
//! `delay_permille` defers one a pump and shuffles a pump's batch. The
//! follower threads stay: each watermark read is a synchronous round trip
//! queued behind the frames, so the stream is one trace per seed too.
//! Every message may arrive twice and out of order. The receiving end
//! absorbs that: an ack counts once per acker and round, and every sturdy
//! message is numbered on its link and applied once, in send order (the
//! link rule, `wire::Link`) — a mom and the server see what one FIFO
//! channel would have delivered. Client↔server and app↔mom (TM call)
//! channels are never faulted — they model in-process or node-local
//! calls, not network hops.
//!
//! Determinism: each daemon is single-threaded and talks only by message,
//! so the only thing threads could interleave is delivery order — and
//! here that order is the queue's. Every draw comes from the plan's seed,
//! so one seed is one exact trace: the same deliveries, journal and final
//! server image on every run.

use crate::daemon::{DaemonConfig, DaemonHandle, Door, Driver, ServerDaemon};
use crate::mom::MomDaemon;
use crate::wire::{recv_until, Delivery, MomMsg, Net, ServerCmd};
use dynbatch_cluster::Allocation;
use dynbatch_core::{JobId, NodeId, SimDuration, SimTime};
use dynbatch_server::replication::{FollowerCrash, HubConfig};
use dynbatch_server::{PbsServer, Reactor, ReactorClient, Reply};
use dynbatch_simtime::{EventQueue, SplitMix64};
use std::cell::{Ref, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every fault of one virtual ensemble, seeded: the net's, the daemons'
/// crashes and the replication stream's. The default is
/// [`FaultPlan::none`]`(0)`.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed of every derived randomness stream.
    pub seed: u64,
    /// Drop probability (‰) for expendable (retried) messages and frames.
    pub drop_permille: u32,
    /// Duplicate probability (‰), for every daemon message.
    pub dup_permille: u32,
    /// Delay probability (‰); a delayed message may overtake or be
    /// overtaken — this is also the reorder mechanism.
    pub delay_permille: u32,
    /// Upper bound on an injected delay.
    pub max_delay: SimDuration,
    /// Mom crash/restart schedule: (instant, node index).
    pub mom_kills: Vec<(SimTime, u32)>,
    /// Server crash points, in journal-record coordinates.
    /// Without followers the server restarts by snapshot-load + replay;
    /// with them the leader dies for good and the highest-watermark
    /// follower is promoted in its place (with none left, the server
    /// recovers from its journal).
    pub server_crashes: Vec<ServerCrash>,
    /// Follower crash points (state dropped, re-seeded by the hub), in
    /// the leader's journal-record coordinates.
    pub follower_crashes: Vec<FollowerCrash>,
}

/// One scheduled server crash, positioned by journal progress rather than
/// time: the server crashes at the first command boundary once its
/// write-ahead journal has appended `after_record` records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerCrash {
    /// Crash once this many journal records have been appended.
    pub after_record: u64,
}

impl FaultPlan {
    /// The zero-fault plan: every message goes through the virtual net,
    /// none is ever faulted.
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// A randomized schedule derived entirely from `seed` for `config`'s
    /// deployment: up to two mom crashes inside the first `horizon`,
    /// moderate drop/dup/delay pressure, up to two server crash points
    /// and a possible crash of each follower. A new draw goes after all
    /// existing ones, so a seed keeps the faults it had.
    pub fn from_seed(seed: u64, config: &DaemonConfig, horizon: SimDuration) -> Self {
        let mut rng = SplitMix64::new(seed).derive(0x9A7);
        let kills = rng.next_below(3) as usize;
        let mom_kills = (0..kills)
            .map(|_| {
                let at = SimTime::from_millis(rng.next_below(horizon.as_millis().max(1)));
                (at, rng.next_below(config.nodes.max(1) as u64) as u32)
            })
            .collect();
        let mut plan = FaultPlan {
            seed,
            drop_permille: rng.next_below(301) as u32,
            dup_permille: rng.next_below(201) as u32,
            delay_permille: rng.next_below(251) as u32,
            max_delay: SimDuration::from_millis(5 + rng.next_below(36)),
            mom_kills,
            ..FaultPlan::default()
        };
        let crashes = rng.next_below(3) as usize;
        plan.server_crashes = (0..crashes)
            .map(|_| ServerCrash {
                after_record: 1 + rng.next_below(40),
            })
            .collect();
        plan.server_crashes.sort_by_key(|c| c.after_record);
        plan.server_crashes.dedup();
        for follower in 0..config.followers as usize {
            if rng.chance_permille(300) {
                let after_record = 1 + rng.next_below(40);
                let crash = FollowerCrash {
                    follower,
                    after_record,
                };
                plan.follower_crashes.push(crash);
            }
        }
        plan
    }

    /// The replication stream's configuration. Its frames are expendable,
    /// so the plan's drop rate drops them, and its delay rate defers them
    /// a pump and shuffles a pump's batch. A watermark is read only where
    /// one is needed — an ack, a held grant, a follower that holds
    /// nothing, a failover, a status query — each of which forces the
    /// round trip itself.
    pub(crate) fn stream(&self) -> HubConfig {
        let mut hub = HubConfig {
            ack_every: u64::MAX,
            ..HubConfig::default()
        };
        hub.faults.seed = self.seed;
        hub.faults.drop_permille = self.drop_permille;
        hub.faults.delay_permille = self.delay_permille;
        hub.faults.reorder_permille = self.delay_permille;
        hub.faults.follower_crashes = self.follower_crashes.clone();
        hub
    }
}

/// What the virtual net holds: every delivery in flight, the fault plan
/// and its draws, and the ensemble's clock.
pub(crate) struct NetState {
    queue: EventQueue<Delivery>,
    plan: FaultPlan,
    rng: SplitMix64,
    now: SimTime,
    delivered: u64,
}

impl NetState {
    fn draw_delay(&mut self) -> Option<SimDuration> {
        if !self.rng.chance_permille(self.plan.delay_permille) {
            return None;
        }
        let max = self.plan.max_delay.as_millis();
        let ms = (max > 0).then(|| 1 + self.rng.next_below(max));
        Some(SimDuration::from_millis(ms.unwrap_or(0)))
    }
}

/// The ensemble's handle on its virtual net: every daemon sends through a
/// clone of it.
#[derive(Clone)]
pub(crate) struct VirtualNet(Rc<RefCell<NetState>>);

impl VirtualNet {
    /// A net at time zero faulted by `plan`, its mom kills in flight.
    fn new(plan: FaultPlan) -> Self {
        let mut queue = EventQueue::new();
        for &(at, node) in &plan.mom_kills {
            queue.schedule(at, Delivery::Mom(NodeId(node), MomMsg::Crash));
        }
        VirtualNet(Rc::new(RefCell::new(NetState {
            queue,
            rng: SplitMix64::new(plan.seed).derive(0xFA01),
            plan,
            now: SimTime::ZERO,
            delivered: 0,
        })))
    }
}

impl Net for VirtualNet {
    fn send(&mut self, delivery: Delivery) {
        let net = &mut *self.0.borrow_mut();
        let expendable = matches!(delivery, Delivery::Mom(_, MomMsg::Peer(_)));
        if expendable && net.rng.chance_permille(net.plan.drop_permille) {
            return; // dropped on the floor
        }
        if net.rng.chance_permille(net.plan.dup_permille) {
            let extra = net.draw_delay().unwrap_or(SimDuration::from_millis(1));
            net.queue.schedule(net.now + extra, delivery.clone());
        }
        let delay = net.draw_delay().unwrap_or(SimDuration::ZERO);
        net.queue.schedule(net.now + delay, delivery);
    }
}

/// The virtual driver: the whole ensemble, stepped on the caller's thread.
pub struct Virtual(RefCell<Ensemble>);

/// An ensemble: its daemons, the net between them, and the inbox every
/// client input arrives on, in send order.
pub(crate) struct Ensemble {
    server: ServerDaemon<VirtualNet>,
    moms: Vec<MomDaemon<VirtualNet>>,
    net: VirtualNet,
    inbox: Receiver<Delivery>,
}

impl Ensemble {
    /// Boots an ensemble on this thread, every fault from `faults`: its
    /// daemons over one net, and the door its clients reach it by.
    pub(crate) fn boot(config: DaemonConfig, faults: FaultPlan, tag: &str) -> (Self, Door) {
        let (sender, inbox) = channel();
        let net = VirtualNet::new(faults.clone());
        let moms = (0..config.nodes)
            .map(|i| MomDaemon::new(NodeId(i), net.clone()))
            .collect();
        // The command reactor rides the server daemon; a client's send
        // nudges it through the inbox.
        let reactor = Reactor::new();
        let connector = reactor.connector();
        let wake = sender.clone();
        reactor.set_wake(move || {
            let _ = wake.send(Delivery::Server(ServerCmd::ReactorWake));
        });
        let server = ServerDaemon::new(config, &faults, net.clone(), reactor, tag);
        let door = Door {
            inbox: sender,
            directory: Arc::clone(&server.moms.directory),
            reactor: connector,
        };
        let ensemble = Ensemble {
            server,
            moms,
            net,
            inbox,
        };
        (ensemble, door)
    }

    fn now(&self) -> SimTime {
        self.net.0.borrow().now
    }

    /// The earliest daemon deadline and whose it is: 0 is the server,
    /// i > 0 is mom i - 1.
    fn deadline(&self) -> Option<(SimTime, usize)> {
        let moms = self.moms.iter().map(MomDaemon::next_due);
        (std::iter::once(self.server.next_due()).chain(moms))
            .enumerate()
            .filter_map(|(who, t)| Some((t?, who)))
            .min()
    }

    /// When the next deadline or delivery is due.
    fn next_due(&self) -> Option<SimTime> {
        let arrival = self.net.0.borrow().queue.peek_time();
        self.deadline()
            .map(|(t, _)| t)
            .into_iter()
            .chain(arrival)
            .min()
    }

    /// One virtual step, no later than `limit`: whatever is due by now,
    /// else the client inputs waiting in the inbox, else the earliest of
    /// the next deadline and the next delivery. A client's input thus
    /// lands after every message sent before it. `false` when nothing is
    /// pending by `limit`.
    fn step(&mut self, limit: SimTime) -> bool {
        let now = self.now();
        if self.next_due().is_none_or(|t| t > now) && self.drain_clients(now) {
            return true;
        }
        self.step_due(limit)
    }

    /// Steps the earliest deadline or delivery, at its instant, if it is
    /// due by `limit` — a deadline first on a tie; `false` if none is.
    fn step_due(&mut self, limit: SimTime) -> bool {
        let deadline = self.deadline();
        let arrival = self.net.0.borrow().queue.peek_time();
        match (deadline, arrival) {
            (Some((t, who)), _) if t <= limit && arrival.is_none_or(|a| t <= a) => {
                self.net.0.borrow_mut().now = t;
                match who {
                    0 => {
                        self.server.step(None, t);
                    }
                    i => self.moms[i - 1].step(None, t),
                }
            }
            (_, Some(t)) if t <= limit => {
                let delivery = {
                    let net = &mut *self.net.0.borrow_mut();
                    net.now = t;
                    net.delivered += 1;
                    net.queue.pop().expect("peeked").payload
                };
                self.deliver(delivery, t);
            }
            _ => return false,
        }
        true
    }

    /// Hands `delivery` to its daemon at `t`; `false` once it stopped the
    /// ensemble.
    fn deliver(&mut self, delivery: Delivery, t: SimTime) -> bool {
        match delivery {
            Delivery::Server(cmd) => return self.server.step(Some(cmd), t),
            Delivery::Mom(node, msg) => self.moms[node.0 as usize].step(Some(msg), t),
        }
        true
    }

    /// Hands every client input waiting in the inbox to its daemon at
    /// `now`, in send order; `false` when there was none.
    fn drain_clients(&mut self, now: SimTime) -> bool {
        let mut any = false;
        while let Ok(delivery) = self.inbox.try_recv() {
            self.deliver(delivery, now);
            any = true;
        }
        any
    }

    /// Steps until `poll` yields or nothing is pending within `timeout`
    /// (then the clock stands at the timeout).
    fn until<T>(
        &mut self,
        mut poll: impl FnMut() -> Option<T>,
        timeout: Option<Duration>,
    ) -> Option<T> {
        let limit = timeout.map(|d| self.now() + SimDuration::from_millis(d.as_millis() as u64));
        loop {
            if let Some(v) = poll() {
                return Some(v);
            }
            if !self.step(limit.unwrap_or(SimTime::MAX)) {
                if let Some(limit) = limit {
                    self.advance(limit);
                }
                return poll();
            }
        }
    }

    /// Moves the clock to `t`, unless it stands later.
    fn advance(&mut self, t: SimTime) {
        let net = &mut *self.net.0.borrow_mut();
        net.now = net.now.max(t);
    }

    /// The wall-clock loop of [`DaemonHandle::start`], 1 wall ms since
    /// `epoch` being 1 `SimTime` ms: sleeps on the inbox until the next
    /// deadline or delivery is due, steps each of those at its due instant
    /// and each client input at the wall instant it is read. Returns once
    /// the ensemble is told to stop.
    pub(crate) fn pace(mut self, epoch: Instant) {
        let at = |t: SimTime| epoch + Duration::from_millis(t.as_millis());
        while let Ok(input) = recv_until(&self.inbox, self.next_due().map(at)) {
            let now = SimTime::from_millis(epoch.elapsed().as_millis() as u64);
            while self.step_due(now) {}
            self.advance(now);
            if input.is_some_and(|input| !self.deliver(input, now)) {
                return;
            }
        }
    }
}

impl Driver for Virtual {
    fn wait<T>(&self, rx: &Receiver<T>, timeout: Option<Duration>) -> Option<T> {
        self.0.borrow_mut().until(|| rx.try_recv().ok(), timeout)
    }

    fn ack(&self, client: &ReactorClient, timeout: Option<Duration>) -> Option<Reply> {
        self.0.borrow_mut().until(|| client.try_recv(), timeout)
    }
}

impl DaemonHandle<Virtual> {
    /// Boots the ensemble in virtual time, every fault from `faults`.
    /// Time starts at zero and moves only as the ensemble steps.
    pub fn simulate(config: DaemonConfig, faults: FaultPlan) -> Self {
        let (ensemble, door) = Ensemble::boot(config, faults, "");
        let driver = Virtual(RefCell::new(ensemble));
        DaemonHandle { door, driver }
    }

    /// The ensemble's clock.
    pub fn now(&self) -> SimTime {
        self.driver.0.borrow().now()
    }

    /// Takes one step (see the module docs); `false` once nothing is
    /// pending — no delivery in flight, no deadline armed.
    pub fn step(&self) -> bool {
        self.driver.0.borrow_mut().step(SimTime::MAX)
    }

    /// Steps through everything due by `t`, then sets the clock to `t`.
    pub fn run_until(&self, t: SimTime) {
        let mut ens = self.driver.0.borrow_mut();
        while ens.step(t) {}
        ens.advance(t);
    }

    /// Deliveries made so far (duplicates count, drops do not).
    pub fn deliveries(&self) -> u64 {
        self.driver.0.borrow().net.0.borrow().delivered
    }

    /// The server, for inspection (release the borrow before the next
    /// call on the handle).
    pub fn server(&self) -> Ref<'_, PbsServer> {
        let ensemble = self.driver.0.borrow();
        Ref::map(ensemble, |ens| ens.server.core.server())
    }

    /// What the moms hold, for inspection: by node, each job the mom
    /// mothers with its hostlist. A job's parked caller and in-flight
    /// fan-out live in the same entry, so a mom that lists no job holds
    /// neither.
    pub fn moms(&self) -> Vec<BTreeMap<JobId, Allocation>> {
        let ens = self.driver.0.borrow();
        ens.moms.iter().map(MomDaemon::hostlists).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{MomToServer, ServerCmd};
    use dynbatch_server::ServerToMom;

    fn restarted(node: u32) -> Delivery {
        Delivery::Server(ServerCmd::FromMom(NodeId(node), 1, MomToServer::Restarted))
    }

    fn pop_all(net: &VirtualNet) -> Vec<(SimTime, Delivery)> {
        let queue = &mut net.0.borrow_mut().queue;
        std::iter::from_fn(|| queue.pop().map(|d| (d.at, d.payload))).collect()
    }

    #[test]
    fn zero_fault_plan_never_triggers() {
        let plan = FaultPlan::none(7);
        assert_eq!(plan.drop_permille, 0);
        assert_eq!(plan.dup_permille, 0);
        assert_eq!(plan.delay_permille, 0);
        assert!(plan.mom_kills.is_empty());
        assert!(plan.server_crashes.is_empty() && plan.follower_crashes.is_empty());
    }

    fn deployment(nodes: u32, followers: u32) -> DaemonConfig {
        DaemonConfig {
            nodes,
            followers,
            ..DaemonConfig::default()
        }
    }

    #[test]
    fn seeded_plans_are_reproducible_and_bounded() {
        let horizon = SimDuration::from_millis(300);
        let a = FaultPlan::from_seed(42, &deployment(8, 2), horizon);
        let b = FaultPlan::from_seed(42, &deployment(8, 2), horizon);
        assert_eq!(a.drop_permille, b.drop_permille);
        assert_eq!(a.mom_kills, b.mom_kills);
        assert_eq!(a.server_crashes, b.server_crashes);
        assert_eq!(a.follower_crashes, b.follower_crashes);
        let mut seeds_with_crashes = 0;
        let mut seeds_with_follower_crashes = 0;
        for seed in 0..200 {
            let p = FaultPlan::from_seed(seed, &deployment(4, 0), horizon);
            let crashes = &p.server_crashes;
            assert!(p.follower_crashes.is_empty());
            // Followers add draws after every other one: the rest of the
            // plan is the one drawn without them.
            let replicated = FaultPlan::from_seed(seed, &deployment(4, 2), horizon);
            assert_eq!(
                (replicated.drop_permille, replicated.dup_permille),
                (p.drop_permille, p.dup_permille)
            );
            assert_eq!(replicated.delay_permille, p.delay_permille);
            assert_eq!(replicated.max_delay, p.max_delay);
            assert_eq!(replicated.mom_kills, p.mom_kills);
            assert_eq!(&replicated.server_crashes, crashes);
            for c in &replicated.follower_crashes {
                assert!(c.follower < 2 && (1..=40).contains(&c.after_record));
            }
            seeds_with_follower_crashes += usize::from(!replicated.follower_crashes.is_empty());
            assert!(p.drop_permille <= 300);
            assert!(p.dup_permille <= 200);
            assert!(p.delay_permille <= 250);
            assert!(p.max_delay <= SimDuration::from_millis(40));
            assert!(p.mom_kills.len() <= 2);
            for &(at, node) in &p.mom_kills {
                assert!(at < SimTime::from_millis(300));
                assert!(node < 4);
            }
            assert!(crashes.len() <= 2);
            assert!(crashes
                .windows(2)
                .all(|w| w[0].after_record < w[1].after_record));
            for c in crashes {
                assert!((1..=40).contains(&c.after_record));
            }
            seeds_with_crashes += usize::from(!crashes.is_empty());
        }
        // The stream really exercises server and follower crashes across
        // the seed space.
        assert!(seeds_with_crashes > 50, "{seeds_with_crashes}");
        assert!(
            seeds_with_follower_crashes > 50,
            "{seeds_with_follower_crashes}"
        );
    }

    /// The zero-fault plan faults no frame of the replication stream.
    #[test]
    fn zero_fault_plan_faults_no_frame() {
        let faults = FaultPlan::none(9).stream().faults;
        assert_eq!(faults.seed, 9);
        let rates = (
            faults.drop_permille,
            faults.delay_permille,
            faults.reorder_permille,
        );
        assert_eq!(rates, (0, 0, 0));
        assert!(faults.follower_crashes.is_empty());
    }

    /// A delivery with no fault arrives at its send instant, in send order.
    #[test]
    fn zero_fault_net_delivers_at_the_send_instant_in_send_order() {
        let mut net = VirtualNet::new(FaultPlan::none(1));
        let at = SimTime::from_millis(7);
        net.0.borrow_mut().now = at;
        for i in 0..50u32 {
            let kill = ServerToMom::KillJob {
                job: JobId(i.into()),
            };
            net.send(Delivery::Mom(NodeId(0), MomMsg::FromServer(i.into(), kill)));
            net.send(restarted(i));
        }
        let got = pop_all(&net);
        assert_eq!(got.len(), 100);
        for (i, pair) in got.chunks(2).enumerate() {
            assert!(pair.iter().all(|(t, _)| *t == at));
            match &pair[0].1 {
                Delivery::Mom(_, MomMsg::FromServer(_, ServerToMom::KillJob { job })) => {
                    assert_eq!(job.0, i as u64)
                }
                other => panic!("{other:?}"),
            }
            match &pair[1].1 {
                Delivery::Server(ServerCmd::FromMom(node, ..)) => assert_eq!(node.0, i as u32),
                other => panic!("{other:?}"),
            }
        }
    }

    /// Every daemon message may be duplicated; only pings and acks may be
    /// dropped.
    #[test]
    fn every_message_may_be_duplicated() {
        let mut plan = FaultPlan::none(5);
        plan.dup_permille = 1000;
        let mut net = VirtualNet::new(plan);
        let kill = ServerToMom::KillJob { job: JobId(1) };
        net.send(Delivery::Mom(NodeId(0), MomMsg::FromServer(1, kill)));
        net.send(restarted(1));
        let got = pop_all(&net);
        let kills = got.iter().filter(|(_, d)| matches!(d, Delivery::Mom(..)));
        assert_eq!((got.len(), kills.count()), (4, 2), "{got:?}");
    }

    #[test]
    fn dropping_plan_loses_only_expendable_messages() {
        let mut plan = FaultPlan::none(3);
        plan.drop_permille = 1000; // drop every droppable message
        let mut net = VirtualNet::new(plan);
        let ack = crate::wire::PeerMsg::JoinAck {
            job: JobId(1),
            round: 0,
            from: NodeId(2),
        };
        net.send(Delivery::Mom(NodeId(0), MomMsg::Peer(ack)));
        net.send(restarted(1));
        let got = pop_all(&net);
        assert!(
            matches!(got[..], [(_, Delivery::Server(ServerCmd::FromMom(..)))]),
            "the peer message is dropped, the sturdy one survives: {got:?}"
        );
    }
}
