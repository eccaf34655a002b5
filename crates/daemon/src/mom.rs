//! The `pbs_mom` daemon.
//!
//! One mom runs per compute node. For the dynamic protocol the interesting
//! mom is the **mother superior** — the first node of a job's allocation:
//! it receives the full hostlist at job start, forwards `tm_dynget()`
//! requests to the server, and performs the *dyn_join* / *dyn_disjoin*
//! hostlist updates when the server answers (paper Figs 3–4).
//!
//! Each job a mother superior mothers is one entry: its hostlist, its
//! parked `tm_dynget()` caller and its in-flight dyn_join fan-out. The
//! entry is the one record of each, so at most one call is pending per job
//! (paper §III-B), every path that ends the call answers it from there —
//! a grant (`DynJoin`, after its fan-out), a rejection or expiry
//! (`DynReject`), a placement (`RunJob`), `KillJob`, a crash, a failover
//! reconcile — and whatever ends the entry (`KillJob`, a crash) ends its
//! fan-out with it. A `tm_dynfree()` is answered in the same call and
//! never parks.
//!
//! The hostlist follows the server's messages in send order, which the
//! link to the server guarantees ([`Link`]): a `DynJoin` merges its hosts
//! at once, and its fan-out only decides when the caller hears of them. A
//! placement sets the hostlist, and so ends a fan-out it lands under: its
//! hosts are in the placement. A fan-out is answered at the end of the
//! step that completed it, after every server message the link released
//! in that step — a `KillJob` released with a grant denies the caller
//! instead.

use crate::wire::{Delivery, Link, MomMsg, MomToServer, Net, PeerMsg, ServerCmd};
use dynbatch_cluster::Allocation;
use dynbatch_core::{JobId, NodeId, SimDuration, SimTime};
use dynbatch_server::{Command, ServerToMom, TmRequest, TmResponse};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc::Sender;

/// Base retransmission interval of an unacked dyn_join ping.
const JOIN_RETRY_BASE_MS: u64 = 8;
/// Backoff ceiling: `8 ms << 5` = 256 ms between retries.
const JOIN_RETRY_MAX_SHIFT: u32 = 5;

/// A job as its mother superior holds it.
#[derive(Default)]
struct Entry {
    /// The job's full current hostlist.
    hostlist: Allocation,
    /// The `tm_dynget()` caller waiting for the server's answer.
    parked: Option<Sender<TmResponse>>,
    /// The dyn_join fan-out in flight.
    join: Option<Join>,
}

/// One in-flight dyn_join fan-out.
struct Join {
    /// The fan-out round; acks from other rounds are ignored.
    round: u64,
    /// The hosts being joined (answered to the caller when complete).
    added: Allocation,
    /// Nodes whose ack is still outstanding (set semantics: a duplicated
    /// ack counts once).
    unacked: BTreeSet<NodeId>,
    /// Retries so far (drives exponential backoff).
    attempt: u32,
    /// When to retransmit next.
    next_retry: SimTime,
}

/// Answers `parked`, if a caller waits.
fn answer(parked: Option<Sender<TmResponse>>, resp: TmResponse) {
    if let Some(reply) = parked {
        let _ = reply.send(resp);
    }
}

/// One `pbs_mom` daemon: its job entries, its end of the link to the
/// server, and the dyn_join fan-out (ping/ack every newly allocated node
/// before answering the application — the real cost Fig 12 measures).
/// Pings are retransmitted with exponential backoff until acked, so the
/// fan-out survives dropped peer messages.
pub(crate) struct MomDaemon<N> {
    node: NodeId,
    /// The jobs this mom mothers (ordered, so retransmissions leave in the
    /// same order on every run).
    jobs: BTreeMap<JobId, Entry>,
    /// The last fan-out round this mom opened.
    round: u64,
    server: Link<ServerToMom>,
    net: N,
}

impl<N: Net> MomDaemon<N> {
    pub(crate) fn new(node: NodeId, net: N) -> Self {
        MomDaemon {
            node,
            jobs: BTreeMap::new(),
            round: 0,
            server: Link::default(),
            net,
        }
    }

    /// Each job this mom mothers, with its hostlist.
    pub(crate) fn hostlists(&self) -> BTreeMap<JobId, Allocation> {
        let jobs = self.jobs.iter();
        jobs.map(|(&job, e)| (job, e.hostlist.clone())).collect()
    }

    /// Sends `msg` to the server, numbered on this mom's link.
    fn tell_server(&mut self, msg: MomToServer) {
        let n = self.server.number();
        let cmd = ServerCmd::FromMom(self.node, n, msg);
        self.net.send(Delivery::Server(cmd));
    }

    /// Handles one message at `now`.
    fn handle(&mut self, msg: MomMsg, now: SimTime) {
        match msg {
            MomMsg::FromServer(n, msg) => {
                self.server.receive(n, msg);
                while let Some(msg) = self.server.next() {
                    self.apply(msg, now);
                }
            }
            MomMsg::Peer(PeerMsg::JoinPing {
                job,
                round,
                reply_to,
            }) => {
                let from = self.node;
                let ack = PeerMsg::JoinAck { job, round, from };
                self.net.send(Delivery::Mom(reply_to, MomMsg::Peer(ack)));
            }
            MomMsg::Peer(PeerMsg::JoinAck { job, round, from }) => {
                let join = self.jobs.get_mut(&job).and_then(|e| e.join.as_mut());
                if let Some(join) = join.filter(|j| j.round == round) {
                    join.unacked.remove(&from);
                }
            }
            MomMsg::Tm { job, req, reply } => self.tm_call(job, req, reply),
            MomMsg::Crash => {
                // The mom "process" dies: every parked TM caller is denied,
                // every fan-out is lost, and the fresh mom asks the server
                // to replay its jobs.
                for entry in std::mem::take(&mut self.jobs).into_values() {
                    answer(entry.parked, TmResponse::DynDenied);
                }
                self.tell_server(MomToServer::Restarted);
            }
        }
    }

    /// Applies one server message, in send order.
    fn apply(&mut self, msg: ServerToMom, now: SimTime) {
        match msg {
            ServerToMom::RunJob { job, alloc } => {
                // A re-sent placement (server recovery, a mom-restart
                // replay) keeps the parked caller, and ends the fan-out in
                // flight: its hosts are in the placement.
                let entry = self.jobs.entry(job).or_default();
                entry.hostlist = alloc;
                if let Some(join) = entry.join.as_mut() {
                    join.unacked.clear();
                }
            }
            ServerToMom::DynJoin { job, added } => self.join(job, added, now),
            // A stale rejection (e.g. an expiry that raced a grant the app
            // already consumed) finds no parked caller and answers nobody.
            ServerToMom::DynReject { job } => answer(
                self.jobs.get_mut(&job).and_then(|e| e.parked.take()),
                TmResponse::DynDenied,
            ),
            ServerToMom::DynDisjoin { job, released } => {
                if let Some(entry) = self.jobs.get_mut(&job) {
                    for (node, cores) in released.entries() {
                        entry.hostlist.remove(node, cores);
                    }
                }
            }
            // The run is over, and its fan-out with it. A qdel can land
            // while a negotiated `tm_dynget` is still parked (the job is
            // `DynQueued` at the server), and the delete cancels its
            // expiry: nothing else will ever answer it. Deny it on the way
            // out.
            ServerToMom::KillJob { job } => answer(
                self.jobs.remove(&job).and_then(|e| e.parked),
                TmResponse::DynDenied,
            ),
            ServerToMom::ReconcileDyn { live } => {
                for (job, entry) in &mut self.jobs {
                    if !live.contains(job) {
                        answer(entry.parked.take(), TmResponse::DynDenied);
                    }
                }
            }
        }
    }

    /// dyn_join: the hosts join the job's hostlist, and every newly
    /// allocated peer joins the group before the application gets them (a
    /// fan-out with no peer completes in this step). Only a parked
    /// `tm_dynget()` hears of them — a scheduler-initiated malleable grow
    /// updates the hostlist silently.
    fn join(&mut self, job: JobId, mut added: Allocation, now: SimTime) {
        let Some(entry) = self.jobs.get_mut(&job) else {
            return;
        };
        entry.hostlist.merge(&added);
        if let Some(stale) = entry.join.take() {
            // A second join while one is in flight (e.g. a resize racing a
            // grant): fan out the union under a new round.
            added.merge(&stale.added);
        }
        let node = self.node;
        let unacked: BTreeSet<NodeId> = added
            .entries()
            .map(|(n, _)| n)
            .filter(|&n| n != node)
            .collect();
        self.round += 1;
        let round = self.round;
        for &peer in &unacked {
            ping(&mut self.net, peer, job, round, node);
        }
        entry.join = Some(Join {
            round,
            added,
            unacked,
            attempt: 0,
            next_retry: now + SimDuration::from_millis(JOIN_RETRY_BASE_MS),
        });
    }

    /// A TM call an application process of `job` made. Any process may call
    /// the TM API through its local mom, but dynamic requests are "always
    /// forwarded to the server through the mother superior" so only one
    /// can be pending per job (paper §III-B) — a second concurrent
    /// `tm_dynget` is denied locally.
    fn tm_call(&mut self, job: JobId, req: TmRequest, reply: Sender<TmResponse>) {
        // Not the mother superior for this job: a real mom would relay to
        // the MS; our drivers always call the MS directly.
        let Some(entry) = self.jobs.get_mut(&job) else {
            return answer(Some(reply), TmResponse::DynDenied);
        };
        let cmd = match req {
            TmRequest::DynGet { .. } if entry.parked.is_some() => {
                return answer(Some(reply), TmResponse::DynDenied);
            }
            TmRequest::DynGet {
                extra_cores,
                timeout,
            } => {
                entry.parked = Some(reply);
                Command::DynGet {
                    job,
                    extra: extra_cores,
                    timeout_ms: timeout.map(|w| w.as_millis()),
                }
            }
            TmRequest::DynFree { released } => {
                // dyn_disjoin locally, then inform the server (paper Fig 4).
                for (node, cores) in released.entries() {
                    entry.hostlist.remove(node, cores);
                }
                answer(Some(reply), TmResponse::Freed);
                Command::DynFree { job, released }
            }
        };
        self.tell_server(MomToServer::Tm(cmd));
    }

    /// One step at `now`: handles the message, if any, then answers every
    /// fan-out that is complete (every peer joined, or a placement ended
    /// it) and retransmits every overdue ping (ack timeout + exponential
    /// backoff).
    pub(crate) fn step(&mut self, msg: Option<MomMsg>, now: SimTime) {
        if let Some(msg) = msg {
            self.handle(msg, now);
        }
        for (&job, entry) in &mut self.jobs {
            let Some(join) = entry.join.as_mut() else {
                continue;
            };
            if join.unacked.is_empty() {
                let added = entry.join.take().expect("present").added;
                answer(entry.parked.take(), TmResponse::DynGranted { added });
            } else if join.next_retry <= now {
                for &peer in &join.unacked {
                    ping(&mut self.net, peer, job, join.round, self.node);
                }
                join.attempt += 1;
                let backoff = JOIN_RETRY_BASE_MS << join.attempt.min(JOIN_RETRY_MAX_SHIFT);
                join.next_retry = now + SimDuration::from_millis(backoff);
            }
        }
    }

    /// When the next ping retransmission is due.
    pub(crate) fn next_due(&self) -> Option<SimTime> {
        let joins = self.jobs.values().filter_map(|e| e.join.as_ref());
        joins.map(|j| j.next_retry).min()
    }
}

/// Asks `peer` to join `job`'s host group in fan-out `round`.
fn ping(net: &mut impl Net, peer: NodeId, job: JobId, round: u64, reply_to: NodeId) {
    let ping = PeerMsg::JoinPing {
        job,
        round,
        reply_to,
    };
    net.send(Delivery::Mom(peer, MomMsg::Peer(ping)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Receiver};

    type Mom = MomDaemon<Vec<Delivery>>;
    const T: SimTime = SimTime::ZERO;
    const JOB: JobId = JobId(1);

    fn alloc(pairs: &[(u32, u32)]) -> Allocation {
        Allocation::from_pairs(pairs.iter().map(|&(n, c)| (NodeId(n), c)))
    }

    fn get(extra_cores: u32) -> TmRequest {
        TmRequest::DynGet {
            extra_cores,
            timeout: None,
        }
    }

    fn placed(pairs: &[(u32, u32)]) -> ServerToMom {
        ServerToMom::RunJob {
            job: JOB,
            alloc: alloc(pairs),
        }
    }

    fn joined(pairs: &[(u32, u32)]) -> ServerToMom {
        ServerToMom::DynJoin {
            job: JOB,
            added: alloc(pairs),
        }
    }

    /// Server message `n` reaches the mom.
    fn deliver(mom: &mut Mom, n: u64, msg: ServerToMom) {
        mom.step(Some(MomMsg::FromServer(n, msg)), T);
    }

    /// A mom on node 0 that was sent job 1's placement on `pairs` as the
    /// server's message 1.
    fn running(pairs: &[(u32, u32)]) -> Mom {
        let mut mom = MomDaemon::new(NodeId(0), Vec::new());
        deliver(&mut mom, 1, placed(pairs));
        assert!(mom.net.is_empty(), "RunJob tells nobody: {:?}", mom.net);
        mom
    }

    /// A TM call of job 1's application; its answer comes on the receiver.
    fn tm(mom: &mut Mom, req: TmRequest) -> Receiver<TmResponse> {
        let (reply, rx) = channel();
        mom.step(
            Some(MomMsg::Tm {
                job: JOB,
                req,
                reply,
            }),
            T,
        );
        rx
    }

    /// What the mom told the server, in order.
    fn told(mom: &Mom) -> Vec<&MomToServer> {
        let to_server = mom.net.iter().filter_map(|d| match d {
            Delivery::Server(ServerCmd::FromMom(NodeId(0), _, msg)) => Some(msg),
            _ => None,
        });
        to_server.collect()
    }

    /// The round of the last ping the mom sent, to `peer`.
    fn last_round(mom: &Mom, peer: u32) -> u64 {
        match mom.net.last() {
            Some(Delivery::Mom(to, MomMsg::Peer(PeerMsg::JoinPing { round, .. })))
                if *to == NodeId(peer) =>
            {
                *round
            }
            other => panic!("expected a ping to node {peer}, got {other:?}"),
        }
    }

    /// `peer` acks fan-out `round`.
    fn ack(mom: &mut Mom, round: u64, peer: u32) {
        let from = NodeId(peer);
        let ack = PeerMsg::JoinAck {
            job: JOB,
            round,
            from,
        };
        mom.step(Some(MomMsg::Peer(ack)), T);
    }

    /// `peer` acks the last ping the mom sent it.
    fn ack_last_ping(mom: &mut Mom, peer: u32) {
        let round = last_round(mom, peer);
        ack(mom, round, peer);
    }

    fn granted(rx: &Receiver<TmResponse>) -> Allocation {
        match rx.try_recv() {
            Ok(TmResponse::DynGranted { added }) => added,
            other => panic!("expected a grant, got {other:?}"),
        }
    }

    fn denied(rx: &Receiver<TmResponse>) -> bool {
        matches!(rx.try_recv(), Ok(TmResponse::DynDenied))
    }

    #[test]
    fn run_job_registers_the_hostlist() {
        let mom = running(&[(0, 8), (1, 8)]);
        assert_eq!(mom.hostlists().len(), 1);
        assert_eq!(mom.hostlists()[&JOB].total_cores(), 16);
    }

    #[test]
    fn dynget_forwards_once() {
        let mut mom = running(&[(0, 8)]);
        let first = tm(&mut mom, get(4));
        assert!(matches!(
            told(&mom)[..],
            [MomToServer::Tm(Command::DynGet {
                job: JOB,
                extra: 4,
                timeout_ms: None
            })]
        ));
        // Second concurrent request denied locally; the first stays parked.
        assert!(denied(&tm(&mut mom, get(4))));
        assert_eq!(told(&mom).len(), 1);
        assert!(first.try_recv().is_err());
    }

    #[test]
    fn dyn_join_merges_and_replies() {
        let mut mom = running(&[(0, 8)]);
        let caller = tm(&mut mom, get(4));
        deliver(&mut mom, 2, joined(&[(2, 4)]));
        assert_eq!(mom.hostlists()[&JOB].total_cores(), 12);
        assert!(caller.try_recv().is_err(), "answered before node 2 joined");
        ack_last_ping(&mut mom, 2);
        assert_eq!(granted(&caller), alloc(&[(2, 4)]));
        // The caller is cleared: the app may request again.
        tm(&mut mom, get(4));
        assert_eq!(told(&mom).len(), 2);
    }

    #[test]
    fn dyn_reject_answers_the_parked_caller() {
        let mut mom = running(&[(0, 8)]);
        let caller = tm(&mut mom, get(4));
        deliver(&mut mom, 2, ServerToMom::DynReject { job: JOB });
        assert!(denied(&caller));
        tm(&mut mom, get(4));
        assert_eq!(told(&mom).len(), 2, "the retry is forwarded");
    }

    #[test]
    fn dynfree_disjoins_and_notifies() {
        let mut mom = running(&[(0, 8), (1, 4)]);
        let released = alloc(&[(1, 4)]);
        let freed = tm(&mut mom, TmRequest::DynFree { released });
        assert!(matches!(freed.try_recv(), Ok(TmResponse::Freed)));
        assert!(matches!(
            told(&mom)[..],
            [MomToServer::Tm(Command::DynFree { .. })]
        ));
        assert_eq!(mom.hostlists()[&JOB], alloc(&[(0, 8)]));
    }

    /// A `tm_dynfree` while a `tm_dynget` is parked is answered in the same
    /// call and leaves the parked caller for the grant.
    #[test]
    fn dynfree_leaves_the_parked_dynget_in_place() {
        let mut mom = running(&[(0, 8), (1, 4)]);
        let caller = tm(&mut mom, get(4));
        let released = alloc(&[(1, 4)]);
        let freed = tm(&mut mom, TmRequest::DynFree { released });
        assert!(matches!(freed.try_recv(), Ok(TmResponse::Freed)));
        deliver(&mut mom, 2, joined(&[(0, 4)]));
        assert_eq!(granted(&caller), alloc(&[(0, 4)]));
    }

    #[test]
    fn stale_reject_and_unsolicited_join_stay_silent() {
        let mut mom = running(&[(0, 8)]);
        // No parked caller: a reject answers nobody.
        deliver(&mut mom, 2, ServerToMom::DynReject { job: JOB });
        // A scheduler-initiated grow merges the hostlist but stays silent.
        deliver(&mut mom, 3, joined(&[(3, 4)]));
        ack_last_ping(&mut mom, 3);
        assert_eq!(mom.hostlists()[&JOB].total_cores(), 12);
        assert!(told(&mom).is_empty());
    }

    #[test]
    fn tm_call_for_unknown_job_denied() {
        let mut mom = MomDaemon::new(NodeId(0), Vec::new());
        assert!(denied(&tm(&mut mom, get(4))));
        assert!(mom.net.is_empty());
    }

    #[test]
    fn kill_removes_job() {
        let mut mom = running(&[(0, 8)]);
        deliver(&mut mom, 2, ServerToMom::KillJob { job: JOB });
        assert!(mom.hostlists().is_empty());
    }

    /// The qdel-during-negotiation leak: killing a job whose application
    /// is parked on a negotiated `tm_dynget` must deny that caller.
    #[test]
    fn kill_denies_in_flight_dynget() {
        let mut mom = running(&[(0, 8)]);
        let timeout = Some(SimDuration::from_millis(500));
        let extra_cores = 4;
        let caller = tm(
            &mut mom,
            TmRequest::DynGet {
                extra_cores,
                timeout,
            },
        );
        deliver(&mut mom, 2, ServerToMom::KillJob { job: JOB });
        assert!(denied(&caller));
        assert!(mom.hostlists().is_empty());
    }

    /// A re-sent `RunJob` (server crash recovery re-attaching the mom)
    /// must not drop the parked caller of a dynamic request — the eventual
    /// grant still has to reach the application.
    #[test]
    fn rerun_preserves_in_flight_dynget() {
        let mut mom = running(&[(0, 8)]);
        let caller = tm(&mut mom, get(4));
        deliver(&mut mom, 2, placed(&[(0, 8)]));
        deliver(&mut mom, 3, joined(&[(2, 4)]));
        ack_last_ping(&mut mom, 2);
        assert_eq!(granted(&caller), alloc(&[(2, 4)]));
    }

    /// Failover: a caller whose request died with the old leader is denied
    /// and its job takes the next `tm_dynget`; one whose request survived
    /// stays parked.
    #[test]
    fn reconcile_denies_only_lost_requests() {
        let mut mom = running(&[(0, 8)]);
        let other = JobId(2);
        let alloc = alloc(&[(0, 4)]);
        deliver(&mut mom, 2, ServerToMom::RunJob { job: other, alloc });
        let lost = tm(&mut mom, get(4));
        let (reply, kept) = channel();
        mom.step(
            Some(MomMsg::Tm {
                job: other,
                req: get(4),
                reply,
            }),
            T,
        );
        let live = vec![other];
        deliver(&mut mom, 3, ServerToMom::ReconcileDyn { live });
        assert!(denied(&lost));
        assert!(kept.try_recv().is_err(), "a live request stays parked");
        tm(&mut mom, get(4));
        assert_eq!(told(&mom).len(), 3, "job 1 takes its next tm_dynget");
    }

    #[test]
    fn crash_denies_every_parked_caller_and_forgets_every_job() {
        let mut mom = running(&[(0, 8)]);
        let alloc = alloc(&[(0, 4)]);
        deliver(
            &mut mom,
            2,
            ServerToMom::RunJob {
                job: JobId(2),
                alloc,
            },
        );
        let caller = tm(&mut mom, get(4));
        mom.step(Some(MomMsg::Crash), T);
        assert!(denied(&caller));
        assert!(mom.hostlists().is_empty());
        assert!(matches!(told(&mom)[..], [_, MomToServer::Restarted]));
    }

    /// A duplicated `DynJoin` joins once: a second delivery while its
    /// fan-out is in flight opens no round, and one after it completed
    /// neither grows the hostlist nor answers the job's next caller.
    #[test]
    fn a_duplicated_grant_joins_once() {
        let mut mom = running(&[(0, 8)]);
        let first = tm(&mut mom, get(8));
        deliver(&mut mom, 2, joined(&[(1, 8)]));
        let sent = mom.net.len();
        deliver(&mut mom, 2, joined(&[(1, 8)]));
        assert_eq!(mom.net.len(), sent, "the duplicate pinged again");
        ack_last_ping(&mut mom, 1);
        assert_eq!(granted(&first), alloc(&[(1, 8)]));
        let second = tm(&mut mom, get(8));
        deliver(&mut mom, 2, joined(&[(1, 8)]));
        assert_eq!(mom.next_due(), None, "the duplicate opened a fan-out");
        assert!(second.try_recv().is_err(), "a grant the server never made");
        assert_eq!(mom.hostlists()[&JOB], alloc(&[(0, 8), (1, 8)]));
    }

    /// A placement or run end that arrives after a later message waits for
    /// it, and arriving again changes nothing: the job's state follows the
    /// server's send order.
    #[test]
    fn an_older_placement_or_run_end_changes_nothing() {
        let mut mom = running(&[(0, 8)]);
        // A grant on the mother superior's own node (no fan-out) overtakes
        // a re-sent placement sent before it.
        deliver(&mut mom, 3, joined(&[(0, 4)]));
        deliver(&mut mom, 2, placed(&[(0, 8)]));
        assert_eq!(mom.hostlists()[&JOB], alloc(&[(0, 12)]));
        // The run ends; the job restarts here; the old end arrives again.
        deliver(&mut mom, 4, ServerToMom::KillJob { job: JOB });
        assert!(mom.hostlists().is_empty());
        deliver(&mut mom, 5, placed(&[(0, 2)]));
        deliver(&mut mom, 4, ServerToMom::KillJob { job: JOB });
        assert_eq!(mom.hostlists()[&JOB], alloc(&[(0, 2)]));
        // A newer placement (a re-attach after a server restart) applies.
        deliver(&mut mom, 6, placed(&[(0, 3)]));
        assert_eq!(mom.hostlists()[&JOB], alloc(&[(0, 3)]));
    }

    /// A killed run's dyn_join fan-out dies with it. The job is requeued
    /// and restarts on the same mother superior; a late ack from the dead
    /// run's round answers no one and joins nothing, and the new run's own
    /// grant joins only the hosts it names.
    #[test]
    fn a_killed_runs_fan_out_does_not_complete_into_the_next_run() {
        let mut mom = running(&[(0, 8)]);
        let first = tm(&mut mom, get(8));
        // The grant names a peer: the fan-out pings node 1.
        deliver(&mut mom, 2, joined(&[(1, 8)]));
        let round = last_round(&mom, 1);
        deliver(&mut mom, 3, ServerToMom::KillJob { job: JOB });
        assert!(denied(&first));
        deliver(&mut mom, 4, placed(&[(0, 8)]));
        let second = tm(&mut mom, get(8));
        assert_eq!(mom.next_due(), None, "no fan-out is left to retry");
        ack(&mut mom, round, 1);
        assert!(second.try_recv().is_err(), "a grant the server never made");
        assert_eq!(mom.hostlists()[&JOB], alloc(&[(0, 8)]));
        // The new run's grant, on the mother superior's own node.
        deliver(&mut mom, 5, joined(&[(0, 4)]));
        assert_eq!(granted(&second), alloc(&[(0, 4)]));
        assert_eq!(mom.hostlists()[&JOB], alloc(&[(0, 12)]));
    }

    /// `RunJob`, `DynJoin` and `KillJob`, each delivered twice and in
    /// reverse, apply once and in send order: the run ends, and no copy of
    /// its placement brings the entry back.
    #[test]
    fn server_messages_apply_once_in_send_order() {
        let mut mom = MomDaemon::new(NodeId(0), Vec::new());
        let kill = || ServerToMom::KillJob { job: JOB };
        deliver(&mut mom, 3, kill());
        deliver(&mut mom, 2, joined(&[(0, 4)]));
        deliver(&mut mom, 3, kill());
        assert!(mom.hostlists().is_empty(), "applied ahead of the placement");
        deliver(&mut mom, 1, placed(&[(0, 8)]));
        deliver(&mut mom, 2, joined(&[(0, 4)]));
        deliver(&mut mom, 1, placed(&[(0, 8)]));
        assert!(mom.hostlists().is_empty(), "the killed run came back");
        assert!(mom.net.is_empty());
        deliver(&mut mom, 4, placed(&[(0, 2)]));
        assert_eq!(mom.hostlists()[&JOB], alloc(&[(0, 2)]));
    }

    /// A placement that lands under an in-flight fan-out sets the hostlist
    /// and ends the fan-out: its caller is answered once, with the hosts
    /// the placement already holds, and the late ack adds nothing.
    #[test]
    fn a_placement_under_a_fan_out_answers_the_caller_once() {
        let mut mom = running(&[(0, 8)]);
        let caller = tm(&mut mom, get(8));
        deliver(&mut mom, 2, joined(&[(1, 8)]));
        let round = last_round(&mom, 1);
        deliver(&mut mom, 3, placed(&[(0, 8), (1, 8)]));
        assert_eq!(granted(&caller), alloc(&[(1, 8)]));
        assert_eq!(mom.next_due(), None, "the fan-out is over");
        ack(&mut mom, round, 1);
        assert!(caller.try_recv().is_err(), "answered twice");
        assert_eq!(mom.hostlists()[&JOB], alloc(&[(0, 8), (1, 8)]));
    }

    /// A grant held back behind a gap and released with the run's end
    /// answers nobody: the mom catches up before it answers, and the run
    /// is over, so its caller is denied.
    #[test]
    fn a_grant_released_with_its_run_end_denies_the_caller() {
        let mut mom = running(&[(0, 8)]);
        let caller = tm(&mut mom, get(4));
        deliver(&mut mom, 3, ServerToMom::KillJob { job: JOB });
        deliver(&mut mom, 2, joined(&[(0, 4)]));
        assert!(denied(&caller));
        assert!(mom.hostlists().is_empty());
    }

    /// A `DynJoin` that reaches a mom after its crash finds no entry for
    /// the job and opens no fan-out: the server's re-sent placement will
    /// carry the hosts.
    #[test]
    fn a_dyn_join_at_a_freshly_crashed_mom_opens_no_fan_out() {
        let mut mom = running(&[(0, 8)]);
        let caller = tm(&mut mom, get(8));
        mom.step(Some(MomMsg::Crash), T);
        assert!(denied(&caller));
        let sent = mom.net.len();
        deliver(&mut mom, 2, joined(&[(1, 8)]));
        assert_eq!(mom.net.len(), sent, "pinged for a job it does not know");
        assert_eq!(mom.next_due(), None);
        assert!(mom.hostlists().is_empty());
    }
}
