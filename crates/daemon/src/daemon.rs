//! The deployment: server daemon, mom daemons, client handle.
//!
//! ## Daemons and drivers
//!
//! Each daemon is a state machine: it handles a message at an instant,
//! acts on what is due by then, and says when it is next due. The server
//! is the `ServerDaemon`; each compute node runs a `MomDaemon`. A daemon
//! reaches another only through its net (the [`wire`](crate::wire) seam).
//! An ensemble — the daemons, one queue of deliveries between them, and
//! one inbox its clients write to ([`crate::fault`]) — is stepped by one
//! loop under either of two clocks:
//!
//! - **wall clock** ([`DaemonHandle::start`]): on one thread, named
//!   `{tag}srv`, that sleeps on the inbox until the next deadline or
//!   delivery is due (1 wall ms == 1 `SimTime` ms since boot), with no
//!   fault. An ensemble runs exactly one thread, followers included: it
//!   is named with the ensemble's [`DaemonHandle::thread_tag`] prefix and
//!   is joined by [`DaemonHandle::shutdown`], so a shut-down ensemble
//!   leaves zero live threads (the suites check `/proc/self/task`).
//! - **virtual** ([`DaemonHandle::simulate`]): on the caller's thread, in
//!   virtual time, every handle call stepping the ensemble until its
//!   answer arrives; the queue may fault deliveries. It starts no thread.
//!
//! Replication followers are hosted inline by the server daemon, one
//! zero-latency hop each ([`crate::fault::Replicas`]): every watermark
//! read resolves within the instant, so the ack gate never waits on
//! another thread and a seed is one trace.
//!
//! The server daemon drives the simulator's [`EventCore`]: every deadline
//! — an application's exit, its walltime kill, its own request points and
//! phase ends, a negotiation's expiry — is an event in the core's queue,
//! armed, re-paced and cancelled by the same code the simulator runs. On
//! every step it first applies the events due by now, then the message,
//! then the cycle the message woke. An event carries the nonce of the run
//! that armed it, so a stale one can never act on a successor run.

use crate::fault::{Ensemble, FaultPlan, Replicas};
use crate::wire::{
    ClientReq, Delivery, Link, MomMsg, MomToServer, Net, ReplicationStatus, ServerCmd,
};
use dynbatch_cluster::{Allocation, Cluster};
use dynbatch_core::{
    JobId, JobOutcome, JobSpec, JobState, NodeId, SchedulerConfig, SimDuration, SimTime, UserId,
};
use dynbatch_sched::DynDecision;
use dynbatch_server::reactor::{BatchEvent, Command as ReactorCommand, Reply as ReactorReply};
use dynbatch_server::{
    Applied, PbsServer, Reactor, ReactorClient, ReactorConnector, ServerToMom, TmRequest,
    TmResponse,
};
use dynbatch_sim::{EventCore, Hook, RunEnd};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// What is deployed — nothing that fails: faults are a [`FaultPlan`],
/// which only [`DaemonHandle::simulate`] takes. Both drivers honour every
/// field.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Compute nodes.
    pub nodes: u32,
    /// Cores per node.
    pub cores_per_node: u32,
    /// Scheduler configuration.
    pub sched: SchedulerConfig,
    /// Hot followers fed from the leader's journal stream (0 = none).
    /// Every reactor ack, and every grant a mom hears of, waits until its
    /// records are on each live follower; every `qstat` is answered by the
    /// leader.
    pub followers: u32,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            nodes: 15,
            cores_per_node: 8,
            sched: SchedulerConfig::paper_eval(),
            followers: 0,
        }
    }
}

/// Distinguishes ensembles within one process, so thread names (15-char
/// budget) stay unique across concurrently running tests.
static ENSEMBLE_SEQ: AtomicU64 = AtomicU64::new(0);

/// The mother superior of every running job, read by the handle's TM calls
/// and written only by the server daemon.
type Directory = Arc<Mutex<HashMap<JobId, NodeId>>>;

const POISONED: &str = "a daemon panicked holding the mother-superior directory";

/// How a [`DaemonHandle`] waits for an answer: [`Threads`] block on the
/// channel, [`Virtual`](crate::fault::Virtual) steps the ensemble until it
/// arrives.
pub trait Driver {
    /// The next value on `rx`, waiting up to `timeout` (`None`: for as
    /// long as one can still come).
    fn wait<T>(&self, rx: &Receiver<T>, timeout: Option<Duration>) -> Option<T>;
    /// The next reply on a reactor connection, waiting the same way.
    fn ack(&self, client: &ReactorClient, timeout: Option<Duration>) -> Option<ReactorReply>;
}

/// The wall-clock driver: the thread the ensemble runs on.
pub struct Threads {
    thread: JoinHandle<()>,
    tag: String,
}

impl Driver for Threads {
    fn wait<T>(&self, rx: &Receiver<T>, timeout: Option<Duration>) -> Option<T> {
        timeout.map_or_else(|| rx.recv().ok(), |t| rx.recv_timeout(t).ok())
    }

    fn ack(&self, client: &ReactorClient, timeout: Option<Duration>) -> Option<ReactorReply> {
        timeout.map_or_else(|| client.recv(), |t| client.recv_timeout(t))
    }
}

/// What clients reach an ensemble by: its inbox, the directory that names
/// each running job's mother superior, and the command reactor.
pub(crate) struct Door {
    pub(crate) inbox: Sender<Delivery>,
    pub(crate) directory: Directory,
    pub(crate) reactor: ReactorConnector,
}

/// Client handle to a daemon ensemble, on the wall clock or virtual.
///
/// Under the wall-clock driver, wall-clock milliseconds map one-to-one
/// onto [`SimTime`] milliseconds: a job whose execution model says
/// "500 ms" really runs for 500 ms of wall time. The protocol path (client
/// → mom → server → scheduler → mom fan-out → client) is identical to the
/// simulator's, which is the point: the Fig 12 overhead study measures
/// these hops.
pub struct DaemonHandle<D = Threads> {
    pub(crate) door: Door,
    pub(crate) driver: D,
}

impl DaemonHandle<Threads> {
    /// Boots the ensemble on its own thread — its followers' too —,
    /// fault-free, paced by the wall clock.
    pub fn start(config: DaemonConfig) -> Self {
        let tag = format!("pbs{}.", ENSEMBLE_SEQ.fetch_add(1, Ordering::Relaxed));
        let (door_tx, door_rx) = channel();
        // The net is `Rc`: the ensemble is built on the thread that steps it.
        let body = move || {
            let (ensemble, door) = Ensemble::boot(config, FaultPlan::none(0));
            let _ = door_tx.send(door);
            ensemble.pace(Instant::now());
        };
        let thread = thread::Builder::new()
            .name(format!("{tag}srv"))
            .spawn(body)
            .expect("spawn the ensemble thread");
        let door = door_rx.recv().expect("the ensemble boots");
        let driver = Threads { thread, tag };
        DaemonHandle { door, driver }
    }

    /// The ensemble's thread-name prefix; every thread this handle owns is
    /// named `{tag}…`, so a leak check can scan for survivors after
    /// [`DaemonHandle::shutdown`].
    pub fn thread_tag(&self) -> &str {
        &self.driver.tag
    }

    /// Stops the ensemble and joins its thread — nothing outlives the
    /// handle.
    pub fn shutdown(self) {
        let _ = self.door.inbox.send(Delivery::Server(ServerCmd::Shutdown));
        let _ = self.driver.thread.join();
    }
}

impl<D: Driver> DaemonHandle<D> {
    /// Opens a multiplexed command connection to the server's reactor —
    /// the one way a batch-system command reaches the server from a
    /// client: `qsub`/`qstat`/`qdel`/`dynget`/`dynfree` as text lines or
    /// parsed [`ReactorCommand`]s in, ordered [`ReactorReply`]s out. Any
    /// number of connections may be open concurrently; commands apply in
    /// ticket order regardless of thread interleaving, and an ack is only
    /// delivered once the command's journal record is appended and, with
    /// followers, replicated.
    pub fn connect(&self) -> ReactorClient {
        self.door.reactor.connect()
    }

    /// The next reply on `client`, waiting up to `timeout` (the virtual
    /// driver steps the ensemble meanwhile).
    pub fn await_reply(&self, client: &ReactorClient, timeout: Duration) -> Option<ReactorReply> {
        self.driver.ack(client, Some(timeout))
    }

    /// One command on a connection of its own: submit, await the ack the
    /// reactor flushes after its group commit, hang up.
    fn command(&self, cmd: ReactorCommand) -> Result<ReactorReply, String> {
        let client = self.connect();
        client.submit(cmd);
        match self.driver.ack(&client, None) {
            Some(ReactorReply::Denied(why)) => Err(why),
            Some(reply) => Ok(reply),
            None => Err("the server is gone".into()),
        }
    }

    /// One observation round trip: `req` to the server daemon, its answer
    /// back (`None`: not within `timeout`, or the server is gone).
    fn ask<T>(
        &self,
        req: impl FnOnce(Sender<T>) -> ClientReq,
        timeout: Option<Duration>,
    ) -> Option<T> {
        let (tx, rx) = channel();
        let req = Delivery::Server(ServerCmd::Client(req(tx)));
        self.door.inbox.send(req).ok()?;
        self.driver.wait(&rx, timeout)
    }

    /// Places a TM call at the job's mother superior; the answer comes on
    /// the returned channel (`None`: the job has no mother superior).
    fn tm_call(&self, job: JobId, req: TmRequest) -> Option<Receiver<TmResponse>> {
        let ms = *self.door.directory.lock().expect(POISONED).get(&job)?;
        let (reply, rx) = channel();
        let call = Delivery::Mom(ms, MomMsg::Tm { job, req, reply });
        self.door.inbox.send(call).ok()?;
        Some(rx)
    }

    /// One TM round trip: the call, then its answer (denied when the job
    /// has no mother superior or the mom is gone).
    fn tm(&self, job: JobId, req: TmRequest) -> TmResponse {
        self.tm_call(job, req)
            .and_then(|rx| self.driver.wait(&rx, None))
            .unwrap_or(TmResponse::DynDenied)
    }

    /// Submits a job (blocking) — the whole spec as given, which the
    /// line grammar could not carry for a moldable, malleable or boosted
    /// job.
    pub fn qsub(&self, spec: JobSpec) -> Result<JobId, String> {
        match self.command(ReactorCommand::QSub(Box::new(spec)))? {
            ReactorReply::Submitted(id) => Ok(id),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    /// Deletes a job (blocking).
    pub fn qdel(&self, job: JobId) -> Result<(), String> {
        self.command(ReactorCommand::QDel(job)).map(|_| ())
    }

    /// Queries a job's state (blocking).
    pub fn qstat(&self, job: JobId) -> Option<JobState> {
        self.ask(|reply| ClientReq::QStat { job, reply }, None)
            .flatten()
    }

    /// Blocks until `job` has started (true) or became terminal without
    /// ever starting (false) — event-driven, no polling.
    pub fn await_running(&self, job: JobId, timeout: Duration) -> bool {
        self.ask(
            |reply| ClientReq::AwaitRunning { job, reply },
            Some(timeout),
        )
        .unwrap_or(false)
    }

    /// Calls `tm_dynget()` from the job's mother superior, blocking until
    /// the batch system answers (grant with the added hostlist, or
    /// denial).
    pub fn tm_dynget(&self, job: JobId, extra_cores: u32) -> TmResponse {
        self.tm(job, dynget(extra_cores, None))
    }

    /// The negotiation extension: blocks up to `timeout` while the server
    /// keeps the request queued, retrying at every scheduling iteration;
    /// the call returns as soon as the request is granted, or denied once
    /// the window closes.
    pub fn tm_dynget_negotiated(
        &self,
        job: JobId,
        extra_cores: u32,
        timeout: Duration,
    ) -> TmResponse {
        let timeout = SimDuration::from_millis(timeout.as_millis() as u64);
        self.tm(job, dynget(extra_cores, Some(timeout)))
    }

    /// [`DaemonHandle::tm_dynget`] plus a wall-clock latency measurement —
    /// the paper's Fig 12 metric.
    pub fn tm_dynget_timed(&self, job: JobId, extra_cores: u32) -> (TmResponse, Duration) {
        let t0 = Instant::now();
        let resp = self.tm_dynget(job, extra_cores);
        (resp, t0.elapsed())
    }

    /// Calls `tm_dynfree()` to release part of the allocation.
    pub fn tm_dynfree(&self, job: JobId, released: Allocation) -> TmResponse {
        self.tm(job, TmRequest::DynFree { released })
    }

    /// Blocks until every submitted job is terminal, or `timeout`.
    pub fn await_drained(&self, timeout: Duration) -> bool {
        self.ask(|reply| ClientReq::AwaitDrained { reply }, Some(timeout))
            .is_some()
    }

    /// Snapshot of the accounting log (completed-job outcomes).
    pub fn outcomes(&self) -> Vec<JobOutcome> {
        self.ask(|reply| ClientReq::Outcomes { reply }, None)
            .unwrap_or_default()
    }

    /// Point-in-time view of the replication layer; `None` when the
    /// daemon runs without followers (or has already shut down).
    pub fn replication_status(&self) -> Option<ReplicationStatus> {
        self.ask(|reply| ClientReq::ReplicationStatus { reply }, None)
            .flatten()
    }

    /// Total core-seconds the fairshare tracker has charged to `user`.
    pub fn fairshare_charged(&self, user: UserId) -> f64 {
        self.ask(|reply| ClientReq::FairshareCharged { user, reply }, None)
            .unwrap_or(0.0)
    }
}

/// A `tm_dynget()` for `extra_cores`, negotiated when it has a `timeout`.
fn dynget(extra_cores: u32, timeout: Option<SimDuration>) -> TmRequest {
    TmRequest::DynGet {
        extra_cores,
        timeout,
    }
}

/// Compaction interval of the daemon's write-ahead journal: a snapshot
/// record replaces the history every this-many mutation records.
const JOURNAL_SNAPSHOT_EVERY: usize = 64;

/// The server daemon: the [`EventCore`] — `pbs_server`, Maui, the run
/// ledger and every deadline — plus what only a deployment has: the moms,
/// the command reactor, the waiters and the replication host.
pub(crate) struct ServerDaemon<N> {
    pub(crate) core: EventCore,
    /// Outstanding server-crash points, in journal-record coordinates (a
    /// leader kill, with followers).
    crash_points: Vec<u64>,
    pub(crate) moms: Moms<N>,
    /// The command reactor, parked in an `Option` so polling can split the
    /// borrow (the reactor iterates while its apply closure mutates the
    /// rest of the daemon).
    reactor: Option<Reactor>,
    run_waiters: Vec<(JobId, Sender<bool>)>,
    drain_waiters: Vec<Sender<()>>,
    /// The followers, inline, when the deployment has any. They are
    /// streamed to at every command boundary, so follower state only ever
    /// reflects journal prefixes.
    repl: Option<Replicas>,
}

/// The moms, as the core's [`Hook`]: what the core decided becomes
/// `RunJob`, `DynJoin`, `DynReject`, `DynDisjoin` and `KillJob` messages
/// to each job's mother superior. The directory of mother superiors (read
/// by [`DaemonHandle`]'s TM calls) has this one writer: an entry is set
/// where `RunJob` is sent and cleared when the run ends, so it follows the
/// running set.
pub(crate) struct Moms<N> {
    net: N,
    pub(crate) directory: Directory,
    /// The server's end of its link to each mom.
    links: Vec<Link<MomToServer>>,
    /// With followers, the grants (`DynJoin`) are held: they leave at the
    /// step's end once every live follower has the journal
    /// ([`ServerDaemon::pump_replication`]), and a killed leader takes
    /// them along — no application hears of cores a promoted follower
    /// could lack.
    hold_grants: bool,
    held: Vec<(NodeId, ServerToMom)>,
}

impl<N: Net> Moms<N> {
    /// Sends `msg` to the mom of `ms` (a held grant: at the step's end).
    fn send(&mut self, ms: NodeId, msg: ServerToMom) {
        if self.hold_grants && matches!(msg, ServerToMom::DynJoin { .. }) {
            self.held.push((ms, msg));
        } else {
            self.post(ms, msg);
        }
    }

    /// Puts `msg` on the wire to the mom of `ms`, numbered on the server's
    /// link to it.
    fn post(&mut self, ms: NodeId, msg: ServerToMom) {
        let n = self.links[ms.0 as usize].number();
        self.net.send(Delivery::Mom(ms, MomMsg::FromServer(n, msg)));
    }

    fn send_to_ms(&mut self, job: JobId, msg: ServerToMom) {
        let ms = self.directory.lock().expect(POISONED).get(&job).copied();
        if let Some(ms) = ms {
            self.send(ms, msg);
        }
    }

    /// Sends `RunJob` to the mother superior — the first node of the
    /// allocation unless the directory already names one.
    fn run_job(&mut self, job: JobId, alloc: Allocation) {
        let ms = *self
            .directory
            .lock()
            .expect(POISONED)
            .entry(job)
            .or_insert_with(|| alloc.entries().next().expect("non-empty allocation").0);
        self.send(ms, ServerToMom::RunJob { job, alloc });
    }

    /// Replays the placement of every active job — or of those `only`
    /// mothers — to its mother superior: a mom that lost its state
    /// re-registers the job, one that kept it takes the placement and
    /// keeps any parked TM caller.
    fn reattach(&mut self, server: &PbsServer, only: Option<NodeId>) {
        for j in server.live_jobs().filter(|j| j.state.is_active()) {
            let mothered = || self.directory.lock().expect(POISONED).get(&j.id).copied();
            if only.is_some_and(|node| mothered() != Some(node)) {
                continue;
            }
            if let Some(alloc) = server.cluster().allocation_of(j.id) {
                self.run_job(j.id, alloc.clone());
            }
        }
    }
}

impl<N: Net> Hook for Moms<N> {
    fn cycle(
        &mut self,
        _server: &PbsServer,
        _now: SimTime,
        _decisions: Vec<DynDecision>,
        applied: Vec<Applied>,
    ) {
        for action in applied {
            match action {
                // A fresh run is mothered by its allocation's first node.
                Applied::Started { job, alloc, .. } => {
                    self.directory.lock().expect(POISONED).remove(&job);
                    self.run_job(job, alloc);
                }
                Applied::DynGranted { job, added } => {
                    self.send_to_ms(job, ServerToMom::DynJoin { job, added });
                }
                Applied::DynRejected { job, .. } => {
                    self.send_to_ms(job, ServerToMom::DynReject { job });
                }
                // Negotiation: the application keeps waiting on its TM
                // reply channel until a later cycle grants the request or
                // its expiry fires. A preempted run ends through
                // `run_ended`.
                Applied::DynDeferred { .. } | Applied::Preempted { .. } => {}
                Applied::Resized {
                    job,
                    from_cores,
                    to_cores,
                    changed,
                } => {
                    let msg = if to_cores > from_cores {
                        ServerToMom::DynJoin {
                            job,
                            added: changed,
                        }
                    } else {
                        ServerToMom::DynDisjoin {
                            job,
                            released: changed,
                        }
                    };
                    self.send_to_ms(job, msg);
                }
            }
        }
    }

    /// The run stopped (exited, deleted, preempted, lost): its mom kills
    /// what is left of the application.
    fn run_ended(&mut self, job: JobId, _end: RunEnd, _now: SimTime) {
        let ms = self.directory.lock().expect(POISONED).remove(&job);
        if let Some(ms) = ms {
            self.send(ms, ServerToMom::KillJob { job });
        }
    }

    fn expired(&mut self, jobs: &[JobId]) {
        for &job in jobs {
            self.send_to_ms(job, ServerToMom::DynReject { job });
        }
    }
}

impl<N: Net> ServerDaemon<N> {
    /// Boots the server side of an ensemble: the event core with a
    /// journaling `pbs_server`, the crash points of `faults` and the
    /// deployment's followers (`repl`), seeded with the genesis snapshot.
    pub(crate) fn new(
        config: DaemonConfig,
        faults: &FaultPlan,
        net: N,
        reactor: Reactor,
        repl: Option<Replicas>,
    ) -> Self {
        let cluster = Cluster::homogeneous(config.nodes, config.cores_per_node);
        // The daemon always journals: crash recovery (scheduled by the fault
        // plan or exercised by the chaos suite) depends on it, and the append
        // cost is measured and bounded (`perf_smoke`'s `journal` section).
        let mut core = EventCore::new(cluster, config.sched);
        core.enable_journal(JOURNAL_SNAPSHOT_EVERY);
        let crash_points = faults.server_crashes.iter().map(|c| c.after_record);
        let mut daemon = ServerDaemon {
            core,
            crash_points: crash_points.collect(),
            moms: Moms {
                net,
                directory: Directory::default(),
                links: (0..config.nodes).map(|_| Link::default()).collect(),
                hold_grants: config.followers > 0,
                held: Vec::new(),
            },
            reactor: Some(reactor),
            run_waiters: Vec::new(),
            drain_waiters: Vec::new(),
            repl,
        };
        daemon.pump_replication();
        daemon
    }

    /// One step at `t` — a message, or the next due event's instant: first
    /// the events due by now, then the message, then its cycle; `false`
    /// once the message stops the ensemble.
    pub(crate) fn step(&mut self, cmd: Option<ServerCmd>, t: SimTime) -> bool {
        self.core.run_until(t, &mut self.moms);
        if let Some(cmd) = cmd {
            if !self.handle(cmd, t) {
                return false;
            }
            self.core.run_until(t, &mut self.moms);
        }
        self.maybe_crash(t);
        self.pump_replication();
        self.flush_waiters();
        true
    }

    /// When the next event of the core is due.
    pub(crate) fn next_due(&self) -> Option<SimTime> {
        self.core.next_due()
    }

    /// Processes one command; returns `false` on shutdown. A command that
    /// reaches the core wakes a cycle at `t`, which the step runs next.
    fn handle(&mut self, cmd: ServerCmd, t: SimTime) -> bool {
        match cmd {
            ServerCmd::Client(req) => self.handle_client(req),
            ServerCmd::FromMom(node, n, msg) => {
                self.moms.links[node.0 as usize].receive(n, msg);
                while let Some(msg) = self.moms.links[node.0 as usize].next() {
                    self.handle_mom(node, msg, t);
                }
            }
            ServerCmd::ReactorWake => self.reactor_poll(t),
            ServerCmd::Shutdown => return false,
        }
        true
    }

    /// Observation and waiting: nothing here changes server state.
    fn handle_client(&mut self, req: ClientReq) {
        match req {
            ClientReq::QStat { job, reply } => {
                let _ = reply.send(self.core.server().job(job).map(|j| j.state).ok());
            }
            // Parked; resolved by flush_waiters after this command.
            ClientReq::AwaitRunning { job, reply } => self.run_waiters.push((job, reply)),
            ClientReq::AwaitDrained { reply } => self.drain_waiters.push(reply),
            ClientReq::Outcomes { reply } => {
                let _ = reply.send(self.core.server().accounting().outcomes().to_vec());
            }
            ClientReq::FairshareCharged { user, reply } => {
                let _ = reply.send(self.core.maui().fairshare().charged(user));
            }
            ClientReq::ReplicationStatus { reply } => {
                let _ = reply.send(self.replication_status());
            }
        }
    }

    /// The mom door, one message of `node`'s mom in send order. A TM call
    /// an application made at its mother superior is the same command a
    /// reactor client could have sent. This door acks nothing — the
    /// application's answer is the grant or rejection a later cycle sends
    /// its mom — except that a request the server would not queue is
    /// rejected straight back.
    ///
    /// A tm_dynget that lands queues and triggers a scheduling cycle
    /// (paper: "This triggers a new scheduling cycle"); the mom already
    /// shrank its hostlist for a tm_dynfree.
    fn handle_mom(&mut self, node: NodeId, msg: MomToServer, t: SimTime) {
        let cmd = match msg {
            MomToServer::Tm(cmd) => cmd,
            // A mom lost its state and restarted: it rebuilds its
            // hostlists from the jobs it mothers. (Their applications live
            // on in the event core, so this is pure state repair.)
            MomToServer::Restarted => return self.moms.reattach(self.core.server(), Some(node)),
        };
        let (_, mutated) = self.apply_command(&cmd, t);
        if let (ReactorCommand::DynGet { job, .. }, false) = (&cmd, mutated) {
            // Already pending or not running: deny straight back.
            self.moms
                .send_to_ms(*job, ServerToMom::DynReject { job: *job });
        }
    }

    /// Honours the crash schedule: once the journal has appended the next
    /// crash point's record count, the server "process" dies at this
    /// command boundary — for good, with followers to fail over to.
    fn maybe_crash(&mut self, t: SimTime) {
        while let Some(i) = self.crash_points.iter().position(|&k| self.appended() >= k) {
            self.crash_points.swap_remove(i);
            self.restart(self.repl.is_some(), t);
        }
    }

    /// The server dies and comes back: scheduler soft state and the
    /// fairshare ledger's open segments are lost, the applications and
    /// their deadlines are not.
    ///
    /// A crash-restart keeps the write-ahead journal: the server is rebuilt
    /// by snapshot-load + replay. A leader kill (`failover`) loses the
    /// journal too, and the highest-watermark follower takes over — it is
    /// byte-identical to the dead leader at its watermark; records past it
    /// are reconciled into the failover accounting as lost (and, every ack
    /// having waited for the followers, exclude anything acked). With every
    /// follower dead or diverged the deployment degrades to recovery from
    /// the local journal (nothing is lost, availability was).
    ///
    /// Either way [`EventCore::restart`] reconciles the run ledger with
    /// the adopted state; the daemon then replays every active job's
    /// placement to its mother superior (an unknown job re-registers; a
    /// known one takes the placement and keeps any parked TM caller) and
    /// runs the cycle the restart woke.
    fn restart(&mut self, failover: bool, t: SimTime) {
        let promoted = failover.then(|| self.promote_follower()).flatten();
        self.core.restart(t, promoted, &mut self.moms);
        self.moms.reattach(self.core.server(), None);
        self.core.run_until(t, &mut self.moms);
        if failover {
            // Deny parked tm_dynget callers whose request records died
            // with the old leader; surviving negotiations stay parked and
            // will be answered by this (new) leader's scheduling cycles.
            let pending = self.core.server().pending_dyn_requests();
            let live: Vec<JobId> = pending.map(|p| p.job).collect();
            for node in 0..self.moms.links.len() as u32 {
                let reconcile = ServerToMom::ReconcileDyn { live: live.clone() };
                self.moms.send(NodeId(node), reconcile);
            }
            // Re-seed the surviving followers under the new term right away.
            self.pump_replication();
        }
    }

    /// Fails over to the highest-watermark follower and books the lost
    /// tail; `None` (with the error kept for the status query) when no
    /// follower can be promoted.
    fn promote_follower(&mut self) -> Option<PbsServer> {
        let old_appended = self.appended();
        let repl = self.repl.as_mut().expect("failover requires replication");
        // The dead leader's host rejoins as a fresh follower, so the
        // deployment keeps its followers.
        repl.add_follower(&format!("rejoin{}", repl.status.failovers));
        let status = &mut repl.status;
        match repl.hub.fail_over(old_appended, status.acked_watermark) {
            Ok((promoted, report)) => {
                status.failovers += 1;
                status.lost_records = report.lost_records;
                status.acked_lost = report.acked_lost;
                // Acks released under the old term are all ≤ the promoted
                // watermark (that is the point); the counter restarts in
                // the new term's coordinates.
                status.acked_watermark = 0;
                self.moms.held.clear(); // the dead leader's grants die with it
                Some(promoted)
            }
            Err(e) => {
                status.errors.push(format!("failover failed: {e}"));
                None
            }
        }
    }

    /// Drains the command reactor: every admissible (contiguous-ticket)
    /// command applies to the single-writer server in ticket order, its
    /// journal record landing — and, with followers, replicating — before
    /// the reactor releases its ack: the one ack rule, for lines and for
    /// [`DaemonHandle::qsub`] / [`DaemonHandle::qdel`] alike. The batch's
    /// commands share one scheduling cycle, run after the poll.
    fn reactor_poll(&mut self, t: SimTime) {
        let mut reactor = self.reactor.take().expect("reactor present");
        let mut batch_dirty = false;
        reactor.poll_batch(u64::MAX, |ev| match ev {
            BatchEvent::Apply { cmd, .. } => {
                let (reply, mutated) = self.reactor_apply(cmd, t);
                batch_dirty |= mutated;
                Some(reply)
            }
            BatchEvent::Commit => {
                // Group-commit acks flush right after this returns: the
                // gate holds them until every live follower has the batch.
                self.commit_gate(batch_dirty);
                batch_dirty = false;
                None
            }
        });
        self.reactor = Some(reactor);
    }

    /// The reactor door: [`ServerDaemon::apply_command`] plus the disjoin
    /// a released hostlist owes the mother superior. Every `qstat` is
    /// answered here, by the leader.
    fn reactor_apply(&mut self, cmd: &ReactorCommand, t: SimTime) -> (ReactorReply, bool) {
        let (reply, mutated) = self.apply_command(cmd, t);
        if mutated {
            if let ReactorCommand::DynFree { job, released } = cmd {
                // Unlike the mom-originated TM path (where the mom already
                // shrank its hostlist), a reactor dynfree must tell the
                // mother superior to disjoin.
                self.moms.send_to_ms(
                    *job,
                    ServerToMom::DynDisjoin {
                        job: *job,
                        released: released.clone(),
                    },
                );
            }
        }
        (reply, mutated)
    }

    /// The ack gate at a group-commit boundary: after a batch that wrote,
    /// block until every live follower has applied its records — only
    /// then may the held acks flush, so no acked command can die with the
    /// leader.
    fn commit_gate(&mut self, batch_dirty: bool) {
        let target = self.appended();
        let Some(repl) = self.repl.as_mut().filter(|_| batch_dirty) else {
            return;
        };
        if repl.hub.await_replicated(self.core.server(), target) {
            repl.status.acked_watermark = repl.status.acked_watermark.max(target);
        }
    }

    /// One streaming round (at every command boundary): fires the
    /// follower crashes the journal has reached, then ships the journal
    /// tail to the followers. A follower that holds nothing — crashed, or
    /// new to the term — is seeded before the step ends, so every live one
    /// keeps every acked record. Then the held grants go to the moms, once
    /// every live follower has the journal so far: the ack rule, at the
    /// mom door.
    fn pump_replication(&mut self) {
        let target = self.appended();
        let Some(repl) = self.repl.as_mut() else {
            return;
        };
        repl.fire_crashes(target);
        let errors = self.core.stream_to(&mut repl.hub);
        repl.status.errors.extend(errors);
        if repl.hub.replicated_watermark() == Some(0) || !self.moms.held.is_empty() {
            repl.hub.await_replicated(self.core.server(), target);
        }
        for (ms, msg) in std::mem::take(&mut self.moms.held) {
            self.moms.post(ms, msg);
        }
    }

    /// Records the journal has appended this term.
    fn appended(&self) -> u64 {
        let journal = self.core.server().journal();
        journal.map_or(0, |j| j.total_appended())
    }

    /// Answers [`ClientReq::ReplicationStatus`], each watermark fresh
    /// from its follower.
    fn replication_status(&mut self) -> Option<ReplicationStatus> {
        let leader_appended = self.appended();
        let repl = self.repl.as_mut()?;
        let [runs_dropped, runs_delayed, runs_duplicated, follower_crashes] = repl.faults();
        repl.hub.refresh_acks();
        Some(ReplicationStatus {
            term: repl.hub.term(),
            follower_watermarks: repl.hub.acked_watermarks(),
            leader_appended,
            errors: std::mem::take(&mut repl.status.errors),
            runs_dropped,
            runs_delayed,
            runs_duplicated,
            follower_crashes,
            ..repl.status.clone()
        })
    }

    /// The one place a command reaches the server, through either door
    /// (a reactor connection, a mom-forwarded TM call): the core's
    /// [`EventCore::apply_command`], with the moms as its hook. Returns
    /// the reply and whether server state changed — the ack of a dynget
    /// means "queued, journalled"; the grant or rejection itself arrives
    /// at the job's mom from a later cycle.
    fn apply_command(&mut self, cmd: &ReactorCommand, t: SimTime) -> (ReactorReply, bool) {
        let reply = self.core.apply_command(cmd, t, &mut self.moms);
        let mutated = matches!(reply, ReactorReply::Submitted(_) | ReactorReply::Ok);
        (reply, mutated)
    }

    /// Resolves parked `AwaitRunning` / `AwaitDrained` calls against the
    /// current server state.
    fn flush_waiters(&mut self) {
        let server = self.core.server();
        // A caller waits while its job exists, has not started and is not
        // terminal; then it hears whether the job started.
        self.run_waiters.retain(|(job, reply)| {
            let job = server.job(*job).ok();
            let started = job.is_some_and(|j| j.start_time.is_some());
            let waiting = job.is_some_and(|j| !started && !j.state.is_terminal());
            if !waiting {
                let _ = reply.send(started);
            }
            waiting
        });
        if !self.drain_waiters.is_empty() && server.is_drained() {
            for w in self.drain_waiters.drain(..) {
                let _ = w.send(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{ServerCrash, Virtual};
    use dynbatch_core::{DfsConfig, GroupId};

    fn spec(name: &str, cores: u32, millis: u64) -> JobSpec {
        let runtime = SimDuration::from_millis(millis);
        JobSpec::rigid(name, UserId(0), GroupId(0), cores, runtime)
    }

    fn hp_config(nodes: u32) -> DaemonConfig {
        let mut sched = SchedulerConfig::paper_eval();
        sched.dfs = DfsConfig::highest_priority();
        DaemonConfig {
            nodes,
            cores_per_node: 8,
            sched,
            ..DaemonConfig::default()
        }
    }

    /// The ensemble in virtual time, its net fault-free, the server
    /// crashing once its journal has appended each of `crashes` records.
    fn sim(config: DaemonConfig, crashes: &[u64]) -> DaemonHandle<Virtual> {
        let server_crashes = crashes
            .iter()
            .map(|&after_record| ServerCrash { after_record });
        let faults = FaultPlan {
            server_crashes: server_crashes.collect(),
            ..FaultPlan::none(0)
        };
        DaemonHandle::simulate(config, faults)
    }

    fn ms(millis: u64) -> SimTime {
        SimTime::from_millis(millis)
    }

    fn alloc(pairs: &[(u32, u32)]) -> Allocation {
        Allocation::from_pairs(pairs.iter().map(|&(n, c)| (NodeId(n), c)))
    }

    fn negotiated(extra_cores: u32, timeout_ms: u64) -> TmRequest {
        dynget(extra_cores, Some(SimDuration::from_millis(timeout_ms)))
    }

    #[test]
    fn submit_run_finish() {
        let d = sim(hp_config(4), &[]);
        let id = d.qsub(spec("demo", 8, 50)).expect("qsub");
        assert!(d.await_running(id, Duration::from_secs(2)));
        assert!(d.await_drained(Duration::from_secs(2)));
        assert_eq!(d.qstat(id), Some(JobState::Completed));
    }

    #[test]
    fn dynget_roundtrip_grants() {
        let d = sim(hp_config(4), &[]);
        // A long-running 8-core job on a 32-core system.
        let id = d.qsub(spec("app", 8, 5_000)).expect("qsub");
        assert!(d.await_running(id, Duration::from_secs(2)));
        let (resp, latency) = d.tm_dynget_timed(id, 8);
        match resp {
            TmResponse::DynGranted { added } => assert_eq!(added.total_cores(), 8),
            other => panic!("expected grant, got {other:?}"),
        }
        assert!(
            latency < Duration::from_secs(1),
            "sub-second overhead: {latency:?}"
        );
        let _ = d.qdel(id);
        assert!(d.await_drained(Duration::from_secs(2)));
    }

    #[test]
    fn dynget_denied_when_full() {
        let d = sim(hp_config(2), &[]);
        let id = d.qsub(spec("big", 16, 5_000)).expect("qsub");
        assert!(d.await_running(id, Duration::from_secs(2)));
        let resp = d.tm_dynget(id, 4);
        assert!(matches!(resp, TmResponse::DynDenied), "{resp:?}");
        let _ = d.qdel(id);
        assert!(d.await_drained(Duration::from_secs(2)));
    }

    #[test]
    fn dynfree_releases() {
        let d = sim(hp_config(4), &[]);
        let id = d.qsub(spec("app", 16, 5_000)).expect("qsub");
        assert!(d.await_running(id, Duration::from_secs(2)));
        let TmResponse::DynGranted { added } = d.tm_dynget(id, 8) else {
            panic!("grant expected");
        };
        let resp = d.tm_dynfree(id, added);
        assert!(matches!(resp, TmResponse::Freed), "{resp:?}");
        let _ = d.qdel(id);
        assert!(d.await_drained(Duration::from_secs(2)));
    }

    /// Six full-node 30 ms jobs on two nodes run in three waves.
    #[test]
    fn queue_drains() {
        let d = sim(hp_config(2), &[]);
        for i in 0..6 {
            d.qsub(spec(&format!("j{i}"), 8, 30)).expect("qsub");
        }
        assert!(d.await_drained(Duration::from_secs(5)));
        assert_eq!(d.now(), ms(90));
    }

    #[test]
    fn await_running_false_for_never_started() {
        let d = sim(hp_config(1), &[]);
        let blocker = d.qsub(spec("blocker", 8, 400)).expect("qsub");
        assert!(d.await_running(blocker, Duration::from_secs(2)));
        // Queued behind the blocker, then deleted before it can start.
        let doomed = d.qsub(spec("doomed", 8, 100)).expect("qsub");
        d.qdel(doomed).expect("qdel queued job");
        assert!(!d.await_running(doomed, Duration::from_millis(500)));
        assert_eq!(d.qstat(doomed), Some(JobState::Cancelled));
        assert!(d.await_drained(Duration::from_secs(2)));
    }

    /// The directory has one writer, the server daemon, so it follows the
    /// running set even when every message is delayed and every ping and
    /// ack duplicated.
    #[test]
    fn directory_follows_the_running_set_under_dup_and_delay() {
        let faults = FaultPlan {
            dup_permille: 1000,
            delay_permille: 1000,
            max_delay: SimDuration::from_millis(20),
            ..FaultPlan::none(11)
        };
        let d = DaemonHandle::simulate(hp_config(2), faults);
        for i in 0..8 {
            d.qsub(spec(&format!("j{i}"), 4, 5)).expect("qsub");
        }
        assert!(d.await_drained(Duration::from_secs(5)));
        // Every message still in flight lands.
        while d.step() {}
        let left = d.door.directory.lock().unwrap().clone();
        assert!(left.is_empty(), "directory kept ended jobs: {left:?}");
    }

    /// A mom crash denies the `tm_dynget` caller parked there, at the
    /// instant of the crash; the restarted mom takes the job back.
    #[test]
    fn mom_crash_denies_the_parked_caller() {
        let faults = FaultPlan {
            mom_kills: vec![(ms(500), 0)],
            ..FaultPlan::none(4)
        };
        let d = DaemonHandle::simulate(hp_config(2), faults);
        // Holds both nodes, so node 0 mothers it and +4 cannot be granted.
        let id = d.qsub(spec("app", 16, 10_000)).expect("qsub");
        assert!(d.await_running(id, Duration::from_secs(2)));
        let resp = d.tm_dynget_negotiated(id, 4, Duration::from_secs(30));
        assert!(matches!(resp, TmResponse::DynDenied), "{resp:?}");
        assert_eq!(d.now(), ms(500), "the crash, not the 30 s window, answers");
        let TmResponse::Freed = d.tm_dynfree(id, alloc(&[(1, 4)])) else {
            panic!("the restarted mom mothers the job again");
        };
        d.qdel(id).expect("qdel");
        assert!(d.await_drained(Duration::from_secs(2)));
    }

    /// The end-to-end clobbering regression: a `tm_dynfree` issued while a
    /// negotiated `tm_dynget` is parked must be acked immediately *and*
    /// leave the dynget's reply channel intact for the grant the freed
    /// cores make possible — at the instant of the free.
    #[test]
    fn dynfree_does_not_clobber_pending_negotiated_dynget() {
        let d = sim(hp_config(2), &[]);
        let id = d.qsub(spec("app", 16, 10_000)).expect("qsub");
        assert!(d.await_running(id, Duration::from_secs(2)));
        // Machine full: a negotiated +4 parks at the server.
        let parked = d.tm_call(id, negotiated(4, 5_000)).expect("mothered");
        d.run_until(ms(50));
        assert_eq!(d.qstat(id), Some(JobState::DynQueued));
        // The 16-core job holds all of both nodes, so 4 on node 0 is a
        // valid proper subset.
        let freed = d.tm_dynfree(id, alloc(&[(0, 4)]));
        assert!(matches!(freed, TmResponse::Freed), "{freed:?}");
        match d.driver.wait(&parked, None) {
            Some(TmResponse::DynGranted { added }) => assert_eq!(added.total_cores(), 4),
            other => panic!("expected grant after free, got {other:?}"),
        }
        assert_eq!(d.now(), ms(50));
        let _ = d.qdel(id);
        assert!(d.await_drained(Duration::from_secs(2)));
    }

    // ------------------------------------------------------------------
    // Server crash / journal recovery, ensemble level.
    // ------------------------------------------------------------------

    /// A workload drains to the same terminal states, at the crash-free
    /// instant, across two scheduled server crashes: every job survives
    /// via snapshot-load + replay.
    #[test]
    fn server_crash_recovery_drains_workload() {
        let d = sim(hp_config(2), &[3, 8]);
        let mut ids = Vec::new();
        for i in 0..6 {
            ids.push(d.qsub(spec(&format!("j{i}"), 8, 30)).expect("qsub"));
        }
        assert!(d.await_drained(Duration::from_secs(10)));
        for id in ids {
            assert_eq!(d.qstat(id), Some(JobState::Completed));
        }
        assert_eq!(d.outcomes().len(), 6);
        assert_eq!(d.now(), ms(90), "three waves, as without a crash");
    }

    /// A negotiated `tm_dynget` parked at the moment the server dies must
    /// still be answered: recovery rebuilds the pending request from the
    /// journal, re-arms its expiry, replays the job's placement to the
    /// mom (which keeps the parked caller), and a post-recovery free
    /// lets the next cycle grant it.
    #[test]
    fn negotiated_dynget_survives_server_crash() {
        // Records: genesis snapshot, submit, start outcome, then the
        // DynGet — the server dies at the first command boundary after
        // the request hits the journal.
        let d = sim(hp_config(2), &[4]);
        let id = d.qsub(spec("app", 16, 10_000)).expect("qsub");
        assert!(d.await_running(id, Duration::from_secs(2)));
        let parked = d.tm_call(id, negotiated(4, 5_000)).expect("mothered");
        d.run_until(ms(100));
        let freed = d.tm_dynfree(id, alloc(&[(0, 4)]));
        assert!(matches!(freed, TmResponse::Freed), "{freed:?}");
        match d.driver.wait(&parked, None) {
            Some(TmResponse::DynGranted { added }) => assert_eq!(added.total_cores(), 4),
            other => panic!("expected grant after crash + free, got {other:?}"),
        }
        assert_eq!(d.now(), ms(100));
        let _ = d.qdel(id);
        assert!(d.await_drained(Duration::from_secs(2)));
    }

    /// The qdel-of-a-DynQueued-job leak, end to end: deleting a job whose
    /// negotiated request is parked must deny the parked caller at once
    /// (pre-fix it hung until its negotiation timeout, its reply channel
    /// leaked at the mom).
    #[test]
    fn qdel_of_dyn_queued_job_denies_parked_caller() {
        let d = sim(hp_config(2), &[]);
        let id = d.qsub(spec("app", 16, 10_000)).expect("qsub");
        assert!(d.await_running(id, Duration::from_secs(2)));
        // Machine full and nothing will free cores: parks until answered.
        let parked = d.tm_call(id, negotiated(4, 30_000)).expect("mothered");
        d.run_until(ms(50));
        assert_eq!(d.qstat(id), Some(JobState::DynQueued));
        d.qdel(id).expect("qdel DynQueued job");
        let resp = d.driver.wait(&parked, None);
        assert!(matches!(resp, Some(TmResponse::DynDenied)), "{resp:?}");
        assert_eq!(d.now(), ms(50), "denied by the qdel, not the window");
        assert!(d.await_drained(Duration::from_secs(2)));
        assert_eq!(d.qstat(id), Some(JobState::Cancelled));
    }

    // ------------------------------------------------------------------
    // Command reactor, ensemble level.
    // ------------------------------------------------------------------

    /// The line protocol end to end on a live ensemble: submit, stat, a
    /// malformed line and an out-of-order command all answer (denials,
    /// never a daemon panic), and the workload drains.
    #[test]
    fn reactor_commands_roundtrip_on_live_daemon() {
        let d = DaemonHandle::start(hp_config(2));
        let c = d.connect();
        c.send("qsub name=rj user=3 group=0 cores=8 wall_ms=40");
        let id = match c.recv_timeout(Duration::from_secs(2)) {
            Some(ReactorReply::Submitted(id)) => id,
            other => panic!("expected Submitted, got {other:?}"),
        };
        // Out-of-order: freeing cores of a job that was never submitted.
        c.send("dynfree 999 0:4");
        assert!(
            matches!(
                c.recv_timeout(Duration::from_secs(2)),
                Some(ReactorReply::Denied(_))
            ),
            "dynfree of an unknown job must deny"
        );
        // Malformed: must deny, never panic the daemon.
        c.send("qsub name=broken cores=banana");
        assert!(matches!(
            c.recv_timeout(Duration::from_secs(2)),
            Some(ReactorReply::Denied(_))
        ));
        c.send(&format!("qstat {}", id.0));
        assert!(matches!(
            c.recv_timeout(Duration::from_secs(2)),
            Some(ReactorReply::Status(_))
        ));
        assert!(d.await_drained(Duration::from_secs(5)));
        assert_eq!(d.qstat(id), Some(JobState::Completed));
        // A second client deletes a queued job submitted by the first.
        let c2 = d.connect();
        c.send("qsub name=doomed user=1 group=0 cores=8 wall_ms=60000");
        let doomed = match c.recv_timeout(Duration::from_secs(2)) {
            Some(ReactorReply::Submitted(id)) => id,
            other => panic!("expected Submitted, got {other:?}"),
        };
        c2.send(&format!("qdel {}", doomed.0));
        assert_eq!(
            c2.recv_timeout(Duration::from_secs(2)),
            Some(ReactorReply::Ok)
        );
        assert!(d.await_drained(Duration::from_secs(5)));
        d.shutdown();
    }

    // ------------------------------------------------------------------
    // Fairshare charging: journalled at the server (segment-level
    // behaviour is pinned by `dynbatch-server`'s usage tests); here the
    // ensemble-level property that charges survive a server crash.
    // ------------------------------------------------------------------

    /// Fairshare charges survive a server crash: they live in the
    /// server's journalled usage ledger and delta-resync into the fresh
    /// post-recovery Maui (pre-fix the in-memory `UsageLedger` died with
    /// the process and the user's priority reset to uncharged).
    #[test]
    fn fairshare_charges_survive_server_crash() {
        // Records: genesis snapshot, submit, start outcome, finish — the
        // server dies at the first command boundary after the billed
        // job's finish (and therefore its usage) hits the journal.
        let d = sim(hp_config(2), &[4]);
        let mut billed = spec("billed", 8, 100);
        billed.user = UserId(7);
        let id = d.qsub(billed).expect("qsub");
        assert!(d.await_drained(Duration::from_secs(5)));
        assert_eq!(d.qstat(id), Some(JobState::Completed));
        // Post-crash activity forces cycles against the recovered server,
        // which recharge the recovered totals into the fresh tracker.
        let id2 = d.qsub(spec("after", 8, 30)).expect("qsub");
        assert!(d.await_drained(Duration::from_secs(5)));
        assert_eq!(d.qstat(id2), Some(JobState::Completed));
        // 8 cores × 0.1 s = 0.8 core·s; pre-fix this read exactly 0.
        let charged = d.fairshare_charged(UserId(7));
        assert!(charged > 0.5, "pre-crash usage forfeited: {charged}");
    }

    // ------------------------------------------------------------------
    // The server daemon's end of each mom's link.
    // ------------------------------------------------------------------

    /// A server daemon on `nodes` nodes, sending into a test net, with an
    /// 8-core, 10 s job placed on node 0 at time zero.
    fn serving(nodes: u32) -> (ServerDaemon<Vec<Delivery>>, JobId) {
        let config = hp_config(nodes);
        let faults = FaultPlan::none(0);
        let mut server = ServerDaemon::new(config, &faults, Vec::new(), Reactor::new(), None);
        let qsub = ReactorCommand::QSub(Box::new(spec("app", 8, 10_000)));
        let (reply, _) = server.apply_command(&qsub, SimTime::ZERO);
        let ReactorReply::Submitted(job) = reply else {
            panic!("expected a submission, got {reply:?}");
        };
        server.step(None, SimTime::ZERO);
        assert_eq!(server.held(job), alloc(&[(0, 8)]));
        (server, job)
    }

    impl ServerDaemon<Vec<Delivery>> {
        /// What the server holds for `job`.
        fn held(&self, job: JobId) -> Allocation {
            let cluster = self.core.server().cluster();
            cluster.allocation_of(job).cloned().unwrap_or_default()
        }

        /// Message `n` from node 0's mom: a forwarded TM call.
        fn hear_mom(&mut self, n: u64, cmd: ReactorCommand) {
            let msg = ServerCmd::FromMom(NodeId(0), n, MomToServer::Tm(cmd));
            self.step(Some(msg), SimTime::ZERO);
        }
    }

    fn forwarded_dynget(job: JobId, extra: u32) -> ReactorCommand {
        let timeout_ms = None;
        ReactorCommand::DynGet {
            job,
            extra,
            timeout_ms,
        }
    }

    /// A duplicated forward of a `tm_dynget` that lands after its answer
    /// is the same call again, not a fresh request: the server counts one
    /// request and one grant, and sends nothing more.
    #[test]
    fn a_duplicate_dynget_after_its_answer_changes_nothing_at_the_server() {
        let (mut server, job) = serving(4);
        server.hear_mom(1, forwarded_dynget(job, 8));
        let held = server.held(job);
        assert_eq!(held.total_cores(), 16, "the request is granted");
        let sent = server.moms.net.len();
        server.hear_mom(1, forwarded_dynget(job, 8));
        assert_eq!(server.held(job), held);
        assert_eq!(server.moms.net.len(), sent, "the duplicate was answered");
        let record = server.core.server().job(job).expect("running");
        assert_eq!((record.dyn_requests, record.dyn_grants), (1, 1));
    }

    /// A duplicated `tm_dynfree` that lands after a later grant on the
    /// same node releases nothing more: the grant's cores stay held.
    #[test]
    fn a_duplicate_dynfree_after_a_later_grant_releases_nothing_more() {
        let (mut server, job) = serving(2);
        server.hear_mom(1, forwarded_dynget(job, 8));
        assert_eq!(server.held(job), alloc(&[(0, 8), (1, 8)]));
        let released = alloc(&[(1, 4)]);
        let free = || ReactorCommand::DynFree {
            job,
            released: released.clone(),
        };
        server.hear_mom(2, free());
        assert_eq!(server.held(job), alloc(&[(0, 8), (1, 4)]));
        server.hear_mom(3, forwarded_dynget(job, 4));
        assert_eq!(server.held(job), alloc(&[(0, 8), (1, 8)]));
        server.hear_mom(2, free());
        assert_eq!(server.held(job), alloc(&[(0, 8), (1, 8)]));
    }
}
