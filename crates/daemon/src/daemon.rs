//! The threaded deployment: server thread, mom threads, client handle.
//!
//! ## Threading model
//!
//! An ensemble runs exactly `nodes + 2` threads (+1 with fault injection):
//! one server, one mom per node, the server's [`TimerService`] worker, and
//! — when a [`FaultPlan`] is configured — the chaos postman. Every thread
//! is named with the ensemble's [`DaemonHandle::thread_tag`] prefix and is
//! joined by [`DaemonHandle::shutdown`]; a drained-and-shut-down ensemble
//! leaves zero live threads (the chaos suite asserts this by scanning
//! `/proc/self/task`).
//!
//! All deadlines — app exits (the "application" is a timer running the
//! job's modelled duration) and negotiation expiries — live in the one
//! timer service and are cancellable. Firings carry the generation (app
//! timers) or request sequence number (expiry timers) they were armed
//! against, and the server drops firings whose tag no longer matches, so
//! a stale timer can never kill a restarted job or reject a granted
//! request.

use crate::fault::{Chaos, ChaosCore, FaultPlan, MomLink, ServerLink};
use crate::timer::{TimerHandle, TimerId, TimerService};
use crate::wire::{ClientReq, MomMsg, PeerMsg, ReplicationStatus, ServerCmd};
use dynbatch_cluster::{Allocation, Cluster};
use dynbatch_core::{
    JobId, JobOutcome, JobSpec, JobState, NodeId, SchedulerConfig, SimTime, UserId,
};
use dynbatch_sched::Maui;
use dynbatch_server::reactor::{
    apply_to_server, BatchEvent, Command as ReactorCommand, Reply as ReactorReply,
};
use dynbatch_server::replication::{HubConfig, ReplFaultPlan, ReplicationHub};
use dynbatch_server::{
    Applied, Effect, Mom, MomOutput, MomToServer, PbsServer, Reactor, ReactorClient,
    ReactorConnector, Record, ServerToMom, TmRequest, TmResponse,
};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::sync::Mutex;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Daemon deployment parameters.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Compute nodes.
    pub nodes: u32,
    /// Cores per node.
    pub cores_per_node: u32,
    /// Scheduler configuration.
    pub sched: SchedulerConfig,
    /// Optional fault-injection plan for the channel layer.
    pub faults: Option<FaultPlan>,
    /// Hot follower servers fed from the leader's journal stream (0 =
    /// no replication). With followers, every reactor ack waits until the
    /// batch's records are on each live one, and a leader kill promotes
    /// the most advanced follower. Every `qstat` is answered by the leader.
    pub followers: u32,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            nodes: 15,
            cores_per_node: 8,
            sched: SchedulerConfig::paper_eval(),
            faults: None,
            followers: 0,
        }
    }
}

/// Distinguishes ensembles within one process, so thread names (15-char
/// budget) stay unique across concurrently running tests.
static ENSEMBLE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Client handle to a running daemon ensemble.
///
/// Wall-clock milliseconds map one-to-one onto [`SimTime`] milliseconds:
/// a job whose execution model says "500 ms" really runs for 500 ms of
/// wall time. The protocol path (client → mom → server → scheduler →
/// mom fan-out → client) is identical to the simulator's, which is the
/// point: the Fig 12 overhead study measures these real hops.
pub struct DaemonHandle {
    server_tx: Sender<ServerCmd>,
    mom_links: Vec<MomLink>,
    raw_mom_txs: Vec<Sender<MomMsg>>,
    ms_directory: Arc<Mutex<HashMap<JobId, NodeId>>>,
    threads: Vec<JoinHandle<()>>,
    chaos: Option<Chaos>,
    reactor: ReactorConnector,
    tag: String,
}

impl DaemonHandle {
    /// Boots the ensemble: one server thread plus one mom thread per node.
    pub fn start(config: DaemonConfig) -> Self {
        let ens = ENSEMBLE_SEQ.fetch_add(1, Ordering::Relaxed);
        let tag = format!("pbs{ens}.");
        let (server_tx, server_rx) = channel::<ServerCmd>();
        let mut raw_mom_txs = Vec::new();
        let mut mom_rxs = Vec::new();
        for _ in 0..config.nodes {
            let (tx, rx) = channel::<MomMsg>();
            raw_mom_txs.push(tx);
            mom_rxs.push(rx);
        }
        // The chaos postman delivers onto the *raw* senders: a faulted
        // message passes through the fault layer exactly once.
        let chaos = config.faults.clone().map(|plan| {
            Chaos::start(
                plan,
                &format!("{tag}post"),
                server_tx.clone(),
                raw_mom_txs.clone(),
            )
        });
        let chaos_core: Option<Arc<ChaosCore>> = chaos.as_ref().map(|c| c.core());
        let mom_links: Vec<MomLink> = raw_mom_txs
            .iter()
            .enumerate()
            .map(|(i, tx)| MomLink::new(i, tx.clone(), chaos_core.clone()))
            .collect();
        let ms_directory: Arc<Mutex<HashMap<JobId, NodeId>>> = Arc::default();

        let mut threads = Vec::new();
        // Mom threads.
        for (i, rx) in mom_rxs.into_iter().enumerate() {
            let server = ServerLink::new(server_tx.clone(), chaos_core.clone());
            let peers = mom_links.clone();
            threads.push(
                thread::Builder::new()
                    .name(format!("{tag}mom{i}"))
                    .spawn(move || mom_main(NodeId(i as u32), rx, server, peers))
                    .expect("spawn mom"),
            );
        }
        // The command reactor rides the server thread; its wake nudge goes
        // down the raw channel (infrastructure, never faulted — the
        // commands themselves travel on the reactor's own channel).
        let reactor = Reactor::new();
        let connector = reactor.connector();
        {
            let wake_tx = server_tx.clone();
            reactor.set_wake(move || {
                let _ = wake_tx.send(ServerCmd::ReactorWake);
            });
        }
        // Server thread.
        {
            let moms = mom_links.clone();
            let ms_dir = Arc::clone(&ms_directory);
            let self_tx = server_tx.clone();
            let tag = tag.clone();
            threads.push(
                thread::Builder::new()
                    .name(format!("{tag}srv"))
                    .spawn(move || {
                        server_main(config, server_rx, self_tx, moms, ms_dir, reactor, tag)
                    })
                    .expect("spawn server"),
            );
        }
        DaemonHandle {
            server_tx,
            mom_links,
            raw_mom_txs,
            ms_directory,
            threads,
            chaos,
            reactor: connector,
            tag,
        }
    }

    /// Opens a multiplexed command connection to the server's reactor —
    /// the one way a batch-system command reaches the server from a
    /// client: `qsub`/`qstat`/`qdel`/`dynget`/`dynfree` as text lines or
    /// parsed [`ReactorCommand`]s in, ordered [`ReactorReply`]s out. Any
    /// number of connections may be open concurrently; commands apply in
    /// ticket order regardless of thread interleaving, and an ack is only
    /// delivered once the command's journal record is appended and, with
    /// followers, replicated.
    pub fn connect(&self) -> ReactorClient {
        self.reactor.connect()
    }

    /// One command on a connection of its own: submit, await the ack the
    /// reactor flushes after its group commit, hang up.
    fn command(&self, cmd: ReactorCommand) -> Result<ReactorReply, String> {
        let client = self.connect();
        client.submit(cmd);
        match client.recv() {
            Some(ReactorReply::Denied(why)) => Err(why),
            Some(reply) => Ok(reply),
            None => Err("the server is gone".into()),
        }
    }

    /// The ensemble's thread-name prefix; every thread this handle owns is
    /// named `{tag}…`, so a leak check can scan for survivors after
    /// [`DaemonHandle::shutdown`].
    pub fn thread_tag(&self) -> &str {
        &self.tag
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
        let (tx, rx) = channel();
        self.server_tx
            .send(ServerCmd::Client(ClientReq::QStat { job, reply: tx }))
            .ok()?;
        rx.recv().ok().flatten()
    }

    /// Blocks until `job` has started (true) or became terminal without
    /// ever starting (false) — event-driven, no polling.
    pub fn await_running(&self, job: JobId, timeout: Duration) -> bool {
        let (tx, rx) = channel();
        if self
            .server_tx
            .send(ServerCmd::Client(ClientReq::AwaitRunning {
                job,
                reply: tx,
            }))
            .is_err()
        {
            return false;
        }
        rx.recv_timeout(timeout).unwrap_or(false)
    }

    /// Polls until `job` reaches `state` or `timeout` elapses. Prefer
    /// [`DaemonHandle::await_running`] / [`DaemonHandle::await_drained`]
    /// where they fit — this exists for states they cannot express.
    pub fn wait_for_state(&self, job: JobId, state: JobState, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.qstat(job) == Some(state) {
                return true;
            }
            thread::sleep(Duration::from_millis(1));
        }
        false
    }

    /// Calls `tm_dynget()` from the job's mother superior, blocking until
    /// the batch system answers (grant with the added hostlist, or
    /// denial).
    pub fn tm_dynget(&self, job: JobId, extra_cores: u32) -> TmResponse {
        self.tm_dynget_with(job, extra_cores, None)
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
        self.tm_dynget_with(
            job,
            extra_cores,
            Some(dynbatch_core::SimDuration::from_millis(
                timeout.as_millis() as u64
            )),
        )
    }

    fn tm_dynget_with(
        &self,
        job: JobId,
        extra_cores: u32,
        timeout: Option<dynbatch_core::SimDuration>,
    ) -> TmResponse {
        let Some(ms) = self.ms_directory.lock().unwrap().get(&job).copied() else {
            return TmResponse::DynDenied;
        };
        let (tx, rx) = channel();
        self.mom_links[ms.0 as usize].send(MomMsg::Tm {
            job,
            req: TmRequest::DynGet {
                extra_cores,
                timeout,
            },
            reply: tx,
        });
        rx.recv().unwrap_or(TmResponse::DynDenied)
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
        let Some(ms) = self.ms_directory.lock().unwrap().get(&job).copied() else {
            return TmResponse::DynDenied;
        };
        let (tx, rx) = channel();
        self.mom_links[ms.0 as usize].send(MomMsg::Tm {
            job,
            req: TmRequest::DynFree { released },
            reply: tx,
        });
        rx.recv().unwrap_or(TmResponse::DynDenied)
    }

    /// Blocks until every submitted job is terminal, or `timeout`.
    pub fn await_drained(&self, timeout: Duration) -> bool {
        let (tx, rx) = channel();
        if self
            .server_tx
            .send(ServerCmd::Client(ClientReq::AwaitDrained { reply: tx }))
            .is_err()
        {
            return false;
        }
        rx.recv_timeout(timeout).is_ok()
    }

    /// Snapshot of the accounting log (completed-job outcomes).
    pub fn outcomes(&self) -> Vec<JobOutcome> {
        let (tx, rx) = channel();
        if self
            .server_tx
            .send(ServerCmd::Client(ClientReq::Outcomes { reply: tx }))
            .is_err()
        {
            return Vec::new();
        }
        rx.recv().unwrap_or_default()
    }

    /// Point-in-time view of the replication layer; `None` when the
    /// daemon runs without followers (or has already shut down).
    pub fn replication_status(&self) -> Option<ReplicationStatus> {
        let (tx, rx) = channel();
        if self
            .server_tx
            .send(ServerCmd::Client(ClientReq::ReplicationStatus {
                reply: tx,
            }))
            .is_err()
        {
            return None;
        }
        rx.recv().ok().flatten()
    }

    /// Total core-seconds the fairshare tracker has charged to `user`.
    pub fn fairshare_charged(&self, user: UserId) -> f64 {
        let (tx, rx) = channel();
        if self
            .server_tx
            .send(ServerCmd::Client(ClientReq::FairshareCharged {
                user,
                reply: tx,
            }))
            .is_err()
        {
            return 0.0;
        }
        rx.recv().unwrap_or(0.0)
    }

    /// Stops all daemons and joins their threads (server, moms, timer
    /// worker, chaos postman) — nothing outlives the handle.
    pub fn shutdown(self) {
        // Control messages go down the raw channels: shutdown must work
        // even under a message-dropping fault plan.
        let _ = self.server_tx.send(ServerCmd::Shutdown);
        for tx in &self.raw_mom_txs {
            let _ = tx.send(MomMsg::Shutdown);
        }
        for t in self.threads {
            let _ = t.join();
        }
        drop(self.mom_links);
        if let Some(chaos) = self.chaos {
            chaos.shutdown();
        }
    }
}

/// Compaction interval of the daemon's write-ahead journal: a snapshot
/// record replaces the history every this-many mutation records.
const JOURNAL_SNAPSHOT_EVERY: usize = 64;

/// The server daemon's state: `pbs_server` + Maui + the timer bookkeeping
/// that makes firings cancellable and stale-proof.
struct ServerDaemon {
    server: PbsServer,
    maui: Maui,
    /// Outstanding server-crash points from the fault plan, ascending, in
    /// journal-record coordinates.
    crash_points: VecDeque<u64>,
    moms: Vec<MomLink>,
    ms_directory: Arc<Mutex<HashMap<JobId, NodeId>>>,
    timers: TimerHandle<ServerCmd>,
    /// The app-exit timer of each running job and the run generation it
    /// was armed under: a firing that carries any other generation is
    /// stale (the run it was armed for was preempted, deleted, finished or
    /// lost in a restart) and is dropped. An entry lives exactly as long
    /// as its run.
    app_timers: HashMap<JobId, (TimerId, u64)>,
    /// Source of run generations: never reset, so no generation is used
    /// twice — not for a job that restarts, not across a server restart.
    next_gen: u64,
    /// The negotiation-expiry timer of each pending dynamic request.
    dyn_timers: HashMap<JobId, TimerId>,
    /// The command reactor, parked in an `Option` so polling can split the
    /// borrow (the reactor iterates while its apply closure mutates the
    /// rest of the daemon).
    reactor: Option<Reactor>,
    run_waiters: Vec<(JobId, Sender<bool>)>,
    drain_waiters: Vec<Sender<()>>,
    /// The replication host, when the deployment has followers.
    repl: Option<ReplHost>,
    /// Outstanding leader-kill points from the fault plan, ascending, in
    /// journal-record coordinates (consumed only while `repl` is live).
    leader_kill_points: VecDeque<u64>,
}

/// Everything the server daemon keeps for replication: the streaming hub
/// (owning the follower threads) and the accounting the availability story
/// is judged by.
struct ReplHost {
    hub: ReplicationHub,
    /// Completed failovers.
    failovers: u64,
    /// Watermark through which acks were released.
    acked_watermark: u64,
    /// Lost-tail accounting from the most recent failover; `acked_lost`
    /// must read 0, every ack having waited for the followers.
    lost_records: u64,
    acked_lost: u64,
    /// Divergence errors surfaced by followers (sticky until queried).
    errors: Vec<String>,
}

/// The server daemon: owns `pbs_server` and the Maui scheduler; every
/// state change triggers a scheduling cycle, exactly like the simulator.
fn server_main(
    config: DaemonConfig,
    rx: Receiver<ServerCmd>,
    self_tx: Sender<ServerCmd>,
    moms: Vec<MomLink>,
    ms_directory: Arc<Mutex<HashMap<JobId, NodeId>>>,
    reactor: Reactor,
    tag: String,
) {
    // Timer firings are delivered into the server's own queue on the raw
    // sender: deadlines are trusted infrastructure, never faulted.
    let timers = TimerService::start(&format!("{tag}tmr"), move |cmd| {
        let _ = self_tx.send(cmd);
    });
    let mut d = ServerDaemon::new(config, moms, ms_directory, timers.handle(), reactor, &tag);
    d.pump_replication(); // seed followers with the genesis snapshot
    let epoch = Instant::now();
    while let Ok(cmd) = rx.recv() {
        let t = SimTime::from_millis(epoch.elapsed().as_millis() as u64);
        if !d.handle(cmd, t) {
            break;
        }
        d.maybe_crash(t);
        d.pump_replication();
        d.flush_waiters();
    }
    // Follower threads are joined before the timer worker: nothing owned
    // by the ensemble outlives the server thread.
    if let Some(mut repl) = d.repl.take() {
        repl.hub.shutdown();
    }
    // Joins the worker; pending app/dyn deadlines die with it.
    timers.shutdown();
}

impl ServerDaemon {
    /// Boots the server side of an ensemble: a journaling `pbs_server`, a
    /// fresh Maui, the fault plan's crash schedule and the replication hub
    /// with its follower threads (named `{tag}rep{i}`).
    fn new(
        config: DaemonConfig,
        moms: Vec<MomLink>,
        ms_directory: Arc<Mutex<HashMap<JobId, NodeId>>>,
        timers: TimerHandle<ServerCmd>,
        reactor: Reactor,
        tag: &str,
    ) -> Self {
        let cluster = Cluster::homogeneous(config.nodes, config.cores_per_node);
        let alloc_policy = config.sched.alloc;
        let crash_points: VecDeque<u64> = config
            .faults
            .as_ref()
            .map(|p| p.server_crashes.iter().map(|c| c.after_record).collect())
            .unwrap_or_default();
        let leader_kill_points: VecDeque<u64> = config
            .faults
            .as_ref()
            .map(|p| p.leader_kills.iter().map(|c| c.after_record).collect())
            .unwrap_or_default();
        // The replication hub and its follower threads live on the server
        // thread's side of the world: streaming is pumped at every command
        // boundary, so follower state only ever reflects journal prefixes.
        let repl = (config.followers > 0).then(|| {
            let faults = config
                .faults
                .as_ref()
                .and_then(|p| p.replication.clone())
                .unwrap_or_else(|| ReplFaultPlan::none(0));
            let mut hub = ReplicationHub::new(HubConfig {
                faults,
                ..HubConfig::default()
            });
            for i in 0..config.followers {
                hub.add_follower(&format!("{tag}rep{i}"));
            }
            ReplHost {
                hub,
                failovers: 0,
                acked_watermark: 0,
                lost_records: 0,
                acked_lost: 0,
                errors: Vec::new(),
            }
        });
        // The daemon always journals: crash recovery (scheduled by the fault
        // plan or exercised by the chaos suite) depends on it, and the append
        // cost is measured and bounded (`perf_smoke`'s `journal` section).
        let mut server = PbsServer::new(cluster, alloc_policy);
        // Half-life before `enable_journal` so the genesis image already
        // carries it.
        server.set_usage_half_life(config.sched.fairshare.half_life);
        server.enable_journal(JOURNAL_SNAPSHOT_EVERY);
        ServerDaemon {
            server,
            maui: Maui::new(config.sched),
            crash_points,
            moms,
            ms_directory,
            timers,
            app_timers: HashMap::new(),
            next_gen: 0,
            dyn_timers: HashMap::new(),
            reactor: Some(reactor),
            run_waiters: Vec::new(),
            drain_waiters: Vec::new(),
            repl,
            leader_kill_points,
        }
    }

    /// Processes one command; returns `false` on shutdown.
    fn handle(&mut self, cmd: ServerCmd, t: SimTime) -> bool {
        let state_changed = match cmd {
            ServerCmd::Client(req) => {
                self.handle_client(req);
                false
            }
            ServerCmd::FromMom(m) => self.handle_mom(m, t),
            ServerCmd::JobExited(job, gen) => {
                // Stale firing (job preempted & restarted since this timer
                // was armed): the generation no longer matches — drop it.
                if self.app_timers.get(&job).is_some_and(|&(_, g)| g == gen) {
                    self.finish_job(job, t)
                } else {
                    false
                }
            }
            ServerCmd::ExpireDyn { job, seq } => self.handle_expiry(job, seq, t),
            ServerCmd::MomRestarted(node) => {
                self.handle_mom_restart(node);
                false
            }
            ServerCmd::ReactorWake => self.reactor_poll(t),
            ServerCmd::Shutdown => return false,
        };
        if state_changed {
            self.cycle(t);
        }
        true
    }

    /// Observation and waiting: nothing here changes server state.
    fn handle_client(&mut self, req: ClientReq) {
        match req {
            ClientReq::QStat { job, reply } => {
                let _ = reply.send(self.server.job(job).map(|j| j.state).ok());
            }
            // Parked; resolved by flush_waiters after this command.
            ClientReq::AwaitRunning { job, reply } => self.run_waiters.push((job, reply)),
            ClientReq::AwaitDrained { reply } => self.drain_waiters.push(reply),
            ClientReq::Outcomes { reply } => {
                let _ = reply.send(self.server.accounting().outcomes().to_vec());
            }
            ClientReq::FairshareCharged { user, reply } => {
                let _ = reply.send(self.maui.fairshare().charged(user));
            }
            ClientReq::ReplicationStatus { reply } => {
                let _ = reply.send(self.replication_status());
            }
        }
    }

    /// The mom door: a TM call an application made at its mother superior
    /// is the same command a reactor client could have sent. This door
    /// acks nothing — the application's answer is the grant or rejection a
    /// later cycle sends its mom — except that a request the server would
    /// not queue is rejected straight back.
    fn handle_mom(&mut self, msg: MomToServer, t: SimTime) -> bool {
        let cmd = match msg {
            // A tm_dynget that lands queues and triggers a scheduling
            // cycle (paper: "This triggers a new scheduling cycle"); the
            // mom already shrank its hostlist for a tm_dynfree.
            MomToServer::Forwarded(cmd) => cmd,
            MomToServer::JobStarted {
                job,
                mother_superior,
            } => {
                self.ms_directory
                    .lock()
                    .unwrap()
                    .insert(job, mother_superior);
                return false;
            }
        };
        let (_, mutated) = self.apply_command(&cmd, t);
        if let (ReactorCommand::DynGet { job, .. }, false) = (&cmd, mutated) {
            // Already pending or not running: deny straight back.
            self.send_to_ms(*job, ServerToMom::DynReject { job: *job });
        }
        mutated
    }

    /// A negotiation-expiry firing. A no-op unless the *exact* request it
    /// was armed for (`seq`) is still pending and past its deadline — a
    /// grant, rejection or supersession in the meantime wins the race.
    fn handle_expiry(&mut self, job: JobId, seq: u64, t: SimTime) -> bool {
        let expiry = Record::ExpireOne { job, seq, now: t };
        if matches!(self.server.execute(expiry), Ok(Effect::Expired(_))) {
            self.dyn_timers.remove(&job);
            self.send_to_ms(job, ServerToMom::DynReject { job });
            true
        } else if self.server.pending_dyn_seq(job) == Some(seq) {
            // Fired a hair before the deadline (SimTime truncates to whole
            // milliseconds): re-arm rather than leak a pending request.
            let id = self
                .timers
                .schedule(Duration::from_millis(2), ServerCmd::ExpireDyn { job, seq });
            self.dyn_timers.insert(job, id);
            false
        } else {
            false
        }
    }

    /// A mom lost its state and restarted: re-send `RunJob` for every
    /// active job it mothers so it can rebuild its hostlists. (App
    /// processes survive the mom's restart — their deadlines live in the
    /// server's timer service — so this is pure state repair.)
    fn handle_mom_restart(&mut self, node: NodeId) {
        let mothered: Vec<JobId> = self
            .ms_directory
            .lock()
            .unwrap()
            .iter()
            .filter(|&(_, &ms)| ms == node)
            .map(|(&job, _)| job)
            .collect();
        for job in mothered {
            let active = self
                .server
                .job(job)
                .map(|j| j.state.is_active())
                .unwrap_or(false);
            if !active {
                continue;
            }
            if let Some(alloc) = self.server.cluster().allocation_of(job) {
                self.moms[node.0 as usize].send(MomMsg::FromServer(ServerToMom::RunJob {
                    job,
                    alloc: alloc.clone(),
                }));
            }
        }
    }

    /// Honours the fault plan's schedule: once the journal has appended
    /// the next crash (or, with replication live, leader-kill) point's
    /// record count, the server "process" dies at this command boundary.
    fn maybe_crash(&mut self, t: SimTime) {
        loop {
            let Some(appended) = self.server.journal().map(|j| j.total_appended()) else {
                return;
            };
            let due = |points: &VecDeque<u64>| points.front().is_some_and(|&k| appended >= k);
            if due(&self.crash_points) {
                self.crash_points.pop_front();
                self.restart(false, t);
            } else if self.repl.is_some() && due(&self.leader_kill_points) {
                self.leader_kill_points.pop_front();
                self.restart(true, t);
            } else {
                return;
            }
        }
    }

    /// The server dies and comes back: scheduler soft state, armed
    /// deadlines and the fairshare ledger's open segments are lost.
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
    /// Either way [`ServerDaemon::adopt_recovered`] then re-arms every
    /// outstanding deadline from recovered state (not from wall-clock
    /// leftovers) and re-attaches the moms.
    fn restart(&mut self, failover: bool, t: SimTime) {
        // All pre-crash timers die with the process. `next_gen` is
        // deliberately carried across — it is a monotonic nonce, not
        // recoverable state: `adopt_recovered` re-arms every run under a
        // fresh generation, so any pre-crash firing already sitting in the
        // command queue is stale on arrival.
        let app = self.app_timers.drain().map(|(_, (id, _))| id);
        for id in app.chain(self.dyn_timers.drain().map(|(_, id)| id)) {
            self.timers.cancel(id);
        }
        let promoted = failover.then(|| self.promote_follower()).flatten();
        self.server = promoted.unwrap_or_else(|| {
            let journal = self
                .server
                .take_journal()
                .expect("daemon servers always journal");
            PbsServer::recover(journal).expect("journal replays cleanly")
        });
        self.adopt_recovered(t);
        if failover {
            // Deny parked tm_dynget callers whose request records died
            // with the old leader; surviving negotiations stay parked and
            // will be answered by this (new) leader's scheduling cycles.
            let live: Vec<JobId> = self.server.pending_dyn_requests().map(|p| p.job).collect();
            for mom in &self.moms {
                mom.send(MomMsg::ReconcileDyn { live: live.clone() });
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
        match repl.hub.fail_over(old_appended, repl.acked_watermark) {
            Ok((promoted, report)) => {
                repl.failovers += 1;
                repl.lost_records = report.lost_records;
                repl.acked_lost = report.acked_lost;
                // Acks released under the old term are all ≤ the promoted
                // watermark (that is the point); the counter restarts in
                // the new term's coordinates.
                repl.acked_watermark = 0;
                Some(promoted)
            }
            Err(e) => {
                repl.errors.push(format!("failover failed: {e}"));
                None
            }
        }
    }

    /// The shared adoption path for a server that just materialised from
    /// recovery (crash-restart) or promotion (failover): rebuild scheduler
    /// soft state, re-arm the journal, revive app deadlines, re-attach
    /// moms, and re-arm negotiation expiries.
    fn adopt_recovered(&mut self, t: SimTime) {
        // Boot order: half-life before `enable_journal` below so a fresh
        // genesis image already carries it. (The decayed usage accounts
        // themselves come back bit-exact from the image, half-life
        // included, so the setter is a no-op unless they are empty.)
        self.server
            .set_usage_half_life(self.maui.config().fairshare.half_life);
        if self.server.journal().is_none() {
            // A promoted follower arrives journal-less: journaling is a
            // per-process concern. The genesis snapshot this appends opens
            // the new term's record coordinates.
            self.server.enable_journal(JOURNAL_SNAPSHOT_EVERY);
        }
        // Scheduler soft state (reservation history, negotiation-delay
        // bookkeeping) is not journalled: a fresh Maui restarts from the
        // recovered server state, exactly as a real scheduler restart
        // would. Fairshare charges, however, DO survive: they live in the
        // server's journalled usage ledger, and the first delta log of a
        // recovered or promoted server carries the totals.
        self.maui = Maui::new(self.maui.config().clone());
        struct Revive {
            job: JobId,
            remaining: Duration,
            alloc: Allocation,
        }
        let revive: Vec<Revive> = self
            .server
            .live_jobs()
            .filter(|j| j.state.is_active() && j.start_time.is_some())
            .filter_map(|j| {
                let alloc = self.server.cluster().allocation_of(j.id)?.clone();
                let ends_at = j.start_time.expect("filtered")
                    + j.spec.exec.static_duration(j.cores_allocated);
                Revive {
                    job: j.id,
                    remaining: Duration::from_millis(ends_at.duration_since(t).as_millis()),
                    alloc,
                }
                .into()
            })
            .collect();
        for r in revive {
            // The application outlived the server: re-arm its exit
            // deadline for the *remaining* modelled runtime under a fresh
            // generation, and replay its placement to the mother superior
            // so the mom can reconcile (an unknown job re-registers; a
            // known one keeps its hostlist and any parked TM caller). Its
            // open usage segment needs no action — `usage_since` was
            // recovered from the journal image along with the rest.
            self.arm_app_timer(r.job, r.remaining);
            let ms = {
                let mut dir = self.ms_directory.lock().unwrap();
                *dir.entry(r.job)
                    .or_insert_with(|| r.alloc.entries().next().expect("non-empty allocation").0)
            };
            self.moms[ms.0 as usize].send(MomMsg::FromServer(ServerToMom::RunJob {
                job: r.job,
                alloc: r.alloc,
            }));
        }
        // Outstanding negotiation windows continue from their *recovered*
        // deadlines; a window that elapsed while the server was down
        // expires on the next firing rather than silently leaking.
        let pending: Vec<JobId> = self.server.pending_dyn_requests().map(|p| p.job).collect();
        for job in pending {
            self.arm_dyn_timer(job, t);
        }
        // The world may have moved while the server was down: run a cycle
        // against recovered state immediately.
        self.cycle(t);
    }

    /// Shared completion path (mom report or app-exit timer): settle the
    /// ledger, finish at the server, disarm timers, kill the app remnant.
    fn finish_job(&mut self, job: JobId, t: SimTime) -> bool {
        let active = self
            .server
            .job(job)
            .map(|j| j.state.is_active())
            .unwrap_or(false);
        if !active {
            return false;
        }
        self.server
            .execute(Record::Finish { job, now: t })
            .expect("active job finishes");
        self.kill_app(job);
        true
    }

    /// A job stopped running (finished, deleted, preempted): its timers
    /// are disarmed and its mom told to kill what is left of the app.
    fn kill_app(&mut self, job: JobId) {
        self.cancel_timers(job);
        let ms = self.ms_directory.lock().unwrap().remove(&job);
        if let Some(ms) = ms {
            self.moms[ms.0 as usize].send(MomMsg::FromServer(ServerToMom::KillJob { job }));
        }
    }

    /// Drains the command reactor: every admissible (contiguous-ticket)
    /// command applies to the single-writer server in ticket order, its
    /// journal record landing — and, with followers, replicating — before
    /// the reactor releases its ack: the one ack rule, for lines and for
    /// [`DaemonHandle::qsub`] / [`DaemonHandle::qdel`] alike. One
    /// scheduling cycle per batch, not per command. Returns whether server
    /// state changed.
    fn reactor_poll(&mut self, t: SimTime) -> bool {
        let mut reactor = self.reactor.take().expect("reactor present");
        let mut changed = false;
        let mut batch_dirty = false;
        reactor.poll_batch(u64::MAX, |ev| match ev {
            BatchEvent::Apply { cmd, .. } => {
                let (reply, mutated) = self.reactor_apply(cmd, t);
                changed |= mutated;
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
        changed
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
                self.send_to_ms(
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
    /// leader. A batch of reads just keeps the stream warm.
    fn commit_gate(&mut self, batch_dirty: bool) {
        let target = self.appended();
        let Some(repl) = self.repl.as_mut() else {
            return;
        };
        if batch_dirty {
            if repl.hub.await_replicated(&self.server, target) {
                repl.acked_watermark = repl.acked_watermark.max(target);
            }
        } else {
            let report = repl.hub.pump(&self.server);
            repl.errors.extend(report.errors);
        }
    }

    /// One streaming round (called at every command boundary): ships the
    /// journal tail to the followers and refreshes their watermarks.
    fn pump_replication(&mut self) {
        let Some(repl) = self.repl.as_mut() else {
            return;
        };
        if self.server.journal().is_none() {
            return;
        }
        // Keep compaction behind the replicated watermark so followers
        // stream plain records across snapshot boundaries.
        if let Some(w) = repl.hub.replicated_watermark() {
            self.server.journal_retain_from(w + 1);
        }
        let report = repl.hub.pump(&self.server);
        repl.errors.extend(report.errors);
    }

    /// Records the journal has appended this term.
    fn appended(&self) -> u64 {
        self.server.journal().map_or(0, |j| j.total_appended())
    }

    /// Answers [`ClientReq::ReplicationStatus`].
    fn replication_status(&mut self) -> Option<ReplicationStatus> {
        let leader_appended = self.appended();
        let repl = self.repl.as_mut()?;
        Some(ReplicationStatus {
            term: repl.hub.term(),
            follower_watermarks: repl.hub.acked_watermarks(),
            leader_appended,
            acked_watermark: repl.acked_watermark,
            failovers: repl.failovers,
            lost_records: repl.lost_records,
            acked_lost: repl.acked_lost,
            errors: std::mem::take(&mut repl.errors),
        })
    }

    /// The one place a command reaches the server, through either door
    /// (a reactor connection, a mom-forwarded TM call): [`apply_to_server`]
    /// plus the side effects only the daemon owns. Returns the reply and
    /// whether server state changed — the ack of a dynget means "queued,
    /// journalled"; the grant or rejection itself arrives at the job's mom
    /// from a later cycle.
    fn apply_command(&mut self, cmd: &ReactorCommand, t: SimTime) -> (ReactorReply, bool) {
        let was_running = matches!(cmd, ReactorCommand::QDel(job)
            if self.server.job(*job).is_ok_and(|j| j.state.is_active()));
        let reply = apply_to_server(&mut self.server, cmd, t);
        let mutated = matches!(reply, ReactorReply::Submitted(_) | ReactorReply::Ok);
        match cmd {
            // The server settled its usage charges inside `qdel`.
            ReactorCommand::QDel(job) if mutated && was_running => self.kill_app(*job),
            ReactorCommand::DynGet { job, .. } if mutated => self.arm_dyn_timer(*job, t),
            _ => {}
        }
        (reply, mutated)
    }

    /// One scheduling cycle: snapshot → Maui iteration → apply, then fan
    /// the applied actions out to the moms.
    fn cycle(&mut self, now: SimTime) {
        let (_, applied) = self.server.run_cycle(&mut self.maui, now);
        for action in applied {
            match action {
                Applied::Started { job, alloc, .. } => {
                    let ms = alloc.entries().next().expect("non-empty allocation").0;
                    self.ms_directory.lock().unwrap().insert(job, ms);
                    let dur = {
                        let j = self.server.job(job).expect("started job exists");
                        j.spec.exec.static_duration(j.cores_allocated)
                    };
                    self.moms[ms.0 as usize]
                        .send(MomMsg::FromServer(ServerToMom::RunJob { job, alloc }));
                    self.arm_app_timer(job, Duration::from_millis(dur.as_millis()));
                }
                Applied::DynGranted { job, added } => {
                    if let Some(id) = self.dyn_timers.remove(&job) {
                        self.timers.cancel(id);
                    }
                    self.send_to_ms(job, ServerToMom::DynJoin { job, added });
                }
                Applied::DynRejected { job, .. } => {
                    if let Some(id) = self.dyn_timers.remove(&job) {
                        self.timers.cancel(id);
                    }
                    self.send_to_ms(job, ServerToMom::DynReject { job });
                }
                Applied::DynDeferred { .. } => {
                    // Negotiation: the request stays pending at the server;
                    // the application keeps waiting on its TM reply channel
                    // until a later cycle grants it or the expiry fires.
                }
                Applied::Preempted { job } => self.kill_app(job),
                Applied::Resized {
                    job,
                    from_cores,
                    to_cores,
                    changed,
                } => {
                    // Keep the mother superior's hostlist current. Note the
                    // daemon's app timers are not re-paced by resizes (the
                    // virtual-time simulator models work-pool speedups;
                    // here a job runs its submitted duration).
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

    /// The "application": a cancellable deadline that exits `after` the
    /// job's remaining modelled runtime (1 SimTime ms == 1 wall ms here),
    /// tagged with a fresh run generation.
    fn arm_app_timer(&mut self, job: JobId, after: Duration) {
        self.next_gen += 1;
        let gen = self.next_gen;
        let id = self.timers.schedule(after, ServerCmd::JobExited(job, gen));
        if let Some((old, _)) = self.app_timers.insert(job, (id, gen)) {
            self.timers.cancel(old);
        }
    }

    /// Arms the expiry of `job`'s pending request, if it negotiates.
    fn arm_dyn_timer(&mut self, job: JobId, now: SimTime) {
        let pending = self.server.pending_dyn_requests().find(|p| p.job == job);
        let Some((seq, deadline)) = pending.and_then(|p| Some((p.seq, p.deadline?))) else {
            return;
        };
        // +1 ms guards the SimTime floor: never fire before the deadline.
        let wait = Duration::from_millis(deadline.duration_since(now).as_millis() + 1);
        let id = self
            .timers
            .schedule(wait, ServerCmd::ExpireDyn { job, seq });
        if let Some(old) = self.dyn_timers.insert(job, id) {
            self.timers.cancel(old);
        }
    }

    fn cancel_timers(&mut self, job: JobId) {
        if let Some((id, _)) = self.app_timers.remove(&job) {
            self.timers.cancel(id);
        }
        if let Some(id) = self.dyn_timers.remove(&job) {
            self.timers.cancel(id);
        }
    }

    fn send_to_ms(&self, job: JobId, msg: ServerToMom) {
        if let Some(&ms) = self.ms_directory.lock().unwrap().get(&job) {
            self.moms[ms.0 as usize].send(MomMsg::FromServer(msg));
        }
    }

    /// Resolves parked `AwaitRunning` / `AwaitDrained` calls against the
    /// current server state.
    fn flush_waiters(&mut self) {
        let server = &self.server;
        self.run_waiters
            .retain(|(job, reply)| match server.job(*job) {
                Ok(j) if j.start_time.is_some() => {
                    let _ = reply.send(true);
                    false
                }
                Ok(j) if j.state.is_terminal() => {
                    let _ = reply.send(false);
                    false
                }
                Ok(_) => true,
                Err(_) => {
                    let _ = reply.send(false);
                    false
                }
            });
        if !self.drain_waiters.is_empty() && server.is_drained() {
            for w in self.drain_waiters.drain(..) {
                let _ = w.send(());
            }
        }
    }
}

/// Which pending TM call a response answers. `tm_dynget` and `tm_dynfree`
/// replies are routed independently per job: a `tm_dynfree` issued while a
/// negotiated `tm_dynget` is still pending must not steal (or clobber) the
/// dynget's reply channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ReplyKind {
    /// A `tm_dynget` (answered by `DynGranted` / `DynDenied`).
    Get,
    /// A `tm_dynfree` (answered by `Freed`).
    Free,
}

impl ReplyKind {
    fn of_request(req: &TmRequest) -> Self {
        match req {
            TmRequest::DynGet { .. } => ReplyKind::Get,
            TmRequest::DynFree { .. } => ReplyKind::Free,
        }
    }

    fn of_response(resp: &TmResponse) -> Self {
        match resp {
            TmResponse::DynGranted { .. } | TmResponse::DynDenied => ReplyKind::Get,
            TmResponse::Freed => ReplyKind::Free,
        }
    }
}

/// Routes asynchronous TM responses back to the application calls that
/// await them, keyed by `(job, kind)` with FIFO queues — replacing the
/// single-slot `HashMap<JobId, Sender>` that let a later call overwrite
/// an earlier call's pending reply channel.
#[derive(Debug, Default)]
struct ReplyRouter {
    pending: HashMap<(JobId, ReplyKind), VecDeque<Sender<TmResponse>>>,
}

impl ReplyRouter {
    /// Parks a caller until a response of the matching kind arrives.
    fn register(&mut self, job: JobId, kind: ReplyKind, reply: Sender<TmResponse>) {
        self.pending
            .entry((job, kind))
            .or_default()
            .push_back(reply);
    }

    /// Delivers a response to the oldest caller awaiting its kind; a
    /// response nobody awaits (e.g. a grant whose caller was failed over
    /// a mom restart) is dropped.
    fn deliver(&mut self, job: JobId, resp: TmResponse) {
        let key = (job, ReplyKind::of_response(&resp));
        if let Some(q) = self.pending.get_mut(&key) {
            if let Some(reply) = q.pop_front() {
                let _ = reply.send(resp);
            }
            if q.is_empty() {
                self.pending.remove(&key);
            }
        }
    }

    /// Failover reconciliation: denies parked `dynget` callers whose
    /// pending request did not survive on the promoted leader (its job is
    /// absent from `live`). Surviving negotiations stay parked — the new
    /// leader will grant or expire them through the ordinary paths.
    fn fail_lost_gets(&mut self, live: &[JobId]) {
        let lost: Vec<(JobId, ReplyKind)> = self
            .pending
            .keys()
            .filter(|(job, kind)| *kind == ReplyKind::Get && !live.contains(job))
            .copied()
            .collect();
        for key in lost {
            if let Some(q) = self.pending.remove(&key) {
                for reply in q {
                    let _ = reply.send(TmResponse::DynDenied);
                }
            }
        }
    }

    /// Fails every parked caller (mom crash): dynget callers are denied,
    /// dynfree callers acked — the release already took effect locally.
    fn fail_all(&mut self) {
        for ((_, kind), q) in self.pending.drain() {
            let resp = match kind {
                ReplyKind::Get => TmResponse::DynDenied,
                ReplyKind::Free => TmResponse::Freed,
            };
            for reply in q {
                let _ = reply.send(resp.clone());
            }
        }
    }

    #[cfg(test)]
    fn pending_count(&self) -> usize {
        self.pending.values().map(|q| q.len()).sum()
    }
}

/// Base retransmission interval of an unacked dyn_join ping.
const JOIN_RETRY_BASE_MS: u64 = 8;
/// Backoff ceiling: `8 ms << 5` = 256 ms between retries.
const JOIN_RETRY_MAX_SHIFT: u32 = 5;

/// One in-flight dyn_join fan-out at a mother superior.
struct PendingJoin {
    /// The fan-out round; acks from older rounds are ignored.
    round: u64,
    /// The allocation being joined (answered to the app when complete).
    added: Allocation,
    /// Nodes whose ack is still outstanding (set semantics: a duplicated
    /// ack counts once).
    unacked: BTreeSet<NodeId>,
    /// Retries so far (drives exponential backoff).
    attempt: u32,
    /// When to retransmit next.
    next_retry: Instant,
}

/// One `pbs_mom` daemon: wraps the pure [`Mom`] state machine with the
/// dyn_join fan-out (ping/ack every newly allocated node before answering
/// the application — the real cost Fig 12 measures). Pings are
/// retransmitted with exponential backoff until acked, so the fan-out
/// survives dropped peer messages.
fn mom_main(node: NodeId, rx: Receiver<MomMsg>, server: ServerLink, peers: Vec<MomLink>) {
    let mut mom = Mom::new(node);
    let mut replies = ReplyRouter::default();
    let mut joins: HashMap<JobId, PendingJoin> = HashMap::new();
    let mut round: u64 = 0;
    loop {
        // Retransmit overdue pings (ack timeout + exponential backoff).
        let now = Instant::now();
        for (&job, pj) in joins.iter_mut() {
            if pj.next_retry <= now {
                for &peer in &pj.unacked {
                    peers[peer.0 as usize].send(MomMsg::Peer(PeerMsg::JoinPing {
                        job,
                        round: pj.round,
                        reply_to: node,
                    }));
                }
                pj.attempt += 1;
                let backoff = Duration::from_millis(
                    JOIN_RETRY_BASE_MS << pj.attempt.min(JOIN_RETRY_MAX_SHIFT),
                );
                pj.next_retry = now + backoff;
            }
        }
        let next_retry = joins.values().map(|pj| pj.next_retry).min();
        let msg = match next_retry {
            Some(at) => match rx.recv_timeout(at.saturating_duration_since(Instant::now())) {
                Ok(m) => m,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            },
            None => match rx.recv() {
                Ok(m) => m,
                Err(_) => break,
            },
        };
        match msg {
            MomMsg::FromServer(ServerToMom::DynJoin { job, added }) => {
                // dyn_join: every newly allocated host joins the group
                // before the application gets its hostlist.
                let mut added = added;
                if let Some(stale) = joins.remove(&job) {
                    // A second join while one is in flight (e.g. a resize
                    // racing a grant): fan out the union under a new round.
                    added.merge(&stale.added);
                }
                let others: BTreeSet<NodeId> = added
                    .entries()
                    .map(|(n, _)| n)
                    .filter(|&n| n != node)
                    .collect();
                if others.is_empty() {
                    let out = mom.handle_server(ServerToMom::DynJoin { job, added });
                    route(out, &mut replies, &server);
                } else {
                    round += 1;
                    for &peer in &others {
                        peers[peer.0 as usize].send(MomMsg::Peer(PeerMsg::JoinPing {
                            job,
                            round,
                            reply_to: node,
                        }));
                    }
                    joins.insert(
                        job,
                        PendingJoin {
                            round,
                            added,
                            unacked: others,
                            attempt: 0,
                            next_retry: Instant::now() + Duration::from_millis(JOIN_RETRY_BASE_MS),
                        },
                    );
                }
            }
            MomMsg::FromServer(other) => {
                let out = mom.handle_server(other);
                route(out, &mut replies, &server);
            }
            MomMsg::Peer(PeerMsg::JoinPing {
                job,
                round: ping_round,
                reply_to,
            }) => {
                peers[reply_to.0 as usize].send(MomMsg::Peer(PeerMsg::JoinAck {
                    job,
                    round: ping_round,
                    from: node,
                }));
            }
            MomMsg::Peer(PeerMsg::JoinAck {
                job,
                round: ack_round,
                from,
            }) => {
                let complete = match joins.get_mut(&job) {
                    Some(pj) => {
                        if pj.round == ack_round {
                            pj.unacked.remove(&from);
                        }
                        pj.unacked.is_empty()
                    }
                    None => false,
                };
                if complete {
                    let pj = joins.remove(&job).expect("present");
                    let out = mom.handle_server(ServerToMom::DynJoin {
                        job,
                        added: pj.added,
                    });
                    route(out, &mut replies, &server);
                }
            }
            MomMsg::Tm { job, req, reply } => {
                let kind = ReplyKind::of_request(&req);
                let outs = mom.handle_tm(job, req);
                // Any response the mom emits synchronously for this job
                // answers *this* call; only an unanswered caller is parked.
                let mut direct = Some(reply);
                for out in outs {
                    match out {
                        MomOutput::ToServer(m) => server.send(ServerCmd::FromMom(m)),
                        MomOutput::ToApp(j, resp) => {
                            if j == job {
                                if let Some(tx) = direct.take() {
                                    let _ = tx.send(resp);
                                    continue;
                                }
                            }
                            replies.deliver(j, resp);
                        }
                    }
                }
                if let Some(tx) = direct {
                    replies.register(job, kind, tx);
                }
            }
            MomMsg::ReconcileDyn { live } => {
                replies.fail_lost_gets(&live);
            }
            MomMsg::Crash => {
                // The mom "process" dies: every parked TM caller is failed
                // back to its application, in-flight fan-outs are lost, and
                // the fresh mom asks the server to replay its jobs.
                replies.fail_all();
                joins.clear();
                mom = Mom::new(node);
                server.send(ServerCmd::MomRestarted(node));
            }
            MomMsg::Shutdown => break,
        }
    }
}

fn route(outputs: Vec<MomOutput>, replies: &mut ReplyRouter, server: &ServerLink) {
    for out in outputs {
        match out {
            MomOutput::ToServer(m) => server.send(ServerCmd::FromMom(m)),
            MomOutput::ToApp(job, resp) => replies.deliver(job, resp),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ServerCrash;
    use dynbatch_core::{DfsConfig, ExecutionModel, GroupId, SimDuration, UserId};

    fn spec(name: &str, cores: u32, millis: u64) -> JobSpec {
        JobSpec {
            name: name.into(),
            user: UserId(0),
            group: GroupId(0),
            class: dynbatch_core::JobClass::Rigid,
            cores,
            walltime: SimDuration::from_millis(millis),
            exec: ExecutionModel::Fixed {
                duration: SimDuration::from_millis(millis),
            },
            priority_boost: 0,
            suppress_backfill_while_queued: false,
            malleable: None,
            moldable: None,
            dyn_timeout: None,
            queue: None,
        }
    }

    fn hp_config(nodes: u32) -> DaemonConfig {
        let mut sched = SchedulerConfig::paper_eval();
        sched.dfs = DfsConfig::highest_priority();
        DaemonConfig {
            nodes,
            cores_per_node: 8,
            sched,
            faults: None,
            followers: 0,
        }
    }

    #[test]
    fn submit_run_finish() {
        let d = DaemonHandle::start(hp_config(4));
        let id = d.qsub(spec("demo", 8, 50)).expect("qsub");
        assert!(d.await_running(id, Duration::from_secs(2)));
        assert!(d.await_drained(Duration::from_secs(2)));
        assert_eq!(d.qstat(id), Some(JobState::Completed));
        d.shutdown();
    }

    #[test]
    fn dynget_roundtrip_grants() {
        let d = DaemonHandle::start(hp_config(4));
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
        d.shutdown();
    }

    #[test]
    fn dynget_denied_when_full() {
        let d = DaemonHandle::start(hp_config(2));
        let id = d.qsub(spec("big", 16, 5_000)).expect("qsub");
        assert!(d.await_running(id, Duration::from_secs(2)));
        let resp = d.tm_dynget(id, 4);
        assert!(matches!(resp, TmResponse::DynDenied), "{resp:?}");
        let _ = d.qdel(id);
        assert!(d.await_drained(Duration::from_secs(2)));
        d.shutdown();
    }

    #[test]
    fn dynfree_releases() {
        let d = DaemonHandle::start(hp_config(4));
        let id = d.qsub(spec("app", 16, 5_000)).expect("qsub");
        assert!(d.await_running(id, Duration::from_secs(2)));
        let (resp, _) = d.tm_dynget_timed(id, 8);
        let TmResponse::DynGranted { added } = resp else {
            panic!("grant expected");
        };
        let resp = d.tm_dynfree(id, added);
        assert!(matches!(resp, TmResponse::Freed), "{resp:?}");
        let _ = d.qdel(id);
        assert!(d.await_drained(Duration::from_secs(2)));
        d.shutdown();
    }

    #[test]
    fn queue_drains() {
        let d = DaemonHandle::start(hp_config(2));
        for i in 0..6 {
            d.qsub(spec(&format!("j{i}"), 8, 30)).expect("qsub");
        }
        assert!(d.await_drained(Duration::from_secs(5)));
        d.shutdown();
    }

    #[test]
    fn await_running_false_for_never_started() {
        let d = DaemonHandle::start(hp_config(1));
        let blocker = d.qsub(spec("blocker", 8, 400)).expect("qsub");
        assert!(d.await_running(blocker, Duration::from_secs(2)));
        // Queued behind the blocker, then deleted before it can start.
        let doomed = d.qsub(spec("doomed", 8, 100)).expect("qsub");
        d.qdel(doomed).expect("qdel queued job");
        assert!(!d.await_running(doomed, Duration::from_millis(500)));
        assert_eq!(d.qstat(doomed), Some(JobState::Cancelled));
        assert!(d.await_drained(Duration::from_secs(2)));
        d.shutdown();
    }

    /// The run-generation table follows the running set, not history:
    /// 10 000 short jobs through a two-node machine, finished by their
    /// app-exit firing or deleted while running, and never more entries
    /// than running jobs. A firing that arrives after its run is over is
    /// refused.
    #[test]
    fn run_generations_live_as_long_as_the_run() {
        let timers = TimerService::start("soak-tmr", |_: ServerCmd| {});
        let moms = (0..2).map(|i| MomLink::new(i, channel().0, None)).collect();
        let reactor = Reactor::new();
        let client = reactor.connect();
        let mut d = ServerDaemon::new(
            hp_config(2),
            moms,
            Arc::default(),
            timers.handle(),
            reactor,
            "soak.",
        );
        let acked = |d: &mut ServerDaemon, cmd: ReactorCommand, t: SimTime| {
            client.submit(cmd);
            d.handle(ServerCmd::ReactorWake, t);
            client.try_recv().expect("one reply per command")
        };
        let mut last_firing = None;
        for i in 0..10_000u64 {
            let t = SimTime::from_millis(i);
            // The whole machine: the job starts in this command's cycle.
            let submit = ReactorCommand::QSub(Box::new(spec("soak", 16, 10_000)));
            let ReactorReply::Submitted(job) = acked(&mut d, submit, t) else {
                panic!("job {i} refused");
            };
            let (_, gen) = d.app_timers[&job];
            assert_eq!(d.app_timers.len(), 1, "job {i}");
            if i % 10 == 0 {
                assert_eq!(
                    acked(&mut d, ReactorCommand::QDel(job), t),
                    ReactorReply::Ok
                );
            } else {
                d.handle(ServerCmd::JobExited(job, gen), t);
            }
            assert!(d.app_timers.is_empty(), "job {i} left its entry behind");
            assert!(d.server.job(job).unwrap().state.is_terminal());
            if let Some((old_job, old_gen)) = last_firing.replace((job, gen)) {
                // A duplicate of the previous job's firing, late.
                d.handle(ServerCmd::JobExited(old_job, old_gen), t);
                assert!(d.app_timers.is_empty());
            }
        }
        // Every job that was not deleted completed, once.
        assert_eq!(d.server.accounting().outcomes().len(), 9_000);
        timers.shutdown();
    }

    // ------------------------------------------------------------------
    // ReplyRouter: the reply-channel clobbering fix, unit level.
    // ------------------------------------------------------------------

    #[test]
    fn reply_router_keys_get_and_free_independently() {
        let mut r = ReplyRouter::default();
        let job = JobId(1);
        let (get_tx, get_rx) = channel();
        let (free_tx, free_rx) = channel();
        // A dynget parks first, then a dynfree parks for the same job —
        // the pre-fix single-slot map would overwrite the dynget sender.
        r.register(job, ReplyKind::Get, get_tx);
        r.register(job, ReplyKind::Free, free_tx);
        r.deliver(job, TmResponse::Freed);
        assert!(matches!(free_rx.try_recv(), Ok(TmResponse::Freed)));
        assert!(get_rx.try_recv().is_err(), "dynget reply still parked");
        r.deliver(
            job,
            TmResponse::DynGranted {
                added: Allocation::from_pairs([(NodeId(2), 4)]),
            },
        );
        match get_rx.try_recv() {
            Ok(TmResponse::DynGranted { added }) => assert_eq!(added.total_cores(), 4),
            other => panic!("{other:?}"),
        }
        assert_eq!(r.pending_count(), 0);
    }

    #[test]
    fn reply_router_is_fifo_within_a_kind_and_drops_unaddressed() {
        let mut r = ReplyRouter::default();
        let job = JobId(3);
        let (a_tx, a_rx) = channel();
        let (b_tx, b_rx) = channel();
        r.register(job, ReplyKind::Get, a_tx);
        r.register(job, ReplyKind::Get, b_tx);
        r.deliver(job, TmResponse::DynDenied);
        assert!(matches!(a_rx.try_recv(), Ok(TmResponse::DynDenied)));
        assert!(b_rx.try_recv().is_err());
        // A response for a job with no parked caller is dropped silently.
        r.deliver(JobId(99), TmResponse::DynDenied);
        r.deliver(job, TmResponse::DynDenied);
        assert!(matches!(b_rx.try_recv(), Ok(TmResponse::DynDenied)));
        assert_eq!(r.pending_count(), 0);
    }

    #[test]
    fn reply_router_fail_all_unblocks_every_caller() {
        let mut r = ReplyRouter::default();
        let (get_tx, get_rx) = channel();
        let (free_tx, free_rx) = channel();
        r.register(JobId(1), ReplyKind::Get, get_tx);
        r.register(JobId(2), ReplyKind::Free, free_tx);
        r.fail_all();
        assert!(matches!(get_rx.try_recv(), Ok(TmResponse::DynDenied)));
        assert!(matches!(free_rx.try_recv(), Ok(TmResponse::Freed)));
        assert_eq!(r.pending_count(), 0);
    }

    /// The end-to-end clobbering regression: a `tm_dynfree` issued while a
    /// negotiated `tm_dynget` is parked must be acked immediately *and*
    /// leave the dynget's reply channel intact for the eventual grant.
    /// Pre-fix, the dynfree overwrote the parked sender and the dynget
    /// caller hung forever.
    #[test]
    fn dynfree_does_not_clobber_pending_negotiated_dynget() {
        let d = DaemonHandle::start(hp_config(2));
        let id = d.qsub(spec("app", 16, 10_000)).expect("qsub");
        assert!(d.await_running(id, Duration::from_secs(2)));

        // Machine full: a negotiated +4 parks at the server.
        let (tx, rx) = channel();
        thread::scope(|s| {
            s.spawn(|| {
                let _ = tx.send(d.tm_dynget_negotiated(id, 4, Duration::from_secs(5)));
            });
            // Give the dynget time to land and park.
            thread::sleep(Duration::from_millis(50));
            // Free 4 cores (the 16-core job holds all of both nodes, so 4
            // on node 0 is a valid proper subset): must be acked promptly,
            // and the freed cores let the next cycle grant the parked
            // request.
            let part = {
                let mut a = Allocation::empty();
                a.add(NodeId(0), 4);
                a
            };
            let freed = d.tm_dynfree(id, part);
            assert!(matches!(freed, TmResponse::Freed), "{freed:?}");
            let granted = rx.recv_timeout(Duration::from_secs(2)).unwrap_or_else(|_| {
                // Pre-fix behaviour: the parked dynget lost its reply
                // channel. Unstick the scope before failing.
                let _ = d.qdel(id);
                panic!("negotiated dynget reply was clobbered by tm_dynfree");
            });
            match granted {
                TmResponse::DynGranted { added } => assert_eq!(added.total_cores(), 4),
                other => panic!("expected grant after free, got {other:?}"),
            }
        });
        let _ = d.qdel(id);
        assert!(d.await_drained(Duration::from_secs(2)));
        d.shutdown();
    }

    // ------------------------------------------------------------------
    // Server crash / journal recovery, ensemble level.
    // ------------------------------------------------------------------

    /// A workload drains to the same terminal states across two scheduled
    /// server crashes: every job survives via snapshot-load + replay.
    #[test]
    fn server_crash_recovery_drains_workload() {
        let mut config = hp_config(2);
        config.faults = Some(FaultPlan {
            server_crashes: vec![
                ServerCrash { after_record: 3 },
                ServerCrash { after_record: 8 },
            ],
            ..FaultPlan::none(5)
        });
        let d = DaemonHandle::start(config);
        let mut ids = Vec::new();
        for i in 0..6 {
            ids.push(d.qsub(spec(&format!("j{i}"), 8, 30)).expect("qsub"));
        }
        assert!(d.await_drained(Duration::from_secs(10)));
        for id in ids {
            assert_eq!(d.qstat(id), Some(JobState::Completed));
        }
        assert_eq!(d.outcomes().len(), 6);
        d.shutdown();
    }

    /// A negotiated `tm_dynget` parked at the moment the server dies must
    /// still be answered: recovery rebuilds the pending request from the
    /// journal, re-arms its expiry, replays the job's placement to the
    /// mom (which keeps the in-flight flag), and a post-recovery free
    /// lets the next cycle grant it.
    #[test]
    fn negotiated_dynget_survives_server_crash() {
        let mut config = hp_config(2);
        // Records: genesis snapshot, submit, start outcome, then the
        // DynGet — the server dies at the first command boundary after
        // the request hits the journal.
        config.faults = Some(FaultPlan {
            server_crashes: vec![ServerCrash { after_record: 4 }],
            ..FaultPlan::none(9)
        });
        let d = DaemonHandle::start(config);
        let id = d.qsub(spec("app", 16, 10_000)).expect("qsub");
        assert!(d.await_running(id, Duration::from_secs(2)));
        let (tx, rx) = channel();
        thread::scope(|s| {
            s.spawn(|| {
                let _ = tx.send(d.tm_dynget_negotiated(id, 4, Duration::from_secs(5)));
            });
            // Let the request land, the crash fire, and recovery finish.
            thread::sleep(Duration::from_millis(100));
            let part = {
                let mut a = Allocation::empty();
                a.add(NodeId(0), 4);
                a
            };
            let freed = d.tm_dynfree(id, part);
            assert!(matches!(freed, TmResponse::Freed), "{freed:?}");
            let granted = rx
                .recv_timeout(Duration::from_secs(3))
                .expect("parked dynget must survive the server crash");
            match granted {
                TmResponse::DynGranted { added } => assert_eq!(added.total_cores(), 4),
                other => panic!("expected grant after crash + free, got {other:?}"),
            }
        });
        let _ = d.qdel(id);
        assert!(d.await_drained(Duration::from_secs(2)));
        d.shutdown();
    }

    /// The qdel-of-a-DynQueued-job leak, end to end: deleting a job whose
    /// negotiated request is parked must promptly deny the parked caller
    /// (pre-fix it hung until its negotiation timeout, its reply channel
    /// leaked at the mom).
    #[test]
    fn qdel_of_dyn_queued_job_denies_parked_caller() {
        let d = DaemonHandle::start(hp_config(2));
        let id = d.qsub(spec("app", 16, 10_000)).expect("qsub");
        assert!(d.await_running(id, Duration::from_secs(2)));
        let (tx, rx) = channel();
        thread::scope(|s| {
            s.spawn(|| {
                // Machine full and nothing will free cores: parks until
                // answered. The 30 s window is far past the test timeout —
                // only the qdel path can unblock it promptly.
                let _ = tx.send(d.tm_dynget_negotiated(id, 4, Duration::from_secs(30)));
            });
            thread::sleep(Duration::from_millis(50));
            assert_eq!(d.qstat(id), Some(JobState::DynQueued));
            d.qdel(id).expect("qdel DynQueued job");
            let resp = rx
                .recv_timeout(Duration::from_secs(2))
                .expect("qdel must answer the parked negotiated dynget");
            assert!(matches!(resp, TmResponse::DynDenied), "{resp:?}");
        });
        assert!(d.await_drained(Duration::from_secs(2)));
        assert_eq!(d.qstat(id), Some(JobState::Cancelled));
        d.shutdown();
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
    // Fairshare charging: now journalled at the server (segment-level
    // behaviour is pinned by `dynbatch-server`'s usage tests); here the
    // ensemble-level property that the PR-5 ledger forfeited — charges
    // surviving a server crash — gets its regression test.
    // ------------------------------------------------------------------

    /// Fairshare charges survive a server crash: they live in the
    /// server's journalled usage ledger and delta-resync into the fresh
    /// post-recovery Maui (pre-fix the in-memory `UsageLedger` died with
    /// the process and the user's priority reset to uncharged).
    #[test]
    fn fairshare_charges_survive_server_crash() {
        let mut config = hp_config(2);
        // Records: genesis snapshot, submit, start outcome, finish — the
        // server dies at the first command boundary after the billed
        // job's finish (and therefore its usage) hits the journal.
        config.faults = Some(FaultPlan {
            server_crashes: vec![ServerCrash { after_record: 4 }],
            ..FaultPlan::none(2)
        });
        let d = DaemonHandle::start(config);
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
        // 8 cores × ≥0.1 s ≈ 0.8 core·s; pre-fix this read exactly 0.
        let charged = d.fairshare_charged(UserId(7));
        assert!(charged > 0.5, "pre-crash usage forfeited: {charged}");
        d.shutdown();
    }
}
