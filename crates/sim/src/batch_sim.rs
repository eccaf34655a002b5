//! The discrete-event batch-system simulator.
//!
//! [`BatchSim`] couples the Torque-like server, the extended Maui scheduler
//! and the cluster substrate over a deterministic event queue. It stands in
//! for the paper's physical 15-node testbed: the decision code (scheduler,
//! server state machine, DFS accounting) and the applications' run model
//! are the [`EventCore`] the threaded daemon runs; only the passage of
//! time is virtual. What is the simulator's own — the workload's
//! admission window, `qdel` targets, statistics, utilization and decision
//! log — is its shell, the core's [`Hook`].
//!
//! Scheduling cadence follows Maui's triggers: an iteration runs after
//! every batch of simultaneous events that changes job or resource state
//! (submission, completion, dynamic request, failure) — the paper's
//! "Maui will instantly start a new iteration when a job or resource state
//! change occurs".

use crate::event::Event;
use crate::event_core::{EventCore, Hook, RunEnd};
use dynbatch_cluster::Cluster;
use dynbatch_core::{JobId, SchedulerConfig, SimDuration, SimTime};
use dynbatch_metrics::UtilizationRecorder;
use dynbatch_sched::{DynDecision, Maui};
use dynbatch_server::reactor::{Command, Reply};
use dynbatch_server::replication::{FollowerLink, ReplicationHub};
use dynbatch_server::{Applied, Effect, PbsServer, Record};
use dynbatch_simtime::Token;
use dynbatch_workload::WorkloadItem;
use std::collections::{HashMap, VecDeque};

/// Default lookahead window for streamed ingestion: submissions are
/// admitted into the event queue no further than this far beyond the
/// earliest pending event. One hour comfortably covers scheduler
/// reservation horizons while keeping resident admissions O(window).
pub const DEFAULT_LOOKAHEAD: SimDuration = SimDuration::from_hours(1);

/// Counters the experiments report beyond per-job outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Scheduler iterations executed.
    pub cycles: u64,
    /// Dynamic requests granted.
    pub dyn_granted: u64,
    /// Dynamic requests rejected (any reason).
    pub dyn_rejected: u64,
    /// Dynamic rejections specifically due to the fairness policy (not
    /// resource shortage).
    pub dyn_rejected_fairness: u64,
    /// Jobs preempted for dynamic requests.
    pub preemptions: u64,
    /// Jobs killed at their walltime limit.
    pub walltime_kills: u64,
    /// Total delay charged to queued jobs by granted dynamic allocations,
    /// in milliseconds (the DFS ledger's raw material).
    pub delay_charged_ms: u64,
    /// Negotiated requests deferred (kept queued) at least once.
    pub dyn_deferred: u64,
    /// Negotiated requests that timed out without a grant.
    pub dyn_expired: u64,
    /// Malleable resizes applied (shrinks + grows).
    pub malleable_resizes: u64,
    /// Workload-item deletions applied (`qdel` by submission index),
    /// whether the item was running, queued, admitted-but-unsubmitted or
    /// not yet streamed in.
    pub qdels: u64,
}

/// Lifecycle of a `qdel` targeting a workload item by submission index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QdelPhase {
    /// Deletion requested; the item has not been submitted yet.
    Armed,
    /// The item submitted as this job before the deletion fired.
    Submitted(JobId),
    /// The deletion fired before the item was submitted; if the item has
    /// not even been admitted yet (streamed ingestion), admission must
    /// drop it rather than resurrect it.
    Cancelled,
}

/// Admission window over the workload: the specs of items whose Submit
/// events are in flight, indexed by workload position. A ring buffer —
/// `slots[i]` holds item `base + i`; consumed and cancelled slots at the
/// front are compacted away, so residency tracks the lookahead window
/// rather than the trace. The eager `load` path uses the same structure
/// (every item resident at once, shrinking as the run consumes them).
#[derive(Debug, Default)]
struct ItemWindow {
    base: u32,
    slots: VecDeque<Option<(dynbatch_core::JobSpec, Token)>>,
    resident: usize,
    peak_resident: usize,
}

impl ItemWindow {
    /// The workload index the next pushed item will get.
    fn next_index(&self) -> u32 {
        self.base + self.slots.len() as u32
    }

    fn push(&mut self, spec: dynbatch_core::JobSpec, token: Token) {
        self.slots.push_back(Some((spec, token)));
        self.resident += 1;
        self.peak_resident = self.peak_resident.max(self.resident);
    }

    /// Records an item that was qdel'd before admission: it occupies its
    /// index (keeping later indices stable) but holds nothing.
    fn push_cancelled(&mut self) {
        self.slots.push_back(None);
        self.compact();
    }

    fn take(&mut self, idx: u32) -> Option<dynbatch_core::JobSpec> {
        let off = idx.checked_sub(self.base)? as usize;
        let slot = self.slots.get_mut(off)?.take()?;
        self.resident -= 1;
        self.compact();
        Some(slot.0)
    }

    /// Empties the slot, returning the pending Submit's token so the
    /// caller can cancel it.
    fn cancel_slot(&mut self, idx: u32) -> Option<Token> {
        let off = idx.checked_sub(self.base)? as usize;
        let slot = self.slots.get_mut(off)?.take()?;
        self.resident -= 1;
        self.compact();
        Some(slot.1)
    }

    fn compact(&mut self) {
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
    }
}

/// The simulator: the event core plus the experiment shell that feeds it
/// a workload and keeps what the experiments report.
pub struct BatchSim {
    core: EventCore,
    shell: Shell,
}

/// What the simulator keeps beyond the core: the workload's admission
/// window and `qdel` targets, and the run's statistics, utilization,
/// decision log and first-submit / last-completion instants. The core
/// reports to it as its [`Hook`].
struct Shell {
    util: UtilizationRecorder,
    window: ItemWindow,
    qdel_targets: HashMap<u32, QdelPhase>,
    stream_last_at: Option<SimTime>,
    stats: SimStats,
    first_submit: Option<SimTime>,
    last_completion: SimTime,
    dyn_log: Vec<(SimTime, DynDecision)>,
    dyn_log_enabled: bool,
}

impl BatchSim {
    /// A simulator over `cluster` with scheduler configuration `config`.
    pub fn new(cluster: Cluster, config: SchedulerConfig) -> Self {
        let capacity = cluster.total_cores();
        BatchSim {
            core: EventCore::new(cluster, config),
            shell: Shell {
                util: UtilizationRecorder::new(capacity, SimTime::ZERO),
                window: ItemWindow::default(),
                qdel_targets: HashMap::new(),
                stream_last_at: None,
                stats: SimStats::default(),
                first_submit: None,
                last_completion: SimTime::ZERO,
                dyn_log: Vec::new(),
                dyn_log_enabled: true,
            },
        }
    }

    /// Loads a workload eagerly; every submission becomes an event at
    /// once. Equivalent to streamed ingestion with an unbounded lookahead
    /// window — [`BatchSim::run_streamed`] replays the same workload in
    /// O(window) resident items instead.
    pub fn load(&mut self, items: &[WorkloadItem]) {
        for item in items {
            self.shell.admit(&mut self.core, item.clone());
        }
    }

    /// Runs a streamed workload to completion: items are admitted lazily,
    /// no further than `window` beyond the earliest pending event, so
    /// resident admissions stay O(window) regardless of trace length.
    /// The stream must yield items in non-decreasing submit-time order
    /// (every `stream_*` generator and `SwfSource` does); results are
    /// identical to [`BatchSim::load`] + [`BatchSim::run`] on the
    /// materialized stream, for any window — the equality is pinned by
    /// the streaming-ingest test suite.
    pub fn run_streamed<S>(&mut self, mut stream: S, window: SimDuration)
    where
        S: Iterator<Item = WorkloadItem>,
    {
        let mut pending: Option<WorkloadItem> = None;
        loop {
            self.shell
                .feed(&mut self.core, &mut stream, &mut pending, window);
            if !self.step() {
                break;
            }
        }
    }

    /// Injects a node failure at `at`.
    pub fn inject_failure(&mut self, at: SimTime, node: dynbatch_core::NodeId) {
        self.core.queue.schedule(at, Event::FailNode(node));
    }

    /// Injects a node repair at `at`.
    pub fn inject_repair(&mut self, at: SimTime, node: dynbatch_core::NodeId) {
        self.core.queue.schedule(at, Event::RepairNode(node));
    }

    /// Turns on the server's write-ahead journal (a prerequisite for
    /// [`BatchSim::inject_server_crash`]).
    pub fn enable_journal(&mut self, snapshot_every: usize) {
        self.core.enable_journal(snapshot_every);
    }

    /// One replication round over the journal, for the replicated driver.
    pub(crate) fn stream_to<L: FollowerLink>(
        &mut self,
        hub: &mut ReplicationHub<L>,
    ) -> Vec<String> {
        self.core.stream_to(hub)
    }

    /// Schedules a server crash + journal recovery at `at`. The server is
    /// rebuilt by snapshot-load + replay and the scheduler restarts with
    /// empty soft state; applications (their finish/phase/request events)
    /// are unaffected — [`EventCore::restart`], the same restart the
    /// threaded daemon's crashes run.
    pub fn inject_server_crash(&mut self, at: SimTime) {
        self.core.queue.schedule(at, Event::ServerCrash);
    }

    /// Schedules an operator `qdel` of workload item `item` (0-based
    /// submission index) at `at`. Works in both ingestion modes: if the
    /// item is running or queued it is killed like a walltime kill; if it
    /// is admitted but not yet submitted its pending Submit is cancelled;
    /// if it has not even been streamed in yet (lazy ingestion) the index
    /// is marked so admission drops it instead of resurrecting it.
    pub fn inject_qdel(&mut self, at: SimTime, item: u32) {
        self.shell
            .qdel_targets
            .entry(item)
            .or_insert(QdelPhase::Armed);
        self.core.queue.schedule(at, Event::QDelItem(item));
    }

    /// Runs to completion (event queue drained).
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs every event due at or before `t`, each timestamp group
    /// followed by its scheduler cycle (see [`BatchSim::step`]).
    pub fn run_until(&mut self, t: SimTime) {
        self.core.run_until(t, &mut self.shell);
    }

    /// The one command door, [`EventCore::apply_command`]: `cmd` applied
    /// at `now` with the run bookkeeping it owes and a scheduler cycle at
    /// `now`.
    pub fn apply_command(&mut self, cmd: &Command, now: SimTime) -> Reply {
        self.core.apply_command(cmd, now, &mut self.shell)
    }

    /// Processes one timestamp group (all simultaneous events plus the
    /// scheduler iteration that follows). Returns `false` when drained.
    pub fn step(&mut self) -> bool {
        self.core.step(&mut self.shell)
    }

    /// The server (for inspection).
    pub fn server(&self) -> &PbsServer {
        self.core.server()
    }

    /// The scheduler (for inspection).
    pub fn maui(&self) -> &Maui {
        self.core.maui()
    }

    /// Every dynamic decision taken over the run, in iteration order with
    /// the instant it was taken. Grants carry their exact
    /// [`dynbatch_sched::DelayCharge`]s, so two runs can be compared
    /// decision-by-decision.
    pub fn dyn_decision_log(&self) -> &[(SimTime, DynDecision)] {
        &self.shell.dyn_log
    }

    /// Simulation statistics.
    pub fn stats(&self) -> SimStats {
        self.shell.stats
    }

    /// Puts every O(trace)-growth side buffer into bounded-memory mode
    /// (or back): per-job accounting outcomes, utilization samples and
    /// the dynamic-decision log stop retaining history. All O(1)
    /// derivatives — accounting totals and digest, utilization integral,
    /// [`SimStats`] — keep accumulating identically.
    pub fn set_low_memory(&mut self, on: bool) {
        self.core.server.set_accounting_retention(!on);
        self.core.server.set_job_retention(!on);
        self.shell.util.set_samples_enabled(!on);
        self.shell.dyn_log_enabled = !on;
        if on {
            self.shell.dyn_log.clear();
        }
    }

    /// Peak number of simultaneously resident admitted-but-unsubmitted
    /// items over the run so far: O(trace) under [`BatchSim::load`],
    /// O(lookahead window) under [`BatchSim::run_streamed`].
    pub fn admission_peak(&self) -> usize {
        self.shell.window.peak_resident
    }

    /// The utilization recorder.
    pub fn utilization(&self) -> &UtilizationRecorder {
        &self.shell.util
    }

    /// First submission instant (once a workload is loaded).
    pub fn first_submit(&self) -> SimTime {
        self.shell.first_submit.unwrap_or(SimTime::ZERO)
    }

    /// Last completion instant seen so far.
    pub fn last_completion(&self) -> SimTime {
        self.shell.last_completion
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.queue.now()
    }
}

impl Shell {
    /// Admits one workload item: its Submit event enters the queue and
    /// its spec parks in the admission window until the event fires —
    /// unless a qdel already cancelled this index, in which case the item
    /// is dropped on the floor (and still occupies its index).
    fn admit(&mut self, core: &mut EventCore, item: WorkloadItem) {
        self.first_submit = Some(
            self.first_submit
                .map_or(item.at, |f: SimTime| f.min(item.at)),
        );
        let idx = self.window.next_index();
        if self.qdel_targets.get(&idx) == Some(&QdelPhase::Cancelled) {
            self.window.push_cancelled();
            return;
        }
        let token = core.queue.schedule(item.at, Event::Submit(idx));
        self.window.push(item.spec, token);
    }

    /// Admits items from `stream` while they fall within `window` of the
    /// earliest pending event. With the queue empty the next item itself
    /// sets the horizon, so progress is guaranteed. Causality: any item
    /// left unadmitted lies strictly beyond every queued event, so the
    /// simulation clock can never pass an unadmitted submission time.
    fn feed<S>(
        &mut self,
        core: &mut EventCore,
        stream: &mut S,
        pending: &mut Option<WorkloadItem>,
        window: SimDuration,
    ) where
        S: Iterator<Item = WorkloadItem>,
    {
        loop {
            if pending.is_none() {
                *pending = stream.next();
            }
            let Some(item) = pending.as_ref() else {
                return;
            };
            let horizon = core.next_due().unwrap_or(item.at);
            if item.at > horizon.saturating_add(window) {
                return;
            }
            let item = pending.take().expect("checked above");
            if let Some(last) = self.stream_last_at {
                assert!(
                    item.at >= last,
                    "workload stream must yield submissions in non-decreasing time order"
                );
            }
            self.stream_last_at = Some(item.at);
            self.admit(core, item);
        }
    }
}

impl Hook for Shell {
    fn driver_event(&mut self, core: &mut EventCore, ev: Event, now: SimTime) {
        match ev {
            Event::Submit(idx) => {
                let spec = self
                    .window
                    .take(idx)
                    .expect("admitted item is submitted exactly once");
                let submitted = core.server.execute(Record::Submit { spec, now });
                let Ok(Effect::Submitted(job)) = submitted else {
                    panic!("workload spec is valid: {submitted:?}");
                };
                if let Some(phase) = self.qdel_targets.get_mut(&idx) {
                    if *phase == QdelPhase::Armed {
                        *phase = QdelPhase::Submitted(job);
                    }
                }
            }
            Event::QDelItem(idx) => match self.qdel_targets.get(&idx).copied() {
                Some(QdelPhase::Submitted(job)) => {
                    // The item became a job before the deletion fired:
                    // kill it like a walltime kill if still alive.
                    if core.server().job(job).is_ok_and(|j| !j.state.is_terminal()) {
                        let reply = core.apply_command(&Command::QDel(job), now, self);
                        assert_eq!(reply, Reply::Ok, "live job deletable");
                        self.stats.qdels += 1;
                    }
                }
                Some(QdelPhase::Armed) | None => {
                    // Not yet submitted. If admitted, cancel the
                    // pending Submit; either way mark the index so a
                    // later lazy admission drops the item instead of
                    // resurrecting it.
                    if let Some(token) = self.window.cancel_slot(idx) {
                        core.queue.cancel(token);
                    }
                    self.qdel_targets.insert(idx, QdelPhase::Cancelled);
                    self.stats.qdels += 1;
                }
                Some(QdelPhase::Cancelled) => {}
            },
            other => unreachable!("the core applies {other:?}"),
        }
    }

    fn event_applied(&mut self, server: &PbsServer, now: SimTime) {
        self.util.record(now, server.cluster().busy_cores());
    }

    fn cycle(
        &mut self,
        server: &PbsServer,
        now: SimTime,
        decisions: Vec<DynDecision>,
        applied: Vec<Applied>,
    ) {
        self.stats.cycles += 1;
        for d in decisions {
            if let DynDecision::Granted { delays, .. } = &d {
                self.stats.delay_charged_ms +=
                    delays.iter().map(|c| c.delay.as_millis()).sum::<u64>();
            }
            if self.dyn_log_enabled {
                self.dyn_log.push((now, d));
            }
        }
        for action in applied {
            let counter = match action {
                Applied::Started { .. } => continue,
                Applied::DynGranted { .. } => &mut self.stats.dyn_granted,
                Applied::DynRejected { reason, .. } => {
                    if reason != dynbatch_sched::DfsReject::NoResources {
                        self.stats.dyn_rejected_fairness += 1;
                    }
                    &mut self.stats.dyn_rejected
                }
                Applied::DynDeferred { .. } => &mut self.stats.dyn_deferred,
                Applied::Resized { .. } => &mut self.stats.malleable_resizes,
                Applied::Preempted { .. } => &mut self.stats.preemptions,
            };
            *counter += 1;
        }
        self.util.record(now, server.cluster().busy_cores());
    }

    fn run_ended(&mut self, _job: JobId, end: RunEnd, now: SimTime) {
        match end {
            RunEnd::Finished => self.last_completion = self.last_completion.max(now),
            RunEnd::WallTime => self.stats.walltime_kills += 1,
            _ => {}
        }
    }

    fn expired(&mut self, jobs: &[JobId]) {
        self.stats.dyn_expired += jobs.len() as u64;
    }
}
