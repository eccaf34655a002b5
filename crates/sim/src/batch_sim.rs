//! The discrete-event batch-system simulator.
//!
//! [`BatchSim`] couples the Torque-like server, the extended Maui scheduler
//! and the cluster substrate over a deterministic event queue. It stands in
//! for the paper's physical 15-node testbed: the decision code (scheduler,
//! server state machine, DFS accounting) is the same code the threaded
//! daemon runs; only the passage of time is virtual.
//!
//! Scheduling cadence follows Maui's triggers: an iteration runs after
//! every batch of simultaneous events that changes job or resource state
//! (submission, completion, dynamic request, failure) — the paper's
//! "Maui will instantly start a new iteration when a job or resource state
//! change occurs".

use crate::event::Event;
use dynbatch_cluster::Cluster;
use dynbatch_core::{
    ExecutionModel, JobId, JobState, PhasedModel, SchedulerConfig, SimDuration, SimTime,
};
use dynbatch_metrics::UtilizationRecorder;
use dynbatch_sched::Maui;
use dynbatch_server::{Applied, Effect, PbsServer, Record};
use dynbatch_simtime::{EventQueue, ScheduledEvent, Token};
use dynbatch_workload::WorkloadItem;
use std::collections::{HashMap, VecDeque};

/// Default lookahead window for streamed ingestion: submissions are
/// admitted into the event queue no further than this far beyond the
/// earliest pending event. One hour comfortably covers scheduler
/// reservation horizons while keeping resident admissions O(window).
pub const DEFAULT_LOOKAHEAD: SimDuration = SimDuration::from_hours(1);

/// Per-execution runtime bookkeeping for an active job.
#[derive(Debug)]
struct RunState {
    gen: u64,
    start: SimTime,
    finish_token: Option<Token>,
    kind: RunKind,
}

#[derive(Debug)]
enum RunKind {
    Fixed,
    Evolving {
        granted: bool,
    },
    Phased {
        model: Box<PhasedModel>,
        phase: usize,
        phase_start: SimTime,
        phase_token: Option<Token>,
    },
    /// A malleable work pool: remaining work drains at `cores` per
    /// millisecond; resizes rebase the drain rate.
    WorkPool {
        remaining_core_millis: u64,
        rate_cores: u32,
        last_update: SimTime,
    },
}

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

/// The simulator.
pub struct BatchSim {
    queue: EventQueue<Event>,
    server: PbsServer,
    maui: Maui,
    util: UtilizationRecorder,
    window: ItemWindow,
    qdel_targets: HashMap<u32, QdelPhase>,
    stream_last_at: Option<SimTime>,
    runs: HashMap<JobId, RunState>,
    gens: HashMap<JobId, u64>,
    stats: SimStats,
    first_submit: Option<SimTime>,
    last_completion: SimTime,
    dyn_log: Vec<(SimTime, dynbatch_sched::DynDecision)>,
    dyn_log_enabled: bool,
    /// Reusable buffer for [`EventQueue::pop_group_into`]: one timestamp
    /// group of simultaneous events per [`BatchSim::step`].
    batch: Vec<ScheduledEvent<Event>>,
}

impl BatchSim {
    /// A simulator over `cluster` with scheduler configuration `config`.
    pub fn new(cluster: Cluster, config: SchedulerConfig) -> Self {
        let capacity = cluster.total_cores();
        let alloc = config.alloc;
        let guarantee = config.guarantee_evolving;
        let mut server = PbsServer::new(cluster, alloc);
        let _ = server.execute(Record::Guarantee { on: guarantee });
        server.set_usage_half_life(config.fairshare.half_life);
        BatchSim {
            queue: EventQueue::new(),
            server,
            maui: Maui::new(config),
            util: UtilizationRecorder::new(capacity, SimTime::ZERO),
            window: ItemWindow::default(),
            qdel_targets: HashMap::new(),
            stream_last_at: None,
            runs: HashMap::new(),
            gens: HashMap::new(),
            stats: SimStats::default(),
            first_submit: None,
            last_completion: SimTime::ZERO,
            dyn_log: Vec::new(),
            dyn_log_enabled: true,
            batch: Vec::new(),
        }
    }

    /// Loads a workload eagerly; every submission becomes an event at
    /// once. Equivalent to streamed ingestion with an unbounded lookahead
    /// window — [`BatchSim::run_streamed`] replays the same workload in
    /// O(window) resident items instead.
    pub fn load(&mut self, items: &[WorkloadItem]) {
        for item in items {
            self.admit(item.clone());
        }
    }

    /// Admits one workload item: its Submit event enters the queue and
    /// its spec parks in the admission window until the event fires —
    /// unless a qdel already cancelled this index, in which case the item
    /// is dropped on the floor (and still occupies its index).
    fn admit(&mut self, item: WorkloadItem) {
        self.first_submit = Some(
            self.first_submit
                .map_or(item.at, |f: SimTime| f.min(item.at)),
        );
        let idx = self.window.next_index();
        if self.qdel_targets.get(&idx) == Some(&QdelPhase::Cancelled) {
            self.window.push_cancelled();
            return;
        }
        let token = self.queue.schedule(item.at, Event::Submit(idx));
        self.window.push(item.spec, token);
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
            self.feed(&mut stream, &mut pending, window);
            if !self.step() {
                break;
            }
        }
    }

    /// Admits items from `stream` while they fall within `window` of the
    /// earliest pending event. With the queue empty the next item itself
    /// sets the horizon, so progress is guaranteed. Causality: any item
    /// left unadmitted lies strictly beyond every queued event, so the
    /// simulation clock can never pass an unadmitted submission time.
    fn feed<S>(&mut self, stream: &mut S, pending: &mut Option<WorkloadItem>, window: SimDuration)
    where
        S: Iterator<Item = WorkloadItem>,
    {
        loop {
            if pending.is_none() {
                *pending = stream.next();
            }
            let Some(item) = pending.as_ref() else {
                return;
            };
            let horizon = self.queue.peek_time().unwrap_or(item.at);
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
            self.admit(item);
        }
    }

    /// Injects a node failure at `at`.
    pub fn inject_failure(&mut self, at: SimTime, node: dynbatch_core::NodeId) {
        self.queue.schedule(at, Event::FailNode(node));
    }

    /// Injects a node repair at `at`.
    pub fn inject_repair(&mut self, at: SimTime, node: dynbatch_core::NodeId) {
        self.queue.schedule(at, Event::RepairNode(node));
    }

    /// Turns on the server's write-ahead journal (a prerequisite for
    /// [`BatchSim::inject_server_crash`]).
    pub fn enable_journal(&mut self, snapshot_every: usize) {
        self.server.enable_journal(snapshot_every);
    }

    /// Raises the journal's compaction retain floor (see
    /// [`dynbatch_server::PbsServer::journal_retain_from`]) — replication
    /// drivers keep it at their replicated watermark so compaction never
    /// truncates the stream out from under a follower.
    pub fn journal_retain_from(&mut self, pos: u64) {
        self.server.journal_retain_from(pos);
    }

    /// Schedules a server crash + journal recovery at `at`. The server is
    /// rebuilt by snapshot-load + replay and the scheduler restarts with
    /// empty soft state; applications (their finish/phase/request events)
    /// are unaffected, exactly as in the threaded daemon's crash model.
    pub fn inject_server_crash(&mut self, at: SimTime) {
        self.queue.schedule(at, Event::ServerCrash);
    }

    /// Schedules an operator `qdel` of workload item `item` (0-based
    /// submission index) at `at`. Works in both ingestion modes: if the
    /// item is running or queued it is killed like a walltime kill; if it
    /// is admitted but not yet submitted its pending Submit is cancelled;
    /// if it has not even been streamed in yet (lazy ingestion) the index
    /// is marked so admission drops it instead of resurrecting it.
    pub fn inject_qdel(&mut self, at: SimTime, item: u32) {
        self.qdel_targets.entry(item).or_insert(QdelPhase::Armed);
        self.queue.schedule(at, Event::QDelItem(item));
    }

    /// Runs to completion (event queue drained).
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Processes one timestamp group (all simultaneous events plus the
    /// scheduler iteration that follows). Returns `false` when drained.
    pub fn step(&mut self) -> bool {
        // Batched pop: take the whole timestamp group in one call.
        // Events scheduled *at* `now` while the group is applied —
        // zero-delay wakes, immediate expiries — join the same timestamp
        // group, exactly as a serial pop loop would process them.
        let mut batch = std::mem::take(&mut self.batch);
        let Some(now) = self.queue.pop_group_into(&mut batch) else {
            self.batch = batch;
            return false;
        };
        loop {
            // Submissions first within a timestamp group. Eager loading
            // hands Submits the lowest sequence numbers (everything else
            // is scheduled later), so the queue already yields them
            // first; lazy admission interleaves sequence numbers, so the
            // order is restored here. The sort is stable: relative order
            // among Submits and among non-Submits is untouched, making
            // this a no-op for eager runs.
            batch.sort_by_key(|ev| !matches!(ev.payload, Event::Submit(_)));
            for ev in batch.drain(..) {
                self.apply_event(ev.payload, now);
            }
            if self.queue.peek_time() != Some(now) {
                break;
            }
            self.queue.pop_group_into(&mut batch);
        }
        self.batch = batch;
        self.run_cycle(now);
        self.util.record(now, self.server.cluster().busy_cores());
        true
    }

    /// The server (for inspection).
    pub fn server(&self) -> &PbsServer {
        &self.server
    }

    /// The scheduler (for inspection).
    pub fn maui(&self) -> &Maui {
        &self.maui
    }

    /// Every dynamic decision taken over the run, in iteration order with
    /// the instant it was taken. Grants carry their exact
    /// [`dynbatch_sched::DelayCharge`]s, so two runs can be compared
    /// decision-by-decision.
    pub fn dyn_decision_log(&self) -> &[(SimTime, dynbatch_sched::DynDecision)] {
        &self.dyn_log
    }

    /// Simulation statistics.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Puts every O(trace)-growth side buffer into bounded-memory mode
    /// (or back): per-job accounting outcomes, utilization samples and
    /// the dynamic-decision log stop retaining history. All O(1)
    /// derivatives — accounting totals and digest, utilization integral,
    /// [`SimStats`] — keep accumulating identically.
    pub fn set_low_memory(&mut self, on: bool) {
        self.server.set_accounting_retention(!on);
        self.server.set_job_retention(!on);
        self.util.set_samples_enabled(!on);
        self.dyn_log_enabled = !on;
        if on {
            self.dyn_log.clear();
        }
    }

    /// Peak number of simultaneously resident admitted-but-unsubmitted
    /// items over the run so far: O(trace) under [`BatchSim::load`],
    /// O(lookahead window) under [`BatchSim::run_streamed`].
    pub fn admission_peak(&self) -> usize {
        self.window.peak_resident
    }

    /// The utilization recorder.
    pub fn utilization(&self) -> &UtilizationRecorder {
        &self.util
    }

    /// First submission instant (once a workload is loaded).
    pub fn first_submit(&self) -> SimTime {
        self.first_submit.unwrap_or(SimTime::ZERO)
    }

    /// Last completion instant seen so far.
    pub fn last_completion(&self) -> SimTime {
        self.last_completion
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    fn gen_of(&self, job: JobId) -> u64 {
        self.gens.get(&job).copied().unwrap_or(0)
    }

    fn is_current(&self, job: JobId, gen: u64) -> bool {
        self.gen_of(job) == gen && self.runs.contains_key(&job)
    }

    fn apply_event(&mut self, ev: Event, now: SimTime) {
        match ev {
            Event::Submit(idx) => {
                let spec = self
                    .window
                    .take(idx)
                    .expect("admitted item is submitted exactly once");
                let submitted = self.server.execute(Record::Submit { spec, now });
                let Ok(Effect::Submitted(job)) = submitted else {
                    panic!("workload spec is valid: {submitted:?}");
                };
                if let Some(phase) = self.qdel_targets.get_mut(&idx) {
                    if *phase == QdelPhase::Armed {
                        *phase = QdelPhase::Submitted(job);
                    }
                }
            }
            Event::QDelItem(idx) => {
                match self.qdel_targets.get(&idx).copied() {
                    Some(QdelPhase::Submitted(job)) => {
                        // The item became a job before the deletion fired:
                        // kill it like a walltime kill if still alive.
                        if self
                            .server
                            .job(job)
                            .map(|j| !j.state.is_terminal())
                            .unwrap_or(false)
                        {
                            self.kill_job(job, now);
                            self.stats.qdels += 1;
                        }
                    }
                    Some(QdelPhase::Armed) | None => {
                        // Not yet submitted. If admitted, cancel the
                        // pending Submit; either way mark the index so a
                        // later lazy admission drops the item instead of
                        // resurrecting it.
                        if let Some(token) = self.window.cancel_slot(idx) {
                            self.queue.cancel(token);
                        }
                        self.qdel_targets.insert(idx, QdelPhase::Cancelled);
                        self.stats.qdels += 1;
                    }
                    Some(QdelPhase::Cancelled) => {}
                }
            }
            Event::Finish { job, gen } => {
                if !self.is_current(job, gen) {
                    return;
                }
                self.finish_job(job, now);
            }
            Event::WallKill { job, gen } => {
                if !self.is_current(job, gen) {
                    return;
                }
                // Still active at the walltime limit: the server kills it.
                if self
                    .server
                    .job(job)
                    .map(|j| j.state.is_active())
                    .unwrap_or(false)
                {
                    self.kill_job(job, now);
                    self.stats.walltime_kills += 1;
                }
            }
            Event::RequestPoint { job, gen, attempt } => {
                if !self.is_current(job, gen) {
                    return;
                }
                let granted = match &self.runs[&job].kind {
                    RunKind::Evolving { granted } => *granted,
                    _ => return,
                };
                if granted {
                    return; // already expanded; later points are moot
                }
                let (extra, timeout) = {
                    let spec = &self.server.job(job).expect("running job exists").spec;
                    (spec.exec.extra_cores(), spec.dyn_timeout)
                };
                let _ = attempt;
                // Negotiated with a timeout: the request may outlive this
                // cycle, and an expiry event times it out. A pending
                // request (unlikely here) makes this a no-op.
                let deadline = timeout.map(|t| now + t);
                let request = Record::DynGet {
                    job,
                    extra_cores: extra,
                    deadline,
                    now,
                };
                if let (Ok(_), Some(deadline)) = (self.server.execute(request), deadline) {
                    self.queue.schedule(deadline, Event::DynExpire { job, gen });
                }
            }
            Event::DynExpire { job, gen } => {
                if !self.is_current(job, gen) {
                    return;
                }
                if let Ok(Effect::Expired(expired)) =
                    self.server.execute(Record::ExpireSweep { now })
                {
                    self.stats.dyn_expired += expired.len() as u64;
                }
            }
            Event::PhaseEnd { job, gen, phase } => {
                if !self.is_current(job, gen) {
                    return;
                }
                self.phase_end(job, phase as usize, now);
            }
            Event::Wake => {}
            Event::FailNode(node) => {
                let failed = self.server.execute(Record::NodeFailed { node, now });
                let Ok(Effect::Requeued(victims)) = failed else {
                    panic!("known node: {failed:?}");
                };
                for v in victims {
                    self.cancel_run_events(v);
                    self.runs.remove(&v);
                    // The job requeued; its next execution is a new
                    // generation.
                    *self.gens.entry(v).or_insert(0) += 1;
                }
            }
            Event::RepairNode(node) => {
                self.server
                    .execute(Record::NodeRepaired { node })
                    .expect("known node");
            }
            Event::ServerCrash => {
                let journal = self
                    .server
                    .take_journal()
                    .expect("server crash events require enable_journal");
                self.server = PbsServer::recover(journal).expect("journal replays cleanly");
                // The scheduler process dies with the server: reservation
                // history and negotiation-delay bookkeeping restart empty,
                // as on a real restart; the recovered server's first delta
                // log brings the journalled usage totals back.
                self.maui = Maui::new(self.maui.config().clone());
            }
        }
        self.util.record(now, self.server.cluster().busy_cores());
    }

    /// One scheduler iteration plus application of its outcome.
    fn run_cycle(&mut self, now: SimTime) {
        self.stats.cycles += 1;
        let (outcome, applied) = self.server.run_cycle(&mut self.maui, now);
        for d in outcome.dyn_decisions {
            if let dynbatch_sched::DynDecision::Granted { delays, .. } = &d {
                self.stats.delay_charged_ms +=
                    delays.iter().map(|c| c.delay.as_millis()).sum::<u64>();
            }
            if self.dyn_log_enabled {
                self.dyn_log.push((now, d));
            }
        }
        let mut wake = false;
        for action in applied {
            match action {
                Applied::Started { job, .. } => {
                    // A malleable job that starts this instant is not in the
                    // snapshot's running set yet; wake the scheduler again so
                    // grow-on-idle can consider it immediately.
                    if self.maui.config().grow_malleable_on_idle
                        && self
                            .server
                            .job(job)
                            .map(|j| j.spec.malleable.is_some())
                            .unwrap_or(false)
                    {
                        wake = true;
                    }
                    self.on_started(job, now);
                }
                Applied::DynGranted { job, .. } => {
                    self.stats.dyn_granted += 1;
                    self.on_granted(job, now);
                }
                Applied::DynRejected { job: _, reason } => {
                    self.stats.dyn_rejected += 1;
                    if reason != dynbatch_sched::DfsReject::NoResources {
                        self.stats.dyn_rejected_fairness += 1;
                    }
                    // ESP-style jobs retry at their pre-scheduled points;
                    // phased jobs retry at the next adaptation.
                }
                Applied::DynDeferred { .. } => {
                    self.stats.dyn_deferred += 1;
                }
                Applied::Resized { job, to_cores, .. } => {
                    self.stats.malleable_resizes += 1;
                    self.on_resized(job, to_cores, now);
                }
                Applied::Preempted { job } => {
                    self.stats.preemptions += 1;
                    self.cancel_run_events(job);
                    self.runs.remove(&job);
                    *self.gens.entry(job).or_insert(0) += 1;
                }
            }
        }
        if wake {
            self.queue.schedule(now, Event::Wake);
        }
    }

    fn on_started(&mut self, job: JobId, now: SimTime) {
        let j = self.server.job(job).expect("started job exists");
        let exec = j.spec.exec.clone();
        let cores = j.cores_allocated;
        let walltime = j.spec.walltime;
        let gen = self.gen_of(job);

        let mut run = RunState {
            gen,
            start: now,
            finish_token: None,
            kind: RunKind::Fixed,
        };
        match &exec {
            ExecutionModel::Fixed { duration } => {
                run.finish_token = Some(
                    self.queue
                        .schedule(now + *duration, Event::Finish { job, gen }),
                );
            }
            ExecutionModel::Evolving { set, .. } => {
                run.kind = RunKind::Evolving { granted: false };
                run.finish_token =
                    Some(self.queue.schedule(now + *set, Event::Finish { job, gen }));
                for (i, offset) in exec.request_offsets().into_iter().enumerate() {
                    self.queue.schedule(
                        now + offset,
                        Event::RequestPoint {
                            job,
                            gen,
                            attempt: i as u32,
                        },
                    );
                }
            }
            ExecutionModel::WorkPool { work_core_millis } => {
                let dur = exec.static_duration(cores);
                run.kind = RunKind::WorkPool {
                    remaining_core_millis: *work_core_millis,
                    rate_cores: cores,
                    last_update: now,
                };
                run.finish_token = Some(self.queue.schedule(now + dur, Event::Finish { job, gen }));
            }
            ExecutionModel::Phased(model) => {
                // Growth wanted already for phase 0 would mean the user
                // under-sized the base allocation; request before computing
                // the phase would race the start — model it as a request at
                // the first boundary instead (finite phases guarantee one).
                let dur = model.phase_duration(0, cores);
                let token = self
                    .queue
                    .schedule(now + dur, Event::PhaseEnd { job, gen, phase: 0 });
                run.kind = RunKind::Phased {
                    model: Box::new(model.clone()),
                    phase: 0,
                    phase_start: now,
                    phase_token: Some(token),
                };
            }
        }
        // The walltime kill guard (a no-op for well-behaved jobs). One
        // grace millisecond lets a job whose runtime equals its walltime
        // exactly — every job with an unpadded walltime — complete before
        // the reaper looks at it, mirroring a real RMS's kill latency.
        self.queue.schedule(
            now + walltime + SimDuration::from_millis(1),
            Event::WallKill { job, gen },
        );
        self.runs.insert(job, run);
    }

    /// Rebases a malleable job's work-pool drain after a resize and
    /// reschedules its completion.
    fn on_resized(&mut self, job: JobId, new_cores: u32, now: SimTime) {
        let Some(run) = self.runs.get_mut(&job) else {
            return;
        };
        let gen = run.gen;
        let RunKind::WorkPool {
            remaining_core_millis,
            rate_cores,
            last_update,
        } = &mut run.kind
        else {
            return;
        };
        let drained =
            (*rate_cores as u64).saturating_mul(now.duration_since(*last_update).as_millis());
        *remaining_core_millis = remaining_core_millis.saturating_sub(drained);
        *rate_cores = new_cores;
        *last_update = now;
        let finish_in =
            SimDuration::from_millis(remaining_core_millis.div_ceil(new_cores.max(1) as u64));
        let remaining = *remaining_core_millis;
        if let Some(tok) = run.finish_token.take() {
            self.queue.cancel(tok);
        }
        let token = self
            .queue
            .schedule(now + finish_in, Event::Finish { job, gen });
        if let Some(run) = self.runs.get_mut(&job) {
            run.finish_token = Some(token);
        }
        debug_assert!(remaining > 0 || finish_in.is_zero());
    }

    fn on_granted(&mut self, job: JobId, now: SimTime) {
        if !self.runs.contains_key(&job) {
            return;
        }
        let (start, gen) = {
            let run = &self.runs[&job];
            (run.start, run.gen)
        };
        let server_job = self.server.job(job).expect("granted job exists");
        let exec = server_job.spec.exec.clone();
        let cores = server_job.cores_allocated;

        enum Plan {
            None,
            RescheduleFinish(SimTime),
            ReschedulePhase { at: SimTime, phase: u32 },
        }
        let plan = match &self.runs[&job].kind {
            RunKind::Fixed | RunKind::WorkPool { .. } => Plan::None,
            RunKind::Evolving { .. } => {
                let elapsed = now.duration_since(start);
                let total = exec
                    .evolved_total(elapsed)
                    .expect("evolving job has an evolution model");
                Plan::RescheduleFinish(start + total)
            }
            RunKind::Phased {
                model,
                phase,
                phase_start,
                ..
            } => {
                // Redistribute the remaining work of the current phase onto
                // the expanded allocation.
                let old_cores = cores - exec.extra_cores();
                let old_dur = model.phase_duration(*phase, old_cores);
                let elapsed = now.duration_since(*phase_start);
                let remaining_frac = if old_dur.is_zero() {
                    0.0
                } else {
                    1.0 - (elapsed.as_secs_f64() / old_dur.as_secs_f64()).min(1.0)
                };
                let new_remaining = model.phase_duration(*phase, cores).mul_f64(remaining_frac);
                Plan::ReschedulePhase {
                    at: now + new_remaining,
                    phase: *phase as u32,
                }
            }
        };

        match plan {
            Plan::None => {}
            Plan::RescheduleFinish(at) => {
                let run = self.runs.get_mut(&job).expect("run exists");
                if let Some(tok) = run.finish_token.take() {
                    self.queue.cancel(tok);
                }
                let token = self.queue.schedule(at, Event::Finish { job, gen });
                let run = self.runs.get_mut(&job).expect("run exists");
                run.finish_token = Some(token);
                if let RunKind::Evolving { granted } = &mut run.kind {
                    *granted = true;
                }
            }
            Plan::ReschedulePhase { at, phase } => {
                if let Some(run) = self.runs.get_mut(&job) {
                    if let RunKind::Phased { phase_token, .. } = &mut run.kind {
                        if let Some(tok) = phase_token.take() {
                            self.queue.cancel(tok);
                        }
                    }
                }
                let token = self.queue.schedule(at, Event::PhaseEnd { job, gen, phase });
                if let Some(run) = self.runs.get_mut(&job) {
                    if let RunKind::Phased { phase_token, .. } = &mut run.kind {
                        *phase_token = Some(token);
                    }
                }
            }
        }
    }

    fn phase_end(&mut self, job: JobId, phase: usize, now: SimTime) {
        let (gen, model) = {
            let Some(run) = self.runs.get_mut(&job) else {
                return;
            };
            let gen = run.gen;
            let RunKind::Phased {
                model,
                phase: cur,
                phase_token,
                ..
            } = &mut run.kind
            else {
                return;
            };
            debug_assert_eq!(*cur, phase);
            *phase_token = None;
            (gen, model.clone())
        };
        let next = phase + 1;
        if next >= model.phases.len() {
            self.finish_job(job, now);
            return;
        }
        if let Some(run) = self.runs.get_mut(&job) {
            if let RunKind::Phased {
                phase: cur,
                phase_start,
                ..
            } = &mut run.kind
            {
                *cur = next;
                *phase_start = now;
            }
        }
        let cores = self
            .server
            .job(job)
            .expect("running job exists")
            .cores_allocated;
        // Grid adaptation: if the next phase bursts the per-process
        // threshold, ask for more resources (tm_dynget through the mother
        // superior). The answer lands in this timestamp group's scheduler
        // cycle; on grant the phase is rescheduled from its very start.
        if model.wants_growth(next, cores)
            && self
                .server
                .job(job)
                .map(|j| j.state == JobState::Running)
                .unwrap_or(false)
        {
            let _ = self.server.execute(Record::DynGet {
                job,
                extra_cores: model.extra_cores,
                deadline: None,
                now,
            });
        }
        let dur = model.phase_duration(next, cores);
        let token = self.queue.schedule(
            now + dur,
            Event::PhaseEnd {
                job,
                gen,
                phase: next as u32,
            },
        );
        if let Some(run) = self.runs.get_mut(&job) {
            if let RunKind::Phased { phase_token, .. } = &mut run.kind {
                *phase_token = Some(token);
            }
        }
    }

    fn finish_job(&mut self, job: JobId, now: SimTime) {
        self.cancel_run_events(job);
        self.runs.remove(&job);
        self.server
            .execute(Record::Finish { job, now })
            .expect("active job finishes");
        self.last_completion = self.last_completion.max(now);
    }

    /// `qdel` of a live job: an operator deletion or the walltime reaper.
    fn kill_job(&mut self, job: JobId, now: SimTime) {
        self.cancel_run_events(job);
        self.runs.remove(&job);
        self.server
            .execute(Record::Qdel { job, now })
            .expect("live job deletable");
    }

    fn cancel_run_events(&mut self, job: JobId) {
        if let Some(run) = self.runs.get_mut(&job) {
            if let Some(tok) = run.finish_token.take() {
                self.queue.cancel(tok);
            }
            if let RunKind::Phased { phase_token, .. } = &mut run.kind {
                if let Some(tok) = phase_token.take() {
                    self.queue.cancel(tok);
                }
            }
        }
    }
}
