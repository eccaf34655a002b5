//! The event core both drivers run: the server, the scheduler and the
//! applications' run model over one event queue.
//!
//! [`EventCore`] owns the [`PbsServer`], the [`Maui`] and the
//! [`EventQueue`] of [`Event`]s, plus the run ledger: one entry per
//! running application, holding the events its run has armed (exit,
//! walltime kill, request points, phase ends, negotiation expiries).
//! [`BatchSim`](crate::BatchSim) drives it in virtual time; the threaded
//! daemon drives the same core on a wall clock, calling
//! [`EventCore::run_until`] with the current instant before it applies a
//! command and waiting until [`EventCore::next_due`] otherwise.
//!
//! Invariant owned here: an entry of the run ledger lives exactly as long
//! as its run. Each run draws a fresh nonce from one monotonic counter;
//! an event carries the nonce of the run that armed it, and any event
//! whose nonce is not the current run's is stale and does nothing. So a
//! preempted, deleted, finished or lost run leaves nothing behind.
//!
//! A driver learns what happened through its [`Hook`], statically
//! dispatched: nothing is buffered for a driver that does not listen.

use crate::event::Event;
use dynbatch_cluster::Cluster;
use dynbatch_core::{
    ExecutionModel, JobId, JobState, PhasedModel, SchedulerConfig, SimDuration, SimTime,
};
use dynbatch_sched::{DynDecision, Maui};
use dynbatch_server::reactor::{apply_to_server, Command, Reply};
use dynbatch_server::replication::{FollowerLink, ReplicationHub};
use dynbatch_server::{Applied, Effect, PbsServer, Record};
use dynbatch_simtime::{EventQueue, ScheduledEvent, Token};
use std::collections::HashMap;

/// Why a run left the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunEnd {
    /// The application exited.
    Finished,
    /// A `qdel` deleted the job.
    Deleted,
    /// The walltime reaper deleted the job.
    WallTime,
    /// The scheduler preempted (requeued) the job.
    Preempted,
    /// A node failure requeued the job.
    Requeued,
    /// A restart adopted state in which this run is not active.
    Lost,
}

/// What a driver hears from the core. Every method defaults to doing
/// nothing, so `()` is the hook of a driver that listens to nothing.
pub trait Hook {
    /// An event the core does not own — a workload `Submit` or
    /// `QDelItem` — is due; the driver that scheduled it applies it.
    fn driver_event(&mut self, _core: &mut EventCore, _ev: Event, _now: SimTime) {}
    /// An event took effect (stale events do not count).
    fn event_applied(&mut self, _server: &PbsServer, _now: SimTime) {}
    /// A scheduler cycle ran: its dynamic decisions and the effects its
    /// outcome had, in application order.
    fn cycle(
        &mut self,
        _server: &PbsServer,
        _now: SimTime,
        _decisions: Vec<DynDecision>,
        _applied: Vec<Applied>,
    ) {
    }
    /// A run left the ledger.
    fn run_ended(&mut self, _job: JobId, _end: RunEnd, _now: SimTime) {}
    /// A negotiation expiry timed these jobs' pending requests out.
    fn expired(&mut self, _jobs: &[JobId]) {}
}

impl Hook for () {}

/// One running application: its nonce, its start and the events it has
/// armed that a re-pace or an end must cancel.
#[derive(Debug)]
struct Run {
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

/// The server, the scheduler, the event queue and the run ledger.
pub struct EventCore {
    pub(crate) queue: EventQueue<Event>,
    pub(crate) server: PbsServer,
    maui: Maui,
    runs: HashMap<JobId, Run>,
    /// Source of run nonces: never reset, so no nonce is used twice —
    /// not for a job that restarts, not across a server restart.
    next_gen: u64,
    /// Reusable buffer for [`EventQueue::pop_group_into`]: one timestamp
    /// group of simultaneous events per [`EventCore::step`].
    batch: Vec<ScheduledEvent<Event>>,
}

impl EventCore {
    /// A core over `cluster` with scheduler configuration `config`: a
    /// server under the configuration's guarantee policy and fairshare
    /// half-life, a fresh scheduler, no events.
    pub fn new(cluster: Cluster, config: SchedulerConfig) -> Self {
        let mut server = PbsServer::new(cluster, config.alloc);
        let _ = server.execute(Record::Guarantee {
            on: config.guarantee_evolving,
        });
        server.set_usage_half_life(config.fairshare.half_life);
        EventCore {
            queue: EventQueue::new(),
            server,
            maui: Maui::new(config),
            runs: HashMap::new(),
            next_gen: 0,
            batch: Vec::new(),
        }
    }

    /// The server (for inspection).
    pub fn server(&self) -> &PbsServer {
        &self.server
    }

    /// The scheduler (for inspection).
    pub fn maui(&self) -> &Maui {
        &self.maui
    }

    /// When the next event is due, if any is pending.
    pub fn next_due(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Turns on the server's write-ahead journal (a prerequisite for a
    /// restart from it).
    pub fn enable_journal(&mut self, snapshot_every: usize) {
        self.server.enable_journal(snapshot_every);
    }

    /// One replication round over the server's journal
    /// ([`ReplicationHub::stream`]).
    pub fn stream_to<L: FollowerLink>(&mut self, hub: &mut ReplicationHub<L>) -> Vec<String> {
        hub.stream(&mut self.server)
    }

    /// Applies every event due at or before `t`, each timestamp group
    /// followed by its scheduler cycle (see [`EventCore::step`]).
    pub fn run_until<H: Hook>(&mut self, t: SimTime, hook: &mut H) {
        while self.queue.peek_time().is_some_and(|next| next <= t) {
            self.step(hook);
        }
    }

    /// The one command door: `cmd` applied at `now` through
    /// [`apply_to_server`], plus the run bookkeeping the command owes — a
    /// `qdel` ends the job's run, a negotiated `dynget` arms its expiry —
    /// and a scheduler cycle at `now` (an [`Event::Wake`], which joins
    /// the timestamp group in flight when the command comes from inside
    /// one). The core's own spellings — the walltime reaper, an ESP
    /// request point, a phase's growth — come through here too.
    pub fn apply_command<H: Hook>(&mut self, cmd: &Command, now: SimTime, hook: &mut H) -> Reply {
        self.command(cmd, now, RunEnd::Deleted, hook)
    }

    fn command<H: Hook>(
        &mut self,
        cmd: &Command,
        now: SimTime,
        end: RunEnd,
        hook: &mut H,
    ) -> Reply {
        let reply = apply_to_server(&mut self.server, cmd, now);
        if matches!(reply, Reply::Submitted(_) | Reply::Ok) {
            match *cmd {
                Command::QDel(job) => self.end_run(job, end, now, hook),
                Command::DynGet {
                    job,
                    timeout_ms: Some(ms),
                    ..
                } => self.arm_expiry(job, now + SimDuration::from_millis(ms)),
                _ => {}
            }
        }
        self.queue.schedule(now, Event::Wake);
        reply
    }

    /// Processes one timestamp group (all simultaneous events plus the
    /// scheduler iteration that follows). Returns `false` when drained.
    pub fn step<H: Hook>(&mut self, hook: &mut H) -> bool {
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
                self.apply_event(ev.payload, now, hook);
            }
            if self.queue.peek_time() != Some(now) {
                break;
            }
            self.queue.pop_group_into(&mut batch);
        }
        self.batch = batch;
        self.run_cycle(now, hook);
        true
    }

    /// The server dies and comes back at `now`: from its own journal, or
    /// as `promoted`, a follower that takes over (its journal is
    /// re-enabled, opening a new term's record coordinates). The
    /// scheduler restarts with empty soft state; the applications keep
    /// running, so the run ledger is reconciled against the adopted
    /// state:
    /// - a run whose job is still active with the same start is kept;
    /// - any other run is dropped and its events cancelled;
    /// - an active job without a run gets one, rebuilt from its recovered
    ///   start, with its pending negotiation expiry.
    ///
    /// Events already due fire at `now`. After a failover every pending
    /// negotiation expiry is re-armed, since the dead leader may have
    /// fired one the follower never saw. A cycle is woken at `now`.
    ///
    /// # Panics
    /// If there is no promoted server and the server does not journal.
    pub fn restart<H: Hook>(&mut self, now: SimTime, promoted: Option<PbsServer>, hook: &mut H) {
        let failover = promoted.is_some();
        self.server = match promoted {
            Some(mut server) => {
                let every = self.server.journal().map_or(0, |j| j.snapshot_every());
                // Half-life before `enable_journal`, so the genesis image
                // carries it (a no-op unless the usage accounts are empty).
                server.set_usage_half_life(self.maui.config().fairshare.half_life);
                server.enable_journal(every);
                server
            }
            None => {
                let journal = self
                    .server
                    .take_journal()
                    .expect("a restart without a promoted server needs a journal");
                PbsServer::recover(journal).expect("journal replays cleanly")
            }
        };
        // The scheduler process dies with the server: reservation history
        // and negotiation-delay bookkeeping restart empty, as on a real
        // restart; the adopted server's first delta log brings the
        // journalled usage totals back.
        self.maui = Maui::new(self.maui.config().clone());
        let server = &self.server;
        let mut lost: Vec<JobId> = self
            .runs
            .iter()
            .filter(|(job, run)| {
                !server
                    .job(**job)
                    .is_ok_and(|j| j.state.is_active() && j.start_time == Some(run.start))
            })
            .map(|(&job, _)| job)
            .collect();
        // The ledger is hashed: end the lost runs in job order, so a
        // failover sends the same kills in the same order on every run.
        lost.sort_unstable();
        let orphans: Vec<(JobId, SimTime)> = server
            .live_jobs()
            .filter(|j| j.state.is_active() && !self.runs.contains_key(&j.id))
            .filter_map(|j| Some((j.id, j.start_time?)))
            .collect();
        debug_assert!(
            failover || (lost.is_empty() && orphans.is_empty()),
            "{now}: recovery from the journal lost runs {lost:?} or found orphans {orphans:?}"
        );
        for job in lost {
            self.end_run(job, RunEnd::Lost, now, hook);
        }
        for &(job, start) in &orphans {
            self.start_run(job, start, now);
        }
        let rearm: Vec<(JobId, SimTime)> = self
            .server
            .pending_dyn_requests()
            .filter(|p| failover || orphans.iter().any(|&(job, _)| job == p.job))
            .filter_map(|p| Some((p.job, p.deadline?)))
            .collect();
        for (job, deadline) in rearm {
            self.arm_expiry(job, deadline.max(now));
        }
        self.queue.schedule(now, Event::Wake);
    }

    /// Arms the negotiation expiry of `job`'s current run at `at`.
    fn arm_expiry(&mut self, job: JobId, at: SimTime) {
        if let Some(gen) = self.runs.get(&job).map(|run| run.gen) {
            self.queue.schedule(at, Event::DynExpire { job, gen });
        }
    }

    fn apply_event<H: Hook>(&mut self, ev: Event, now: SimTime, hook: &mut H) {
        // An event armed for a run that is over does nothing.
        let stale = |(job, gen)| self.runs.get(&job).is_none_or(|run: &Run| run.gen != gen);
        if ev.run().is_some_and(stale) {
            return;
        }
        match ev {
            Event::Submit(_) | Event::QDelItem(_) => hook.driver_event(self, ev, now),
            Event::Finish { job, .. } => {
                self.finish(job, now, hook);
            }
            Event::WallKill { job, .. } => {
                // Still active at the walltime limit: the server kills it.
                if self.server.job(job).is_ok_and(|j| j.state.is_active()) {
                    let reply = self.command(&Command::QDel(job), now, RunEnd::WallTime, hook);
                    assert_eq!(reply, Reply::Ok, "live job deletable");
                }
            }
            Event::RequestPoint { job, .. } => {
                let granted = match &self.runs[&job].kind {
                    RunKind::Evolving { granted } => *granted,
                    _ => return,
                };
                if granted {
                    return; // already expanded; later points are moot
                }
                let spec = &self.server.job(job).expect("running job exists").spec;
                // Negotiated with a timeout: the request may outlive this
                // cycle, and the door arms the expiry event that times it
                // out. A pending request makes this a no-op.
                let request = Command::DynGet {
                    job,
                    extra: spec.exec.extra_cores(),
                    timeout_ms: spec.dyn_timeout.map(SimDuration::as_millis),
                };
                self.apply_command(&request, now, hook);
            }
            Event::DynExpire { .. } => {
                if let Ok(Effect::Expired(expired)) =
                    self.server.execute(Record::ExpireSweep { now })
                {
                    hook.expired(&expired);
                }
            }
            Event::PhaseEnd { job, phase, .. } => {
                self.phase_end(job, phase as usize, now, hook);
            }
            Event::Wake => {}
            Event::FailNode(node) => {
                let failed = self.server.execute(Record::NodeFailed { node, now });
                let Ok(Effect::Requeued(victims)) = failed else {
                    panic!("known node: {failed:?}");
                };
                for job in victims {
                    self.end_run(job, RunEnd::Requeued, now, hook);
                }
            }
            Event::RepairNode(node) => {
                self.server
                    .execute(Record::NodeRepaired { node })
                    .expect("known node");
            }
            Event::ServerCrash => self.restart(now, None, hook),
        }
        hook.event_applied(&self.server, now);
    }

    /// One scheduler iteration plus application of its outcome.
    fn run_cycle<H: Hook>(&mut self, now: SimTime, hook: &mut H) {
        let (outcome, applied) = self.server.run_cycle(&mut self.maui, now);
        let mut wake = false;
        for action in &applied {
            match *action {
                Applied::Started { job, .. } => {
                    // A malleable job that starts this instant is not in the
                    // snapshot's running set yet; wake the scheduler again so
                    // grow-on-idle can consider it immediately.
                    wake |= self.maui.config().grow_malleable_on_idle
                        && self
                            .server
                            .job(job)
                            .is_ok_and(|j| j.spec.malleable.is_some());
                    self.start_run(job, now, now);
                }
                Applied::DynGranted { job, .. } => self.on_granted(job, now),
                Applied::Resized { job, to_cores, .. } => self.on_resized(job, to_cores, now),
                Applied::Preempted { job } => self.end_run(job, RunEnd::Preempted, now, hook),
                // ESP-style jobs retry at their pre-scheduled points; phased
                // jobs at the next adaptation.
                Applied::DynRejected { .. } | Applied::DynDeferred { .. } => {}
            }
        }
        if wake {
            self.queue.schedule(now, Event::Wake);
        }
        hook.cycle(&self.server, now, outcome.dyn_decisions, applied);
    }

    /// Opens a run for `job`, started at `start`, under a fresh nonce and
    /// arms its events; any already due fire at `now`.
    fn start_run(&mut self, job: JobId, start: SimTime, now: SimTime) {
        let j = self.server.job(job).expect("started job exists");
        let exec = j.spec.exec.clone();
        let cores = j.cores_allocated;
        let walltime = j.spec.walltime;
        self.next_gen += 1;
        let gen = self.next_gen;
        let at = |offset: SimDuration| (start + offset).max(now);

        let mut run = Run {
            gen,
            start,
            finish_token: None,
            kind: RunKind::Fixed,
        };
        match &exec {
            ExecutionModel::Fixed { duration } => {
                run.finish_token = Some(
                    self.queue
                        .schedule(at(*duration), Event::Finish { job, gen }),
                );
            }
            ExecutionModel::Evolving { set, .. } => {
                run.kind = RunKind::Evolving { granted: false };
                run.finish_token = Some(self.queue.schedule(at(*set), Event::Finish { job, gen }));
                for (i, offset) in exec.request_offsets().into_iter().enumerate() {
                    self.queue.schedule(
                        at(offset),
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
                    last_update: start,
                };
                run.finish_token = Some(self.queue.schedule(at(dur), Event::Finish { job, gen }));
            }
            ExecutionModel::Phased(model) => {
                // Growth wanted already for phase 0 would mean the user
                // under-sized the base allocation; request before computing
                // the phase would race the start — model it as a request at
                // the first boundary instead (finite phases guarantee one).
                let dur = model.phase_duration(0, cores);
                let token = self
                    .queue
                    .schedule(at(dur), Event::PhaseEnd { job, gen, phase: 0 });
                run.kind = RunKind::Phased {
                    model: Box::new(model.clone()),
                    phase: 0,
                    phase_start: start,
                    phase_token: Some(token),
                };
            }
        }
        // The walltime kill guard (a no-op for well-behaved jobs). One
        // grace millisecond lets a job whose runtime equals its walltime
        // exactly — every job with an unpadded walltime — complete before
        // the reaper looks at it, mirroring a real RMS's kill latency.
        self.queue.schedule(
            at(walltime + SimDuration::from_millis(1)),
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
        debug_assert!(*remaining_core_millis > 0 || finish_in.is_zero());
        if let Some(tok) = run.finish_token.take() {
            self.queue.cancel(tok);
        }
        run.finish_token = Some(
            self.queue
                .schedule(now + finish_in, Event::Finish { job, gen }),
        );
    }

    /// Re-paces a run whose dynamic request was granted: an evolving job
    /// finishes at its evolved total, a phased job's current phase
    /// spreads its remaining work over the grown allocation.
    fn on_granted(&mut self, job: JobId, now: SimTime) {
        let Some(run) = self.runs.get_mut(&job) else {
            return;
        };
        let gen = run.gen;
        let server_job = self.server.job(job).expect("granted job exists");
        let exec = &server_job.spec.exec;
        let cores = server_job.cores_allocated;
        match &mut run.kind {
            RunKind::Fixed | RunKind::WorkPool { .. } => {}
            RunKind::Evolving { granted } => {
                *granted = true;
                let total = exec
                    .evolved_total(now.duration_since(run.start))
                    .expect("evolving job has an evolution model");
                if let Some(tok) = run.finish_token.take() {
                    self.queue.cancel(tok);
                }
                let token = self
                    .queue
                    .schedule(run.start + total, Event::Finish { job, gen });
                run.finish_token = Some(token);
            }
            RunKind::Phased {
                model,
                phase,
                phase_start,
                phase_token,
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
                if let Some(tok) = phase_token.take() {
                    self.queue.cancel(tok);
                }
                let token = self.queue.schedule(
                    now + new_remaining,
                    Event::PhaseEnd {
                        job,
                        gen,
                        phase: *phase as u32,
                    },
                );
                *phase_token = Some(token);
            }
        }
    }

    fn phase_end<H: Hook>(&mut self, job: JobId, phase: usize, now: SimTime, hook: &mut H) {
        let Some(run) = self.runs.get_mut(&job) else {
            return;
        };
        let gen = run.gen;
        let RunKind::Phased {
            model,
            phase: cur,
            phase_start,
            phase_token,
        } = &mut run.kind
        else {
            return;
        };
        debug_assert_eq!(*cur, phase);
        *phase_token = None;
        let next = phase + 1;
        if next >= model.phases.len() {
            self.finish(job, now, hook);
            return;
        }
        *cur = next;
        *phase_start = now;
        let model = model.clone();
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
                .is_ok_and(|j| j.state == JobState::Running)
        {
            let request = Command::DynGet {
                job,
                extra: model.extra_cores,
                timeout_ms: None,
            };
            self.apply_command(&request, now, hook);
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
        if let Some(Run {
            kind: RunKind::Phased { phase_token, .. },
            ..
        }) = self.runs.get_mut(&job)
        {
            *phase_token = Some(token);
        }
    }

    /// The application exited: the server finishes the job and the run
    /// ends.
    fn finish<H: Hook>(&mut self, job: JobId, now: SimTime, hook: &mut H) {
        self.server
            .execute(Record::Finish { job, now })
            .expect("active job finishes");
        self.end_run(job, RunEnd::Finished, now, hook);
    }

    /// Drops `job`'s run, cancelling the events a re-pace would move; the
    /// rest go stale with the nonce.
    fn end_run<H: Hook>(&mut self, job: JobId, end: RunEnd, now: SimTime, hook: &mut H) {
        let Some(run) = self.runs.remove(&job) else {
            return;
        };
        if let Some(tok) = run.finish_token {
            self.queue.cancel(tok);
        }
        if let RunKind::Phased {
            phase_token: Some(tok),
            ..
        } = run.kind
        {
            self.queue.cancel(tok);
        }
        hook.run_ended(job, end, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynbatch_core::{DfsConfig, GroupId, JobSpec, UserId};

    fn hp_config() -> SchedulerConfig {
        let mut sched = SchedulerConfig::paper_eval();
        sched.dfs = DfsConfig::highest_priority();
        sched
    }

    /// The run ledger follows the running set, not history: 10 000 runs
    /// through a two-node machine, finished by their exit event or
    /// deleted while running, and never more entries than running jobs.
    /// A `Finish` that arrives after its run is over is refused.
    #[test]
    fn run_generations_live_as_long_as_the_run() {
        let mut core = EventCore::new(Cluster::homogeneous(2, 8), hp_config());
        let mut last_exit = None;
        for i in 0..10_000u64 {
            let t = SimTime::from_millis(i);
            // The whole machine: the job starts in this command's cycle.
            let spec = JobSpec::rigid(
                "soak",
                UserId(0),
                GroupId(0),
                16,
                SimDuration::from_secs(10),
            );
            let Reply::Submitted(job) =
                core.apply_command(&Command::QSub(Box::new(spec)), t, &mut ())
            else {
                panic!("job {i} refused");
            };
            core.run_until(t, &mut ());
            assert_eq!(core.runs.len(), 1, "job {i}");
            let gen = core.runs[&job].gen;
            if i % 10 == 0 {
                assert_eq!(
                    core.apply_command(&Command::QDel(job), t, &mut ()),
                    Reply::Ok
                );
            } else {
                core.apply_event(Event::Finish { job, gen }, t, &mut ());
            }
            assert!(core.runs.is_empty(), "job {i} left its entry behind");
            assert!(core.server.job(job).unwrap().state.is_terminal());
            if let Some((old_job, old_gen)) = last_exit.replace((job, gen)) {
                // A duplicate of the previous job's exit, late.
                core.apply_event(
                    Event::Finish {
                        job: old_job,
                        gen: old_gen,
                    },
                    t,
                    &mut (),
                );
                assert!(core.runs.is_empty());
            }
            core.run_until(t, &mut ());
        }
        // Every job that was not deleted completed, once.
        assert_eq!(core.server.accounting().outcomes().len(), 9_000);
    }
}
