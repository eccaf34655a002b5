//! The scheduler hand-off: the maintained scheduler view, snapshots and
//! the delta log, [`PbsServer::run_cycle`], and [`PbsServer::apply`] of
//! an outcome with the resizes and preemptions it plans.
//!
//! Invariant owned here: the maintained view (the running and queued
//! sets) equals the walk of the live table, and every change the
//! scheduler cannot read off the view reaches it through the delta log.

use super::dyn_protocol::PendingDyn;
use super::execute::decides_nothing;
use super::PbsServer;
use crate::journal::{self, Record};
use dynbatch_cluster::Allocation;
use dynbatch_core::{
    Error, FairshareMode, Job, JobId, JobState, Result, SimDuration, SimTime, UserId,
};
use dynbatch_sched::{
    DeltaLog, DfsReject, DynDecision, DynRequest, IterationOutcome, Maui, ProfileDelta, QueuedJob,
    RunningJob, Snapshot, OVERDUE_GRACE,
};

/// A concrete effect of applying a scheduling outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Applied {
    /// A queued job started on `alloc`.
    Started {
        /// The job.
        job: JobId,
        /// Its allocation (the hostlist sent to the mother superior).
        alloc: Allocation,
        /// Whether it was started by backfill.
        backfilled: bool,
    },
    /// A dynamic request was granted; `added` is the new hostlist returned
    /// through `tm_dynget()`.
    DynGranted {
        /// The evolving job.
        job: JobId,
        /// The added hosts.
        added: Allocation,
    },
    /// A dynamic request was rejected.
    DynRejected {
        /// The evolving job.
        job: JobId,
        /// Why.
        reason: DfsReject,
    },
    /// A negotiated dynamic request was deferred: it stays queued at the
    /// server, and the scheduler's availability estimate is relayed.
    DynDeferred {
        /// The evolving job.
        job: JobId,
        /// The scheduler's earliest-availability hint.
        available_hint: Option<SimTime>,
    },
    /// A backfilled job was preempted (requeued) to serve a dynamic
    /// request.
    Preempted {
        /// The victim.
        job: JobId,
    },
    /// A running malleable job was resized by the batch system (shrunk to
    /// serve a dynamic request, or grown onto idle cores).
    Resized {
        /// The malleable job.
        job: JobId,
        /// Cores before.
        from_cores: u32,
        /// Cores after.
        to_cores: u32,
        /// The hosts added (grow) or removed (shrink).
        changed: Allocation,
    },
}

impl PbsServer {
    /// Entries waiting in the delta log.
    #[cfg(test)]
    pub(crate) fn delta_log_len(&self) -> usize {
        self.deltas.len()
    }

    /// How many snapshots met a `DynQueued` job without a pending-request
    /// entry. The two are written together by every mutation path, so a
    /// non-zero count means corrupted state (e.g. a damaged image); the
    /// snapshot serves such a job as "no request this cycle" — and test
    /// builds panic instead.
    pub fn invariant_breaches(&self) -> u64 {
        self.invariant_breaches.get()
    }

    /// The scheduler's view of the current state (paper Algorithm 2, steps
    /// 2–3). The running and queued sets are the maintained ones, shared
    /// with the snapshot by reference count — O(1) however deep the queue
    /// — and only the pending requests (whose remaining walltime depends
    /// on `now`) are built per call. While the snapshot is alive the next
    /// mutation of a set copies it first, so drivers drop the snapshot
    /// before [`PbsServer::apply`].
    pub fn snapshot(&self, now: SimTime) -> Snapshot {
        let mut dyn_requests = Vec::with_capacity(self.dyn_pending.len());
        let mut served = 0;
        for (id, pending) in &self.dyn_pending {
            let Some(job) = self.jobs.get(id).filter(|j| j.state == JobState::DynQueued) else {
                continue;
            };
            served += 1;
            if let Some(remaining_walltime) = job.remaining_walltime(now) {
                dyn_requests.push(Self::dyn_request(job, pending, remaining_walltime));
            }
        }
        // Every `DynQueued` job has a pending entry, so `served` is their
        // number; a shortfall is an invariant breach. A release daemon
        // degrades it to "no request this cycle" and counts it; test
        // builds fail loudly.
        for _ in served..self.dyn_queued {
            self.invariant_breaches.bump();
        }
        debug_assert!(
            served >= self.dyn_queued,
            "{} DynQueued job(s) without a pending request",
            self.dyn_queued - served
        );
        let snap = Snapshot {
            now,
            total_cores: self.cluster.total_cores(),
            running: self.running.clone(),
            queued: self.queued.clone(),
            dyn_requests,
            usage: None,
            deltas: None,
        };
        debug_assert!(
            {
                let walk = self.snapshot_walk(now);
                (snap.running == walk.running)
                    && (snap.queued == walk.queued)
                    && (snap.dyn_requests == walk.dyn_requests)
            },
            "maintained scheduler view diverged from the live-table walk at {now}"
        );
        snap
    }

    /// The executable spec of [`PbsServer::snapshot`]: the same view built
    /// from scratch by one in-order walk of the live table, as every
    /// snapshot was before the view was maintained. Debug builds compare
    /// the two on every snapshot; `table_props` after every operation.
    pub(crate) fn snapshot_walk(&self, now: SimTime) -> Snapshot {
        self.snapshot_of(self.live_jobs(), now)
    }

    /// The walk over *every* retained job, as the snapshot ran before
    /// terminal jobs left the live table.
    #[cfg(test)]
    pub(crate) fn snapshot_full_scan(&self, now: SimTime) -> Snapshot {
        self.snapshot_of(self.jobs(), now)
    }

    fn snapshot_of<'a>(&self, jobs: impl Iterator<Item = &'a Job>, now: SimTime) -> Snapshot {
        let mut running = Vec::new();
        let mut queued = Vec::new();
        let mut dyn_requests = Vec::new();
        for job in jobs {
            match job.state {
                JobState::Running | JobState::DynQueued => {
                    running.push(Self::running_entry(job));
                    if job.state == JobState::DynQueued {
                        let Some(pending) = self.dyn_pending.get(&job.id) else {
                            // Invariant breach (see `snapshot`).
                            self.invariant_breaches.bump();
                            debug_assert!(false, "{}: DynQueued without a pending request", job.id);
                            continue;
                        };
                        if let Some(remaining_walltime) = job.remaining_walltime(now) {
                            dyn_requests.push(Self::dyn_request(job, pending, remaining_walltime));
                        }
                    }
                }
                JobState::Queued => queued.push(self.queued_entry(job)),
                _ => {}
            }
        }
        Snapshot {
            now,
            total_cores: self.cluster.total_cores(),
            running: running.into(),
            queued: queued.into(),
            dyn_requests,
            usage: None,
            deltas: None,
        }
    }

    /// How the scheduler sees an active job.
    fn running_entry(job: &Job) -> RunningJob {
        RunningJob {
            id: job.id,
            user: job.spec.user,
            group: job.spec.group,
            cores: job.cores_allocated,
            start_time: job.start_time.expect("running job started"),
            walltime_end: job.walltime_end().expect("running job started"),
            backfilled: job.backfilled,
            reserved_extra: job.reserved_extra,
            malleable: job.spec.malleable,
        }
    }

    /// How the scheduler sees a queued job.
    pub(super) fn queued_entry(&self, job: &Job) -> QueuedJob {
        QueuedJob {
            id: job.id,
            user: job.spec.user,
            group: job.spec.group,
            queue: job.spec.effective_queue(),
            cores: job.spec.cores,
            walltime: job.spec.walltime,
            submit_time: job.submit_time,
            priority_boost: job.spec.priority_boost,
            suppress_backfill_while_queued: job.spec.suppress_backfill_while_queued,
            reserve_extra: self.reserve_for(job),
            moldable: job.spec.moldable,
        }
    }

    /// How the scheduler sees a `DynQueued` job's pending request. A job
    /// past its walltime still holds its cores for `OVERDUE_GRACE` in the
    /// scheduler's profile, and so must cores granted to it: a zero-length
    /// hold would leave them free for a second grant or a start in the
    /// same iteration.
    fn dyn_request(job: &Job, pending: &PendingDyn, remaining_walltime: SimDuration) -> DynRequest {
        DynRequest {
            job: job.id,
            user: job.spec.user,
            group: job.spec.group,
            extra_cores: pending.extra_cores,
            remaining_walltime: remaining_walltime.max(OVERDUE_GRACE),
            seq: pending.seq,
            deadline: pending.deadline,
        }
    }

    /// Rebuilds the maintained view from the live table (image load; a
    /// policy flip that changes every queued job's pre-reserve).
    pub(super) fn rebuild_view(&mut self) {
        let (mut running, mut queued) = (Vec::new(), Vec::new());
        self.dyn_queued = 0;
        for job in self.jobs.values() {
            match job.state {
                JobState::Running | JobState::DynQueued => {
                    running.push(Self::running_entry(job));
                    self.dyn_queued += usize::from(job.state == JobState::DynQueued);
                }
                JobState::Queued => queued.push(self.queued_entry(job)),
                _ => {}
            }
        }
        self.running = running.into();
        self.queued = queued.into();
    }

    /// Appends to the delta log — once somebody drains it. Until the
    /// first [`PbsServer::snapshot_incremental`] the log stays empty: that
    /// snapshot's log is self-contained, so nothing before it is owed.
    pub(super) fn note(&mut self, delta: ProfileDelta) {
        if self.snapshot_epoch > 0 {
            self.deltas.push(delta);
        }
    }

    /// View and delta log: `id` (in state `was`) stopped holding cores —
    /// finished, killed, preempted, or lost to a node failure.
    pub(super) fn left_machine(&mut self, id: JobId, was: JobState) {
        self.running.remove(id);
        self.dyn_queued -= usize::from(was == JobState::DynQueued);
        self.note(ProfileDelta::Finished { job: id });
    }

    /// View and delta log: the running job `id` changed width (its
    /// allocation or its pre-reserve).
    pub(super) fn resized(&mut self, id: JobId) {
        let job = &self.jobs[&id];
        let entry = self.running.get_mut(id).expect("active job is in view");
        entry.cores = job.cores_allocated;
        entry.reserved_extra = job.reserved_extra;
        self.note(ProfileDelta::Resized {
            job: id,
            held_cores: job.cores_allocated + job.reserved_extra,
        });
    }

    /// View: `id` was requeued (preempted, or its node failed).
    pub(super) fn requeued(&mut self, id: JobId) {
        let entry = self.queued_entry(&self.jobs[&id]);
        self.queued.push(entry);
    }

    /// Like [`PbsServer::snapshot`], but carries the delta log: drains
    /// what was recorded since the previous incremental snapshot and
    /// stamps it with continuity epochs, so the scheduler updates its
    /// availability profile by delta, wipes the DFS slates of deleted
    /// jobs and charges closed usage segments to static fairshare. The
    /// first log (`base_epoch == 0`) has no recorded history behind it
    /// and carries the usage ledger's totals instead.
    /// [`PbsServer::snapshot`] (which leaves `deltas` as `None` and drains
    /// nothing) remains available for out-of-band inspection; the
    /// scheduler simply rebuilds on the next epoch gap.
    pub fn snapshot_incremental(&mut self, now: SimTime) -> Snapshot {
        let mut snap = self.snapshot(now);
        let base_epoch = self.snapshot_epoch;
        self.snapshot_epoch += 1;
        let deltas = if base_epoch == 0 {
            let charged = |(&user, &core_ms): (&UserId, &u64)| ProfileDelta::Charged {
                user,
                core_ms,
                at: now,
            };
            let totals = self.usage.iter().filter(|(_, &core_ms)| core_ms > 0);
            totals.map(charged).collect()
        } else {
            std::mem::take(&mut self.deltas)
        };
        snap.deltas = Some(DeltaLog {
            base_epoch,
            epoch: self.snapshot_epoch,
            deltas,
        });
        snap
    }

    /// One scheduling cycle (paper Algorithm 2): the incremental snapshot
    /// — with the decayed usage accounts attached when `maui` runs
    /// time-aware fairshare — one `maui` iteration over it, and the
    /// outcome applied. Returns the outcome (for the driver's decision
    /// log) with its concrete effects. The snapshot is dropped before
    /// [`PbsServer::apply`], so the shared scheduler view is never copied.
    pub fn run_cycle(&mut self, maui: &mut Maui, now: SimTime) -> (IterationOutcome, Vec<Applied>) {
        let outcome = {
            let mut snap = self.snapshot_incremental(now);
            if maui.config().fairshare.mode == FairshareMode::TimeAware {
                snap.usage = Some(self.usage_hist.snapshot(now));
            }
            maui.iterate(&snap)
        };
        debug_assert!(self.told_all_usage(maui, now), "{now}: fairshare tracker");
        let applied = self.apply(&outcome, now);
        debug_assert!(
            { maui.dfs().delayed_jobs() }.all(|job| self.queued.get(job).is_some()),
            "{now}: a DFS delay slate outlived its job's stay in the queue"
        );
        (outcome, applied)
    }

    /// Applies a scheduler outcome to real state, in the scheduler's
    /// decision order: preemptions and grants first, then starts. A
    /// journaling server then appends the outcome reduced to what this
    /// reads — the one append outside [`PbsServer::execute`], whose
    /// `Outcome` arm (recovery, followers) runs the same body.
    ///
    /// # Panics
    /// If the scheduler's plan cannot be realised (it planned against the
    /// snapshot this server produced, so failure is a bookkeeping bug).
    pub fn apply(&mut self, outcome: &IterationOutcome, now: SimTime) -> Vec<Applied> {
        let applied = self.apply_outcome(outcome, now);
        if self.journal.is_some() && !decides_nothing(outcome) {
            self.log(Record::Outcome {
                outcome: journal::reduce_outcome(outcome),
                now,
            });
        }
        applied
    }

    /// [`PbsServer::apply`] without the append.
    pub(super) fn apply_outcome(
        &mut self,
        outcome: &IterationOutcome,
        now: SimTime,
    ) -> Vec<Applied> {
        let mut applied = Vec::new();
        for decision in &outcome.dyn_decisions {
            match decision {
                DynDecision::Granted {
                    job,
                    extra_cores,
                    preempted,
                    shrunk,
                    ..
                } => {
                    for victim in preempted {
                        self.preempt(*victim, now).expect("preempt planned victim");
                        applied.push(Applied::Preempted { job: *victim });
                    }
                    for resize in shrunk {
                        applied.push(self.resize(*resize, now).expect("planned shrink applies"));
                    }
                    let added = self
                        .cluster
                        .expand(*job, *extra_cores, self.alloc_policy)
                        .expect("planned expansion must fit");
                    // Charge the pre-grant constant-width segment before
                    // the width grows.
                    self.usage_mark(*job, now);
                    debug_assert_eq!(self.jobs[job].state, JobState::DynQueued);
                    self.request_settled(*job);
                    let j = self.jobs.get_mut(job).expect("granted job exists");
                    j.cores_allocated += extra_cores;
                    j.dyn_grants += 1;
                    // Under the guaranteeing policy the grant consumes the
                    // job's own pre-reserve.
                    j.reserved_extra = j.reserved_extra.saturating_sub(*extra_cores);
                    self.resized(*job);
                    self.dyn_pending.remove(job);
                    applied.push(Applied::DynGranted { job: *job, added });
                }
                DynDecision::Rejected { job, reason } => {
                    self.request_settled(*job);
                    self.dyn_pending.remove(job);
                    applied.push(Applied::DynRejected {
                        job: *job,
                        reason: *reason,
                    });
                }
                DynDecision::Deferred {
                    job,
                    available_hint,
                    ..
                } => {
                    // Negotiation: the request stays pending (the job
                    // remains DynQueued and keeps executing); the next
                    // iteration reconsiders it with its original FIFO seq.
                    debug_assert!(self.dyn_pending.contains_key(job));
                    applied.push(Applied::DynDeferred {
                        job: *job,
                        available_hint: *available_hint,
                    });
                }
            }
        }

        for resize in &outcome.grows {
            applied.push(self.resize(*resize, now).expect("planned grow applies"));
        }

        for start in &outcome.starts {
            let reserve = self.reserve_for(self.jobs.get(&start.job).expect("started job exists"));
            let job = self.jobs.get_mut(&start.job).expect("started job exists");
            assert_eq!(
                job.state,
                JobState::Queued,
                "{}: start of non-queued job",
                start.job
            );
            // Moldable jobs start at the scheduler-chosen width.
            let cores = start.cores.unwrap_or(job.spec.cores);
            job.state = JobState::Running;
            job.start_time = Some(now);
            job.cores_allocated = cores;
            job.backfilled = start.backfilled;
            job.reserved_extra = reserve;
            let walltime_end = job.walltime_end().expect("just started");
            let entry = Self::running_entry(job);
            self.queued.remove(start.job);
            self.running.push(entry);
            let alloc = self
                .cluster
                .allocate(start.job, cores, self.alloc_policy)
                .expect("planned start must fit");
            self.note(ProfileDelta::Started {
                job: start.job,
                held_cores: cores + reserve,
                walltime_end,
            });
            self.usage_open(start.job, now);
            applied.push(Applied::Started {
                job: start.job,
                alloc,
                backfilled: start.backfilled,
            });
        }

        applied
    }

    /// Applies a scheduler-initiated malleable resize.
    fn resize(&mut self, r: dynbatch_sched::ResizeDecision, now: SimTime) -> Result<Applied> {
        let job = self.jobs.get(&r.job).ok_or(Error::UnknownJob(r.job))?;
        if !job.state.is_active() {
            return Err(Error::InvalidState {
                job: r.job,
                operation: "resize",
                state: "not active",
            });
        }
        debug_assert_eq!(
            job.cores_allocated, r.from_cores,
            "{}: resize base mismatch",
            r.job
        );
        let changed = if r.to_cores > r.from_cores {
            self.cluster
                .expand(r.job, r.to_cores - r.from_cores, self.alloc_policy)?
        } else {
            let give_back = r.from_cores - r.to_cores;
            let mut alloc = self
                .cluster
                .allocation_of(r.job)
                .ok_or(Error::UnknownJob(r.job))?
                .clone();
            let part = alloc.take(give_back);
            self.cluster.release_partial(r.job, &part)?;
            part
        };
        self.usage_mark(r.job, now);
        let job = self.jobs.get_mut(&r.job).expect("checked above");
        job.cores_allocated = r.to_cores;
        self.resized(r.job);
        Ok(Applied::Resized {
            job: r.job,
            from_cores: r.from_cores,
            to_cores: r.to_cores,
            changed,
        })
    }

    /// Requeues a running backfilled job (preempted for a dynamic request).
    /// Its progress is lost; it competes in the queue again.
    fn preempt(&mut self, id: JobId, now: SimTime) -> Result<()> {
        let job = self.jobs.get(&id).ok_or(Error::UnknownJob(id))?;
        if !job.state.is_active() {
            return Err(Error::InvalidState {
                job: id,
                operation: "preempt",
                state: "not active",
            });
        }
        self.cluster.release_all(id)?;
        self.usage_close(id, now);
        self.dyn_pending.remove(&id);
        let job = self.jobs.get_mut(&id).expect("checked above");
        let was = std::mem::replace(&mut job.state, JobState::Queued);
        job.start_time = None;
        job.cores_allocated = 0;
        job.backfilled = false;
        self.left_machine(id, was);
        self.requeued(id);
        Ok(())
    }
}
