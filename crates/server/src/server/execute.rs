//! The one door for input records: [`PbsServer::execute`] matches a
//! [`Record`], applies it, and appends that same record when it changed
//! something — submissions, deletions, job exits, expiries and node
//! failures are applied here.
//!
//! Invariant owned here: a refused record changes nothing; a record
//! reported [`Effect::Unchanged`] is never journalled, and every other
//! one is, exactly once.

use super::PbsServer;
use crate::journal::Record;
use dynbatch_core::{Error, Job, JobId, JobOutcome, JobSpec, JobState, Result, SimTime};
use dynbatch_sched::{IterationOutcome, ProfileDelta};

/// What [`PbsServer::execute`] did with a record: only what some caller
/// reads back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// A `Submit` queued its job under this id.
    Submitted(JobId),
    /// A `NodeFailed` took the node down and requeued these jobs — perhaps
    /// none.
    Requeued(Vec<JobId>),
    /// An expiry timed out these jobs' pending requests.
    Expired(Vec<JobId>),
    /// Any other record took effect.
    Done,
    /// The record changed nothing, so nothing was journalled: an expiry
    /// with nothing due, or an outcome that decides nothing.
    Unchanged,
}

impl PbsServer {
    /// Applies one state change and, when this server journals and the
    /// record changed something, appends *that same record* — the one way
    /// a client command, a mom report, a timer, crash recovery and a
    /// replication follower reach durable state (recovery detaches the
    /// journal and a follower has none, so neither appends again). A
    /// refused record changes nothing and earns the error; so does a
    /// snapshot record, which only ever arrives as a recovery point.
    ///
    /// What counts as a change, and so what is appended, is decided here
    /// once: a `Guarantee` and a `NodeFailed` (even one that requeues
    /// nothing) always count; an expiry counts only when a request timed
    /// out, and an `Outcome` only when it decides something.
    pub fn execute(&mut self, record: Record) -> Result<Effect> {
        let (effect, record) = match record {
            Record::Snapshot(_) => {
                return Err(Error::BadConfig(
                    "snapshot record after the recovery point".into(),
                ))
            }
            // The spec moves into its job: a journaling server keeps a copy
            // for the record.
            Record::Submit { spec, now } => {
                self.admit(&spec)?;
                let record = self.journal.is_some().then(|| Record::Submit {
                    spec: spec.clone(),
                    now,
                });
                (Effect::Submitted(self.submit(spec, now)), record)
            }
            record @ Record::Qdel { job, now } => {
                self.qdel(job, now)?;
                (Effect::Done, Some(record))
            }
            record @ Record::DynGet {
                job,
                extra_cores,
                deadline,
                ..
            } => {
                self.dynget(job, extra_cores, deadline)?;
                (Effect::Done, Some(record))
            }
            Record::DynFree { job, released, now } => {
                self.dynfree(job, &released, now)?;
                (Effect::Done, Some(Record::DynFree { job, released, now }))
            }
            record @ Record::Finish { job, now } => {
                self.finish(job, now)?;
                (Effect::Done, Some(record))
            }
            Record::Outcome { outcome, now } => {
                self.apply_outcome(&outcome, now);
                let effect = if decides_nothing(&outcome) {
                    Effect::Unchanged
                } else {
                    Effect::Done
                };
                (effect, Some(Record::Outcome { outcome, now }))
            }
            record @ Record::ExpireSweep { now } => {
                let due = self.dyn_pending.iter().filter(|(_, p)| p.is_due(now));
                let due: Vec<JobId> = due.map(|(&job, _)| job).collect();
                (self.expire(due), Some(record))
            }
            record @ Record::NodeFailed { node, now } => {
                let victims = self.node_failed(node, now)?;
                (Effect::Requeued(victims), Some(record))
            }
            record @ Record::NodeRepaired { node } => {
                self.cluster.repair_node(node)?;
                self.note(ProfileDelta::CapacityChanged);
                (Effect::Done, Some(record))
            }
            // The guaranteeing site policy (paper §II-B): queued jobs'
            // pre-reserves follow it.
            record @ Record::Guarantee { on } => {
                if self.guarantee_evolving != on {
                    self.guarantee_evolving = on;
                    self.rebuild_view();
                }
                (Effect::Done, Some(record))
            }
        };
        // A deleted or finished job stays in the live table until its
        // record — and any compacting snapshot the append triggers — is
        // written: the snapshot images it in place, and its retirement
        // note carries the record's position.
        let retiring = match &record {
            Some(Record::Qdel { job, .. } | Record::Finish { job, .. }) => Some(*job),
            _ => None,
        };
        if let Some(record) =
            record.filter(|_| self.journal.is_some() && effect != Effect::Unchanged)
        {
            self.log(record);
        }
        if let Some(id) = retiring {
            self.retire(id);
        }
        Ok(effect)
    }

    /// `qsub`'s checks: a valid spec the machine could ever run.
    fn admit(&self, spec: &JobSpec) -> Result<()> {
        spec.validate().map_err(Error::BadSpec)?;
        if spec.cores > self.cluster.total_cores() {
            return Err(Error::RequestExceedsSystem {
                requested: spec.cores,
                capacity: self.cluster.total_cores(),
            });
        }
        Ok(())
    }

    /// `qsub`: queues an admitted job under the next id. The id is implied
    /// by replay order; only the inputs are journalled.
    fn submit(&mut self, spec: JobSpec, now: SimTime) -> JobId {
        let id = JobId(self.next_job_id);
        self.next_job_id += 1;
        let job = Job::new(id, spec, now);
        self.queued.push(self.queued_entry(&job));
        self.jobs.insert(id, job);
        id
    }

    /// `qdel`: cancels a job, releasing resources if it was active.
    fn qdel(&mut self, id: JobId, now: SimTime) -> Result<()> {
        let Some(job) = self.jobs.get_mut(&id) else {
            return Err(self.not_live(id, "qdel", "terminal"));
        };
        let was = std::mem::replace(&mut job.state, JobState::Cancelled);
        job.end_time = Some(now);
        if was.is_active() {
            self.cluster.release_all(id)?;
            self.usage_close(id, now);
            self.dyn_pending.remove(&id);
            self.left_machine(id, was);
        } else {
            self.queued.remove(id);
            self.note(ProfileDelta::LeftQueue { job: id });
        }
        Ok(())
    }

    /// The application exited: release everything and record the outcome.
    fn finish(&mut self, id: JobId, now: SimTime) -> Result<()> {
        let Some(job) = self.jobs.get_mut(&id) else {
            return Err(self.not_live(id, "finish", "not active"));
        };
        // Validate everything before the first mutation: an out-of-order
        // finish (double delivery, stale timer) must deny, never panic.
        let Some(start_time) = job.start_time.filter(|_| job.state.is_active()) else {
            return Err(Error::InvalidState {
                job: id,
                operation: "finish",
                state: "not active",
            });
        };
        let was = std::mem::replace(&mut job.state, JobState::Completed);
        job.end_time = Some(now);
        self.dyn_pending.remove(&id);
        self.cluster.release_all(id)?;
        self.usage_close(id, now);
        self.left_machine(id, was);
        let job = &self.jobs[&id];
        self.accounting.record(JobOutcome {
            id,
            name: job.spec.name.clone(),
            user: job.spec.user,
            class: job.spec.class,
            cores_requested: job.spec.cores,
            cores_final: job.cores_allocated,
            submit_time: job.submit_time,
            start_time,
            end_time: now,
            dyn_requests: job.dyn_requests,
            dyn_grants: job.dyn_grants,
            backfilled: job.backfilled,
        });
        Ok(())
    }

    /// A compute node failed: its allocations are lost and every affected
    /// job is requeued (progress lost). The returned list names the
    /// victims — the fault-tolerance hook the paper's introduction
    /// motivates (spare nodes can be dynamically allocated to them).
    fn node_failed(&mut self, node: dynbatch_core::NodeId, now: SimTime) -> Result<Vec<JobId>> {
        let victims = self.cluster.fail_node(node)?;
        for &v in &victims {
            // Release whatever the job still holds on surviving nodes.
            if self.cluster.allocation_of(v).is_some() {
                self.cluster.release_all(v)?;
            }
            self.usage_close(v, now);
            self.dyn_pending.remove(&v);
            let job = self.jobs.get_mut(&v).expect("victim is a known job");
            let was = std::mem::replace(&mut job.state, JobState::Queued);
            job.start_time = None;
            job.cores_allocated = 0;
            job.backfilled = false;
            self.left_machine(v, was);
            self.requeued(v);
        }
        self.shed_reserves();
        self.note(ProfileDelta::CapacityChanged);
        Ok(victims)
    }

    /// Under the guaranteeing policy a running job holds its pre-reserve
    /// in the scheduler's profile but not in the cluster, so a node failure
    /// can leave more held than the machine has. The youngest reserves go
    /// first until what is held fits again.
    fn shed_reserves(&mut self) {
        let held: u32 = self
            .running
            .iter()
            .map(|r| r.cores + r.reserved_extra)
            .sum();
        let mut over = held.saturating_sub(self.cluster.total_cores());
        if over == 0 {
            return;
        }
        let reserved: Vec<JobId> = self
            .running
            .iter()
            .rev()
            .filter(|r| r.reserved_extra > 0)
            .map(|r| r.id)
            .collect();
        for id in reserved {
            if over == 0 {
                break;
            }
            let job = self.jobs.get_mut(&id).expect("running job is live");
            let shed = job.reserved_extra.min(over);
            job.reserved_extra -= shed;
            over -= shed;
            self.resized(id);
        }
    }

    /// Times out the pending requests of `due`: each job returns to
    /// `Running`, and the driver tells its application the request failed
    /// (it may retry). Nothing due is no change at all.
    fn expire(&mut self, due: Vec<JobId>) -> Effect {
        if due.is_empty() {
            return Effect::Unchanged;
        }
        for &id in &due {
            self.dyn_pending.remove(&id);
            self.request_settled(id);
        }
        Effect::Expired(due)
    }
}

/// An outcome with no start, dynamic decision or grow mutates nothing, and
/// is never journalled.
pub(super) fn decides_nothing(outcome: &IterationOutcome) -> bool {
    outcome.starts.is_empty() && outcome.dyn_decisions.is_empty() && outcome.grows.is_empty()
}

/// Test shorthand: executes a `Submit` and hands back the id it assigned.
#[cfg(test)]
pub(crate) fn submit(s: &mut PbsServer, spec: JobSpec, now: SimTime) -> Result<JobId> {
    match s.execute(Record::Submit { spec, now })? {
        Effect::Submitted(id) => Ok(id),
        other => unreachable!("a submit has no {other:?}"),
    }
}
