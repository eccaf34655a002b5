//! The paper's dynamic-allocation protocol at the server: `tm_dynget`
//! queues one pending request per job and moves the job to `DynQueued`
//! (Fig 3), `tm_dynfree` releases a proper subset of the allocation at
//! once (Fig 4), and the guaranteeing policy's pre-reserves.
//!
//! Invariant owned here: a live job is `DynQueued` exactly when it has a
//! pending-request entry, and `dyn_queued` counts those jobs.

use super::PbsServer;
use crate::journal::PendingDynImage;
use dynbatch_cluster::Allocation;
use dynbatch_core::{Error, Job, JobId, JobState, Result, SimTime};

/// A pending dynamic request held at the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct PendingDyn {
    pub(super) extra_cores: u32,
    pub(super) seq: u64,
    /// Negotiation deadline; `None` = reject-immediately protocol.
    pub(super) deadline: Option<SimTime>,
}

impl PendingDyn {
    /// Whether a negotiated request's deadline has passed at `now`.
    pub(super) fn is_due(&self, now: SimTime) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

impl PbsServer {
    /// Every pending dynamic request, in job-id order — the daemon re-arms
    /// negotiation-expiry timers from this after recovery.
    pub fn pending_dyn_requests(&self) -> impl Iterator<Item = PendingDynImage> + '_ {
        self.dyn_pending.iter().map(|(&job, p)| PendingDynImage {
            job,
            extra_cores: p.extra_cores,
            seq: p.seq,
            deadline: p.deadline,
        })
    }

    /// Cores currently pre-reserved (held but idle) under the
    /// guaranteeing policy.
    pub fn reserved_unused_cores(&self) -> u32 {
        self.running.iter().map(|r| r.reserved_extra).sum()
    }

    /// The mother superior forwarded a `tm_dynget()` — queue it and move
    /// the job to `DynQueued` (paper Fig 3, steps 2–3). Rejects a second
    /// pending request for the same job. With a `deadline` the request is
    /// negotiated (paper §III-C future work): an unservable request stays
    /// queued at the server until then — the scheduler reconsiders it
    /// every iteration and reports availability estimates — instead of
    /// failing straight back; a `Record::ExpireSweep` at or past the
    /// deadline times it out.
    pub(super) fn dynget(
        &mut self,
        id: JobId,
        extra_cores: u32,
        deadline: Option<SimTime>,
    ) -> Result<()> {
        let Some(job) = self.jobs.get_mut(&id) else {
            return Err(self.not_live(id, "tm_dynget", "not running"));
        };
        match job.state {
            JobState::Running => {}
            JobState::DynQueued => return Err(Error::DynRequestPending(id)),
            _ => {
                return Err(Error::InvalidState {
                    job: id,
                    operation: "tm_dynget",
                    state: "not running",
                })
            }
        }
        if extra_cores == 0 {
            return Err(Error::BadSpec("dynamic request for zero cores".into()));
        }
        job.state = JobState::DynQueued;
        self.dyn_queued += 1;
        job.dyn_requests += 1;
        let seq = self.next_dyn_seq;
        self.next_dyn_seq += 1;
        self.dyn_pending.insert(
            id,
            PendingDyn {
                extra_cores,
                seq,
                deadline,
            },
        );
        Ok(())
    }

    /// A `tm_dynfree()` release: takes effect immediately (paper Fig 4).
    pub(super) fn dynfree(&mut self, id: JobId, released: &Allocation, now: SimTime) -> Result<()> {
        let Some(job) = self.jobs.get_mut(&id) else {
            return Err(self.not_live(id, "tm_dynfree", "not active"));
        };
        if !job.state.is_active() {
            return Err(Error::InvalidState {
                job: id,
                operation: "tm_dynfree",
                state: "not active",
            });
        }
        let total = released.total_cores();
        if total >= job.cores_allocated {
            return Err(Error::BadSpec(
                "tm_dynfree may release only a proper subset of the allocation".into(),
            ));
        }
        self.cluster.release_partial(id, released)?;
        self.usage_mark(id, now);
        let job = self.jobs.get_mut(&id).expect("checked above");
        job.cores_allocated -= total;
        self.resized(id);
        Ok(())
    }

    /// A pending request was settled without a grant: the job, if still
    /// `DynQueued`, goes back to `Running`.
    pub(super) fn request_settled(&mut self, id: JobId) {
        if let Some(job) = self.jobs.get_mut(&id) {
            if job.state == JobState::DynQueued {
                job.state = JobState::Running;
                self.dyn_queued -= 1;
            }
        }
    }

    /// The pre-reserve a job receives at start under the guaranteeing
    /// policy (its execution model's dynamic demand), 0 otherwise.
    pub(super) fn reserve_for(&self, job: &Job) -> u32 {
        if self.guarantee_evolving && job.spec.class == dynbatch_core::JobClass::Evolving {
            job.spec.exec.extra_cores()
        } else {
            0
        }
    }
}
