//! Jobs: the unit of work a batch system schedules.

use crate::exec::ExecutionModel;
use crate::ids::{GroupId, JobId, QueueId, UserId};
use crate::time::{SimDuration, SimTime};
use std::fmt;

/// The Feitelson/Rudolph job taxonomy (paper §I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobClass {
    /// Fixed processor count, allocated before start, never changes.
    Rigid,
    /// The batch system may change the processor count *before* start.
    Moldable,
    /// The *batch system* may grow/shrink the allocation during execution.
    Malleable,
    /// The *application* may grow/shrink its own allocation during
    /// execution — the class this work enables.
    Evolving,
}

impl fmt::Display for JobClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JobClass::Rigid => "rigid",
            JobClass::Moldable => "moldable",
            JobClass::Malleable => "malleable",
            JobClass::Evolving => "evolving",
        };
        f.write_str(s)
    }
}

/// Lifecycle states, matching the extended Torque server (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobState {
    /// Submitted, waiting for resources.
    Queued,
    /// Executing on its allocation.
    Running,
    /// Running, with a dynamic request pending at the server — the special
    /// state introduced for `tm_dynget()`.
    DynQueued,
    /// Finished normally.
    Completed,
    /// Removed before completion (qdel, failure, preemption without
    /// restart).
    Cancelled,
}

impl JobState {
    /// True for states in which the job occupies resources.
    pub fn is_active(self) -> bool {
        matches!(self, JobState::Running | JobState::DynQueued)
    }

    /// True once the job will never run again.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Completed | JobState::Cancelled)
    }

    /// The state's name as `qstat` reports it (the variant's name).
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "Queued",
            JobState::Running => "Running",
            JobState::DynQueued => "DynQueued",
            JobState::Completed => "Completed",
            JobState::Cancelled => "Cancelled",
        }
    }
}

/// The resize bounds of a malleable job: the batch system may shrink it
/// to `min_cores` (e.g. to serve a dynamic request, paper §II-B) or grow
/// it to `max_cores` (to soak up idle resources).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MalleableRange {
    /// The fewest cores the application can make progress on.
    pub min_cores: u32,
    /// The most cores the application can exploit.
    pub max_cores: u32,
}

/// Everything a user supplies at `qsub` time.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Human-readable name (e.g. the ESP type letter).
    pub name: String,
    /// Submitting user.
    pub user: UserId,
    /// The user's group.
    pub group: GroupId,
    /// Job class.
    pub class: JobClass,
    /// Requested cores (the static allocation).
    pub cores: u32,
    /// Requested walltime; the scheduler plans with this, and the server
    /// kills jobs that exceed it.
    pub walltime: SimDuration,
    /// How the job actually executes.
    pub exec: ExecutionModel,
    /// Additive priority boost (the ESP Z jobs get a very large one).
    pub priority_boost: i64,
    /// While this job is queued, backfilling is suspended system-wide
    /// (the ESP Z-job rule).
    pub suppress_backfill_while_queued: bool,
    /// For malleable jobs: the allocation range the batch system may
    /// resize within. `None` for every other class.
    pub malleable: Option<MalleableRange>,
    /// For moldable jobs: the range the batch system may pick the start
    /// allocation from (chosen once, *before* start — paper §I). `None`
    /// for every other class.
    pub moldable: Option<MalleableRange>,
    /// Negotiated dynamic requests (the paper's future-work extension):
    /// when set, a `tm_dynget()` that cannot be served immediately stays
    /// queued at the server for up to this long — the batch system keeps
    /// retrying at every iteration and reports its best availability
    /// estimate — instead of failing straight back to the application.
    /// `None` (the default) is the paper's simple reject-and-retry
    /// protocol.
    pub dyn_timeout: Option<SimDuration>,
    /// Submission queue for per-queue resource-hour accounting. `None`
    /// (the default) falls back to one queue per user group
    /// ([`JobSpec::effective_queue`]).
    pub queue: Option<QueueId>,
}

impl JobSpec {
    /// A rigid job with runtime equal to its walltime.
    pub fn rigid(
        name: impl Into<String>,
        user: UserId,
        group: GroupId,
        cores: u32,
        runtime: SimDuration,
    ) -> Self {
        JobSpec {
            name: name.into(),
            user,
            group,
            class: JobClass::Rigid,
            cores,
            walltime: runtime,
            exec: ExecutionModel::Fixed { duration: runtime },
            priority_boost: 0,
            suppress_backfill_while_queued: false,
            malleable: None,
            moldable: None,
            dyn_timeout: None,
            queue: None,
        }
    }

    /// An evolving job with an explicit execution model; walltime defaults
    /// to the model's static duration.
    pub fn evolving(
        name: impl Into<String>,
        user: UserId,
        group: GroupId,
        cores: u32,
        exec: ExecutionModel,
    ) -> Self {
        let walltime = exec.static_duration(cores);
        JobSpec {
            name: name.into(),
            user,
            group,
            class: JobClass::Evolving,
            cores,
            walltime,
            exec,
            priority_boost: 0,
            suppress_backfill_while_queued: false,
            malleable: None,
            moldable: None,
            dyn_timeout: None,
            queue: None,
        }
    }

    /// A malleable job over a work pool of `work_core_secs` core-seconds,
    /// submitted at `cores` cores, resizable within `[min_cores,
    /// max_cores]`. Walltime defaults to the worst case (running at
    /// `min_cores` throughout).
    pub fn malleable(
        name: impl Into<String>,
        user: UserId,
        group: GroupId,
        cores: u32,
        min_cores: u32,
        max_cores: u32,
        work_core_secs: u64,
    ) -> Self {
        let exec = ExecutionModel::work_pool_secs(work_core_secs);
        JobSpec {
            name: name.into(),
            user,
            group,
            class: JobClass::Malleable,
            cores,
            walltime: exec.static_duration(min_cores),
            exec,
            priority_boost: 0,
            suppress_backfill_while_queued: false,
            malleable: Some(MalleableRange {
                min_cores,
                max_cores,
            }),
            moldable: None,
            dyn_timeout: None,
            queue: None,
        }
    }

    /// A moldable job over a work pool of `work_core_secs` core-seconds:
    /// the batch system picks the start allocation from `[min_cores,
    /// max_cores]` (largest that starts immediately); once started the
    /// allocation is fixed. Walltime defaults to the worst case
    /// (`min_cores` throughout).
    pub fn moldable(
        name: impl Into<String>,
        user: UserId,
        group: GroupId,
        cores: u32,
        min_cores: u32,
        max_cores: u32,
        work_core_secs: u64,
    ) -> Self {
        let exec = ExecutionModel::work_pool_secs(work_core_secs);
        JobSpec {
            name: name.into(),
            user,
            group,
            class: JobClass::Moldable,
            cores,
            walltime: exec.static_duration(min_cores),
            exec,
            priority_boost: 0,
            suppress_backfill_while_queued: false,
            malleable: None,
            moldable: Some(MalleableRange {
                min_cores,
                max_cores,
            }),
            dyn_timeout: None,
            queue: None,
        }
    }

    /// Sets the priority boost.
    pub fn with_priority_boost(mut self, boost: i64) -> Self {
        self.priority_boost = boost;
        self
    }

    /// The queue this job's usage is accounted to: the explicit queue, or
    /// the group-derived default (one queue per user group).
    pub fn effective_queue(&self) -> QueueId {
        self.queue.unwrap_or(QueueId(self.group.0))
    }

    /// Validates the spec.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("job must request at least one core".into());
        }
        if self.walltime.is_zero() {
            return Err("walltime must be positive".into());
        }
        if let Some(r) = self.malleable {
            if r.min_cores == 0 || r.min_cores > r.max_cores {
                return Err(format!(
                    "malleable range [{}, {}] is invalid",
                    r.min_cores, r.max_cores
                ));
            }
            if !(r.min_cores..=r.max_cores).contains(&self.cores) {
                return Err("submitted cores outside the malleable range".into());
            }
            if self.class != JobClass::Malleable {
                return Err("malleable range on a non-malleable job".into());
            }
        } else if self.class == JobClass::Malleable {
            return Err("malleable job needs a malleable range".into());
        }
        if let Some(r) = self.moldable {
            if r.min_cores == 0 || r.min_cores > r.max_cores {
                return Err(format!(
                    "moldable range [{}, {}] is invalid",
                    r.min_cores, r.max_cores
                ));
            }
            if !(r.min_cores..=r.max_cores).contains(&self.cores) {
                return Err("submitted cores outside the moldable range".into());
            }
            if self.class != JobClass::Moldable {
                return Err("moldable range on a non-moldable job".into());
            }
        } else if self.class == JobClass::Moldable {
            return Err("moldable job needs a moldable range".into());
        }
        self.exec.validate()
    }
}

/// A job as tracked by the server: spec plus lifecycle bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Server-assigned identifier.
    pub id: JobId,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Submission instant.
    pub submit_time: SimTime,
    /// Start instant, once running.
    pub start_time: Option<SimTime>,
    /// Completion instant, once terminal.
    pub end_time: Option<SimTime>,
    /// Cores currently allocated (≥ `spec.cores` after successful growth).
    pub cores_allocated: u32,
    /// Number of dynamic requests issued so far.
    pub dyn_requests: u32,
    /// Number of dynamic requests granted so far.
    pub dyn_grants: u32,
    /// True if this job was started by the backfill pass (and is therefore
    /// preemptible under the `preempt_backfilled_for_dyn` site policy).
    pub backfilled: bool,
    /// Cores pre-reserved for this job's future dynamic requests (only
    /// non-zero under the *guaranteeing* site policy; see
    /// `SchedulerConfig::guarantee_evolving`). Held exclusively — rigid
    /// jobs cannot be planned onto them — but idle until claimed.
    pub reserved_extra: u32,
}

impl Job {
    /// Wraps a spec into a freshly queued job.
    pub fn new(id: JobId, spec: JobSpec, submit_time: SimTime) -> Self {
        Job {
            id,
            spec,
            state: JobState::Queued,
            submit_time,
            start_time: None,
            end_time: None,
            cores_allocated: 0,
            dyn_requests: 0,
            dyn_grants: 0,
            backfilled: false,
            reserved_extra: 0,
        }
    }

    /// Time spent waiting in the queue (up to `now` if not yet started).
    pub fn wait_time(&self, now: SimTime) -> SimDuration {
        self.start_time
            .unwrap_or(now)
            .duration_since(self.submit_time)
    }

    /// Turnaround (submit → completion), if completed.
    pub fn turnaround(&self) -> Option<SimDuration> {
        self.end_time.map(|e| e.duration_since(self.submit_time))
    }

    /// The instant the job's walltime expires, if running.
    pub fn walltime_end(&self) -> Option<SimTime> {
        self.start_time.map(|s| s + self.spec.walltime)
    }

    /// Remaining walltime at `now` (zero if expired), if running.
    pub fn remaining_walltime(&self, now: SimTime) -> Option<SimDuration> {
        self.walltime_end().map(|e| e.duration_since(now))
    }
}

/// Condensed per-job result used by accounting and metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Which job.
    pub id: JobId,
    /// Job name (ESP type letter, etc.).
    pub name: String,
    /// Submitting user.
    pub user: UserId,
    /// Job class.
    pub class: JobClass,
    /// Statically requested cores.
    pub cores_requested: u32,
    /// Cores held at completion (> requested iff growth succeeded).
    pub cores_final: u32,
    /// Submission instant.
    pub submit_time: SimTime,
    /// Start instant.
    pub start_time: SimTime,
    /// Completion instant.
    pub end_time: SimTime,
    /// Dynamic requests issued.
    pub dyn_requests: u32,
    /// Dynamic requests granted.
    pub dyn_grants: u32,
    /// Whether the job was started by backfill.
    pub backfilled: bool,
}

impl JobOutcome {
    /// Queue waiting time.
    pub fn wait(&self) -> SimDuration {
        self.start_time.duration_since(self.submit_time)
    }

    /// Execution time.
    pub fn runtime(&self) -> SimDuration {
        self.end_time.duration_since(self.start_time)
    }

    /// Turnaround time.
    pub fn turnaround(&self) -> SimDuration {
        self.end_time.duration_since(self.submit_time)
    }

    /// True iff at least one dynamic request was granted.
    pub fn dyn_satisfied(&self) -> bool {
        self.dyn_grants > 0
    }
}

/// Incrementally-maintained aggregate over a sequence of [`JobOutcome`]s.
///
/// Carries exactly the integer sums a [`JobOutcome`]-derived run summary
/// needs, so accounting can serve summaries in O(1) memory without
/// retaining the per-job outcome log (streaming / low-memory replays).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeTotals {
    /// Completed jobs folded in.
    pub jobs: u64,
    /// Sum of queue waits, in milliseconds.
    pub sum_wait_ms: u64,
    /// Sum of turnaround times, in milliseconds.
    pub sum_turnaround_ms: u64,
    /// Jobs with at least one dynamic grant.
    pub satisfied_dyn: u64,
    /// Jobs started by backfill.
    pub backfilled: u64,
}

impl OutcomeTotals {
    /// Folds one completed job into the totals.
    pub fn add(&mut self, o: &JobOutcome) {
        self.jobs += 1;
        self.sum_wait_ms += o.wait().as_millis();
        self.sum_turnaround_ms += o.turnaround().as_millis();
        if o.dyn_satisfied() {
            self.satisfied_dyn += 1;
        }
        if o.backfilled {
            self.backfilled += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecutionModel;

    fn spec() -> JobSpec {
        JobSpec::rigid("A", UserId(0), GroupId(0), 4, SimDuration::from_secs(267))
    }

    /// `qstat` replies carry these names and the benchmark's pinned reply
    /// hash covers them, so they stay the `Debug` spellings.
    #[test]
    fn state_names_are_the_debug_spellings() {
        use JobState::*;
        for state in [Queued, Running, DynQueued, Completed, Cancelled] {
            assert_eq!(state.as_str(), format!("{state:?}"));
        }
    }

    #[test]
    fn rigid_spec_defaults() {
        let s = spec();
        assert_eq!(s.class, JobClass::Rigid);
        assert_eq!(s.walltime, SimDuration::from_secs(267));
        assert!(s.validate().is_ok());
    }

    #[test]
    fn evolving_spec_walltime_is_set() {
        let s = JobSpec::evolving(
            "F",
            UserId(5),
            GroupId(1),
            8,
            ExecutionModel::esp_evolving(1846, 1230, 4),
        );
        assert_eq!(s.walltime, SimDuration::from_secs(1846));
        assert_eq!(s.class, JobClass::Evolving);
    }

    #[test]
    fn invalid_specs() {
        let mut s = spec();
        s.cores = 0;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.walltime = SimDuration::ZERO;
        assert!(s.validate().is_err());
    }

    #[test]
    fn malleable_and_moldable_constructors() {
        let m = JobSpec::malleable("m", UserId(0), GroupId(0), 16, 8, 32, 16_000);
        assert_eq!(m.class, JobClass::Malleable);
        // Walltime is the worst case: the whole pool at min cores.
        assert_eq!(m.walltime, SimDuration::from_secs(2000));
        assert!(m.validate().is_ok());

        let d = JobSpec::moldable("d", UserId(0), GroupId(0), 16, 8, 32, 16_000);
        assert_eq!(d.class, JobClass::Moldable);
        assert_eq!(d.walltime, SimDuration::from_secs(2000));
        assert!(d.validate().is_ok());
        assert!(d.moldable.is_some() && d.malleable.is_none());
    }

    #[test]
    fn job_lifecycle_times() {
        let mut j = Job::new(JobId(1), spec(), SimTime::from_secs(100));
        assert_eq!(
            j.wait_time(SimTime::from_secs(130)),
            SimDuration::from_secs(30)
        );
        j.start_time = Some(SimTime::from_secs(150));
        j.state = JobState::Running;
        assert_eq!(
            j.wait_time(SimTime::from_secs(999)),
            SimDuration::from_secs(50)
        );
        assert_eq!(j.walltime_end(), Some(SimTime::from_secs(417)));
        assert_eq!(
            j.remaining_walltime(SimTime::from_secs(200)),
            Some(SimDuration::from_secs(217))
        );
        j.end_time = Some(SimTime::from_secs(400));
        assert_eq!(j.turnaround(), Some(SimDuration::from_secs(300)));
    }

    #[test]
    fn state_predicates() {
        assert!(JobState::Running.is_active());
        assert!(JobState::DynQueued.is_active());
        assert!(!JobState::Queued.is_active());
        assert!(JobState::Completed.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert!(!JobState::Running.is_terminal());
    }

    #[test]
    fn outcome_metrics() {
        let o = JobOutcome {
            id: JobId(1),
            name: "L".into(),
            user: UserId(7),
            class: JobClass::Rigid,
            cores_requested: 15,
            cores_final: 15,
            submit_time: SimTime::from_secs(10),
            start_time: SimTime::from_secs(40),
            end_time: SimTime::from_secs(406),
            dyn_requests: 0,
            dyn_grants: 0,
            backfilled: true,
        };
        assert_eq!(o.wait(), SimDuration::from_secs(30));
        assert_eq!(o.runtime(), SimDuration::from_secs(366));
        assert_eq!(o.turnaround(), SimDuration::from_secs(396));
        assert!(!o.dyn_satisfied());
    }
}
