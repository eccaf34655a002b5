//! Simulation events.

use dynbatch_core::{JobId, NodeId};

/// Everything that can happen in the simulated batch system.
///
/// Events that concern a specific *execution* of a job carry the nonce of
/// the run that armed them (`gen`): every run draws a fresh one, so an
/// event from a run that is over — finished, deleted, preempted, lost —
/// is ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Submit workload item `idx`.
    Submit(u32),
    /// Operator `qdel` of workload item `idx` (by submission index).
    /// Kills the job if it already submitted; cancels the pending
    /// submission if the item is admitted but not yet submitted; and —
    /// the streamed-ingestion case — marks a not-yet-admitted item so
    /// lazy admission drops it instead of resurrecting it when the
    /// lookahead window reaches it.
    QDelItem(u32),
    /// The application of `job` exits.
    Finish {
        /// The job.
        job: JobId,
        /// The nonce of the run that armed it.
        gen: u64,
    },
    /// `job`'s walltime expires; kill it if still active.
    WallKill {
        /// The job.
        job: JobId,
        /// The nonce of the run that armed it.
        gen: u64,
    },
    /// An ESP-style evolving job reaches a dynamic-request point
    /// (16 % / 25 % of SET).
    RequestPoint {
        /// The job.
        job: JobId,
        /// The nonce of the run that armed it.
        gen: u64,
        /// Which request point (0 = first).
        attempt: u32,
    },
    /// A negotiated dynamic request's deadline passes; expire it if still
    /// pending.
    DynExpire {
        /// The job.
        job: JobId,
        /// The nonce of the run that armed it.
        gen: u64,
    },
    /// A phased (Quadflow-style) job finishes phase `phase`.
    PhaseEnd {
        /// The job.
        job: JobId,
        /// The nonce of the run that armed it.
        gen: u64,
        /// The phase that just completed.
        phase: u32,
    },
    /// An extra scheduler wake-up (used after a malleable job starts so
    /// the next iteration can grow it; a no-op state-wise).
    Wake,
    /// Node failure injection.
    FailNode(NodeId),
    /// Node repair injection.
    RepairNode(NodeId),
    /// The server crashes and restarts by snapshot-load + replay of its
    /// write-ahead journal. Requires journaling to be enabled on the
    /// simulated server; scheduler soft state is rebuilt from scratch,
    /// modelling a real server-process death (applications keep running —
    /// their events stay in the queue).
    ServerCrash,
}

impl Event {
    /// The run this event was armed for, as `(job, gen)`; `None` for an
    /// event that concerns no run.
    pub fn run(&self) -> Option<(JobId, u64)> {
        match *self {
            Event::Finish { job, gen }
            | Event::WallKill { job, gen }
            | Event::RequestPoint { job, gen, .. }
            | Event::DynExpire { job, gen }
            | Event::PhaseEnd { job, gen, .. } => Some((job, gen)),
            _ => None,
        }
    }
}
