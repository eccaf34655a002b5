//! Channel message types for the threaded deployment.
//!
//! Every enum is `Clone` so the fault-injection harness ([`crate::fault`])
//! can duplicate deliveries. Timer-originated commands carry the tag of
//! the state they were armed against (`gen` for app-exit timers, `seq` for
//! negotiation expiries): the server drops firings whose tag no longer
//! matches, so a stale timer can never act on a successor run or request.

use dynbatch_core::{JobId, JobOutcome, JobState, NodeId, UserId};
use dynbatch_server::{MomToServer, ServerToMom, TmResponse};
use std::sync::mpsc::Sender;

/// What a client asks the server thread directly, each request carrying
/// its reply channel: observation and waiting, never a batch-system
/// command — `qsub`, `qdel`, `dynget` and `dynfree` go through the
/// reactor ([`crate::DaemonHandle::connect`]), which owns ordering and
/// the ack rule.
#[derive(Debug, Clone)]
pub enum ClientReq {
    /// Query a job's state, answered from the leader.
    QStat {
        /// The job.
        job: JobId,
        /// Reply channel.
        reply: Sender<Option<JobState>>,
    },
    /// Start notification: replies `true` once the job has started (or
    /// `false` if it became terminal without ever starting). Event-driven
    /// — no polling.
    AwaitRunning {
        /// The job.
        job: JobId,
        /// Reply channel (fires when started or terminally not-started).
        reply: Sender<bool>,
    },
    /// Drain notification: replies once no job is queued or active.
    AwaitDrained {
        /// Reply channel (fires when drained).
        reply: Sender<()>,
    },
    /// Snapshot of the accounting log (completed-job outcomes).
    Outcomes {
        /// Reply channel.
        reply: Sender<Vec<JobOutcome>>,
    },
    /// Total core-seconds charged to a user by the fairshare tracker.
    FairshareCharged {
        /// The user.
        user: UserId,
        /// Reply channel.
        reply: Sender<f64>,
    },
    /// Snapshot of the replication layer (`None` when replication is
    /// off).
    ReplicationStatus {
        /// Reply channel.
        reply: Sender<Option<ReplicationStatus>>,
    },
}

/// A point-in-time view of the replication layer, answered by
/// [`ClientReq::ReplicationStatus`].
#[derive(Debug, Clone, Default)]
pub struct ReplicationStatus {
    /// Current leader term (1 before any failover).
    pub term: u64,
    /// Per-follower acked watermark under the current term (0 for dead
    /// or still-reseeding followers).
    pub follower_watermarks: Vec<u64>,
    /// The leader journal's `total_appended`.
    pub leader_appended: u64,
    /// Watermark through which acks were released (each after every live
    /// follower had it).
    pub acked_watermark: u64,
    /// Completed failovers.
    pub failovers: u64,
    /// Records the last failover reported appended-but-unreplicated.
    pub lost_records: u64,
    /// Of those, how many had been acked to a client — through either
    /// client API. Must read 0: no ack leaves before its record is on
    /// every live follower.
    pub acked_lost: u64,
    /// Divergence errors reported by followers (poisoned replicas).
    pub errors: Vec<String>,
}

/// Everything the server thread receives.
#[derive(Debug, Clone)]
pub enum ServerCmd {
    /// A client's observation or wait (commands come through the reactor).
    Client(ClientReq),
    /// A mom notification.
    FromMom(MomToServer),
    /// An application exited (sent by the job's app-exit timer). `gen` is
    /// the run generation the timer was armed for; a firing whose `gen`
    /// does not match the job's current generation is stale (the job was
    /// preempted and restarted since) and is dropped.
    JobExited(JobId, u64),
    /// A negotiated dynamic request's expiry timer fired. `seq` identifies
    /// the exact request the timer was armed for; expiry is a no-op once
    /// that request left the pending set (granted, rejected, superseded).
    ExpireDyn {
        /// The job.
        job: JobId,
        /// The pending request's FIFO sequence number.
        seq: u64,
    },
    /// A mom lost its state and restarted (fault injection); the server
    /// re-sends `RunJob` for every active job mothered there.
    MomRestarted(NodeId),
    /// A reactor client sent something: poll the command reactor. Pure
    /// nudge — commands travel on the reactor's own (unfaultable)
    /// channel; spurious wakes poll an empty mailbox and move on.
    ReactorWake,
    /// Stop the daemon.
    Shutdown,
}

/// Mom-to-mom messages (the dyn_join fan-out).
///
/// Pings and acks are the one *expendable* message class: the mother
/// superior retransmits unacked pings with exponential backoff, acks are
/// idempotent (keyed by acker), and both carry the fan-out `round` so a
/// late ack from a previous round cannot complete the current one.
#[derive(Debug, Clone)]
pub enum PeerMsg {
    /// "Join job `job`'s host group" — sent by the mother superior to each
    /// newly allocated node during dyn_join; retransmitted until acked.
    JoinPing {
        /// The job being expanded.
        job: JobId,
        /// The mother superior's fan-out round.
        round: u64,
        /// Who to ack.
        reply_to: NodeId,
    },
    /// Acknowledgement of a [`PeerMsg::JoinPing`].
    JoinAck {
        /// The job being expanded.
        job: JobId,
        /// Echo of the ping's round.
        round: u64,
        /// The acking node (dedup key — duplicated acks count once).
        from: NodeId,
    },
}

/// Everything a mom thread receives.
#[derive(Debug, Clone)]
pub enum MomMsg {
    /// A server command.
    FromServer(ServerToMom),
    /// A peer-mom message.
    Peer(PeerMsg),
    /// A TM call from an application process on this node.
    Tm {
        /// The calling job.
        job: JobId,
        /// The request.
        req: dynbatch_server::TmRequest,
        /// Where the TM response goes.
        reply: Sender<TmResponse>,
    },
    /// Failover reconciliation from a freshly promoted leader: `live` is
    /// the set of jobs whose dynamic requests are still pending on the
    /// promoted state. A parked `tm_dynget` caller whose request record
    /// was lost with the dead leader (its job is not in `live`) is denied
    /// rather than left hanging; callers in `live` stay parked — their
    /// negotiations survived the failover and the new leader will answer
    /// them.
    ReconcileDyn {
        /// Jobs with a live pending dynamic request on the new leader.
        live: Vec<JobId>,
    },
    /// Fault injection: the mom "process" dies and restarts, losing all
    /// in-memory state. Pending TM calls are failed back to their
    /// applications, then the mom announces [`ServerCmd::MomRestarted`].
    Crash,
    /// Stop the mom.
    Shutdown,
}
