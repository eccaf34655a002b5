//! Channel message types, the one link rule (`Link`), and the one way the
//! wall-clock ensemble waits (`recv_until`).
//!
//! Every daemon-to-daemon message — server→mom, mom→server, mom→mom — is
//! a `Delivery` its sender writes to its own outbox; the ensemble moves
//! each outbox onto its net ([`crate::fault`]) after the step that wrote
//! it, under either driver. A client's input is a `Delivery` too, written
//! into the ensemble's one inbox; a TM call is addressed by its job, and
//! the ensemble routes it to the job's mother superior. Every enum is
//! `Clone` so the net can duplicate deliveries.
//!
//! Every sturdy message — server→mom ([`MomMsg::FromServer`]) and
//! mom→server ([`ServerCmd::FromMom`]) — carries its number on its link,
//! one counter per sender–receiver pair, and the receiver applies each
//! number once, in send order (`Link`): the delivery one FIFO channel per
//! receiver would give, whatever the net duplicates or reorders. Pings
//! and acks are unnumbered: they may be dropped, and the mother superior
//! retries them. No deadline travels here: the server's deadlines are
//! events of its own event core.

use dynbatch_core::{JobId, JobOutcome, JobState, NodeId, UserId};
use dynbatch_server::{Command, ServerToMom, TmRequest, TmResponse};
use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, RecvError, RecvTimeoutError, Sender};
use std::time::Instant;

/// Waits on `rx` for the next message, or until `due` passes (`Ok(None)`);
/// `Err` once every sender has hung up. The wall-clock ensemble waits this
/// way for its next deadline or delivery.
pub(crate) fn recv_until<T>(
    rx: &Receiver<T>,
    due: Option<Instant>,
) -> Result<Option<T>, RecvError> {
    let Some(due) = due else {
        return rx.recv().map(Some);
    };
    match rx.recv_timeout(due.saturating_duration_since(Instant::now())) {
        Ok(msg) => Ok(Some(msg)),
        Err(RecvTimeoutError::Timeout) => Ok(None),
        Err(RecvTimeoutError::Disconnected) => Err(RecvError),
    }
}

/// One message to a daemon, from another daemon or from a client.
#[derive(Debug, Clone)]
pub(crate) enum Delivery {
    /// To the server.
    Server(ServerCmd),
    /// To the mom of a node.
    Mom(NodeId, MomMsg),
    /// A client's TM call, to the mother superior of its job: the
    /// ensemble reads it as [`MomMsg::Tm`] there, or answers
    /// [`TmResponse::DynDenied`] if the job has none.
    Tm(JobId, TmRequest, Sender<TmResponse>),
}

/// One daemon's end of its link to another: the number of the last
/// message it sent there, and what it has received from there. Each
/// received number is applied once and in send order — a second copy is
/// dropped, an early arrival is held until the gap before it fills. The
/// state outlives a crash of either end, as a transport's would.
pub(crate) struct Link<T> {
    sent: u64,
    applied: u64,
    held: BTreeMap<u64, T>,
}

impl<T> Default for Link<T> {
    fn default() -> Self {
        Link {
            sent: 0,
            applied: 0,
            held: BTreeMap::new(),
        }
    }
}

impl<T> Link<T> {
    /// The number of the next message sent on the link.
    pub(crate) fn number(&mut self) -> u64 {
        self.sent += 1;
        self.sent
    }

    /// Takes message `n` off the link; [`Link::next`] releases it in turn.
    pub(crate) fn receive(&mut self, n: u64, msg: T) {
        if n > self.applied {
            self.held.entry(n).or_insert(msg);
        }
    }

    /// The next message to apply, in send order.
    pub(crate) fn next(&mut self) -> Option<T> {
        let msg = self.held.remove(&(self.applied + 1))?;
        self.applied += 1;
        Some(msg)
    }
}

/// What a client asks the server daemon directly, each request carrying
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
    /// Runs of the replication stream the fault plan dropped.
    pub runs_dropped: u64,
    /// Runs it delayed to the next pump.
    pub runs_delayed: u64,
    /// Runs it duplicated.
    pub runs_duplicated: u64,
    /// Follower crashes it fired.
    pub follower_crashes: u64,
}

/// Everything the server daemon receives.
#[derive(Debug, Clone)]
pub enum ServerCmd {
    /// A client's observation or wait (commands come through the reactor).
    Client(ClientReq),
    /// A message from the mom of a node and its number on that mom's link
    /// to the server (a duplicated delivery carries its original's
    /// number).
    FromMom(NodeId, u64, MomToServer),
    /// A reactor client sent something: poll the command reactor. Pure
    /// nudge — commands travel on the reactor's own channel; spurious
    /// wakes poll an empty mailbox and move on.
    ReactorWake,
    /// Stop the ensemble.
    Shutdown,
}

/// What a mom tells the server.
#[derive(Debug, Clone)]
pub enum MomToServer {
    /// A TM call the mother superior forwards, spelled as the client
    /// command it is: a `tm_dynget()` as [`Command::DynGet`] (paper Fig 3
    /// step 2; at most one outstanding per job), a `tm_dynfree()` as
    /// [`Command::DynFree`] once the local *dyn_disjoin* completed.
    Tm(Command),
    /// The mom lost its state and restarted (a virtual-time fault); the
    /// server re-sends `RunJob` for every active job mothered there.
    Restarted,
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

/// Everything a mom daemon receives.
#[derive(Debug, Clone)]
pub enum MomMsg {
    /// A server command and its number on the server's link to the moms
    /// (a duplicated delivery carries its original's number).
    FromServer(u64, ServerToMom),
    /// A peer-mom message.
    Peer(PeerMsg),
    /// A TM call from an application process on this node: the calling
    /// job, its request and where the response goes.
    Tm(JobId, TmRequest, Sender<TmResponse>),
    /// A virtual-time fault: the mom "process" dies and restarts, losing
    /// every job entry (its link to the server survives). Every parked
    /// `tm_dynget` caller is denied, then the mom announces
    /// [`MomToServer::Restarted`].
    Crash,
}
