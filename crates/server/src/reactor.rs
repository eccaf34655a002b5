//! The multi-tenant command reactor — the server's client front-end.
//!
//! Thousands of concurrent clients submit commands (`qsub`, `qstat`,
//! `qdel`, `dynget`, `dynfree`) — as text lines ([`ReactorClient::send`])
//! or already parsed ([`ReactorClient::submit`]); the reactor multiplexes
//! them into the single-writer [`crate::PbsServer`] without giving up the
//! byte-identical determinism contract:
//!
//! * **Ticket-stamped admission.** Every command draws a ticket from a
//!   shared monotonic counter *at send time*, whichever way it came in,
//!   fixing its application position before any thread race can occur.
//!   The reactor holds out-of-order arrivals in a reorder buffer and
//!   applies only the contiguous ticket prefix, so the command order —
//!   and therefore every assigned job id, every scheduling decision, and
//!   the journal itself — is independent of client interleaving. The
//!   buffer is a deque in ticket order: an in-order arrival goes on the
//!   back and is admitted from the front, a late one is inserted by
//!   binary search, and it holds one entry per command, never room for
//!   the gap before a ticket far ahead.
//! * **Ack-on-append (group commit).** A command's reply is delivered
//!   only after the *whole batch* it was applied in has returned from the
//!   server — by which point every mutation's journal record has been
//!   appended ([`crate::PbsServer::execute`] logs before returning). An acked
//!   command therefore always survives crash recovery, and the acks of a
//!   batch amortise into one flush.
//! * **Backpressure without blocking.** Replies go out through bounded
//!   per-connection channels with `try_send`; a stalled reader's replies
//!   spill into a bounded overflow queue and, past the limit, the
//!   connection is dropped. The reactor — and the scheduler cycle it runs
//!   beside — **never blocks on a slow client**.
//!
//! The reactor is driver-agnostic: [`Reactor::poll_bounded`] (and
//! [`Reactor::poll_batch`], which adds the group-commit hook) hands each
//! parsed command to a closure — the daemon applies it to its
//! `PbsServer` between scheduler cycles, the equivalence harness to a
//! simulator, tests to a bare server. A malformed
//! command consumes its ticket and earns [`Reply::Denied`] — parse
//! failures are deterministic, so they too replay identically.
//!
//! The door's own cost per in-order command is constant: past the line's
//! copy, the mailbox and, for a `qstat`, the reply's string, a steady
//! batch allocates nothing (the reorder buffer and the batch's held acks
//! keep their buffers; `crates/bench/tests/door_allocs.rs` counts it
//! exactly), and a `qsub` line's fields are a short list searched in
//! place.

use crate::journal::Record;
use crate::server::Effect;
use dynbatch_cluster::Allocation;
use dynbatch_core::{
    ExecutionModel, GroupId, JobId, JobSpec, NodeId, SimDuration, SimTime, UserId,
};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// One parsed client command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Submit a job.
    QSub(Box<JobSpec>),
    /// Query a job's state.
    QStat(JobId),
    /// Cancel a job.
    QDel(JobId),
    /// A dynamic allocation request (negotiated when a timeout is given).
    DynGet {
        /// The evolving job.
        job: JobId,
        /// Cores requested.
        extra: u32,
        /// Negotiation window, milliseconds from command application; the
        /// deadline is `now + timeout_ms`.
        timeout_ms: Option<u64>,
    },
    /// A dynamic release.
    DynFree {
        /// The releasing job.
        job: JobId,
        /// The released hosts.
        released: Allocation,
    },
}

/// The reply a command earns. Delivery order per connection is FIFO.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `qsub` accepted; the assigned id.
    Submitted(JobId),
    /// The command took effect (qdel, dynget queued/granted, dynfree).
    Ok,
    /// `qstat` answer: the job's current state.
    Status(String),
    /// Dead: no door produces it — every `qstat` is answered by the
    /// leader as [`Reply::Status`]. It stays only because the frozen
    /// benchmark harness's reply match names it (`benchmark/src/client.rs`);
    /// once that arm is dropped the variant goes.
    StatusAt {
        /// The job's state, as [`Reply::Status`] would report it.
        state: String,
        /// An applied-record watermark.
        watermark: u64,
    },
    /// The command was refused — malformed, unknown job, out of order.
    /// Never a panic: denial is the contract for bad input.
    Denied(String),
}

/// One step of a [`Reactor::poll_batch`] drive.
pub enum BatchEvent<'a> {
    /// Apply this command and return `Some(reply)`.
    Apply {
        /// The command's application position.
        ticket: u64,
        /// The parsed command.
        cmd: &'a Command,
    },
    /// The group-commit batch has fully applied and its held acks are
    /// about to flush. Return `None`. Not fired for empty batches.
    Commit,
}

/// What travels from clients to the reactor.
enum Envelope {
    /// A new connection and its bounded reply channel.
    Connect {
        conn: u64,
        replies: SyncSender<Reply>,
    },
    /// One command, position fixed by `ticket`.
    Command { conn: u64, ticket: u64, body: Body },
    /// The client hung up; buffered commands still apply (their tickets
    /// must stay contiguous), but replies are discarded.
    Disconnect { conn: u64 },
}

/// A command as it travels: a line the reactor has yet to parse, or one a
/// typed client built itself (boxed, so an envelope is no larger than a
/// line's). Everything past the parse stage is the same for both.
enum Body {
    Line(String),
    Parsed(Box<Command>),
}

/// Reactor-side per-connection state.
struct Conn {
    replies: SyncSender<Reply>,
    /// Replies that did not fit the bounded channel, oldest first.
    overflow: VecDeque<Reply>,
    /// Set when the peer vanished or overflowed past the limit; further
    /// replies are discarded.
    dropped: bool,
}

/// Counters exposed for tests and the perf harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Commands applied (including parse denials, which consume tickets).
    pub applied: u64,
    /// Commands denied at the parse stage.
    pub denied_parse: u64,
    /// Non-empty poll batches.
    pub batches: u64,
    /// Connections dropped for overflowing the backpressure limit.
    pub dropped_slow: u64,
}

/// The poll-based command reactor. Single-threaded by design: it runs on
/// the server daemon's thread, between scheduler cycles, and is the only
/// caller into the single-writer server.
pub struct Reactor {
    rx: Receiver<Envelope>,
    tx: Sender<Envelope>,
    /// Shared ticket counter: every client stamps commands from it.
    tickets: Arc<AtomicU64>,
    conn_ids: Arc<AtomicU64>,
    /// Wake hook armed once; clients invoke it after every send so a
    /// hosting event loop can interrupt its blocking receive.
    wake: Arc<OnceLock<Box<dyn Fn() + Send + Sync>>>,
    /// Reorder buffer: `(ticket, conn, command)` in ticket order, one
    /// entry per ticket. Its first `stale` entries hold tickets below
    /// `next_apply`, which are never applied; the entry after them is
    /// admissible when it holds `next_apply`.
    pending: VecDeque<(u64, u64, Body)>,
    stale: usize,
    next_apply: u64,
    /// The acks of the batch being applied, kept between polls for its
    /// buffer.
    held: Vec<(u64, Reply)>,
    conns: HashMap<u64, Conn>,
    reply_capacity: usize,
    overflow_limit: usize,
    stats: ReactorStats,
}

impl Default for Reactor {
    fn default() -> Self {
        Self::new()
    }
}

impl Reactor {
    /// A reactor with group-commit acks, a 64-reply channel per
    /// connection and a 1024-reply overflow limit.
    pub fn new() -> Self {
        let (tx, rx) = channel();
        Reactor {
            rx,
            tx,
            tickets: Arc::new(AtomicU64::new(0)),
            conn_ids: Arc::new(AtomicU64::new(0)),
            wake: Arc::new(OnceLock::new()),
            pending: VecDeque::new(),
            stale: 0,
            next_apply: 0,
            held: Vec::new(),
            conns: HashMap::new(),
            reply_capacity: 64,
            overflow_limit: 1024,
            stats: ReactorStats::default(),
        }
    }

    /// Shrinks the per-connection bounded reply channel (tests exercise
    /// backpressure with tiny capacities). Applies to future connections.
    pub fn set_reply_capacity(&mut self, capacity: usize) {
        self.reply_capacity = capacity.max(1);
    }

    /// Caps the per-connection overflow queue; a connection exceeding it
    /// is dropped (slow-reader policy).
    pub fn set_overflow_limit(&mut self, limit: usize) {
        self.overflow_limit = limit;
    }

    /// Arms the wake hook clients invoke after each send. One-shot: the
    /// hosting loop installs it before serving traffic.
    pub fn set_wake(&self, hook: impl Fn() + Send + Sync + 'static) {
        let _ = self.wake.set(Box::new(hook));
    }

    /// Opens a client connection. Cheap and thread-safe; the handle is
    /// `Send`, so one reactor serves any number of client threads.
    pub fn connect(&self) -> ReactorClient {
        self.connector().connect()
    }

    /// A detachable, cloneable connection factory: a hosting daemon keeps
    /// the connector on the client side while the reactor itself lives on
    /// the server thread.
    pub fn connector(&self) -> ReactorConnector {
        ReactorConnector {
            tx: self.tx.clone(),
            tickets: Arc::clone(&self.tickets),
            conn_ids: Arc::clone(&self.conn_ids),
            wake: Arc::clone(&self.wake),
            reply_capacity: self.reply_capacity,
        }
    }

    /// Drains the mailbox and applies every admissible command below
    /// `limit` (`u64::MAX`: all of them): the contiguous ticket prefix, in
    /// ticket order. `apply` receives `(ticket, command)` and returns the
    /// reply; parse failures never reach it (they deny deterministically
    /// and consume the ticket). Returns the number of commands consumed.
    /// The equivalence harness bounds it to advance the world between
    /// command prefixes while all commands race in flight from real
    /// client threads.
    pub fn poll_bounded<F>(&mut self, limit: u64, mut apply: F) -> usize
    where
        F: FnMut(u64, &Command) -> Reply,
    {
        self.poll_batch(limit, |ev| match ev {
            BatchEvent::Apply { ticket, cmd } => Some(apply(ticket, cmd)),
            BatchEvent::Commit => None,
        })
    }

    /// The full-control drive: like [`Reactor::poll_bounded`], but the
    /// closure also sees a [`BatchEvent::Commit`] event fired after the
    /// whole group-commit batch has applied but *before* its held acks
    /// flush — the hook where a replicating host blocks until the batch's
    /// journal records are on every live follower, making every ack
    /// replication-safe, not just crash-safe.
    pub fn poll_batch<F>(&mut self, limit: u64, mut f: F) -> usize
    where
        F: FnMut(BatchEvent<'_>) -> Option<Reply>,
    {
        self.drain_mailbox();
        let mut held = std::mem::take(&mut self.held);
        while self.next_apply < limit
            && self
                .pending
                .get(self.stale)
                .is_some_and(|h| h.0 == self.next_apply)
        {
            let (ticket, conn, body) = self.pending.remove(self.stale).expect("checked above");
            let parsed = match body {
                Body::Line(line) => parse_command(&line),
                Body::Parsed(cmd) => Ok(*cmd),
            };
            let reply = match parsed {
                Ok(cmd) => f(BatchEvent::Apply { ticket, cmd: &cmd })
                    .unwrap_or_else(|| Reply::Denied("apply produced no reply".into())),
                Err(e) => {
                    self.stats.denied_parse += 1;
                    Reply::Denied(e)
                }
            };
            self.next_apply += 1;
            held.push((conn, reply));
        }
        let n = held.len();
        // Group-commit flush: `apply` has returned for the whole batch,
        // so every mutation's journal record is appended — each ack below
        // is crash-safe by construction. The Commit event runs first, so
        // a replicating host can additionally gate the flush on follower
        // acknowledgement.
        if !held.is_empty() {
            let _ = f(BatchEvent::Commit);
        }
        for (conn, reply) in held.drain(..) {
            self.deliver(conn, reply);
        }
        self.held = held;
        if n > 0 {
            self.stats.batches += 1;
            self.stats.applied += n as u64;
        }
        n
    }

    /// Moves every queued envelope into the reorder buffer / conn table.
    fn drain_mailbox(&mut self) {
        while let Ok(env) = self.rx.try_recv() {
            match env {
                Envelope::Connect { conn, replies } => {
                    self.conns.insert(
                        conn,
                        Conn {
                            replies,
                            overflow: VecDeque::new(),
                            dropped: false,
                        },
                    );
                }
                Envelope::Command { conn, ticket, body } => self.hold(ticket, conn, body),
                Envelope::Disconnect { conn } => {
                    self.conns.remove(&conn);
                }
            }
        }
    }

    /// Puts a command in the reorder buffer at its ticket's place: at the
    /// back when it arrives in order, by binary search when it is late. A
    /// second body under a held ticket replaces the first.
    fn hold(&mut self, ticket: u64, conn: u64, body: Body) {
        let held = (ticket, conn, body);
        if self.pending.back().is_none_or(|h| h.0 < ticket) {
            self.pending.push_back(held);
        } else {
            match self.pending.binary_search_by_key(&ticket, |h| h.0) {
                Ok(i) => {
                    self.pending[i] = held;
                    return;
                }
                Err(i) => self.pending.insert(i, held),
            }
        }
        if ticket < self.next_apply {
            self.stale += 1;
        }
    }

    /// Non-blocking reply delivery: bounded channel first, then the
    /// overflow queue, then — past the limit — the connection is dropped.
    fn deliver(&mut self, conn_id: u64, reply: Reply) {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return; // disconnected: reply discarded, command still applied
        };
        if conn.dropped {
            return;
        }
        // FIFO: spilled replies go out before this one.
        while let Some(front) = conn.overflow.front() {
            match conn.replies.try_send(front.clone()) {
                Ok(()) => {
                    conn.overflow.pop_front();
                }
                Err(TrySendError::Full(_)) => break,
                Err(TrySendError::Disconnected(_)) => {
                    conn.dropped = true;
                    conn.overflow.clear();
                    return;
                }
            }
        }
        let reply = if conn.overflow.is_empty() {
            match conn.replies.try_send(reply) {
                Ok(()) => return,
                Err(TrySendError::Full(r)) => r,
                Err(TrySendError::Disconnected(_)) => {
                    conn.dropped = true;
                    return;
                }
            }
        } else {
            reply
        };
        conn.overflow.push_back(reply);
        if conn.overflow.len() > self.overflow_limit {
            conn.dropped = true;
            conn.overflow.clear();
            self.stats.dropped_slow += 1;
        }
    }

    /// Commands received but not yet admissible (waiting on a ticket gap
    /// or a [`Reactor::poll_bounded`] limit), plus any sent under a ticket
    /// already passed, which never apply. Excludes the mailbox.
    pub fn reorder_backlog(&self) -> usize {
        self.pending.len()
    }

    /// The next ticket the reactor will apply.
    pub fn next_apply(&self) -> u64 {
        self.next_apply
    }

    /// Counters.
    pub fn stats(&self) -> ReactorStats {
        self.stats
    }
}

/// A cloneable connection factory for a [`Reactor`] owned by another
/// thread (see [`Reactor::connector`]).
#[derive(Clone)]
pub struct ReactorConnector {
    tx: Sender<Envelope>,
    tickets: Arc<AtomicU64>,
    conn_ids: Arc<AtomicU64>,
    wake: Arc<OnceLock<Box<dyn Fn() + Send + Sync>>>,
    reply_capacity: usize,
}

impl ReactorConnector {
    /// Opens a client connection (see [`Reactor::connect`]).
    pub fn connect(&self) -> ReactorClient {
        let conn = self.conn_ids.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = sync_channel(self.reply_capacity);
        // No wake: the reactor reads the mailbox in order, so the first
        // command's wake brings this in ahead of it.
        let _ = self.tx.send(Envelope::Connect {
            conn,
            replies: reply_tx,
        });
        ReactorClient {
            conn,
            tx: self.tx.clone(),
            tickets: Arc::clone(&self.tickets),
            wake: Arc::clone(&self.wake),
            replies: reply_rx,
        }
    }
}

/// A client handle: `Send`, cheap to clone state from, usable from any
/// thread. Dropping it hangs up: commands already sent still apply (their
/// tickets must stay contiguous), their replies are discarded, and the
/// reactor forgets the connection at its next poll.
pub struct ReactorClient {
    conn: u64,
    tx: Sender<Envelope>,
    tickets: Arc<AtomicU64>,
    wake: Arc<OnceLock<Box<dyn Fn() + Send + Sync>>>,
    replies: Receiver<Reply>,
}

impl ReactorClient {
    /// Sends one command line; returns the ticket that fixes its
    /// application position. Never blocks.
    pub fn send(&self, line: &str) -> u64 {
        let ticket = self.tickets.fetch_add(1, Ordering::Relaxed);
        self.send_ticketed(ticket, line);
        ticket
    }

    /// Sends a command the caller already holds in parsed form — the way
    /// in for a [`JobSpec`] the line grammar cannot spell (a moldable
    /// range, a malleable work pool, a priority boost). Same ticket
    /// counter, ordering, group commit and reply path as
    /// [`ReactorClient::send`]; only the parse is skipped. The parser's
    /// spec validation is not lost with it: [`crate::PbsServer::execute`]
    /// validates every submitted spec again and a refusal still earns
    /// [`Reply::Denied`].
    pub fn submit(&self, cmd: Command) -> u64 {
        let ticket = self.tickets.fetch_add(1, Ordering::Relaxed);
        self.post(ticket, Body::Parsed(Box::new(cmd)));
        ticket
    }

    /// Sends a command under a **caller-assigned** ticket. For harnesses
    /// that pre-assign the global order (e.g. ticket = index in a replay
    /// stream); do not mix with [`ReactorClient::send`] unless the caller
    /// guarantees the combined ticket space stays contiguous.
    pub fn send_ticketed(&self, ticket: u64, line: &str) {
        self.post(ticket, Body::Line(line.to_owned()));
    }

    fn post(&self, ticket: u64, body: Body) {
        let _ = self.tx.send(Envelope::Command {
            conn: self.conn,
            ticket,
            body,
        });
        if let Some(w) = self.wake.get() {
            w();
        }
    }

    /// Blocking receive of the next reply (`None`: reactor gone).
    pub fn recv(&self) -> Option<Reply> {
        self.replies.recv().ok()
    }

    /// Receive with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Reply> {
        self.replies.recv_timeout(timeout).ok()
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Reply> {
        self.replies.try_recv().ok()
    }

    /// Hangs up — dropping the handle, spelled out.
    pub fn disconnect(self) {}
}

impl Drop for ReactorClient {
    fn drop(&mut self) {
        // No wake: nothing waits on a hang-up, the next poll reads it.
        let _ = self.tx.send(Envelope::Disconnect { conn: self.conn });
    }
}

// ---------------------------------------------------------------------------
// Command grammar.

/// Parses one command line. The grammar (whitespace-separated):
///
/// ```text
/// qsub name=<s> user=<u32> group=<u32> cores=<u32> wall_ms=<u64>
/// qsub name=<s> user=<u32> group=<u32> cores=<u32> class=evolving
///      set_s=<u64> det_s=<u64> extra=<u32> [timeout_ms=<u64>]
/// qstat <job>
/// qdel <job>
/// dynget <job> <extra> [timeout_ms]
/// dynfree <job> <node>:<cores>[,<node>:<cores>…]
/// ```
///
/// Errors are strings destined for [`Reply::Denied`]; parsing is pure, so
/// a malformed line denies identically on every replay. Input the grammar
/// does not read — a trailing token, a field the job's class has no use
/// for — is denied too, naming it, rather than dropped; that check runs
/// after the known parts parsed, so a line they deny keeps its message.
pub fn parse_command(line: &str) -> Result<Command, String> {
    let mut it = line.split_whitespace();
    let verb = it.next().ok_or_else(|| "empty command".to_owned())?;
    let parse_job = |tok: Option<&str>| -> Result<JobId, String> {
        tok.ok_or_else(|| format!("{verb}: missing job id"))?
            .parse::<u64>()
            .map(JobId)
            .map_err(|_| format!("{verb}: job id is not an integer"))
    };
    let no_more = |rest: &mut std::str::SplitWhitespace<'_>| match rest.next() {
        None => Ok(()),
        Some(tok) => Err(format!("{verb}: unexpected `{tok}`")),
    };
    match verb {
        "qsub" => {
            let mut fields = QsubFields(Vec::with_capacity(QsubFields::MOST_READ));
            for tok in it {
                let (k, v) = tok
                    .split_once('=')
                    .ok_or_else(|| format!("qsub: `{tok}` is not key=value"))?;
                if fields.has(k) {
                    return Err(format!("qsub: duplicate field `{k}`"));
                }
                fields.0.push((k, v));
            }
            let name = fields.req("name")?;
            let user = UserId(fields.num32("user")?);
            let group = GroupId(fields.num32("group")?);
            let cores = fields.num32("cores")?;
            let spec = match fields.take("class") {
                None | Some("rigid") => JobSpec::rigid(
                    name,
                    user,
                    group,
                    cores,
                    SimDuration::from_millis(fields.num("wall_ms")?),
                ),
                Some("evolving") => {
                    let model = ExecutionModel::esp_evolving(
                        fields.num("set_s")?,
                        fields.num("det_s")?,
                        fields.num32("extra")?,
                    );
                    let mut spec = JobSpec::evolving(name, user, group, cores, model);
                    if fields.has("timeout_ms") {
                        spec.dyn_timeout =
                            Some(SimDuration::from_millis(fields.num("timeout_ms")?));
                    }
                    spec
                }
                Some(other) => return Err(format!("qsub: unknown class `{other}`")),
            };
            spec.validate().map_err(|e| format!("qsub: {e}"))?;
            if let Some(k) = fields.0.iter().map(|&(k, _)| k).min() {
                return Err(format!("qsub: unexpected field `{k}`"));
            }
            Ok(Command::QSub(Box::new(spec)))
        }
        "qstat" => {
            let job = parse_job(it.next())?;
            no_more(&mut it)?;
            Ok(Command::QStat(job))
        }
        "qdel" => {
            let job = parse_job(it.next())?;
            no_more(&mut it)?;
            Ok(Command::QDel(job))
        }
        "dynget" => {
            let job = parse_job(it.next())?;
            let extra = it
                .next()
                .ok_or("dynget: missing core count")?
                .parse::<u32>()
                .map_err(|_| "dynget: core count is not a u32".to_owned())?;
            let timeout_ms = match it.next() {
                None => None,
                Some(tok) => Some(
                    tok.parse::<u64>()
                        .map_err(|_| "dynget: timeout is not an integer".to_owned())?,
                ),
            };
            no_more(&mut it)?;
            Ok(Command::DynGet {
                job,
                extra,
                timeout_ms,
            })
        }
        "dynfree" => {
            let job = parse_job(it.next())?;
            let mut released = Allocation::empty();
            for pair in it.next().ok_or("dynfree: missing hostlist")?.split(',') {
                let (node, cores) = pair
                    .split_once(':')
                    .ok_or_else(|| format!("dynfree: `{pair}` is not node:cores"))?;
                let node = node
                    .parse::<u32>()
                    .map_err(|_| "dynfree: node is not a u32".to_owned())?;
                let cores = cores
                    .parse::<u32>()
                    .map_err(|_| "dynfree: cores is not a u32".to_owned())?;
                if cores == 0 {
                    return Err("dynfree: zero-core entry".into());
                }
                released.add(NodeId(node), cores);
            }
            no_more(&mut it)?;
            Ok(Command::DynFree { job, released })
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// A `qsub` line's `key=value` fields, in line order. A field is taken
/// out as it is read: any left over is one the grammar does not read.
struct QsubFields<'a>(Vec<(&'a str, &'a str)>);

impl<'a> QsubFields<'a> {
    /// The most fields a line the grammar accepts has (an evolving job
    /// with a timeout).
    const MOST_READ: usize = 9;

    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|&(k, _)| k == key)
    }

    fn take(&mut self, key: &str) -> Option<&'a str> {
        let i = self.0.iter().position(|&(k, _)| k == key)?;
        Some(self.0.remove(i).1)
    }

    fn req(&mut self, key: &str) -> Result<&'a str, String> {
        self.take(key)
            .ok_or_else(|| format!("qsub: missing `{key}`"))
    }

    fn num(&mut self, key: &str) -> Result<u64, String> {
        self.req(key)?
            .parse::<u64>()
            .map_err(|_| format!("qsub: `{key}` is not an integer"))
    }

    fn num32(&mut self, key: &str) -> Result<u32, String> {
        u32::try_from(self.num(key)?).map_err(|_| format!("qsub: `{key}` exceeds u32"))
    }
}

/// Formats a `qsub` line for [`parse_command`] — the generator side of
/// the grammar, used by the SWF replay driver and tests.
pub fn format_qsub(spec: &JobSpec) -> String {
    use dynbatch_core::JobClass;
    let base = format!(
        "qsub name={} user={} group={} cores={}",
        spec.name, spec.user.0, spec.group.0, spec.cores
    );
    match spec.class {
        JobClass::Evolving => {
            let (set_s, det_s) = match spec.exec {
                ExecutionModel::Evolving { set, det, .. } => (set.as_secs(), det.as_secs()),
                _ => (spec.walltime.as_secs(), 0),
            };
            let mut line = format!(
                "{base} class=evolving set_s={set_s} det_s={det_s} extra={}",
                spec.exec.extra_cores()
            );
            if let Some(t) = spec.dyn_timeout {
                line.push_str(&format!(" timeout_ms={}", t.as_millis()));
            }
            line
        }
        _ => format!("{base} wall_ms={}", spec.walltime.as_millis()),
    }
}

/// Applies one parsed command to a bare [`crate::PbsServer`] — the serial
/// reference semantics: the daemon calls it behind every door (adding its
/// timer/mom side effects) and the equivalence harness uses it directly.
/// A `qstat` is a read; every other command is the journal record it
/// becomes at `now`, handed to [`crate::PbsServer::execute`], which has
/// appended the record by the time this returns — what makes the
/// reactor's ack-on-append contract hold.
pub fn apply_to_server(server: &mut crate::PbsServer, cmd: &Command, now: SimTime) -> Reply {
    let record = match cmd {
        Command::QStat(job) => {
            return match server.job(*job) {
                Ok(j) => Reply::Status(j.state.as_str().to_owned()),
                Err(e) => Reply::Denied(e.to_string()),
            }
        }
        Command::QSub(spec) => Record::Submit {
            spec: (**spec).clone(),
            now,
        },
        Command::QDel(job) => Record::Qdel { job: *job, now },
        Command::DynGet {
            job,
            extra,
            timeout_ms,
        } => Record::DynGet {
            job: *job,
            extra_cores: *extra,
            deadline: timeout_ms.map(|w| now + SimDuration::from_millis(w)),
            now,
        },
        Command::DynFree { job, released } => Record::DynFree {
            job: *job,
            released: released.clone(),
            now,
        },
    };
    match server.execute(record) {
        Ok(Effect::Submitted(id)) => Reply::Submitted(id),
        Ok(_) => Reply::Ok,
        Err(e) => Reply::Denied(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PbsServer;
    use dynbatch_cluster::Cluster;
    use dynbatch_core::AllocPolicy;
    use std::thread;

    fn echo_reply(ticket: u64, _cmd: &Command) -> Reply {
        Reply::Status(format!("t{ticket}"))
    }

    #[test]
    fn tickets_fix_order_regardless_of_arrival() {
        let mut r = Reactor::new();
        let a = r.connect();
        let b = r.connect();
        // b's command is sent under a later ticket but delivered first on
        // its own channel — the reactor must still apply a's first.
        let tb = 1u64;
        let ta = 0u64;
        b.send_ticketed(tb, "qstat 2");
        a.send_ticketed(ta, "qstat 1");
        let mut order = Vec::new();
        r.poll_bounded(u64::MAX, |ticket, cmd| {
            order.push((ticket, cmd.clone()));
            Reply::Ok
        });
        assert_eq!(
            order,
            vec![(0, Command::QStat(JobId(1))), (1, Command::QStat(JobId(2)))]
        );
    }

    #[test]
    fn contiguous_prefix_only() {
        let mut r = Reactor::new();
        let c = r.connect();
        c.send_ticketed(1, "qstat 2"); // gap: ticket 0 missing
        assert_eq!(r.poll_bounded(u64::MAX, echo_reply), 0);
        assert_eq!(r.reorder_backlog(), 1);
        c.send_ticketed(0, "qstat 1");
        assert_eq!(r.poll_bounded(u64::MAX, echo_reply), 2);
        assert_eq!(r.reorder_backlog(), 0);
        assert_eq!(c.try_recv(), Some(Reply::Status("t0".into())));
        assert_eq!(c.try_recv(), Some(Reply::Status("t1".into())));
    }

    #[test]
    fn poll_bounded_holds_later_tickets() {
        let mut r = Reactor::new();
        let c = r.connect();
        for i in 0..4 {
            c.send(&format!("qstat {i}"));
        }
        assert_eq!(r.poll_bounded(2, echo_reply), 2);
        assert_eq!(r.reorder_backlog(), 2);
        assert_eq!(r.poll_bounded(u64::MAX, echo_reply), 2);
    }

    #[test]
    fn group_commit_acks_arrive_after_the_batch() {
        let mut r = Reactor::new();
        let c = r.connect();
        c.send("qstat 1");
        c.send("qstat 2");
        let mut seen_during_batch = Vec::new();
        r.poll_bounded(u64::MAX, |t, _| {
            // During the batch no reply may have been delivered yet.
            seen_during_batch.push(c.try_recv());
            Reply::Status(format!("t{t}"))
        });
        assert_eq!(seen_during_batch, vec![None, None]);
        assert_eq!(c.try_recv(), Some(Reply::Status("t0".into())));
        assert_eq!(c.try_recv(), Some(Reply::Status("t1".into())));
    }

    #[test]
    fn malformed_commands_deny_and_consume_their_ticket() {
        let mut r = Reactor::new();
        let c = r.connect();
        c.send("frobnicate 1");
        c.send("qsub name=X cores=banana");
        c.send("dynget 5");
        c.send("qstat 1"); // must still apply after the denials
        let mut applied = 0;
        r.poll_bounded(u64::MAX, |_, _| {
            applied += 1;
            Reply::Ok
        });
        assert_eq!(applied, 1, "only the well-formed command reaches apply");
        assert_eq!(r.stats().denied_parse, 3);
        assert_eq!(r.next_apply(), 4, "denials consume tickets");
        for _ in 0..3 {
            assert!(matches!(c.try_recv(), Some(Reply::Denied(_))));
        }
        assert_eq!(c.try_recv(), Some(Reply::Ok));
    }

    #[test]
    fn slow_reader_overflows_then_drops_without_blocking() {
        let mut r = Reactor::new();
        r.set_reply_capacity(2);
        r.set_overflow_limit(3);
        let c = r.connect();
        let fast = r.connect();
        // 10 replies at capacity 2 + overflow 3: must drop the conn, and
        // the poll must return (never block on the stalled reader).
        for i in 0..10 {
            c.send(&format!("qstat {i}"));
        }
        fast.send("qstat 99");
        r.poll_bounded(u64::MAX, echo_reply);
        assert_eq!(r.stats().dropped_slow, 1);
        // The fast client is unaffected.
        assert_eq!(fast.try_recv(), Some(Reply::Status("t10".into())));
        // The slow client still gets what fit before the drop.
        assert!(c.try_recv().is_some());
    }

    #[test]
    fn disconnect_discards_replies_but_applies_commands() {
        let mut r = Reactor::new();
        let c = r.connect();
        c.send("qstat 1");
        drop(c);
        let mut applied = 0;
        r.poll_bounded(u64::MAX, |_, _| {
            applied += 1;
            Reply::Ok
        });
        assert_eq!(applied, 1);
    }

    /// Two bodies under one ticket: the later one is the command, and only
    /// its sender is answered.
    #[test]
    fn a_duplicate_ticket_keeps_the_later_body() {
        let mut r = Reactor::new();
        let a = r.connect();
        let b = r.connect();
        a.send_ticketed(1, "qstat 1");
        b.send_ticketed(1, "qstat 2");
        a.send_ticketed(0, "qstat 0");
        let mut order = Vec::new();
        let n = r.poll_bounded(u64::MAX, |ticket, cmd| {
            order.push((ticket, cmd.clone()));
            Reply::Ok
        });
        assert_eq!(n, 2);
        assert_eq!(
            order,
            vec![(0, Command::QStat(JobId(0))), (1, Command::QStat(JobId(2)))]
        );
        assert_eq!(r.reorder_backlog(), 0);
        assert_eq!((a.try_recv(), a.try_recv()), (Some(Reply::Ok), None));
        assert_eq!((b.try_recv(), b.try_recv()), (Some(Reply::Ok), None));
    }

    /// A caller-assigned ticket the reactor has already passed is held but
    /// never applied, and it does not stop the tickets after it.
    #[test]
    fn a_ticket_below_the_prefix_is_held_and_never_applied() {
        let mut r = Reactor::new();
        let c = r.connect();
        c.send_ticketed(0, "qstat 0");
        c.send_ticketed(1, "qstat 1");
        assert_eq!(r.poll_bounded(u64::MAX, echo_reply), 2);
        c.send_ticketed(0, "qstat 99");
        c.send_ticketed(0, "qstat 98"); // the same stale ticket again
        c.send_ticketed(1, "qstat 97");
        assert_eq!(r.poll_bounded(u64::MAX, echo_reply), 0);
        assert_eq!(r.reorder_backlog(), 2);
        c.send_ticketed(3, "qstat 3");
        c.send_ticketed(2, "qstat 2");
        let mut applied = Vec::new();
        r.poll_bounded(u64::MAX, |ticket, cmd| {
            applied.push((ticket, cmd.clone()));
            Reply::Ok
        });
        assert_eq!(
            applied,
            vec![(2, Command::QStat(JobId(2))), (3, Command::QStat(JobId(3)))]
        );
        assert_eq!((r.next_apply(), r.reorder_backlog()), (4, 2));
        assert_eq!(r.stats().applied, 4);
    }

    /// A ticket far beyond the prefix is one held command, not a gap's
    /// worth of room; the prefix before it applies as usual.
    #[test]
    fn a_ticket_far_ahead_is_held_without_the_gap() {
        let mut r = Reactor::new();
        let c = r.connect();
        let far = 1u64 << 40;
        c.send_ticketed(far, "qstat 7");
        assert_eq!(r.poll_bounded(u64::MAX, echo_reply), 0);
        assert_eq!(r.reorder_backlog(), 1);
        for t in 0..3 {
            c.send_ticketed(t, &format!("qstat {t}"));
        }
        assert_eq!(r.poll_bounded(u64::MAX, echo_reply), 3);
        assert_eq!((r.next_apply(), r.reorder_backlog()), (3, 1));
        for t in 0..3 {
            assert_eq!(c.try_recv(), Some(Reply::Status(format!("t{t}"))));
        }
        assert_eq!(c.try_recv(), None);
    }

    /// `reactor_drive`'s shape: four threads send round-robin tickets while
    /// the host admits one ticket at a time; every ticket applies once, in
    /// order, and each thread reads its own replies in the order it sent.
    #[test]
    fn four_round_robin_senders_apply_in_ticket_order() {
        const THREADS: u64 = 4;
        const N: u64 = 2_000;
        let mut r = Reactor::new();
        r.set_reply_capacity(N as usize + 1);
        let clients: Vec<ReactorClient> = (0..THREADS).map(|_| r.connect()).collect();
        let mut applied = Vec::with_capacity(N as usize);
        thread::scope(|scope| {
            let handles: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || {
                        let mine: Vec<u64> = (0..N).filter(|t| t % THREADS == c as u64).collect();
                        for &t in &mine {
                            client.send_ticketed(t, &format!("qstat {t}"));
                        }
                        for &t in &mine {
                            assert_eq!(client.recv(), Some(Reply::Status(format!("t{t}"))));
                        }
                    })
                })
                .collect();
            for i in 0..N {
                while r.next_apply() <= i {
                    let polled = r.poll_bounded(i + 1, |ticket, cmd| {
                        assert_eq!(cmd, &Command::QStat(JobId(ticket)));
                        applied.push(ticket);
                        echo_reply(ticket, cmd)
                    });
                    if polled == 0 {
                        thread::yield_now();
                    }
                }
            }
            for h in handles {
                h.join().expect("client thread");
            }
        });
        assert_eq!(applied, (0..N).collect::<Vec<_>>());
        assert_eq!(r.stats().applied, N);
        assert_eq!(r.reorder_backlog(), 0);
    }

    /// Specs `format_qsub` has no words for: a moldable range, a malleable
    /// work pool, a priority boost.
    fn specs_beyond_the_grammar() -> Vec<JobSpec> {
        vec![
            JobSpec::moldable("MOLD", UserId(1), GroupId(0), 8, 4, 16, 9_600),
            JobSpec::malleable("MALL", UserId(2), GroupId(1), 8, 2, 24, 4_800),
            JobSpec::rigid("Z", UserId(3), GroupId(0), 16, SimDuration::from_secs(90))
                .with_priority_boost(1_000_000),
        ]
    }

    #[test]
    fn submitted_and_sent_commands_share_ticket_order_batch_and_reply_path() {
        const PER_THREAD: u64 = 50;
        let mut r = Reactor::new();
        let clients: Vec<ReactorClient> = (0..4).map(|_| r.connect()).collect();
        let start = std::sync::Barrier::new(clients.len());
        // Each client keeps the tickets it drew, in the order it drew them.
        let drawn: Vec<(ReactorClient, Vec<u64>)> = thread::scope(|scope| {
            let handles: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(t, c)| {
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        let tickets = (0..PER_THREAD)
                            .map(|i| {
                                // Two typed clients, two line clients; every
                                // command names its sender and sequence.
                                let job = JobId(t as u64 * 1_000 + i);
                                if t % 2 == 0 {
                                    c.submit(Command::QStat(job))
                                } else {
                                    c.send(&format!("qstat {}", job.0))
                                }
                            })
                            .collect();
                        (c, tickets)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut applied = Vec::new();
        let mut commits = 0;
        let n = r.poll_batch(u64::MAX, |ev| match ev {
            BatchEvent::Apply { ticket, cmd } => {
                let Command::QStat(job) = cmd else {
                    panic!("{cmd:?}");
                };
                applied.push(ticket);
                Some(Reply::Status(format!("{ticket}:{}", job.0)))
            }
            BatchEvent::Commit => {
                commits += 1;
                None
            }
        });
        assert_eq!(n as u64, 4 * PER_THREAD);
        assert_eq!(applied, (0..4 * PER_THREAD).collect::<Vec<_>>());
        assert_eq!((commits, r.stats().batches), (1, 1));
        assert_eq!(r.stats().denied_parse, 0);
        // Per connection: one reply per command, in the order sent, each
        // for the command that drew that ticket.
        for (t, (c, tickets)) in drawn.iter().enumerate() {
            for (i, ticket) in tickets.iter().enumerate() {
                let want = format!("{ticket}:{}", t * 1_000 + i);
                assert_eq!(c.try_recv(), Some(Reply::Status(want)));
            }
            assert_eq!(c.try_recv(), None);
        }
    }

    #[test]
    fn a_submitted_spec_the_grammar_cannot_spell_arrives_whole() {
        let mut r = Reactor::new();
        let c = r.connect();
        let specs = specs_beyond_the_grammar();
        for spec in &specs {
            // The line form loses what makes the spec what it is.
            assert_ne!(
                parse_command(&format_qsub(spec)),
                Ok(Command::QSub(Box::new(spec.clone())))
            );
            c.submit(Command::QSub(Box::new(spec.clone())));
        }
        let mut s = PbsServer::new(Cluster::homogeneous(15, 8), AllocPolicy::Pack);
        let mut seen = Vec::new();
        r.poll_bounded(u64::MAX, |_, cmd| {
            seen.push(cmd.clone());
            apply_to_server(&mut s, cmd, SimTime::ZERO)
        });
        for (i, spec) in specs.iter().enumerate() {
            assert_eq!(seen[i], Command::QSub(Box::new(spec.clone())));
            let Some(Reply::Submitted(id)) = c.try_recv() else {
                panic!("spec {i} was not admitted");
            };
            assert_eq!(&s.job(id).unwrap().spec, spec);
        }
    }

    #[test]
    fn a_submitted_command_is_denied_by_the_server_not_the_parser() {
        let mut r = Reactor::new();
        let c = r.connect();
        let mut zero_cores = JobSpec::rigid("bad", UserId(0), GroupId(0), 4, SimDuration::ZERO);
        zero_cores.cores = 0;
        c.submit(Command::QSub(Box::new(zero_cores)));
        c.submit(Command::QDel(JobId(404)));
        c.send("qdel banana");
        let mut s = PbsServer::new(Cluster::homogeneous(15, 8), AllocPolicy::Pack);
        let mut reached_apply = 0;
        r.poll_bounded(u64::MAX, |_, cmd| {
            reached_apply += 1;
            apply_to_server(&mut s, cmd, SimTime::ZERO)
        });
        assert_eq!(reached_apply, 2, "both submitted commands reach the server");
        assert_eq!(r.stats().denied_parse, 1, "only the line can fail to parse");
        for _ in 0..3 {
            assert!(matches!(c.try_recv(), Some(Reply::Denied(_))));
        }
    }

    /// A client that is dropped is forgotten: the reactor's connection
    /// table holds what is connected, not everyone who ever was.
    #[test]
    fn dropped_clients_do_not_accumulate() {
        let mut r = Reactor::new();
        let keeper = r.connect();
        for i in 0..10_000u64 {
            let c = r.connect();
            c.submit(Command::QStat(JobId(i)));
            if i % 2 == 0 {
                // Half hang up with the command still in the mailbox.
                drop(c);
                r.poll_bounded(u64::MAX, echo_reply);
            } else {
                r.poll_bounded(u64::MAX, echo_reply);
                assert_eq!(c.try_recv(), Some(Reply::Status(format!("t{i}"))));
            }
            assert!(r.conns.len() <= 2, "{} connections at {i}", r.conns.len());
        }
        keeper.send("qstat 1");
        r.poll_bounded(u64::MAX, echo_reply);
        assert_eq!(r.conns.len(), 1);
        assert_eq!(keeper.try_recv(), Some(Reply::Status("t10000".into())));
        assert_eq!(r.stats().applied, 10_001);
    }

    #[test]
    fn grammar_round_trips_and_rejects() {
        let spec = JobSpec::rigid(
            "A",
            UserId(3),
            GroupId(1),
            16,
            SimDuration::from_millis(120_500),
        );
        let Command::QSub(parsed) = parse_command(&format_qsub(&spec)).unwrap() else {
            panic!("not a qsub");
        };
        assert_eq!(*parsed, spec);

        let ev = JobSpec::evolving(
            "EV",
            UserId(2),
            GroupId(0),
            8,
            ExecutionModel::esp_evolving(1846, 1230, 4),
        );
        let Command::QSub(parsed) = parse_command(&format_qsub(&ev)).unwrap() else {
            panic!("not a qsub");
        };
        assert_eq!(*parsed, ev);

        assert_eq!(
            parse_command("dynget 5 4 60000").unwrap(),
            Command::DynGet {
                job: JobId(5),
                extra: 4,
                timeout_ms: Some(60_000)
            }
        );
        assert_eq!(
            parse_command("dynfree 5 3:2,4:1").unwrap(),
            Command::DynFree {
                job: JobId(5),
                released: Allocation::from_pairs([(NodeId(3), 2), (NodeId(4), 1)]),
            }
        );
        for bad in [
            "",
            "qsub",
            "qsub name=X",
            "qsub name=X user=1 group=0 cores=0 wall_ms=10",
            "qsub name=X user=1 group=0 cores=4 class=warp",
            "qstat",
            "qdel xyz",
            "dynget 1",
            "dynfree 1 3",
            "dynfree 1 3:0",
            "launch-missiles",
        ] {
            assert!(parse_command(bad).is_err(), "accepted {bad:?}");
        }
        // Input the grammar does not read is denied by name, not dropped.
        let rigid = "qsub name=X user=1 group=0 cores=4 wall_ms=10";
        let evolving = "qsub name=X user=1 group=0 cores=4 class=evolving set_s=9 det_s=6 extra=2";
        for (extra, token) in [
            (format!("{rigid} foo=1"), "foo"),
            (format!("{rigid} zz=2 aa=1"), "aa"),
            (format!("{evolving} wall_ms=10"), "wall_ms"),
            (format!("{rigid} timeout_ms=10"), "timeout_ms"),
            ("qdel 5 6".to_owned(), "6"),
            ("qstat 5 x".to_owned(), "x"),
            ("dynget 5 4 1000 x".to_owned(), "x"),
            ("dynfree 5 0:4 x".to_owned(), "x"),
        ] {
            let denied = parse_command(&extra).expect_err(&extra);
            assert!(denied.ends_with(&format!("`{token}`")), "{extra}: {denied}");
        }
        // ... but only once the known parts parsed: a line they deny keeps
        // the words it was denied with.
        assert_eq!(
            parse_command("qsub name=X user=1 group=0 cores=0 wall_ms=10 foo=1"),
            parse_command("qsub name=X user=1 group=0 cores=0 wall_ms=10")
        );
        assert_eq!(
            parse_command("qdel xyz 6"),
            Err("qdel: job id is not an integer".to_owned())
        );
        assert!(parse_command(&format!("{evolving} timeout_ms=10")).is_ok());
    }

    /// Every way a `qsub` line is refused, with the exact words: a client
    /// sees these in [`Reply::Denied`], and when a line is wrong in two
    /// ways the table fixes which error it is told about.
    #[test]
    fn malformed_qsub_lines_deny_with_fixed_words() {
        let rigid = "qsub name=X user=1 group=0 cores=4 wall_ms=10";
        let evolving = "qsub name=X user=1 group=0 cores=4 class=evolving set_s=9 det_s=6 extra=2";
        let table: Vec<(String, &str)> = vec![
            // Not key=value; the first bad token in line order wins.
            ("qsub name=X bogus".into(), "qsub: `bogus` is not key=value"),
            ("qsub bogus name=X name=Y".into(), "qsub: `bogus` is not key=value"),
            // A duplicate: the first key seen twice, in line order.
            ("qsub name=X name=Y".into(), "qsub: duplicate field `name`"),
            ("qsub user=1 cores=2 cores=3 user=4".into(), "qsub: duplicate field `cores`"),
            ("qsub a=1 a=2 bogus".into(), "qsub: duplicate field `a`"),
            (format!("{rigid} wall_ms=10"), "qsub: duplicate field `wall_ms`"),
            // Missing fields, in the order they are read.
            ("qsub".into(), "qsub: missing `name`"),
            ("qsub cores=4 group=0 user=1".into(), "qsub: missing `name`"),
            ("qsub name=X cores=4 group=0".into(), "qsub: missing `user`"),
            ("qsub name=X user=1 cores=4".into(), "qsub: missing `group`"),
            ("qsub name=X user=1 group=0".into(), "qsub: missing `cores`"),
            ("qsub name=X user=1 group=0 cores=4".into(), "qsub: missing `wall_ms`"),
            (
                "qsub name=X user=1 group=0 cores=4 class=rigid".into(),
                "qsub: missing `wall_ms`",
            ),
            (
                "qsub name=X user=1 group=0 cores=4 class=evolving det_s=6 extra=2".into(),
                "qsub: missing `set_s`",
            ),
            (
                "qsub name=X user=1 group=0 cores=4 class=evolving set_s=9 extra=2".into(),
                "qsub: missing `det_s`",
            ),
            (
                "qsub name=X user=1 group=0 cores=4 class=evolving set_s=9 det_s=6".into(),
                "qsub: missing `extra`",
            ),
            // Not an integer (a sign, a fraction, a word, nothing).
            ("qsub name=X user=abc group=0 cores=4 wall_ms=10".into(), "qsub: `user` is not an integer"),
            ("qsub name=X user=1 group=-1 cores=4 wall_ms=10".into(), "qsub: `group` is not an integer"),
            ("qsub name=X user=1 group=0 cores=4.5 wall_ms=10".into(), "qsub: `cores` is not an integer"),
            ("qsub name=X user=1 group=0 cores=4 wall_ms=".into(), "qsub: `wall_ms` is not an integer"),
            (format!("{evolving} timeout_ms=soon"), "qsub: `timeout_ms` is not an integer"),
            (
                "qsub name=X user=1 group=0 cores=4 wall_ms=99999999999999999999".into(),
                "qsub: `wall_ms` is not an integer",
            ),
            // Exceeds u32.
            ("qsub name=X user=4294967296 group=0 cores=4 wall_ms=10".into(), "qsub: `user` exceeds u32"),
            ("qsub name=X user=1 group=0 cores=4294967296 wall_ms=10".into(), "qsub: `cores` exceeds u32"),
            (
                "qsub name=X user=1 group=0 cores=4 class=evolving set_s=9 det_s=6 extra=4294967296"
                    .into(),
                "qsub: `extra` exceeds u32",
            ),
            // The class is read before the fields that depend on it.
            ("qsub name=X user=1 group=0 cores=4 class=warp".into(), "qsub: unknown class `warp`"),
            ("qsub name=X user=1 group=0 cores=4 class=".into(), "qsub: unknown class ``"),
            // `JobSpec::validate`, before any leftover key is named.
            ("qsub name=X user=1 group=0 cores=0 wall_ms=10".into(), "qsub: job must request at least one core"),
            (
                "qsub name=X user=1 group=0 cores=0 wall_ms=10 zz=1".into(),
                "qsub: job must request at least one core",
            ),
            // Leftovers: the smallest key is named.
            (format!("{rigid} zz=2 aa=1"), "qsub: unexpected field `aa`"),
            (format!("{rigid} mm=2 =1"), "qsub: unexpected field ``"),
            (format!("{rigid} timeout_ms=10"), "qsub: unexpected field `timeout_ms`"),
            (format!("{evolving} wall_ms=10 extra_s=1"), "qsub: unexpected field `extra_s`"),
        ];
        let wrong: Vec<String> = table
            .iter()
            .filter(|(line, want)| parse_command(line) != Err((*want).to_owned()))
            .map(|(line, want)| format!("{line}: {:?}, not {want:?}", parse_command(line)))
            .collect();
        assert!(wrong.is_empty(), "{wrong:#?}");
    }

    #[test]
    fn concurrent_clients_replay_byte_identically() {
        // The determinism contract end-to-end at module scale: the same
        // command set sent from 8 racing threads (tickets pre-assigned)
        // lands the server in the exact serial-order state.
        let lines: Vec<String> = (0..40)
            .map(|i| match i % 4 {
                0 => format!(
                    "qsub name=J{i} user={} group=0 cores=4 wall_ms=60000",
                    i % 5
                ),
                1 => format!("qstat {}", i / 2),
                2 => "dynget 999 4".to_owned(), // denies: unknown job
                _ => format!("qdel {i}"),       // mostly denies: not submitted yet
            })
            .collect();

        let serial_digest = {
            let mut s = PbsServer::new(Cluster::homogeneous(15, 8), AllocPolicy::Pack);
            s.enable_journal(0);
            for line in &lines {
                if let Ok(cmd) = parse_command(line) {
                    apply_to_server(&mut s, &cmd, SimTime::ZERO);
                }
            }
            s.state_digest()
        };

        for _ in 0..3 {
            let mut r = Reactor::new();
            let clients: Vec<ReactorClient> = (0..8).map(|_| r.connect()).collect();
            thread::scope(|scope| {
                for (t, c) in clients.into_iter().enumerate() {
                    let lines = &lines;
                    scope.spawn(move || {
                        for (i, line) in lines.iter().enumerate() {
                            if i % 8 == t {
                                c.send_ticketed(i as u64, line);
                            }
                        }
                    });
                }
            });
            let mut s = PbsServer::new(Cluster::homogeneous(15, 8), AllocPolicy::Pack);
            s.enable_journal(0);
            while r.next_apply() < lines.len() as u64 {
                r.poll_bounded(u64::MAX, |_, cmd| {
                    apply_to_server(&mut s, cmd, SimTime::ZERO)
                });
            }
            assert_eq!(s.state_digest(), serial_digest);
        }
    }
}
