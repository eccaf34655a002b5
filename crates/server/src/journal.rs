//! Write-ahead state journal for the server — the crash-durability layer.
//!
//! Real Torque persists every job under `server_priv/` so a `pbs_server`
//! crash does not lose the queue; this module is the equivalent for
//! [`crate::PbsServer`]. The journal is an **append-only** sequence of
//! records, kept structured in memory. Each record has two spellings: a
//! compact-JSON text form for people and for the pinned digests
//! ([`Journal::to_text`], [`record_to_json`], [`image_to_json`]), and the
//! canonical binary form the replication wire carries
//! ([`crate::codec`]). Two kinds of record exist:
//!
//! * **Command records** — the *inputs* of every state mutation (`qsub`,
//!   `qdel`, `tm_dynget`/`tm_dynfree`, job completion, the applied
//!   [`IterationOutcome`], negotiation expiries, node fail/repair). The
//!   server is deterministic given its inputs in order (allocation
//!   planning tie-breaks on `(cores_idle, id)`), so replaying command
//!   records reproduces the exact state — including node placements.
//! * **Snapshot records** — a full [`ServerImage`] of the durable state.
//!   The journal always starts with one (the genesis snapshot written by
//!   [`crate::PbsServer::enable_journal`]); periodic *compacting*
//!   snapshots replace the whole history with one image so the journal
//!   stays bounded on long runs. The server builds that image by
//!   patching the snapshot the compaction discards
//!   ([`Journal::compact`]), so a compaction costs the live jobs, not
//!   the terminal history.
//!
//! Recovery ([`crate::PbsServer::recover`]) is replication catch-up with
//! the journal as the stream: a [`crate::Follower`] installs the latest
//! snapshot and applies every record after it, under the same ordering
//! and checks as on a live follower. Scheduler soft state (DFS
//! accumulators, plan caches, the incremental timeline) is *not*
//! journalled: it is derived state, rebuilt by the fresh scheduler after
//! restart.

use dynbatch_cluster::Allocation;
use dynbatch_core::json::{model, Json};
use dynbatch_core::{AllocPolicy, Job, JobId, JobOutcome, JobSpec, NodeId, SimTime, UserId};
use dynbatch_sched::{
    DfsReject, DynDecision, IterationOutcome, ResizeDecision, StartDecision, UsageHistory,
};

/// A pending dynamic request, as captured in a snapshot record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingDynImage {
    /// The evolving job in `DynQueued`.
    pub job: JobId,
    /// Cores requested.
    pub extra_cores: u32,
    /// FIFO sequence number.
    pub seq: u64,
    /// Negotiation deadline (`None` = reject-immediately protocol).
    pub deadline: Option<SimTime>,
}

/// A full image of the server's durable state — the payload of a snapshot
/// record, and (serialised) the canonical state digest the crash-recovery
/// suite compares byte-for-byte.
///
/// Scheduler-coupling soft state (`ProfileDelta` buffer, snapshot epoch)
/// is deliberately absent: recovery breaks timeline continuity, which the
/// incremental-timeline protocol already handles by a full rebuild on the
/// first epoch gap.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerImage {
    /// Next `qsub` id.
    pub next_job_id: u64,
    /// Next dynamic-request FIFO seq.
    pub next_dyn_seq: u64,
    /// Placement policy.
    pub alloc_policy: AllocPolicy,
    /// Guaranteeing site policy flag.
    pub guarantee_evolving: bool,
    /// Installed cores per node, by node index.
    pub node_cores: Vec<u32>,
    /// Nodes currently failed.
    pub down_nodes: Vec<NodeId>,
    /// Every known job, with its exact allocation if active.
    pub jobs: Vec<(Job, Option<Allocation>)>,
    /// Pending dynamic requests, in job-id order.
    pub dyn_pending: Vec<PendingDynImage>,
    /// The accounting log, in emission order.
    pub outcomes: Vec<JobOutcome>,
    /// Per-user fairshare usage in core-milliseconds (closed segments),
    /// in user-id order.
    pub usage: Vec<(UserId, u64)>,
    /// Open usage-segment cursors (job, segment start), in job-id order.
    pub usage_since: Vec<(JobId, SimTime)>,
    /// Decayed resource-hour accounts (time-aware fairness), bit-exact.
    pub usage_hist: UsageHistory,
}

/// One journal record.
#[derive(Debug, Clone)]
pub enum Record {
    /// A full state image (genesis or compaction point).
    Snapshot(Box<ServerImage>),
    /// `qsub` — the assigned id is implied by replay order.
    Submit {
        /// The submitted spec.
        spec: JobSpec,
        /// Submission instant.
        now: SimTime,
    },
    /// `qdel`.
    Qdel {
        /// The deleted job.
        job: JobId,
        /// Deletion instant.
        now: SimTime,
    },
    /// A forwarded `tm_dynget()` (negotiated or not).
    DynGet {
        /// The evolving job.
        job: JobId,
        /// Cores requested.
        extra_cores: u32,
        /// Negotiation deadline.
        deadline: Option<SimTime>,
        /// Request instant.
        now: SimTime,
    },
    /// A `tm_dynfree()` release.
    DynFree {
        /// The releasing job.
        job: JobId,
        /// The released hosts.
        released: Allocation,
        /// Release instant.
        now: SimTime,
    },
    /// The application exited normally.
    Finish {
        /// The finished job.
        job: JobId,
        /// Completion instant.
        now: SimTime,
    },
    /// An applied scheduler outcome (starts, grants/rejects, preempts,
    /// resizes). DFS delay charges and observability-only fields are
    /// dropped: `apply` never reads them.
    Outcome {
        /// The reduced outcome.
        outcome: IterationOutcome,
        /// Application instant.
        now: SimTime,
    },
    /// A deadline sweep that expired at least one request.
    ExpireSweep {
        /// Sweep instant.
        now: SimTime,
    },
    /// Node failure (victims requeued).
    NodeFailed {
        /// The failed node.
        node: NodeId,
        /// Failure instant.
        now: SimTime,
    },
    /// Node repair.
    NodeRepaired {
        /// The repaired node.
        node: NodeId,
    },
    /// The guaranteeing site policy was toggled.
    Guarantee {
        /// New value.
        on: bool,
    },
}

/// The append-only write-ahead journal: records plus the bookkeeping
/// needed for compaction.
///
/// Records are kept structured and serialised lazily ([`Journal::to_text`]
/// renders the durable form): appending is on the server's hot path —
/// every scheduler cycle logs its outcome — so the log must cost a push,
/// not a JSON render. Round-trip fidelity of the text form is pinned by
/// this module's serialisation tests.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    entries: Vec<Record>,
    /// Indices of snapshot records within `entries`.
    snapshot_at: Vec<usize>,
    /// Compaction interval: once this many records accumulate after the
    /// last snapshot, the owner writes a compacting snapshot. `0` = never.
    snapshot_every: usize,
    /// Monotonic count of every record ever appended — unlike
    /// [`Journal::len`] it is *not* reset by compaction, so it positions
    /// crash points ("die after record *k*") stably across snapshots.
    total_appended: u64,
    /// Lowest absolute position compaction must keep (0 = unrestricted).
    /// Replication raises this to the replicated watermark so a hot
    /// follower's tail is never compacted out from under it — truncating
    /// the log past what the replicas confirmed would force a full
    /// snapshot transfer on every compaction.
    retain_floor: u64,
}

impl Journal {
    /// An empty journal that never auto-compacts.
    pub fn new() -> Self {
        Journal::default()
    }

    /// Sets the compaction interval (`0` disables compaction).
    pub fn set_snapshot_every(&mut self, every: usize) {
        self.snapshot_every = every;
    }

    /// The compaction interval (`0`: never compacts).
    pub fn snapshot_every(&self) -> usize {
        self.snapshot_every
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no record has been written.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total records ever appended, across compactions.
    pub fn total_appended(&self) -> u64 {
        self.total_appended
    }

    /// Appends one record.
    pub fn append(&mut self, record: Record) {
        if matches!(record, Record::Snapshot(_)) {
            self.snapshot_at.push(self.entries.len());
        }
        self.entries.push(record);
        self.total_appended += 1;
    }

    /// Records appended since the last snapshot (the whole journal when no
    /// snapshot exists — cannot happen once the genesis record is written).
    pub fn since_last_snapshot(&self) -> usize {
        match self.snapshot_at.last() {
            Some(&i) => self.entries.len() - i - 1,
            None => self.entries.len(),
        }
    }

    /// True when the compaction interval has been reached.
    pub fn wants_snapshot(&self) -> bool {
        self.snapshot_every > 0 && self.since_last_snapshot() >= self.snapshot_every
    }

    /// Raises the compaction retain floor: records at absolute positions
    /// `>= pos` survive future compactions even though the compacting
    /// image covers them. Monotonic — a lower `pos` than the current
    /// floor is ignored. Replication calls this with its replicated
    /// watermark + 1 so followers can always stream plain records.
    pub fn set_retain_floor(&mut self, pos: u64) {
        self.retain_floor = self.retain_floor.max(pos);
    }

    /// Replaces the compactable history with one snapshot record — the
    /// compaction rule: everything before (and including) the last image
    /// is re-derivable from the image alone. Records at or above the
    /// retain floor ([`Journal::set_retain_floor`]) are kept in front of
    /// the new snapshot for replication to finish streaming.
    ///
    /// `rebuild` returns the new image. It is handed the newest snapshot
    /// this compaction discards, **with the absolute position that
    /// snapshot was appended at**: the image is the state as of that
    /// position, so an owner that knows what changed since can return it
    /// patched instead of imaging everything again. `None` when no
    /// snapshot is discarded — the retain floor kept them all, and a new
    /// image has to be materialised next to them.
    pub fn compact(&mut self, rebuild: impl FnOnce(Option<(u64, ServerImage)>) -> ServerImage) {
        let first = self.first_pos();
        let drop_n = if self.retain_floor == 0 {
            self.entries.len()
        } else {
            self.retain_floor
                .saturating_sub(first)
                .min(self.entries.len() as u64) as usize
        };
        let mut discarded = None;
        for (i, record) in self.entries.drain(..drop_n).enumerate() {
            if let Record::Snapshot(image) = record {
                discarded = Some((first + i as u64, *image));
            }
        }
        self.snapshot_at = self
            .snapshot_at
            .iter()
            .filter_map(|&i| i.checked_sub(drop_n))
            .collect();
        self.append(Record::Snapshot(Box::new(rebuild(discarded))));
    }

    /// The journal truncated to its first `k` records — "the server died
    /// right after record `k − 1` hit the log".
    pub fn prefix(&self, k: usize) -> Journal {
        let k = k.min(self.entries.len());
        Journal {
            entries: self.entries[..k].to_vec(),
            snapshot_at: self
                .snapshot_at
                .iter()
                .copied()
                .filter(|&i| i < k)
                .collect(),
            snapshot_every: self.snapshot_every,
            total_appended: k as u64,
            retain_floor: 0,
        }
    }

    /// The text form, for people and pins: newline-delimited compact JSON.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for record in &self.entries {
            s.push_str(&record_to_json(record).to_string_compact());
            s.push('\n');
        }
        s
    }

    /// Parses a journal written by [`Journal::to_text`], validating every
    /// record.
    pub fn from_text(text: &str) -> Result<Journal, String> {
        let mut j = Journal::new();
        for (i, line) in text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            let record = record_from_json(&dynbatch_core::json::parse(line)?)
                .map_err(|e| format!("record {i}: {e}"))?;
            j.append(record);
        }
        Ok(j)
    }

    /// Every record, in append order.
    pub fn records(&self) -> &[Record] {
        &self.entries
    }

    /// Absolute (1-based, compaction-stable) position of the first record
    /// still retained — `entries[0]` is the `first_pos()`-th record ever
    /// appended. `0` when the journal is empty.
    pub fn first_pos(&self) -> u64 {
        if self.entries.is_empty() {
            0
        } else {
            self.total_appended - self.entries.len() as u64 + 1
        }
    }

    /// The retained records at absolute positions `>= pos` (the
    /// replication tail a follower at watermark `pos - 1` still needs).
    /// `None` when compaction already discarded position `pos` — the
    /// caller must fall back to a snapshot transfer.
    pub fn records_from(&self, pos: u64) -> Option<&[Record]> {
        if pos > self.total_appended {
            return Some(&[]);
        }
        let first = self.first_pos();
        if pos < first {
            return None;
        }
        Some(&self.entries[(pos - first) as usize..])
    }

    /// The latest snapshot record still retained, with its absolute
    /// position — the catch-up image replication hands a follower that
    /// fell behind the compaction horizon.
    pub fn latest_snapshot(&self) -> Option<(u64, &ServerImage)> {
        let &i = self.snapshot_at.last()?;
        let Record::Snapshot(img) = &self.entries[i] else {
            unreachable!("snapshot_at indexes snapshot records");
        };
        Some((self.first_pos() + i as u64, img))
    }

    /// Absolute position of the oldest snapshot record still retained: no
    /// later compaction can hand back an image older than this one.
    pub fn oldest_snapshot_pos(&self) -> Option<u64> {
        let &i = self.snapshot_at.first()?;
        Some(self.first_pos() + i as u64)
    }
}

// ---------------------------------------------------------------------------
// Record serialisation. Compact, type-tagged, exact-integer JSON built on
// `core::json` (no serde in this offline-built repo).

fn time(t: SimTime) -> Json {
    Json::UInt(t.as_millis())
}

fn opt_time(t: Option<SimTime>) -> Json {
    t.map(time).unwrap_or(Json::Null)
}

/// `[[node, cores], …]` — `Allocation` iterates in node order, so the form
/// is canonical.
pub fn alloc_to_json(alloc: &Allocation) -> Json {
    Json::Arr(
        alloc
            .entries()
            .map(|(node, cores)| {
                Json::Arr(vec![Json::UInt(node.0 as u64), Json::UInt(cores as u64)])
            })
            .collect(),
    )
}

/// Parses an allocation written by [`alloc_to_json`].
pub fn alloc_from_json(v: &Json) -> Result<Allocation, String> {
    let pairs = v.as_arr().ok_or("allocation is not an array")?;
    let mut alloc = Allocation::empty();
    for p in pairs {
        let pair = p.as_arr().ok_or("allocation entry is not a pair")?;
        let [node, cores] = pair else {
            return Err("allocation entry is not a pair".into());
        };
        let node = node.as_u64().ok_or("allocation node is not an integer")?;
        let cores = cores.as_u64().ok_or("allocation cores is not an integer")?;
        let node = u32::try_from(node).map_err(|_| "allocation node exceeds u32".to_owned())?;
        let cores = u32::try_from(cores).map_err(|_| "allocation cores exceeds u32".to_owned())?;
        alloc.add(NodeId(node), cores);
    }
    Ok(alloc)
}

fn policy_name(p: AllocPolicy) -> &'static str {
    match p {
        AllocPolicy::Pack => "pack",
        AllocPolicy::Spread => "spread",
        AllocPolicy::NodeExclusive => "node_exclusive",
    }
}

fn policy_from_name(name: &str) -> Result<AllocPolicy, String> {
    match name {
        "pack" => Ok(AllocPolicy::Pack),
        "spread" => Ok(AllocPolicy::Spread),
        "node_exclusive" => Ok(AllocPolicy::NodeExclusive),
        other => Err(format!("unknown alloc policy `{other}`")),
    }
}

fn reject_to_json(r: &DfsReject) -> Json {
    match r {
        DfsReject::NoResources => Json::obj(vec![("why", Json::Str("no_resources".into()))]),
        DfsReject::PermDenied { user } => Json::obj(vec![
            ("why", Json::Str("perm_denied".into())),
            ("user", Json::UInt(user.0 as u64)),
        ]),
        DfsReject::SingleExceeded {
            job,
            would_be,
            limit,
        } => Json::obj(vec![
            ("why", Json::Str("single_exceeded".into())),
            ("job", Json::UInt(job.0)),
            ("would_be_ms", Json::UInt(would_be.as_millis())),
            ("limit_ms", Json::UInt(limit.as_millis())),
        ]),
        DfsReject::UserTargetExceeded {
            user,
            would_be,
            limit,
        } => Json::obj(vec![
            ("why", Json::Str("user_target_exceeded".into())),
            ("user", Json::UInt(user.0 as u64)),
            ("would_be_ms", Json::UInt(would_be.as_millis())),
            ("limit_ms", Json::UInt(limit.as_millis())),
        ]),
        DfsReject::GroupTargetExceeded {
            group,
            would_be,
            limit,
        } => Json::obj(vec![
            ("why", Json::Str("group_target_exceeded".into())),
            ("group", Json::UInt(group.0 as u64)),
            ("would_be_ms", Json::UInt(would_be.as_millis())),
            ("limit_ms", Json::UInt(limit.as_millis())),
        ]),
    }
}

fn reject_from_json(v: &Json) -> Result<DfsReject, String> {
    use dynbatch_core::{GroupId, SimDuration, UserId};
    let dur = |key: &str| -> Result<SimDuration, String> {
        Ok(SimDuration::from_millis(v.req_u64(key)?))
    };
    match v.req_str("why")? {
        "no_resources" => Ok(DfsReject::NoResources),
        "perm_denied" => Ok(DfsReject::PermDenied {
            user: UserId(v.req_u32("user")?),
        }),
        "single_exceeded" => Ok(DfsReject::SingleExceeded {
            job: JobId(v.req_u64("job")?),
            would_be: dur("would_be_ms")?,
            limit: dur("limit_ms")?,
        }),
        "user_target_exceeded" => Ok(DfsReject::UserTargetExceeded {
            user: UserId(v.req_u32("user")?),
            would_be: dur("would_be_ms")?,
            limit: dur("limit_ms")?,
        }),
        "group_target_exceeded" => Ok(DfsReject::GroupTargetExceeded {
            group: GroupId(v.req_u32("group")?),
            would_be: dur("would_be_ms")?,
            limit: dur("limit_ms")?,
        }),
        other => Err(format!("unknown reject reason `{other}`")),
    }
}

fn resize_to_json(r: &ResizeDecision) -> Json {
    Json::obj(vec![
        ("job", Json::UInt(r.job.0)),
        ("from", Json::UInt(r.from_cores as u64)),
        ("to", Json::UInt(r.to_cores as u64)),
    ])
}

fn resize_from_json(v: &Json) -> Result<ResizeDecision, String> {
    Ok(ResizeDecision {
        job: JobId(v.req_u64("job")?),
        from_cores: v.req_u32("from")?,
        to_cores: v.req_u32("to")?,
    })
}

fn dyn_decision_to_json(d: &DynDecision) -> Json {
    match d {
        DynDecision::Granted {
            job,
            extra_cores,
            preempted,
            shrunk,
            ..
        } => Json::obj(vec![
            ("kind", Json::Str("grant".into())),
            ("job", Json::UInt(job.0)),
            ("extra", Json::UInt(*extra_cores as u64)),
            (
                "preempted",
                Json::Arr(preempted.iter().map(|j| Json::UInt(j.0)).collect()),
            ),
            (
                "shrunk",
                Json::Arr(shrunk.iter().map(resize_to_json).collect()),
            ),
        ]),
        DynDecision::Rejected { job, reason } => Json::obj(vec![
            ("kind", Json::Str("reject".into())),
            ("job", Json::UInt(job.0)),
            ("reason", reject_to_json(reason)),
        ]),
        DynDecision::Deferred {
            job,
            reason,
            available_hint,
        } => Json::obj(vec![
            ("kind", Json::Str("defer".into())),
            ("job", Json::UInt(job.0)),
            ("reason", reject_to_json(reason)),
            ("hint_ms", opt_time(*available_hint)),
        ]),
    }
}

fn dyn_decision_from_json(v: &Json) -> Result<DynDecision, String> {
    match v.req_str("kind")? {
        "grant" => Ok(DynDecision::Granted {
            job: JobId(v.req_u64("job")?),
            extra_cores: v.req_u32("extra")?,
            // DFS delay charges are scheduler soft state; `apply` ignores
            // them, so the journal does not carry them.
            delays: Vec::new(),
            preempted: v
                .req_arr("preempted")?
                .iter()
                .map(|j| {
                    j.as_u64()
                        .map(JobId)
                        .ok_or_else(|| "preempted id is not an integer".to_owned())
                })
                .collect::<Result<_, _>>()?,
            shrunk: v
                .req_arr("shrunk")?
                .iter()
                .map(resize_from_json)
                .collect::<Result<_, _>>()?,
        }),
        "reject" => Ok(DynDecision::Rejected {
            job: JobId(v.req_u64("job")?),
            reason: reject_from_json(v.req("reason")?)?,
        }),
        "defer" => Ok(DynDecision::Deferred {
            job: JobId(v.req_u64("job")?),
            reason: reject_from_json(v.req("reason")?)?,
            available_hint: v.opt_time("hint_ms")?,
        }),
        other => Err(format!("unknown dyn decision kind `{other}`")),
    }
}

fn start_to_json(s: &StartDecision) -> Json {
    Json::obj(vec![
        ("job", Json::UInt(s.job.0)),
        ("backfilled", Json::Bool(s.backfilled)),
        (
            "cores",
            s.cores.map(|c| Json::UInt(c as u64)).unwrap_or(Json::Null),
        ),
    ])
}

fn start_from_json(v: &Json) -> Result<StartDecision, String> {
    let cores = match v.get("cores") {
        None | Some(Json::Null) => None,
        Some(c) => Some(
            u32::try_from(c.as_u64().ok_or("`cores` is not an integer")?)
                .map_err(|_| "`cores` exceeds u32".to_owned())?,
        ),
    };
    Ok(StartDecision {
        job: JobId(v.req_u64("job")?),
        backfilled: v.req_bool("backfilled")?,
        cores,
    })
}

/// Reduces an [`IterationOutcome`] to the parts [`crate::PbsServer::apply`]
/// actually consumes: starts, dynamic decisions (minus DFS delay charges)
/// and malleable grows. Reservations and the baseline plan are
/// observability-only and re-derived every iteration.
pub fn reduce_outcome(outcome: &IterationOutcome) -> IterationOutcome {
    IterationOutcome {
        starts: outcome.starts.clone(),
        reservations: Vec::new(),
        dyn_decisions: outcome
            .dyn_decisions
            .iter()
            .map(|d| match d {
                DynDecision::Granted {
                    job,
                    extra_cores,
                    preempted,
                    shrunk,
                    ..
                } => DynDecision::Granted {
                    job: *job,
                    extra_cores: *extra_cores,
                    delays: Vec::new(),
                    preempted: preempted.clone(),
                    shrunk: shrunk.clone(),
                },
                other => other.clone(),
            })
            .collect(),
        baseline_plan: Vec::new(),
        grows: outcome.grows.clone(),
    }
}

fn outcome_to_json(outcome: &IterationOutcome) -> Json {
    Json::obj(vec![
        (
            "starts",
            Json::Arr(outcome.starts.iter().map(start_to_json).collect()),
        ),
        (
            "dyn",
            Json::Arr(
                outcome
                    .dyn_decisions
                    .iter()
                    .map(dyn_decision_to_json)
                    .collect(),
            ),
        ),
        (
            "grows",
            Json::Arr(outcome.grows.iter().map(resize_to_json).collect()),
        ),
    ])
}

fn outcome_from_json(v: &Json) -> Result<IterationOutcome, String> {
    Ok(IterationOutcome {
        starts: v
            .req_arr("starts")?
            .iter()
            .map(start_from_json)
            .collect::<Result<_, _>>()?,
        reservations: Vec::new(),
        dyn_decisions: v
            .req_arr("dyn")?
            .iter()
            .map(dyn_decision_from_json)
            .collect::<Result<_, _>>()?,
        baseline_plan: Vec::new(),
        grows: v
            .req_arr("grows")?
            .iter()
            .map(resize_from_json)
            .collect::<Result<_, _>>()?,
    })
}

/// Serialises a full server image (snapshot-record payload). Public so the
/// crash-recovery suite can use it as the canonical state digest.
pub fn image_to_json(img: &ServerImage) -> Json {
    Json::obj(vec![
        ("next_job_id", Json::UInt(img.next_job_id)),
        ("next_dyn_seq", Json::UInt(img.next_dyn_seq)),
        ("policy", Json::Str(policy_name(img.alloc_policy).into())),
        ("guarantee", Json::Bool(img.guarantee_evolving)),
        (
            "node_cores",
            Json::Arr(
                img.node_cores
                    .iter()
                    .map(|&c| Json::UInt(c as u64))
                    .collect(),
            ),
        ),
        (
            "down_nodes",
            Json::Arr(
                img.down_nodes
                    .iter()
                    .map(|n| Json::UInt(n.0 as u64))
                    .collect(),
            ),
        ),
        (
            "jobs",
            Json::Arr(
                img.jobs
                    .iter()
                    .map(|(job, alloc)| {
                        Json::obj(vec![
                            ("job", model::job_to_json(job)),
                            (
                                "alloc",
                                alloc.as_ref().map(alloc_to_json).unwrap_or(Json::Null),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "dyn_pending",
            Json::Arr(
                img.dyn_pending
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("job", Json::UInt(p.job.0)),
                            ("extra", Json::UInt(p.extra_cores as u64)),
                            ("seq", Json::UInt(p.seq)),
                            ("deadline_ms", opt_time(p.deadline)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "outcomes",
            Json::Arr(img.outcomes.iter().map(model::outcome_to_json).collect()),
        ),
        (
            "usage",
            Json::Arr(
                img.usage
                    .iter()
                    .map(|&(u, ms)| Json::Arr(vec![Json::UInt(u.0 as u64), Json::UInt(ms)]))
                    .collect(),
            ),
        ),
        (
            "usage_since",
            Json::Arr(
                img.usage_since
                    .iter()
                    .map(|&(j, at)| Json::Arr(vec![Json::UInt(j.0), time(at)]))
                    .collect(),
            ),
        ),
        ("usage_hist", img.usage_hist.to_json()),
    ])
}

/// Parses an image written by [`image_to_json`].
pub fn image_from_json(v: &Json) -> Result<ServerImage, String> {
    let node_id = |j: &Json| -> Result<NodeId, String> {
        let n = j.as_u64().ok_or("node id is not an integer")?;
        Ok(NodeId(
            u32::try_from(n).map_err(|_| "node id exceeds u32".to_owned())?,
        ))
    };
    Ok(ServerImage {
        next_job_id: v.req_u64("next_job_id")?,
        next_dyn_seq: v.req_u64("next_dyn_seq")?,
        alloc_policy: policy_from_name(v.req_str("policy")?)?,
        guarantee_evolving: v.req_bool("guarantee")?,
        node_cores: v
            .req_arr("node_cores")?
            .iter()
            .map(|c| {
                c.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| "node core count is not a u32".to_owned())
            })
            .collect::<Result<_, _>>()?,
        down_nodes: v
            .req_arr("down_nodes")?
            .iter()
            .map(node_id)
            .collect::<Result<_, _>>()?,
        jobs: v
            .req_arr("jobs")?
            .iter()
            .map(|entry| {
                let job = model::job_from_json(entry.req("job")?)?;
                let alloc = match entry.get("alloc") {
                    None | Some(Json::Null) => None,
                    Some(a) => Some(alloc_from_json(a)?),
                };
                Ok((job, alloc))
            })
            .collect::<Result<_, String>>()?,
        dyn_pending: v
            .req_arr("dyn_pending")?
            .iter()
            .map(|p| {
                Ok(PendingDynImage {
                    job: JobId(p.req_u64("job")?),
                    extra_cores: p.req_u32("extra")?,
                    seq: p.req_u64("seq")?,
                    deadline: p.opt_time("deadline_ms")?,
                })
            })
            .collect::<Result<_, String>>()?,
        outcomes: v
            .req_arr("outcomes")?
            .iter()
            .map(model::outcome_from_json)
            .collect::<Result<_, _>>()?,
        usage: v
            .req_arr("usage")?
            .iter()
            .map(|p| {
                let pair = p.as_arr().ok_or("usage entry is not a pair")?;
                let [user, ms] = pair else {
                    return Err("usage entry is not a pair".to_owned());
                };
                let user = user
                    .as_u64()
                    .and_then(|u| u32::try_from(u).ok())
                    .ok_or("usage user is not a u32")?;
                let ms = ms.as_u64().ok_or("usage core-ms is not an integer")?;
                Ok((UserId(user), ms))
            })
            .collect::<Result<_, String>>()?,
        usage_since: v
            .req_arr("usage_since")?
            .iter()
            .map(|p| {
                let pair = p.as_arr().ok_or("usage_since entry is not a pair")?;
                let [j, at] = pair else {
                    return Err("usage_since entry is not a pair".to_owned());
                };
                let j = j.as_u64().ok_or("usage_since job is not an integer")?;
                let at = at.as_u64().ok_or("usage_since time is not an integer")?;
                Ok((JobId(j), SimTime::from_millis(at)))
            })
            .collect::<Result<_, String>>()?,
        usage_hist: UsageHistory::from_json(v.req("usage_hist")?)?,
    })
}

/// Serialises one record as a `rec`-tagged object.
pub fn record_to_json(record: &Record) -> Json {
    let tagged = |tag: &str, mut rest: Vec<(&str, Json)>| {
        let mut pairs = vec![("rec", Json::Str(tag.into()))];
        pairs.append(&mut rest);
        Json::obj(pairs)
    };
    match record {
        Record::Snapshot(img) => tagged("snapshot", vec![("state", image_to_json(img))]),
        Record::Submit { spec, now } => tagged(
            "submit",
            vec![("spec", model::spec_to_json(spec)), ("now", time(*now))],
        ),
        Record::Qdel { job, now } => tagged(
            "qdel",
            vec![("job", Json::UInt(job.0)), ("now", time(*now))],
        ),
        Record::DynGet {
            job,
            extra_cores,
            deadline,
            now,
        } => tagged(
            "dynget",
            vec![
                ("job", Json::UInt(job.0)),
                ("extra", Json::UInt(*extra_cores as u64)),
                ("deadline_ms", opt_time(*deadline)),
                ("now", time(*now)),
            ],
        ),
        Record::DynFree { job, released, now } => tagged(
            "dynfree",
            vec![
                ("job", Json::UInt(job.0)),
                ("released", alloc_to_json(released)),
                ("now", time(*now)),
            ],
        ),
        Record::Finish { job, now } => tagged(
            "finish",
            vec![("job", Json::UInt(job.0)), ("now", time(*now))],
        ),
        Record::Outcome { outcome, now } => tagged(
            "outcome",
            vec![("outcome", outcome_to_json(outcome)), ("now", time(*now))],
        ),
        Record::ExpireSweep { now } => tagged("expire_sweep", vec![("now", time(*now))]),
        Record::NodeFailed { node, now } => tagged(
            "node_failed",
            vec![("node", Json::UInt(node.0 as u64)), ("now", time(*now))],
        ),
        Record::NodeRepaired { node } => {
            tagged("node_repaired", vec![("node", Json::UInt(node.0 as u64))])
        }
        Record::Guarantee { on } => tagged("guarantee", vec![("on", Json::Bool(*on))]),
    }
}

/// Parses a record written by [`record_to_json`].
pub fn record_from_json(v: &Json) -> Result<Record, String> {
    let job = |v: &Json| -> Result<JobId, String> { Ok(JobId(v.req_u64("job")?)) };
    let node = |v: &Json| -> Result<NodeId, String> { Ok(NodeId(v.req_u32("node")?)) };
    match v.req_str("rec")? {
        "snapshot" => Ok(Record::Snapshot(Box::new(image_from_json(
            v.req("state")?,
        )?))),
        "submit" => Ok(Record::Submit {
            spec: model::spec_from_json(v.req("spec")?)?,
            now: v.req_time("now")?,
        }),
        "qdel" => Ok(Record::Qdel {
            job: job(v)?,
            now: v.req_time("now")?,
        }),
        "dynget" => Ok(Record::DynGet {
            job: job(v)?,
            extra_cores: v.req_u32("extra")?,
            deadline: v.opt_time("deadline_ms")?,
            now: v.req_time("now")?,
        }),
        "dynfree" => Ok(Record::DynFree {
            job: job(v)?,
            released: alloc_from_json(v.req("released")?)?,
            now: v.req_time("now")?,
        }),
        "finish" => Ok(Record::Finish {
            job: job(v)?,
            now: v.req_time("now")?,
        }),
        "outcome" => Ok(Record::Outcome {
            outcome: outcome_from_json(v.req("outcome")?)?,
            now: v.req_time("now")?,
        }),
        "expire_sweep" => Ok(Record::ExpireSweep {
            now: v.req_time("now")?,
        }),
        "node_failed" => Ok(Record::NodeFailed {
            node: node(v)?,
            now: v.req_time("now")?,
        }),
        "node_repaired" => Ok(Record::NodeRepaired { node: node(v)? }),
        "guarantee" => Ok(Record::Guarantee {
            on: v.req_bool("on")?,
        }),
        other => Err(format!("unknown record tag `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynbatch_core::{GroupId, SimDuration, UserId};

    fn alloc(pairs: &[(u32, u32)]) -> Allocation {
        Allocation::from_pairs(pairs.iter().map(|&(n, c)| (NodeId(n), c)))
    }

    fn sample_usage_hist() -> UsageHistory {
        let mut h = UsageHistory::new(SimDuration::from_hours(12), 20);
        h.charge(
            UserId(1),
            dynbatch_core::QueueId(0),
            123_456,
            SimTime::from_secs(5),
        );
        h.charge(
            UserId(2),
            dynbatch_core::QueueId(1),
            7,
            SimTime::from_secs(999),
        );
        h
    }

    fn sample_image() -> ServerImage {
        let spec = JobSpec::rigid("A", UserId(1), GroupId(0), 8, SimDuration::from_secs(100));
        let mut running = Job::new(JobId(1), spec.clone(), SimTime::from_secs(0));
        running.state = dynbatch_core::JobState::Running;
        running.start_time = Some(SimTime::from_secs(5));
        running.cores_allocated = 8;
        ServerImage {
            next_job_id: 3,
            next_dyn_seq: 2,
            alloc_policy: AllocPolicy::Pack,
            guarantee_evolving: true,
            node_cores: vec![8, 8, 4],
            down_nodes: vec![NodeId(2)],
            jobs: vec![
                (running, Some(alloc(&[(0, 8)]))),
                (Job::new(JobId(2), spec, SimTime::from_secs(7)), None),
            ],
            dyn_pending: vec![PendingDynImage {
                job: JobId(1),
                extra_cores: 4,
                seq: 1,
                deadline: Some(SimTime::from_secs(60)),
            }],
            outcomes: vec![],
            usage: vec![(UserId(1), 123_456)],
            usage_since: vec![(JobId(1), SimTime::from_secs(5))],
            usage_hist: sample_usage_hist(),
        }
    }

    #[test]
    fn every_record_kind_round_trips() {
        let spec = JobSpec::rigid("A", UserId(1), GroupId(0), 8, SimDuration::from_secs(100));
        let outcome = IterationOutcome {
            starts: vec![StartDecision {
                job: JobId(3),
                backfilled: true,
                cores: Some(16),
            }],
            reservations: Vec::new(),
            dyn_decisions: vec![
                DynDecision::Granted {
                    job: JobId(1),
                    extra_cores: 4,
                    delays: Vec::new(),
                    preempted: vec![JobId(5)],
                    shrunk: vec![ResizeDecision {
                        job: JobId(6),
                        from_cores: 16,
                        to_cores: 8,
                    }],
                },
                DynDecision::Rejected {
                    job: JobId(2),
                    reason: DfsReject::SingleExceeded {
                        job: JobId(9),
                        would_be: SimDuration::from_secs(100),
                        limit: SimDuration::from_secs(50),
                    },
                },
                DynDecision::Deferred {
                    job: JobId(4),
                    reason: DfsReject::NoResources,
                    available_hint: Some(SimTime::from_secs(700)),
                },
            ],
            baseline_plan: Vec::new(),
            grows: vec![ResizeDecision {
                job: JobId(7),
                from_cores: 8,
                to_cores: 32,
            }],
        };
        let records = vec![
            Record::Snapshot(Box::new(sample_image())),
            Record::Submit {
                spec,
                now: SimTime::from_secs(1),
            },
            Record::Qdel {
                job: JobId(1),
                now: SimTime::from_secs(2),
            },
            Record::DynGet {
                job: JobId(1),
                extra_cores: 4,
                deadline: Some(SimTime::from_secs(90)),
                now: SimTime::from_secs(3),
            },
            Record::DynFree {
                job: JobId(1),
                released: alloc(&[(1, 4)]),
                now: SimTime::from_secs(4),
            },
            Record::Finish {
                job: JobId(1),
                now: SimTime::from_secs(5),
            },
            Record::Outcome {
                outcome,
                now: SimTime::from_secs(6),
            },
            Record::ExpireSweep {
                now: SimTime::from_secs(8),
            },
            Record::NodeFailed {
                node: NodeId(2),
                now: SimTime::from_secs(9),
            },
            Record::NodeRepaired { node: NodeId(2) },
            Record::Guarantee { on: true },
        ];
        for r in &records {
            let text = record_to_json(r).to_string_compact();
            let back = record_from_json(&dynbatch_core::json::parse(&text).unwrap()).unwrap();
            // IterationOutcome does not derive PartialEq; compare through
            // the serialised form, which is total for journal purposes.
            assert_eq!(
                record_to_json(&back).to_string_compact(),
                text,
                "round-trip changed {text}"
            );
        }
    }

    #[test]
    fn journal_text_round_trip_and_prefix() {
        let mut j = Journal::new();
        j.append(Record::Snapshot(Box::new(sample_image())));
        j.append(Record::Qdel {
            job: JobId(2),
            now: SimTime::from_secs(2),
        });
        j.append(Record::ExpireSweep {
            now: SimTime::from_secs(3),
        });
        assert_eq!(j.len(), 3);
        assert_eq!(j.since_last_snapshot(), 2);

        let parsed = Journal::from_text(&j.to_text()).unwrap();
        assert_eq!(parsed.to_text(), j.to_text());
        assert_eq!(parsed.since_last_snapshot(), 2);

        let p = j.prefix(1);
        assert_eq!(p.len(), 1);
        assert_eq!(p.since_last_snapshot(), 0);
    }

    #[test]
    fn compact_hands_back_the_newest_discarded_snapshot() {
        let mut j = Journal::new();
        let mut first = sample_image();
        first.next_job_id = 100;
        j.append(Record::Snapshot(Box::new(first)));
        let mut second = sample_image();
        second.next_job_id = 200;
        j.append(Record::Snapshot(Box::new(second)));
        j.compact(|discarded| {
            let (pos, image) = discarded.expect("two snapshots discarded");
            assert_eq!((pos, image.next_job_id), (2, 200));
            sample_image()
        });
        assert!(matches!(j.records(), [Record::Snapshot(_)]));
        assert_eq!(j.total_appended(), 3);
        assert_eq!(j.oldest_snapshot_pos(), Some(3));
        // A retain floor at the old snapshot keeps it: nothing handed back.
        j.set_retain_floor(3);
        j.compact(|discarded| {
            assert!(discarded.is_none());
            sample_image()
        });
        assert_eq!(j.len(), 2);
        assert_eq!(j.oldest_snapshot_pos(), Some(3));
        // Once the floor passes it, it comes back under its own position,
        // not the newest snapshot's.
        j.append(Record::ExpireSweep {
            now: SimTime::from_secs(1),
        });
        j.set_retain_floor(4);
        j.compact(|discarded| {
            assert_eq!(discarded.expect("position 3 discarded").0, 3);
            sample_image()
        });
        assert_eq!(j.first_pos(), 4);
        assert_eq!(j.oldest_snapshot_pos(), Some(4));
    }

    #[test]
    fn compaction_replaces_history() {
        let mut j = Journal::new();
        j.set_snapshot_every(2);
        j.append(Record::Snapshot(Box::new(sample_image())));
        j.append(Record::ExpireSweep {
            now: SimTime::from_secs(1),
        });
        assert!(!j.wants_snapshot());
        j.append(Record::ExpireSweep {
            now: SimTime::from_secs(2),
        });
        assert!(j.wants_snapshot());
        j.compact(|_| sample_image());
        assert_eq!(j.len(), 1);
        assert_eq!(j.since_last_snapshot(), 0);
        assert!(matches!(j.records(), [Record::Snapshot(_)]));
    }

    #[test]
    fn malformed_records_are_rejected() {
        assert!(Journal::from_text("{\"rec\":\"nope\"}\n").is_err());
        assert!(Journal::from_text("{\"rec\":\"qdel\"}\n").is_err());
        assert!(Journal::from_text("not json\n").is_err());
    }
}
