//! Journal-streaming replication: leader → follower record streaming,
//! follower reads with a bounded-staleness contract, and leader failover.
//!
//! The leader is an ordinary journaled [`PbsServer`]; replication is a
//! pure observer of its write-ahead journal. A [`ReplicationHub`] streams
//! every appended [`Record`] (plus [`ServerImage`] snapshots for catch-up
//! and compaction handoff) to N follower threads over in-process
//! channels. Followers rebuild state through the leader's own apply step
//! ([`PbsServer::execute`]), so leader and follower execute the
//! identical deterministic code — divergence is detectable by
//! construction and checked at every snapshot boundary plus periodic
//! rolling-digest frames.
//!
//! Positions are `Journal::total_appended` coordinates: 1-based,
//! monotonic and stable across compaction, so a follower watermark ("I
//! have applied every record through `w`") survives snapshot handoffs
//! and names the same prefix before and after the leader compacts.
//!
//! The transport is hardened the way an on-the-wire journal must be:
//! each frame is length-delimited and CRC-32 protected; a torn trailing
//! frame (the partial-write crash artifact) is truncated and counted,
//! while a CRC mismatch (bit corruption) is a hard error.
//!
//! Delivery is at-least-once and unordered: the hub go-back-N resends
//! from the follower's acked watermark when progress stalls, and the
//! follower keeps a reorder buffer, applying only the contiguous prefix.
//! Faults ([`ReplFaultPlan`]) therefore delay convergence but can never
//! corrupt it.
//!
//! Failover promotes the highest-watermark follower: its server state is
//! byte-identical to the crashed leader at the replicated watermark (the
//! chaos suite pins this against a crash-free reference), the hub bumps
//! its `term`, and surviving followers re-seed from the new leader's
//! genesis snapshot — a frame from an older term is simply ignored.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use dynbatch_core::json::{self, Json};
use dynbatch_core::JobId;
use dynbatch_simtime::SplitMix64;

use crate::journal::{
    image_from_json, image_to_json, record_from_json, record_to_json, Journal, Record, ServerImage,
};
use crate::server::PbsServer;

// ---------------------------------------------------------------------------
// CRC-32 + length framing: the transport-hardened record envelope.

/// CRC-32 (IEEE, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// Wraps one payload in the wire envelope: `len:u32le | crc32:u32le |
/// payload`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The result of unwrapping a byte run of frames.
#[derive(Debug, Default)]
pub struct Deframed {
    /// The complete, CRC-verified payloads, in order.
    pub payloads: Vec<Vec<u8>>,
    /// True when the run ended in a partial frame (torn trailing write):
    /// the tail was truncated — the payloads before it are all intact.
    pub torn: bool,
}

/// Splits a byte run into CRC-verified payloads. A short tail (fewer
/// bytes than the last header + payload promise) is a *torn trailing
/// frame*: tolerated, truncated, flagged. A CRC mismatch on a complete
/// frame is corruption and a hard error.
pub fn deframe(buf: &[u8]) -> Result<Deframed, String> {
    let mut out = Deframed::default();
    let mut at = 0usize;
    while at < buf.len() {
        if buf.len() - at < 8 {
            out.torn = true;
            return Ok(out);
        }
        let len = u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(buf[at + 4..at + 8].try_into().expect("4 bytes"));
        if buf.len() - at - 8 < len {
            out.torn = true;
            return Ok(out);
        }
        let payload = &buf[at + 8..at + 8 + len];
        if crc32(payload) != crc {
            return Err(format!(
                "frame at byte {at}: CRC mismatch (stored {crc:#010x}, computed {:#010x})",
                crc32(payload)
            ));
        }
        out.payloads.push(payload.to_vec());
        at += 8 + len;
    }
    Ok(out)
}

/// FNV-1a (64-bit) of `bytes` — the rolling digest replication compares
/// across the stream without shipping full images.
pub fn digest64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Stream frames.

/// One unit on the replication stream. Every frame names the leader
/// `term` that produced it and an absolute journal position.
#[derive(Debug, Clone)]
pub enum Frame {
    /// A journal record: the `pos`-th record the term's leader appended.
    Record {
        /// Leader term.
        term: u64,
        /// Absolute (`total_appended`) position.
        pos: u64,
        /// The record itself.
        record: Record,
    },
    /// A snapshot-boundary marker: position `pos` holds a snapshot
    /// record whose image is exactly the state after records `1..pos-1`
    /// — state the caught-up receiver already holds. The follower
    /// advances its watermark over the boundary without the leader
    /// re-serialising (or re-shipping) the full image; divergence
    /// checking rides the periodic [`Frame::Digest`] frames and the
    /// snapshot transfers that seed or heal a replica.
    Mark {
        /// Leader term.
        term: u64,
        /// Absolute position of the snapshot record being crossed.
        pos: u64,
    },
    /// A full state image — catch-up transfer, compaction handoff, or
    /// (when the follower is already at `pos - 1`) a verified snapshot
    /// boundary.
    Snapshot {
        /// Leader term.
        term: u64,
        /// Absolute position of the snapshot record.
        pos: u64,
        /// State after the first `pos - 1` records.
        image: Box<ServerImage>,
    },
    /// A rolling digest check: FNV-64 of the leader's serialised image
    /// at watermark `pos`. The follower verifies when it reaches `pos`.
    Digest {
        /// Leader term.
        term: u64,
        /// Watermark the digest was taken at.
        pos: u64,
        /// [`digest64`] of the leader's [`PbsServer::state_digest`].
        digest: u64,
    },
}

impl Frame {
    /// The frame's absolute journal position.
    pub fn pos(&self) -> u64 {
        match self {
            Frame::Record { pos, .. }
            | Frame::Mark { pos, .. }
            | Frame::Snapshot { pos, .. }
            | Frame::Digest { pos, .. } => *pos,
        }
    }
}

/// The JSON form of a record frame, built from borrowed parts — the
/// pump's shared encode cache serialises journal records without cloning
/// them into owned [`Frame`]s first.
fn record_frame_json(term: u64, pos: u64, record: &Record) -> Json {
    Json::obj(vec![
        ("f", Json::Str("rec".into())),
        ("term", Json::UInt(term)),
        ("pos", Json::UInt(pos)),
        ("rec", record_to_json(record)),
    ])
}

/// Serialises a frame to compact JSON (the framed payload).
pub fn frame_to_json(f: &Frame) -> Json {
    match f {
        Frame::Record { term, pos, record } => record_frame_json(*term, *pos, record),
        Frame::Mark { term, pos } => Json::obj(vec![
            ("f", Json::Str("mark".into())),
            ("term", Json::UInt(*term)),
            ("pos", Json::UInt(*pos)),
        ]),
        Frame::Snapshot { term, pos, image } => Json::obj(vec![
            ("f", Json::Str("snap".into())),
            ("term", Json::UInt(*term)),
            ("pos", Json::UInt(*pos)),
            ("img", image_to_json(image)),
        ]),
        Frame::Digest { term, pos, digest } => Json::obj(vec![
            ("f", Json::Str("dig".into())),
            ("term", Json::UInt(*term)),
            ("pos", Json::UInt(*pos)),
            ("d", Json::UInt(*digest)),
        ]),
    }
}

/// Parses a frame serialised by [`frame_to_json`].
pub fn frame_from_json(v: &Json) -> Result<Frame, String> {
    let kind = v.req_str("f")?;
    let term = v.req_u64("term")?;
    let pos = v.req_u64("pos")?;
    match kind {
        "rec" => Ok(Frame::Record {
            term,
            pos,
            record: record_from_json(v.req("rec")?)?,
        }),
        "mark" => Ok(Frame::Mark { term, pos }),
        "snap" => Ok(Frame::Snapshot {
            term,
            pos,
            image: Box::new(image_from_json(v.req("img")?)?),
        }),
        "dig" => Ok(Frame::Digest {
            term,
            pos,
            digest: v.req_u64("d")?,
        }),
        other => Err(format!("unknown frame kind {other:?}")),
    }
}

/// Encodes one frame into its CRC-framed wire bytes.
pub fn encode_frame(f: &Frame) -> Vec<u8> {
    frame(frame_to_json(f).to_string_compact().as_bytes())
}

/// Stats tag for an encoded frame (0 record, 1 snapshot, 2 digest,
/// 3 mark) — lets the pump count traffic without holding the decoded
/// frame.
fn frame_kind(f: &Frame) -> u8 {
    match f {
        Frame::Record { .. } => 0,
        Frame::Snapshot { .. } => 1,
        Frame::Digest { .. } => 2,
        Frame::Mark { .. } => 3,
    }
}

/// Encodes the retained journal tail from absolute position `from` as
/// shared wire frames: plain records as [`Frame::Record`], snapshot
/// records as cheap [`Frame::Mark`] boundary crossings (a contiguously
/// streaming receiver already holds the image's state, so re-shipping —
/// or even re-serialising — the image is pure waste). Returns the
/// `(pos, kind, bytes)` triples the pump fans out per link, or `None`
/// when compaction discarded `from` and the link must be seeded with a
/// full snapshot transfer instead.
fn encode_stream_tail(journal: &Journal, term: u64, from: u64) -> Option<Vec<(u64, u8, Vec<u8>)>> {
    let records = journal.records_from(from)?;
    Some(
        records
            .iter()
            .enumerate()
            .map(|(i, record)| {
                let pos = from + i as u64;
                match record {
                    Record::Snapshot(_) => {
                        let f = Frame::Mark { term, pos };
                        (pos, frame_kind(&f), encode_frame(&f))
                    }
                    _ => (
                        pos,
                        0u8,
                        frame(
                            record_frame_json(term, pos, record)
                                .to_string_compact()
                                .as_bytes(),
                        ),
                    ),
                }
            })
            .collect(),
    )
}

/// Decodes a byte run of frames. A torn trailing frame is tolerated
/// (truncated, flagged `true`); corruption is a hard error.
pub fn decode_frames(bytes: &[u8]) -> Result<(Vec<Frame>, bool), String> {
    let deframed = deframe(bytes)?;
    let mut frames = Vec::with_capacity(deframed.payloads.len());
    for (i, payload) in deframed.payloads.iter().enumerate() {
        let text = std::str::from_utf8(payload).map_err(|e| format!("frame {i}: {e}"))?;
        frames.push(
            json::parse(text)
                .and_then(|v| frame_from_json(&v))
                .map_err(|e| format!("frame {i}: {e}"))?,
        );
    }
    Ok((frames, deframed.torn))
}

/// The frames that carry a journal's retained tail from absolute
/// position `from` onward: snapshot records become [`Frame::Snapshot`],
/// everything else [`Frame::Record`]. When compaction already discarded
/// `from`, the transfer restarts from the latest retained snapshot — the
/// compaction-handoff path a lagging follower catches up through.
pub fn tail_frames(journal: &Journal, term: u64, from: u64) -> Vec<Frame> {
    let (start, records) = match journal.records_from(from) {
        Some(records) => (from, records),
        None => {
            let (pos, _) = journal
                .latest_snapshot()
                .expect("a compacted journal retains its compacting snapshot");
            (
                pos,
                journal.records_from(pos).expect("snapshot is retained"),
            )
        }
    };
    records
        .iter()
        .enumerate()
        .map(|(i, record)| {
            let pos = start + i as u64;
            match record {
                Record::Snapshot(img) => Frame::Snapshot {
                    term,
                    pos,
                    image: img.clone(),
                },
                other => Frame::Record {
                    term,
                    pos,
                    record: other.clone(),
                },
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Follower: the synchronous apply state machine.

/// A follower read, stamped with the bounded-staleness contract: the
/// state answer plus the applied-record watermark it reflects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FollowerRead {
    /// The job's state (`{:?}` of `JobState`, matching the leader's
    /// qstat), or `None` when the follower does not know the job.
    pub state: Option<String>,
    /// Every record through this position is reflected in the answer.
    pub watermark: u64,
    /// The leader term the watermark counts under.
    pub term: u64,
}

/// A follower `PbsServer`: applies the replicated stream through the
/// ordinary mutation paths and tracks the contiguous-prefix watermark.
///
/// Tolerates at-least-once, out-of-order delivery: stale frames are
/// ignored, future records parked in a reorder buffer, and only the
/// contiguous prefix is ever applied. Any apply error or digest mismatch
/// poisons the follower — it stops advancing and reports the error — so
/// a diverged replica can never be promoted silently.
#[derive(Debug, Default)]
pub struct Follower {
    server: Option<PbsServer>,
    term: u64,
    applied: u64,
    buffer: BTreeMap<u64, Record>,
    pending_digests: BTreeMap<u64, u64>,
    pending_marks: BTreeSet<u64>,
    torn_frames: u64,
    error: Option<String>,
}

impl Follower {
    /// An uninitialised follower (term 0, nothing applied); the first
    /// snapshot frame seeds it.
    pub fn new() -> Self {
        Follower::default()
    }

    /// The applied-record watermark: every record through this absolute
    /// position is reflected in the follower's state.
    pub fn watermark(&self) -> u64 {
        self.applied
    }

    /// The leader term the follower is tracking (0 before the first
    /// snapshot).
    pub fn term(&self) -> u64 {
        self.term
    }

    /// The replica state, once seeded.
    pub fn server(&self) -> Option<&PbsServer> {
        self.server.as_ref()
    }

    /// The poisoning error, if the follower diverged or failed to apply.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// Torn trailing frames tolerated (truncate-and-warn) so far.
    pub fn torn_frames(&self) -> u64 {
        self.torn_frames
    }

    /// The replica's canonical state digest, once seeded.
    pub fn state_digest(&self) -> Option<String> {
        self.server.as_ref().map(|s| s.state_digest())
    }

    /// Serves a qstat-style read with the staleness stamp.
    pub fn read(&self, job: JobId) -> FollowerRead {
        FollowerRead {
            state: self
                .server
                .as_ref()
                .and_then(|s| s.job(job).ok().map(|j| format!("{:?}", j.state))),
            watermark: self.applied,
            term: self.term,
        }
    }

    /// Surrenders the replica for promotion, with the watermark it is
    /// exact at. The follower is spent afterwards.
    pub fn take_promoted(&mut self) -> Option<(PbsServer, u64)> {
        self.server.take().map(|s| (s, self.applied))
    }

    /// Applies a wire run of frames. Torn trailing frames are truncated
    /// and counted; corruption or divergence poisons the follower.
    pub fn apply_bytes(&mut self, bytes: &[u8]) -> Result<(), String> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        let (frames, torn) = decode_frames(bytes).inspect_err(|e| {
            self.error = Some(e.clone());
        })?;
        if torn {
            self.torn_frames += 1;
        }
        for f in frames {
            self.apply_frame(f)?;
        }
        Ok(())
    }

    /// Applies one frame (see the module contract for ordering rules).
    pub fn apply_frame(&mut self, frame: Frame) -> Result<(), String> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        let result = self.apply_frame_inner(frame);
        if let Err(e) = &result {
            self.error = Some(e.clone());
        }
        result
    }

    fn apply_frame_inner(&mut self, frame: Frame) -> Result<(), String> {
        match frame {
            Frame::Record { term, pos, record } => {
                // A never-seeded follower adopts the stream's term so
                // reordered records can park in the buffer ahead of the
                // seeding snapshot. Once seeded, records from another
                // term are ignored: a new leader always seeds with its
                // genesis snapshot first, and the hub keeps resending
                // until the watermark moves.
                if self.term == 0 {
                    self.term = term;
                }
                if term != self.term || pos <= self.applied {
                    return Ok(());
                }
                if pos == self.applied + 1 {
                    self.apply_one(pos, record)?;
                    self.drain_buffer()
                } else {
                    self.buffer.insert(pos, record);
                    Ok(())
                }
            }
            Frame::Mark { term, pos } => {
                // Same ordering rules as a record: the marked position is
                // a snapshot record whose image is the state after
                // `pos - 1` — a caught-up replica crosses it in place.
                if self.term == 0 {
                    self.term = term;
                }
                if term != self.term || pos <= self.applied {
                    return Ok(());
                }
                if pos == self.applied + 1 && self.server.is_some() {
                    self.applied = pos;
                    self.check_digests()?;
                    self.drain_buffer()
                } else {
                    self.pending_marks.insert(pos);
                    Ok(())
                }
            }
            Frame::Snapshot { term, pos, image } => {
                if term < self.term {
                    return Ok(());
                }
                if term == self.term && self.server.is_some() {
                    if pos == self.applied || pos == self.applied + 1 {
                        // Snapshot boundary: the leader's image at `pos`
                        // is the state after records 1..pos-1 — exactly
                        // what this replica holds. Verify byte-identity.
                        self.verify_image(pos, &image)?;
                        self.applied = self.applied.max(pos);
                        return self.drain_buffer();
                    }
                    if pos <= self.applied {
                        return Ok(()); // stale duplicate
                    }
                }
                self.install(term, pos, &image)
            }
            Frame::Digest { term, pos, digest } => {
                if self.term == 0 {
                    self.term = term;
                }
                if term != self.term || pos < self.applied {
                    return Ok(());
                }
                if pos == self.applied {
                    self.verify_digest(pos, digest)
                } else {
                    self.pending_digests.insert(pos, digest);
                    Ok(())
                }
            }
        }
    }

    /// Installs a catch-up image: state jumps to `pos`. Buffered records
    /// the image already covers are dropped; later ones stay applicable.
    fn install(&mut self, term: u64, pos: u64, image: &ServerImage) -> Result<(), String> {
        let server = PbsServer::from_image(image).map_err(|e| e.to_string())?;
        if term != self.term {
            self.buffer.clear();
            self.pending_digests.clear();
            self.pending_marks.clear();
            self.term = term;
        } else {
            self.buffer.retain(|&p, _| p > pos);
            self.pending_digests.retain(|&p, _| p >= pos);
            self.pending_marks.retain(|&p| p > pos);
        }
        self.server = Some(server);
        self.applied = pos;
        self.check_digests()?;
        self.drain_buffer()
    }

    /// Applies the next contiguous record through the leader's own
    /// [`PbsServer::execute`]; the replica has no journal, so nothing is
    /// appended. A snapshot never arrives this way — the stream carries
    /// one as [`Frame::Snapshot`] or crosses it with [`Frame::Mark`] — so
    /// a `Record::Snapshot` here is corrupt or hostile input: `execute`
    /// refuses it and the follower poisons, instead of installing an image
    /// nobody vouched for.
    fn apply_one(&mut self, pos: u64, record: Record) -> Result<(), String> {
        let server = self
            .server
            .as_mut()
            .ok_or_else(|| format!("record {pos} before any snapshot"))?;
        server
            .execute(record)
            .map_err(|e| format!("apply of record {pos} failed: {e}"))?;
        self.applied = pos;
        self.check_digests()
    }

    fn drain_buffer(&mut self) -> Result<(), String> {
        loop {
            let next = self.applied + 1;
            if self.pending_marks.remove(&next) {
                self.applied = next;
                self.check_digests()?;
            } else if let Some(record) = self.buffer.remove(&next) {
                self.apply_one(next, record)?;
            } else {
                return Ok(());
            }
        }
    }

    fn verify_image(&self, pos: u64, image: &ServerImage) -> Result<(), String> {
        let own = self
            .server
            .as_ref()
            .expect("verify requires a seeded replica")
            .state_digest();
        let theirs = image_to_json(image).to_string_compact();
        if own == theirs {
            Ok(())
        } else {
            Err(format!(
                "replica diverged at snapshot boundary {pos}: \
                 follower {:#018x} vs leader {:#018x}",
                digest64(own.as_bytes()),
                digest64(theirs.as_bytes())
            ))
        }
    }

    fn verify_digest(&self, pos: u64, digest: u64) -> Result<(), String> {
        let own = digest64(
            self.server
                .as_ref()
                .expect("digest check requires a seeded replica")
                .state_digest()
                .as_bytes(),
        );
        if own == digest {
            Ok(())
        } else {
            Err(format!(
                "replica diverged at digest check {pos}: \
                 follower {own:#018x} vs leader {digest:#018x}"
            ))
        }
    }

    /// Verifies (and discards) digest checks the watermark has reached.
    /// Checks for positions the replica jumped past are unverifiable and
    /// dropped.
    fn check_digests(&mut self) -> Result<(), String> {
        while let Some((&pos, &digest)) = self.pending_digests.iter().next() {
            if pos < self.applied {
                self.pending_digests.remove(&pos);
            } else if pos == self.applied {
                self.pending_digests.remove(&pos);
                self.verify_digest(pos, digest)?;
            } else {
                break;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Follower threads.

/// A watermark/health report from a follower thread.
#[derive(Debug, Clone)]
pub struct WatermarkReply {
    /// Leader term the follower tracks.
    pub term: u64,
    /// Applied-record watermark under that term.
    pub applied: u64,
    /// The poisoning error, when the replica diverged.
    pub error: Option<String>,
    /// Torn trailing frames tolerated so far.
    pub torn_frames: u64,
}

/// Messages into a follower thread.
pub enum FollowerMsg {
    /// A wire run of encoded frames.
    Frames(Vec<u8>),
    /// Report term/watermark/health.
    Watermark(Sender<WatermarkReply>),
    /// Serve a watermark-stamped read.
    Read {
        /// The queried job.
        job: JobId,
        /// Where the answer goes.
        reply: Sender<FollowerRead>,
    },
    /// Report the replica's state digest (`None` before seeding).
    DigestQuery(Sender<Option<String>>),
    /// Surrender the replica for promotion; the thread exits after
    /// replying.
    Promote(Sender<Option<(Box<PbsServer>, u64)>>),
    /// Simulated process death: all replica state is dropped; the
    /// follower re-seeds from the next snapshot transfer.
    Crash,
    /// Orderly exit.
    Shutdown,
}

/// A handle to a follower thread: the hub's streaming/ack endpoint plus
/// cloneable read ports for offloaded queries.
pub struct FollowerHandle {
    name: String,
    tx: Sender<FollowerMsg>,
    join: Option<JoinHandle<()>>,
}

/// A cloneable read-only port onto a follower thread — what qstat
/// offloading hands out to reader clients.
#[derive(Clone)]
pub struct FollowerReader {
    tx: Sender<FollowerMsg>,
}

impl FollowerReader {
    /// A watermark-stamped read; `None` when the follower is gone.
    pub fn read(&self, job: JobId) -> Option<FollowerRead> {
        let (tx, rx) = channel();
        self.tx.send(FollowerMsg::Read { job, reply: tx }).ok()?;
        rx.recv_timeout(Duration::from_secs(10)).ok()
    }
}

impl FollowerHandle {
    /// Spawns a follower thread named `name` (thread-leak checks key on
    /// the name prefix).
    pub fn spawn(name: &str) -> FollowerHandle {
        let (tx, rx) = channel();
        let join = thread::Builder::new()
            .name(name.to_owned())
            .spawn(move || follower_main(rx))
            .expect("spawn follower thread");
        FollowerHandle {
            name: name.to_owned(),
            tx,
            join: Some(join),
        }
    }

    /// The follower's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A cloneable read port.
    pub fn reader(&self) -> FollowerReader {
        FollowerReader {
            tx: self.tx.clone(),
        }
    }

    /// Sends a message; `false` when the thread is gone.
    pub fn send(&self, msg: FollowerMsg) -> bool {
        self.tx.send(msg).is_ok()
    }

    /// Synchronous watermark/health query; `None` when the thread is
    /// gone or wedged.
    pub fn watermark(&self) -> Option<WatermarkReply> {
        let (tx, rx) = channel();
        self.tx.send(FollowerMsg::Watermark(tx)).ok()?;
        rx.recv_timeout(Duration::from_secs(30)).ok()
    }

    /// Synchronous state-digest query.
    pub fn digest(&self) -> Option<String> {
        let (tx, rx) = channel();
        self.tx.send(FollowerMsg::DigestQuery(tx)).ok()?;
        rx.recv_timeout(Duration::from_secs(30)).ok()?
    }

    /// Promotes: the thread surrenders its replica (with watermark) and
    /// exits; the handle joins it.
    pub fn promote(mut self) -> Option<(PbsServer, u64)> {
        let (tx, rx) = channel();
        self.tx.send(FollowerMsg::Promote(tx)).ok()?;
        let got = rx.recv_timeout(Duration::from_secs(30)).ok()?;
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
        got.map(|(server, watermark)| (*server, watermark))
    }

    /// Orderly shutdown: signals the thread and joins it.
    pub fn shutdown(mut self) {
        let _ = self.tx.send(FollowerMsg::Shutdown);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for FollowerHandle {
    fn drop(&mut self) {
        // Dropped without shutdown/promote (hub teardown on error
        // paths): still signal and join — no leaked threads, ever.
        let _ = self.tx.send(FollowerMsg::Shutdown);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

fn follower_main(rx: Receiver<FollowerMsg>) {
    let mut f = Follower::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            FollowerMsg::Frames(bytes) => {
                // Errors poison the follower; surfaced via Watermark.
                let _ = f.apply_bytes(&bytes);
            }
            FollowerMsg::Watermark(reply) => {
                let _ = reply.send(WatermarkReply {
                    term: f.term(),
                    applied: f.watermark(),
                    error: f.error().map(str::to_owned),
                    torn_frames: f.torn_frames(),
                });
            }
            FollowerMsg::Read { job, reply } => {
                let _ = reply.send(f.read(job));
            }
            FollowerMsg::DigestQuery(reply) => {
                let _ = reply.send(f.state_digest());
            }
            FollowerMsg::Promote(reply) => {
                let _ = reply.send(
                    f.take_promoted()
                        .map(|(server, watermark)| (Box::new(server), watermark)),
                );
                return;
            }
            FollowerMsg::Crash => f = Follower::new(),
            FollowerMsg::Shutdown => return,
        }
    }
}

// ---------------------------------------------------------------------------
// Replication fault plan.

/// A scheduled follower "process death" (state dropped, thread stays):
/// fires once the leader has appended `after_record` records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FollowerCrash {
    /// Which follower (hub index).
    pub follower: usize,
    /// Leader `total_appended` coordinate the crash fires at.
    pub after_record: u64,
}

/// Seeded faults on the replication stream. Stream faults only delay
/// convergence (the hub resends, followers reorder-buffer); follower
/// crashes force snapshot re-seeding. Leader kills are scheduled by the
/// daemon's `FaultPlan`, not here — killing the leader is not a stream
/// fault.
#[derive(Debug, Clone, Default)]
pub struct ReplFaultPlan {
    /// Seed for the per-frame fault draws.
    pub seed: u64,
    /// Per-frame probability (‰) the frame is silently dropped.
    pub drop_permille: u32,
    /// Per-frame probability (‰) delivery is deferred one pump.
    pub delay_permille: u32,
    /// Per-batch probability (‰) the pump's frames are shuffled.
    pub reorder_permille: u32,
    /// Scheduled follower crashes.
    pub follower_crashes: Vec<FollowerCrash>,
}

impl ReplFaultPlan {
    /// No faults (the seed is kept for derived draws).
    pub fn none(seed: u64) -> Self {
        ReplFaultPlan {
            seed,
            ..ReplFaultPlan::default()
        }
    }

    /// Derives a fault mix from a seed: moderate drop/delay/reorder
    /// pressure plus possible follower crashes inside `horizon` records.
    ///
    /// Convention (same as `FaultPlan::from_seed`): any NEW field must be
    /// drawn *after* all existing ones so previously pinned seeds keep
    /// their fault pressure.
    pub fn from_seed(seed: u64, followers: usize, horizon: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x5245_504c_4943_4154);
        let drop_permille = rng.next_below(150) as u32;
        let delay_permille = rng.next_below(200) as u32;
        let reorder_permille = rng.next_below(250) as u32;
        let mut follower_crashes = Vec::new();
        for follower in 0..followers {
            if rng.chance_permille(300) {
                follower_crashes.push(FollowerCrash {
                    follower,
                    after_record: 1 + rng.next_below(horizon.max(1)),
                });
            }
        }
        ReplFaultPlan {
            seed,
            drop_permille,
            delay_permille,
            reorder_permille,
            follower_crashes,
        }
    }
}

// ---------------------------------------------------------------------------
// The leader-side hub.

/// Hub configuration.
#[derive(Debug, Clone)]
pub struct HubConfig {
    /// Emit a rolling-digest frame every this many records (0 = off).
    pub digest_every: u64,
    /// Refresh follower watermarks every this many pumps (min 1). The
    /// refresh is a synchronous round-trip per live follower — exact,
    /// but the latency is the whole pump cost on a hot path. Shipping
    /// frames never waits for it: a higher setting just batches ack
    /// visibility (go-back-N reacts at the next refresh), and every
    /// consumer that *needs* a fresh watermark (`await_replicated`,
    /// `fail_over`) forces one itself.
    pub ack_every: u64,
    /// Stream faults.
    pub faults: ReplFaultPlan,
}

impl Default for HubConfig {
    fn default() -> Self {
        HubConfig {
            digest_every: 32,
            ack_every: 1,
            faults: ReplFaultPlan::none(0),
        }
    }
}

/// Streaming counters, exposed to tests and the perf harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct HubStats {
    /// Pumps run.
    pub pumps: u64,
    /// Record frames sent (including resends).
    pub records_sent: u64,
    /// Snapshot frames sent (seeding + catch-up transfers).
    pub snapshots_sent: u64,
    /// Boundary-marker frames sent (caught-up compaction crossings).
    pub marks_sent: u64,
    /// Digest frames sent.
    pub digests_sent: u64,
    /// Frames dropped by fault injection.
    pub frames_dropped: u64,
    /// Go-back-N resend episodes (stalled watermark).
    pub resends: u64,
    /// Follower crashes injected by the fault plan.
    pub follower_crashes: u64,
}

struct Link {
    handle: FollowerHandle,
    /// Term of the follower's last watermark report.
    acked_term: u64,
    /// Last reported applied watermark (0 when on another term).
    acked: u64,
    /// Highest position optimistically shipped this term.
    sent_through: u64,
    /// `acked` at the previous pump — stall (go-back-N) detection.
    last_acked: u64,
    /// Frames deferred by the delay fault, delivered next pump.
    delayed: VecDeque<Vec<u8>>,
    /// Outstanding scheduled crashes, ascending.
    crashes: VecDeque<u64>,
    alive: bool,
}

/// One pump's outcome.
#[derive(Debug, Clone, Default)]
pub struct PumpReport {
    /// Leader `total_appended` at pump time.
    pub target: u64,
    /// Min live-follower watermark after the pump's ack refresh (`None`
    /// with no live followers).
    pub replicated: Option<u64>,
    /// Divergence/poisoning errors reported by followers.
    pub errors: Vec<String>,
}

/// What a completed failover reports: what was promoted, at which
/// watermark, and — per the ack mode — what the dead leader took with it.
#[derive(Debug, Clone)]
pub struct FailoverReport {
    /// The term the promoted leader serves under.
    pub new_term: u64,
    /// Name of the promoted follower.
    pub promoted: String,
    /// The promoted replica is byte-identical to the dead leader at this
    /// watermark.
    pub promoted_watermark: u64,
    /// The dead leader's final `total_appended`.
    pub old_appended: u64,
    /// Tail records the dead leader appended but never replicated —
    /// explicitly reported lost.
    pub lost_records: u64,
    /// Of the lost tail, how many had been *acked* to clients. Zero by
    /// construction for a host that releases acks only after
    /// [`ReplicationHub::await_replicated`], as the daemon does.
    pub acked_lost: u64,
}

/// The leader-side replication hub: owns the follower threads, streams
/// the journal tail to each, refreshes acked watermarks, injects stream
/// faults, and runs failover.
///
/// Everything is driven from the owner's thread by [`ReplicationHub::pump`]
/// — the hub never spawns its own timers, so streaming is deterministic
/// given the pump sequence and the fault seed.
pub struct ReplicationHub {
    term: u64,
    digest_every: u64,
    next_digest_at: u64,
    ack_every: u64,
    deferred_errors: Vec<String>,
    faults: ReplFaultPlan,
    rng: SplitMix64,
    links: Vec<Link>,
    stats: HubStats,
}

impl ReplicationHub {
    /// A hub at term 1 with no followers yet.
    pub fn new(cfg: HubConfig) -> Self {
        let rng = SplitMix64::new(cfg.faults.seed ^ 0x4855_4221);
        ReplicationHub {
            term: 1,
            digest_every: cfg.digest_every,
            next_digest_at: if cfg.digest_every > 0 {
                cfg.digest_every
            } else {
                u64::MAX
            },
            ack_every: cfg.ack_every.max(1),
            deferred_errors: Vec::new(),
            faults: cfg.faults,
            rng,
            links: Vec::new(),
            stats: HubStats::default(),
        }
    }

    /// Spawns and attaches a follower thread named `name`. Crash faults
    /// scheduled for this follower index bind to it.
    pub fn add_follower(&mut self, name: &str) {
        let idx = self.links.len();
        let mut crashes: Vec<u64> = self
            .faults
            .follower_crashes
            .iter()
            .filter(|c| c.follower == idx)
            .map(|c| c.after_record)
            .collect();
        crashes.sort_unstable();
        self.links.push(Link {
            handle: FollowerHandle::spawn(name),
            acked_term: 0,
            acked: 0,
            sent_through: 0,
            last_acked: 0,
            delayed: VecDeque::new(),
            crashes: crashes.into(),
            alive: true,
        });
    }

    /// The current leader term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Streaming counters.
    pub fn stats(&self) -> HubStats {
        self.stats
    }

    /// Cached acked watermark per follower (0 for dead followers or
    /// followers still on another term) — conservative, refreshed each
    /// pump, exactly what staleness routing needs.
    pub fn acked_watermarks(&self) -> Vec<u64> {
        self.links
            .iter()
            .map(|l| {
                if l.alive && l.acked_term == self.term {
                    l.acked
                } else {
                    0
                }
            })
            .collect()
    }

    /// Follower names, hub-index order.
    pub fn follower_names(&self) -> Vec<String> {
        self.links
            .iter()
            .map(|l| l.handle.name().to_owned())
            .collect()
    }

    /// A read port onto follower `idx`.
    pub fn reader(&self, idx: usize) -> Option<FollowerReader> {
        self.links.get(idx).map(|l| l.handle.reader())
    }

    /// A watermark-stamped read from follower `idx` (synchronous).
    pub fn read_follower(&self, idx: usize, job: JobId) -> Option<FollowerRead> {
        self.links.get(idx)?.handle.reader().read(job)
    }

    /// Follower `idx`'s state digest (synchronous; drains its stream
    /// backlog first by channel order).
    pub fn follower_digest(&self, idx: usize) -> Option<String> {
        self.links.get(idx)?.handle.digest()
    }

    /// Min live-follower acked watermark this term — the replicated
    /// watermark acks may gate on. `None` with no live followers (a
    /// degenerate single-copy deployment: nothing to wait for).
    pub fn replicated_watermark(&self) -> Option<u64> {
        self.links
            .iter()
            .filter(|l| l.alive)
            .map(|l| {
                if l.acked_term == self.term {
                    l.acked
                } else {
                    0
                }
            })
            .min()
    }

    /// One streaming round: refresh each live follower's watermark,
    /// inject due faults, and ship the journal tail (go-back-N from the
    /// acked watermark on stall; snapshot transfer when the tail was
    /// compacted away).
    pub fn pump(&mut self, leader: &PbsServer) -> PumpReport {
        let journal = leader
            .journal()
            .expect("replication requires the leader to journal");
        let target = journal.total_appended();
        self.stats.pumps += 1;
        // Watermark queries are synchronous round-trips; batching them to
        // every `ack_every`-th pump keeps the ship path one-way. Their
        // replies sit behind all sent frames (channel FIFO), so the values
        // read on a sync pump are identical to what per-pump polling would
        // have read — only the *visibility* of progress is batched.
        let sync = self.ack_every <= 1 || self.stats.pumps.is_multiple_of(self.ack_every);
        let digest_frame = if target >= self.next_digest_at {
            self.next_digest_at = target + self.digest_every;
            Some(Frame::Digest {
                term: self.term,
                pos: target,
                digest: digest64(leader.state_digest().as_bytes()),
            })
        } else {
            None
        };
        let mut report = PumpReport {
            target,
            ..PumpReport::default()
        };
        let term = self.term;
        for link in &mut self.links {
            if !link.alive {
                continue;
            }
            // Deliver frames the delay fault deferred last pump, as one
            // concatenated byte run (the follower deframes runs).
            if !link.delayed.is_empty() {
                let mut run: Vec<u8> = Vec::new();
                for bytes in link.delayed.drain(..) {
                    run.extend_from_slice(&bytes);
                }
                if !link.handle.send(FollowerMsg::Frames(run)) {
                    link.alive = false;
                }
            }
            // Scheduled follower crash: state dropped, thread stays; the
            // follower re-seeds below via snapshot transfer.
            while link.crashes.front().is_some_and(|&c| target >= c) {
                link.crashes.pop_front();
                link.handle.send(FollowerMsg::Crash);
                link.acked_term = 0;
                link.acked = 0;
                link.sent_through = 0;
                link.last_acked = 0;
                link.delayed.clear();
                self.stats.follower_crashes += 1;
            }
            if sync {
                Self::refresh_link(link, term, &mut self.stats, &mut self.deferred_errors);
            }
        }
        report.errors.append(&mut self.deferred_errors);
        // Shared encode cache: every contiguously-streaming link needs the
        // same tail modulo its start position, so serialize each record
        // once per pump and hand each link a byte-clone of its suffix.
        // Snapshot records cross as Mark frames — valid only for a
        // follower that already holds the boundary state. A link that has
        // never acked (fresh, or reset after a crash) has a stateless
        // follower and takes the per-link seed path below: a full
        // snapshot transfer it can install, never a Mark it cannot cross.
        let needs_seed = |l: &Link| l.sent_through == 0 && l.acked == 0;
        let min_from = self
            .links
            .iter()
            .filter(|l| l.alive && l.sent_through < target && !needs_seed(l))
            .map(|l| l.sent_through + 1)
            .min();
        let shared: Option<Vec<(u64, u8, Vec<u8>)>> =
            min_from.and_then(|from| encode_stream_tail(journal, term, from));
        let digest_encoded = digest_frame
            .as_ref()
            .map(|d| (d.pos(), frame_kind(d), encode_frame(d)));
        for link in &mut self.links {
            if !link.alive {
                continue;
            }
            if link.sent_through >= target && digest_encoded.is_none() {
                continue;
            }
            let from = link.sent_through + 1;
            let seed = needs_seed(link);
            let mut frames: Vec<(u64, u8, Vec<u8>)> = if link.sent_through >= target {
                Vec::new()
            } else if let Some(cache) = (!seed).then_some(shared.as_ref()).flatten() {
                cache
                    .iter()
                    .filter(|(pos, _, _)| *pos >= from)
                    .cloned()
                    .collect()
            } else {
                // Seed / heal: a stateless follower, or a start the
                // compactor already discarded — restart the link with a
                // snapshot image it can install, then plain records.
                tail_frames(journal, term, from)
                    .iter()
                    .map(|f| (f.pos(), frame_kind(f), encode_frame(f)))
                    .collect()
            };
            if let Some(d) = &digest_encoded {
                frames.push(d.clone());
            }
            if frames.len() >= 2 && self.rng.chance_permille(self.faults.reorder_permille) {
                self.rng.shuffle(&mut frames);
            }
            let mut out: Vec<u8> = Vec::new();
            for (_, kind, bytes) in frames {
                match kind {
                    0 => self.stats.records_sent += 1,
                    1 => self.stats.snapshots_sent += 1,
                    2 => self.stats.digests_sent += 1,
                    _ => self.stats.marks_sent += 1,
                }
                if self.rng.chance_permille(self.faults.drop_permille) {
                    self.stats.frames_dropped += 1;
                    continue;
                }
                if self.rng.chance_permille(self.faults.delay_permille) {
                    link.delayed.push_back(bytes);
                    continue;
                }
                out.extend_from_slice(&bytes);
            }
            // One channel send per link per pump: every surviving frame
            // rides a single concatenated run, so the follower thread is
            // woken once, not once per record.
            if !out.is_empty() && !link.handle.send(FollowerMsg::Frames(out)) {
                link.alive = false;
            }
            link.sent_through = target;
        }
        report.replicated = self.replicated_watermark();
        report
    }

    /// One synchronous watermark round-trip for `link`: refresh the acked
    /// cursor, detect a stalled stream (go-back-N resend from the acked
    /// prefix), and stash any follower-reported divergence.
    fn refresh_link(link: &mut Link, term: u64, stats: &mut HubStats, errors: &mut Vec<String>) {
        let Some(reply) = link.handle.watermark() else {
            link.alive = false;
            return;
        };
        if let Some(e) = reply.error {
            errors.push(format!("{}: {e}", link.handle.name()));
        }
        link.acked_term = reply.term;
        link.acked = if reply.term == term { reply.applied } else { 0 };
        // Go-back-N: watermark stalled below what we shipped — assume
        // loss, resend from the acked prefix.
        if link.acked < link.sent_through && link.acked == link.last_acked {
            link.sent_through = link.acked;
            stats.resends += 1;
        }
        link.last_acked = link.acked;
        link.sent_through = link.sent_through.max(link.acked);
    }

    /// Forces a watermark round-trip on every live link, regardless of
    /// `ack_every` phase. Consumers that need fresh visibility between
    /// pumps ([`ReplicationHub::await_replicated`], a driver's converge
    /// loop) call this; any follower-reported error surfaces in the next
    /// pump's report.
    pub fn refresh_acks(&mut self) {
        let term = self.term;
        for link in &mut self.links {
            if link.alive {
                Self::refresh_link(link, term, &mut self.stats, &mut self.deferred_errors);
            }
        }
    }

    /// Pumps until every live follower has acked `through` (the gate a
    /// host holds its acks behind). Faults only delay convergence, so
    /// this terminates; the iteration bound is a wedge guard.
    pub fn await_replicated(&mut self, leader: &PbsServer, through: u64) -> bool {
        for _ in 0..100_000 {
            match self.replicated_watermark() {
                None => return true,
                Some(w) if w >= through => return true,
                _ => {}
            }
            self.pump(leader);
            if self.ack_every > 1 {
                // Batched-ack configs only poll watermarks every few pumps;
                // the gate needs fresh visibility *now*.
                self.refresh_acks();
            }
        }
        false
    }

    /// Leader failover: drains every live follower's stream, promotes
    /// the highest-watermark one (ties break on hub order), bumps the
    /// term, and resets the survivors to re-seed from the new leader's
    /// genesis snapshot on the next pump.
    ///
    /// The caller supplies the dead leader's final `total_appended` and
    /// the watermark through which commands were acked; the report
    /// accounts the unreplicated tail against both. The returned server
    /// has journaling *off* — the caller re-arms per-process flags and
    /// re-enables the journal (its genesis snapshot opens the new term).
    pub fn fail_over(
        &mut self,
        old_appended: u64,
        acked_through: u64,
    ) -> Result<(PbsServer, FailoverReport), String> {
        let mut best: Option<(usize, u64)> = None;
        for (i, link) in self.links.iter_mut().enumerate() {
            if !link.alive {
                continue;
            }
            while let Some(bytes) = link.delayed.pop_front() {
                link.handle.send(FollowerMsg::Frames(bytes));
            }
            let Some(reply) = link.handle.watermark() else {
                link.alive = false;
                continue;
            };
            if reply.error.is_some() || reply.term != self.term {
                continue; // never promote a diverged or stale-term replica
            }
            if best.is_none_or(|(_, w)| reply.applied > w) {
                best = Some((i, reply.applied));
            }
        }
        let (idx, _) = best.ok_or("no live follower to promote")?;
        let link = self.links.remove(idx);
        let promoted_name = link.handle.name().to_owned();
        let (server, watermark) = link
            .handle
            .promote()
            .ok_or("promoted follower had no replica state")?;
        self.term += 1;
        self.next_digest_at = if self.digest_every > 0 {
            self.digest_every
        } else {
            u64::MAX
        };
        for l in &mut self.links {
            l.acked_term = 0;
            l.acked = 0;
            l.sent_through = 0;
            l.last_acked = 0;
            l.delayed.clear();
        }
        let lost_records = old_appended.saturating_sub(watermark);
        let report = FailoverReport {
            new_term: self.term,
            promoted: promoted_name,
            promoted_watermark: watermark,
            old_appended,
            lost_records,
            acked_lost: acked_through.saturating_sub(watermark),
        };
        Ok((server, report))
    }

    /// Shuts down every follower thread and joins it.
    pub fn shutdown(&mut self) {
        for link in self.links.drain(..) {
            link.handle.shutdown();
        }
    }
}

// ---------------------------------------------------------------------------
// Read routing with the read-your-writes staleness bound.

/// Routes qstat-style reads to followers under the bounded-staleness
/// contract: a connection's reads only go to a follower whose acked
/// watermark covers the connection's last write — otherwise the read
/// falls back to the leader, so an acked write can never be un-observed.
///
/// Only writes some follower has yet to ack are remembered. Once every
/// serving follower has acked position `p`, no write at or below `p`
/// constrains a pick, so those entries are dropped and `p` becomes the
/// `floor` every connection without an entry is held to: a follower that
/// later falls back below it (crashed and re-seeding) serves nobody until
/// it has caught up again. Positions are one term's coordinates — the
/// host starts a fresh router when a failover opens a new term.
#[derive(Debug, Default)]
pub struct ReadRouter {
    last_write: HashMap<u64, u64>,
    floor: u64,
    rr: usize,
}

impl ReadRouter {
    /// Notes that `conn` wrote at journal position `watermark`; `acked`
    /// is each follower's acked watermark, as for [`ReadRouter::pick`].
    pub fn note_write(&mut self, conn: u64, watermark: u64, acked: &[u64]) {
        self.raise_floor(acked);
        if watermark > self.floor {
            let w = self.last_write.entry(conn).or_insert(0);
            *w = (*w).max(watermark);
        }
    }

    /// The watermark a follower must have acked to serve `conn`.
    pub fn required_watermark(&self, conn: u64) -> u64 {
        self.last_write.get(&conn).copied().unwrap_or(self.floor)
    }

    /// Picks a follower (round-robin among those satisfying the bound)
    /// for `conn`'s read; `None` means serve from the leader.
    pub fn pick(&mut self, conn: u64, acked: &[u64]) -> Option<usize> {
        self.raise_floor(acked);
        // Watermark 0 is a dead or unseeded follower: it has no state to
        // answer from, whatever the connection needs.
        let need = self.required_watermark(conn).max(1);
        let n = acked.len();
        for k in 0..n {
            let i = (self.rr + k) % n;
            if acked[i] >= need {
                self.rr = (i + 1) % n;
                return Some(i);
            }
        }
        None
    }

    /// Lifts the floor to the lowest watermark among followers that can
    /// serve at all, and forgets the writes it now covers.
    fn raise_floor(&mut self, acked: &[u64]) {
        let serving = acked.iter().copied().filter(|&a| a > 0).min();
        if let Some(min) = serving.filter(|&min| min > self.floor) {
            self.floor = min;
            self.last_write.retain(|_, w| *w > min);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::submit;
    use dynbatch_cluster::Cluster;
    use dynbatch_core::{
        AllocPolicy, DfsConfig, GroupId, JobSpec, SchedulerConfig, SimDuration, SimTime, UserId,
    };
    use dynbatch_sched::Maui;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn rigid(name: &str, user: u32, cores: u32, secs: u64) -> JobSpec {
        JobSpec::rigid(
            name,
            UserId(user),
            GroupId(0),
            cores,
            SimDuration::from_secs(secs),
        )
    }

    fn hp_maui() -> Maui {
        let mut cfg = SchedulerConfig::paper_eval();
        cfg.dfs = DfsConfig::highest_priority();
        Maui::new(cfg)
    }

    fn cycle(server: &mut PbsServer, maui: &mut Maui, now: SimTime) {
        server.run_cycle(maui, now);
    }

    /// A journaled leader driven through a small but eventful script:
    /// submits, scheduler starts, completions, a qdel.
    fn scripted_leader(snapshot_every: usize) -> PbsServer {
        let mut s = PbsServer::new(Cluster::homogeneous(15, 8), AllocPolicy::Pack);
        s.enable_journal(snapshot_every);
        let mut m = hp_maui();
        let mut ids = Vec::new();
        for k in 0..6u64 {
            let id = submit(
                &mut s,
                rigid(&format!("J{k}"), (k % 3) as u32, 8, 50 + k),
                t(k),
            )
            .unwrap();
            ids.push(id);
            cycle(&mut s, &mut m, t(k));
        }
        s.execute(Record::Finish {
            job: ids[0],
            now: t(20),
        })
        .unwrap();
        s.execute(Record::Qdel {
            job: ids[5],
            now: t(21),
        })
        .unwrap();
        cycle(&mut s, &mut m, t(22));
        s.execute(Record::Finish {
            job: ids[1],
            now: t(30),
        })
        .unwrap();
        cycle(&mut s, &mut m, t(31));
        s
    }

    /// Nobody drains a follower's delta log, so it must record nothing (it
    /// used to keep an entry per start, finish and resize for as long as it
    /// followed). Promoted, its first log is self-contained: the scheduler
    /// rebuilds, is told the usage totals, and decides what the reference
    /// decides.
    #[test]
    fn a_follower_records_no_deltas_and_its_first_cycle_after_promotion_rebuilds() {
        use dynbatch_sched::reference::iterate_naive;
        use dynbatch_sched::ProfileDelta;

        let mut leader = PbsServer::new(Cluster::homogeneous(15, 8), AllocPolicy::Pack);
        leader.enable_journal(0);
        let mut m = hp_maui();
        // 5 000 jobs through the machine, fifteen at a time: 10 000 start
        // and finish records (and 5 000 submissions).
        let mut live = std::collections::VecDeque::new();
        for k in 0..5_000u64 {
            live.push_back(submit(&mut leader, rigid("J", (k % 7) as u32, 8, 100), t(k)).unwrap());
            if live.len() == 15 {
                leader
                    .execute(Record::Finish {
                        job: live.pop_front().unwrap(),
                        now: t(k),
                    })
                    .unwrap();
            }
            cycle(&mut leader, &mut m, t(k));
        }
        // A backlog for the promoted server's first cycle to decide on.
        let now = t(5_000);
        for job in live.drain(..5) {
            leader.execute(Record::Finish { job, now }).unwrap();
        }
        for k in 0..8 {
            submit(&mut leader, rigid("Q", k, 8 + k, 100), now).unwrap();
        }

        let journal = leader.journal().unwrap();
        assert!(journal.total_appended() > 14_900);
        let mut follower = Follower::new();
        for f in tail_frames(journal, 1, 1) {
            follower.apply_frame(f).unwrap();
            assert_eq!(follower.server().unwrap().delta_log_len(), 0);
        }
        let (mut promoted, _) = follower.take_promoted().unwrap();

        let snap = promoted.snapshot_incremental(now);
        let log = snap.deltas.as_ref().unwrap();
        assert_eq!(log.base_epoch, 0);
        let totals = log.deltas.iter().map(|d| match *d {
            ProfileDelta::Charged { user, core_ms, at } if at == now => (user, core_ms),
            ref other => panic!("{other:?} in a first log"),
        });
        let told: Vec<_> = totals.collect();
        assert_eq!(told, promoted.usage().collect::<Vec<_>>());
        assert_eq!(told.len(), 7);
        let mut fresh = hp_maui();
        let outcome = fresh.iterate(&snap);
        assert_eq!(outcome, iterate_naive(&mut hp_maui(), &snap));
        assert!(outcome.starts.len() > 2, "the freed cores are handed out");
        assert_eq!(fresh.timeline_stats().rebuilds, 1);
        // From here on the promoted server is drained, and records.
        drop(snap);
        promoted.apply(&outcome, now);
        assert_eq!(promoted.delta_log_len(), outcome.starts.len());
    }

    #[test]
    fn crc_framing_roundtrip() {
        let payloads: Vec<&[u8]> = vec![b"hello", b"", b"{\"k\":1}"];
        let mut wire = Vec::new();
        for p in &payloads {
            wire.extend_from_slice(&frame(p));
        }
        let got = deframe(&wire).unwrap();
        assert!(!got.torn);
        assert_eq!(got.payloads, payloads);
    }

    #[test]
    fn bit_flip_is_hard_error_truncation_is_torn() {
        let mut wire = frame(b"abcdef");
        wire.extend_from_slice(&frame(b"ghijkl"));
        // Bit-flip inside the second payload: CRC catches it.
        let mut flipped = wire.clone();
        let n = flipped.len();
        flipped[n - 3] ^= 0x40;
        let err = deframe(&flipped).unwrap_err();
        assert!(err.contains("CRC mismatch"), "{err}");
        // Truncation mid-frame: torn tail, intact prefix survives.
        for cut in 1..8 + 6 {
            let got = deframe(&wire[..wire.len() - cut]).unwrap();
            assert!(got.torn, "cut {cut} should be torn");
            assert_eq!(got.payloads, vec![b"abcdef".to_vec()]);
        }
    }

    #[test]
    fn frame_json_roundtrip() {
        let leader = scripted_leader(0);
        let frames = tail_frames(leader.journal().unwrap(), 3, 1);
        assert!(!frames.is_empty());
        for f in &frames {
            let back = frame_from_json(&frame_to_json(f)).unwrap();
            assert_eq!(
                frame_to_json(&back).to_string_compact(),
                frame_to_json(f).to_string_compact()
            );
        }
        let d = Frame::Digest {
            term: 7,
            pos: 42,
            digest: 0xdead_beef_dead_beef,
        };
        let back = frame_from_json(&frame_to_json(&d)).unwrap();
        assert_eq!(
            frame_to_json(&back).to_string_compact(),
            frame_to_json(&d).to_string_compact()
        );
    }

    #[test]
    fn follower_reaches_leader_digest_in_order() {
        let leader = scripted_leader(0);
        let mut f = Follower::new();
        for frame in tail_frames(leader.journal().unwrap(), 1, 1) {
            f.apply_frame(frame).unwrap();
        }
        assert_eq!(f.watermark(), leader.journal().unwrap().total_appended());
        assert_eq!(f.state_digest().unwrap(), leader.state_digest());
        assert!(f.error().is_none());
    }

    #[test]
    fn follower_tolerates_reorder_dup_and_checks_digests() {
        let leader = scripted_leader(0);
        let mut frames = tail_frames(leader.journal().unwrap(), 1, 1);
        let top = leader.journal().unwrap().total_appended();
        frames.push(Frame::Digest {
            term: 1,
            pos: top,
            digest: digest64(leader.state_digest().as_bytes()),
        });
        // Deliver in reverse with every frame duplicated: the reorder
        // buffer + dup suppression must still converge byte-identically.
        let mut f = Follower::new();
        for frame in frames.iter().rev() {
            f.apply_frame(frame.clone()).unwrap();
            f.apply_frame(frame.clone()).unwrap();
        }
        assert_eq!(f.watermark(), top);
        assert_eq!(f.state_digest().unwrap(), leader.state_digest());
        // A wrong digest frame must poison.
        let mut bad = Follower::new();
        for frame in tail_frames(leader.journal().unwrap(), 1, 1) {
            bad.apply_frame(frame).unwrap();
        }
        assert!(bad
            .apply_frame(Frame::Digest {
                term: 1,
                pos: top,
                digest: 1,
            })
            .is_err());
        assert!(bad.error().is_some());
    }

    #[test]
    fn follower_snapshot_boundary_verifies() {
        // snapshot_every = 3 → the script crosses several boundaries;
        // every Snapshot record doubles as a byte-identity check.
        let leader = scripted_leader(3);
        let mut f = Follower::new();
        for frame in tail_frames(leader.journal().unwrap(), 1, 1) {
            f.apply_frame(frame).unwrap();
        }
        assert_eq!(f.state_digest().unwrap(), leader.state_digest());
    }

    #[test]
    fn catchup_via_snapshot_after_compaction() {
        // Leader compacts aggressively; a follower joining late must
        // catch up from the latest snapshot, not pos 1.
        let leader = scripted_leader(4);
        let journal = leader.journal().unwrap();
        assert!(
            journal.records_from(1).is_none(),
            "script must compact for this test"
        );
        let frames = tail_frames(journal, 1, 1);
        assert!(matches!(frames[0], Frame::Snapshot { .. }));
        let mut f = Follower::new();
        for frame in frames {
            f.apply_frame(frame).unwrap();
        }
        assert_eq!(f.watermark(), journal.total_appended());
        assert_eq!(f.state_digest().unwrap(), leader.state_digest());
    }

    #[test]
    fn hub_streams_and_fails_over() {
        let mut hub = ReplicationHub::new(HubConfig {
            digest_every: 4,
            faults: ReplFaultPlan::none(7),
            ..HubConfig::default()
        });
        hub.add_follower("tst-repl-a");
        hub.add_follower("tst-repl-b");
        let mut leader = PbsServer::new(Cluster::homogeneous(15, 8), AllocPolicy::Pack);
        leader.enable_journal(0);
        let mut m = hp_maui();
        for k in 0..5u64 {
            submit(&mut leader, rigid(&format!("H{k}"), 0, 8, 30), t(k)).unwrap();
            cycle(&mut leader, &mut m, t(k));
            hub.pump(&leader);
        }
        let top = leader.journal().unwrap().total_appended();
        assert!(hub.await_replicated(&leader, top));
        assert_eq!(hub.replicated_watermark(), Some(top));
        for i in 0..2 {
            assert_eq!(hub.follower_digest(i).unwrap(), leader.state_digest());
        }
        // Watermark-stamped follower read.
        let read = hub.read_follower(0, dynbatch_core::JobId(1)).unwrap();
        assert_eq!(read.watermark, top);
        assert!(read.state.is_some());
        // Leader dies; highest-watermark follower promotes byte-identically.
        let expect = leader.state_digest();
        let (promoted, report) = hub.fail_over(top, top).unwrap();
        assert_eq!(promoted.state_digest(), expect);
        assert_eq!(report.promoted_watermark, top);
        assert_eq!(report.new_term, 2);
        assert_eq!(report.lost_records, 0);
        assert_eq!(report.acked_lost, 0);
        // The survivor re-seeds under the new term and converges again.
        let mut leader = promoted;
        leader.enable_journal(0);
        submit(&mut leader, rigid("after", 1, 4, 10), t(50)).unwrap();
        let top2 = leader.journal().unwrap().total_appended();
        assert!(hub.await_replicated(&leader, top2));
        assert_eq!(hub.follower_digest(0).unwrap(), leader.state_digest());
        hub.shutdown();
    }

    #[test]
    fn hub_converges_under_stream_faults() {
        let faults = ReplFaultPlan {
            seed: 11,
            drop_permille: 200,
            delay_permille: 200,
            reorder_permille: 300,
            follower_crashes: vec![FollowerCrash {
                follower: 0,
                after_record: 5,
            }],
        };
        let mut hub = ReplicationHub::new(HubConfig {
            digest_every: 3,
            faults,
            ..HubConfig::default()
        });
        hub.add_follower("tst-replf-a");
        hub.add_follower("tst-replf-b");
        let mut leader = PbsServer::new(Cluster::homogeneous(15, 8), AllocPolicy::Pack);
        leader.enable_journal(5);
        let mut m = hp_maui();
        for k in 0..8u64 {
            submit(
                &mut leader,
                rigid(&format!("F{k}"), (k % 2) as u32, 8, 20),
                t(k),
            )
            .unwrap();
            cycle(&mut leader, &mut m, t(k));
            hub.pump(&leader);
        }
        let top = leader.journal().unwrap().total_appended();
        assert!(hub.await_replicated(&leader, top));
        for i in 0..2 {
            assert_eq!(hub.follower_digest(i).unwrap(), leader.state_digest());
        }
        assert!(hub.stats().follower_crashes >= 1);
        hub.shutdown();
    }

    #[test]
    fn read_router_respects_read_your_writes() {
        let mut r = ReadRouter::default();
        // No writes yet: any seeded follower may serve, an unseeded one
        // (watermark 0) never.
        assert_eq!(r.pick(1, &[0, 0]), None);
        assert_eq!(r.pick(1, &[0, 1]), Some(1));
        r.note_write(1, 10, &[5, 9]);
        assert_eq!(r.required_watermark(1), 10);
        // Neither follower has caught up: leader fallback.
        assert_eq!(r.pick(1, &[5, 9]), None);
        // Exactly one qualifies.
        assert_eq!(r.pick(1, &[5, 10]), Some(1));
        // Another connection never wrote: any follower at the floor serves.
        assert!(r.pick(2, &[5, 9]).is_some());
    }

    /// Every write comes from a connection of its own, as the daemon's
    /// typed `qsub` does: what the router remembers is bounded by the
    /// writes still ahead of the slowest follower, and dropping an entry
    /// never lets a follower that fell behind serve its connection.
    #[test]
    fn read_router_forgets_writes_every_follower_has_acked() {
        let mut r = ReadRouter::default();
        for pos in 2..10_002u64 {
            // Followers trail the leader by one and three records.
            let acked = [pos - 1, pos.saturating_sub(3).max(1)];
            r.note_write(pos, pos, &acked);
            assert!(r.last_write.len() <= 3, "{} entries", r.last_write.len());
            assert_eq!(r.pick(pos, &acked), None, "own write not yet acked");
            assert_eq!(r.pick(pos, &[pos, pos - 1]), Some(0));
        }
        // Connection 5 000's entry is long gone. Follower 0 crashes and
        // re-seeds from an old snapshot: it must not serve that connection
        // (or anyone) until it is back at the floor.
        assert!(r.last_write.len() <= 3);
        let floor = r.required_watermark(5_000);
        assert!(floor >= 9_998);
        assert_eq!(r.pick(5_000, &[0, floor]), Some(1));
        assert_eq!(r.pick(5_000, &[4_000, floor]), Some(1));
        assert_eq!(r.pick(5_000, &[4_000, 0]), None);
        assert_eq!(r.pick(5_000, &[floor, 0]), Some(0));
    }

    /// A snapshot record in a record frame is not something the leader
    /// sends: an unseeded follower must not install it, a seeded one must
    /// not take it for a boundary.
    #[test]
    fn snapshot_travelling_as_a_record_poisons_the_follower() {
        let leader = scripted_leader(0);
        let journal = leader.journal().unwrap();
        let image = Box::new(leader.image());
        let hostile = |pos| Frame::Record {
            term: 1,
            pos,
            record: Record::Snapshot(image.clone()),
        };

        let mut unseeded = Follower::new();
        let err = unseeded.apply_frame(hostile(1)).unwrap_err();
        assert!(err.contains("before any snapshot"), "{err}");
        assert!(unseeded.server().is_none(), "the image was installed");
        assert!(unseeded.error().is_some());

        let mut seeded = Follower::new();
        for f in tail_frames(journal, 1, 1) {
            seeded.apply_frame(f).unwrap();
        }
        let top = journal.total_appended();
        // Through the wire codec, as a corrupt stream would deliver it.
        let err = seeded
            .apply_bytes(&encode_frame(&hostile(top + 1)))
            .unwrap_err();
        assert!(
            err.contains("snapshot record after the recovery point"),
            "{err}"
        );
        assert_eq!(seeded.watermark(), top);
        assert!(seeded
            .apply_frame(Frame::Mark {
                term: 1,
                pos: top + 1
            })
            .is_err());
    }
}
