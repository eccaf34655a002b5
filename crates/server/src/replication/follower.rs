//! The follower: a [`PbsServer`] that applies the replicated stream
//! through [`PbsServer::execute`], and the thread that hosts it.
//!
//! Invariant owned here: the replica reflects exactly the records
//! through its watermark — only the contiguous prefix is ever applied,
//! and an apply error or a digest mismatch poisons the follower for
//! good, so a diverged replica is never promoted.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use super::framing::{decode_frames, digest64, Frame};
use crate::journal::{image_to_json, Journal, Record, ServerImage};
use crate::server::PbsServer;

// ---------------------------------------------------------------------------
// Follower: the synchronous apply state machine.

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

    /// Surrenders the replica for promotion, with the watermark it is
    /// exact at. The follower is spent afterwards.
    pub fn take_promoted(&mut self) -> Option<(PbsServer, u64)> {
        self.server.take().map(|s| (s, self.applied))
    }

    /// Crash recovery ([`PbsServer::recover`]) as follower catch-up: the
    /// journal's latest snapshot installs in place, and every later record
    /// arrives as the [`Frame::Record`] a leader would stream at its
    /// journal position, under the same ordering, apply and digest checks.
    pub(crate) fn catch_up(journal: &Journal) -> Result<PbsServer, String> {
        let (pos, image) = journal
            .latest_snapshot()
            .ok_or("journal has no snapshot record")?;
        let mut follower = Follower::new();
        follower.install(1, pos, image)?; // no leader: any one term will do
        let tail = journal
            .records_from(pos + 1)
            .expect("tail of a retained snapshot");
        for (record, pos) in tail.iter().zip(pos + 1..) {
            follower.apply_frame(Frame::Record {
                term: 1,
                pos,
                record: record.clone(),
            })?;
        }
        Ok(follower.server.expect("installed above"))
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
        let server = PbsServer::restore(image).map_err(|e| e.to_string())?;
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
        let server = self
            .server
            .as_ref()
            .ok_or_else(|| format!("digest {pos} before any snapshot"))?;
        let own = digest64(server.state_digest().as_bytes());
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

/// A handle to a follower thread: the hub's streaming/ack endpoint.
pub struct FollowerHandle {
    name: String,
    tx: Sender<FollowerMsg>,
    join: Option<JoinHandle<()>>,
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
