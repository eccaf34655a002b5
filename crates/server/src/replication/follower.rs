//! The follower: a [`PbsServer`] that applies the replicated stream
//! through [`PbsServer::execute`], and the link the hub reaches it by
//! when it runs inline.
//!
//! Invariant owned here: the replica reflects exactly the records
//! through its watermark — a frame applies only at the next position,
//! and an apply error or a digest mismatch poisons the follower for
//! good, so a diverged replica is never promoted.

use dynbatch_core::codec::to_bytes;

use super::framing::{decode_frames, digest64, Frame};
use super::hub::{FollowerLink, WatermarkReply};
use crate::journal::{Journal, Record, ServerImage};
use crate::server::PbsServer;

/// A follower `PbsServer`: applies the replicated stream through the
/// ordinary mutation paths and tracks the applied watermark.
///
/// A plain go-back-N receiver: a record or boundary mark applies only at
/// the position after its watermark, anything else is ignored (a stale
/// duplicate, or an early arrival the hub resends once the watermark
/// stalls), and a digest check is verified only at the watermark it
/// names. Any apply error or digest mismatch poisons the follower — it
/// stops advancing and reports the error — so a diverged replica can
/// never be promoted silently.
#[derive(Debug, Default)]
pub struct Follower {
    server: Option<PbsServer>,
    term: u64,
    applied: u64,
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

    /// The replica's encoded image ([`crate::codec`]), once
    /// seeded — the bytes replica-equality checks compare.
    pub fn image_bytes(&self) -> Option<Vec<u8>> {
        self.server.as_ref().map(|s| to_bytes(&s.image()))
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

    /// Applies a wire run of frames. A torn trailing frame is truncated
    /// (the hub resends it); corruption or divergence poisons the
    /// follower.
    pub fn apply_bytes(&mut self, bytes: &[u8]) -> Result<(), String> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        let (frames, _torn) = decode_frames(bytes).inspect_err(|e| {
            self.error = Some(e.clone());
        })?;
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
            // Records and marks apply at the next position of the term
            // the replica was seeded in; a new leader always seeds with
            // its genesis snapshot first, and the hub resends whatever
            // this skips until the watermark moves.
            Frame::Record { term, pos, record } => {
                if term != self.term || pos != self.applied + 1 {
                    return Ok(());
                }
                self.apply_one(pos, record)
            }
            Frame::Mark { term, pos } => {
                // The marked position is a snapshot record whose image is
                // the state after `pos - 1`: the replica crosses it in
                // place.
                if term == self.term && pos == self.applied + 1 && self.server.is_some() {
                    self.applied = pos;
                }
                Ok(())
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
                        return Ok(());
                    }
                    if pos <= self.applied {
                        return Ok(()); // stale duplicate
                    }
                }
                self.install(term, pos, &image)
            }
            // A check for a position not reached yet, or passed, is
            // dropped: that loses a check, never data.
            Frame::Digest { term, pos, digest } if term == self.term && pos == self.applied => {
                self.verify_digest(pos, digest)
            }
            Frame::Digest { .. } => Ok(()),
        }
    }

    /// Installs a catch-up image: state jumps to `pos`.
    fn install(&mut self, term: u64, pos: u64, image: &ServerImage) -> Result<(), String> {
        let server = PbsServer::restore(image).map_err(|e| e.to_string())?;
        self.server = Some(server);
        self.term = term;
        self.applied = pos;
        Ok(())
    }

    /// Applies the next record through the leader's own
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
        Ok(())
    }

    /// The seeded replica's encoded image.
    fn own_image(&self, what: &str, pos: u64) -> Result<Vec<u8>, String> {
        self.image_bytes()
            .ok_or_else(|| format!("{what} {pos} before any snapshot"))
    }

    fn verify_image(&self, pos: u64, image: &ServerImage) -> Result<(), String> {
        let own = self.own_image("snapshot boundary", pos)?;
        let theirs = to_bytes(image);
        if own == theirs {
            Ok(())
        } else {
            Err(format!(
                "replica diverged at snapshot boundary {pos}: \
                 follower {:#018x} vs leader {:#018x}",
                digest64(&own),
                digest64(&theirs)
            ))
        }
    }

    fn verify_digest(&self, pos: u64, digest: u64) -> Result<(), String> {
        let own = digest64(&self.own_image("digest", pos)?);
        if own == digest {
            Ok(())
        } else {
            Err(format!(
                "replica diverged at digest check {pos}: \
                 follower {own:#018x} vs leader {digest:#018x}"
            ))
        }
    }
}

/// A follower on the hub's own thread, with nothing between them: a run
/// applies as it is sent.
impl FollowerLink for Follower {
    fn send(&mut self, run: Vec<u8>) -> bool {
        // Errors poison the follower; the watermark read reports them.
        let _ = self.apply_bytes(&run);
        true
    }

    fn ack(&mut self) -> Option<WatermarkReply> {
        Some(WatermarkReply {
            term: self.term,
            applied: self.applied,
            error: self.error.clone(),
        })
    }

    fn image(&mut self) -> Option<Vec<u8>> {
        self.image_bytes()
    }

    fn promote(mut self) -> Option<(PbsServer, u64)> {
        self.take_promoted()
    }
}
