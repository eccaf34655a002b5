//! The replication wire: the CRC-32 + length envelope, the [`Frame`]
//! vocabulary, and the frames that carry a journal's retained tail. A
//! payload is one frame in the canonical binary encoding
//! ([`crate::codec`]); the pump encodes a tail once into one buffer and
//! hands each link a slice of it, and the receiver decodes straight from
//! the borrowed payloads.
//!
//! Invariant owned here: every frame names the leader term that produced
//! it and an absolute journal position, and a delivered byte run is
//! either intact, torn at its tail (truncated and flagged) or rejected —
//! never silently altered.

use dynbatch_core::codec::{from_bytes, Wire};

use crate::codec::{put_frame_head, MARK_FRAME, RECORD_FRAME};
use crate::journal::{Journal, Record, ServerImage};

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

/// The envelope's length field for a payload of `len` bytes; refused
/// past `u32::MAX` rather than wrapped.
pub(super) fn frame_len(len: usize) -> Result<u32, String> {
    u32::try_from(len).map_err(|_| format!("a {len}-byte payload outgrows the u32 length field"))
}

/// Wraps one payload in the wire envelope: `len:u32le | crc32:u32le |
/// payload`. A payload longer than `u32::MAX` bytes is refused.
pub fn frame(payload: &[u8]) -> Result<Vec<u8>, String> {
    frame_len(payload.len())?;
    let mut out = Vec::with_capacity(payload.len() + 8);
    put_frame(&mut out, |o| o.extend_from_slice(payload));
    Ok(out)
}

/// The result of unwrapping a byte run of frames.
#[derive(Debug, Default)]
pub struct Deframed<'a> {
    /// The complete, CRC-verified payloads, in order, borrowed from the
    /// run.
    pub payloads: Vec<&'a [u8]>,
    /// True when the run ended in a partial frame (torn trailing write):
    /// the tail was truncated — the payloads before it are all intact.
    pub torn: bool,
}

/// Splits a byte run into CRC-verified payloads. A short tail (fewer
/// bytes than the last header + payload promise) is a *torn trailing
/// frame*: tolerated, truncated, flagged. A CRC mismatch on a complete
/// frame is corruption and a hard error.
pub fn deframe(buf: &[u8]) -> Result<Deframed<'_>, String> {
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
        out.payloads.push(payload);
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
    /// A rolling digest check: FNV-64 of the leader's encoded image at
    /// watermark `pos`. The follower verifies when it reaches `pos`.
    Digest {
        /// Leader term.
        term: u64,
        /// Watermark the digest was taken at.
        pos: u64,
        /// [`digest64`] of the leader's encoded image
        /// ([`crate::codec`]).
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

/// Appends one frame to `out`: the envelope header, then the payload
/// `body` writes, then the header patched with the payload's length and
/// CRC — the payload is encoded straight into the wire buffer.
///
/// # Panics
///
/// Panics when the payload outgrows the `u32` length field (4 GiB).
fn put_frame(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let head = out.len();
    out.extend_from_slice(&[0; 8]);
    body(out);
    let len = frame_len(out.len() - head - 8).expect("frame payload");
    let crc = crc32(&out[head + 8..]);
    out[head..head + 4].copy_from_slice(&len.to_le_bytes());
    out[head + 4..head + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Encodes one frame into its CRC-framed wire bytes.
///
/// # Panics
///
/// Panics when the payload outgrows the `u32` length field (4 GiB).
pub fn encode_frame(f: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    put_frame(&mut out, |payload| f.encode(payload));
    out
}

/// Frames encoded back to back into one buffer, once, for every link
/// that needs them: each frame runs from the previous frame's end to its
/// own.
#[derive(Debug, Default)]
pub(super) struct EncodedRun {
    bytes: Vec<u8>,
    /// `(pos, end)` per frame, in position order.
    frames: Vec<(u64, usize)>,
}

impl EncodedRun {
    fn push(&mut self, pos: u64, body: impl FnOnce(&mut Vec<u8>)) {
        put_frame(&mut self.bytes, body);
        self.frames.push((pos, self.bytes.len()));
    }

    fn push_frame(&mut self, f: &Frame) {
        self.push(f.pos(), |payload| f.encode(payload));
    }

    /// One frame, encoded on its own.
    pub(super) fn single(f: &Frame) -> Self {
        let mut run = EncodedRun::default();
        run.push_frame(f);
        run
    }

    /// The frames at positions `>= from`, borrowed, each with the tag its
    /// payload opens with (`crate::codec::RECORD_FRAME`, …) — what the
    /// pump counts traffic by.
    pub(super) fn suffix(&self, from: u64) -> impl Iterator<Item = (u8, &[u8])> {
        let first = self.frames.partition_point(|&(pos, _)| pos < from);
        let mut start = first.checked_sub(1).map_or(0, |i| self.frames[i].1);
        self.frames[first..].iter().map(move |&(_, end)| {
            let bytes = &self.bytes[start..end];
            start = end;
            (bytes[8], bytes)
        })
    }
}

/// Encodes the retained journal tail from absolute position `from` into
/// one shared buffer, once per pump: plain records as [`Frame::Record`],
/// snapshot records as cheap [`Frame::Mark`] boundary crossings (a
/// contiguously streaming receiver already holds the image's state, so
/// re-shipping — or even re-encoding — the image is pure waste). Each
/// link takes its suffix of the run; `None` when compaction discarded
/// `from` and the link must be seeded with a full snapshot transfer
/// instead.
pub(super) fn encode_stream_tail(journal: &Journal, term: u64, from: u64) -> Option<EncodedRun> {
    let records = journal.records_from(from)?;
    let mut run = EncodedRun::default();
    for (record, pos) in records.iter().zip(from..) {
        match record {
            Record::Snapshot(_) => run.push(pos, |p| put_frame_head(p, MARK_FRAME, term, pos)),
            _ => run.push(pos, |p| {
                put_frame_head(p, RECORD_FRAME, term, pos);
                record.encode(p);
            }),
        }
    }
    Some(run)
}

/// [`tail_frames`], encoded into one run — the seed / heal transfer.
pub(super) fn encode_tail_frames(journal: &Journal, term: u64, from: u64) -> EncodedRun {
    let mut run = EncodedRun::default();
    for f in tail_frames(journal, term, from) {
        run.push_frame(&f);
    }
    run
}

/// Decodes a byte run of frames, straight from the borrowed payloads. A
/// torn trailing frame is tolerated (truncated, flagged `true`);
/// corruption — a CRC mismatch, or a payload that is not exactly one
/// canonical frame — is a hard error.
pub fn decode_frames(bytes: &[u8]) -> Result<(Vec<Frame>, bool), String> {
    let deframed = deframe(bytes)?;
    let frames = deframed
        .payloads
        .iter()
        .enumerate()
        .map(|(i, payload)| from_bytes(payload).map_err(|e| format!("frame {i}: {e}")))
        .collect::<Result<_, String>>()?;
    Ok((frames, deframed.torn))
}

/// The frames that carry a journal's retained tail from absolute
/// position `from` onward: snapshot records become [`Frame::Snapshot`],
/// everything else [`Frame::Record`]. When compaction already discarded
/// `from`, the transfer restarts from the latest retained snapshot — the
/// compaction-handoff path a lagging follower catches up through. No
/// frames when there is no such snapshot either (a journal read back from
/// records-only text): nothing retained can bring a receiver to `from`.
pub fn tail_frames(journal: &Journal, term: u64, from: u64) -> Vec<Frame> {
    let (start, records) = match journal.records_from(from) {
        Some(records) => (from, records),
        None => match journal.latest_snapshot() {
            Some((pos, _)) => (
                pos,
                journal.records_from(pos).expect("snapshot is retained"),
            ),
            None => return Vec::new(),
        },
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
