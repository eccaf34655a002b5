//! The replication wire: the CRC-32 + length envelope, the [`Frame`]
//! vocabulary and its JSON payload, and the frames that carry a journal's
//! retained tail.
//!
//! Invariant owned here: every frame names the leader term that produced
//! it and an absolute journal position, and a delivered byte run is
//! either intact, torn at its tail (truncated and flagged) or rejected —
//! never silently altered.

use dynbatch_core::json::{self, Json};

use crate::journal::{
    image_from_json, image_to_json, record_from_json, record_to_json, Journal, Record, ServerImage,
};

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
pub(super) fn frame_kind(f: &Frame) -> u8 {
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
pub(super) fn encode_stream_tail(
    journal: &Journal,
    term: u64,
    from: u64,
) -> Option<Vec<(u64, u8, Vec<u8>)>> {
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
