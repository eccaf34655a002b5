//! The binary encoding ([`dynbatch_core::codec`]) of journal records,
//! server images and replication frames — the one spelling the
//! replication wire carries. The JSON forms in [`crate::journal`] stay for
//! people, for the journal's text form and for the pinned digests.
//!
//! Canonical, like every [`Wire`] encoding: equal images encode to equal
//! bytes and unequal ones to unequal bytes, so replicas compare state by
//! comparing `to_bytes(&server.image())`.

use dynbatch_core::codec::{put_tag, Reader, Wire};

use crate::journal::{PendingDynImage, Record, ServerImage};
use crate::replication::Frame;

impl Wire for PendingDynImage {
    fn encode(&self, out: &mut Vec<u8>) {
        self.job.encode(out);
        self.extra_cores.encode(out);
        self.seq.encode(out);
        self.deadline.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(PendingDynImage {
            job: Wire::decode(r)?,
            extra_cores: r.u32()?,
            seq: r.u64()?,
            deadline: Wire::decode(r)?,
        })
    }
}

impl Wire for ServerImage {
    fn encode(&self, out: &mut Vec<u8>) {
        self.next_job_id.encode(out);
        self.next_dyn_seq.encode(out);
        self.alloc_policy.encode(out);
        self.guarantee_evolving.encode(out);
        self.node_cores.encode(out);
        self.down_nodes.encode(out);
        self.jobs.encode(out);
        self.dyn_pending.encode(out);
        self.outcomes.encode(out);
        self.usage.encode(out);
        self.usage_since.encode(out);
        self.usage_hist.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(ServerImage {
            next_job_id: r.u64()?,
            next_dyn_seq: r.u64()?,
            alloc_policy: Wire::decode(r)?,
            guarantee_evolving: Wire::decode(r)?,
            node_cores: r.seq()?,
            down_nodes: r.seq()?,
            jobs: r.seq()?,
            dyn_pending: r.seq()?,
            outcomes: r.seq()?,
            usage: r.seq()?,
            usage_since: r.seq()?,
            usage_hist: Wire::decode(r)?,
        })
    }
}

impl Wire for Record {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Record::Snapshot(image) => {
                put_tag(out, 0);
                image.encode(out);
            }
            Record::Submit { spec, now } => {
                put_tag(out, 1);
                spec.encode(out);
                now.encode(out);
            }
            Record::Qdel { job, now } => {
                put_tag(out, 2);
                job.encode(out);
                now.encode(out);
            }
            Record::DynGet {
                job,
                extra_cores,
                deadline,
                now,
            } => {
                put_tag(out, 3);
                job.encode(out);
                extra_cores.encode(out);
                deadline.encode(out);
                now.encode(out);
            }
            Record::DynFree { job, released, now } => {
                put_tag(out, 4);
                job.encode(out);
                released.encode(out);
                now.encode(out);
            }
            Record::Finish { job, now } => {
                put_tag(out, 5);
                job.encode(out);
                now.encode(out);
            }
            Record::Outcome { outcome, now } => {
                put_tag(out, 6);
                outcome.encode(out);
                now.encode(out);
            }
            Record::ExpireOne { job, seq, now } => {
                put_tag(out, 7);
                job.encode(out);
                seq.encode(out);
                now.encode(out);
            }
            Record::ExpireSweep { now } => {
                put_tag(out, 8);
                now.encode(out);
            }
            Record::NodeFailed { node, now } => {
                put_tag(out, 9);
                node.encode(out);
                now.encode(out);
            }
            Record::NodeRepaired { node } => {
                put_tag(out, 10);
                node.encode(out);
            }
            Record::Guarantee { on } => {
                put_tag(out, 11);
                on.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(match r.tag(12, "record")? {
            0 => Record::Snapshot(Box::new(Wire::decode(r)?)),
            1 => Record::Submit {
                spec: Wire::decode(r)?,
                now: Wire::decode(r)?,
            },
            2 => Record::Qdel {
                job: Wire::decode(r)?,
                now: Wire::decode(r)?,
            },
            3 => Record::DynGet {
                job: Wire::decode(r)?,
                extra_cores: r.u32()?,
                deadline: Wire::decode(r)?,
                now: Wire::decode(r)?,
            },
            4 => Record::DynFree {
                job: Wire::decode(r)?,
                released: Wire::decode(r)?,
                now: Wire::decode(r)?,
            },
            5 => Record::Finish {
                job: Wire::decode(r)?,
                now: Wire::decode(r)?,
            },
            6 => Record::Outcome {
                outcome: Wire::decode(r)?,
                now: Wire::decode(r)?,
            },
            7 => Record::ExpireOne {
                job: Wire::decode(r)?,
                seq: r.u64()?,
                now: Wire::decode(r)?,
            },
            8 => Record::ExpireSweep {
                now: Wire::decode(r)?,
            },
            9 => Record::NodeFailed {
                node: Wire::decode(r)?,
                now: Wire::decode(r)?,
            },
            10 => Record::NodeRepaired {
                node: Wire::decode(r)?,
            },
            _ => Record::Guarantee {
                on: Wire::decode(r)?,
            },
        })
    }
}

/// The tag a [`Frame::Record`] payload opens with; the pump counts
/// traffic by these four tags.
pub(crate) const RECORD_FRAME: u8 = 0;
/// The tag of a [`Frame::Snapshot`] payload.
pub(crate) const SNAPSHOT_FRAME: u8 = 1;
/// The tag of a [`Frame::Digest`] payload.
pub(crate) const DIGEST_FRAME: u8 = 2;
/// The tag of a [`Frame::Mark`] payload.
pub(crate) const MARK_FRAME: u8 = 3;

/// A frame payload's head: its tag, then the term and the position.
pub(crate) fn put_frame_head(out: &mut Vec<u8>, kind: u8, term: u64, pos: u64) {
    put_tag(out, kind);
    term.encode(out);
    pos.encode(out);
}

impl Wire for Frame {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Record { term, pos, record } => {
                put_frame_head(out, RECORD_FRAME, *term, *pos);
                record.encode(out);
            }
            Frame::Snapshot { term, pos, image } => {
                put_frame_head(out, SNAPSHOT_FRAME, *term, *pos);
                image.encode(out);
            }
            Frame::Digest { term, pos, digest } => {
                put_frame_head(out, DIGEST_FRAME, *term, *pos);
                digest.encode(out);
            }
            Frame::Mark { term, pos } => put_frame_head(out, MARK_FRAME, *term, *pos),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        let kind = r.tag(MARK_FRAME + 1, "frame")?;
        let term = r.u64()?;
        let pos = r.u64()?;
        Ok(match kind {
            RECORD_FRAME => Frame::Record {
                term,
                pos,
                record: Wire::decode(r)?,
            },
            SNAPSHOT_FRAME => Frame::Snapshot {
                term,
                pos,
                image: Box::new(Wire::decode(r)?),
            },
            DIGEST_FRAME => Frame::Digest {
                term,
                pos,
                digest: r.u64()?,
            },
            _ => Frame::Mark { term, pos },
        })
    }
}
