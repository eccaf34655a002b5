//! Journal-streaming replication: leader → follower record streaming and
//! leader failover.
//!
//! The leader is an ordinary journaled
//! [`PbsServer`](crate::server::PbsServer); replication is a pure
//! observer of its write-ahead journal. A [`ReplicationHub`] streams every
//! appended [`Record`](crate::journal::Record) (plus
//! [`ServerImage`](crate::journal::ServerImage) snapshots for catch-up
//! and compaction handoff) to N follower threads over in-process
//! channels. Followers rebuild state through the leader's own apply step
//! ([`PbsServer::execute`](crate::server::PbsServer::execute)), so leader
//! and follower execute the identical deterministic code — divergence is
//! detectable by construction and checked at every snapshot boundary plus
//! periodic rolling-digest frames. Both checks compare the canonical
//! binary image encoding ([`crate::codec`]) byte for byte —
//! the digest frame carries a hash of those bytes — never a JSON render.
//!
//! Positions are `Journal::total_appended` coordinates: 1-based,
//! monotonic and stable across compaction, so a follower watermark ("I
//! have applied every record through `w`") survives snapshot handoffs
//! and names the same prefix before and after the leader compacts.
//!
//! The transport is hardened the way an on-the-wire journal must be:
//! each frame is length-delimited and CRC-32 protected; a torn trailing
//! frame (the partial-write crash artifact) is truncated and counted,
//! while a CRC mismatch (bit corruption) is a hard error. A payload is
//! one frame in the binary encoding of [`crate::codec`] (varints, tag
//! bytes, length-prefixed strings and vectors); the decoder accepts only
//! canonical bytes, so a payload that is not exactly one frame is a hard
//! error too. Per pump the hub encodes the tail once into one buffer and
//! hands every link its suffix; [`HubStats::bytes_sent`] counts the bytes.
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
//!
//! Three child modules, each stating the invariant it owns: `framing`
//! (the wire), `follower` (the replica) and `hub` (the leader side).

mod follower;
mod framing;
mod hub;
#[cfg(test)]
mod tests;

pub use follower::{Follower, FollowerHandle, FollowerMsg, WatermarkReply};
pub use framing::{
    crc32, decode_frames, deframe, digest64, encode_frame, frame, tail_frames, Deframed, Frame,
};
pub use hub::{
    FailoverReport, FollowerCrash, HubConfig, HubStats, PumpReport, ReplFaultPlan, ReplicationHub,
};
#[cfg(test)]
pub(crate) use tests::installed;
