//! The leader side: the [`ReplicationHub`] that ships the journal tail
//! to every follower, reads back their watermarks, and fails over; and
//! the [`FollowerLink`] seam it reaches a follower by, wherever that
//! follower runs.
//!
//! Invariant owned here: the replicated watermark a host gates acks on
//! is the minimum watermark live followers acked in the current term,
//! and failover promotes only a follower of that term that reported no
//! error.

use dynbatch_core::codec::to_bytes;

use super::follower::Follower;
use super::framing::{digest64, encode_stream_tail, encode_tail_frames, EncodedRun, Frame};
use crate::codec::{DIGEST_FRAME, RECORD_FRAME, SNAPSHOT_FRAME};
use crate::server::PbsServer;

/// A follower's term, watermark and health, as the hub reads them.
#[derive(Debug, Clone)]
pub struct WatermarkReply {
    /// Leader term the follower tracks.
    pub term: u64,
    /// Applied-record watermark under that term.
    pub applied: u64,
    /// The poisoning error, when the replica diverged.
    pub error: Option<String>,
}

/// The hub's one seam to a follower: whatever carries the stream — the
/// follower itself on the hub's thread, a faulted hop, a thread — is
/// reached by these four calls. A run may be lost or late; the hub
/// resends from the watermark it reads.
pub trait FollowerLink {
    /// Ships one run of encoded frames; `false` once the follower is gone.
    fn send(&mut self, run: Vec<u8>) -> bool;
    /// The follower's term, watermark and health; `None` once it is gone.
    fn ack(&mut self) -> Option<WatermarkReply>;
    /// The replica's encoded image ([`Follower::image_bytes`]); `None`
    /// before seeding, or once the follower is gone.
    fn image(&mut self) -> Option<Vec<u8>>;
    /// Surrenders the replica, with the watermark it is exact at.
    fn promote(self) -> Option<(PbsServer, u64)>;
}

/// Hub configuration.
#[derive(Debug, Clone)]
pub struct HubConfig {
    /// Emit a rolling-digest frame every this many records (0 = off).
    pub digest_every: u64,
    /// Read follower watermarks every this many pumps (min 1): the
    /// cadence for a follower whose read is a round trip to another
    /// thread. Shipping never waits for it: a higher setting batches ack
    /// visibility (go-back-N reacts at the next read), and every consumer
    /// that *needs* a fresh watermark (`await_replicated`, `fail_over`)
    /// reads one itself.
    pub ack_every: u64,
}

impl Default for HubConfig {
    fn default() -> Self {
        HubConfig {
            digest_every: 32,
            ack_every: 1,
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
    /// Wire bytes of every frame counted above, envelope included.
    pub bytes_sent: u64,
    /// Go-back-N resend episodes (a watermark that stalled or fell).
    pub resends: u64,
}

/// The hub's cursor on one follower.
struct Link<L> {
    name: String,
    follower: L,
    /// Term of the follower's last watermark report.
    acked_term: u64,
    /// Last reported applied watermark (0 when on another term).
    acked: u64,
    /// Highest position optimistically shipped this term.
    sent_through: u64,
    /// `acked` at the previous read — stall (go-back-N) detection.
    last_acked: u64,
    alive: bool,
}

impl<L> Link<L> {
    /// Forgets what the follower holds: it is re-seeded from scratch.
    fn restart(&mut self) {
        self.acked_term = 0;
        self.acked = 0;
        self.sent_through = 0;
        self.last_acked = 0;
    }
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

/// The leader-side replication hub: a state machine with a cursor per
/// follower. It streams the journal tail to each, reads back acked
/// watermarks, resends from them, and runs failover. It owns no thread
/// and draws no fault: what carries a run, and what befalls it on the
/// way, is the link's ([`FollowerLink`]).
///
/// Everything is driven from the owner's thread by [`ReplicationHub::pump`],
/// so streaming is deterministic given the pump sequence and the links.
pub struct ReplicationHub<L = Follower> {
    term: u64,
    digest_every: u64,
    next_digest_at: u64,
    ack_every: u64,
    deferred_errors: Vec<String>,
    links: Vec<Link<L>>,
    stats: HubStats,
}

impl<L: FollowerLink> ReplicationHub<L> {
    /// A hub at term 1 with no followers yet.
    pub fn new(cfg: HubConfig) -> Self {
        ReplicationHub {
            term: 1,
            digest_every: cfg.digest_every,
            next_digest_at: Self::first_digest(cfg.digest_every),
            ack_every: cfg.ack_every.max(1),
            deferred_errors: Vec::new(),
            links: Vec::new(),
            stats: HubStats::default(),
        }
    }

    fn first_digest(digest_every: u64) -> u64 {
        if digest_every > 0 {
            digest_every
        } else {
            u64::MAX
        }
    }

    /// Attaches `follower` under `name`; the next pump seeds it.
    pub fn add_follower(&mut self, name: &str, follower: L) {
        self.links.push(Link {
            name: name.to_owned(),
            follower,
            acked_term: 0,
            acked: 0,
            sent_through: 0,
            last_acked: 0,
            alive: true,
        });
    }

    /// Every follower's link, hub-index order — for a host that acts on
    /// its followers between pumps.
    pub fn followers_mut(&mut self) -> impl Iterator<Item = &mut L> {
        self.links.iter_mut().map(|l| &mut l.follower)
    }

    /// The current leader term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Streaming counters.
    pub fn stats(&self) -> HubStats {
        self.stats
    }

    /// The acked watermark a live link counts with this term: 0 for a
    /// follower still on another term.
    fn acked_now(&self, l: &Link<L>) -> u64 {
        if l.acked_term == self.term {
            l.acked
        } else {
            0
        }
    }

    /// Cached acked watermark per follower (0 for dead followers or
    /// followers still on another term) — conservative, refreshed each
    /// read.
    pub fn acked_watermarks(&self) -> Vec<u64> {
        let acked = |l: &Link<L>| if l.alive { self.acked_now(l) } else { 0 };
        self.links.iter().map(acked).collect()
    }

    /// Follower names, hub-index order.
    pub fn follower_names(&self) -> Vec<String> {
        self.links.iter().map(|l| l.name.clone()).collect()
    }

    /// Follower `idx`'s encoded image ([`super::Follower::image_bytes`]).
    /// `None` for a dead or unseeded follower.
    pub fn follower_image(&mut self, idx: usize) -> Option<Vec<u8>> {
        self.links.get_mut(idx)?.follower.image()
    }

    /// Min live-follower acked watermark this term — the replicated
    /// watermark acks may gate on. `None` with no live followers (a
    /// degenerate single-copy deployment: nothing to wait for).
    pub fn replicated_watermark(&self) -> Option<u64> {
        let live = self.links.iter().filter(|l| l.alive);
        live.map(|l| self.acked_now(l)).min()
    }

    /// One replication step of a leader that keeps streaming: compaction
    /// is held behind the replicated watermark, so followers stream plain
    /// records across snapshot boundaries instead of taking a snapshot
    /// transfer, then one [`ReplicationHub::pump`].
    pub fn stream(&mut self, leader: &mut PbsServer) -> Vec<String> {
        if let Some(w) = self.replicated_watermark() {
            leader.journal_retain_from(w + 1);
        }
        self.pump(leader)
    }

    /// One streaming round: read each live follower's watermark (every
    /// `ack_every`-th pump), and ship the journal tail (go-back-N from the
    /// acked watermark on a stall; snapshot transfer when the tail was
    /// compacted away). Returns the divergence errors followers reported
    /// since the last pump.
    pub fn pump(&mut self, leader: &PbsServer) -> Vec<String> {
        let journal = leader
            .journal()
            .expect("replication requires the leader to journal");
        let target = journal.total_appended();
        self.stats.pumps += 1;
        // A read of a follower on another thread is a round trip queued
        // behind the runs sent before it, so what a read sees is what
        // per-pump reading would have seen — only the *visibility* of
        // progress is batched.
        if self.ack_every <= 1 || self.stats.pumps.is_multiple_of(self.ack_every) {
            self.refresh_acks();
        }
        let digest_frame = if target >= self.next_digest_at {
            self.next_digest_at = target + self.digest_every;
            Some(Frame::Digest {
                term: self.term,
                pos: target,
                digest: digest64(&to_bytes(&leader.image())),
            })
        } else {
            None
        };
        // Shared encode: every contiguously-streaming link needs the same
        // tail modulo its start position, so the pump encodes it once into
        // one buffer and each link reads its suffix from there.
        // Snapshot records cross as Mark frames — valid only for a
        // follower that already holds the boundary state. A link that has
        // never acked (fresh, or restarted after a crash) has a stateless
        // follower and takes the per-link seed path below: a full
        // snapshot transfer it can install, never a Mark it cannot cross.
        let needs_seed = |l: &Link<L>| l.sent_through == 0 && l.acked == 0;
        let min_from = self
            .links
            .iter()
            .filter(|l| l.alive && l.sent_through < target && !needs_seed(l))
            .map(|l| l.sent_through + 1)
            .min();
        let shared = min_from.and_then(|from| encode_stream_tail(journal, self.term, from));
        let digest_run = digest_frame.as_ref().map(EncodedRun::single);
        for link in self.links.iter_mut().filter(|l| l.alive) {
            if link.sent_through >= target && digest_run.is_none() {
                continue;
            }
            let from = link.sent_through + 1;
            let seed_run;
            let run = if link.sent_through >= target {
                None
            } else if let Some(shared) = shared.as_ref().filter(|_| !needs_seed(link)) {
                Some(shared)
            } else {
                // Seed / heal: a stateless follower, or a start the
                // compactor already discarded — restart the link with a
                // snapshot image it can install, then plain records.
                seed_run = encode_tail_frames(journal, self.term, from);
                Some(&seed_run)
            };
            // One send per link per pump: every frame rides a single
            // concatenated run.
            let mut out: Vec<u8> = Vec::new();
            let frames = run.into_iter().flat_map(|r| r.suffix(from));
            for (kind, bytes) in frames.chain(digest_run.iter().flat_map(|d| d.suffix(0))) {
                match kind {
                    RECORD_FRAME => self.stats.records_sent += 1,
                    SNAPSHOT_FRAME => self.stats.snapshots_sent += 1,
                    DIGEST_FRAME => self.stats.digests_sent += 1,
                    _ => self.stats.marks_sent += 1,
                }
                self.stats.bytes_sent += bytes.len() as u64;
                out.extend_from_slice(bytes);
            }
            if !out.is_empty() && !link.follower.send(out) {
                link.alive = false;
            }
            link.sent_through = target;
        }
        std::mem::take(&mut self.deferred_errors)
    }

    /// Reads every live follower's watermark now, regardless of
    /// `ack_every` phase: refreshes its acked cursor, goes back to the
    /// acked prefix when the watermark stalled below what was shipped or
    /// fell (the follower lost its state), and keeps any reported error
    /// for the next pump to return — a poisoned replica never advances
    /// again, so it leaves the watermark and the stream as a dead one
    /// does, reported once.
    pub fn refresh_acks(&mut self) {
        let term = self.term;
        for link in self.links.iter_mut().filter(|l| l.alive) {
            let Some(reply) = link.follower.ack() else {
                link.alive = false;
                continue;
            };
            if let Some(e) = reply.error {
                self.deferred_errors.push(format!("{}: {e}", link.name));
                link.alive = false;
                continue;
            }
            link.acked_term = reply.term;
            link.acked = if reply.term == term { reply.applied } else { 0 };
            if link.acked < link.sent_through && link.acked <= link.last_acked {
                link.sent_through = link.acked;
                self.stats.resends += 1;
            }
            link.last_acked = link.acked;
            link.sent_through = link.sent_through.max(link.acked);
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
            // The next pump returns what this one heard.
            let errors = self.pump(leader);
            self.deferred_errors.extend(errors);
            if self.ack_every > 1 {
                // Batched reads see progress only every few pumps; the
                // gate needs fresh visibility *now*.
                self.refresh_acks();
            }
        }
        false
    }

    /// Leader failover: reads every live follower's watermark, promotes
    /// the highest-watermark one that holds a replica of the current term
    /// (ties break on hub order), bumps the term, and restarts the
    /// survivors to re-seed from the new leader's genesis snapshot on the
    /// next pump.
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
        for (i, link) in self.links.iter_mut().enumerate().filter(|(_, l)| l.alive) {
            let Some(reply) = link.follower.ack() else {
                link.alive = false;
                continue;
            };
            if reply.error.is_some() || reply.term != self.term || reply.applied == 0 {
                continue; // never promote a diverged, stale-term or absent replica
            }
            if best.is_none_or(|(_, w)| reply.applied > w) {
                best = Some((i, reply.applied));
            }
        }
        let (idx, _) = best.ok_or("no live follower to promote")?;
        let link = self.links.remove(idx);
        let (server, watermark) = link
            .follower
            .promote()
            .ok_or("promoted follower had no replica state")?;
        self.term += 1;
        self.next_digest_at = Self::first_digest(self.digest_every);
        self.links.iter_mut().for_each(Link::restart);
        let report = FailoverReport {
            new_term: self.term,
            promoted: link.name,
            promoted_watermark: watermark,
            old_appended,
            lost_records: old_appended.saturating_sub(watermark),
            acked_lost: acked_through.saturating_sub(watermark),
        };
        Ok((server, report))
    }
}
