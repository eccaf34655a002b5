//! The leader side: the stream fault plan, the [`ReplicationHub`] that
//! ships the journal tail to every follower thread, and failover.
//!
//! Invariant owned here: the replicated watermark a host gates acks on
//! is the minimum watermark live followers acked in the current term,
//! and failover promotes only a follower of that term that reported no
//! error.

use std::collections::VecDeque;

use dynbatch_core::codec::to_bytes;
use dynbatch_simtime::SplitMix64;

use super::follower::{FollowerHandle, FollowerMsg};
use super::framing::{digest64, encode_stream_tail, encode_tail_frames, EncodedRun, Frame};
use crate::codec::{DIGEST_FRAME, RECORD_FRAME, SNAPSHOT_FRAME};
use crate::server::PbsServer;

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
    /// Wire bytes of every frame counted above, envelope included.
    pub bytes_sent: u64,
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
    /// pump.
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

    /// Follower `idx`'s encoded image ([`super::Follower::image_bytes`];
    /// synchronous, drains its stream backlog first by channel order).
    /// `None` for a dead or unseeded follower.
    pub fn follower_image(&self, idx: usize) -> Option<Vec<u8>> {
        self.links.get(idx)?.handle.image_bytes()
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

    /// One replication step of a leader that keeps streaming: compaction
    /// is held behind the replicated watermark, so followers stream plain
    /// records across snapshot boundaries instead of taking a snapshot
    /// transfer, then one [`ReplicationHub::pump`].
    pub fn stream(&mut self, leader: &mut PbsServer) -> PumpReport {
        if let Some(w) = self.replicated_watermark() {
            leader.journal_retain_from(w + 1);
        }
        self.pump(leader)
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
                digest: digest64(&to_bytes(&leader.image())),
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
        // Shared encode: every contiguously-streaming link needs the same
        // tail modulo its start position, so the pump encodes it once into
        // one buffer and each link reads its suffix from there.
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
        let shared = min_from.and_then(|from| encode_stream_tail(journal, term, from));
        let digest_run = digest_frame.as_ref().map(EncodedRun::single);
        for link in &mut self.links {
            if !link.alive {
                continue;
            }
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
                seed_run = encode_tail_frames(journal, term, from);
                Some(&seed_run)
            };
            let mut frames: Vec<(u8, &[u8])> =
                run.into_iter().flat_map(|r| r.suffix(from)).collect();
            frames.extend(digest_run.iter().flat_map(|d| d.suffix(0)));
            if frames.len() >= 2 && self.rng.chance_permille(self.faults.reorder_permille) {
                self.rng.shuffle(&mut frames);
            }
            let mut out: Vec<u8> = Vec::new();
            for (kind, bytes) in frames {
                match kind {
                    RECORD_FRAME => self.stats.records_sent += 1,
                    SNAPSHOT_FRAME => self.stats.snapshots_sent += 1,
                    DIGEST_FRAME => self.stats.digests_sent += 1,
                    _ => self.stats.marks_sent += 1,
                }
                self.stats.bytes_sent += bytes.len() as u64;
                if self.rng.chance_permille(self.faults.drop_permille) {
                    self.stats.frames_dropped += 1;
                    continue;
                }
                if self.rng.chance_permille(self.faults.delay_permille) {
                    link.delayed.push_back(bytes.to_vec());
                    continue;
                }
                out.extend_from_slice(bytes);
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
            // A poisoned replica never advances again: it leaves the
            // watermark and the stream as a dead one does, reported once.
            errors.push(format!("{}: {e}", link.handle.name()));
            link.alive = false;
            return;
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
            // The next pump's report carries what this one heard.
            let report = self.pump(leader);
            self.deferred_errors.extend(report.errors);
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

    /// Sends raw bytes down follower `idx`'s link (a corrupt frame, in
    /// tests).
    #[cfg(test)]
    pub(super) fn send_raw(&self, idx: usize, bytes: Vec<u8>) -> bool {
        self.links[idx].handle.send(FollowerMsg::Frames(bytes))
    }

    /// Shuts down every follower thread and joins it.
    pub fn shutdown(&mut self) {
        for link in self.links.drain(..) {
            link.handle.shutdown();
        }
    }
}
