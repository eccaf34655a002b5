//! The delta log — everything the resource manager tells the scheduler
//! between two snapshots — and the base availability profile kept from it.
//!
//! Every `Maui::iterate` needs the availability profile of the running
//! workload — each running job holding its cores until its (grace-clamped)
//! walltime end. Rebuilding it from the full running set costs O(running
//! jobs) per iteration even when nothing changed since the last cycle;
//! [`IncrementalTimeline`] applies only the [`ProfileDelta`]s of the
//! snapshot's [`DeltaLog`] and re-anchors the profile origin to `now`
//! ([`AvailabilityProfile::advance_origin`]).
//!
//! # The log's contract
//!
//! * **What is recorded, where** — one [`ProfileDelta`] at each of these
//!   sites of the resource manager and nowhere else: `Started` (a job
//!   began holding cores), `Finished` (it stopped: completion, kill,
//!   preemption or node failure), `Resized` (its held width changed:
//!   dynamic grant, malleable resize, `tm_dynfree`, a shed pre-reserve),
//!   `CapacityChanged` (node failed or repaired; the whole profile is
//!   invalid), `LeftQueue` (`qdel` removed a *queued* job) and `Charged`
//!   (a constant-width usage segment closed). The first four feed the
//!   timeline; the last two are absorbed at the top of `Maui::iterate` —
//!   by a step shared verbatim with [`crate::reference::iterate_naive`] —
//!   which wipes the job's DFS slate and charges the static-fairshare
//!   window covering the close instant. Beside the snapshot's own sets,
//!   the log is the only way a fact reaches the scheduler.
//! * **Recording rule** — nothing is recorded until a first log has been
//!   drained since the resource manager was built, recovered or loaded
//!   from an image: a server nobody drains holds an empty log.
//! * **Gap rule** — the first log after any of those (`base_epoch == 0`)
//!   is self-contained: it carries the per-user usage totals as `Charged`
//!   entries at `now`, and the scheduler drops what it knew — the
//!   timeline rebuilds, DFS slates are pruned to the snapshot's queue, the
//!   fairshare tracker restarts from the totals. A snapshot without a log
//!   rebuilds and prunes and tells the tracker nothing. Any other break
//!   in the epochs (below) rebuilds the timeline.
//! * **One consumer per server** — draining is destructive: a log handed
//!   to one scheduler and then dropped, or split between two, is lost to
//!   the tracker.
//! * **Re-anchor rule** — on advance, the origin moves forward to `now`
//!   and exactly the overdue holds (effective end `< now` + grace) are
//!   re-clamped to `now + grace`, preserving [`planned_end`] semantics.
//!   Because `now` is monotone, a re-clamped end never moves backwards.
//! * **Equivalence invariant** — after every advance the incremental
//!   profile is *byte-equal* to [`profile_from_running`] over the
//!   snapshot's running set. `AvailabilityProfile`'s canonical form
//!   (coalesced, first step at origin) is unique, so byte equality is
//!   functional equality. `Maui` asserts this, and the whole outcome
//!   against `iterate_naive`, in debug builds.
//!
//! Continuity is tracked by epochs: the server stamps each drained log
//! with the epoch of the previous snapshot (`base_epoch`) and its own
//! (`epoch`). A mismatch — a missed snapshot, a fresh scheduler, a
//! capacity change, or a snapshot built without a log — falls back to a
//! full rebuild, so correctness never depends on the fast path being
//! taken.

use crate::snapshot::{RunningJob, Snapshot};
use crate::timeline::{planned_end, AvailabilityProfile};
use dynbatch_core::{JobId, SimTime, UserId};
use std::collections::{BTreeSet, HashMap};

/// One fact the resource manager recorded for the scheduler: a
/// running-set mutation, a queue departure or a usage charge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileDelta {
    /// A job began holding cores (queue start, backfill start, moldable
    /// start — any path that allocates).
    Started {
        /// The job.
        job: JobId,
        /// Cores the planner must book: allocation plus any guaranteeing
        /// pre-reserve (`cores + reserved_extra`).
        held_cores: u32,
        /// The job's walltime end (the planner clamps it per
        /// [`planned_end`]).
        walltime_end: SimTime,
    },
    /// A job stopped holding cores: finished, killed, preempted, or lost
    /// to a node failure.
    Finished {
        /// The job.
        job: JobId,
    },
    /// A job's held width changed (dynamic grant, malleable grow/shrink,
    /// `tm_dynfree`). Carries the *new total* held width, not a diff, so
    /// a lost or duplicated delta cannot silently compound.
    Resized {
        /// The job.
        job: JobId,
        /// The new `cores + reserved_extra`.
        held_cores: u32,
    },
    /// The machine width changed (node failed or repaired). The profile
    /// capacity is stale; the timeline must rebuild.
    CapacityChanged,
    /// A queued job was deleted; whatever delay grants had charged to it
    /// is moot. No profile effect.
    LeftQueue {
        /// The job.
        job: JobId,
    },
    /// A constant-width usage segment closed (width change, finish,
    /// kill, preemption, node failure) — or, in a `base_epoch == 0` log,
    /// a user's whole recorded usage. No profile effect.
    Charged {
        /// The job's owner.
        user: UserId,
        /// Width × length of the segment, core-milliseconds.
        core_ms: u64,
        /// When the segment closed: static fairshare charges the window
        /// covering this instant, not the one current when the log is
        /// absorbed.
        at: SimTime,
    },
}

/// What the resource manager recorded since the previous snapshot,
/// stamped for continuity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaLog {
    /// Epoch of the snapshot these deltas extend. The timeline only
    /// applies the log if this matches the epoch it last advanced to;
    /// `0` marks a self-contained log (the module's gap rule).
    pub base_epoch: u64,
    /// Epoch of the snapshot carrying this log.
    pub epoch: u64,
    /// The entries, in occurrence order.
    pub deltas: Vec<ProfileDelta>,
}

/// Counters describing how the timeline has been maintained, for the
/// bench harness and for asserting the fast path is actually taken.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimelineStats {
    /// Full rebuilds from the running set (continuity lost, capacity
    /// changed, or no delta log supplied).
    pub rebuilds: u64,
    /// Advances served by the delta fast path.
    pub delta_batches: u64,
    /// Individual profile deltas applied on the fast path (`LeftQueue`
    /// and `Charged` entries are not the timeline's and are not counted).
    pub deltas_applied: u64,
}

/// A tracked hold: what the profile currently books for one running job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeldJob {
    /// Booked width (`cores + reserved_extra`).
    cores: u32,
    /// The job's true walltime end (re-clamping needs it).
    walltime_end: SimTime,
    /// The end instant currently booked in the profile
    /// (`planned_end(now_at_last_touch, walltime_end)`).
    effective_end: SimTime,
}

/// The persistent, delta-maintained base availability profile.
#[derive(Debug, Clone)]
pub struct IncrementalTimeline {
    profile: AvailabilityProfile,
    /// Current holds by job.
    held: HashMap<JobId, HeldJob>,
    /// Holds ordered by booked end, so re-clamping overdue jobs touches
    /// exactly the overdue prefix instead of scanning every hold.
    ends: BTreeSet<(SimTime, JobId)>,
    /// Epoch of the snapshot last advanced to (`None` until the first
    /// advance, and after a snapshot without a log).
    epoch: Option<u64>,
    stats: TimelineStats,
}

impl Default for IncrementalTimeline {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalTimeline {
    /// An empty timeline; the first [`IncrementalTimeline::advance`]
    /// always rebuilds.
    pub fn new() -> Self {
        IncrementalTimeline {
            profile: AvailabilityProfile::new(SimTime::ZERO, 0),
            held: HashMap::new(),
            ends: BTreeSet::new(),
            epoch: None,
            stats: TimelineStats::default(),
        }
    }

    /// The maintained profile, anchored at the `now` of the last advance.
    pub fn profile(&self) -> &AvailabilityProfile {
        &self.profile
    }

    /// Maintenance counters.
    pub fn stats(&self) -> TimelineStats {
        self.stats
    }

    /// Brings the profile up to `snap`: the delta fast path when the
    /// snapshot's log extends the epoch last advanced to, a full rebuild
    /// otherwise. Either way the result equals
    /// `profile_from_running(snap.now, snap.total_cores, &snap.running)`.
    pub fn advance(&mut self, snap: &Snapshot) -> &AvailabilityProfile {
        let now = snap.now;
        let continuous = match (&snap.deltas, self.epoch) {
            (Some(log), Some(epoch)) => {
                log.base_epoch == epoch
                    && snap.total_cores == self.profile.capacity()
                    && now >= self.profile.origin()
                    && !log
                        .deltas
                        .iter()
                        .any(|d| matches!(d, ProfileDelta::CapacityChanged))
            }
            _ => false,
        };
        let applied = continuous && {
            let log = snap.deltas.as_ref().expect("continuity implies a log");
            self.apply(now, &log.deltas)
        };
        if applied {
            self.stats.delta_batches += 1;
        } else {
            self.rebuild(now, snap.total_cores, &snap.running);
            self.stats.rebuilds += 1;
        }
        self.epoch = snap.deltas.as_ref().map(|log| log.epoch);
        &self.profile
    }

    /// The fast path: re-anchor, re-clamp overdue holds, replay `deltas`.
    /// Returns `false` on an inconsistent stream (unknown job, duplicate
    /// start) — the caller rebuilds, which discards any partial mutation.
    fn apply(&mut self, now: SimTime, deltas: &[ProfileDelta]) -> bool {
        self.profile.advance_origin(now);
        self.reclamp_overdue(now);
        for delta in deltas {
            match *delta {
                ProfileDelta::Started {
                    job,
                    held_cores,
                    walltime_end,
                } => {
                    if self.held.contains_key(&job) {
                        return false;
                    }
                    self.book(now, job, held_cores, walltime_end);
                }
                ProfileDelta::Finished { job } => {
                    let Some(h) = self.held.remove(&job) else {
                        return false;
                    };
                    self.ends.remove(&(h.effective_end, job));
                    self.profile.release(now, h.effective_end, h.cores);
                }
                ProfileDelta::Resized { job, held_cores } => {
                    let Some(h) = self.held.get_mut(&job) else {
                        return false;
                    };
                    if held_cores > h.cores {
                        self.profile
                            .hold(now, h.effective_end, held_cores - h.cores);
                    } else if held_cores < h.cores {
                        self.profile
                            .release(now, h.effective_end, h.cores - held_cores);
                    }
                    h.cores = held_cores;
                }
                // Filtered out before `apply` is entered; defensive.
                ProfileDelta::CapacityChanged => return false,
                ProfileDelta::LeftQueue { .. } | ProfileDelta::Charged { .. } => continue,
            }
            self.stats.deltas_applied += 1;
        }
        true
    }

    /// Re-clamps every hold whose booked end predates `now` + grace: pops
    /// the overdue prefix of `ends` and extends each hold to
    /// `planned_end(now, walltime_end)`. Monotone `now` guarantees the
    /// new end is never earlier than the booked one, so the extension is
    /// a pure `hold` over the tail.
    fn reclamp_overdue(&mut self, now: SimTime) {
        let cutoff = planned_end(now, SimTime::ZERO); // now + grace
        while let Some(&(end, job)) = self.ends.iter().next() {
            if end >= cutoff {
                break;
            }
            self.ends.remove(&(end, job));
            let h = self.held.get_mut(&job).expect("`ends` mirrors `held`");
            let new_end = planned_end(now, h.walltime_end);
            debug_assert!(new_end >= end, "re-clamped end moved backwards");
            self.profile.hold(end.max(now), new_end, h.cores);
            h.effective_end = new_end;
            self.ends.insert((new_end, job));
        }
    }

    /// The slow path: discard all state and rebuild from the running set.
    fn rebuild(&mut self, now: SimTime, total_cores: u32, running: &[RunningJob]) {
        self.profile.reset(now, total_cores);
        self.held.clear();
        self.ends.clear();
        for r in running {
            self.book(now, r.id, r.cores + r.reserved_extra, r.walltime_end);
        }
    }

    /// Books one new hold.
    fn book(&mut self, now: SimTime, job: JobId, cores: u32, walltime_end: SimTime) {
        let end = planned_end(now, walltime_end);
        self.profile.hold(now, end, cores);
        self.held.insert(
            job,
            HeldJob {
                cores,
                walltime_end,
                effective_end: end,
            },
        );
        self.ends.insert((end, job));
    }
}

/// Builds the availability profile of the running workload from scratch:
/// each running job holds `cores + reserved_extra` until
/// [`planned_end`]`(now, walltime_end)`. This is the executable
/// specification the incremental path is asserted byte-equal to.
pub fn profile_from_running(
    now: SimTime,
    total_cores: u32,
    running: &[RunningJob],
) -> AvailabilityProfile {
    let mut p = AvailabilityProfile::new(now, total_cores);
    rebuild_into(&mut p, now, total_cores, running);
    p
}

/// [`profile_from_running`] into an existing buffer (allocation-recycling
/// variant for per-iteration use).
pub fn rebuild_into(
    p: &mut AvailabilityProfile,
    now: SimTime,
    total_cores: u32,
    running: &[RunningJob],
) {
    p.reset(now, total_cores);
    for r in running {
        p.hold(
            now,
            planned_end(now, r.walltime_end),
            r.cores + r.reserved_extra,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynbatch_core::testkit::{check, TestRng};
    use dynbatch_core::{GroupId, SimDuration, UserId};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn running(id: u64, cores: u32, end: SimTime) -> RunningJob {
        RunningJob {
            id: JobId(id),
            user: UserId(0),
            group: GroupId(0),
            cores,
            start_time: SimTime::ZERO,
            walltime_end: end,
            backfilled: false,
            reserved_extra: 0,
            malleable: None,
        }
    }

    fn snap(
        now: SimTime,
        total: u32,
        running: Vec<RunningJob>,
        deltas: Option<DeltaLog>,
    ) -> Snapshot {
        Snapshot {
            now,
            total_cores: total,
            running: running.into(),
            deltas,
            ..Default::default()
        }
    }

    #[test]
    fn first_advance_rebuilds_then_deltas_apply() {
        let mut tl = IncrementalTimeline::new();
        let jobs = vec![running(1, 4, t(100)), running(2, 2, t(50))];
        let log0 = DeltaLog {
            base_epoch: 0,
            epoch: 1,
            deltas: vec![],
        };
        tl.advance(&snap(t(0), 8, jobs.clone(), Some(log0)));
        assert_eq!(tl.stats().rebuilds, 1, "no continuity on first advance");
        assert_eq!(*tl.profile(), profile_from_running(t(0), 8, &jobs));

        // Job 2 finishes, job 3 starts; continuity holds → fast path. The
        // entries that are not the timeline's pass through uncounted.
        let jobs2 = vec![running(1, 4, t(100)), running(3, 3, t(80))];
        let log1 = DeltaLog {
            base_epoch: 1,
            epoch: 2,
            deltas: vec![
                ProfileDelta::Charged {
                    user: UserId(0),
                    core_ms: 20_000,
                    at: t(10),
                },
                ProfileDelta::Finished { job: JobId(2) },
                ProfileDelta::LeftQueue { job: JobId(9) },
                ProfileDelta::Started {
                    job: JobId(3),
                    held_cores: 3,
                    walltime_end: t(80),
                },
            ],
        };
        tl.advance(&snap(t(10), 8, jobs2.clone(), Some(log1)));
        assert_eq!(tl.stats().rebuilds, 1);
        assert_eq!(tl.stats().delta_batches, 1);
        assert_eq!(tl.stats().deltas_applied, 2);
        assert_eq!(*tl.profile(), profile_from_running(t(10), 8, &jobs2));
    }

    #[test]
    fn a_log_entry_stays_three_words() {
        // The server pushes one per start, finish, resize and closed
        // segment, and the snapshot carries them by value.
        assert_eq!(std::mem::size_of::<ProfileDelta>(), 24);
    }

    #[test]
    fn epoch_gap_and_capacity_change_force_rebuild() {
        let mut tl = IncrementalTimeline::new();
        let jobs = vec![running(1, 4, t(100))];
        tl.advance(&snap(
            t(0),
            8,
            jobs.clone(),
            Some(DeltaLog {
                base_epoch: 0,
                epoch: 1,
                deltas: vec![],
            }),
        ));
        // base_epoch 5 ≠ stored epoch 1: a missed snapshot.
        tl.advance(&snap(
            t(5),
            8,
            jobs.clone(),
            Some(DeltaLog {
                base_epoch: 5,
                epoch: 6,
                deltas: vec![],
            }),
        ));
        assert_eq!(tl.stats().rebuilds, 2);
        // CapacityChanged in-stream: rebuild at the new width.
        tl.advance(&snap(
            t(6),
            6,
            jobs.clone(),
            Some(DeltaLog {
                base_epoch: 6,
                epoch: 7,
                deltas: vec![ProfileDelta::CapacityChanged],
            }),
        ));
        assert_eq!(tl.stats().rebuilds, 3);
        assert_eq!(*tl.profile(), profile_from_running(t(6), 6, &jobs));
        // Missing log (plain snapshot): rebuild and drop continuity.
        tl.advance(&snap(t(7), 6, jobs.clone(), None));
        assert_eq!(tl.stats().rebuilds, 4);
        tl.advance(&snap(
            t(8),
            6,
            jobs,
            Some(DeltaLog {
                base_epoch: 7,
                epoch: 8,
                deltas: vec![],
            }),
        ));
        assert_eq!(tl.stats().rebuilds, 5, "continuity was lost at epoch 7");
    }

    #[test]
    fn inconsistent_stream_falls_back_to_rebuild() {
        let mut tl = IncrementalTimeline::new();
        let jobs = vec![running(1, 4, t(100))];
        tl.advance(&snap(
            t(0),
            8,
            jobs.clone(),
            Some(DeltaLog {
                base_epoch: 0,
                epoch: 1,
                deltas: vec![],
            }),
        ));
        // Finished for a job the timeline never saw started.
        tl.advance(&snap(
            t(1),
            8,
            jobs.clone(),
            Some(DeltaLog {
                base_epoch: 1,
                epoch: 2,
                deltas: vec![ProfileDelta::Finished { job: JobId(99) }],
            }),
        ));
        assert_eq!(tl.stats().rebuilds, 2);
        assert_eq!(*tl.profile(), profile_from_running(t(1), 8, &jobs));
    }

    #[test]
    fn overdue_holds_are_reclamped_on_advance() {
        let mut tl = IncrementalTimeline::new();
        // Job ends at t=5 but is still running at t=10: the rebuild books
        // it to 10 s + 1 ms, and so must the fast path at t=20.
        let jobs = vec![running(1, 4, t(5))];
        tl.advance(&snap(
            t(10),
            8,
            jobs.clone(),
            Some(DeltaLog {
                base_epoch: 0,
                epoch: 1,
                deltas: vec![],
            }),
        ));
        tl.advance(&snap(
            t(20),
            8,
            jobs.clone(),
            Some(DeltaLog {
                base_epoch: 1,
                epoch: 2,
                deltas: vec![],
            }),
        ));
        assert_eq!(tl.stats().delta_batches, 1);
        assert_eq!(*tl.profile(), profile_from_running(t(20), 8, &jobs));
        // The overdue job finally finishes; its (re-clamped) hold must
        // release cleanly on the fast path.
        tl.advance(&snap(
            t(30),
            8,
            vec![],
            Some(DeltaLog {
                base_epoch: 2,
                epoch: 3,
                deltas: vec![ProfileDelta::Finished { job: JobId(1) }],
            }),
        ));
        assert_eq!(tl.stats().delta_batches, 2);
        assert_eq!(*tl.profile(), profile_from_running(t(30), 8, &[]));
    }

    /// Randomised model check: a long stream of start/finish/resize
    /// events (including overdue jobs and occasional continuity breaks)
    /// keeps the incremental profile byte-equal to the rebuild.
    #[test]
    fn random_delta_streams_match_rebuild() {
        check(128, 0x1CC0, run_random_stream);
    }

    fn run_random_stream(rng: &mut TestRng) {
        let total = 16 + rng.range_u32(0, 48);
        let mut tl = IncrementalTimeline::new();
        let mut live: Vec<RunningJob> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut next_id = 1u64;
        let mut epoch = 0u64;
        let steps = 40 + rng.range_usize(0, 40);
        for _ in 0..steps {
            now = now.saturating_add(SimDuration::from_millis(rng.below(5_000)));
            let mut deltas = Vec::new();
            let events = rng.range_usize(0, 4);
            for _ in 0..events {
                let held: u32 = live.iter().map(|r| r.cores).sum();
                match rng.below(10) {
                    // Start a job if capacity allows.
                    0..=4 => {
                        let free = total - held.min(total);
                        if free == 0 {
                            continue;
                        }
                        let cores = 1 + rng.range_u32(0, free);
                        // Sometimes already overdue at start.
                        let end = if rng.chance(0.15) {
                            SimTime::from_millis(now.as_millis().saturating_sub(rng.below(10_000)))
                        } else {
                            now.saturating_add(SimDuration::from_millis(1 + rng.below(60_000)))
                        };
                        let id = JobId(next_id);
                        next_id += 1;
                        live.push(running(id.0, cores, end));
                        deltas.push(ProfileDelta::Started {
                            job: id,
                            held_cores: cores,
                            walltime_end: end,
                        });
                    }
                    // Finish a random live job.
                    5..=7 => {
                        if live.is_empty() {
                            continue;
                        }
                        let i = rng.range_usize(0, live.len());
                        let gone = live.swap_remove(i);
                        deltas.push(ProfileDelta::Finished { job: gone.id });
                    }
                    // Resize a random live job within capacity.
                    _ => {
                        if live.is_empty() {
                            continue;
                        }
                        let i = rng.range_usize(0, live.len());
                        let headroom = total - held.min(total);
                        let new = 1 + rng.range_u32(0, live[i].cores + headroom);
                        live[i].cores = new;
                        deltas.push(ProfileDelta::Resized {
                            job: live[i].id,
                            held_cores: new,
                        });
                    }
                }
            }
            // Occasionally drop the log entirely (plain snapshot).
            let log = if rng.chance(0.1) {
                None
            } else {
                let base = epoch;
                epoch += 1;
                Some(DeltaLog {
                    base_epoch: base,
                    epoch,
                    deltas,
                })
            };
            tl.advance(&snap(now, total, live.clone(), log));
            assert_eq!(
                *tl.profile(),
                profile_from_running(now, total, &live),
                "divergence at now={now}"
            );
        }
        // The fast path must actually have been exercised.
        assert!(tl.stats().delta_batches > 0 || steps == 0);
    }
}
