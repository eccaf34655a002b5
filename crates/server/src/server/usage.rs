//! The usage ledger: per-user core-milliseconds charged in constant-width
//! segments, and the decayed time-aware accounts charged in lock-step.
//!
//! Invariant owned here: each segment of a job's run is charged exactly
//! once, at the width it had, before that width changes — so replay
//! re-issues the identical charges — and the scheduler's static
//! fairshare tracker holds the whole ledger
//! ([`PbsServer::told_all_usage`]).

use super::PbsServer;
use dynbatch_core::{JobId, SimDuration, SimTime, UserId};
use dynbatch_sched::{Maui, ProfileDelta, UsageHistory};

impl PbsServer {
    /// Per-user historical usage in core-milliseconds (closed segments
    /// only), in user-id order — what the first delta log after a
    /// recovery re-seeds the scheduler's fairshare tracker with.
    pub fn usage(&self) -> impl Iterator<Item = (UserId, u64)> + '_ {
        self.usage.iter().map(|(&u, &ms)| (u, ms))
    }

    /// Total core-milliseconds charged to `user` so far (excluding the
    /// still-open segment of any active job).
    pub fn usage_core_millis(&self, user: UserId) -> u64 {
        self.usage.get(&user).copied().unwrap_or(0)
    }

    /// The decayed per-user/per-queue resource-hour accounts (time-aware
    /// fairness), charged in lock-step with [`PbsServer::usage`].
    pub fn usage_history(&self) -> &UsageHistory {
        &self.usage_hist
    }

    /// Sets the decay half-life of the time-aware usage accounts. Call
    /// before [`PbsServer::enable_journal`] and before any job runs —
    /// changing the half-life mid-history would silently reinterpret
    /// already-decayed charges, so this only takes effect while the
    /// accounts are empty.
    pub fn set_usage_half_life(&mut self, half_life: SimDuration) {
        if self.usage_hist.is_empty() {
            self.usage_hist.set_half_life(half_life);
        }
    }

    /// Opens the usage cursor for a job that just started holding cores.
    pub(super) fn usage_open(&mut self, id: JobId, now: SimTime) {
        self.usage_since.insert(id, now);
    }

    /// Charges the open segment `[since, now)` at the job's *current*
    /// width and restarts the cursor at `now`. Must run after the last
    /// fallible step of a mutation but **before** `cores_allocated`
    /// changes, so every charged segment has constant width and a failed
    /// command leaves the ledger untouched (replay equivalence).
    pub(super) fn usage_mark(&mut self, id: JobId, now: SimTime) {
        let (Some(since), Some(job)) = (self.usage_since.get_mut(&id), self.jobs.get(&id)) else {
            return;
        };
        let span = now.duration_since(*since).as_millis();
        *since = now;
        let core_ms = job.cores_allocated as u64 * span;
        let (user, queue) = (job.spec.user, job.spec.effective_queue());
        *self.usage.entry(user).or_insert(0) += core_ms;
        if core_ms > 0 {
            // Charge-at-close: the whole segment lands at its close
            // instant in the decayed accounts (a segment is at most one
            // width-change interval long, far shorter than any sensible
            // half-life, so the approximation error is negligible — and
            // replay re-issues the identical charge sequence, keeping
            // recovery byte-exact).
            self.usage_hist.charge(user, queue, core_ms, now);
            self.note(ProfileDelta::Charged {
                user,
                core_ms,
                at: now,
            });
        }
    }

    /// Charges the final segment and drops the cursor (finish, qdel,
    /// preempt, node failure).
    pub(super) fn usage_close(&mut self, id: JobId, now: SimTime) {
        self.usage_mark(id, now);
        self.usage_since.remove(&id);
    }

    /// Whether `maui`, having just absorbed this server's delta log, holds
    /// the usage ledger in its static-fairshare tracker: every closed
    /// segment, none twice. (Once the oldest window has rotated out of the
    /// tracker it holds less, and nothing is checked.)
    pub(super) fn told_all_usage(&self, maui: &Maui, now: SimTime) -> bool {
        let fs = maui.fairshare();
        let retained = fs.config().window * fs.config().windows as u64;
        let forgetful = !retained.is_zero() && now >= SimTime::ZERO + retained;
        forgetful
            || self.usage().all(|(user, core_ms)| {
                let (held, told) = (fs.charged(user), core_ms as f64 / 1000.0);
                (held - told).abs() <= 1e-9 * told.max(1.0)
            })
    }
}
