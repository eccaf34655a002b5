//! Job accounting: the completed-job ledger.
//!
//! Fair sharing "is realized through job, user, and resource accounting"
//! (paper §III-D). The server records a [`JobOutcome`] for every completed
//! job; metrics, fairshare charging and the benchmark harness all read from
//! this log.

use dynbatch_core::{JobClass, JobOutcome, OutcomeTotals, SimDuration, UserId};
use std::collections::HashMap;

/// Append-only log of completed jobs.
///
/// Besides the per-job outcome Vec, the log always maintains O(1)-sized
/// derivatives of the record stream: [`OutcomeTotals`] for summaries and a
/// rolling order-sensitive digest for byte-equality checks. Streamed
/// low-memory replays can therefore turn off outcome *retention*
/// ([`AccountingLog::set_retain`]) without losing either aggregates or
/// the ability to compare runs.
#[derive(Debug, Clone)]
pub struct AccountingLog {
    outcomes: Vec<JobOutcome>,
    retain: bool,
    recorded: u64,
    totals: OutcomeTotals,
    digest: u64,
}

/// FNV-1a offset basis / prime (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl Default for AccountingLog {
    fn default() -> Self {
        AccountingLog {
            outcomes: Vec::new(),
            retain: true,
            recorded: 0,
            totals: OutcomeTotals::default(),
            digest: FNV_OFFSET,
        }
    }
}

impl AccountingLog {
    /// An empty log.
    pub fn new() -> Self {
        AccountingLog::default()
    }

    /// Records a completion.
    pub fn record(&mut self, outcome: JobOutcome) {
        self.recorded += 1;
        self.totals.add(&outcome);
        self.fold_into_digest(&outcome);
        if self.retain {
            self.outcomes.push(outcome);
        }
    }

    /// Enables or disables per-job outcome retention. With retention off
    /// the log runs in O(1) memory: [`AccountingLog::totals`] and
    /// [`AccountingLog::digest`] keep working; [`AccountingLog::outcomes`]
    /// (and everything derived from it) sees an empty slice. Disabling
    /// drops outcomes already buffered.
    pub fn set_retain(&mut self, retain: bool) {
        self.retain = retain;
        if !retain {
            self.outcomes.clear();
        }
    }

    /// All outcomes in completion order (empty when retention is off).
    pub fn outcomes(&self) -> &[JobOutcome] {
        &self.outcomes
    }

    /// Completions recorded, whether or not they were retained.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Incremental aggregates over every recorded completion.
    pub fn totals(&self) -> &OutcomeTotals {
        &self.totals
    }

    /// Rolling order-sensitive FNV-1a digest over every recorded
    /// completion's fields. O(1) to read, identical across retain modes
    /// by construction — the cheap way to assert two runs recorded the
    /// same outcome stream without keeping either stream.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    fn fold_into_digest(&mut self, o: &JobOutcome) {
        let mut h = self.digest;
        h = fnv_fold(h, &o.id.0.to_le_bytes());
        h = fnv_fold(h, o.name.as_bytes());
        h = fnv_fold(h, &[0xff]); // name terminator
        h = fnv_fold(h, &o.user.0.to_le_bytes());
        let class = match o.class {
            JobClass::Rigid => 0u8,
            JobClass::Evolving => 1,
            JobClass::Malleable => 2,
            JobClass::Moldable => 3,
        };
        h = fnv_fold(h, &[class]);
        h = fnv_fold(h, &o.cores_requested.to_le_bytes());
        h = fnv_fold(h, &o.cores_final.to_le_bytes());
        h = fnv_fold(h, &o.submit_time.as_millis().to_le_bytes());
        h = fnv_fold(h, &o.start_time.as_millis().to_le_bytes());
        h = fnv_fold(h, &o.end_time.as_millis().to_le_bytes());
        h = fnv_fold(h, &o.dyn_requests.to_le_bytes());
        h = fnv_fold(h, &o.dyn_grants.to_le_bytes());
        h = fnv_fold(h, &[o.backfilled as u8]);
        self.digest = h;
    }

    /// Core-seconds consumed per user (for fairshare-style reporting).
    /// Uses the *final* core count for the whole runtime, which slightly
    /// over-charges jobs that grew mid-run; the simulator charges exact
    /// usage separately.
    pub fn core_seconds_by_user(&self) -> HashMap<UserId, f64> {
        let mut map = HashMap::new();
        for o in &self.outcomes {
            *map.entry(o.user).or_insert(0.0) += o.cores_final as f64 * o.runtime().as_secs_f64();
        }
        map
    }

    /// Mean waiting time over all recorded jobs (totals-based, exact in
    /// both retain modes).
    pub fn mean_wait(&self) -> SimDuration {
        if self.totals.jobs == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_millis(self.totals.sum_wait_ms / self.totals.jobs)
    }

    /// Number of evolving jobs whose dynamic request was satisfied
    /// (the paper's "Satisfied Dyn Jobs" column in Table II).
    pub fn satisfied_dyn_jobs(&self) -> usize {
        self.totals.satisfied_dyn as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynbatch_core::{JobClass, JobId, SimTime};

    fn outcome(
        id: u64,
        user: u32,
        cores: u32,
        submit: u64,
        start: u64,
        end: u64,
        grants: u32,
    ) -> JobOutcome {
        JobOutcome {
            id: JobId(id),
            name: "T".into(),
            user: UserId(user),
            class: JobClass::Rigid,
            cores_requested: cores,
            cores_final: cores,
            submit_time: SimTime::from_secs(submit),
            start_time: SimTime::from_secs(start),
            end_time: SimTime::from_secs(end),
            dyn_requests: grants,
            dyn_grants: grants,
            backfilled: false,
        }
    }

    #[test]
    fn empty_log() {
        let log = AccountingLog::new();
        assert_eq!(log.mean_wait(), SimDuration::ZERO);
        assert_eq!(log.satisfied_dyn_jobs(), 0);
        assert!(log.outcomes().is_empty());
    }

    #[test]
    fn aggregates() {
        let mut log = AccountingLog::new();
        log.record(outcome(1, 0, 4, 0, 10, 110, 0)); // wait 10, 400 cs
        log.record(outcome(2, 0, 2, 0, 30, 80, 1)); // wait 30, 100 cs
        assert_eq!(log.mean_wait(), SimDuration::from_secs(20));
        assert_eq!(log.satisfied_dyn_jobs(), 1);
        let cs = log.core_seconds_by_user();
        assert!((cs[&UserId(0)] - 500.0).abs() < 1e-9);
    }

    /// The O(1) derivatives (digest, totals, recorded count, mean wait)
    /// must not depend on whether outcomes are retained.
    #[test]
    fn prop_digest_and_totals_are_retain_mode_independent() {
        dynbatch_core::testkit::check(100, 0xD16E, |rng| {
            let mut keep = AccountingLog::new();
            let mut drop = AccountingLog::new();
            drop.set_retain(false);
            let n = rng.range_usize(0, 30);
            for i in 0..n {
                let o = outcome(
                    i as u64,
                    rng.range_u32(0, 4),
                    rng.range_u32(1, 64),
                    rng.range(0, 50),
                    rng.range(50, 100),
                    rng.range(100, 500),
                    rng.range_u32(0, 3),
                );
                keep.record(o.clone());
                drop.record(o);
            }
            assert_eq!(keep.digest(), drop.digest());
            assert_eq!(keep.totals(), drop.totals());
            assert_eq!(keep.recorded(), drop.recorded());
            assert_eq!(keep.mean_wait(), drop.mean_wait());
            assert_eq!(keep.satisfied_dyn_jobs(), drop.satisfied_dyn_jobs());
            assert_eq!(keep.outcomes().len(), n);
            assert!(drop.outcomes().is_empty());
            // Order sensitivity: swapping two records changes the digest.
            if n >= 2 {
                let mut swapped = AccountingLog::new();
                let mut v = keep.outcomes().to_vec();
                v.swap(0, 1);
                for o in v {
                    swapped.record(o);
                }
                assert_ne!(swapped.digest(), keep.digest());
            }
        });
    }

    /// Property: the log is strictly append-only. Whatever interleaving of
    /// records and reads happens, every previously observed prefix is a
    /// verbatim prefix of every later observation — nothing is reordered,
    /// rewritten or dropped. (Crash recovery leans on this: replaying a
    /// journal prefix must reproduce exactly the accounting records
    /// emitted up to that point, which is only well-defined because the
    /// live log never mutates its past.)
    #[test]
    fn prop_log_is_append_only() {
        dynbatch_core::testkit::check(200, 0xACC0, |rng| {
            let mut log = AccountingLog::new();
            let mut observed: Vec<Vec<JobOutcome>> = vec![log.outcomes().to_vec()];
            let steps = rng.range_usize(1, 40);
            for i in 0..steps {
                let batch = rng.range_usize(1, 4);
                for b in 0..batch {
                    log.record(outcome(
                        (i * 8 + b) as u64,
                        rng.range_u32(0, 4),
                        rng.range_u32(1, 64),
                        rng.range(0, 50),
                        rng.range(50, 100),
                        rng.range(100, 500),
                        rng.range_u32(0, 3),
                    ));
                }
                observed.push(log.outcomes().to_vec());
            }
            for pair in observed.windows(2) {
                let (earlier, later) = (&pair[0], &pair[1]);
                assert!(earlier.len() <= later.len());
                for (a, b) in earlier.iter().zip(later.iter()) {
                    assert_eq!(a.id, b.id);
                    assert_eq!(a.user, b.user);
                    assert_eq!(a.end_time, b.end_time);
                    assert_eq!(a.cores_final, b.cores_final);
                }
            }
            // Aggregates are pure functions of the full log: reading them
            // repeatedly neither mutates nor reorders it.
            let before = log.outcomes().to_vec();
            let _ = log.mean_wait();
            let _ = log.core_seconds_by_user();
            let _ = log.satisfied_dyn_jobs();
            assert_eq!(before.len(), log.outcomes().len());
        });
    }
}
