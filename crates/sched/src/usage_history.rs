//! Time-aware fairness: decayed resource-hour accounts.
//!
//! The static [`crate::fairshare`] tracker retains a handful of fixed
//! windows and forgets everything older. This module implements the
//! modern alternative (KAI-Scheduler's time-aware fairness, Shockwave's
//! long-horizon accounting): every closed usage segment charges an
//! exponentially-decayed account, so
//!
//! ```text
//! usage(now) = Σ charge_i · 2^−(now − t_i)/half_life
//! ```
//!
//! The sum is never materialised. Each account keeps one running
//! accumulator `acc` valued *as of* its last charge instant, and decays it
//! lazily: charging at `t ≥ last` first multiplies `acc` by
//! `2^−(t − last)/half_life`, then adds the new charge — O(1) per charge,
//! O(1) per read, no window vectors, no rotation loops.
//!
//! Accounts are kept per user and per submission queue (see
//! [`dynbatch_core::QueueId`]), plus one grand total. Charges are in
//! **core-milliseconds** (exactly what the server's segment ledger
//! produces); reads convert to decayed core-hours or to a
//! cluster-capacity-normalized *share*: a user holding a constant `c`
//! cores forever converges to `acc = c · half_life / ln 2`, so
//!
//! ```text
//! share = acc_ms · ln 2 / (half_life_ms · capacity_cores)
//! ```
//!
//! equals `c / capacity` at steady state — a month at 10 % of the cluster
//! and a day at 100 % compare sensibly.
//!
//! Crash durability: the accumulators are `f64`s mutated by a replayable
//! sequence of charges. The server snapshots them bit-exactly
//! ([`UsageHistory::to_json`] and its binary encoding both store
//! `f64::to_bits`), and journal replay
//! re-issues the identical charge sequence, so recovered state is
//! byte-identical to the uncrashed run.

use dynbatch_core::codec::{put_len, Reader, Wire};
use dynbatch_core::json::Json;
use dynbatch_core::{QueueId, SimDuration, SimTime, UserId};
use std::collections::BTreeMap;

/// Milliseconds per core-hour, for converting ledger charges to hours.
const MS_PER_HOUR: f64 = 3_600_000.0;

/// One exponentially-decayed accumulator: `acc_ms` core-milliseconds
/// valued as of instant `last`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecayedAccount {
    /// Decayed core-milliseconds, valued at `last`.
    pub acc_ms: f64,
    /// Instant the accumulator was last brought forward to.
    pub last: SimTime,
}

impl DecayedAccount {
    /// An empty account anchored at time zero.
    pub const ZERO: DecayedAccount = DecayedAccount {
        acc_ms: 0.0,
        last: SimTime::ZERO,
    };

    /// Charges `amount_ms` core-milliseconds at instant `at`.
    ///
    /// Charges at or before `last` are added undecayed (the server's
    /// segment ledger closes segments in time order, so this only happens
    /// for same-instant charges, where `2⁰ = 1` anyway — skipping the
    /// `exp2` keeps the arithmetic bit-stable under replay).
    pub fn charge(&mut self, amount_ms: f64, at: SimTime, half_life: SimDuration) {
        if at > self.last {
            self.acc_ms *= decay_factor(self.last, at, half_life);
            self.last = at;
        }
        self.acc_ms += amount_ms;
    }

    /// The decayed value at `now`, without mutating the account.
    /// Instants before `last` read the accumulator as-is.
    pub fn decayed_ms(&self, now: SimTime, half_life: SimDuration) -> f64 {
        if now > self.last {
            self.acc_ms * decay_factor(self.last, now, half_life)
        } else {
            self.acc_ms
        }
    }
}

/// `2^−(to − from)/half_life`; a zero half-life disables decay (factor 1).
fn decay_factor(from: SimTime, to: SimTime, half_life: SimDuration) -> f64 {
    if half_life.is_zero() {
        return 1.0;
    }
    let dt_ms = (to - from).as_millis() as f64;
    (-dt_ms / half_life.as_millis() as f64).exp2()
}

/// Decayed per-user and per-queue resource-hour accounts, fed
/// segment-by-segment from the server's journalled usage ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageHistory {
    half_life: SimDuration,
    capacity_cores: u64,
    users: BTreeMap<UserId, DecayedAccount>,
    queues: BTreeMap<QueueId, DecayedAccount>,
    total: DecayedAccount,
}

impl UsageHistory {
    /// An empty history with the given decay half-life and cluster
    /// capacity (total cores — the normalization denominator).
    pub fn new(half_life: SimDuration, capacity_cores: u64) -> Self {
        UsageHistory {
            half_life,
            capacity_cores,
            users: BTreeMap::new(),
            queues: BTreeMap::new(),
            total: DecayedAccount::ZERO,
        }
    }

    /// The configured half-life.
    pub fn half_life(&self) -> SimDuration {
        self.half_life
    }

    /// Replaces the half-life (server reconfiguration before any charges).
    pub fn set_half_life(&mut self, half_life: SimDuration) {
        self.half_life = half_life;
    }

    /// The normalization capacity in cores.
    pub fn capacity_cores(&self) -> u64 {
        self.capacity_cores
    }

    /// True when no charge has ever landed.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty() && self.queues.is_empty()
    }

    /// Charges a closed usage segment of `core_ms` core-milliseconds to
    /// `user` / `queue`, attributed to the segment-close instant `at`.
    pub fn charge(&mut self, user: UserId, queue: QueueId, core_ms: u64, at: SimTime) {
        let amount = core_ms as f64;
        let h = self.half_life;
        self.users
            .entry(user)
            .or_insert(DecayedAccount::ZERO)
            .charge(amount, at, h);
        self.queues
            .entry(queue)
            .or_insert(DecayedAccount::ZERO)
            .charge(amount, at, h);
        self.total.charge(amount, at, h);
    }

    /// The user's decayed core-hours at `now`.
    pub fn user_core_hours(&self, user: UserId, now: SimTime) -> f64 {
        self.users
            .get(&user)
            .map_or(0.0, |a| a.decayed_ms(now, self.half_life) / MS_PER_HOUR)
    }

    /// The queue's decayed core-hours at `now`.
    pub fn queue_core_hours(&self, queue: QueueId, now: SimTime) -> f64 {
        self.queues
            .get(&queue)
            .map_or(0.0, |a| a.decayed_ms(now, self.half_life) / MS_PER_HOUR)
    }

    /// The user's capacity-normalized share at `now`: 0 for an idle user,
    /// ≈ `c / capacity` for a user holding `c` cores at steady state.
    pub fn user_share(&self, user: UserId, now: SimTime) -> f64 {
        self.users
            .get(&user)
            .map_or(0.0, |a| self.normalize(a.decayed_ms(now, self.half_life)))
    }

    /// Converts decayed core-milliseconds into a capacity share.
    fn normalize(&self, decayed_ms: f64) -> f64 {
        if self.capacity_cores == 0 || self.half_life.is_zero() {
            return 0.0;
        }
        decayed_ms * std::f64::consts::LN_2
            / (self.half_life.as_millis() as f64 * self.capacity_cores as f64)
    }

    /// An immutable point-in-time view for the scheduler: every account
    /// decayed to `now`, sorted by ID for binary-search lookups and
    /// deterministic iteration.
    pub fn snapshot(&self, now: SimTime) -> UsageSnapshot {
        let h = self.half_life;
        UsageSnapshot {
            now,
            capacity_cores: self.capacity_cores,
            half_life: h,
            users: self
                .users
                .iter()
                .map(|(&u, a)| (u, a.decayed_ms(now, h)))
                .collect(),
            queues: self
                .queues
                .iter()
                .map(|(&q, a)| (q, a.decayed_ms(now, h)))
                .collect(),
            total_ms: self.total.decayed_ms(now, h),
        }
    }

    /// A compact deterministic fingerprint of the raw accumulator state
    /// (bit patterns, not rounded decimals) — crash tests compare this
    /// across recovery boundaries.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "h={} cap={} total={:x}@{}",
            self.half_life.as_millis(),
            self.capacity_cores,
            self.total.acc_ms.to_bits(),
            self.total.last.as_millis()
        );
        for (u, a) in &self.users {
            let _ = write!(
                s,
                " u{}={:x}@{}",
                u.0,
                a.acc_ms.to_bits(),
                a.last.as_millis()
            );
        }
        for (q, a) in &self.queues {
            let _ = write!(
                s,
                " q{}={:x}@{}",
                q.0,
                a.acc_ms.to_bits(),
                a.last.as_millis()
            );
        }
        s
    }

    /// Serialises the accumulators bit-exactly (`f64::to_bits`) for the
    /// server snapshot image.
    pub fn to_json(&self) -> Json {
        let accounts = |it: Vec<(u64, &DecayedAccount)>| {
            Json::Arr(
                it.into_iter()
                    .map(|(id, a)| {
                        Json::Arr(vec![
                            Json::UInt(id),
                            Json::UInt(a.acc_ms.to_bits()),
                            Json::UInt(a.last.as_millis()),
                        ])
                    })
                    .collect(),
            )
        };
        Json::obj(vec![
            ("half_life_ms", Json::UInt(self.half_life.as_millis())),
            ("capacity_cores", Json::UInt(self.capacity_cores)),
            (
                "users",
                accounts(self.users.iter().map(|(u, a)| (u.0 as u64, a)).collect()),
            ),
            (
                "queues",
                accounts(self.queues.iter().map(|(q, a)| (q.0 as u64, a)).collect()),
            ),
            ("total_bits", Json::UInt(self.total.acc_ms.to_bits())),
            ("total_last_ms", Json::UInt(self.total.last.as_millis())),
        ])
    }

    /// Parses a history written by [`UsageHistory::to_json`], restoring
    /// the exact accumulator bit patterns.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let accounts = |key: &str| -> Result<Vec<(u64, DecayedAccount)>, String> {
            v.req_arr(key)?
                .iter()
                .map(|e| {
                    let t = e.as_arr().ok_or("usage account is not an array")?;
                    if t.len() != 3 {
                        return Err("usage account is not a 3-tuple".into());
                    }
                    let num = |j: &Json| j.as_u64().ok_or("usage account field is not an integer");
                    Ok((
                        num(&t[0])?,
                        DecayedAccount {
                            acc_ms: f64::from_bits(num(&t[1])?),
                            last: SimTime::from_millis(num(&t[2])?),
                        },
                    ))
                })
                .collect()
        };
        Ok(UsageHistory {
            half_life: SimDuration::from_millis(v.req_u64("half_life_ms")?),
            capacity_cores: v.req_u64("capacity_cores")?,
            users: accounts("users")?
                .into_iter()
                .map(|(id, a)| (UserId(id as u32), a))
                .collect(),
            queues: accounts("queues")?
                .into_iter()
                .map(|(id, a)| (QueueId(id as u32), a))
                .collect(),
            total: DecayedAccount {
                acc_ms: f64::from_bits(v.req_u64("total_bits")?),
                last: v.req_time("total_last_ms")?,
            },
        })
    }
}

impl Wire for DecayedAccount {
    fn encode(&self, out: &mut Vec<u8>) {
        self.acc_ms.encode(out);
        self.last.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(DecayedAccount {
            acc_ms: Wire::decode(r)?,
            last: Wire::decode(r)?,
        })
    }
}

/// The same fields as [`UsageHistory::to_json`], accumulators by their
/// bits; the two account maps travel in key order.
impl Wire for UsageHistory {
    fn encode(&self, out: &mut Vec<u8>) {
        self.half_life.encode(out);
        self.capacity_cores.encode(out);
        put_len(out, self.users.len());
        for (user, account) in &self.users {
            user.encode(out);
            account.encode(out);
        }
        put_len(out, self.queues.len());
        for (queue, account) in &self.queues {
            queue.encode(out);
            account.encode(out);
        }
        self.total.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(UsageHistory {
            half_life: Wire::decode(r)?,
            capacity_cores: r.u64()?,
            users: r
                .ascending(|&(user, _): &(UserId, DecayedAccount)| user)?
                .into_iter()
                .collect(),
            queues: r
                .ascending(|&(queue, _): &(QueueId, DecayedAccount)| queue)?
                .into_iter()
                .collect(),
            total: Wire::decode(r)?,
        })
    }
}

/// A point-in-time, decayed view of a [`UsageHistory`] — the value the
/// scheduler consumes. All accounts are valued at `now`; lookups are
/// binary searches over ID-sorted vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageSnapshot {
    /// Valuation instant.
    pub now: SimTime,
    /// Normalization capacity in cores.
    pub capacity_cores: u64,
    /// Decay half-life the accounts were accumulated under.
    pub half_life: SimDuration,
    /// Per-user decayed core-milliseconds, sorted by user ID.
    pub users: Vec<(UserId, f64)>,
    /// Per-queue decayed core-milliseconds, sorted by queue ID.
    pub queues: Vec<(QueueId, f64)>,
    /// Grand-total decayed core-milliseconds.
    pub total_ms: f64,
}

impl UsageSnapshot {
    /// An empty snapshot (no usage recorded).
    pub fn empty(now: SimTime, capacity_cores: u64, half_life: SimDuration) -> Self {
        UsageSnapshot {
            now,
            capacity_cores,
            half_life,
            users: Vec::new(),
            queues: Vec::new(),
            total_ms: 0.0,
        }
    }

    fn user_ms(&self, user: UserId) -> f64 {
        match self.users.binary_search_by_key(&user, |&(u, _)| u) {
            Ok(i) => self.users[i].1,
            Err(_) => 0.0,
        }
    }

    fn queue_ms(&self, queue: QueueId) -> f64 {
        match self.queues.binary_search_by_key(&queue, |&(q, _)| q) {
            Ok(i) => self.queues[i].1,
            Err(_) => 0.0,
        }
    }

    /// Converts decayed core-milliseconds into a capacity share.
    fn normalize(&self, decayed_ms: f64) -> f64 {
        if self.capacity_cores == 0 || self.half_life.is_zero() {
            return 0.0;
        }
        decayed_ms * std::f64::consts::LN_2
            / (self.half_life.as_millis() as f64 * self.capacity_cores as f64)
    }

    /// The user's capacity-normalized decayed share.
    pub fn user_share(&self, user: UserId) -> f64 {
        self.normalize(self.user_ms(user))
    }

    /// The user's decayed core-hours.
    pub fn user_core_hours(&self, user: UserId) -> f64 {
        self.user_ms(user) / MS_PER_HOUR
    }

    /// The queue's decayed core-hours.
    pub fn queue_core_hours(&self, queue: QueueId) -> f64 {
        self.queue_ms(queue) / MS_PER_HOUR
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const H: SimDuration = SimDuration::from_hours(24);

    fn t(hours: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_hours(hours)
    }

    #[test]
    fn single_charge_halves_per_half_life() {
        let mut hist = UsageHistory::new(H, 100);
        hist.charge(UserId(0), QueueId(0), 3_600_000, t(0)); // 1 core-hour
        assert!((hist.user_core_hours(UserId(0), t(0)) - 1.0).abs() < 1e-12);
        assert!((hist.user_core_hours(UserId(0), t(24)) - 0.5).abs() < 1e-12);
        assert!((hist.user_core_hours(UserId(0), t(48)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn lazy_accumulator_matches_explicit_sum() {
        // Fold three charges through the O(1) accumulator and compare with
        // the definitional sum Σ charge_i · 2^−(now−t_i)/half_life.
        let mut hist = UsageHistory::new(H, 100);
        let charges = [(3_600_000u64, t(0)), (1_800_000, t(10)), (7_200_000, t(30))];
        for &(ms, at) in &charges {
            hist.charge(UserId(1), QueueId(2), ms, at);
        }
        let now = t(50);
        let expect: f64 = charges
            .iter()
            .map(|&(ms, at)| {
                ms as f64 * (-((now - at).as_millis() as f64) / H.as_millis() as f64).exp2()
            })
            .sum();
        let got = hist.user_core_hours(UserId(1), now) * MS_PER_HOUR;
        assert!((got - expect).abs() < 1e-6, "{got} vs {expect}");
        // Queue and total track the same charges.
        let q = hist.queue_core_hours(QueueId(2), now) * MS_PER_HOUR;
        assert!((q - expect).abs() < 1e-6);
    }

    #[test]
    fn steady_state_share_approaches_core_fraction() {
        // A user holding 10 of 100 cores, charged hourly for a long time,
        // converges to share ≈ 0.10.
        let mut hist = UsageHistory::new(H, 100);
        for hour in 0..24 * 30 {
            hist.charge(UserId(0), QueueId(0), 10 * 3_600_000, t(hour));
        }
        let share = hist.user_share(UserId(0), t(24 * 30));
        assert!((share - 0.10).abs() < 0.01, "share = {share}");
    }

    #[test]
    fn normalization_compares_long_light_vs_short_heavy() {
        // A month at 10 % of the cluster outweighs a single day at 100 %
        // once the day is a week old, under a 24 h half-life.
        let mut hist = UsageHistory::new(H, 100);
        for hour in 0..24 * 30 {
            hist.charge(UserId(0), QueueId(0), 10 * 3_600_000, t(hour));
        }
        for hour in 24 * 29..24 * 30 {
            hist.charge(UserId(1), QueueId(1), 100 * 3_600_000, t(hour));
        }
        let now = t(24 * 30);
        // Fresh burst dominates at first...
        assert!(hist.user_share(UserId(1), now) > hist.user_share(UserId(0), now));
        // ...but with the steady user still charging, a week on the stale
        // burst has decayed below the steady 10 % share.
        for hour in 24 * 30..24 * 37 {
            hist.charge(UserId(0), QueueId(0), 10 * 3_600_000, t(hour));
        }
        let later = t(24 * 37);
        assert!(hist.user_share(UserId(0), later) < 0.11);
        assert!(hist.user_share(UserId(1), later) < hist.user_share(UserId(0), later));
    }

    #[test]
    fn snapshot_matches_direct_reads() {
        let mut hist = UsageHistory::new(H, 64);
        hist.charge(UserId(3), QueueId(1), 1_000_000, t(1));
        hist.charge(UserId(5), QueueId(1), 2_000_000, t(2));
        let now = t(5);
        let snap = hist.snapshot(now);
        for u in [UserId(3), UserId(5), UserId(9)] {
            assert_eq!(snap.user_share(u), hist.user_share(u, now));
            assert_eq!(snap.user_core_hours(u), hist.user_core_hours(u, now));
        }
        assert_eq!(
            snap.queue_core_hours(QueueId(1)),
            hist.queue_core_hours(QueueId(1), now)
        );
        assert_eq!(snap.queue_core_hours(QueueId(7)), 0.0);
    }

    #[test]
    fn json_roundtrip_is_bit_exact() {
        let mut hist = UsageHistory::new(H, 100);
        hist.charge(UserId(0), QueueId(0), 3_600_000, t(0));
        hist.charge(UserId(2), QueueId(1), 1_234_567, t(17));
        hist.charge(UserId(0), QueueId(0), 999, t(40));
        let back = UsageHistory::from_json(&hist.to_json()).unwrap();
        assert_eq!(hist, back);
        assert_eq!(hist.fingerprint(), back.fingerprint());
    }

    #[test]
    fn zero_half_life_means_no_decay_and_no_share() {
        let mut hist = UsageHistory::new(SimDuration::ZERO, 100);
        hist.charge(UserId(0), QueueId(0), 3_600_000, t(0));
        assert!((hist.user_core_hours(UserId(0), t(1000)) - 1.0).abs() < 1e-12);
        // Shares are undefined without a decay horizon; read as 0.
        assert_eq!(hist.user_share(UserId(0), t(1000)), 0.0);
    }

    #[test]
    fn same_instant_charges_add_exactly() {
        let mut a = DecayedAccount::ZERO;
        a.charge(100.0, t(1), H);
        a.charge(200.0, t(1), H);
        assert_eq!(a.acc_ms, 300.0);
        assert_eq!(a.last, t(1));
    }
}
