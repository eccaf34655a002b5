//! Job prioritisation (Maui-style composite priority).
//!
//! The Maui scheduler computes a weighted sum of priority factors per job
//! and services jobs in descending order. We implement the factors the
//! paper's evaluation exercises: queue time (the FIFO backbone), the
//! expansion factor, resource size, an additive boost (used by the ESP Z
//! jobs), and the static-fairshare deviation.

use crate::fairshare::FairshareTracker;
use crate::snapshot::{QueuedJob, QueuedSet};
use crate::usage_history::UsageSnapshot;
use dynbatch_core::{FairshareConfig, PriorityWeights, QueueId, SimDuration, SimTime, UserId};
use std::cmp::Ordering;

/// The fairness mechanism feeding the composite priority — selected by
/// [`dynbatch_core::FairshareMode`].
///
/// `Static` is the classic windowed tracker; `TimeAware` reads the
/// decayed resource-hour accounts ([`crate::usage_history`]) and adds
/// budget demotion on top of the share-deviation delta. Passed by value:
/// it is a couple of borrows.
#[derive(Debug, Clone, Copy)]
pub enum FairnessView<'a> {
    /// No fairness contribution at all.
    None,
    /// Classic windowed fairshare (byte-identical to the historical
    /// behavior of passing `Option<&FairshareTracker>`).
    Static(&'a FairshareTracker),
    /// Decayed resource-hour fairness: share deviation plus budget
    /// demotion. `usage: None` (no accounts published yet) contributes
    /// the target-only delta, exactly like an empty history.
    TimeAware {
        /// The fairshare configuration (targets, budgets, demotion).
        config: &'a FairshareConfig,
        /// The decayed accounts valued at the scheduling instant.
        usage: Option<&'a UsageSnapshot>,
    },
}

impl FairnessView<'_> {
    /// The fairshare priority component for `user`: `target − share`,
    /// positive when the user is under-served.
    pub fn delta(&self, user: UserId) -> f64 {
        match self {
            FairnessView::None => 0.0,
            FairnessView::Static(fs) => fs.priority_delta(user),
            FairnessView::TimeAware { config, usage } => {
                if !config.enabled {
                    return 0.0;
                }
                let target = config
                    .user_targets
                    .get(&user)
                    .copied()
                    .unwrap_or(config.default_target);
                target - usage.map_or(0.0, |u| u.user_share(user))
            }
        }
    }

    /// The resource-hour budget demotion for a job of `user` in `queue`:
    /// `budget_demotion` when either the user or the queue is over its
    /// decayed core-hour budget, else `0.0`. Over-budget owners' jobs
    /// are *demoted*, never denied — they rank behind in-budget work and
    /// recover as decay drains the account.
    pub fn demotion(&self, user: UserId, queue: QueueId) -> f64 {
        match self {
            FairnessView::TimeAware {
                config,
                usage: Some(u),
            } if config.enabled => {
                let over_user = config
                    .user_budget_core_hours
                    .is_some_and(|b| u.user_core_hours(user) > b);
                let over_queue = config
                    .queue_budget_core_hours
                    .is_some_and(|b| u.queue_core_hours(queue) > b);
                if over_user || over_queue {
                    config.budget_demotion
                } else {
                    0.0
                }
            }
            _ => 0.0,
        }
    }
}

/// A queued job's computed priority, with deterministic tie-breaking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Priority {
    /// The composite score (higher runs first).
    pub score: f64,
    /// Tie-break 1: earlier submission wins.
    pub submit_time: SimTime,
    /// Tie-break 2: lower job id wins.
    pub job_seq: u64,
}

impl Priority {
    /// Total order: score desc, then submit asc, then id asc.
    pub fn cmp_desc(&self, other: &Priority) -> Ordering {
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.submit_time.cmp(&other.submit_time))
            .then_with(|| self.job_seq.cmp(&other.job_seq))
    }
}

/// The composite score from its inputs, in the one operation order every
/// caller shares: [`priority_of`] feeds it from a job, [`RankOrder`] from
/// its records, and the two agree to the bit because this is the only
/// place the sum is written. `fs_term` is `fairshare_weight · delta`.
#[inline]
fn composite_score(
    weights: &PriorityWeights,
    boost: i64,
    wait_min: f64,
    walltime: SimDuration,
    cores: u32,
    fs_term: f64,
    demotion: f64,
) -> f64 {
    // The expansion factor is finite (the walltime floor sees to that),
    // so under a zero weight its term is a zero and adding it changes no
    // comparison: the two divisions are only made when they count.
    let expansion_term = if weights.expansion_weight == 0.0 {
        0.0
    } else {
        let walltime_min = walltime.as_mins_f64().max(1e-9);
        weights.expansion_weight * (wait_min / walltime_min)
    };
    boost as f64
        + weights.queue_time_weight * wait_min
        + expansion_term
        + weights.resource_weight * cores as f64
        + fs_term
        - demotion
}

/// Computes the composite priority of a queued job at instant `now`.
///
/// The budget demotion subtracts after the weighted sum; a demotion of
/// `0.0` (every non-time-aware view) leaves the score bit-identical to
/// the historical formula.
pub fn priority_of(
    job: &QueuedJob,
    now: SimTime,
    weights: &PriorityWeights,
    fairness: FairnessView<'_>,
) -> Priority {
    let score = composite_score(
        weights,
        job.priority_boost,
        now.duration_since(job.submit_time).as_mins_f64(),
        job.walltime,
        job.cores,
        weights.fairshare_weight * fairness.delta(job.user),
        fairness.demotion(job.user, job.queue),
    );
    Priority {
        score,
        submit_time: job.submit_time,
        job_seq: job.id.0,
    }
}

/// Sorts queued jobs into scheduling order (highest priority first).
///
/// Generic over ownership so a caller can rank a vector of `&QueuedJob`
/// borrowed straight from the snapshot without cloning the queue. This is
/// the specification of the order; the scheduler's own cycle keeps it in
/// a [`RankOrder`] instead of re-deriving it.
pub fn rank_jobs<J: std::borrow::Borrow<QueuedJob>>(
    jobs: &mut [J],
    now: SimTime,
    weights: &PriorityWeights,
    fairness: FairnessView<'_>,
) {
    jobs.sort_by(|a, b| {
        priority_of(a.borrow(), now, weights, fairness).cmp_desc(&priority_of(
            b.borrow(),
            now,
            weights,
            fairness,
        ))
    });
}

/// The queue in scheduling order, as [`RankOrder::rank`] lends it to the
/// passes of one iteration: slot positions of the [`QueuedSet`] in rank
/// order, resolved to a job only when a pass asks for one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ranked<'a> {
    slots: &'a [Option<QueuedJob>],
    /// The queue, highest priority first — the permutation [`rank_jobs`]
    /// produces.
    keys: &'a [Key],
    /// Per job, in the same order: the fewest idle cores it can start on
    /// ([`QueuedJob::min_start_width`]). Kept apart from the jobs so a
    /// pass that only asks "could this fit in what is idle now?" reads
    /// four bytes per job, not the job.
    pub need: &'a [u32],
}

impl<'a> Ranked<'a> {
    /// The job of rank `i` (0 = highest priority).
    pub fn job(&self, i: usize) -> &'a QueuedJob {
        self.slots[self.keys[i].pos as usize]
            .as_ref()
            .expect("a ranked slot holds a job")
    }

    /// The jobs in rank order, each resolved as the iterator reaches it.
    pub fn iter(&self) -> impl Iterator<Item = &'a QueuedJob> + '_ {
        (0..self.keys.len()).map(|i| self.job(i))
    }
}

/// Work counters of the scheduler's rank order, cumulative since the
/// scheduler was built ([`crate::maui::Maui::rank_stats`]). Exact and
/// deterministic for a given run, so a gate can rest on them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankStats {
    /// Ranking cycles run.
    pub cycles: u64,
    /// Remembered entries checked against the queue plus jobs newly keyed.
    pub entries_walked: u64,
    /// Composite scores computed.
    pub evaluations: u64,
    /// Adjacent pairs whose order had to be decided by their scores.
    pub boundaries: u64,
    /// Cycles whose remembered order no longer held and was sorted.
    pub sorts: u64,
    /// Cycles whose remembered entries did not cover the queue, so the
    /// order was rebuilt from id order.
    pub restarts: u64,
}

/// The scheduling order of the queue, kept from one cycle to the next.
///
/// Priorities drift with time, but the *order* of a queue rarely changes
/// between two cycles: jobs leave, new ones arrive at the back. So the
/// order is stored — per job, in rank order, its slot position in the
/// [`QueuedSet`] and the inputs of its priority — and a cycle only drops
/// the departed entries, appends the arrivals, works out the fairness
/// terms once per owner (user and queue) that has a job queued, and
/// compares scores **only at run boundaries**.
///
/// # Why skipping inside a run is exact
///
/// Call two jobs *same-class* when their static terms are equal: the
/// boost, the resource term, their owners' fairshare term and demotion
/// (by value), and — when `expansion_weight ≠ 0` — the walltime. Then:
///
/// **Lemma.** If `queue_time_weight ≥ 0` and `expansion_weight ≥ 0`, all
/// weights and owner terms are finite, and same-class jobs `a`, `b` have
/// `(submit, id)` of `a` below that of `b`, then
/// `priority_of(a).cmp_desc(priority_of(b))` is `Less` at every `now`.
///
/// *Proof.* `a` has waited at least as long as `b` (`duration_since`
/// saturates, so `now` before either submission changes nothing). In
/// `composite_score` the wait passes through a conversion, a division
/// by a positive constant, a product with a non-negative weight, a
/// division by the positive walltime, and sums with terms that are the
/// same for both jobs; correctly rounded, each of these is monotone
/// non-decreasing in its argument, and with finite inputs no step can
/// meet `∞ − ∞` or `0 · ∞`, so no NaN arises (an overflow to `+∞` stays
/// monotone). Hence `score(a) ≥ score(b)`; `cmp_desc` puts the larger
/// score first and breaks a tie by `(submit, id)`, which favours `a`. ∎
///
/// `cmp_desc` is then a total order, so a sequence whose every adjacent
/// pair is `Less` is the unique sorted permutation — what [`rank_jobs`]
/// returns. A pair the lemma covers needs no arithmetic; any other
/// adjacent pair (a *boundary*) is decided by computing both scores with
/// [`priority_of`]'s own arithmetic, and if one is out of order the whole
/// queue is scored and sorted. When the precondition fails (a negative or
/// non-finite weight, a non-finite owner term) every pair is treated as a
/// boundary, through the same code. Debug builds assert the result
/// against [`rank_jobs`] every cycle.
///
/// # The remembered entries are a hint, never trusted
///
/// An entry is kept only while its slot still holds a job with the
/// remembered id and priority inputs; new slots are appended in slot (id)
/// order; and if the entries then do not add up to the queue (a different
/// server, a swept slot vector, a requeue into an old slot) the order is
/// rebuilt from id order.
///
/// # Layout
///
/// An entry is one [`Key`] record, because checking it against its slot
/// reads every field: a shallow queue then touches one cache line, where
/// an array per field touched eight (the benchmark's depth-1 replay ran
/// 4 % slower that way). Only `need` is an array of its own — the
/// backfill filter scans it and nothing else.
#[derive(Debug, Clone, Default)]
pub(crate) struct RankOrder {
    /// The queued jobs in rank order.
    keys: Vec<Key>,
    /// [`Ranked::need`], parallel to `keys`.
    need: Vec<u32>,
    owners: Owners,
    /// Slot count of the previous cycle's queue: later slots are new.
    seen: usize,
    /// Scratch: indices of the entries the current cycle drops.
    dropped: Vec<u32>,
    /// Scratch of the sort path: every entry's priority and index.
    by_priority: Vec<(Priority, u32)>,
    stats: RankStats,
}

/// One remembered job: where it sits and what its priority is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    id: u64,
    submit: SimTime,
    boost: i64,
    walltime: SimDuration,
    cores: u32,
    /// Index into [`Owners::table`].
    owner: u32,
    /// Slot position in the [`QueuedSet`].
    pos: u32,
}

impl Key {
    fn priority(&self, score: f64) -> Priority {
        Priority {
            score,
            submit_time: self.submit,
            job_seq: self.id,
        }
    }
}

/// Removes the elements at the ascending indices `dropped`, closing each
/// gap with one block move.
fn remove_all<T: Copy>(v: &mut Vec<T>, dropped: &[u32]) {
    let Some(&first) = dropped.first() else {
        return;
    };
    let mut kept = first as usize;
    for (k, &gone) in dropped.iter().enumerate() {
        let next = dropped.get(k + 1).map_or(v.len(), |&d| d as usize);
        v.copy_within(gone as usize + 1..next, kept);
        kept += next - (gone as usize + 1);
    }
    v.truncate(kept);
}

/// A `(user, queue)` pair with at least one remembered job, and the two
/// fairness terms every job of that pair shares in a cycle
/// ([`Owners::refresh`]).
#[derive(Debug, Clone, Copy)]
struct Owner {
    user: UserId,
    queue: QueueId,
    /// Remembered jobs of this owner; the slot is free at zero.
    jobs: u32,
    /// `fairshare_weight · delta(user)`.
    fs_term: f64,
    /// `demotion(user, queue)`.
    demotion: f64,
}

/// The owners of the remembered jobs. A slot whose last job left is
/// reused, so the table is bounded by the owners queued at once, not by
/// the owners ever seen.
#[derive(Debug, Clone, Default)]
struct Owners {
    table: Vec<Owner>,
    /// `(user, queue)` → slot of `table`, for the owners with a job, in
    /// key order.
    index: Vec<((UserId, QueueId), u32)>,
    free: Vec<u32>,
}

impl Owners {
    /// Computes this cycle's fairness terms of every owner with a job.
    /// Returns whether all of them are finite, and whether they are the
    /// same for every owner (by value) — as on a site without fairshare.
    fn refresh(&mut self, weights: &PriorityWeights, fairness: FairnessView<'_>) -> (bool, bool) {
        let (mut finite, mut uniform) = (true, true);
        let mut first = None;
        for owner in self.table.iter_mut().filter(|o| o.jobs > 0) {
            owner.fs_term = weights.fairshare_weight * fairness.delta(owner.user);
            owner.demotion = fairness.demotion(owner.user, owner.queue);
            finite &= owner.fs_term.is_finite() && owner.demotion.is_finite();
            let terms = (owner.fs_term, owner.demotion);
            uniform &= *first.get_or_insert(terms) == terms;
        }
        (finite, uniform)
    }

    /// Counts one more job of `(user, queue)` and returns the owner's
    /// slot.
    fn enter(&mut self, user: UserId, queue: QueueId) -> u32 {
        let at = match self.index.binary_search_by_key(&(user, queue), |e| e.0) {
            Ok(at) => {
                let slot = self.index[at].1;
                self.table[slot as usize].jobs += 1;
                return slot;
            }
            Err(at) => at,
        };
        // The terms are worked out when a cycle needs them.
        let owner = Owner {
            user,
            queue,
            jobs: 1,
            fs_term: 0.0,
            demotion: 0.0,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.table[slot as usize] = owner;
                slot
            }
            None => {
                self.table.push(owner);
                self.table.len() as u32 - 1
            }
        };
        self.index.insert(at, ((user, queue), slot));
        slot
    }

    /// Counts one job of the owner in `slot` out.
    fn leave(&mut self, slot: u32) {
        let owner = &mut self.table[slot as usize];
        owner.jobs -= 1;
        if owner.jobs == 0 {
            let at = self
                .index
                .binary_search_by_key(&(owner.user, owner.queue), |e| e.0)
                .expect("an owner with a job is indexed");
            self.index.remove(at);
            self.free.push(slot);
        }
    }

    fn clear(&mut self) {
        self.table.clear();
        self.index.clear();
        self.free.clear();
    }
}

/// What checking (and restoring) the order in one cycle works with.
struct Pass<'w> {
    now: SimTime,
    weights: &'w PriorityWeights,
    /// The lemma's precondition holds: same-class pairs in `(submit, id)`
    /// order need no scores.
    monotone: bool,
    /// Every owner has the same fairness terms this cycle.
    one_owner_class: bool,
    evaluations: u64,
    boundaries: u64,
}

impl RankOrder {
    /// The work done so far.
    pub fn stats(&self) -> RankStats {
        self.stats
    }

    /// Ranks `queue` at `now`; see the type's documentation.
    pub fn rank<'a>(
        &'a mut self,
        queue: &'a QueuedSet,
        now: SimTime,
        weights: &PriorityWeights,
        fairness: FairnessView<'_>,
    ) -> Ranked<'a> {
        let slots = queue.slots();
        let fresh = self.seen.min(slots.len())..slots.len();
        self.seen = slots.len();
        // The survivors of the previous order, then the arrivals in slot
        // (id) order.
        self.drop_departed(slots);
        self.append(slots, fresh);
        if self.keys.len() != queue.len() {
            // The hint does not cover this queue: start over from id order.
            self.stats.restarts += 1;
            self.keys.clear();
            self.need.clear();
            self.owners.clear();
            self.append(slots, 0..slots.len());
        }
        self.stats.cycles += 1;
        // One job or none is in order as it stands; the owners' terms and
        // the lemma's precondition are worked out for two or more.
        if self.keys.len() > 1 {
            let (finite, one_owner_class) = self.owners.refresh(weights, fairness);
            // `>= 0.0` is false for a NaN; the resource bound keeps
            // `resource_weight · cores` finite for any `u32` of cores.
            let weights_fit = weights.queue_time_weight >= 0.0
                && weights.queue_time_weight.is_finite()
                && weights.expansion_weight >= 0.0
                && weights.expansion_weight.is_finite()
                && weights.resource_weight.abs() <= f64::MAX / u32::MAX as f64;
            let mut pass = Pass {
                now,
                weights,
                monotone: finite && weights_fit,
                one_owner_class,
                evaluations: 0,
                boundaries: 0,
            };
            if !self.in_order(&mut pass) {
                self.sort(&mut pass);
            }
            self.stats.evaluations += pass.evaluations;
            self.stats.boundaries += pass.boundaries;
        }
        let ranked = Ranked {
            slots,
            keys: &self.keys,
            need: &self.need,
        };
        debug_assert!(
            {
                let mut spec: Vec<&QueuedJob> = queue.iter().collect();
                rank_jobs(&mut spec, now, weights, fairness);
                spec.iter().map(|j| j.id).eq(ranked.iter().map(|j| j.id))
            },
            "the kept rank order diverged from rank_jobs at {now}"
        );
        ranked
    }

    /// The entry that describes `job` in slot `pos`, and the job's
    /// [`Ranked::need`].
    fn key_of(job: &QueuedJob, pos: usize, owner: u32) -> (Key, u32) {
        let key = Key {
            id: job.id.0,
            submit: job.submit_time,
            boost: job.priority_boost,
            walltime: job.walltime,
            cores: job.cores,
            owner,
            pos: pos as u32,
        };
        (key, job.min_start_width())
    }

    /// Drops every remembered entry whose slot no longer holds the job it
    /// describes: the same id, owner and priority inputs.
    fn drop_departed(&mut self, slots: &[Option<QueuedJob>]) {
        self.stats.entries_walked += self.keys.len() as u64;
        self.dropped.clear();
        for (i, (key, &need)) in self.keys.iter().zip(&self.need).enumerate() {
            let owner = &self.owners.table[key.owner as usize];
            let survives = matches!(
                slots.get(key.pos as usize),
                Some(Some(job)) if (owner.user, owner.queue) == (job.user, job.queue)
                    && (*key, need) == Self::key_of(job, key.pos as usize, key.owner)
            );
            if !survives {
                self.dropped.push(i as u32);
            }
        }
        for &gone in &self.dropped {
            self.owners.leave(self.keys[gone as usize].owner);
        }
        remove_all(&mut self.keys, &self.dropped);
        remove_all(&mut self.need, &self.dropped);
    }

    /// Keys the job of every occupied slot in `positions`, in turn, after
    /// the entries already there.
    fn append(&mut self, slots: &[Option<QueuedJob>], positions: std::ops::Range<usize>) {
        for pos in positions {
            let Some(job) = &slots[pos] else {
                continue;
            };
            debug_assert!(job.min_start_width() > 0, "{}: a job needs a core", job.id);
            let owner = self.owners.enter(job.user, job.queue);
            let (key, need) = Self::key_of(job, pos, owner);
            self.keys.push(key);
            self.need.push(need);
            self.stats.entries_walked += 1;
        }
    }

    /// Whether every entry ranks after the one before it: for free where
    /// the lemma covers the pair, by their scores otherwise.
    fn in_order(&self, pass: &mut Pass<'_>) -> bool {
        let owners = &self.owners.table[..];
        // A zero weight makes its term a zero whatever the input.
        let any_cores = pass.weights.resource_weight == 0.0;
        let any_walltime = pass.weights.expansion_weight == 0.0;
        // The score of `pair[0]`, if the pair before needed it.
        let mut last_score = None;
        for pair in self.keys.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            let same_class = a.boost == b.boost
                && (any_cores || a.cores == b.cores)
                && (any_walltime || a.walltime == b.walltime)
                && (pass.one_owner_class || {
                    let (a, b) = (&owners[a.owner as usize], &owners[b.owner as usize]);
                    a.fs_term == b.fs_term && a.demotion == b.demotion
                });
            if pass.monotone && same_class && (a.submit, a.id) < (b.submit, b.id) {
                last_score = None;
                continue;
            }
            pass.boundaries += 1;
            let before = last_score.unwrap_or_else(|| self.score(a, pass));
            let after = self.score(b, pass);
            if !a.priority(before).cmp_desc(&b.priority(after)).is_lt() {
                return false;
            }
            last_score = Some(after);
        }
        true
    }

    /// The entry's score: [`priority_of`]'s, to the bit.
    fn score(&self, key: &Key, pass: &mut Pass<'_>) -> f64 {
        pass.evaluations += 1;
        let owner = &self.owners.table[key.owner as usize];
        composite_score(
            pass.weights,
            key.boost,
            pass.now.duration_since(key.submit).as_mins_f64(),
            key.walltime,
            key.cores,
            owner.fs_term,
            owner.demotion,
        )
    }

    /// Scores every entry and puts the entries into rank order.
    fn sort(&mut self, pass: &mut Pass<'_>) {
        self.stats.sorts += 1;
        let mut by_priority = std::mem::take(&mut self.by_priority);
        by_priority.clear();
        by_priority.extend(
            (self.keys.iter().zip(0..)).map(|(key, i)| (key.priority(self.score(key, pass)), i)),
        );
        by_priority.sort_by(|a, b| a.0.cmp_desc(&b.0));
        // `by_priority[j].1` is the entry that belongs at `j`: move the
        // entries there cycle by cycle, marking a place done by pointing
        // it at itself.
        for start in 0..by_priority.len() {
            if by_priority[start].1 as usize == start {
                continue;
            }
            let displaced = (self.keys[start], self.need[start]);
            let mut j = start;
            loop {
                let from = by_priority[j].1 as usize;
                by_priority[j].1 = j as u32;
                if from == start {
                    (self.keys[j], self.need[j]) = displaced;
                    break;
                }
                (self.keys[j], self.need[j]) = (self.keys[from], self.need[from]);
                j = from;
            }
        }
        self.by_priority = by_priority;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynbatch_core::{GroupId, JobId, SimDuration, UserId};

    fn job(id: u64, submit_s: u64, cores: u32, boost: i64) -> QueuedJob {
        QueuedJob {
            id: JobId(id),
            user: UserId(0),
            group: GroupId(0),
            queue: QueueId(0),
            cores,
            walltime: SimDuration::from_secs(600),
            submit_time: SimTime::from_secs(submit_s),
            priority_boost: boost,
            suppress_backfill_while_queued: false,
            reserve_extra: 0,
            moldable: None,
        }
    }

    #[test]
    fn queue_time_orders_fifo() {
        let mut jobs = vec![job(2, 100, 4, 0), job(1, 0, 4, 0)];
        rank_jobs(
            &mut jobs,
            SimTime::from_secs(200),
            &PriorityWeights::default(),
            FairnessView::None,
        );
        assert_eq!(jobs[0].id, JobId(1), "older job first");
    }

    #[test]
    fn boost_dominates() {
        // The Z-job rule: once submitted it has the highest priority.
        let mut jobs = vec![job(1, 0, 4, 0), job(2, 100, 120, 1_000_000)];
        rank_jobs(
            &mut jobs,
            SimTime::from_secs(200),
            &PriorityWeights::default(),
            FairnessView::None,
        );
        assert_eq!(jobs[0].id, JobId(2));
    }

    #[test]
    fn ties_break_by_submit_then_id() {
        let mut jobs = vec![job(3, 50, 4, 0), job(2, 50, 4, 0), job(1, 60, 4, 0)];
        let w = PriorityWeights {
            queue_time_weight: 0.0,
            ..Default::default()
        };
        rank_jobs(&mut jobs, SimTime::from_secs(100), &w, FairnessView::None);
        assert_eq!(
            jobs.iter().map(|j| j.id.0).collect::<Vec<_>>(),
            vec![2, 3, 1]
        );
    }

    #[test]
    fn resource_weight_favours_large_jobs() {
        let w = PriorityWeights {
            queue_time_weight: 0.0,
            resource_weight: 1.0,
            ..Default::default()
        };
        let mut jobs = vec![job(1, 0, 4, 0), job(2, 0, 60, 0)];
        rank_jobs(&mut jobs, SimTime::from_secs(100), &w, FairnessView::None);
        assert_eq!(jobs[0].id, JobId(2));
    }

    #[test]
    fn static_view_matches_tracker_delta() {
        use dynbatch_core::FairshareConfig;
        let cfg = FairshareConfig {
            enabled: true,
            default_target: 0.5,
            ..FairshareConfig::default()
        };
        let mut fs = FairshareTracker::new(cfg, SimTime::ZERO);
        fs.charge(UserId(0), 100.0);
        let view = FairnessView::Static(&fs);
        assert_eq!(view.delta(UserId(0)), fs.priority_delta(UserId(0)));
        assert_eq!(view.demotion(UserId(0), QueueId(0)), 0.0);
    }

    #[test]
    fn time_aware_delta_reads_decayed_share() {
        use crate::usage_history::UsageHistory;
        use dynbatch_core::FairshareConfig;
        let cfg = FairshareConfig {
            enabled: true,
            default_target: 0.25,
            ..FairshareConfig::default()
        };
        let mut hist = UsageHistory::new(cfg.half_life, 100);
        // Long steady 50-core usage → share ≈ 0.5, delta ≈ −0.25.
        for hour in 0..24 * 20 {
            hist.charge(
                UserId(0),
                QueueId(0),
                50 * 3_600_000,
                SimTime::ZERO + SimDuration::from_hours(hour),
            );
        }
        let now = SimTime::ZERO + SimDuration::from_hours(24 * 20);
        let snap = hist.snapshot(now);
        let view = FairnessView::TimeAware {
            config: &cfg,
            usage: Some(&snap),
        };
        assert!((view.delta(UserId(0)) - (0.25 - 0.5)).abs() < 0.02);
        // An unseen user gets the full target.
        assert!((view.delta(UserId(7)) - 0.25).abs() < 1e-12);
        // No published accounts yet: target-only delta, no demotion.
        let unpublished = FairnessView::TimeAware {
            config: &cfg,
            usage: None,
        };
        assert_eq!(unpublished.delta(UserId(0)), 0.25);
        assert_eq!(unpublished.demotion(UserId(0), QueueId(0)), 0.0);
    }

    #[test]
    fn budget_demotion_ranks_over_budget_last() {
        use crate::usage_history::UsageHistory;
        use dynbatch_core::FairshareConfig;
        let cfg = FairshareConfig {
            enabled: true,
            user_budget_core_hours: Some(10.0),
            ..FairshareConfig::default()
        };
        let mut hist = UsageHistory::new(cfg.half_life, 100);
        hist.charge(UserId(0), QueueId(0), 20 * 3_600_000, SimTime::ZERO); // 20 core-h
        let snap = hist.snapshot(SimTime::ZERO);
        let view = FairnessView::TimeAware {
            config: &cfg,
            usage: Some(&snap),
        };
        assert_eq!(view.demotion(UserId(0), QueueId(0)), cfg.budget_demotion);
        assert_eq!(view.demotion(UserId(1), QueueId(1)), 0.0);
        // Demotion outranks ordinary priority differences.
        let mut over = job(1, 0, 4, 0);
        over.user = UserId(0);
        let mut under = job(2, 100, 4, 0);
        under.user = UserId(1);
        let mut jobs = vec![over, under];
        rank_jobs(
            &mut jobs,
            SimTime::from_secs(5000),
            &PriorityWeights::default(),
            view,
        );
        assert_eq!(jobs[0].id, JobId(2), "in-budget user first");
        // Decay drains the account below budget → demotion lifts.
        let wk = SimTime::ZERO + SimDuration::from_hours(24 * 7);
        let later = hist.snapshot(wk);
        let view = FairnessView::TimeAware {
            config: &cfg,
            usage: Some(&later),
        };
        assert_eq!(view.demotion(UserId(0), QueueId(0)), 0.0);
    }

    #[test]
    fn queue_budget_demotes_whole_queue() {
        use crate::usage_history::UsageHistory;
        use dynbatch_core::FairshareConfig;
        let cfg = FairshareConfig {
            enabled: true,
            queue_budget_core_hours: Some(5.0),
            ..FairshareConfig::default()
        };
        let mut hist = UsageHistory::new(cfg.half_life, 100);
        hist.charge(UserId(0), QueueId(3), 6 * 3_600_000, SimTime::ZERO);
        let snap = hist.snapshot(SimTime::ZERO);
        let view = FairnessView::TimeAware {
            config: &cfg,
            usage: Some(&snap),
        };
        // Any user submitting into queue 3 is demoted; other queues fine.
        assert_eq!(view.demotion(UserId(9), QueueId(3)), cfg.budget_demotion);
        assert_eq!(view.demotion(UserId(0), QueueId(1)), 0.0);
    }

    /// Ranks `queue` through `order` and through `rank_jobs`, asserts the
    /// two agree, and returns the ids in rank order.
    fn rank_both_ways(
        order: &mut RankOrder,
        queue: &QueuedSet,
        now: SimTime,
        w: &PriorityWeights,
        view: FairnessView<'_>,
    ) -> Vec<u64> {
        let mut spec: Vec<&QueuedJob> = queue.iter().collect();
        rank_jobs(&mut spec, now, w, view);
        let ranked = order.rank(queue, now, w, view);
        let ids: Vec<u64> = ranked.iter().map(|j| j.id.0).collect();
        assert_eq!(ids, spec.iter().map(|j| j.id.0).collect::<Vec<_>>());
        let need: Vec<u32> = ranked.iter().map(|j| j.min_start_width()).collect();
        assert_eq!(ranked.need, need);
        ids
    }

    #[test]
    fn remembered_order_tracks_rank_jobs_while_priorities_cross() {
        use crate::usage_history::UsageHistory;
        use dynbatch_core::testkit::TestRng;
        use dynbatch_core::FairshareConfig;
        let mut rng = TestRng::from_seed(0x0D0E);
        let fs_cfg = FairshareConfig {
            enabled: true,
            default_target: 0.2,
            half_life: SimDuration::from_secs(600),
            user_budget_core_hours: Some(1.0),
            budget_demotion: 40.0,
            ..FairshareConfig::default()
        };
        let mut tracker = FairshareTracker::new(fs_cfg.clone(), SimTime::ZERO);
        let mut hist = UsageHistory::new(fs_cfg.half_life, 64);
        // Expansion factor: short jobs overtake long ones as both wait.
        // Fairshare and the budget demotion: whole users move at once.
        let w = PriorityWeights {
            queue_time_weight: 1.0,
            expansion_weight: 3.0,
            resource_weight: 0.0,
            fairshare_weight: 50.0,
        };
        let mut queue = QueuedSet::default();
        let (mut stat, mut aware) = (RankOrder::default(), RankOrder::default());
        let (mut last_stat, mut last_aware): (Vec<u64>, Vec<u64>) = Default::default();
        let (mut reordered_stat, mut reordered_aware) = (0, 0);
        let mut next_id = 1;
        let mut now = SimTime::from_secs(100);
        for _ in 0..300 {
            for _ in 0..rng.range_usize(0, 4) {
                let mut j = job(next_id, now.as_secs() - rng.below(100), 4, 0);
                j.user = UserId(rng.range_u32(0, 4));
                j.walltime = SimDuration::from_secs(rng.range(30, 4000));
                next_id += 1;
                queue.push(j);
            }
            let ids: Vec<JobId> = queue.iter().map(|q| q.id).collect();
            for id in ids {
                // Departures, and now and then a requeue into an old slot.
                if rng.chance(0.08) {
                    let gone = queue.remove(id).expect("listed");
                    if rng.chance(0.2) {
                        queue.push(gone);
                    }
                }
            }
            let user = UserId(rng.range_u32(0, 4));
            tracker.advance_to(now);
            tracker.charge(user, rng.range(0, 5000) as f64);
            hist.charge(user, QueueId(0), rng.range(0, 3_600_000), now);
            let usage = hist.snapshot(now);

            // Which jobs moved relative to each other since last cycle?
            let crossed = |before: &[u64], after: &[u64]| {
                let kept: Vec<u64> = before
                    .iter()
                    .copied()
                    .filter(|i| after.contains(i))
                    .collect();
                let still: Vec<u64> = after
                    .iter()
                    .copied()
                    .filter(|i| before.contains(i))
                    .collect();
                kept != still
            };
            let ids = rank_both_ways(&mut stat, &queue, now, &w, FairnessView::Static(&tracker));
            reordered_stat += usize::from(crossed(&last_stat, &ids));
            last_stat = ids;
            let view = FairnessView::TimeAware {
                config: &fs_cfg,
                usage: Some(&usage),
            };
            let ids = rank_both_ways(&mut aware, &queue, now, &w, view);
            reordered_aware += usize::from(crossed(&last_aware, &ids));
            last_aware = ids;
            now += SimDuration::from_secs(rng.range(1, 120));
        }
        assert!(
            reordered_stat > 20 && reordered_aware > 20,
            "the order must really change between cycles for this to test anything: \
             {reordered_stat} / {reordered_aware} of 300"
        );
    }

    #[test]
    fn remembered_order_survives_another_queue_and_a_swept_one() {
        let w = PriorityWeights::default();
        let mut order = RankOrder::default();
        let a: QueuedSet = (1..=50).map(|i| job(i, 100 - i, 4, 0)).collect();
        rank_both_ways(
            &mut order,
            &a,
            SimTime::from_secs(200),
            &w,
            FairnessView::None,
        );
        // A different, shorter queue: none of the remembered slots match.
        let b: QueuedSet = (7..=20).map(|i| job(i, i, 4, 0)).collect();
        rank_both_ways(
            &mut order,
            &b,
            SimTime::from_secs(300),
            &w,
            FairnessView::None,
        );
        // Departures until the set sweeps its empty slots: every position
        // shifts under the remembered order.
        let mut c = a.clone();
        for i in 1..=45 {
            c.remove(JobId(i));
            if i % 9 == 0 {
                rank_both_ways(
                    &mut order,
                    &c,
                    SimTime::from_secs(400 + i),
                    &w,
                    FairnessView::None,
                );
            }
        }
        assert!(c.slots().len() < 50, "the set swept its empty slots");
        let ids = rank_both_ways(
            &mut order,
            &c,
            SimTime::from_secs(500),
            &w,
            FairnessView::None,
        );
        assert_eq!(ids, vec![50, 49, 48, 47, 46]);
    }

    #[test]
    fn expansion_factor_prefers_short_waiting_jobs() {
        let w = PriorityWeights {
            queue_time_weight: 0.0,
            expansion_weight: 1.0,
            ..Default::default()
        };
        let mut short = job(1, 0, 4, 0);
        short.walltime = SimDuration::from_secs(60);
        let mut long = job(2, 0, 4, 0);
        long.walltime = SimDuration::from_secs(6000);
        let mut jobs = vec![long, short];
        rank_jobs(&mut jobs, SimTime::from_secs(120), &w, FairnessView::None);
        // Same wait, but the short job's expansion factor is larger.
        assert_eq!(jobs[0].id, JobId(1));
    }

    /// What a fairness view is built from, so a test can own the parts.
    struct Fairness {
        cfg: dynbatch_core::FairshareConfig,
        tracker: FairshareTracker,
        hist: crate::usage_history::UsageHistory,
    }

    impl Fairness {
        fn new(cfg: dynbatch_core::FairshareConfig) -> Self {
            Fairness {
                tracker: FairshareTracker::new(cfg.clone(), SimTime::ZERO),
                hist: crate::usage_history::UsageHistory::new(cfg.half_life, 64),
                cfg,
            }
        }

        fn charge(&mut self, user: UserId, queue: QueueId, core_secs: u64, now: SimTime) {
            self.tracker.advance_to(now);
            self.tracker.charge(user, core_secs as f64);
            self.hist.charge(user, queue, core_secs * 1000, now);
        }
    }

    /// A job drawn from a few values per field, so queues hold both equal
    /// and unequal static terms; now and then submitted after `now`.
    fn random_job(rng: &mut dynbatch_core::testkit::TestRng, id: u64, now: SimTime) -> QueuedJob {
        // Mostly submitted just now, so the queue is FIFO-like and an
        // arrival rarely forces a sort.
        let submit_s = if rng.chance(0.1) {
            now.as_secs() + rng.range(1, 50)
        } else {
            now.as_secs() - *rng.pick(&[0, 0, 0, 0, 0, 0, 1, 7, 60, 300])
        };
        let mut j = job(
            id,
            submit_s,
            *rng.pick(&[4, 4, 4, 16]),
            *rng.pick(&[0, 0, 0, 0, 0, 0, 0, 0, 500, -20]),
        );
        j.user = UserId(rng.range_u32(0, 4));
        j.queue = QueueId(rng.range_u32(0, 2));
        j.walltime = SimDuration::from_secs(*rng.pick(&[600, 600, 600, 45, 4000, 0]));
        j.reserve_extra = *rng.pick(&[0, 0, 2]);
        j.moldable = rng.chance(0.2).then_some(dynbatch_core::MalleableRange {
            min_cores: 2,
            max_cores: 64,
        });
        j
    }

    #[test]
    fn kept_order_equals_rank_jobs_over_random_queues_weights_and_views() {
        use dynbatch_core::testkit::check;
        use dynbatch_core::FairshareConfig;
        use std::cell::Cell;
        let (cycles, sorts) = (Cell::new(0), Cell::new(0));
        check(64, 0x4A2C, |rng| {
            // Mostly weights the run-skipping path accepts; a negative or
            // signed-zero one now and then.
            let weight = |rng: &mut dynbatch_core::testkit::TestRng| {
                *rng.pick(&[0.0, 0.0, 1.0, 1.0, 2.5, 40.0, -0.0, -1.0])
            };
            let w = PriorityWeights {
                queue_time_weight: weight(rng),
                expansion_weight: weight(rng),
                resource_weight: weight(rng),
                fairshare_weight: weight(rng),
            };
            let mut fair = Fairness::new(FairshareConfig {
                enabled: rng.chance(0.8),
                default_target: *rng.pick(&[0.0, 0.25]),
                half_life: SimDuration::from_secs(600),
                user_budget_core_hours: rng.chance(0.5).then_some(0.5),
                queue_budget_core_hours: rng.chance(0.5).then_some(0.2),
                budget_demotion: *rng.pick(&[0.0, 40.0]),
                ..FairshareConfig::default()
            });
            let view_kind = rng.below(3);
            // Half the cases mostly let a standing queue age, which is
            // where a kept order has to notice priorities crossing.
            let churn = *rng.pick(&[0.1, 1.0]);
            let mut order = RankOrder::default();
            let mut queue = QueuedSet::default();
            let mut next_id = 1;
            let mut now = SimTime::from_secs(1_000);
            for cycle in 0..80 {
                for _ in 0..rng.range_usize(0, 3) {
                    if cycle < 10 || rng.chance(churn) {
                        queue.push(random_job(rng, next_id, now));
                        next_id += 1;
                    }
                }
                let ids: Vec<JobId> = queue.iter().map(|q| q.id).collect();
                // A mass departure now and then, so the set sweeps.
                let leave = churn * if rng.chance(0.03) { 0.9 } else { 0.04 };
                for id in ids {
                    if !rng.chance(leave) {
                        continue;
                    }
                    let gone = queue.remove(id).expect("listed");
                    match rng.below(6) {
                        // Requeued as it was, into its old slot if that
                        // is still there…
                        0 => queue.push(gone),
                        // …or with one priority input changed.
                        1 => {
                            let other = random_job(rng, id.0, now);
                            let mut back = gone;
                            match rng.below(7) {
                                0 => back.submit_time = other.submit_time,
                                1 => back.priority_boost += 500,
                                2 => back.cores += 12,
                                3 => back.walltime += SimDuration::from_secs(3_000),
                                4 => back.user = UserId(back.user.0 + 1),
                                5 => back.queue = QueueId(back.queue.0 + 1),
                                _ => back.reserve_extra += 1,
                            }
                            queue.push(back);
                        }
                        _ => {}
                    }
                }
                if rng.chance(0.5) {
                    let (user, q) = (UserId(rng.range_u32(0, 4)), QueueId(rng.range_u32(0, 2)));
                    fair.charge(user, q, rng.range(0, 4_000), now);
                }
                let usage = fair.hist.snapshot(now);
                let view = match view_kind {
                    0 => FairnessView::None,
                    1 => FairnessView::Static(&fair.tracker),
                    _ => FairnessView::TimeAware {
                        config: &fair.cfg,
                        usage: rng.chance(0.9).then_some(&usage),
                    },
                };
                if rng.chance(0.1 * churn) {
                    // Somebody else's queue in between: no remembered
                    // slot describes it.
                    let other: QueuedSet = (0..rng.range(0, 12))
                        .map(|i| random_job(rng, 3 + 2 * i, now))
                        .collect();
                    rank_both_ways(&mut order, &other, now, &w, view);
                }
                rank_both_ways(&mut order, &queue, now, &w, view);
                now += SimDuration::from_secs(rng.range(0, 90));
            }
            cycles.set(cycles.get() + order.stats().cycles);
            sorts.set(sorts.get() + order.stats().sorts);
        });
        assert!(
            sorts.get() > 1_000 && cycles.get() - sorts.get() > 2_000,
            "both a kept order and a sorted one must be common: {} sorts in {} cycles",
            sorts.get(),
            cycles.get()
        );
    }

    #[test]
    fn same_class_jobs_keep_submit_then_id_order_at_every_instant() {
        use dynbatch_core::testkit::check;
        use dynbatch_core::FairshareConfig;
        // The lemma `RankOrder` rests on, against `priority_of` itself.
        check(2_000, 0x1E44A, |rng| {
            let weight = |rng: &mut dynbatch_core::testkit::TestRng| match rng.below(4) {
                0 => 0.0,
                1 => rng.f64() * 1e-9,
                2 => rng.f64() * 50.0,
                _ => rng.f64() * 1e12,
            };
            let w = PriorityWeights {
                queue_time_weight: weight(rng),
                expansion_weight: weight(rng),
                resource_weight: weight(rng) - weight(rng),
                fairshare_weight: weight(rng) - weight(rng),
            };
            let mut fair = Fairness::new(FairshareConfig {
                enabled: true,
                default_target: rng.f64(),
                user_budget_core_hours: Some(0.01),
                budget_demotion: rng.f64() * 1e6,
                ..FairshareConfig::default()
            });
            let now = SimTime::from_millis(rng.below(1 << 40));
            fair.charge(UserId(0), QueueId(0), rng.range(0, 100_000), SimTime::ZERO);
            let usage = fair.hist.snapshot(now);
            let view = match rng.below(3) {
                0 => FairnessView::None,
                1 => FairnessView::Static(&fair.tracker),
                _ => FairnessView::TimeAware {
                    config: &fair.cfg,
                    usage: Some(&usage),
                },
            };
            let mut a = job(rng.below(1_000), 0, rng.range_u32(1, 5_000), 0);
            a.priority_boost = rng.below(2_000_000) as i64 - 1_000_000;
            a.walltime = SimDuration::from_millis(*rng.pick(&[0, 1, 60_000, 86_400_000]));
            // Submitted around `now`, before or after it.
            a.submit_time = SimTime::from_millis(
                (now.as_millis() + rng.below(1 << 20)).saturating_sub(rng.below(1 << 21)),
            );
            let mut b = a.clone();
            if rng.chance(0.3) {
                b.id = JobId(a.id.0 + 1 + rng.below(9));
            } else {
                b.id = JobId(rng.below(2_000));
                b.submit_time = a.submit_time + SimDuration::from_millis(1 + rng.below(1 << 22));
            }
            let (pa, pb) = (
                priority_of(&a, now, &w, view),
                priority_of(&b, now, &w, view),
            );
            assert!(pa.score.is_finite() && pb.score.is_finite());
            assert_eq!(
                pa.cmp_desc(&pb),
                Ordering::Less,
                "{a:?} must rank before {b:?} at {now} under {w:?}: {pa:?} vs {pb:?}"
            );
        });
    }

    #[test]
    fn a_fifo_queue_is_kept_without_a_score_and_a_crossing_one_is_sorted() {
        use dynbatch_core::testkit::TestRng;
        let mut rng = TestRng::from_seed(0xF1F0);
        // Default weights: every static term is weighted zero, so jobs of
        // any user, width and walltime are one class and the queue is FIFO.
        let fifo = PriorityWeights::default();
        // The expansion factor lets short jobs overtake long ones.
        let crossing = PriorityWeights {
            expansion_weight: 3.0,
            ..fifo
        };
        let (mut kept, mut sorted) = (RankOrder::default(), RankOrder::default());
        let mut queue = QueuedSet::default();
        let mut next_id = 1;
        let mut walked = 0;
        for cycle in 0..200u64 {
            let now = SimTime::from_secs(1_000 + 30 * cycle);
            for _ in 0..rng.range_usize(1, 4) {
                let mut j = job(next_id, now.as_secs() - 1, rng.range_u32(1, 64), 0);
                j.user = UserId(rng.range_u32(0, 8));
                j.walltime = SimDuration::from_secs(rng.range(30, 4_000));
                next_id += 1;
                queue.push(j);
            }
            // Starts: mostly from the head, sometimes out of the middle.
            let ids: Vec<JobId> = queue.iter().map(|q| q.id).collect();
            for (k, id) in ids.into_iter().enumerate() {
                if rng.chance(if k < 2 { 0.5 } else { 0.02 }) {
                    queue.remove(id);
                }
            }
            walked += queue.len() as u64;
            rank_both_ways(&mut kept, &queue, now, &fifo, FairnessView::None);
            rank_both_ways(&mut sorted, &queue, now, &crossing, FairnessView::None);
        }
        let stats = kept.stats();
        assert_eq!(
            (stats.evaluations, stats.boundaries, stats.sorts),
            (0, 0, 0),
            "a single-class FIFO queue needs no arithmetic: {stats:?}"
        );
        assert_eq!(stats.cycles, 200);
        // Every queued job is looked at once per cycle — twice in a cycle
        // that follows a sweep of the slot vector and starts over.
        assert!(
            stats.entries_walked >= walked && stats.entries_walked <= 2 * walked,
            "{stats:?} against {walked} queued job-cycles"
        );
        assert!(stats.restarts < 20, "only a sweep restarts: {stats:?}");
        let stats = sorted.stats();
        assert!(
            stats.sorts > 0 && stats.sorts < 200 && stats.evaluations > stats.boundaries,
            "walltimes differ, so every pair is scored and some cross: {stats:?}"
        );
    }
}
