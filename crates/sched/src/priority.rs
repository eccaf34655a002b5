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

/// Marks "no entry": the end of a link, an unheld slot, a departed
/// entry's position.
const NONE: u32 = u32::MAX;

/// The queue in scheduling order, as [`RankOrder::rank`] lends it to the
/// passes of one iteration: the kept entries, each resolved to a job of
/// the [`QueuedSet`] only when a pass asks for one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ranked<'a> {
    slots: &'a [Option<QueuedJob>],
    /// The entries, highest priority first — the permutation [`rank_jobs`]
    /// produces — with departed ones left among them until the order is
    /// compacted.
    keys: &'a [Key],
    /// Per entry: the fewest idle cores its job can start on
    /// ([`QueuedJob::min_start_width`]), `u32::MAX` for a departed entry.
    /// Kept apart from the jobs so a pass that only asks "could this fit
    /// in what is idle now?" reads four bytes per entry, not the job.
    pub need: &'a [u32],
    /// Per entry, the next queued entry in rank order.
    next: &'a [u32],
    /// The first queued entry ([`NONE`] for an empty queue).
    head: u32,
}

impl<'a> Ranked<'a> {
    /// The job of entry `i` (a queued one).
    pub fn job(&self, i: usize) -> &'a QueuedJob {
        self.slots[self.keys[i].pos as usize]
            .as_ref()
            .expect("a ranked slot holds a job")
    }

    /// The requested walltime of entry `i`'s job, read without resolving
    /// the job.
    pub fn walltime(&self, i: usize) -> SimDuration {
        self.keys[i].walltime
    }

    /// The entries of the queued jobs in rank order (ascending).
    pub fn entries(&self) -> impl Iterator<Item = usize> + 'a {
        let next = self.next;
        let first = Some(self.head).filter(|&i| i != NONE);
        std::iter::successors(first, move |&i| {
            Some(next[i as usize]).filter(|&n| n != NONE)
        })
        .map(|i| i as usize)
    }

    /// The jobs in rank order, each resolved as the iterator reaches it.
    pub fn iter(&self) -> impl Iterator<Item = &'a QueuedJob> + 'a {
        let ranked = *self;
        self.entries().map(move |i| ranked.job(i))
    }
}

/// Work counters of the scheduler's rank order, cumulative since the
/// scheduler was built ([`crate::maui::Maui::rank_stats`]). Exact and
/// deterministic for a given run, so a gate can rest on them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankStats {
    /// Ranking cycles run.
    pub cycles: u64,
    /// Entries looked at: departures followed through the queue's change
    /// log, jobs newly keyed, and every entry a fallback cycle walked.
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
    /// Cycles that could not follow the queue's change log (a queue of
    /// another identity, other weights, entries that do not add up to the
    /// queue) or whose owners' fairness terms moved, and so walked every
    /// entry: the validation walk against the slots, or the pair walk.
    pub fallbacks: u64,
    /// The part of `entries_walked` spent in those cycles.
    pub fallback_entries: u64,
}

/// The scheduling order of the queue, kept from one cycle to the next.
///
/// Priorities drift with time, but the *order* of a queue rarely changes
/// between two cycles: jobs leave, new ones arrive at the back. So the
/// order is stored — per job, in rank order, its slot position in the
/// [`QueuedSet`] and the inputs of its priority — and a cycle follows the
/// queue's change log: it marks the entries whose slots were emptied as
/// departed, appends the arrivals, works out the fairness terms once per
/// owner (user and queue) that has a job queued, and compares scores
/// **only at run boundaries**, and only at the pairs a change or a score
/// can have put out of order.
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
/// # Which pairs a cycle checks
///
/// A pair the lemma covered last cycle still is: its jobs, their owners'
/// terms and the weights are what they were. So, while no owner's terms
/// moved, a cycle checks the pairs next to a change (the two neighbours a
/// departure leaves adjacent, the pair each arrival forms with the entry
/// before it) and the boundaries it remembered — O(changes + boundaries),
/// nothing in a standing FIFO queue. When an owner's terms moved, or the
/// lemma's precondition flipped, it walks every pair as before.
///
/// # Following the queue, and the fallback
///
/// While the queue carries the identity the order saw last cycle, its log
/// names every slot emptied since, and every later slot is an arrival
/// (see [`QueuedSet`]); a departed entry becomes a *tombstone* in place —
/// found through a slot → entry index, unlinked from its neighbours, its
/// `need` set to `u32::MAX` so the backfill filter skips it — and the
/// tombstones are compacted away once they outnumber the queued entries,
/// so a departure costs O(1) amortised instead of a block move. Any other
/// case — a queue of another identity (swept, refilled, forked, rebuilt,
/// somebody else's), other weights, entries that do not add up to the
/// queue — takes the validation walk: an entry is kept only while its
/// slot still holds a job with the remembered id and priority inputs, new
/// slots are appended in slot (id) order, and if the entries then do not
/// add up to the queue the order is rebuilt from id order. Debug builds
/// run the validation walk's check on every cycle.
///
/// # Layout
///
/// An entry is one [`Key`] record, because checking it against its slot
/// reads every field. `need` is an array of its own — the backfill
/// filter scans it and nothing else — and so are the links.
#[derive(Debug, Clone, Default)]
pub(crate) struct RankOrder {
    /// The entries in rank order, departed ones among them until
    /// compaction.
    keys: Vec<Key>,
    /// [`Ranked::need`], parallel to `keys`.
    need: Vec<u32>,
    /// Parallel to `keys`: the next and the previous queued entry in rank
    /// order, [`NONE`] at the ends. Meaningless for a departed entry.
    next: Vec<u32>,
    prev: Vec<u32>,
    /// The first and the last queued entry, while `live > 0`.
    head: u32,
    tail: u32,
    /// Entries not departed.
    live: usize,
    /// Slot position → the entry for it, [`NONE`] for none.
    at_slot: Vec<u32>,
    owners: Owners,
    /// What the order was last made for; `None` before the first cycle.
    last: Option<Continuity>,
    /// The entries whose pair with their successor the lemma does not
    /// cover, ascending: every cycle re-checks them.
    boundaries: Vec<u32>,
    /// Scratch: entries whose pair with their successor a change touched.
    recheck: Vec<u32>,
    /// Scratch: indices of the entries the validation walk drops.
    dropped: Vec<u32>,
    /// Scratch of the sort path: every entry's priority and index.
    by_priority: Vec<(Priority, u32)>,
    stats: RankStats,
}

/// The queue and the weights an order was made for.
#[derive(Debug, Clone, Copy)]
struct Continuity {
    /// [`QueuedSet::identity`].
    identity: u64,
    /// Entries of [`QueuedSet::emptied`] followed.
    emptied: usize,
    /// Slot count: later slots are arrivals.
    slots: usize,
    /// The weights, by bits.
    weights: [u64; 4],
    /// The lemma's precondition, if the order held two or more jobs —
    /// pairs, checked under the owner terms of that cycle.
    monotone: Option<bool>,
}

fn weight_bits(w: &PriorityWeights) -> [u64; 4] {
    [
        w.queue_time_weight,
        w.expansion_weight,
        w.resource_weight,
        w.fairshare_weight,
    ]
    .map(f64::to_bits)
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
    /// Slot position in the [`QueuedSet`]; [`NONE`] once departed.
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
    /// No refresh has worked out the terms since the owner entered.
    fresh: bool,
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

/// What [`Owners::refresh`] found.
struct Terms {
    /// Every owner's terms are finite.
    finite: bool,
    /// Every owner has the same terms (by value) — as on a site without
    /// fairshare.
    uniform: bool,
    /// An owner that had its terms worked out before got other ones (by
    /// bits).
    moved: bool,
}

impl Owners {
    /// Computes this cycle's fairness terms of every owner with a job.
    fn refresh(&mut self, weights: &PriorityWeights, fairness: FairnessView<'_>) -> Terms {
        let mut terms = Terms {
            finite: true,
            uniform: true,
            moved: false,
        };
        let mut first = None;
        for owner in self.table.iter_mut().filter(|o| o.jobs > 0) {
            let fs_term = weights.fairshare_weight * fairness.delta(owner.user);
            let demotion = fairness.demotion(owner.user, owner.queue);
            terms.moved |= !owner.fresh
                && (fs_term.to_bits(), demotion.to_bits())
                    != (owner.fs_term.to_bits(), owner.demotion.to_bits());
            (owner.fs_term, owner.demotion, owner.fresh) = (fs_term, demotion, false);
            terms.finite &= fs_term.is_finite() && demotion.is_finite();
            terms.uniform &= *first.get_or_insert((fs_term, demotion)) == (fs_term, demotion);
        }
        terms
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
            fresh: true,
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
    /// A zero weight makes its term a zero whatever the input.
    any_cores: bool,
    any_walltime: bool,
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
        let walked = self.stats.entries_walked;
        self.stats.cycles += 1;
        let bits = weight_bits(weights);
        let last = self.last.filter(|last| {
            last.identity == queue.identity()
                && last.weights == bits
                && last.emptied <= queue.emptied().len()
                && last.slots <= slots.len()
        });
        let mut fallback = !last.is_some_and(|last| self.follow(queue, last));
        if fallback {
            self.stats.fallbacks += 1;
            // Slots past these are new; a log followed has keyed them.
            let seen = match last {
                Some(_) => slots.len(),
                None => self.last.map_or(0, |last| last.slots).min(slots.len()),
            };
            self.revalidate(slots, queue.len(), seen);
        }
        let mut monotone = None;
        // One job or none is in order as it stands; the owners' terms and
        // the lemma's precondition are worked out for two or more.
        if self.live > 1 {
            let terms = self.owners.refresh(weights, fairness);
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
                monotone: terms.finite && weights_fit,
                one_owner_class: terms.uniform,
                any_cores: weights.resource_weight == 0.0,
                any_walltime: weights.expansion_weight == 0.0,
                evaluations: 0,
                boundaries: 0,
            };
            // The pairs kept from last cycle are known to be covered only
            // under the terms and the precondition they were checked with.
            let moved = last
                .and_then(|last| last.monotone)
                .is_some_and(|was| terms.moved || was != pass.monotone);
            if moved && !fallback {
                self.stats.fallbacks += 1;
                fallback = true;
            }
            if fallback {
                // Every pair, not only those next to a change.
                self.stats.entries_walked += self.live as u64;
                self.boundaries.clear();
                let queued =
                    (0..self.keys.len() as u32).filter(|&i| self.keys[i as usize].pos != NONE);
                self.recheck.clear();
                self.recheck.extend(queued);
            }
            let ordered = self.check(&mut pass);
            if !ordered {
                self.sort(&mut pass);
            }
            self.stats.evaluations += pass.evaluations;
            self.stats.boundaries += pass.boundaries;
            monotone = Some(pass.monotone);
        } else {
            self.boundaries.clear();
        }
        self.recheck.clear();
        if fallback {
            self.stats.fallback_entries += self.stats.entries_walked - walked;
        }
        if self.keys.len() - self.live > self.live {
            self.compact();
        }
        self.last = Some(Continuity {
            identity: queue.identity(),
            emptied: queue.emptied().len(),
            slots: slots.len(),
            weights: bits,
            monotone,
        });
        debug_assert!(
            self.describes(slots, queue.len()),
            "the kept entries no longer describe the queue at {now}"
        );
        let ranked = Ranked {
            slots,
            keys: &self.keys,
            need: &self.need,
            next: &self.next,
            head: if self.live == 0 { NONE } else { self.head },
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

    /// Brings the entries up to date through the queue's change log, from
    /// where `last` left it: every entry whose slot was emptied departs,
    /// every appended slot is keyed. Returns whether the entries then add
    /// up to the queue.
    fn follow(&mut self, queue: &QueuedSet, last: Continuity) -> bool {
        let slots = queue.slots();
        for &pos in &queue.emptied()[last.emptied..] {
            // A slot appended and emptied between two cycles was never
            // keyed.
            let Some(&i) = self.at_slot.get(pos as usize).filter(|&&i| i != NONE) else {
                continue;
            };
            self.at_slot[pos as usize] = NONE;
            self.depart(i);
            self.stats.entries_walked += 1;
        }
        self.at_slot.resize(slots.len(), NONE);
        let first = self.keys.len();
        self.append(slots, last.slots..slots.len());
        for i in first..self.keys.len() {
            self.link_last(i as u32);
        }
        self.live == queue.len()
    }

    /// Marks entry `i` departed and links its neighbours; the pair they
    /// now form is re-checked.
    fn depart(&mut self, i: u32) {
        let i = i as usize;
        self.owners.leave(self.keys[i].owner);
        self.keys[i].pos = NONE;
        self.need[i] = u32::MAX;
        let (prev, next) = (self.prev[i], self.next[i]);
        match prev {
            NONE => self.head = next,
            p => {
                self.next[p as usize] = next;
                self.recheck.push(p);
            }
        }
        match next {
            NONE => self.tail = prev,
            n => self.prev[n as usize] = prev,
        }
        self.live -= 1;
    }

    /// Links the (newly appended) entry `i` after the last queued one;
    /// the pair they form is re-checked.
    fn link_last(&mut self, i: u32) {
        self.at_slot[self.keys[i as usize].pos as usize] = i;
        let prev = if self.live == 0 {
            self.head = i;
            NONE
        } else {
            self.next[self.tail as usize] = i;
            self.recheck.push(self.tail);
            self.tail
        };
        self.prev[i as usize] = prev;
        self.next[i as usize] = NONE;
        self.tail = i;
        self.live += 1;
    }

    /// The fallback: keeps the entries whose slot still holds the job they
    /// describe, appends the slots from `seen` on, and starts
    /// over from id order if that does not add up to the queue.
    fn revalidate(&mut self, slots: &[Option<QueuedJob>], queued: usize, seen: usize) {
        self.drop_departed(slots);
        self.append(slots, seen..slots.len());
        if self.keys.len() != queued {
            // The hint does not cover this queue: start over from id order.
            self.stats.restarts += 1;
            self.keys.clear();
            self.need.clear();
            self.owners.clear();
            self.append(slots, 0..slots.len());
        }
        self.boundaries.clear();
        self.recheck.clear();
        self.at_slot.clear();
        self.at_slot.resize(slots.len(), NONE);
        self.relink();
    }

    /// Drops every remembered entry whose slot no longer holds the job it
    /// describes — the same id, owner and priority inputs — and every
    /// departed one.
    fn drop_departed(&mut self, slots: &[Option<QueuedJob>]) {
        self.stats.entries_walked += self.keys.len() as u64;
        self.dropped.clear();
        for (i, (key, &need)) in self.keys.iter().zip(&self.need).enumerate() {
            if !self.holds(slots, key, need) {
                self.dropped.push(i as u32);
            }
        }
        for &gone in &self.dropped {
            let key = self.keys[gone as usize];
            if key.pos != NONE {
                self.owners.leave(key.owner);
            }
        }
        remove_all(&mut self.keys, &self.dropped);
        remove_all(&mut self.need, &self.dropped);
    }

    /// Whether `key`'s slot holds the job it describes.
    fn holds(&self, slots: &[Option<QueuedJob>], key: &Key, need: u32) -> bool {
        let owner = &self.owners.table[key.owner as usize];
        matches!(
            slots.get(key.pos as usize),
            Some(Some(job)) if (owner.user, owner.queue) == (job.user, job.queue)
                && (*key, need) == Self::key_of(job, key.pos as usize, key.owner)
        )
    }

    /// Keys the job of every occupied slot in `positions`, in turn, after
    /// the entries already there (unlinked: the caller links them).
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
            self.prev.push(NONE);
            self.next.push(NONE);
            self.stats.entries_walked += 1;
        }
    }

    /// Links the entries, none departed, in index order and points their
    /// slots at them. The slot index must already be [`NONE`] at every
    /// other slot.
    fn relink(&mut self) {
        let n = self.keys.len() as u32;
        self.prev.clear();
        self.prev
            .extend((0..n).map(|i| i.checked_sub(1).unwrap_or(NONE)));
        self.next.clear();
        self.next
            .extend((1..=n).map(|i| if i == n { NONE } else { i }));
        (self.head, self.tail, self.live) = (0, n.saturating_sub(1), n as usize);
        for (i, key) in self.keys.iter().enumerate() {
            self.at_slot[key.pos as usize] = i as u32;
        }
    }

    /// Removes the departed entries (their slots already point nowhere),
    /// keeping `boundaries` (ascending, queued entries) pointing at
    /// theirs.
    fn compact(&mut self) {
        let (mut kept, mut b) = (0, 0);
        for i in 0..self.keys.len() {
            if self.keys[i].pos == NONE {
                continue;
            }
            if self.boundaries.get(b) == Some(&(i as u32)) {
                self.boundaries[b] = kept as u32;
                b += 1;
            }
            (self.keys[kept], self.need[kept]) = (self.keys[i], self.need[i]);
            kept += 1;
        }
        debug_assert_eq!(
            b,
            self.boundaries.len(),
            "a boundary names a departed entry"
        );
        self.keys.truncate(kept);
        self.need.truncate(kept);
        self.relink();
    }

    /// Whether the lemma puts `b` after `a` without arithmetic.
    fn covered(&self, a: &Key, b: &Key, pass: &Pass<'_>) -> bool {
        let owners = &self.owners.table[..];
        pass.monotone
            && a.boost == b.boost
            && (pass.any_cores || a.cores == b.cores)
            && (pass.any_walltime || a.walltime == b.walltime)
            && (pass.one_owner_class || {
                let (a, b) = (&owners[a.owner as usize], &owners[b.owner as usize]);
                a.fs_term == b.fs_term && a.demotion == b.demotion
            })
            && (a.submit, a.id) < (b.submit, b.id)
    }

    /// Whether each queued entry in `recheck`, and each remembered
    /// boundary, ranks before its successor: for free where the lemma
    /// covers the pair, by their scores otherwise. Records the boundaries
    /// met.
    fn check(&mut self, pass: &mut Pass<'_>) -> bool {
        let mut recheck = std::mem::take(&mut self.recheck);
        recheck.append(&mut self.boundaries);
        recheck.retain(|&i| self.keys[i as usize].pos != NONE);
        recheck.sort_unstable();
        recheck.dedup();
        let mut ordered = true;
        // The score of the entry last scored as the second of a pair.
        let mut last_score = None;
        for &a in &recheck {
            let b = self.next[a as usize];
            if b == NONE {
                continue;
            }
            let (ka, kb) = (self.keys[a as usize], self.keys[b as usize]);
            if self.covered(&ka, &kb, pass) {
                continue;
            }
            self.boundaries.push(a);
            let before = match last_score {
                Some((i, score)) if i == a => score,
                _ => self.score(&ka, pass),
            };
            let after = self.score(&kb, pass);
            pass.boundaries += 1;
            if !ka.priority(before).cmp_desc(&kb.priority(after)).is_lt() {
                ordered = false;
                break;
            }
            last_score = Some((b, after));
        }
        recheck.clear();
        self.recheck = recheck;
        ordered
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

    /// Scores every queued entry, puts the entries into rank order and
    /// records the boundaries of that order.
    fn sort(&mut self, pass: &mut Pass<'_>) {
        self.stats.sorts += 1;
        self.boundaries.clear();
        if self.keys.len() != self.live {
            self.compact();
        }
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
        self.relink();
        for a in 1..self.keys.len() {
            if !self.covered(&self.keys[a - 1], &self.keys[a], pass) {
                self.boundaries.push(a as u32 - 1);
            }
        }
    }

    /// The validation walk as a check: every queued entry's slot holds the
    /// job it describes, the links run through exactly the queued entries
    /// in index order, the slot index points back, and the entries add up
    /// to the queue.
    fn describes(&self, slots: &[Option<QueuedJob>], queued: usize) -> bool {
        let linked: Vec<usize> = if self.live == 0 {
            Vec::new()
        } else {
            let first = Some(self.head as usize);
            std::iter::successors(first, |&i| {
                Some(self.next[i] as usize).filter(|&n| n != NONE as usize)
            })
            .collect()
        };
        let queued_entries: Vec<usize> = (0..self.keys.len())
            .filter(|&i| self.keys[i].pos != NONE)
            .collect();
        linked == queued_entries
            && linked.len() == self.live
            && self.live == queued
            && linked.windows(2).all(|w| self.prev[w[1]] as usize == w[0])
            && linked.iter().all(|&i| {
                let key = &self.keys[i];
                self.holds(slots, key, self.need[i])
                    && self.at_slot.get(key.pos as usize) == Some(&(i as u32))
            })
            && (0..self.keys.len())
                .filter(|&i| self.keys[i].pos == NONE)
                .all(|i| self.need[i] == u32::MAX)
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
        assert_eq!(
            ranked.entries().map(|i| ranked.need[i]).collect::<Vec<_>>(),
            need
        );
        let departed = (0..ranked.need.len()).filter(|i| !ranked.entries().any(|e| e == *i));
        assert!(departed.into_iter().all(|i| ranked.need[i] == u32::MAX));
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
            // Jobs that left, for a requeue cycles later; a fork of the
            // queue, for ranking out of order.
            let (mut left, mut stale) = (Vec::new(), None);
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
                        _ => left.push(gone),
                    }
                }
                // A requeue of a job that left cycles ago: into its old
                // slot if no sweep took it, mid-vector if one did.
                if rng.chance(0.2) {
                    if let Some(back) = left.pop() {
                        queue.push(back);
                    }
                }
                if rng.chance(0.05) {
                    // The same jobs in a set of their own, as an image
                    // load rebuilds it: other slots, no log.
                    queue = queue.iter().cloned().collect();
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
                let nth = |set: &QueuedSet, rng: &mut dynbatch_core::testkit::TestRng| {
                    set.iter().map(|q| q.id).nth(rng.range_usize(0, 4))
                };
                if rng.chance(0.15) {
                    // A copy of the queue that goes its own way (a job
                    // leaves it, one may arrive) while the queue loses a
                    // job of its own: two histories from one slot layout,
                    // the copy ranked now or cycles later.
                    let mut fork = queue.clone();
                    if let Some(id) = nth(&fork, rng) {
                        fork.remove(id);
                    }
                    if rng.chance(0.5) {
                        fork.push(random_job(rng, next_id, now));
                        next_id += 1;
                    }
                    if let Some(id) = nth(&queue, rng) {
                        left.extend(queue.remove(id));
                    }
                    if rng.chance(0.5) {
                        rank_both_ways(&mut order, &fork, now, &w, view);
                    } else {
                        stale = Some(fork);
                    }
                } else if let Some(fork) = stale.take().filter(|_| rng.chance(0.3)) {
                    rank_both_ways(&mut order, &fork, now, &w, view);
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
        // What changed between cycles, and how often the queue's identity
        // did (a sweep of its slot vector, or the very first cycle).
        let (mut changes, mut walked, mut renewals, mut identity) = (0, 0, 0, None);
        for cycle in 0..200u64 {
            let now = SimTime::from_secs(1_000 + 30 * cycle);
            for _ in 0..rng.range_usize(1, 4) {
                let mut j = job(next_id, now.as_secs() - 1, rng.range_u32(1, 64), 0);
                j.user = UserId(rng.range_u32(0, 8));
                j.walltime = SimDuration::from_secs(rng.range(30, 4_000));
                next_id += 1;
                queue.push(j);
                changes += 1;
            }
            // Starts: mostly from the head, sometimes out of the middle.
            let ids: Vec<JobId> = queue.iter().map(|q| q.id).collect();
            for (k, id) in ids.into_iter().enumerate() {
                if rng.chance(if k < 2 { 0.5 } else { 0.02 }) {
                    queue.remove(id);
                    changes += 1;
                }
            }
            walked += queue.len() as u64;
            renewals += u64::from(identity.replace(queue.identity()) != Some(queue.identity()));
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
        // A cycle follows the queue's log: it looks at what changed, and
        // walks the whole queue only when the queue's identity did.
        assert_eq!(stats.fallbacks, renewals, "{stats:?}");
        assert!(
            renewals > 1 && renewals < 20,
            "only a sweep renews: {renewals}"
        );
        assert!(
            stats.entries_walked - stats.fallback_entries <= changes,
            "{stats:?} against {changes} arrivals and departures"
        );
        assert!(
            stats.entries_walked < walked / 2,
            "{stats:?} against {walked} queued job-cycles"
        );
        assert!(
            stats.restarts <= renewals,
            "only a sweep restarts: {stats:?}"
        );
        let stats = sorted.stats();
        assert!(
            stats.sorts > 0 && stats.sorts < 200 && stats.evaluations > stats.boundaries,
            "walltimes differ, so every pair is scored and some cross: {stats:?}"
        );
    }
}
