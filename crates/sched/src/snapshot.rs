//! The scheduler's view of the world.
//!
//! Each Maui iteration begins by "obtaining resource information and
//! workload information from Torque" (paper Algorithm 1, steps 2–3). The
//! [`Snapshot`] is exactly that hand-off: a value type the resource
//! manager (simulated or threaded) builds and passes to
//! [`crate::maui::Maui::iterate`]. Keeping it a plain value keeps the
//! scheduler deterministic and trivially testable.

use crate::incremental::DeltaLog;
use crate::usage_history::UsageSnapshot;
use dynbatch_core::{GroupId, JobId, MalleableRange, QueueId, SimDuration, SimTime, UserId};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

/// A job currently holding resources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunningJob {
    /// Job id.
    pub id: JobId,
    /// Owner.
    pub user: UserId,
    /// Owner's group.
    pub group: GroupId,
    /// Cores currently held (including past dynamic grants).
    pub cores: u32,
    /// When the job started.
    pub start_time: SimTime,
    /// When its walltime expires (the scheduler plans with walltime, not
    /// with actual — unknowable — completion).
    pub walltime_end: SimTime,
    /// Whether this job was started by backfill (and is therefore
    /// preemptible under the site policy).
    pub backfilled: bool,
    /// Cores pre-reserved for this job's future dynamic requests
    /// (guaranteeing policy); the planner treats them as held.
    pub reserved_extra: u32,
    /// The resize range of a malleable job (`None` for other classes).
    pub malleable: Option<MalleableRange>,
}

/// A job waiting in the queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuedJob {
    /// Job id.
    pub id: JobId,
    /// Owner.
    pub user: UserId,
    /// Owner's group.
    pub group: GroupId,
    /// Submission queue ([`dynbatch_core::JobSpec::effective_queue`]):
    /// the per-queue resource-hour budget key.
    pub queue: QueueId,
    /// Requested cores.
    pub cores: u32,
    /// Requested walltime.
    pub walltime: SimDuration,
    /// Submission instant.
    pub submit_time: SimTime,
    /// Additive priority boost (ESP Z jobs).
    pub priority_boost: i64,
    /// The ESP Z rule: backfilling is suspended while this job is queued.
    pub suppress_backfill_while_queued: bool,
    /// Cores to pre-reserve on top of `cores` at start (guaranteeing
    /// policy); the job only starts when `cores + reserve_extra` fit.
    pub reserve_extra: u32,
    /// Moldable start range (`None` for other classes): the scheduler may
    /// start this job on any core count within it.
    pub moldable: Option<MalleableRange>,
}

impl QueuedJob {
    /// The fewest idle cores this job can start on: its requested cores —
    /// the bottom of its range, if moldable — plus its pre-reserve. At
    /// least one for any job a server admits.
    pub fn min_start_width(&self) -> u32 {
        self.moldable.map_or(self.cores, |m| m.min_cores) + self.reserve_extra
    }
}

/// A pending dynamic request from a running evolving job
/// (the server-side image of a `tm_dynget()` call).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynRequest {
    /// The evolving job.
    pub job: JobId,
    /// Its owner (delays to this user's own queued jobs are exempt).
    pub user: UserId,
    /// Its owner's group.
    pub group: GroupId,
    /// Extra cores requested.
    pub extra_cores: u32,
    /// Remaining walltime of the evolving job — dynamic reservations are
    /// held until then (paper §III-D).
    pub remaining_walltime: SimDuration,
    /// FIFO sequence: dynamic requests are prioritised in arrival order
    /// (paper Algorithm 2, step 9).
    pub seq: u64,
    /// Negotiation deadline (the paper's future-work extension): while
    /// `now < deadline`, a request that cannot be served is *deferred* —
    /// it stays queued at the server and is reconsidered every iteration —
    /// instead of rejected. `None` = the paper's reject-immediately
    /// protocol.
    pub deadline: Option<SimTime>,
}

/// The running jobs of a snapshot, in ascending job-id order.
///
/// The order is an invariant of the type (every constructor and mutator
/// keeps it), which is what lets the scheduler find a request's holder by
/// binary search. The storage is shared copy-on-write: the resource
/// manager keeps one set up to date at its mutation sites and hands a
/// clone — a reference-count bump — to every snapshot; a mutation while a
/// snapshot is still alive copies the set first, so a snapshot never
/// changes under its reader.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunningSet(Arc<Vec<RunningJob>>);

impl RunningSet {
    fn position(&self, id: JobId) -> Result<usize, usize> {
        self.0.binary_search_by_key(&id, |r| r.id)
    }

    /// The running job `id`, if present. O(log n).
    pub fn get(&self, id: JobId) -> Option<&RunningJob> {
        self.position(id).ok().map(|i| &self.0[i])
    }

    /// Mutable access to the running job `id` (its `id` must not change).
    pub fn get_mut(&mut self, id: JobId) -> Option<&mut RunningJob> {
        let i = self.position(id).ok()?;
        Some(&mut Arc::make_mut(&mut self.0)[i])
    }

    /// Adds a job at its id-ordered position.
    ///
    /// # Panics
    /// If a job with the same id is already present.
    pub fn push(&mut self, job: RunningJob) {
        match self.position(job.id) {
            Ok(_) => panic!("{}: already in the running set", job.id),
            Err(i) => Arc::make_mut(&mut self.0).insert(i, job),
        }
    }

    /// Removes and returns the job `id`, if present.
    pub fn remove(&mut self, id: JobId) -> Option<RunningJob> {
        let i = self.position(id).ok()?;
        Some(Arc::make_mut(&mut self.0).remove(i))
    }
}

impl std::ops::Deref for RunningSet {
    type Target = [RunningJob];

    fn deref(&self) -> &[RunningJob] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a RunningSet {
    type Item = &'a RunningJob;
    type IntoIter = std::slice::Iter<'a, RunningJob>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl From<Vec<RunningJob>> for RunningSet {
    /// Takes the jobs in any order (ids must be distinct).
    fn from(mut jobs: Vec<RunningJob>) -> Self {
        jobs.sort_by_key(|r| r.id);
        debug_assert!(
            jobs.windows(2).all(|w| w[0].id < w[1].id),
            "duplicate job id in the running set"
        );
        RunningSet(Arc::new(jobs))
    }
}

/// Departed slots are swept out once they outnumber the queued jobs by
/// this much, so the slot vector stays within about twice the queue.
const SWEEP_SLACK: usize = 32;

/// An identity no [`QueuedSlots`] of this process has had before.
fn fresh_identity() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, AtomicOrdering::Relaxed)
}

#[derive(Debug)]
struct QueuedSlots {
    /// Ascending; one entry per slot, departed or not (a departed slot
    /// keeps its id so the vector stays searchable).
    ids: Vec<JobId>,
    /// `None` once the job has left the queue.
    jobs: Vec<Option<QueuedJob>>,
    live: usize,
    /// Queued jobs with `suppress_backfill_while_queued` (the Z rule).
    suppressors: usize,
    /// Names this slot layout: renewed whenever a slot could move or be
    /// refilled, and on every copy, so two sets that share an identity
    /// are one history, the later an extension of the earlier.
    identity: u64,
    /// Positions of the slots emptied since `identity` was drawn, in
    /// the order they were emptied. A position appears at most once (a
    /// refill renews the identity), so the log is bounded by the slots.
    emptied: Vec<u32>,
}

impl QueuedSlots {
    fn new(jobs: Vec<Option<QueuedJob>>) -> Self {
        let queued = || jobs.iter().flatten();
        QueuedSlots {
            ids: queued().map(|q| q.id).collect(),
            live: queued().count(),
            suppressors: queued()
                .filter(|q| q.suppress_backfill_while_queued)
                .count(),
            jobs,
            identity: fresh_identity(),
            emptied: Vec::new(),
        }
    }

    /// The slot layout may have changed: a new identity, an empty log.
    fn renew(&mut self) {
        self.identity = fresh_identity();
        self.emptied.clear();
    }
}

impl Default for QueuedSlots {
    fn default() -> Self {
        QueuedSlots::new(Vec::new())
    }
}

impl Clone for QueuedSlots {
    /// The copy `Arc::make_mut` makes before mutating a shared set: from
    /// here on the two histories diverge, so the copy is a new identity.
    fn clone(&self) -> Self {
        QueuedSlots {
            ids: self.ids.clone(),
            jobs: self.jobs.clone(),
            live: self.live,
            suppressors: self.suppressors,
            identity: fresh_identity(),
            emptied: Vec::new(),
        }
    }
}

/// The queued jobs of a snapshot, in ascending job-id order, with the Z
/// rule's "suppress backfill" count kept alongside.
///
/// Like [`RunningSet`], the storage is shared copy-on-write between the
/// resource manager and its snapshots. Jobs sit in *slots*: submission
/// appends one, departure (start, `qdel`) empties one in place, so both
/// cost O(log n) however deep the queue is, and a job's slot position
/// stays put until the set sweeps its empty slots or a requeue refills
/// an old slot or inserts mid-vector.
///
/// The set tells a reader what changed: it carries an *identity*, renewed
/// whenever slot positions could move or a slot be refilled (a sweep, a
/// push that is not an append, construction from a vector) and whenever
/// the storage forks (the copy a mutation of a shared set makes), and a
/// log of the slots emptied since. A reader that remembers the identity,
/// how much of the log it has read and how many slots there were has
/// seen everything that happened since: the new log entries and the
/// slots appended after. The scheduler's persistent rank order
/// (`priority::RankOrder`) follows the queue that way; with any other
/// identity it re-validates every remembered slot instead.
#[derive(Debug, Clone, Default)]
pub struct QueuedSet(Arc<QueuedSlots>);

impl QueuedSet {
    /// Number of queued jobs.
    pub fn len(&self) -> usize {
        self.0.live
    }

    /// True iff no job is queued.
    pub fn is_empty(&self) -> bool {
        self.0.live == 0
    }

    /// The queued jobs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = &QueuedJob> + Clone {
        self.0.jobs.iter().flatten()
    }

    /// The queued job `id`, if present. O(log n).
    pub fn get(&self, id: JobId) -> Option<&QueuedJob> {
        let i = self.0.ids.binary_search(&id).ok()?;
        self.0.jobs[i].as_ref()
    }

    /// How many queued jobs suppress backfill (the ESP Z rule).
    pub(crate) fn backfill_suppressors(&self) -> usize {
        self.0.suppressors
    }

    /// The slots in position order, `None` where the job has left: what
    /// `priority::RankOrder` resolves its remembered positions in.
    pub(crate) fn slots(&self) -> &[Option<QueuedJob>] {
        &self.0.jobs
    }

    /// The identity of the slot layout (see the type's documentation):
    /// two reads of one set return the same value iff no slot moved or
    /// was refilled in between — only appends, and departures short of a
    /// sweep.
    pub fn identity(&self) -> u64 {
        self.0.identity
    }

    /// The positions of the slots emptied under the current identity, in
    /// order.
    pub(crate) fn emptied(&self) -> &[u32] {
        &self.0.emptied
    }

    /// Adds a job: O(1) when its id is the highest seen (every fresh
    /// submission), a refill or mid-vector insert otherwise (a requeue),
    /// which renews the identity.
    ///
    /// # Panics
    /// If a job with the same id is already queued.
    pub fn push(&mut self, job: QueuedJob) {
        let s = Arc::make_mut(&mut self.0);
        s.live += 1;
        s.suppressors += usize::from(job.suppress_backfill_while_queued);
        if s.ids.last().is_none_or(|&last| last < job.id) {
            s.ids.push(job.id);
            s.jobs.push(Some(job));
            return;
        }
        match s.ids.binary_search(&job.id) {
            Ok(i) => {
                assert!(s.jobs[i].is_none(), "{}: already queued", job.id);
                s.jobs[i] = Some(job);
            }
            Err(i) => {
                s.ids.insert(i, job.id);
                s.jobs.insert(i, Some(job));
            }
        }
        s.renew();
    }

    /// Removes and returns the job `id`, if queued. O(log n) amortised:
    /// the slot is emptied in place and logged, and empty slots are swept
    /// together (renewing the identity) once they outnumber the queued
    /// jobs.
    pub fn remove(&mut self, id: JobId) -> Option<QueuedJob> {
        let i = self.0.ids.binary_search(&id).ok()?;
        // Checked before `make_mut`: a miss must not copy a shared set.
        self.0.jobs[i].as_ref()?;
        let s = Arc::make_mut(&mut self.0);
        let job = s.jobs[i].take().expect("checked above");
        s.live -= 1;
        s.suppressors -= usize::from(job.suppress_backfill_while_queued);
        if s.jobs.len() - s.live > s.live + SWEEP_SLACK {
            s.jobs.retain(Option::is_some);
            s.ids.clear();
            s.ids.extend(s.jobs.iter().flatten().map(|j| j.id));
            s.renew();
        } else {
            s.emptied.push(i as u32);
        }
        Some(job)
    }
}

impl PartialEq for QueuedSet {
    /// Equal iff the same jobs are queued (slot layout is not state).
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for QueuedSet {}

impl From<Vec<QueuedJob>> for QueuedSet {
    /// Takes the jobs in any order (ids must be distinct); a new identity.
    fn from(mut jobs: Vec<QueuedJob>) -> Self {
        jobs.sort_by_key(|q| q.id);
        debug_assert!(
            jobs.windows(2).all(|w| w[0].id < w[1].id),
            "duplicate job id in the queue"
        );
        QueuedSet(Arc::new(QueuedSlots::new(
            jobs.into_iter().map(Some).collect(),
        )))
    }
}

impl FromIterator<QueuedJob> for QueuedSet {
    fn from_iter<I: IntoIterator<Item = QueuedJob>>(iter: I) -> Self {
        iter.into_iter().collect::<Vec<_>>().into()
    }
}

/// Scheduler input for one iteration.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// The scheduling instant.
    pub now: SimTime,
    /// Total cores across up nodes.
    pub total_cores: u32,
    /// Jobs currently holding cores, in id order.
    pub running: RunningSet,
    /// Jobs waiting, in id order (the scheduler ranks them).
    pub queued: QueuedSet,
    /// Pending dynamic requests, in any order (the scheduler sorts by
    /// `seq`).
    pub dyn_requests: Vec<DynRequest>,
    /// Decayed resource-hour accounts valued at `now`, when the resource
    /// manager runs time-aware fairness (`None` keeps the static path
    /// byte-identical to a build without the feature).
    pub usage: Option<UsageSnapshot>,
    /// Running-set mutations since the previous snapshot, for the
    /// scheduler's incremental timeline ([`crate::incremental`]).
    /// `None` (a snapshot built outside the incremental protocol) simply
    /// forces a full profile rebuild — correctness never depends on it.
    pub deltas: Option<DeltaLog>,
}

impl Snapshot {
    /// Cores currently in use or exclusively reserved.
    pub fn busy_cores(&self) -> u32 {
        self.running
            .iter()
            .map(|r| r.cores + r.reserved_extra)
            .sum()
    }

    /// Cores currently idle.
    pub fn idle_cores(&self) -> u32 {
        self.total_cores.saturating_sub(self.busy_cores())
    }

    /// True iff any queued job suppresses backfill (the Z rule). O(1):
    /// the queue keeps the count.
    pub fn backfill_suppressed(&self) -> bool {
        self.queued.backfill_suppressors() > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_accounting() {
        let snap = Snapshot {
            now: SimTime::from_secs(0),
            total_cores: 120,
            running: vec![RunningJob {
                id: JobId(1),
                user: UserId(0),
                group: GroupId(0),
                cores: 50,
                start_time: SimTime::ZERO,
                walltime_end: SimTime::from_secs(100),
                backfilled: false,
                reserved_extra: 0,
                malleable: None,
            }]
            .into(),
            queued: QueuedSet::default(),
            dyn_requests: vec![],
            usage: None,
            deltas: None,
        };
        assert_eq!(snap.busy_cores(), 50);
        assert_eq!(snap.idle_cores(), 70);
        assert!(!snap.backfill_suppressed());
    }

    fn queued(id: u64, z: bool) -> QueuedJob {
        QueuedJob {
            id: JobId(id),
            user: UserId(0),
            group: GroupId(0),
            queue: QueueId(0),
            cores: 4,
            walltime: SimDuration::from_secs(100),
            submit_time: SimTime::ZERO,
            priority_boost: 0,
            suppress_backfill_while_queued: z,
            reserve_extra: 0,
            moldable: None,
        }
    }

    fn ids(set: &QueuedSet) -> Vec<u64> {
        set.iter().map(|q| q.id.0).collect()
    }

    #[test]
    fn queued_set_keeps_id_order_counts_and_slots() {
        let mut set: QueuedSet = vec![queued(5, false), queued(2, true), queued(9, false)].into();
        assert_eq!(ids(&set), vec![2, 5, 9]);
        assert_eq!((set.len(), set.backfill_suppressors()), (3, 1));
        // A departure empties its slot in place: later positions hold.
        assert_eq!(set.remove(JobId(2)).map(|q| q.id), Some(JobId(2)));
        assert_eq!(set.remove(JobId(2)), None);
        assert_eq!((set.len(), set.slots().len()), (2, 3));
        assert_eq!(set.backfill_suppressors(), 0);
        assert!(set.slots()[0].is_none() && set.get(JobId(2)).is_none());
        assert_eq!(set.slots()[2].as_ref().map(|q| q.id), Some(JobId(9)));
        // A requeue of the same id revives the slot; any other lower id
        // is inserted where it sorts.
        set.push(queued(2, true));
        set.push(queued(7, false));
        set.push(queued(11, false));
        assert_eq!(ids(&set), vec![2, 5, 7, 9, 11]);
        assert_eq!(set.get(JobId(7)).map(|q| q.id), Some(JobId(7)));
        assert_eq!(set.backfill_suppressors(), 1);
        // Equality is about the jobs queued, not the slot layout.
        let fresh: QueuedSet = (0..5)
            .map(|i| queued([2, 5, 7, 9, 11][i], i == 0))
            .collect();
        assert_eq!(set, fresh);
    }

    #[test]
    fn queued_set_sweeps_empty_slots_once_they_dominate() {
        let mut set: QueuedSet = (0..200).map(|i| queued(i, false)).collect();
        for i in 0..150 {
            set.remove(JobId(i));
            assert!(
                set.slots().len() <= 2 * set.len() + SWEEP_SLACK + 1,
                "slots stay within twice the queue"
            );
        }
        assert_eq!(set.len(), 50);
        assert!(set.slots().len() < 200, "swept at least once");
        assert_eq!(ids(&set), (150..200).collect::<Vec<_>>());
        assert_eq!(set.get(JobId(180)).map(|q| q.id), Some(JobId(180)));
    }

    #[test]
    fn the_identity_holds_through_appends_and_departures_only() {
        let mut set: QueuedSet = (1..=10).map(|i| queued(i, false)).collect();
        let first = set.identity();
        assert_ne!(
            first,
            QueuedSet::default().identity(),
            "every set is its own"
        );
        // Appends and departures keep the identity and log the emptied
        // slot positions, in order.
        set.push(queued(11, false));
        set.remove(JobId(4));
        set.remove(JobId(2));
        assert_eq!((set.identity(), set.emptied()), (first, &[3, 1][..]));
        // A refill of an emptied slot renews it and starts a new log…
        set.push(queued(4, false));
        let refilled = set.identity();
        assert!(refilled != first && set.emptied().is_empty());
        // …and so does an insert mid-vector.
        set.remove(JobId(9));
        set.push(queued(0, false));
        assert!(set.identity() != refilled && set.emptied().is_empty());
        // A copy shares the identity until one side mutates: that side
        // gets a new one, the other keeps its own.
        let shared = set.clone();
        let before = set.identity();
        assert_eq!(shared.identity(), before);
        set.remove(JobId(5));
        assert!(set.identity() != before && set.emptied() == [5]);
        assert_eq!(shared.identity(), before);
        // The same jobs in a set of their own: a new identity.
        let rebuilt: QueuedSet = set.iter().cloned().collect();
        assert!(rebuilt == set && rebuilt.identity() != set.identity());
        // A sweep moves slots: a new identity, and a log of what left
        // after it.
        let mut set: QueuedSet = (0..100).map(|i| queued(i, false)).collect();
        let unswept = set.identity();
        for i in 0..70 {
            set.remove(JobId(i));
        }
        assert!(set.slots().len() < 100, "swept");
        assert!(set.identity() != unswept && set.emptied().len() < 70);
        assert!(set
            .emptied()
            .iter()
            .all(|&pos| set.slots()[pos as usize].is_none()));
    }

    #[test]
    fn a_clone_of_a_set_is_not_changed_by_later_mutations() {
        let mut set: QueuedSet = vec![queued(1, false), queued(2, false)].into();
        let shared = set.clone();
        set.remove(JobId(1));
        set.push(queued(3, false));
        assert_eq!(ids(&shared), vec![1, 2]);
        assert_eq!(ids(&set), vec![2, 3]);

        let run = |id: u64| RunningJob {
            id: JobId(id),
            user: UserId(0),
            group: GroupId(0),
            cores: 2,
            start_time: SimTime::ZERO,
            walltime_end: SimTime::from_secs(100),
            backfilled: false,
            reserved_extra: 0,
            malleable: None,
        };
        let mut running: RunningSet = vec![run(4), run(1)].into();
        let shared = running.clone();
        running.push(run(3));
        running.get_mut(JobId(4)).unwrap().cores = 8;
        assert_eq!(running.remove(JobId(1)).map(|r| r.id), Some(JobId(1)));
        let view = |s: &RunningSet| s.iter().map(|r| (r.id.0, r.cores)).collect::<Vec<_>>();
        assert_eq!(view(&shared), vec![(1, 2), (4, 2)]);
        assert_eq!(view(&running), vec![(3, 2), (4, 8)]);
        assert!(running.get(JobId(1)).is_none());
    }

    #[test]
    fn z_suppression() {
        let snap = Snapshot {
            now: SimTime::ZERO,
            total_cores: 120,
            running: RunningSet::default(),
            queued: vec![QueuedJob {
                id: JobId(9),
                user: UserId(9),
                group: GroupId(0),
                queue: QueueId(0),
                cores: 120,
                walltime: SimDuration::from_secs(100),
                submit_time: SimTime::ZERO,
                priority_boost: 1_000_000,
                suppress_backfill_while_queued: true,
                reserve_extra: 0,
                moldable: None,
            }]
            .into(),
            dyn_requests: vec![],
            usage: None,
            deltas: None,
        };
        assert!(snap.backfill_suppressed());
    }
}
