//! The deterministic event queue.

use dynbatch_core::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A handle to a scheduled event, usable for cancellation.
///
/// Names a slot of the queue's pending-event table plus the generation
/// the slot had when the event was scheduled. Slots are recycled; a token
/// whose event already fired or was cancelled carries a stale generation
/// and cancels nothing.
/// (Generations are 32-bit and wrap: a stale token could only alias after
/// exactly 2³² reuses of its one slot.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token {
    slot: u32,
    gen: u32,
}

/// An event as stored in the queue.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Tie-breaking sequence number (insertion order).
    pub seq: u64,
    /// The payload.
    pub payload: E,
}

struct HeapEntry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
    /// The slot and generation this entry was scheduled under; it is
    /// still pending iff the slot's current generation matches.
    token: Token,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. seq breaks time ties by insertion order, which makes the
        // whole simulation deterministic.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list.
///
/// Events fire in `(time, insertion sequence)` order. Cancellation is
/// lazy for buried entries — the heap entry stays until it surfaces — but
/// **the heap top is never a cancelled entry**: `cancel` and every pop
/// discard cancelled entries that reach the top, so
/// [`EventQueue::peek_time`] is a plain O(1) peek.
///
/// Pending events occupy recycled slots of a generation table: a slot is
/// freed (generation bumped) the moment its event is popped or cancelled,
/// so the table is bounded by the peak number of *concurrently pending*
/// events, not by the number ever scheduled.
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    /// Current generation per slot.
    gens: Vec<u32>,
    /// Slots holding no pending event.
    free: Vec<u32>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            gens: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current virtual time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.gens.len() - self.free.len()
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the slot table: the peak number of concurrently pending
    /// events since construction (it never shrinks).
    pub fn slot_capacity(&self) -> usize {
        self.gens.len()
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    /// If `at` is in the past (before the last popped event's time):
    /// causality violations are always bugs.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> Token {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.free.pop().unwrap_or_else(|| {
            let slot = u32::try_from(self.gens.len()).expect("under 2^32 pending events");
            self.gens.push(0);
            slot
        });
        let token = Token {
            slot,
            gen: self.gens[slot as usize],
        };
        self.heap.push(HeapEntry {
            at,
            seq,
            payload,
            token,
        });
        token
    }

    fn is_pending(&self, token: Token) -> bool {
        self.gens.get(token.slot as usize) == Some(&token.gen)
    }

    /// Frees a pending event's slot; every outstanding copy of its token
    /// (the caller's and the heap entry's) goes stale.
    fn release(&mut self, token: Token) {
        let gen = &mut self.gens[token.slot as usize];
        *gen = gen.wrapping_add(1);
        self.free.push(token.slot);
    }

    /// Restores the invariant that the heap top is pending.
    fn prune_top(&mut self) {
        while self.heap.peek().is_some_and(|e| !self.is_pending(e.token)) {
            self.heap.pop();
        }
    }

    /// Cancels a previously scheduled event. Returns `true` if the event
    /// was still pending.
    pub fn cancel(&mut self, token: Token) -> bool {
        if !self.is_pending(token) {
            return false;
        }
        self.release(token);
        self.prune_top();
        true
    }

    /// Pops the next live event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let entry = self.heap.pop()?;
        debug_assert!(self.is_pending(entry.token), "heap top was cancelled");
        debug_assert!(entry.at >= self.now);
        self.release(entry.token);
        self.prune_top();
        self.now = entry.at;
        Some(ScheduledEvent {
            at: entry.at,
            seq: entry.seq,
            payload: entry.payload,
        })
    }

    /// Pops **all** live events sharing the earliest pending timestamp
    /// into `out` (cleared first), in insertion-sequence order, and
    /// advances the clock to that timestamp. Returns the group's time, or
    /// `None` when the queue is drained.
    pub fn pop_group_into(&mut self, out: &mut Vec<ScheduledEvent<E>>) -> Option<SimTime> {
        out.clear();
        let at = self.peek_time()?;
        self.drain_until(at, out);
        Some(at)
    }

    /// Pops all live events with time ≤ `limit` into `out` (cleared
    /// first), in `(time, insertion sequence)` order, advancing the clock
    /// to the last popped event's time. Events scheduled after `limit`
    /// stay queued.
    pub fn drain_until(&mut self, limit: SimTime, out: &mut Vec<ScheduledEvent<E>>) {
        out.clear();
        while self.peek_time().is_some_and(|at| at <= limit) {
            out.extend(self.pop());
        }
    }

    /// The time of the next live event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn fires_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(5), "c");
        q.schedule(t(1), "a");
        q.schedule(t(3), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion() {
        let mut q = EventQueue::new();
        q.schedule(t(1), 1);
        q.schedule(t(1), 2);
        q.schedule(t(1), 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn clock_advances() {
        let mut q = EventQueue::new();
        q.schedule(t(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), t(7));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn past_scheduling_panics() {
        let mut q = EventQueue::new();
        q.schedule(t(5), ());
        q.pop();
        q.schedule(t(1), ());
    }

    #[test]
    fn cancellation() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().payload, "b");
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert_eq!(q.peek_time(), Some(t(1)));
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2)));
        q.pop();
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn same_time_scheduling_during_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(1), 1);
        let e = q.pop().unwrap();
        assert_eq!(e.payload, 1);
        // Scheduling at the current instant is allowed (zero-delay events).
        q.schedule(q.now(), 2);
        assert_eq!(q.pop().unwrap().payload, 2);
    }

    #[test]
    fn pop_group_collects_one_timestamp_in_seq_order() {
        let mut q = EventQueue::new();
        q.schedule(t(2), "late");
        q.schedule(t(1), "a");
        q.schedule(t(1), "b");
        let c = q.schedule(t(1), "c");
        q.schedule(t(1), "d");
        q.cancel(c);
        let mut buf = Vec::new();
        assert_eq!(q.pop_group_into(&mut buf), Some(t(1)));
        let got: Vec<_> = buf.iter().map(|e| e.payload).collect();
        assert_eq!(got, vec!["a", "b", "d"], "seq order, cancelled skipped");
        assert_eq!(q.now(), t(1));
        assert_eq!(q.pop_group_into(&mut buf), Some(t(2)));
        assert_eq!(buf.len(), 1);
        assert_eq!(q.pop_group_into(&mut buf), None);
        assert!(buf.is_empty(), "drained pop_group clears the buffer");
    }

    #[test]
    fn pop_group_leaves_later_events_live() {
        let mut q = EventQueue::new();
        q.schedule(t(1), 1);
        q.schedule(t(1), 2);
        q.schedule(t(5), 3);
        let mut buf = Vec::new();
        q.pop_group_into(&mut buf);
        assert_eq!(q.len(), 1);
        // Zero-delay events scheduled mid-group land in a *new* group at
        // the same instant — exactly what the pop-then-peek loop did.
        q.schedule(t(1), 4);
        assert_eq!(q.pop_group_into(&mut buf), Some(t(1)));
        assert_eq!(buf[0].payload, 4);
    }

    #[test]
    fn drain_until_respects_limit_and_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3), "c");
        q.schedule(t(1), "a");
        let b = q.schedule(t(2), "b");
        q.schedule(t(2), "b2");
        q.schedule(t(9), "z");
        q.cancel(b);
        let mut buf = Vec::new();
        q.drain_until(t(3), &mut buf);
        let got: Vec<_> = buf.iter().map(|e| e.payload).collect();
        assert_eq!(got, vec!["a", "b2", "c"]);
        assert_eq!(q.now(), t(3));
        assert_eq!(q.len(), 1);
        q.drain_until(t(3), &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn interleaved_schedule_pop_is_deterministic() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 0);
        q.schedule(t(20), 1);
        let mut fired = Vec::new();
        while let Some(e) = q.pop() {
            fired.push(e.payload);
            if e.payload == 0 {
                q.schedule(t(15), 2);
                q.schedule(t(15), 3);
            }
        }
        assert_eq!(fired, vec![0, 2, 3, 1]);
    }
}
