//! Property test pinning [`EventQueue`]'s observable semantics — FIFO
//! tie-break at equal timestamps, lazy cancellation, clock advancement,
//! and the batched `pop_group_into` / `drain_until` fast paths — against
//! a naive sorted-Vec reference model over random operation
//! interleavings.
//!
//! The model stores every scheduled event in issue order and answers each
//! query by scanning for the minimum `(time, issue index)` among live
//! entries; issue index equals the queue's tie-breaking sequence number,
//! so any divergence in ordering, liveness accounting or clock state
//! between the two implementations fails the run. Times are drawn from a
//! deliberately tiny domain so timestamp collisions (the FIFO-tie-break
//! regime) and cancellations of already-buried entries (the
//! lazy-cancellation regime) both occur constantly.
//!
//! Further suites pin what the O(1) `peek_time` and the recycled slot
//! table rest on: cancellation-heavy schedules (most events cancelled,
//! the top cancelled on purpose, tokens cancelled after their event
//! fired) never leave a cancelled entry visible at the top; a stale
//! token cannot cancel the event that reuses its slot; and the slot table
//! is bounded by the peak number of
//! concurrently pending events, not by the number ever scheduled.

use dynbatch_core::testkit::{check, TestRng};
use dynbatch_core::SimTime;
use dynbatch_simtime::{EventQueue, ScheduledEvent, Token};

/// One scheduled event as the reference model sees it. The issue index
/// doubles as the expected sequence number and the payload.
struct ModelEvent {
    at: SimTime,
    alive: bool,
}

/// Naive reference: a flat Vec in issue order, scanned on every query.
#[derive(Default)]
struct Model {
    events: Vec<ModelEvent>,
    now: SimTime,
}

impl Model {
    fn live_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.alive)
            .map(|(i, _)| i)
    }

    fn len(&self) -> usize {
        self.live_indices().count()
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.live_indices().map(|i| self.events[i].at).min()
    }

    fn schedule(&mut self, at: SimTime) -> usize {
        self.events.push(ModelEvent { at, alive: true });
        self.events.len() - 1
    }

    fn cancel(&mut self, idx: usize) -> bool {
        let was_alive = self.events[idx].alive;
        self.events[idx].alive = false;
        was_alive
    }

    /// Earliest live event by `(time, issue index)` — the contract's
    /// FIFO tie-break, computed the obvious quadratic way.
    fn pop(&mut self) -> Option<(SimTime, usize)> {
        let idx = self
            .live_indices()
            .min_by_key(|&i| (self.events[i].at, i))?;
        self.events[idx].alive = false;
        self.now = self.events[idx].at;
        Some((self.events[idx].at, idx))
    }

    fn pop_group(&mut self) -> Option<(SimTime, Vec<usize>)> {
        let at = self.peek_time()?;
        let group: Vec<usize> = self
            .live_indices()
            .filter(|&i| self.events[i].at == at)
            .collect();
        for &i in &group {
            self.events[i].alive = false;
        }
        self.now = at;
        Some((at, group))
    }

    fn drain_until(&mut self, limit: SimTime) -> Vec<(SimTime, usize)> {
        let mut due: Vec<(SimTime, usize)> = self
            .live_indices()
            .filter(|&i| self.events[i].at <= limit)
            .map(|i| (self.events[i].at, i))
            .collect();
        due.sort();
        for &(at, i) in &due {
            self.events[i].alive = false;
            self.now = at;
        }
        due
    }
}

fn assert_events_match(got: &[ScheduledEvent<usize>], want: &[(SimTime, usize)]) {
    let got: Vec<(SimTime, usize)> = got.iter().map(|e| (e.at, e.payload)).collect();
    assert_eq!(got, want, "popped events diverged from reference model");
    // Payload was chosen to equal the issue index, which must also equal
    // the tie-breaking sequence number the queue reports.
}

#[test]
fn queue_matches_sorted_vec_model() {
    check(64, 0xE0_51, |rng: &mut TestRng| {
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut model = Model::default();
        let mut tokens: Vec<Token> = Vec::new();
        let mut group = Vec::new();

        for _ in 0..120 {
            match rng.below(10) {
                // Schedule (weighted heaviest so the queue stays busy).
                0..=3 => {
                    // Tiny time domain: collisions are the common case.
                    let at = q.now() + dynbatch_core::SimDuration::from_secs(rng.below(6));
                    let idx = model.schedule(at);
                    tokens.push(q.schedule(at, idx));
                }
                // Cancel a random token — possibly already popped or
                // already cancelled, exercising the `false` path.
                4..=5 => {
                    if !tokens.is_empty() {
                        let idx = rng.below(tokens.len() as u64) as usize;
                        assert_eq!(q.cancel(tokens[idx]), model.cancel(idx));
                    }
                }
                6 => {
                    let got = q.pop();
                    let want = model.pop();
                    match (got, want) {
                        (None, None) => {}
                        (Some(e), Some((at, idx))) => {
                            assert_eq!((e.at, e.payload), (at, idx));
                            assert_eq!(e.seq, idx as u64, "seq must be issue order");
                        }
                        (got, want) => panic!("pop diverged: {got:?} vs {want:?}"),
                    }
                }
                7 => {
                    let got_time = q.pop_group_into(&mut group);
                    match (got_time, model.pop_group()) {
                        (None, None) => assert!(group.is_empty()),
                        (Some(at), Some((want_at, idxs))) => {
                            assert_eq!(at, want_at);
                            let want: Vec<(SimTime, usize)> =
                                idxs.into_iter().map(|i| (want_at, i)).collect();
                            assert_events_match(&group, &want);
                        }
                        (got, want) => panic!("pop_group diverged: {got:?} vs {want:?}"),
                    }
                }
                8 => {
                    let limit = q.now() + dynbatch_core::SimDuration::from_secs(rng.below(8));
                    q.drain_until(limit, &mut group);
                    let want = model.drain_until(limit);
                    assert_events_match(&group, &want);
                }
                _ => {
                    assert_eq!(q.peek_time(), model.peek_time());
                }
            }
            // Invariants checked after every single operation.
            assert_eq!(q.len(), model.len());
            assert_eq!(q.is_empty(), model.len() == 0);
            assert_eq!(q.now(), model.now);
            assert_eq!(q.peek_time(), model.peek_time());
        }

        // Drain both to the end: total order must match exactly.
        while let Some((at, idx)) = model.pop() {
            let e = q.pop().expect("queue drained before model");
            assert_eq!((e.at, e.payload, e.seq), (at, idx, idx as u64));
        }
        assert!(q.pop().is_none());
    });
}

#[test]
fn cancellation_heavy_schedules_keep_peek_exact() {
    check(48, 0xCA_9CE1, |rng: &mut TestRng| {
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut model = Model::default();
        let mut tokens: Vec<Token> = Vec::new();
        let mut cancelled = 0usize;
        let agree = |q: &EventQueue<usize>, model: &Model| {
            assert_eq!(q.peek_time(), model.peek_time());
            assert_eq!(q.len(), model.len());
        };

        for _ in 0..30 {
            // A burst, then cancel well over half of what is pending —
            // always including the current top.
            for _ in 0..rng.range_usize(2, 12) {
                let at = q.now() + dynbatch_core::SimDuration::from_secs(rng.below(20));
                let idx = model.schedule(at);
                tokens.push(q.schedule(at, idx));
                agree(&q, &model);
            }
            let pending: Vec<usize> = model.live_indices().collect();
            let top = pending
                .iter()
                .copied()
                .min_by_key(|&i| (model.events[i].at, i))
                .expect("burst scheduled something");
            for idx in std::iter::once(top).chain(pending) {
                if idx == top || rng.chance(0.7) {
                    let was_pending = model.cancel(idx);
                    assert_eq!(q.cancel(tokens[idx]), was_pending);
                    cancelled += was_pending as usize;
                    agree(&q, &model);
                }
            }
            // Pop a little; a token cancelled after its event fired is
            // dead and must leave the new top alone.
            for _ in 0..rng.below(3) {
                let Some((at, idx)) = model.pop() else { break };
                let e = q.pop().expect("model had an event");
                assert_eq!((e.at, e.payload), (at, idx));
                assert!(!q.cancel(tokens[idx]), "cancel after pop");
                agree(&q, &model);
            }
        }
        assert!(
            cancelled * 2 >= tokens.len(),
            "only {cancelled} of {} events were cancelled",
            tokens.len()
        );
        while let Some((at, idx)) = model.pop() {
            let e = q.pop().expect("queue drained before model");
            assert_eq!((e.at, e.payload), (at, idx));
            agree(&q, &model);
        }
        assert!(q.pop().is_none());
    });
}

#[test]
fn stale_token_cannot_cancel_the_slot_s_next_tenant() {
    // The pinned case first: one slot, four tenants.
    let at = SimTime::from_secs(1);
    let mut q: EventQueue<&str> = EventQueue::new();
    let popped = q.schedule(at, "popped");
    q.pop();
    let cancelled = q.schedule(at, "cancelled");
    assert!(q.cancel(cancelled));
    let third = q.schedule(at, "third");
    assert_eq!(q.slot_capacity(), 1, "all three shared one slot");
    assert!(!q.cancel(popped) && !q.cancel(cancelled));
    assert_eq!(q.len(), 1);
    assert_eq!(q.pop().map(|e| e.payload), Some("third"));
    let survivor = q.schedule(at, "survivor");
    assert_eq!(q.slot_capacity(), 1);
    for stale in [popped, cancelled, third] {
        assert!(!q.cancel(stale), "stale token cancelled its successor");
    }
    assert_eq!(q.pop().map(|e| e.payload), Some("survivor"));
    assert!(!q.cancel(survivor));

    // Then at random: every token ever issued is retried all the time;
    // only a token whose own event is still pending may succeed.
    check(32, 0x57A1E, |rng: &mut TestRng| {
        let mut q: EventQueue<usize> = EventQueue::new();
        // (token, its event still pending), indexed by payload.
        let mut issued: Vec<(Token, bool)> = Vec::new();
        for _ in 0..400 {
            match rng.below(7) {
                0..=2 => {
                    let at = q.now() + dynbatch_core::SimDuration::from_secs(rng.below(5));
                    issued.push((q.schedule(at, issued.len()), true));
                }
                3..=4 => {
                    if let Some(e) = q.pop() {
                        assert!(issued[e.payload].1, "popped a dead event");
                        issued[e.payload].1 = false;
                    }
                }
                _ => {
                    if !issued.is_empty() {
                        let i = rng.range_usize(0, issued.len());
                        assert_eq!(q.cancel(issued[i].0), issued[i].1);
                        issued[i].1 = false;
                    }
                }
            }
            assert_eq!(q.len(), issued.iter().filter(|(_, p)| *p).count());
        }
    });
}

#[test]
fn slot_table_is_bounded_by_concurrently_pending_events() {
    // A million events through a queue that never holds many at once,
    // cancellations (of buried, fired and already-cancelled events) mixed
    // in: the table stays at the peak occupancy instead of gaining an
    // entry per schedule.
    let mut rng = TestRng::from_seed(0x51_07);
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut tokens: std::collections::VecDeque<Token> = Default::default();
    let mut peak_pending = 0;
    let mut scheduled = 0u32;
    while scheduled < 1_000_000 {
        for _ in 0..rng.range(1, 40) {
            let at = q.now() + dynbatch_core::SimDuration::from_millis(rng.below(5_000));
            tokens.push_back(q.schedule(at, scheduled));
            scheduled += 1;
        }
        peak_pending = peak_pending.max(q.len());
        while q.len() > 64 || (rng.chance(0.6) && !q.is_empty()) {
            if rng.chance(0.33) {
                // Oldest outstanding token: buried, fired or cancelled.
                if let Some(tok) = tokens.pop_front() {
                    q.cancel(tok);
                }
            } else {
                q.pop();
            }
        }
        if tokens.len() > 256 {
            tokens.drain(..128);
        }
        assert!(q.slot_capacity() <= peak_pending);
    }
    assert!(peak_pending <= 64 + 40);
    assert!(
        q.slot_capacity() <= peak_pending,
        "{} slots for at most {peak_pending} concurrently pending events",
        q.slot_capacity()
    );
}
