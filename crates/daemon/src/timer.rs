//! A cancellable deadline service: one worker thread, a binary heap of
//! deadlines, generation-tagged payloads.
//!
//! The fault postman ([`crate::fault`]) delivers its delayed and
//! duplicated messages through it: owners schedule a payload for a
//! deadline and get a [`TimerId`] back; firings are delivered in deadline
//! order (ties broken by schedule order) to a single sink; cancelled
//! entries never fire; the one worker thread is joined on shutdown (or on
//! drop), so an ensemble leaves zero live threads behind. (The server's
//! own deadlines are not here: they are events of its event core.)
//!
//! Determinism contract: for a fixed set of `schedule` calls, the firing
//! *order* is a pure function of (deadline, schedule sequence). Wall-clock
//! jitter can shift *when* a payload fires, never *whether* or in what
//! order relative to other due payloads.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Identifies one scheduled firing; pass to [`TimerHandle::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

enum TimerCmd<T> {
    Schedule { id: u64, at: Instant, payload: T },
    Cancel(u64),
    Shutdown,
}

/// A cloneable scheduling endpoint of a [`TimerService`].
#[derive(Debug)]
pub struct TimerHandle<T> {
    tx: Sender<TimerCmd<T>>,
    next_id: Arc<AtomicU64>,
}

// Derived `Clone` would require `T: Clone`; the handle never clones
// payloads.
impl<T> Clone for TimerHandle<T> {
    fn clone(&self) -> Self {
        TimerHandle {
            tx: self.tx.clone(),
            next_id: Arc::clone(&self.next_id),
        }
    }
}

impl<T: Send + 'static> TimerHandle<T> {
    /// Schedules `payload` to be delivered to the sink `after` from now.
    pub fn schedule(&self, after: Duration, payload: T) -> TimerId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let _ = self.tx.send(TimerCmd::Schedule {
            id,
            at: Instant::now() + after,
            payload,
        });
        TimerId(id)
    }

    /// Cancels a scheduled firing. A no-op if it already fired.
    pub fn cancel(&self, id: TimerId) {
        let _ = self.tx.send(TimerCmd::Cancel(id.0));
    }
}

/// The service: owns the worker thread. Dropping (or calling
/// [`TimerService::shutdown`]) stops and **joins** the worker; payloads
/// still pending are discarded.
#[derive(Debug)]
pub struct TimerService<T: Send + 'static> {
    handle: TimerHandle<T>,
    worker: Option<JoinHandle<()>>,
}

impl<T: Send + 'static> TimerService<T> {
    /// Starts the worker thread (named `name`); every due payload is
    /// passed to `sink` on that thread.
    pub fn start(name: &str, sink: impl FnMut(T) + Send + 'static) -> Self {
        let (tx, rx) = channel();
        let worker = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || worker_main(rx, sink))
            .expect("spawn timer worker");
        TimerService {
            handle: TimerHandle {
                tx,
                next_id: Arc::new(AtomicU64::new(0)),
            },
            worker: Some(worker),
        }
    }

    /// A cloneable scheduling endpoint.
    pub fn handle(&self) -> TimerHandle<T> {
        self.handle.clone()
    }

    /// Stops the worker and joins it. Pending payloads never fire.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(worker) = self.worker.take() {
            let _ = self.handle.tx.send(TimerCmd::Shutdown);
            let _ = worker.join();
        }
    }
}

impl<T: Send + 'static> Drop for TimerService<T> {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_main<T>(rx: Receiver<TimerCmd<T>>, mut sink: impl FnMut(T)) {
    // Min-heap on (deadline, schedule id): id is monotonic, so ties fire
    // in schedule order. Cancellation removes the payload; the heap entry
    // is skipped lazily when popped.
    let mut heap: BinaryHeap<Reverse<(Instant, u64)>> = BinaryHeap::new();
    let mut payloads: HashMap<u64, T> = HashMap::new();
    loop {
        let now = Instant::now();
        while let Some(&Reverse((at, id))) = heap.peek() {
            if at > now {
                break;
            }
            heap.pop();
            if let Some(p) = payloads.remove(&id) {
                sink(p);
            }
        }
        let cmd = match heap.peek() {
            Some(&Reverse((at, _))) => {
                match rx.recv_timeout(at.saturating_duration_since(Instant::now())) {
                    Ok(cmd) => cmd,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            None => match rx.recv() {
                Ok(cmd) => cmd,
                Err(_) => break,
            },
        };
        match cmd {
            TimerCmd::Schedule { id, at, payload } => {
                heap.push(Reverse((at, id)));
                payloads.insert(id, payload);
            }
            TimerCmd::Cancel(id) => {
                payloads.remove(&id);
            }
            TimerCmd::Shutdown => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn fires_in_deadline_order() {
        let (tx, rx) = channel();
        let svc = TimerService::start("t.order", move |v: u32| {
            let _ = tx.send(v);
        });
        let h = svc.handle();
        h.schedule(Duration::from_millis(60), 3);
        h.schedule(Duration::from_millis(10), 1);
        h.schedule(Duration::from_millis(30), 2);
        let got: Vec<u32> = (0..3)
            .map(|_| rx.recv_timeout(Duration::from_secs(2)).expect("firing"))
            .collect();
        assert_eq!(got, vec![1, 2, 3]);
        svc.shutdown();
    }

    #[test]
    fn equal_deadlines_fire_in_schedule_order() {
        let (tx, rx) = channel();
        let svc = TimerService::start("t.ties", move |v: u32| {
            let _ = tx.send(v);
        });
        let h = svc.handle();
        let at = Duration::from_millis(20);
        for v in 0..5u32 {
            h.schedule(at, v);
        }
        let got: Vec<u32> = (0..5)
            .map(|_| rx.recv_timeout(Duration::from_secs(2)).expect("firing"))
            .collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        svc.shutdown();
    }

    #[test]
    fn cancelled_entries_never_fire() {
        let (tx, rx) = channel();
        let svc = TimerService::start("t.cancel", move |v: u32| {
            let _ = tx.send(v);
        });
        let h = svc.handle();
        let doomed = h.schedule(Duration::from_millis(30), 99);
        h.schedule(Duration::from_millis(50), 7);
        h.cancel(doomed);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(2)).expect("survivor"),
            7
        );
        assert!(rx.try_recv().is_err(), "cancelled payload leaked through");
        svc.shutdown();
    }

    #[test]
    fn shutdown_joins_and_discards_pending() {
        let (tx, rx) = channel();
        let svc = TimerService::start("t.down", move |v: u32| {
            let _ = tx.send(v);
        });
        svc.handle().schedule(Duration::from_secs(600), 1);
        svc.shutdown(); // returns promptly despite the far deadline
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn drop_also_joins() {
        let svc: TimerService<u32> = TimerService::start("t.drop", |_| {});
        svc.handle().schedule(Duration::from_secs(600), 1);
        drop(svc); // must not hang
    }
}
