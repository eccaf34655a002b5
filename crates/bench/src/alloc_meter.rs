//! A counting global allocator for peak-memory benchmarks.
//!
//! Wraps the system allocator with two relaxed atomics: live bytes and
//! the high-water mark. Zero dependencies, negligible overhead, and —
//! unlike RSS sampling — deterministic and immune to allocator caching,
//! so the `ingest` section of `BENCH_sched.json` can assert a memory
//! *ratio* rather than eyeball a noisy number.
//!
//! [`TallyingAlloc`] is the same allocator plus, per thread, the number
//! and bytes of the allocations made — what lets `deep_queue` state a
//! cycle's heap traffic as an exact count. It is a type of its own
//! because the repo benchmark installs [`CountingAlloc`] too: with the
//! tally inside it (two more atomics, or even two thread-local cells, on
//! every allocation) the benchmark's allocation-bound metrics read
//! 5–20 % worse (`setup_s`, `recover_ms_p50`) for counts it never reads.
//!
//! Installing one is the binary's choice:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: dynbatch_bench::alloc_meter::CountingAlloc =
//!     dynbatch_bench::alloc_meter::CountingAlloc;
//! ```
//!
//! The workload/sim/server crates all `forbid(unsafe_code)`; the two
//! `unsafe` blocks below are pure delegation to [`System`] and live only
//! in this measurement crate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator plus live/peak byte counters.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            let old = layout.size();
            if new_size >= old {
                let live = LIVE.fetch_add(new_size - old, Ordering::Relaxed) + (new_size - old);
                PEAK.fetch_max(live, Ordering::Relaxed);
            } else {
                LIVE.fetch_sub(old - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// High-water mark since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Rebases the high-water mark to the current live bytes and returns the
/// live level — call before the section whose peak is being measured.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers anything.
    static ALLOCATED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// [`CountingAlloc`] that also tallies the calling thread's allocations
/// ([`allocated`]).
pub struct TallyingAlloc;

impl TallyingAlloc {
    /// Counts one allocation of `bytes` (for a `realloc`, the growth).
    fn tally(bytes: usize) {
        // `try_with`: a thread being torn down may still allocate.
        let _ = ALLOCATED.try_with(|a| {
            let (calls, total) = a.get();
            a.set((calls + 1, total + bytes));
        });
    }
}

unsafe impl GlobalAlloc for TallyingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::tally(layout.size());
        unsafe { CountingAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { CountingAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::tally(new_size.saturating_sub(layout.size()));
        unsafe { CountingAlloc.realloc(ptr, layout, new_size) }
    }
}

/// Allocations the calling thread has made under [`TallyingAlloc`], as
/// `(calls, bytes)`: every `alloc` and `realloc`, a `realloc` counting
/// the bytes it grew by. Take the difference around the code under
/// measurement.
pub fn allocated() -> (usize, usize) {
    ALLOCATED.with(Cell::get)
}
