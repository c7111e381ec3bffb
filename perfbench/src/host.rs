//! Facts about the machine a result came from (core count, compiler, a
//! calibration score), and a heap-counting allocator.
//!
//! The calibration score is the throughput of a fixed in-process loop
//! shaped like the simulator's event core (a binary-heap priority queue
//! fed by a PRNG). It lets two results from different machines, or from
//! one shared machine under different load, be told apart before anyone
//! compares them, and the untraced run scales its host times by it (see
//! [`REFERENCE_MOPS`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Version of the compiler that built the benchmark.
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC_VERSION")
}

/// Calibration score of the 2-core box the bounds in `BENCHMARK.json`
/// were set on, in a typical state. Host times in the untraced run are
/// reported at this score: multiplied by the run's median score over
/// this reference. On a shared machine whose speed drifts by up to 40%
/// for minutes at a time, this cancels part of the drift (the loop
/// slows by 12–18% when the simulator slows by 35%), where a raw time
/// would swing with it.
pub const REFERENCE_MOPS: f64 = 16.0;

/// Push+pop pairs in one calibration pass (about 10 ms).
const CALIBRATION_OPS: u64 = 200_000;
/// Steady size of the calibration heap (the order of the hot path's
/// pending-event depth).
const CALIBRATION_DEPTH: usize = 4_096;

/// Calibration score: millions of heap push+pop pairs per second over a
/// fixed PRNG-driven loop, best of three passes.
pub fn calibration_score() -> f64 {
    (0..3).map(|_| calibration_pass()).fold(0.0, f64::max)
}

/// One calibration pass, in millions of push+pop pairs per second.
pub fn calibration_pass() -> f64 {
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut heap = BinaryHeap::with_capacity(CALIBRATION_DEPTH + 1);
    for _ in 0..CALIBRATION_DEPTH {
        heap.push(Reverse(next() >> 20));
    }
    let start = Instant::now();
    let mut sink = 0u64;
    for _ in 0..CALIBRATION_OPS {
        let Reverse(t) = heap.pop().expect("calibration heap is never empty");
        sink = sink.wrapping_add(t);
        heap.push(Reverse(t + (next() >> 44)));
    }
    black_box(sink);
    CALIBRATION_OPS as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// Live heap bytes of this process.
static HEAP_LIVE: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`HEAP_LIVE`] since the last [`reset_heap_peak`].
static HEAP_PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live heap bytes and their high-water
/// mark. The counters publish no other data, so `Relaxed` suffices.
pub struct CountingAlloc;

impl CountingAlloc {
    fn grew(size: usize) {
        let live = HEAP_LIVE.fetch_add(size, Ordering::Relaxed) + size;
        if live > HEAP_PEAK.load(Ordering::Relaxed) {
            HEAP_PEAK.fetch_max(live, Ordering::Relaxed);
        }
    }

    fn shrank(size: usize) {
        HEAP_LIVE.fetch_sub(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System` upholds the `GlobalAlloc` contract; the
// bookkeeping around each call only updates two atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller guarantees `layout`
        // has non-zero size.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            Self::grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            Self::grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        Self::shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout` and that `new_size` is valid for its alignment.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            Self::grew(new_size);
            Self::shrank(layout.size());
        }
        new
    }
}

/// Start a new heap high-water mark from the current live bytes.
pub fn reset_heap_peak() {
    HEAP_PEAK.store(HEAP_LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Heap high-water mark since the last [`reset_heap_peak`], in MiB
/// (0 unless [`CountingAlloc`] is the global allocator).
pub fn heap_peak_mib() -> f64 {
    HEAP_PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_facts_are_plausible() {
        assert!(nproc() >= 1);
        assert!(!rustc_version().is_empty());
        assert!(calibration_score() > 0.0);
    }
}
