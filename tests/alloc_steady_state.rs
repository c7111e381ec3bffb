//! Steady-state allocation gate for the data-oriented hot path.
//!
//! The slab refactor's claim is not just "fewer allocations" but
//! *zero* heap traffic once the system reaches steady state: every
//! player/host/flow structure lives in a preallocated slab, event
//! payloads are inline (no `Box<Segment>`), and the path cache is
//! computed at join time. This test pins that claim with a counting
//! global allocator: run a mid-size CloudFog/A simulation to a
//! post-warm-up split, snapshot the allocation counter, run to the
//! horizon, and assert the counter did not move.
//!
//! The split sits well past the join ramp so every slab, sender
//! buffer, event-queue key heap, payload slab and free list, and
//! `update_feeds` entry is warm. Only allocations are counted
//! (deallocs/frees are not) — a steady state that frees memory it then
//! re-acquires would still fail, which is exactly the churn the
//! refactor forbids.
//!
//! The counter is process-wide, so the tests in this file take
//! [`SERIAL`] for their whole run: a test running beside a measured
//! window would otherwise add its own allocations to it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use cloudfog::core::systems::{
    ShardedSim, ShardedSimConfig, StreamingSim, StreamingSimConfig, SystemKind,
};
use cloudfog::sim::time::{SimDuration, SimTime};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates everything to `System`; the counter is a relaxed
// atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Held by each test for its whole run, so no two counting windows
/// overlap under the default parallel test runner.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A panicking test poisons the lock; the next test still runs alone.
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn config() -> StreamingSimConfig {
    StreamingSimConfig::builder(SystemKind::CloudFogA)
        .players(200)
        .seed(11)
        .ramp(SimDuration::from_secs(5))
        .horizon(SimDuration::from_secs(25))
        .build()
}

#[test]
fn steady_state_hot_path_does_not_allocate() {
    let _serial = serial();
    // Split at 10 s: the ramp ends at 5 s and measurement starts at
    // 7.5 s, so by 10 s every player is joined, every sender exists,
    // and per-flow state has been exercised at least once.
    let split = SimTime::ZERO + SimDuration::from_secs(10);

    let mut snapshots: Vec<u64> = Vec::with_capacity(2);
    let summary = StreamingSim::run_split(config(), split, &mut || {
        snapshots.push(ALLOCS.load(Ordering::Relaxed));
    });

    assert_eq!(snapshots.len(), 2, "probe fires at the split and at the horizon");
    let during_steady_state = snapshots[1] - snapshots[0];
    assert_eq!(
        during_steady_state, 0,
        "steady-state window (10 s → 25 s) allocated {during_steady_state} times; \
         the slab hot path must not touch the heap after warm-up"
    );

    // The phased driver must not change behavior: same config through
    // the ordinary entry point gives a bit-identical summary.
    let single = StreamingSim::run(config());
    assert_eq!(
        format!("{summary:?}"),
        format!("{single:?}"),
        "run_split drifted from run on the same config"
    );
}

/// Run a sharded simulation and count allocations over the steady
/// window between the 2nd and 4th tick boundaries (10 s → 20 s here:
/// past every shard's 5 s ramp, before finalization).
fn sharded_steady_allocs(total_players: usize) -> (u64, usize) {
    let cfg = ShardedSimConfig::builder(SystemKind::CloudFogA)
        .total_players(total_players)
        .shard_capacity(100)
        .seed(11)
        .ramp(SimDuration::from_secs(5))
        .horizon(SimDuration::from_secs(25))
        .tick(SimDuration::from_secs(5))
        .lanes(1)
        .build();
    let shards = cfg.shard_count();
    let mut start = 0u64;
    let mut end = 0u64;
    ShardedSim::run_with_probe(&cfg, &mut |boundary| match boundary {
        2 => start = ALLOCS.load(Ordering::Relaxed),
        4 => end = ALLOCS.load(Ordering::Relaxed),
        _ => {}
    });
    assert!(end >= start && start > 0, "probe missed a boundary");
    (end - start, shards)
}

#[test]
fn sharded_steady_state_memory_is_per_shard_bounded() {
    let _serial = serial();
    // The per-shard memory contract: no sub-world holds state — or
    // allocates — proportionally to the *total* population. Each
    // world's hot path is the zero-alloc slab path pinned above, so
    // steady-state allocations come only from the boundary driver
    // (pressure snapshots, handoff plans, inboxes), all O(shards).
    // Doubling the population with fixed capacity doubles the shard
    // count; per-shard allocations must stay flat. A shard that
    // scaled with the total population would double here and trip the
    // gate.
    let (small, small_shards) = sharded_steady_allocs(200);
    let (large, large_shards) = sharded_steady_allocs(400);
    assert_eq!(small_shards, 2);
    assert_eq!(large_shards, 4);
    let per_small = small as f64 / small_shards as f64;
    let per_large = large as f64 / large_shards as f64;
    // Generous constant slack for one-off Vec growth; the failure mode
    // being gated (O(total) per shard) is a ~2× ratio, far past this.
    assert!(
        per_large <= per_small * 1.6 + 64.0,
        "per-shard steady-state allocations grew with the total population: \
         {per_small:.1}/shard at {small_shards} shards vs \
         {per_large:.1}/shard at {large_shards} shards"
    );
}
