//! The memory hierarchy's steady state allocates nothing.
//!
//! A counting global allocator tallies this thread's allocations. One
//! warm-up pass of a fixed access pattern sizes every queue, table and
//! waiter list; an identical second pass must then not allocate at all.
//! The pattern thrashes small caches, so both passes take L1 misses, L2
//! misses, merged (pending) hits, MSHR rejections, L1 and L2 prefetches,
//! and DRAM fills.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rt_gpu_sim::{AccessKind, FillOrigin, Issue, MemConfig, MemorySystem, RequestId};

/// The system allocator, counting each allocation on the calling thread
/// (the test harness runs other tests on other threads).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; counting
// touches only a const-initialized thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` contract is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` contract is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` was allocated by `System` with `layout` (every
        // allocation goes through this type), as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SMS: usize = 2;

/// Small caches, so the pattern's 300 lines miss in both passes.
fn config() -> MemConfig {
    let mut config = MemConfig::paper_default();
    config.l1_lines = 32;
    config.l1_mshrs = 8;
    config.l2_lines = 128;
    config.l2_sets = 8;
    config
}

/// Ticks once and drains every SM's completions into `done`.
fn tick(mem: &mut MemorySystem, done: &mut Vec<RequestId>) -> usize {
    mem.tick();
    let mut n = 0;
    for sm in 0..SMS {
        mem.drain_completed_into(sm, done);
        n += done.len();
    }
    n
}

/// One pass of the fixed pattern, run until the hierarchy is idle.
/// Returns (accesses retried on a full MSHR file, completions).
fn pass(mem: &mut MemorySystem, done: &mut Vec<RequestId>) -> (u64, usize) {
    let (mut retries, mut completed) = (0, 0);
    for i in 0..600u64 {
        for sm in 0..SMS {
            // Each SM walks the 300 lines in its own stride; every third
            // access re-reads the previous line (a merge or a hit).
            let step = if i % 3 == 2 { i - 1 } else { i };
            let line = (step * 37 + sm as u64 * 101) % 300;
            let origin = if i % 5 == 0 {
                FillOrigin::Prefetch
            } else {
                FillOrigin::Demand
            };
            while mem.access(sm, line * 64, origin, AccessKind::Node) == Issue::Retry {
                retries += 1;
                completed += tick(mem, done);
            }
        }
        if i % 7 == 0 {
            mem.prefetch_l2(((i * 53) % 300) * 64);
        }
        completed += tick(mem, done);
    }
    while mem.busy() {
        completed += tick(mem, done);
    }
    (retries, completed)
}

#[test]
fn an_identical_second_pass_allocates_nothing() {
    let mut mem = MemorySystem::new(config(), SMS);
    let mut done = Vec::new();
    let warm = pass(&mut mem, &mut done);
    let before = allocations();
    let second = pass(&mut mem, &mut done);
    let allocated = allocations() - before;
    assert_eq!(allocated, 0, "the second pass allocated {allocated} times");
    // The pattern exercises what it claims to, in both passes.
    assert!(
        warm.0 > 0 && second.0 > 0,
        "MSHR rejections: {warm:?} {second:?}"
    );
    assert!(
        warm.1 > 0 && second.1 > 0,
        "completions: {warm:?} {second:?}"
    );
    let l1 = mem.l1_stats_total();
    assert!(l1.demand_misses > 0 && l1.demand_pending_hits > 0 && l1.prefetch_misses > 0);
    assert!(mem.stats().dram_to_l2_lines > 600, "both passes reach DRAM");
    assert!(mem.audit().is_clean(), "{:?}", mem.audit());
}
