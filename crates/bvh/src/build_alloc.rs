//! A forked build allocates the same few blocks for a small tree and a
//! large one, counted over every thread of the process: the forked half's
//! node array is sized up front, so a heap block per node, or an array
//! that grows by doubling, would show as a difference.
//!
//! A process-wide count needs no other test running beside it, so the
//! test runs itself again as the only test of a child process, and
//! counts there.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

use rt_geometry::{Triangle, Vec3};

use crate::binary::FORK_MIN_TRIS;
use crate::WideBvhBuilder;

/// The system allocator, counting every allocation of the process.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; counting
// touches only an atomic, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` contract is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` contract is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

/// Set in the child process, which does the counting.
const CHILD: &str = "RT_BVH_ALLOC_CHILD";

/// A `count`-triangle grid, 64 triangles wide.
fn grid(count: usize) -> Vec<Triangle> {
    (0..count)
        .map(|i| {
            let (x, z) = ((i % 64) as f32, (i / 64) as f32);
            Triangle::new(
                Vec3::new(x, 0.0, z),
                Vec3::new(x + 0.5, 0.0, z),
                Vec3::new(x, 0.5, z + 0.5),
            )
        })
        .collect()
}

#[test]
fn a_forked_build_allocates_a_constant_number_of_blocks() {
    if std::env::var_os(CHILD).is_none() {
        let module = module_path!().split_once("::").map_or("", |(_, m)| m);
        let name = format!("{module}::a_forked_build_allocates_a_constant_number_of_blocks");
        let exe = std::env::current_exe().expect("the test binary's path");
        let out = Command::new(exe)
            .args([&name, "--exact", "--test-threads=1", "--nocapture"])
            .env(CHILD, "1")
            .output()
            .expect("the test binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let report = format!("{stdout}{}", String::from_utf8_lossy(&out.stderr));
        assert!(out.status.success(), "{report}");
        assert!(
            stdout.contains("1 passed"),
            "the child ran no test: {report}"
        );
        return;
    }
    // On two threads each build forks once, at the root, and builds
    // each half on one thread.
    let builder = WideBvhBuilder::new();
    let mut counts = Vec::new();
    for threads in [1, 2] {
        for size in [2 * FORK_MIN_TRIS, 7 * FORK_MIN_TRIS] {
            let triangles = grid(size);
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let bvh = builder.build_on(triangles, threads);
            let blocks = ALLOCATIONS.load(Ordering::Relaxed) - before;
            counts.push((threads, size, bvh.node_count(), blocks));
        }
    }
    println!("(threads, triangles, nodes, allocations): {counts:?}");
    assert!(counts[1].2 > 3 * counts[0].2, "{counts:?}");
    for pair in counts.chunks(2) {
        assert_eq!(
            pair[0].3, pair[1].3,
            "the build allocates by tree size (threads, triangles, nodes, allocations): {counts:?}"
        );
    }
}
