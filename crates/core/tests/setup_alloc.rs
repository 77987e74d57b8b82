//! A simulation's set-up allocates a few flat blocks per cell and about
//! one per ray, not one per traversal step, treelet or cache set.
//!
//! A counting global allocator tallies this thread's allocations over
//! one run at 16×16 and one at 32×32 rays of the same scene and config.
//! The difference, divided by the 768 rays the larger run adds, is what
//! one more ray costs: tracing it, compiling its trace into the replay,
//! and replaying it. A replay that kept a heap vector per step, or a
//! fresh traversal buffer per ray, would pay several allocations per
//! ray, so this bound fails loudly if either comes back.
//!
//! The 16×16 run's own total bounds what a whole cell costs. A cell
//! that formed its treelets again (one block per treelet), kept a vector
//! per treelet's lines, or one per L2 set (3,072 of them) would pay
//! thousands of allocations.
//!
//! Encoding a prepared bench for the preparation cache allocates the
//! same few buffers on a small scene and a large one: a clone of the
//! tree (one block per internal node) or a buffer that grows would
//! scale with the scene.
//!
//! Building, cloning and decoding a tree likewise allocate the same few
//! blocks on WKND (492 nodes) and CRNVL (7,588 nodes): the nodes are
//! flat record arrays sized up front, so a heap block per node, or an
//! array that grows by doubling, would show as a difference.
//!
//! The allocator also tracks this thread's live heap bytes and their
//! high-water mark, so a cell's peak footprint per added ray is pinned
//! too: the replay keeps a node and a vote per traversal step and looks
//! each step's cache lines up in a per-node table, so a replay that
//! stored every step's lines again would show as more bytes per ray.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rt_bvh::WideBvh;
use rt_scene::{Scene, SceneId, Workload, WorkloadKind};
use treelet_rt::{decode_prepared_bench, encode_prepared_bench, Bench, SimConfig};

/// The system allocator, counting each allocation on the calling thread
/// (the test harness runs other tests on other threads).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread (negative when it
    /// frees blocks another thread allocated).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` since the last [`peak_heap`] reset.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation that grows this thread's live bytes by `grown`
/// (negative for a shrinking `realloc`).
fn count_one(grown: i64) {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    add_live(grown);
}

fn add_live(grown: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + grown);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Peak heap bytes `f` holds on this thread above what was live when it
/// started.
fn peak_heap<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let out = f();
    let peak = PEAK.with(Cell::get);
    ((peak - before) as u64, out)
}

/// `n` as a live-byte delta.
fn bytes(n: usize) -> i64 {
    i64::try_from(n).expect("allocation sizes fit i64")
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; counting
// touches only a const-initialized thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(bytes(layout.size()));
        // SAFETY: the caller's `layout` contract is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(bytes(layout.size()));
        // SAFETY: the caller's `layout` contract is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(bytes(new_size) - bytes(layout.size()));
        // SAFETY: `ptr` was allocated by `System` with `layout` (every
        // allocation goes through this type), as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-bytes(layout.size()));
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations one run of `config` makes on `bench`.
fn run_allocations(bench: &Bench, config: &SimConfig) -> u64 {
    let before = allocations();
    let result = bench.run(config);
    let after = allocations();
    assert!(result.cycles > 0);
    after - before
}

#[test]
fn set_up_allocates_per_ray_not_per_step() {
    let configs = [
        ("baseline", SimConfig::paper_baseline()),
        ("prefetch", SimConfig::paper_treelet_prefetch()),
    ];
    let mut per_ray = Vec::new();
    let mut per_cell = Vec::new();
    for scene in [SceneId::Wknd, SceneId::Car, SceneId::Park] {
        let prepare =
            |res| Bench::prepare(scene, 0.1, Workload::new(WorkloadKind::Primary, res, res));
        let (small, large) = (prepare(16), prepare(32));
        let added = (large.rays().len() - small.rays().len()) as f64;
        for (name, config) in &configs {
            let cell = run_allocations(&small, config);
            let slope = (run_allocations(&large, config) as f64 - cell as f64) / added;
            per_ray.push((format!("{scene}/{name}"), slope));
            per_cell.push((format!("{scene}/{name}"), cell));
        }
    }
    for ((cell, slope), (_, total)) in per_ray.iter().zip(&per_cell) {
        println!("{cell}: {slope:.2} allocations per added ray, {total} per 16x16 cell");
    }
    assert!(
        per_ray.iter().all(|&(_, slope)| slope < 2.0),
        "some cell allocates 2 or more times per added ray: {per_ray:?}"
    );
    assert!(
        per_cell.iter().all(|&(_, total)| total < 1_500),
        "some 16x16 cell allocates 1,500 or more times: {per_cell:?}"
    );
}

#[test]
fn a_cell_peaks_at_a_bounded_heap_per_ray() {
    // A `realloc` that moves holds both blocks at once, which this count
    // of live bytes does not see: it is a lower bound on the peak.
    let configs = [
        ("baseline", SimConfig::paper_baseline()),
        ("prefetch", SimConfig::paper_treelet_prefetch()),
    ];
    let mut per_ray = Vec::new();
    for scene in [SceneId::Wknd, SceneId::Car, SceneId::Park] {
        let prepare =
            |res| Bench::prepare(scene, 0.1, Workload::new(WorkloadKind::Primary, res, res));
        let (small, large) = (prepare(16), prepare(64));
        let added = (large.rays().len() - small.rays().len()) as f64;
        for (name, config) in &configs {
            let peak = |bench: &Bench| {
                let (peak, result) = peak_heap(|| bench.run(config));
                assert!(result.cycles > 0);
                peak as f64
            };
            let slope = (peak(&large) - peak(&small)) / added;
            per_ray.push((format!("{scene}/{name}"), slope));
        }
    }
    for (cell, slope) in &per_ray {
        println!("{cell}: {slope:.0} peak heap bytes per added ray");
    }
    assert!(
        per_ray.iter().all(|&(_, slope)| slope < 330.0),
        "some cell peaks at 330 or more heap bytes per added ray: {per_ray:?}"
    );
}

#[test]
fn encoding_a_prepared_bench_allocates_a_constant_number_of_blocks() {
    let workload = Workload::new(WorkloadKind::Primary, 16, 16);
    let mut counts = Vec::new();
    for (scene, detail) in [(SceneId::Wknd, 0.1), (SceneId::Crnvl, 1.0)] {
        let bench = Bench::prepare(scene, detail, workload);
        let before = allocations();
        let bytes = encode_prepared_bench(&bench, 1);
        let after = allocations();
        assert!(!bytes.is_empty());
        counts.push((scene, bench.bvh().node_count(), after - before));
    }
    println!("{counts:?}");
    let (small, large) = (counts[0].2, counts[1].2);
    assert_eq!(
        small, large,
        "encoding allocates by scene size (scene, nodes, allocations): {counts:?}"
    );
    assert!(small <= 4, "encoding allocates {small} blocks: {counts:?}");
}

/// Allocations `f` makes on this thread, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocations();
    let out = f();
    (allocations() - before, out)
}

#[test]
fn building_cloning_and_decoding_a_tree_allocate_a_constant_number_of_blocks() {
    let workload = Workload::new(WorkloadKind::Primary, 16, 16);
    let mut counts = Vec::new();
    for scene in [SceneId::Wknd, SceneId::Crnvl] {
        let triangles = Scene::build_with_detail(scene, 1.0).mesh.into_triangles();
        let (build, bvh) = counted(|| WideBvh::build(triangles));
        let (clone, copy) = counted(|| bvh.clone());
        assert_eq!(copy.node_count(), bvh.node_count());
        let key = 1;
        let bytes = encode_prepared_bench(&Bench::prepare(scene, 1.0, workload), key);
        let (decode, decoded) = counted(|| decode_prepared_bench(scene, key, &bytes));
        let (bench, _) = decoded.expect("the artifact decodes");
        assert_eq!(bench.bvh().node_count(), bvh.node_count());
        counts.push((scene, bvh.node_count(), [build, clone, decode]));
    }
    println!("{counts:?}");
    assert_eq!(counts[0].1, 492);
    assert_eq!(counts[1].1, 7_588);
    assert_eq!(
        counts[0].2, counts[1].2,
        "build, clone or decode allocates by tree size (scene, nodes, [build, clone, decode]): {counts:?}"
    );
}
