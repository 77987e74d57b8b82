//! Property-based tests for treelet formation, the traversal algorithms,
//! and trace compilation.

use rt_bvh::{MemoryImage, WideBvh, NODE_SIZE_BYTES};
use rt_geometry::{Ray, Triangle, Vec3};
use rt_rng::prop::forall;
use rt_rng::{Rng, SmallRng};
use treelet_rt::{compile_trace, trace_ray, TraversalAlgorithm, TreeletAssignment};

fn coord(rng: &mut SmallRng) -> f32 {
    rng.gen_range(-40.0f32..40.0)
}

fn triangle(rng: &mut SmallRng) -> Triangle {
    let p = Vec3::new(coord(rng), coord(rng), coord(rng));
    let a = rng.gen_range(-3.0f32..3.0);
    let b = rng.gen_range(-3.0f32..3.0);
    let c = rng.gen_range(-3.0f32..3.0);
    Triangle::new(
        p,
        p + Vec3::new(a, b.abs() + 0.1, c),
        p + Vec3::new(b, c, a.abs() + 0.1),
    )
}

fn soup(rng: &mut SmallRng) -> Vec<Triangle> {
    let n = rng.gen_range(1..100usize);
    (0..n).map(|_| triangle(rng)).collect()
}

/// A direction with enough magnitude to be a valid ray (mirrors the old
/// `prop_assume!` filter).
fn direction(rng: &mut SmallRng) -> Vec3 {
    loop {
        let d = Vec3::new(
            rng.gen_range(-1.0f32..1.0),
            rng.gen_range(-1.0f32..1.0),
            rng.gen_range(-1.0f32..1.0),
        );
        if d.x.abs() + d.y.abs() + d.z.abs() > 0.1 {
            return d;
        }
    }
}

#[test]
fn formation_partitions_every_tree() {
    forall("formation_partitions_every_tree", 48, |rng| {
        let bvh = WideBvh::build(soup(rng));
        let budget = rng.gen_range(1..16u64) * NODE_SIZE_BYTES;
        let a = TreeletAssignment::form(&bvh, budget);
        let mut seen = vec![false; bvh.node_count()];
        for g in 0..a.count() as u32 {
            assert!(a.occupied_bytes(g) <= budget);
            assert!(!a.members(g).is_empty());
            for &m in a.members(g) {
                assert!(!seen[m as usize], "node {} twice", m);
                seen[m as usize] = true;
                assert_eq!(a.of_node(m), g);
            }
        }
        assert!(seen.iter().all(|&s| s));
    });
}

#[test]
fn formation_produces_connected_treelets() {
    forall("formation_produces_connected_treelets", 48, |rng| {
        let bvh = WideBvh::build(soup(rng));
        let a = TreeletAssignment::form(&bvh, 512);
        let mut parent = vec![u32::MAX; bvh.node_count()];
        for i in 0..bvh.node_count() as u32 {
            for c in bvh.node(i).child_nodes() {
                parent[c as usize] = i;
            }
        }
        for g in 0..a.count() as u32 {
            for &m in &a.members(g)[1..] {
                assert_eq!(a.of_node(parent[m as usize]), g);
            }
        }
    });
}

#[test]
fn both_traversals_find_the_same_closest_hit() {
    forall("both_traversals_find_the_same_closest_hit", 48, |rng| {
        let bvh = WideBvh::build(soup(rng));
        let a = TreeletAssignment::form(&bvh, 512);
        let origin = Vec3::new(coord(rng), coord(rng), coord(rng));
        let ray = Ray::new(origin, direction(rng));
        let dfs = trace_ray(&bvh, &a, &ray, TraversalAlgorithm::BaselineDfs);
        let two = trace_ray(&bvh, &a, &ray, TraversalAlgorithm::TwoStackTreelet);
        assert_eq!(dfs.hit.primitive, two.hit.primitive);
        if dfs.hit.is_hit() {
            assert!((dfs.hit.t - two.hit.t).abs() < 1e-3 * dfs.hit.t.max(1.0));
        }
    });
}

#[test]
fn two_stack_never_reenters_a_treelet() {
    forall("two_stack_never_reenters_a_treelet", 48, |rng| {
        let bvh = WideBvh::build(soup(rng));
        let a = TreeletAssignment::form(&bvh, 512);
        let origin = Vec3::new(coord(rng), coord(rng), coord(rng));
        let ray = Ray::new(origin, direction(rng));
        let trace = trace_ray(&bvh, &a, &ray, TraversalAlgorithm::TwoStackTreelet);
        let mut seen = std::collections::HashSet::new();
        let mut last = u32::MAX;
        for s in &trace.steps {
            if s.treelet != last {
                assert!(seen.insert(s.treelet), "treelet {} re-entered", s.treelet);
                last = s.treelet;
            }
        }
    });
}

#[test]
fn compiled_traces_are_line_aligned_and_deduplicated() {
    forall(
        "compiled_traces_are_line_aligned_and_deduplicated",
        48,
        |rng| {
            let bvh = WideBvh::build(soup(rng));
            let a = TreeletAssignment::form(&bvh, 512);
            let image = MemoryImage::depth_first(&bvh);
            let origin = Vec3::new(coord(rng), coord(rng), coord(rng));
            let target = bvh.root_aabb().center();
            let dir = target - origin;
            if dir.length_squared() <= 1e-3 {
                return;
            }
            let ray = Ray::new(origin, dir);
            let trace = trace_ray(&bvh, &a, &ray, TraversalAlgorithm::BaselineDfs);
            for step in compile_trace(&trace, &image, 64) {
                assert!(!step.lines.is_empty());
                assert_eq!(step.lines[0], image.node_addr(step.node) / 64 * 64);
                let mut sorted = step.lines.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), step.lines.len(), "duplicate lines in step");
                assert!(step.lines.iter().all(|l| l % 64 == 0));
            }
        },
    );
}

#[test]
fn traversal_visits_are_bounded_by_node_count() {
    forall("traversal_visits_are_bounded_by_node_count", 48, |rng| {
        // With early termination, neither algorithm may visit a node more
        // than once per ray, so visits <= node count.
        let bvh = WideBvh::build(soup(rng));
        let a = TreeletAssignment::form(&bvh, 512);
        let origin = Vec3::new(coord(rng), coord(rng), coord(rng));
        let ray = Ray::new(origin, direction(rng));
        for algo in [
            TraversalAlgorithm::BaselineDfs,
            TraversalAlgorithm::TwoStackTreelet,
        ] {
            let trace = trace_ray(&bvh, &a, &ray, algo);
            assert!(trace.nodes_visited() <= bvh.node_count());
            // No node may appear twice in a single trace.
            let mut nodes: Vec<u32> = trace.steps.iter().map(|s| s.node).collect();
            nodes.sort_unstable();
            let before = nodes.len();
            nodes.dedup();
            assert_eq!(nodes.len(), before, "node visited twice in {}", algo);
        }
    });
}
