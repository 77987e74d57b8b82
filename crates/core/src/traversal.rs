//! Ray traversal algorithms: the baseline depth-first traversal and the
//! paper's two-stack treelet-based traversal (§3.2, Algorithm 1).
//!
//! Following the paper's methodology (§5), traversal is *functionally*
//! simulated here to produce each ray's dependent sequence of memory
//! accesses; the RT-unit timing model replays those sequences.

use crate::treelet::TreeletAssignment;
use rt_bvh::{ChildHits, MemoryImage, WideBvh};
use rt_geometry::{HitRecord, Ray, Vec3};
use std::ops::Range;

/// Which traversal algorithm a ray executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraversalAlgorithm {
    /// Ordered depth-first traversal with one stack (the baseline).
    BaselineDfs,
    /// The paper's treelet-based traversal: nodes of the current treelet
    /// are exhausted before other treelets are visited (Algorithm 1).
    TwoStackTreelet,
}

impl std::fmt::Display for TraversalAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TraversalAlgorithm::BaselineDfs => "baseline-dfs",
            TraversalAlgorithm::TwoStackTreelet => "two-stack-treelet",
        })
    }
}

/// Ablation knobs for the traversal algorithms.
///
/// The defaults are the realistic configuration (ordered near-first child
/// visits, early ray termination); each knob can be disabled to measure
/// its contribution, as `DESIGN.md` §7 calls out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraversalOptions {
    /// Visit intersected children nearest-first (RT cores sort children
    /// by hit distance). When disabled, children are visited in node
    /// order.
    pub ordered_children: bool,
    /// Skip stacked nodes whose entry distance exceeds the closest hit
    /// found so far. When disabled, every intersected node is visited
    /// (the closest hit is still tracked correctly).
    pub early_termination: bool,
}

impl Default for TraversalOptions {
    fn default() -> Self {
        TraversalOptions {
            ordered_children: true,
            early_termination: true,
        }
    }
}

/// One visited node in a ray's trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStep {
    /// The visited node.
    pub node: u32,
    /// The node's treelet.
    pub treelet: u32,
    /// Triangle range `(first, count)` if the node is a leaf.
    pub tri_range: Option<(u32, u32)>,
}

/// The functional result of tracing one ray: the visited-node sequence and
/// the closest hit.
#[derive(Debug, Clone, PartialEq)]
pub struct RayTrace {
    /// Visited nodes in order. Every step is a dependent memory access.
    pub steps: Vec<TraceStep>,
    /// The closest-hit result.
    pub hit: HitRecord,
}

impl RayTrace {
    /// Number of nodes this ray traversed (the paper's Table 3 metric).
    pub fn nodes_visited(&self) -> usize {
        self.steps.len()
    }
}

/// Traces `ray` through `bvh` with the chosen algorithm, recording every
/// node visit.
///
/// Both algorithms perform early ray termination: a stacked node whose
/// recorded entry distance exceeds the current closest hit is skipped
/// without a memory access.
pub fn trace_ray(
    bvh: &WideBvh,
    treelets: &TreeletAssignment,
    ray: &Ray,
    algorithm: TraversalAlgorithm,
) -> RayTrace {
    trace_ray_with(bvh, treelets, ray, algorithm, TraversalOptions::default())
}

/// Traces `ray` with explicit [`TraversalOptions`] (ablation knobs).
pub fn trace_ray_with(
    bvh: &WideBvh,
    treelets: &TreeletAssignment,
    ray: &Ray,
    algorithm: TraversalAlgorithm,
    options: TraversalOptions,
) -> RayTrace {
    let mut scratch = TraceScratch::default();
    let hit = trace_into(bvh, treelets, ray, algorithm, options, &mut scratch);
    RayTrace {
        steps: scratch.steps,
        hit,
    }
}

/// Traversal buffers reused from ray to ray: the visited steps and the
/// two node stacks (the baseline uses only the first). Tracing many rays
/// through one scratch allocates only when a ray outgrows them.
#[derive(Debug, Default)]
pub(crate) struct TraceScratch {
    /// The last traced ray's visited nodes, in order.
    pub(crate) steps: Vec<TraceStep>,
    current: Vec<(u32, f32)>,
    other: Vec<(u32, f32)>,
}

/// Traces `ray` into `scratch`, replacing its steps, and returns the
/// closest hit: [`trace_ray_with`] without a fresh allocation per ray.
pub(crate) fn trace_into(
    bvh: &WideBvh,
    treelets: &TreeletAssignment,
    ray: &Ray,
    algorithm: TraversalAlgorithm,
    options: TraversalOptions,
    scratch: &mut TraceScratch,
) -> HitRecord {
    scratch.steps.clear();
    scratch.current.clear();
    scratch.other.clear();
    match algorithm {
        TraversalAlgorithm::BaselineDfs => trace_dfs(bvh, treelets, ray, options, scratch),
        TraversalAlgorithm::TwoStackTreelet => {
            trace_two_stack(bvh, treelets, ray, options, scratch)
        }
    }
}

// One argument per piece of traversal scratch the caller owns; bundling
// them into a struct would just move the field list. `inv` is the ray's
// inverse direction, computed once per ray by the caller.
#[allow(clippy::too_many_arguments)]
fn visit(
    bvh: &WideBvh,
    treelets: &TreeletAssignment,
    ray: &mut Ray,
    inv: Vec3,
    hit: &mut HitRecord,
    steps: &mut Vec<TraceStep>,
    node: u32,
    options: TraversalOptions,
    children: &mut ChildHits,
) {
    // Record the node visit (this is the memory access): an internal
    // node's record, or a leaf's slot.
    let record = bvh.node(node);
    let tri_range = record.leaf();
    steps.push(TraceStep {
        node,
        treelet: treelets.of_node(node),
        tri_range,
    });

    *children = ChildHits::new();
    if let Some(record) = record.internal() {
        // Batched 6-wide slab test against the SoA child bounds —
        // lane-for-lane bit-identical to the scalar per-child loop,
        // with hits appended in child-list order.
        record.intersect_into(ray, inv, children);
        if options.ordered_children {
            // Far-first, so that popping yields the nearest child.
            children.sort_far_first();
        }
    } else if let Some((first, count)) = tri_range {
        for i in first..first + count {
            if let Some(t) = bvh.triangles()[i as usize].intersect(ray) {
                if hit.update(t, i) && options.early_termination {
                    // Shrinking t_max is what culls the remaining
                    // stack (and far children) — early termination.
                    ray.t_max = t;
                }
            }
        }
    }
}

fn trace_dfs(
    bvh: &WideBvh,
    treelets: &TreeletAssignment,
    ray: &Ray,
    options: TraversalOptions,
    scratch: &mut TraceScratch,
) -> HitRecord {
    let mut ray = *ray;
    let mut hit = HitRecord::new();
    let TraceScratch {
        steps,
        current: stack,
        ..
    } = scratch;
    let inv = ray.inv_direction();
    if let Some(t) = bvh.root_aabb().intersect(&ray, inv) {
        stack.push((bvh.root(), t));
    }
    let mut children = ChildHits::new();
    while let Some((node, entry)) = stack.pop() {
        if entry > ray.t_max {
            continue; // early ray termination: skipped without a fetch
        }
        visit(
            bvh,
            treelets,
            &mut ray,
            inv,
            &mut hit,
            steps,
            node,
            options,
            &mut children,
        );
        stack.extend_from_slice(children.as_slice());
    }
    // Without early termination the closest hit must still be correct.
    hit
}

fn trace_two_stack(
    bvh: &WideBvh,
    treelets: &TreeletAssignment,
    ray: &Ray,
    options: TraversalOptions,
    scratch: &mut TraceScratch,
) -> HitRecord {
    let mut ray = *ray;
    let mut hit = HitRecord::new();
    let TraceScratch {
        steps,
        current,
        other,
    } = scratch;
    let inv = ray.inv_direction();
    if let Some(t) = bvh.root_aabb().intersect(&ray, inv) {
        current.push((bvh.root(), t));
    }
    let mut children = ChildHits::new();
    while !current.is_empty() || !other.is_empty() {
        if current.is_empty() {
            // Transfer the front of the other-treelet stack (Alg. 1, l. 5).
            // "Front" is interpreted as the pending treelet root with the
            // smallest ray-entry distance: stack entries carry their entry
            // distance anyway (for early termination), and this is the
            // only reading that keeps the node-visit overhead in the small
            // range the paper's Table 3 reports — a plain LIFO/FIFO
            // discipline descends far subtrees first after a treelet
            // drains and inflates visits by up to ~90% on dense scenes.
            let mut best = 0;
            for (i, e) in other.iter().enumerate() {
                if e.1 < other[best].1 {
                    best = i;
                }
            }
            let front = other.swap_remove(best);
            current.push(front);
        }
        let (node, entry) = current.pop().expect("current stack non-empty");
        if entry > ray.t_max {
            continue;
        }
        let node_treelet = treelets.of_node(node);
        visit(
            bvh,
            treelets,
            &mut ray,
            inv,
            &mut hit,
            steps,
            node,
            options,
            &mut children,
        );
        for &(child, t) in children.as_slice() {
            // Algorithm 1, line 13: the treelet child-bit test.
            if treelets.of_node(child) == node_treelet {
                current.push((child, t));
            } else {
                other.push((child, t));
            }
        }
    }
    hit
}

/// A trace step compiled against a memory image: the cache-line addresses
/// the step must fetch.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledStep {
    /// The visited node.
    pub node: u32,
    /// The node's treelet.
    pub treelet: u32,
    /// Cache lines this step fetches: the node record's line, plus the
    /// triangle-data lines for leaves.
    pub lines: Vec<u64>,
    /// `true` for leaf steps (they pay the primitive-test latency).
    pub is_leaf: bool,
}

/// Compiles a functional trace into per-step cache-line addresses using
/// `image` and `line_bytes`-sized lines.
///
/// # Panics
///
/// Panics if `line_bytes` is zero.
pub fn compile_trace(trace: &RayTrace, image: &MemoryImage, line_bytes: u64) -> Vec<CompiledStep> {
    assert!(line_bytes > 0, "line size must be nonzero");
    trace
        .steps
        .iter()
        .map(|s| {
            let (node_line, tri_lines) = step_lines(s.node, s.tri_range, image, line_bytes);
            CompiledStep {
                node: s.node,
                treelet: s.treelet,
                lines: std::iter::once(node_line)
                    .chain(tri_lines)
                    .map(|line| line * line_bytes)
                    .collect(),
                is_leaf: s.tri_range.is_some(),
            }
        })
        .collect()
}

/// The cache lines a visit to `node` fetches, as line numbers (address
/// divided by `line_bytes`), in issue order: the node record's line, then
/// the run of a leaf's triangle-data lines (`tri_range`), with a triangle
/// line equal to the node line dropped. The one definition both
/// [`compile_trace`] and the timing model's per-node line table use.
pub(crate) fn step_lines(
    node: u32,
    tri_range: Option<(u32, u32)>,
    image: &MemoryImage,
    line_bytes: u64,
) -> (u64, Range<u64>) {
    let line_of = |addr: u64| addr / line_bytes;
    let node_line = line_of(image.node_addr(node));
    let tri_lines = match tri_range {
        None => 0..0,
        Some((first, count)) => {
            let begin = image.triangle_addr(first);
            let end = begin + count as u64 * rt_bvh::TRIANGLE_SIZE_BYTES;
            // Triangle lines ascend, so only the first can repeat the
            // line before it (the node's).
            let first_line = line_of(begin);
            first_line + u64::from(first_line == node_line)..line_of(end + line_bytes - 1)
        }
    };
    (node_line, tri_lines)
}

/// Per-workload node-visit statistics (the paper's Table 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraversalStats {
    /// Mean nodes visited per ray.
    pub avg_nodes_per_ray: f64,
    /// Maximum nodes visited by any single ray (tail latency proxy).
    pub max_nodes_per_ray: usize,
}

impl TraversalStats {
    /// Computes visit statistics over `traces`.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty.
    pub fn of<'a>(traces: impl IntoIterator<Item = &'a RayTrace>) -> TraversalStats {
        let (mut count, mut total, mut max) = (0usize, 0usize, 0usize);
        for trace in traces {
            let nodes = trace.nodes_visited();
            count += 1;
            total += nodes;
            max = max.max(nodes);
        }
        assert!(count > 0, "need at least one trace");
        TraversalStats {
            avg_nodes_per_ray: total as f64 / count as f64,
            max_nodes_per_ray: max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_geometry::{Triangle, Vec3};
    use rt_scene::{Scene, SceneId, Workload, WorkloadKind};

    fn scene_fixture() -> (WideBvh, TreeletAssignment, Vec<Ray>) {
        let scene = Scene::build_with_detail(SceneId::Wknd, 0.3);
        let rays = Workload::new(WorkloadKind::Primary, 12, 12).generate(&scene);
        let bvh = WideBvh::build(scene.mesh.into_triangles());
        let treelets = TreeletAssignment::form(&bvh, 512);
        (bvh, treelets, rays)
    }

    #[test]
    fn both_algorithms_agree_with_reference_hits() {
        let (bvh, treelets, rays) = scene_fixture();
        for ray in &rays {
            let reference = bvh.intersect(ray);
            let dfs = trace_ray(&bvh, &treelets, ray, TraversalAlgorithm::BaselineDfs);
            let two = trace_ray(&bvh, &treelets, ray, TraversalAlgorithm::TwoStackTreelet);
            assert_eq!(dfs.hit.primitive, reference.primitive);
            assert_eq!(two.hit.primitive, reference.primitive);
            if reference.is_hit() {
                assert!((dfs.hit.t - reference.t).abs() < 1e-5);
                assert!((two.hit.t - reference.t).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn two_stack_clusters_treelet_visits() {
        // Compare treelet-switch *rates* (switches per visited node): the
        // two-stack traversal clusters accesses within treelets, so its
        // rate must not exceed the DFS rate on a scene with real treelet
        // structure. (Node counts differ slightly between the algorithms
        // due to early-termination order, hence rates, not totals.)
        let scene = rt_scene::Scene::build_with_detail(rt_scene::SceneId::Bunny, 0.3);
        let rays =
            rt_scene::Workload::new(rt_scene::WorkloadKind::Primary, 12, 12).generate(&scene);
        let bvh = WideBvh::build(scene.mesh.into_triangles());
        let treelets = TreeletAssignment::form(&bvh, 512);
        let mut dfs_switches = 0usize;
        let mut dfs_steps = 0usize;
        let mut two_switches = 0usize;
        let mut two_steps = 0usize;
        let switches = |trace: &RayTrace| {
            trace
                .steps
                .windows(2)
                .filter(|w| w[0].treelet != w[1].treelet)
                .count()
        };
        for ray in &rays {
            let d = trace_ray(&bvh, &treelets, ray, TraversalAlgorithm::BaselineDfs);
            let t = trace_ray(&bvh, &treelets, ray, TraversalAlgorithm::TwoStackTreelet);
            dfs_switches += switches(&d);
            dfs_steps += d.nodes_visited();
            two_switches += switches(&t);
            two_steps += t.nodes_visited();
        }
        assert!(dfs_steps > 0 && two_steps > 0);
        let dfs_rate = dfs_switches as f64 / dfs_steps as f64;
        let two_rate = two_switches as f64 / two_steps as f64;
        assert!(
            two_rate <= dfs_rate,
            "two-stack switch rate {two_rate:.3} > dfs {dfs_rate:.3}"
        );
    }

    #[test]
    fn two_stack_exhausts_current_treelet_before_returning() {
        // Once the two-stack traversal leaves a treelet it never re-enters
        // it (per ray): treelet visit segments are unique.
        let (bvh, treelets, rays) = scene_fixture();
        for ray in rays.iter().take(32) {
            let trace = trace_ray(&bvh, &treelets, ray, TraversalAlgorithm::TwoStackTreelet);
            let mut seen = std::collections::HashSet::new();
            let mut last = u32::MAX;
            for s in &trace.steps {
                if s.treelet != last {
                    assert!(
                        seen.insert(s.treelet),
                        "treelet {} re-entered after leaving",
                        s.treelet
                    );
                    last = s.treelet;
                }
            }
        }
    }

    #[test]
    fn miss_rays_visit_few_or_no_nodes() {
        let (bvh, treelets, _) = scene_fixture();
        let away = Ray::new(Vec3::new(0.0, 1000.0, 0.0), Vec3::Y);
        let t = trace_ray(&bvh, &treelets, &away, TraversalAlgorithm::BaselineDfs);
        assert!(!t.hit.is_hit());
        assert_eq!(t.nodes_visited(), 0);
    }

    #[test]
    fn compiled_steps_have_node_line_first() {
        let (bvh, treelets, rays) = scene_fixture();
        let image = MemoryImage::depth_first(&bvh);
        let trace = trace_ray(&bvh, &treelets, &rays[70], TraversalAlgorithm::BaselineDfs);
        assert!(!trace.steps.is_empty());
        let compiled = compile_trace(&trace, &image, 64);
        assert_eq!(compiled.len(), trace.steps.len());
        for (c, s) in compiled.iter().zip(&trace.steps) {
            assert_eq!(c.lines[0], image.node_addr(s.node) / 64 * 64);
            assert_eq!(c.is_leaf, s.tri_range.is_some());
            if c.is_leaf {
                assert!(c.lines.len() >= 2, "leaf step must fetch triangle data");
            }
        }
    }

    #[test]
    fn compiled_leaf_lines_cover_triangle_bytes() {
        let tris: Vec<Triangle> = (0..8)
            .map(|i| {
                let x = i as f32;
                Triangle::new(
                    Vec3::new(x, 0.0, 0.0),
                    Vec3::new(x + 0.9, 0.0, 0.0),
                    Vec3::new(x, 0.9, 0.0),
                )
            })
            .collect();
        let bvh = WideBvh::build(tris);
        let treelets = TreeletAssignment::form(&bvh, 512);
        let image = MemoryImage::depth_first(&bvh);
        let ray = Ray::new(Vec3::new(0.3, 0.3, -5.0), Vec3::Z);
        let trace = trace_ray(&bvh, &treelets, &ray, TraversalAlgorithm::BaselineDfs);
        let compiled = compile_trace(&trace, &image, 64);
        let leaf = compiled
            .iter()
            .find(|c| c.is_leaf)
            .expect("ray must reach a leaf");
        // 4 triangles * 48B = 192B -> at least 3 lines of 64B + node line.
        assert!(leaf.lines.len() >= 2);
        // Lines are line-aligned and unique.
        let mut sorted = leaf.lines.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), leaf.lines.len());
        assert!(leaf.lines.iter().all(|l| l % 64 == 0));
    }

    #[test]
    fn traversal_stats_avg_and_max() {
        let (bvh, treelets, rays) = scene_fixture();
        let traces: Vec<RayTrace> = rays
            .iter()
            .map(|r| trace_ray(&bvh, &treelets, r, TraversalAlgorithm::BaselineDfs))
            .collect();
        let stats = TraversalStats::of(&traces);
        assert!(stats.avg_nodes_per_ray > 0.0);
        assert!(stats.max_nodes_per_ray >= stats.avg_nodes_per_ray as usize);
    }

    #[test]
    fn early_termination_reduces_visits() {
        // A ray with a very close t_max must visit fewer nodes than an
        // unbounded one.
        let (bvh, treelets, rays) = scene_fixture();
        let hit_ray = rays
            .iter()
            .find(|r| bvh.intersect(r).is_hit())
            .expect("some primary ray must hit");
        let full = trace_ray(&bvh, &treelets, hit_ray, TraversalAlgorithm::BaselineDfs);
        let mut clamped = *hit_ray;
        clamped.t_max = bvh.intersect(hit_ray).t * 1.0001;
        let bounded = trace_ray(&bvh, &treelets, &clamped, TraversalAlgorithm::BaselineDfs);
        assert!(bounded.nodes_visited() <= full.nodes_visited());
    }

    #[test]
    #[should_panic(expected = "at least one trace")]
    fn stats_of_empty_panics() {
        let _ = TraversalStats::of(&[]);
    }

    #[test]
    fn disabling_early_termination_visits_more_but_hits_the_same() {
        let (bvh, treelets, rays) = scene_fixture();
        let no_ert = TraversalOptions {
            early_termination: false,
            ..TraversalOptions::default()
        };
        let mut with_total = 0usize;
        let mut without_total = 0usize;
        for ray in &rays {
            let with = trace_ray(&bvh, &treelets, ray, TraversalAlgorithm::BaselineDfs);
            let without = trace_ray_with(
                &bvh,
                &treelets,
                ray,
                TraversalAlgorithm::BaselineDfs,
                no_ert,
            );
            assert_eq!(with.hit.primitive, without.hit.primitive);
            if with.hit.is_hit() {
                assert!((with.hit.t - without.hit.t).abs() < 1e-5);
            }
            with_total += with.nodes_visited();
            without_total += without.nodes_visited();
        }
        assert!(
            without_total > with_total,
            "ERT off should visit more nodes: {without_total} vs {with_total}"
        );
    }

    #[test]
    fn disabling_child_ordering_never_reduces_visits_much() {
        // Unordered traversal reaches leaves later on average, so it
        // should not beat ordered traversal by more than noise.
        let (bvh, treelets, rays) = scene_fixture();
        let unordered = TraversalOptions {
            ordered_children: false,
            ..TraversalOptions::default()
        };
        let mut ordered_total = 0usize;
        let mut unordered_total = 0usize;
        for ray in &rays {
            let a = trace_ray(&bvh, &treelets, ray, TraversalAlgorithm::BaselineDfs);
            let b = trace_ray_with(
                &bvh,
                &treelets,
                ray,
                TraversalAlgorithm::BaselineDfs,
                unordered,
            );
            assert_eq!(a.hit.primitive, b.hit.primitive);
            ordered_total += a.nodes_visited();
            unordered_total += b.nodes_visited();
        }
        assert!(unordered_total * 10 >= ordered_total * 9);
    }

    #[test]
    fn options_default_is_realistic() {
        let d = TraversalOptions::default();
        assert!(d.ordered_children);
        assert!(d.early_termination);
    }
}
