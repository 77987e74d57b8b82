//! The 6-wide BVH the RT unit traverses, collapsed from the binary SAH
//! build.
//!
//! Every node — internal or leaf — is one 64-byte record in GPU memory
//! (paper Fig. 6). Internal nodes hold up to six children, each with its
//! bounding box and a pointer; leaf nodes reference a contiguous run of
//! triangles in the primitive buffer.

use crate::binary::{build_binary, BinaryBvh};
use crate::soa::{build_soa_table, ChildHits, ChildSoa};
use rt_geometry::{Aabb, HitRecord, Ray, Triangle};

/// Maximum number of children of an internal node (the paper's 6-wide BVH).
pub const WIDE_ARITY: usize = 6;

/// Size of one BVH node record in bytes (paper Fig. 6).
pub const NODE_SIZE_BYTES: u64 = 64;

/// Bytes of primitive storage per triangle (three vertices, `3 × 3 × f32`,
/// padded to 48 bytes as in common GPU triangle buffers).
pub const TRIANGLE_SIZE_BYTES: u64 = 48;

/// Default maximum triangles per leaf.
pub const DEFAULT_MAX_LEAF_TRIS: u32 = 4;

/// Reference to one child of an internal node: its bounds plus the index of
/// the child node record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WideChild {
    /// Bounding box of the child, stored in the parent for the ray-box test.
    pub aabb: Aabb,
    /// Index of the child node in [`WideBvh::nodes`].
    pub node: u32,
}

/// One 64-byte node of the wide BVH.
#[derive(Debug, Clone, PartialEq)]
pub enum WideNode {
    /// An internal node with 2..=6 children.
    Internal {
        /// The children, each with bounds and a node pointer.
        children: Vec<WideChild>,
    },
    /// A leaf node referencing `count` triangles starting at `first` in
    /// [`WideBvh::triangles`].
    Leaf {
        /// Bounds of the leaf's triangles.
        aabb: Aabb,
        /// First triangle index.
        first: u32,
        /// Number of triangles (at least 1).
        count: u32,
    },
}

impl WideNode {
    /// `true` for leaf nodes.
    pub fn is_leaf(&self) -> bool {
        matches!(self, WideNode::Leaf { .. })
    }

    /// Bounds of the node.
    pub fn aabb(&self) -> Aabb {
        match self {
            WideNode::Internal { children } => {
                let mut b = Aabb::empty();
                for c in children {
                    b.grow_box(&c.aabb);
                }
                b
            }
            WideNode::Leaf { aabb, .. } => *aabb,
        }
    }

    /// Child node indices (empty for leaves).
    pub fn child_nodes(&self) -> impl DoubleEndedIterator<Item = u32> + '_ {
        match self {
            WideNode::Internal { children } => children.as_slice(),
            WideNode::Leaf { .. } => &[],
        }
        .iter()
        .map(|c| c.node)
    }
}

/// Builder with the tunable construction parameters.
///
/// # Examples
///
/// ```
/// use rt_bvh::WideBvhBuilder;
/// use rt_geometry::{Triangle, Vec3};
///
/// let tris = vec![Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y)];
/// let bvh = WideBvhBuilder::new().max_leaf_tris(2).build(tris);
/// assert_eq!(bvh.triangles().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct WideBvhBuilder {
    max_leaf_tris: u32,
}

impl WideBvhBuilder {
    /// Creates a builder with the paper-default parameters.
    pub fn new() -> Self {
        WideBvhBuilder {
            max_leaf_tris: DEFAULT_MAX_LEAF_TRIS,
        }
    }

    /// Sets the maximum number of triangles per leaf (clamped to ≥ 1).
    pub fn max_leaf_tris(mut self, n: u32) -> Self {
        self.max_leaf_tris = n.max(1);
        self
    }

    /// Builds the wide BVH, consuming and reordering `triangles`.
    ///
    /// # Panics
    ///
    /// Panics if `triangles` is empty.
    pub fn build(&self, triangles: Vec<Triangle>) -> WideBvh {
        let binary = build_binary(&triangles, self.max_leaf_tris);
        collapse(binary, triangles)
    }
}

impl Default for WideBvhBuilder {
    fn default() -> Self {
        WideBvhBuilder::new()
    }
}

/// A 6-wide bounding volume hierarchy over a triangle soup.
///
/// Node 0 is the root. Triangles are reordered during construction so that
/// every leaf references a contiguous range.
#[derive(Debug, Clone)]
pub struct WideBvh {
    nodes: Vec<WideNode>,
    triangles: Vec<Triangle>,
    /// SoA mirror of every node's child list (see [`ChildSoa`]); what
    /// the traversal hot loops read instead of the per-node `Vec`s.
    children_soa: Vec<ChildSoa>,
    /// [`WideBvh::expected_visits_per_ray`], computed whenever the
    /// nodes or their bounds change.
    expected_visits: f64,
}

impl WideBvh {
    /// Builds a BVH with default parameters (binned SAH, 6-wide collapse,
    /// ≤ 4 triangles per leaf).
    ///
    /// # Panics
    ///
    /// Panics if `triangles` is empty.
    pub fn build(triangles: Vec<Triangle>) -> WideBvh {
        WideBvhBuilder::new().build(triangles)
    }

    /// Reassembles a `WideBvh` from a decoded node array and triangle
    /// buffer, re-deriving the [`ChildSoa`] mirror. This is the codec's
    /// back door: serialized artifacts store only nodes and triangles
    /// (the mirror is a pure function of the nodes), and every
    /// structural invariant the builder guarantees is re-checked here so
    /// a checksum-valid but semantically bogus payload can never
    /// construct a tree that panics later in traversal.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated invariant:
    /// empty arrays, out-of-range child or triangle references, arity
    /// violations, unreachable or multiply-referenced nodes, or
    /// triangles not covered by exactly one leaf.
    pub(crate) fn from_parts(
        nodes: Vec<WideNode>,
        triangles: Vec<Triangle>,
    ) -> Result<WideBvh, String> {
        if nodes.is_empty() {
            return Err("node array is empty".to_string());
        }
        if triangles.is_empty() {
            return Err("triangle buffer is empty".to_string());
        }
        let n = nodes.len();
        let mut visited = vec![false; n];
        let mut tri_covered = vec![false; triangles.len()];
        let mut stack = vec![0usize];
        visited[0] = true;
        while let Some(i) = stack.pop() {
            match &nodes[i] {
                WideNode::Internal { children } => {
                    if children.is_empty() || children.len() > WIDE_ARITY {
                        return Err(format!(
                            "node {i} has {} children (arity 1..={WIDE_ARITY})",
                            children.len()
                        ));
                    }
                    for c in children {
                        let child = c.node as usize;
                        if child >= n {
                            return Err(format!("node {i} references child {child} of {n}"));
                        }
                        if visited[child] {
                            return Err(format!(
                                "node {child} referenced more than once (shared or cyclic)"
                            ));
                        }
                        visited[child] = true;
                        stack.push(child);
                    }
                }
                WideNode::Leaf { first, count, .. } => {
                    if *count == 0 {
                        return Err(format!("leaf {i} is empty"));
                    }
                    let first = *first as usize;
                    let count = *count as usize;
                    if first + count > triangles.len() {
                        return Err(format!(
                            "leaf {i} covers triangles {first}..{} of {}",
                            first + count,
                            triangles.len()
                        ));
                    }
                    for covered in &mut tri_covered[first..first + count] {
                        if *covered {
                            return Err(format!("leaf {i} re-covers a triangle"));
                        }
                        *covered = true;
                    }
                }
            }
        }
        if let Some(orphan) = visited.iter().position(|&r| !r) {
            return Err(format!("node {orphan} is unreachable from the root"));
        }
        if let Some(tri) = tri_covered.iter().position(|&c| !c) {
            return Err(format!("triangle {tri} not covered by any leaf"));
        }
        Ok(WideBvh::assemble(nodes, triangles))
    }

    /// A tree over `nodes` and `triangles` with its derived state — the
    /// SoA mirror and the expected visits — computed from the nodes.
    fn assemble(nodes: Vec<WideNode>, triangles: Vec<Triangle>) -> WideBvh {
        let children_soa = build_soa_table(&nodes);
        let expected_visits = expected_visits(&nodes);
        WideBvh {
            nodes,
            triangles,
            children_soa,
            expected_visits,
        }
    }

    /// The node array; index 0 is the root.
    pub fn nodes(&self) -> &[WideNode] {
        &self.nodes
    }

    /// The reordered triangles.
    pub fn triangles(&self) -> &[Triangle] {
        &self.triangles
    }

    /// The node-indexed SoA mirror of every node's child bounds and
    /// pointers (empty records for leaves). Kept in lockstep with
    /// [`WideBvh::nodes`] by construction and [`WideBvh::refit`].
    pub fn children_soa(&self) -> &[ChildSoa] {
        &self.children_soa
    }

    /// Number of nodes (internal + leaf records).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Index of the root node (always 0).
    pub fn root(&self) -> u32 {
        0
    }

    /// Bounds of the whole scene.
    pub fn root_aabb(&self) -> Aabb {
        self.nodes[0].aabb()
    }

    /// Maximum depth of the tree (root = depth 1, matching how the paper's
    /// Table 2 counts a 7-level WKND tree).
    pub fn depth(&self) -> u32 {
        let mut max_depth = 0;
        let mut stack = vec![(0u32, 1u32)];
        while let Some((n, d)) = stack.pop() {
            max_depth = max_depth.max(d);
            for c in self.nodes[n as usize].child_nodes() {
                stack.push((c, d + 1));
            }
        }
        max_depth
    }

    /// Node visits a ray is expected to make, by the surface-area
    /// heuristic the builder minimises (MacDonald & Booth, 1990): a ray
    /// that hits the root's box hits node `n`'s box with probability
    /// `SA(n) / SA(root)`, so the expectation is
    /// `1 + Σ_{n ≠ root} SA(n) / SA(root)`, summed in `f64` in node
    /// order. A tree whose root box has no finite, positive area reads
    /// its node count (every node visited). Computed once per tree, by
    /// the build, decode and [`WideBvh::refit`].
    pub fn expected_visits_per_ray(&self) -> f64 {
        self.expected_visits
    }

    /// Total bytes of node records.
    pub fn node_bytes(&self) -> u64 {
        self.nodes.len() as u64 * NODE_SIZE_BYTES
    }

    /// Total bytes of triangle storage.
    pub fn triangle_bytes(&self) -> u64 {
        self.triangles.len() as u64 * TRIANGLE_SIZE_BYTES
    }

    /// Refits every node's bounds bottom-up after the triangles deformed
    /// **without changing topology** — the standard technique for
    /// animated scenes (rebuild-free frame updates). The triangle at
    /// index `i` of `triangles` replaces the current triangle `i` (the
    /// *reordered* order exposed by [`WideBvh::triangles`]).
    ///
    /// # Panics
    ///
    /// Panics if `triangles.len()` differs from the current count.
    pub fn refit(&mut self, triangles: Vec<Triangle>) {
        assert_eq!(
            triangles.len(),
            self.triangles.len(),
            "refit requires the same triangle count (same topology)"
        );
        self.triangles = triangles;
        // Post-order: children before parents. An explicit stack with an
        // expansion flag avoids recursion on deep trees.
        let mut new_bounds: Vec<Aabb> = vec![Aabb::empty(); self.nodes.len()];
        let mut stack: Vec<(u32, bool)> = vec![(self.root(), false)];
        while let Some((node, expanded)) = stack.pop() {
            match &self.nodes[node as usize] {
                WideNode::Leaf { first, count, .. } => {
                    let mut b = Aabb::empty();
                    for i in *first..*first + *count {
                        b.grow_box(&self.triangles[i as usize].aabb());
                    }
                    new_bounds[node as usize] = b;
                }
                WideNode::Internal { children } => {
                    if expanded {
                        let mut b = Aabb::empty();
                        for c in children {
                            b.grow_box(&new_bounds[c.node as usize]);
                        }
                        new_bounds[node as usize] = b;
                    } else {
                        stack.push((node, true));
                        for c in children {
                            stack.push((c.node, false));
                        }
                    }
                }
            }
        }
        // Write the refitted bounds back into the nodes, then rebuild
        // the SoA mirror so traversal sees the new child bounds.
        for idx in 0..self.nodes.len() {
            match &mut self.nodes[idx] {
                WideNode::Leaf { aabb, .. } => *aabb = new_bounds[idx],
                WideNode::Internal { children } => {
                    for c in children.iter_mut() {
                        c.aabb = new_bounds[c.node as usize];
                    }
                }
            }
        }
        self.children_soa = build_soa_table(&self.nodes);
        self.expected_visits = expected_visits(&self.nodes);
    }

    /// Closest-hit reference traversal on the CPU.
    ///
    /// This is the *functional* ground truth used to validate the RT-unit
    /// traversal algorithms and to spawn bounce rays; it performs ordinary
    /// single-stack DFS with early ray termination.
    pub fn intersect(&self, ray: &Ray) -> HitRecord {
        let mut ray = *ray;
        let inv = ray.inv_direction();
        let mut hit = HitRecord::new();
        let mut stack: Vec<(u32, f32)> = Vec::with_capacity(64);
        if self.root_aabb().intersect(&ray, inv).is_some() {
            stack.push((0, ray.t_min));
        }
        while let Some((node, entry)) = stack.pop() {
            if entry > ray.t_max {
                continue; // early ray termination
            }
            match &self.nodes[node as usize] {
                WideNode::Internal { .. } => {
                    // Batched test of all children at once, then push
                    // far-to-near so the nearest is popped first.
                    let mut hits = ChildHits::new();
                    self.children_soa[node as usize].intersect_into(&ray, inv, &mut hits);
                    hits.sort_far_first();
                    stack.extend_from_slice(hits.as_slice());
                }
                WideNode::Leaf { first, count, .. } => {
                    for i in *first..*first + *count {
                        if let Some(t) = self.triangles[i as usize].intersect(&ray) {
                            if hit.update(t, i) {
                                ray.t_max = t;
                            }
                        }
                    }
                }
            }
        }
        hit
    }
}

/// Collapses a binary BVH into a 6-wide BVH.
///
/// Starting from the binary root, each wide node adopts up to six binary
/// subtree roots by repeatedly replacing the adopted internal subtree with
/// the largest surface area by its two children — the standard BVH2→BVH*N*
/// collapse that wide-BVH papers (e.g. Ylitie et al. 2017) use.
fn collapse(binary: BinaryBvh, triangles: Vec<Triangle>) -> WideBvh {
    // Apply the triangle permutation so leaves reference contiguous runs.
    let reordered: Vec<Triangle> = binary
        .order
        .iter()
        .map(|&i| triangles[i as usize])
        .collect();

    let mut nodes: Vec<WideNode> = Vec::new();
    if binary.nodes[0].is_leaf() {
        let b = &binary.nodes[0];
        nodes.push(WideNode::Leaf {
            aabb: b.aabb,
            first: b.first,
            count: b.count,
        });
        return WideBvh::assemble(nodes, reordered);
    }

    // Reserve the wide root, then expand breadth-first. Each work item is
    // (wide node index, binary node index of an internal node).
    nodes.push(WideNode::Internal {
        children: Vec::new(),
    });
    let mut work = vec![(0u32, 0u32)];
    while let Some((wide_idx, bin_idx)) = work.pop() {
        // Adopt up to WIDE_ARITY binary subtree roots.
        let bn = &binary.nodes[bin_idx as usize];
        let mut adopted: Vec<u32> = vec![bn.left, bn.right];
        loop {
            if adopted.len() >= WIDE_ARITY {
                break;
            }
            // Expand the internal adopted subtree with the largest area.
            let candidate = adopted
                .iter()
                .enumerate()
                .filter(|(_, &b)| !binary.nodes[b as usize].is_leaf())
                .max_by(|a, b| {
                    let sa = binary.nodes[*a.1 as usize].aabb.surface_area();
                    let sb = binary.nodes[*b.1 as usize].aabb.surface_area();
                    sa.total_cmp(&sb)
                })
                .map(|(i, _)| i);
            match candidate {
                Some(i) => {
                    let b = adopted.swap_remove(i);
                    let bn = &binary.nodes[b as usize];
                    adopted.push(bn.left);
                    adopted.push(bn.right);
                }
                None => break, // everything adopted is a leaf
            }
        }
        // Materialize each adopted subtree as a wide child node.
        let mut children = Vec::with_capacity(adopted.len());
        for b in adopted {
            let bn = &binary.nodes[b as usize];
            let child_idx = nodes.len() as u32;
            if bn.is_leaf() {
                nodes.push(WideNode::Leaf {
                    aabb: bn.aabb,
                    first: bn.first,
                    count: bn.count,
                });
            } else {
                nodes.push(WideNode::Internal {
                    children: Vec::new(),
                });
                work.push((child_idx, b));
            }
            children.push(WideChild {
                aabb: bn.aabb,
                node: child_idx,
            });
        }
        nodes[wide_idx as usize] = WideNode::Internal { children };
    }
    WideBvh::assemble(nodes, reordered)
}

/// See [`WideBvh::expected_visits_per_ray`].
fn expected_visits(nodes: &[WideNode]) -> f64 {
    let root = f64::from(nodes[0].aabb().surface_area());
    let all = nodes.len() as f64;
    if !(root.is_finite() && root > 0.0) {
        return all;
    }
    let below: f64 = nodes[1..]
        .iter()
        .map(|n| f64::from(n.aabb().surface_area()))
        .sum();
    let visits = 1.0 + below / root;
    if visits.is_finite() {
        visits
    } else {
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_geometry::Vec3;

    fn grid(n: usize) -> Vec<Triangle> {
        (0..n)
            .map(|i| {
                let x = (i % 16) as f32 * 2.0;
                let z = (i / 16) as f32 * 2.0;
                Triangle::new(
                    Vec3::new(x, 0.0, z),
                    Vec3::new(x + 1.0, 0.0, z),
                    Vec3::new(x, 1.0, z + 1.0),
                )
            })
            .collect()
    }

    fn validate(bvh: &WideBvh) {
        let mut visited = vec![false; bvh.node_count()];
        let mut covered = vec![false; bvh.triangles().len()];
        let mut stack = vec![0u32];
        assert_eq!(bvh.children_soa().len(), bvh.node_count());
        while let Some(n) = stack.pop() {
            assert!(!visited[n as usize], "node {n} reachable twice");
            visited[n as usize] = true;
            // The SoA mirror must agree with the node's own child list.
            let soa = &bvh.children_soa()[n as usize];
            match &bvh.nodes()[n as usize] {
                WideNode::Internal { children } => {
                    assert_eq!(soa.len(), children.len(), "SoA lane count desynced");
                    for (i, c) in children.iter().enumerate() {
                        assert_eq!(soa.bounds.get(i), c.aabb, "SoA bounds desynced");
                        assert_eq!(soa.nodes[i], c.node, "SoA pointer desynced");
                    }
                    assert!(!children.is_empty());
                    assert!(children.len() <= WIDE_ARITY);
                    for c in children {
                        // The stored child bounds must contain the child's
                        // own bounds.
                        assert!(c.aabb.contains_box(&bvh.nodes()[c.node as usize].aabb()));
                        stack.push(c.node);
                    }
                }
                WideNode::Leaf { first, count, aabb } => {
                    assert!(soa.is_empty(), "leaf {n} has SoA children");
                    assert!(*count >= 1);
                    for i in *first..*first + *count {
                        assert!(!covered[i as usize], "triangle {i} in two leaves");
                        covered[i as usize] = true;
                        assert!(aabb.contains_box(&bvh.triangles()[i as usize].aabb()));
                    }
                }
            }
        }
        assert!(visited.iter().all(|&v| v), "unreachable nodes exist");
        assert!(
            covered.iter().all(|&c| c),
            "triangles not covered by leaves"
        );
    }

    #[test]
    fn single_triangle_tree() {
        let bvh = WideBvh::build(grid(1));
        assert_eq!(bvh.node_count(), 1);
        assert!(bvh.nodes()[0].is_leaf());
        assert_eq!(bvh.depth(), 1);
        validate(&bvh);
    }

    #[test]
    fn structure_is_valid_for_grids() {
        for n in [2, 5, 16, 100, 333] {
            validate(&WideBvh::build(grid(n)));
        }
    }

    #[test]
    fn arity_bound_holds() {
        let bvh = WideBvh::build(grid(500));
        for node in bvh.nodes() {
            if let WideNode::Internal { children } = node {
                assert!(children.len() <= WIDE_ARITY);
                assert!(children.len() >= 2);
            }
        }
    }

    #[test]
    fn depth_grows_with_size() {
        let small = WideBvh::build(grid(8));
        let large = WideBvh::build(grid(1000));
        assert!(large.depth() > small.depth());
        assert!(large.depth() >= 3);
    }

    #[test]
    fn wide_tree_is_shallower_than_leaf_count_suggests() {
        let bvh = WideBvh::build(grid(600));
        // 6-wide with 4-tri leaves: depth should be logarithmic, well under
        // a binary tree's depth.
        assert!(bvh.depth() <= 10, "depth {} too deep", bvh.depth());
    }

    #[test]
    fn intersect_matches_brute_force() {
        let tris = grid(64);
        let bvh = WideBvh::build(tris.clone());
        for i in 0..32 {
            let ox = (i % 8) as f32 * 3.5 + 0.3;
            let oz = (i / 8) as f32 * 2.1 + 0.2;
            let ray = Ray::new(Vec3::new(ox, 5.0, oz), Vec3::new(0.01, -1.0, 0.02));
            let hit = bvh.intersect(&ray);
            // Brute force over the *original* order.
            let mut best = f32::INFINITY;
            for t in &tris {
                if let Some(d) = t.intersect(&ray) {
                    best = best.min(d);
                }
            }
            if best.is_finite() {
                let t = hit.t;
                assert!((t - best).abs() < 1e-4, "ray {i}: bvh t={t} brute={best}");
            } else {
                assert!(!hit.is_hit(), "ray {i}: bvh found spurious hit");
            }
        }
    }

    #[test]
    fn miss_returns_miss() {
        let bvh = WideBvh::build(grid(16));
        let ray = Ray::new(Vec3::new(0.0, 10.0, 0.0), Vec3::Y);
        assert!(!bvh.intersect(&ray).is_hit());
    }

    #[test]
    fn byte_sizes() {
        let bvh = WideBvh::build(grid(100));
        assert_eq!(bvh.node_bytes(), bvh.node_count() as u64 * 64);
        assert_eq!(bvh.triangle_bytes(), 100 * 48);
    }

    #[test]
    fn refit_tracks_deformed_triangles() {
        let tris = grid(128);
        let mut bvh = WideBvh::build(tris);
        // Deform: translate everything and ripple the heights.
        let deformed: Vec<Triangle> = bvh
            .triangles()
            .iter()
            .map(|t| {
                let shift = |v: Vec3| Vec3::new(v.x + 3.0, v.y + (v.x * 0.7).sin(), v.z - 1.5);
                Triangle::new(shift(t.v0), shift(t.v1), shift(t.v2))
            })
            .collect();
        bvh.refit(deformed.clone());
        validate(&bvh);
        // Intersections against the refitted tree match brute force over
        // the deformed triangles.
        for i in 0..24 {
            let ox = (i % 6) as f32 * 5.0 + 1.0;
            let oz = (i / 6) as f32 * 7.0 - 1.0;
            let ray = Ray::new(Vec3::new(ox, 10.0, oz), Vec3::new(0.02, -1.0, 0.01));
            let hit = bvh.intersect(&ray);
            let brute = deformed
                .iter()
                .filter_map(|t| t.intersect(&ray))
                .fold(f32::INFINITY, f32::min);
            if brute.is_finite() {
                assert!(hit.is_hit(), "ray {i} missed after refit");
                assert!((hit.t - brute).abs() < 1e-4 * brute.max(1.0));
            } else {
                assert!(!hit.is_hit(), "ray {i} phantom hit after refit");
            }
        }
    }

    #[test]
    fn refit_identity_preserves_bounds() {
        let tris = grid(64);
        let mut bvh = WideBvh::build(tris);
        let before = bvh.root_aabb();
        let same = bvh.triangles().to_vec();
        bvh.refit(same);
        let after = bvh.root_aabb();
        assert_eq!(before.min, after.min);
        assert_eq!(before.max, after.max);
    }

    #[test]
    #[should_panic(expected = "same triangle count")]
    fn refit_with_wrong_count_panics() {
        let mut bvh = WideBvh::build(grid(8));
        bvh.refit(grid(9));
    }

    fn leaf(aabb: Aabb, first: u32) -> WideNode {
        WideNode::Leaf {
            aabb,
            first,
            count: 1,
        }
    }

    fn child(aabb: Aabb, node: u32) -> WideChild {
        WideChild { aabb, node }
    }

    #[test]
    fn expected_visits_match_the_closed_form() {
        // root → {inner → {a, b}, c}: SA(a) = SA(b) = 6, SA(inner) = 10,
        // SA(c) = 10, SA(root) = 28, so 1 + (10 + 10 + 6 + 6) / 28.
        let b = |lo: [f32; 3], hi: [f32; 3]| {
            Aabb::new(
                Vec3::new(lo[0], lo[1], lo[2]),
                Vec3::new(hi[0], hi[1], hi[2]),
            )
        };
        let a = b([0.0; 3], [1.0; 3]);
        let bb = b([1.0, 0.0, 0.0], [2.0, 1.0, 1.0]);
        let c = b([0.0, 0.0, 2.0], [1.0, 1.0, 4.0]);
        let inner = b([0.0; 3], [2.0, 1.0, 1.0]);
        let nodes = vec![
            WideNode::Internal {
                children: vec![child(inner, 1), child(c, 2)],
            },
            WideNode::Internal {
                children: vec![child(a, 3), child(bb, 4)],
            },
            leaf(c, 2),
            leaf(a, 0),
            leaf(bb, 1),
        ];
        let bvh = WideBvh::from_parts(nodes, grid(3)).expect("valid tree");
        assert_eq!(bvh.root_aabb().surface_area(), 28.0);
        let want = 1.0 + (10.0 + 10.0 + 6.0 + 6.0) / 28.0;
        assert!((bvh.expected_visits_per_ray() - want).abs() < 1e-12);
    }

    #[test]
    fn zero_area_root_reads_its_node_count() {
        // Every triangle lies on the x axis: the root box is a segment.
        let tris: Vec<Triangle> = (0..40)
            .map(|i| {
                let x = i as f32;
                Triangle::new(
                    Vec3::new(x, 0.0, 0.0),
                    Vec3::new(x + 0.5, 0.0, 0.0),
                    Vec3::new(x + 1.0, 0.0, 0.0),
                )
            })
            .collect();
        let bvh = WideBvh::build(tris);
        assert_eq!(bvh.root_aabb().surface_area(), 0.0);
        assert!(bvh.node_count() > 1);
        assert_eq!(bvh.expected_visits_per_ray(), bvh.node_count() as f64);
    }

    #[test]
    fn refit_recomputes_expected_visits() {
        let mut bvh = WideBvh::build(grid(128));
        let before = bvh.expected_visits_per_ray();
        // Stretch every triangle tall: the leaves grow against the root.
        let stretched: Vec<Triangle> = bvh
            .triangles()
            .iter()
            .map(|t| {
                let up = |v: Vec3| Vec3::new(v.x, v.y * 40.0, v.z);
                Triangle::new(up(t.v0), up(t.v1), up(t.v2))
            })
            .collect();
        bvh.refit(stretched);
        let after = bvh.expected_visits_per_ray();
        assert_ne!(before, after);
        assert_eq!(after, expected_visits(bvh.nodes()));
    }

    #[test]
    fn builder_respects_leaf_capacity() {
        let bvh = WideBvhBuilder::new().max_leaf_tris(1).build(grid(40));
        for node in bvh.nodes() {
            if let WideNode::Leaf { count, .. } = node {
                assert_eq!(*count, 1);
            }
        }
    }
}
