//! The 6-wide BVH the RT unit traverses, collapsed from the binary SAH
//! build.
//!
//! Every node — internal or leaf — is one 64-byte record in GPU memory
//! (paper Fig. 6). Internal nodes hold up to six children, each with its
//! bounding box and a pointer; leaf nodes reference a contiguous run of
//! triangles in the primitive buffer.

use crate::binary::{build_binary, BinaryBvh};
use crate::soa::{ChildHits, ChildSoa};
use rt_geometry::{Aabb, HitRecord, Ray, Triangle};
use std::num::NonZeroUsize;
use std::thread;

/// Maximum number of children of an internal node (the paper's 6-wide BVH).
pub const WIDE_ARITY: usize = 6;

/// Size of one BVH node record in bytes (paper Fig. 6).
pub const NODE_SIZE_BYTES: u64 = 64;

/// Bytes of primitive storage per triangle (three vertices, `3 × 3 × f32`,
/// padded to 48 bytes as in common GPU triangle buffers).
pub const TRIANGLE_SIZE_BYTES: u64 = 48;

/// Default maximum triangles per leaf.
pub const DEFAULT_MAX_LEAF_TRIS: u32 = 4;

/// Most nodes a tree holds: node ids are `u32`, and `u32::MAX` marks an
/// unused child lane.
pub(crate) const MAX_NODES: usize = u32::MAX as usize;

/// A borrowed view of one node of a [`WideBvh`]: an internal node's
/// child record, or a leaf's run of triangles read from its slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WideNode<'a> {
    /// An internal node with 1..=6 children.
    Internal(&'a ChildSoa),
    /// A leaf node: the run `first..first + count` of
    /// [`WideBvh::triangles`]. Its bounds are the in-order fold of those
    /// triangles' boxes ([`WideBvh::node_aabb`]).
    Leaf {
        /// First triangle index.
        first: u32,
        /// Number of triangles (at least 1).
        count: u32,
    },
}

impl<'a> WideNode<'a> {
    /// Child node indices (empty for leaves).
    pub fn child_nodes(self) -> impl DoubleEndedIterator<Item = u32> + 'a {
        self.internal()
            .map_or(&[][..], ChildSoa::child_nodes)
            .iter()
            .copied()
    }

    /// The internal node's child record, or `None` for a leaf.
    #[inline]
    pub fn internal(self) -> Option<&'a ChildSoa> {
        match self {
            WideNode::Internal(children) => Some(children),
            WideNode::Leaf { .. } => None,
        }
    }

    /// The leaf's `(first, count)` triangle run, or `None` for an
    /// internal node.
    #[inline]
    pub fn leaf(self) -> Option<(u32, u32)> {
        match self {
            WideNode::Internal(_) => None,
            WideNode::Leaf { first, count } => Some((first, count)),
        }
    }
}

/// The node storage of a [`WideBvh`]: one 8-byte slot per node id and
/// one [`ChildSoa`] per internal node, in node order.
///
/// A leaf's slot holds its triangle count in the high 32 bits and its
/// first triangle in the low 32; an internal node's slot holds zero high
/// bits and the index of its record in `internals`. A leaf holds at
/// least one triangle, so the high bits tell the two apart, and a leaf
/// visit reads nothing but its slot.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeStore {
    slots: Vec<u64>,
    internals: Vec<ChildSoa>,
}

impl NodeStore {
    /// An empty store with room for `nodes` node ids and `internals`
    /// internal records.
    pub(crate) fn with_capacity(nodes: usize, internals: usize) -> NodeStore {
        NodeStore {
            slots: Vec::with_capacity(nodes),
            internals: Vec::with_capacity(internals),
        }
    }

    /// Appends a leaf over triangles `first..first + count` and returns
    /// its node id.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub(crate) fn push_leaf(&mut self, first: u32, count: u32) -> u32 {
        assert!(count > 0, "a leaf holds at least one triangle");
        self.push_slot(u64::from(count) << 32 | u64::from(first))
    }

    /// Appends an internal node and returns its node id.
    pub(crate) fn push_internal(&mut self, children: ChildSoa) -> u32 {
        self.internals.push(children);
        self.push_slot(self.internals.len() as u64 - 1)
    }

    fn push_slot(&mut self, slot: u64) -> u32 {
        assert!(self.slots.len() < MAX_NODES, "too many nodes");
        self.slots.push(slot);
        self.slots.len() as u32 - 1
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
    /// A large soup's independent subtrees are built on the cores this
    /// process may run on; the tree is bit-identical at any core count.
    ///
    /// # Panics
    ///
    /// Panics if `triangles` is empty.
    pub fn build(&self, triangles: Vec<Triangle>) -> WideBvh {
        let threads = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        self.build_on(triangles, threads)
    }

    /// [`WideBvhBuilder::build`] on up to `threads` threads.
    pub(crate) fn build_on(&self, triangles: Vec<Triangle>, threads: usize) -> WideBvh {
        let binary = build_binary(&triangles, self.max_leaf_tris, threads);
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
/// every leaf references a contiguous range. Each node is read through
/// [`WideBvh::node`]: an internal node is one flat [`ChildSoa`] record, a
/// leaf is its triangle run, held in the node's 8-byte slot. A leaf's
/// bounds are not stored beside it: they are its parent's lane, which
/// always equals the in-order fold of the leaf's triangle boxes
/// ([`WideBvh::node_aabb`]).
#[derive(Debug, Clone)]
pub struct WideBvh {
    nodes: NodeStore,
    triangles: Vec<Triangle>,
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

    /// Reassembles a `WideBvh` from decoded node records and a triangle
    /// buffer. This is the codec's back door: every structural invariant
    /// the builder guarantees is re-checked here so a checksum-valid but
    /// semantically bogus payload can never construct a tree that panics
    /// later in traversal.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated invariant:
    /// empty arrays, out-of-range child or triangle references, arity
    /// violations, unreachable or multiply-referenced nodes, or
    /// triangles not covered by exactly one leaf. Leaf bounds are the
    /// decoder's to check: it holds the bounds the artifact stored.
    pub(crate) fn from_parts(
        nodes: NodeStore,
        triangles: Vec<Triangle>,
    ) -> Result<WideBvh, String> {
        if nodes.slots.is_empty() {
            return Err("node array is empty".to_string());
        }
        if triangles.is_empty() {
            return Err("triangle buffer is empty".to_string());
        }
        // The checks read one slot or record at a time; the expected
        // visits follow child references, so they wait for the checks.
        let bvh = WideBvh {
            nodes,
            triangles,
            expected_visits: 0.0,
        };
        let (n, triangles) = (bvh.node_count(), &bvh.triangles);
        let mut visited = vec![false; n];
        let mut tri_covered = vec![false; triangles.len()];
        // Every node is pushed at most once, so the stack never grows.
        let mut stack = Vec::with_capacity(n);
        stack.push(0u32);
        visited[0] = true;
        while let Some(i) = stack.pop() {
            match bvh.node(i) {
                WideNode::Internal(children) => {
                    if children.is_empty() || children.len() > WIDE_ARITY {
                        return Err(format!(
                            "node {i} has {} children (arity 1..={WIDE_ARITY})",
                            children.len()
                        ));
                    }
                    for child in children.child_nodes().iter().copied() {
                        if child as usize >= n {
                            return Err(format!("node {i} references child {child} of {n}"));
                        }
                        if visited[child as usize] {
                            return Err(format!(
                                "node {child} referenced more than once (shared or cyclic)"
                            ));
                        }
                        visited[child as usize] = true;
                        stack.push(child);
                    }
                }
                WideNode::Leaf { first, count } => {
                    let (first, count) = (first as usize, count as usize);
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
        Ok(WideBvh::assemble(bvh.nodes, bvh.triangles))
    }

    /// A tree over `nodes` and `triangles`, with the room reserved past
    /// the records released and the expected visits computed.
    fn assemble(mut nodes: NodeStore, triangles: Vec<Triangle>) -> WideBvh {
        nodes.slots.shrink_to_fit();
        nodes.internals.shrink_to_fit();
        let mut bvh = WideBvh {
            nodes,
            triangles,
            expected_visits: 0.0,
        };
        bvh.expected_visits = expected_visits(&bvh);
        bvh
    }

    /// Node `id`, read from its slot (panics past
    /// [`WideBvh::node_count`]).
    #[inline]
    pub fn node(&self, id: u32) -> WideNode<'_> {
        let slot = self.nodes.slots[id as usize];
        match (slot >> 32) as u32 {
            0 => WideNode::Internal(&self.nodes.internals[slot as usize]),
            count => WideNode::Leaf {
                first: slot as u32,
                count,
            },
        }
    }

    /// Bounds of node `id`: for a leaf, its triangles' boxes folded in
    /// triangle order; for an internal node, its child lanes folded in
    /// child order. A leaf's result is bit-identical to its lane in its
    /// parent, which the builder, [`WideBvh::refit`] and the decoder
    /// all hold to.
    pub fn node_aabb(&self, id: u32) -> Aabb {
        match self.node(id) {
            WideNode::Internal(children) => children.aabb(),
            WideNode::Leaf { first, count } => {
                let mut b = Aabb::empty();
                let first = first as usize;
                for t in &self.triangles[first..first + count as usize] {
                    b.grow_box(&t.aabb());
                }
                b
            }
        }
    }

    /// The reordered triangles.
    pub fn triangles(&self) -> &[Triangle] {
        &self.triangles
    }

    /// Number of nodes (internal nodes and leaves).
    pub fn node_count(&self) -> usize {
        self.nodes.slots.len()
    }

    /// Index of the root node (always 0).
    pub fn root(&self) -> u32 {
        0
    }

    /// Bounds of the whole scene.
    pub fn root_aabb(&self) -> Aabb {
        self.node_aabb(0)
    }

    /// Maximum depth of the tree (root = depth 1, matching how the paper's
    /// Table 2 counts a 7-level WKND tree).
    pub fn depth(&self) -> u32 {
        let mut max_depth = 0;
        let mut stack = vec![(0u32, 1u32)];
        while let Some((n, d)) = stack.pop() {
            max_depth = max_depth.max(d);
            for c in self.node(n).child_nodes() {
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
        self.node_count() as u64 * NODE_SIZE_BYTES
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
        // Post-order, children before parents, so that an internal
        // child's lanes hold their new bounds when its parent's lane
        // folds them; a leaf's lane is the fold of its triangles. An
        // explicit stack with an expansion flag avoids recursion on deep
        // trees.
        let mut stack: Vec<(u32, bool)> = vec![(self.root(), false)];
        while let Some((node, expanded)) = stack.pop() {
            let WideNode::Internal(children) = self.node(node) else {
                continue;
            };
            if !expanded {
                stack.push((node, true));
                stack.extend(children.child_nodes().iter().map(|&c| (c, false)));
            } else {
                let mut children = *children;
                for (lane, c) in children.nodes[..children.len()].iter().enumerate() {
                    children.bounds.set(lane, &self.node_aabb(*c));
                }
                self.nodes.internals[self.nodes.slots[node as usize] as usize] = children;
            }
        }
        self.expected_visits = expected_visits(self);
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
            match self.node(node) {
                WideNode::Internal(children) => {
                    // Batched test of all children at once, then push
                    // far-to-near so the nearest is popped first.
                    let mut hits = ChildHits::new();
                    children.intersect_into(&ray, inv, &mut hits);
                    hits.sort_far_first();
                    stack.extend_from_slice(hits.as_slice());
                }
                WideNode::Leaf { first, count } => {
                    for i in first..first + count {
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
///
/// Each binary leaf becomes one wide leaf and no binary node more than
/// one wide node, so every array is sized once, up front.
fn collapse(binary: BinaryBvh, triangles: Vec<Triangle>) -> WideBvh {
    // Apply the triangle permutation so leaves reference contiguous runs.
    let reordered: Vec<Triangle> = binary
        .order
        .iter()
        .map(|&i| triangles[i as usize])
        .collect();
    let leaf_count = binary.nodes.iter().filter(|b| b.is_leaf()).count();
    let internal_bound = binary.nodes.len() - leaf_count;
    let mut nodes = NodeStore::with_capacity(binary.nodes.len(), internal_bound);
    if binary.nodes[0].is_leaf() {
        nodes.push_leaf(binary.nodes[0].first, binary.nodes[0].count);
        return WideBvh::assemble(nodes, reordered);
    }

    // Reserve the wide root, then expand depth-first. Each work item is
    // (internal record index, binary node index of an internal node).
    nodes.push_internal(ChildSoa::empty());
    let mut work = Vec::with_capacity(internal_bound);
    work.push((0, 0u32));
    while let Some((record, bin_idx)) = work.pop() {
        // Adopt up to WIDE_ARITY binary subtree roots.
        let bn = &binary.nodes[bin_idx as usize];
        let mut adopted = [0u32; WIDE_ARITY];
        adopted[..2].copy_from_slice(&[bn.left, bn.right]);
        let mut len = 2;
        while len < WIDE_ARITY {
            // Expand the internal adopted subtree with the largest area.
            let candidate = adopted[..len]
                .iter()
                .enumerate()
                .filter(|(_, &b)| !binary.nodes[b as usize].is_leaf())
                .max_by(|a, b| {
                    let sa = binary.nodes[*a.1 as usize].aabb.surface_area();
                    let sb = binary.nodes[*b.1 as usize].aabb.surface_area();
                    sa.total_cmp(&sb)
                })
                .map(|(i, _)| i);
            let Some(i) = candidate else {
                break; // everything adopted is a leaf
            };
            // Swap-remove the expanded subtree, then append its children.
            let bn = &binary.nodes[adopted[i] as usize];
            adopted[i] = adopted[len - 1];
            adopted[len - 1] = bn.left;
            adopted[len] = bn.right;
            len += 1;
        }
        // Materialize each adopted subtree as a wide child node.
        let mut children = ChildSoa::empty();
        for &b in &adopted[..len] {
            let bn = &binary.nodes[b as usize];
            // A binary leaf's bounds are the in-order fold of its
            // triangle boxes, so its lane is what `node_aabb` folds.
            let child = if bn.is_leaf() {
                nodes.push_leaf(bn.first, bn.count)
            } else {
                let child = nodes.push_internal(ChildSoa::empty());
                work.push((nodes.internals.len() - 1, b));
                child
            };
            children.push(&bn.aabb, child);
        }
        nodes.internals[record] = children;
    }
    WideBvh::assemble(nodes, reordered)
}

/// Whether `a` and `b` hold the same six floats bit for bit (so `-0.0`
/// differs from `0.0`, and a NaN equals itself).
pub(crate) fn same_bits(a: &Aabb, b: &Aabb) -> bool {
    let bits = |b: &Aabb| [b.min, b.max].map(|v| v.to_array().map(f32::to_bits));
    bits(a) == bits(b)
}

/// See [`WideBvh::expected_visits_per_ray`].
///
/// A leaf's area is read from its lane in its parent, which is
/// bit-identical to the fold of its triangles, so no triangle is read.
fn expected_visits(bvh: &WideBvh) -> f64 {
    let root = f64::from(bvh.root_aabb().surface_area());
    let all = bvh.node_count() as f64;
    if !(root.is_finite() && root > 0.0) {
        return all;
    }
    let mut leaf_area = vec![0.0f32; bvh.node_count()];
    for children in &bvh.nodes.internals {
        for (lane, &c) in children.child_nodes().iter().enumerate() {
            leaf_area[c as usize] = children.bounds.get(lane).surface_area();
        }
    }
    let below: f64 = (1..bvh.node_count() as u32)
        .map(|id| match bvh.node(id) {
            WideNode::Internal(children) => f64::from(children.aabb().surface_area()),
            WideNode::Leaf { .. } => f64::from(leaf_area[id as usize]),
        })
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

    /// Checks the invariants `from_parts` enforces, then that every
    /// lane contains its child's bounds and a leaf child's lane is, bit
    /// for bit, the fold of the leaf's triangle boxes.
    fn validate(bvh: &WideBvh) {
        WideBvh::from_parts(bvh.nodes.clone(), bvh.triangles.clone()).expect("a valid tree");
        for id in 0..bvh.node_count() as u32 {
            let Some(children) = bvh.node(id).internal() else {
                continue;
            };
            for (lane, &c) in children.child_nodes().iter().enumerate() {
                let (stored, folded) = (children.bounds.get(lane), bvh.node_aabb(c));
                assert!(stored.contains_box(&folded));
                if bvh.node(c).leaf().is_some() {
                    assert!(same_bits(&stored, &folded), "leaf {c}'s lane");
                }
            }
        }
    }

    /// Asserts that `bvh` holds, and has room for, one child record per
    /// internal node and one slot per node.
    fn assert_one_record_per_node(bvh: &WideBvh) {
        let nodes = &bvh.nodes;
        let leaves = nodes.slots.iter().filter(|&&s| s >> 32 != 0).count();
        let internals = bvh.node_count() - leaves;
        assert_eq!(nodes.internals.len(), internals);
        assert_eq!(
            std::mem::size_of_val(&nodes.slots[..]),
            8 * bvh.node_count()
        );
        assert_eq!(nodes.slots.capacity(), bvh.node_count());
        assert_eq!(nodes.internals.capacity(), internals);
    }

    #[test]
    fn single_triangle_tree() {
        let bvh = WideBvh::build(grid(1));
        assert_eq!(bvh.node_count(), 1);
        assert!(bvh.node(0).leaf().is_some());
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
        for id in 0..bvh.node_count() as u32 {
            if let WideNode::Internal(children) = bvh.node(id) {
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
        let internal = |children: [(Aabb, u32); 2]| {
            let mut record = ChildSoa::empty();
            for (aabb, node) in children {
                record.push(&aabb, node);
            }
            record
        };
        let mut nodes = NodeStore::default();
        nodes.push_internal(internal([(inner, 1), (c, 2)]));
        nodes.push_internal(internal([(a, 3), (bb, 4)]));
        nodes.push_leaf(2, 1);
        nodes.push_leaf(0, 1);
        nodes.push_leaf(1, 1);
        // One triangle per leaf whose box is exactly the leaf's lane.
        let spanning = |b: Aabb| Triangle::new(b.min, Vec3::new(b.max.x, b.min.y, b.min.z), b.max);
        let tris = vec![spanning(a), spanning(bb), spanning(c)];
        let bvh = WideBvh::from_parts(nodes, tris).expect("valid tree");
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
        assert_eq!(after, expected_visits(&bvh));
    }

    #[test]
    fn builder_respects_leaf_capacity() {
        let bvh = WideBvhBuilder::new().max_leaf_tris(1).build(grid(40));
        for id in 0..bvh.node_count() as u32 {
            if let Some((_, count)) = bvh.node(id).leaf() {
                assert_eq!(count, 1);
            }
        }
    }

    #[test]
    fn built_decoded_and_refitted_trees_hold_one_record_per_node() {
        // An internal node costs one 172-byte child record, and every
        // node an 8-byte slot, which is all a leaf costs.
        assert_eq!(std::mem::size_of::<ChildSoa>(), 172);
        let mut bvh = WideBvh::build(grid(333));
        assert!(bvh.node_count() > 100);
        assert_one_record_per_node(&bvh);
        let bytes = crate::encode_artifact(1, &bvh, &[]);
        let decoded = crate::BvhArtifact::from_bytes(&bytes).expect("round trip");
        assert_one_record_per_node(&decoded.bvh);
        let same = bvh.triangles().to_vec();
        bvh.refit(same);
        assert_one_record_per_node(&bvh);
    }

    /// A soup of `count` small random triangles scattered through a
    /// 200-unit cube, drawn from `seed`.
    fn random_soup(seed: u64, count: usize) -> Vec<Triangle> {
        let mut rng = rt_rng::SmallRng::seed_from_u64(seed);
        let mut f = |scale: f32| {
            let u = (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
            (u * 2.0 - 1.0) * scale
        };
        (0..count)
            .map(|_| {
                let base = Vec3::new(f(100.0), f(100.0), f(100.0));
                let a = Vec3::new(f(2.0), f(2.0), f(2.0));
                let b = Vec3::new(f(2.0), f(2.0), f(2.0));
                Triangle::new(base, base + a, base + b)
            })
            .collect()
    }

    /// Builds `triangles` on 1, 2, 3 and 4 threads and asserts that the
    /// four trees encode to the same bytes.
    fn assert_same_on_any_thread_count(builder: &WideBvhBuilder, triangles: Vec<Triangle>) {
        let encoded = |threads| {
            let mut w = rt_gpu_sim::ByteWriter::new();
            crate::encode_wide_bvh(&builder.build_on(triangles.clone(), threads), &mut w);
            w.into_bytes()
        };
        let serial = encoded(1);
        for threads in 2..=4 {
            assert!(encoded(threads) == serial, "{threads} threads");
        }
    }

    #[test]
    fn forked_builds_are_bit_identical_to_the_serial_build() {
        use crate::binary::FORK_MIN_TRIS;
        let builder = WideBvhBuilder::new();
        // Below, at and above the fork threshold; 5x forks twice on four
        // threads and on three (whose right half gets two).
        for count in [FORK_MIN_TRIS - 1, FORK_MIN_TRIS, 5 * FORK_MIN_TRIS] {
            assert_same_on_any_thread_count(&builder, random_soup(count as u64, count));
        }
        // A leaf root.
        assert_same_on_any_thread_count(&builder, grid(1));
        // Coincident centroids take the median split, forked ones too.
        let tri = Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y);
        assert_same_on_any_thread_count(&builder, vec![tri; 3 * FORK_MIN_TRIS]);
        // One triangle per leaf.
        let single = WideBvhBuilder::new().max_leaf_tris(1);
        assert_same_on_any_thread_count(&single, random_soup(1, 3 * FORK_MIN_TRIS));
    }
}
