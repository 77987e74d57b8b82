//! Treelet formation (paper §3.1).
//!
//! Treelets are connected subtrees of the BVH, formed greedily from the
//! root: nodes are added breadth-first to the current treelet until its
//! byte budget is exhausted; every node still waiting on the traversal
//! queue then becomes the root of a future treelet. Because formation is
//! greedy, upper-level treelets tend to be full-size — which the paper
//! exploits, since upper levels are accessed most.

use crate::error::ConfigError;
use rt_bvh::{WideBvh, NODE_SIZE_BYTES};
use std::collections::VecDeque;
use std::fmt;

/// The paper's default maximum treelet size in bytes (512 B = 8 nodes).
pub const DEFAULT_TREELET_BYTES: u64 = 512;

/// Version of the formation algorithm's output. The preparation cache
/// key carries it, because cached artifacts hold a formed assignment
/// that runs read instead of forming their own: bump it whenever
/// [`TreeletAssignment::form`] could give a different partition for the
/// same tree, so no stale assignment is ever served.
pub(crate) const FORMATION_VERSION: u32 = 1;

/// How nodes are ordered while greedily growing a treelet.
///
/// The paper forms treelets breadth-first (§3.1); its future-work section
/// (§8) suggests "optimizing treelet formation with statistical metrics".
/// The two extra policies implement that exploration:
///
/// - [`FormationPolicy::GreedyDfs`] grows depth-first, producing deeper,
///   narrower treelets (more pointer-chase coverage per treelet, fewer
///   sibling nodes),
/// - [`FormationPolicy::SurfaceArea`] grows by largest bounding-box
///   surface area first — surface area is proportional to the probability
///   a random ray intersects the node (the SAH argument), so treelets
///   preferentially absorb the nodes rays are most likely to touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FormationPolicy {
    /// Breadth-first growth — the paper's algorithm.
    #[default]
    GreedyBfs,
    /// Depth-first growth (deeper treelets).
    GreedyDfs,
    /// Largest-surface-area-first growth (SAH-weighted).
    SurfaceArea,
}

impl fmt::Display for FormationPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FormationPolicy::GreedyBfs => "greedy-bfs",
            FormationPolicy::GreedyDfs => "greedy-dfs",
            FormationPolicy::SurfaceArea => "surface-area",
        })
    }
}

/// A partition of a BVH's nodes into treelets.
///
/// # Examples
///
/// ```
/// use rt_bvh::WideBvh;
/// use rt_geometry::{Triangle, Vec3};
/// use treelet_rt::TreeletAssignment;
///
/// let tris: Vec<Triangle> = (0..32)
///     .map(|i| {
///         let x = i as f32;
///         Triangle::new(
///             Vec3::new(x, 0.0, 0.0),
///             Vec3::new(x + 0.5, 0.0, 0.0),
///             Vec3::new(x, 0.5, 0.0),
///         )
///     })
///     .collect();
/// let bvh = WideBvh::build(tris);
/// let treelets = TreeletAssignment::form(&bvh, 512);
/// assert_eq!(treelets.of_node(bvh.root()), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeletAssignment {
    /// Per treelet, its first entry in `members`, plus one closing entry.
    start: Vec<u32>,
    /// Every treelet's members, treelet after treelet in formation
    /// order: treelet `g` is `members[start[g]..start[g + 1]]`, its root
    /// first and the rest in growth order.
    members: Vec<u32>,
    /// Treelet id of each node.
    of_node: Vec<u32>,
    /// Maximum treelet size in bytes used during formation.
    max_bytes: u64,
}

impl TreeletAssignment {
    /// Forms treelets over `bvh` with the greedy algorithm of §3.1.
    ///
    /// `max_bytes` is the treelet byte budget (the paper sweeps 256 B to
    /// 2048 B; 512 B is the default).
    ///
    /// # Panics
    ///
    /// Panics if `max_bytes` is smaller than one 64-byte node.
    pub fn form(bvh: &WideBvh, max_bytes: u64) -> TreeletAssignment {
        TreeletAssignment::form_with_policy(bvh, max_bytes, FormationPolicy::GreedyBfs)
    }

    /// Forms treelets with an explicit growth [`FormationPolicy`].
    ///
    /// # Panics
    ///
    /// Panics if `max_bytes` is smaller than one 64-byte node.
    pub fn form_with_policy(
        bvh: &WideBvh,
        max_bytes: u64,
        policy: FormationPolicy,
    ) -> TreeletAssignment {
        match TreeletAssignment::try_form_with_policy(bvh, max_bytes, policy) {
            Ok(t) => t,
            Err(_) => panic!("a treelet must fit at least one node"),
        }
    }

    /// Forms treelets with the greedy algorithm of §3.1, returning a
    /// typed error instead of panicking on an undersized budget.
    ///
    /// # Errors
    ///
    /// [`ConfigError::TreeletBudgetTooSmall`] if `max_bytes` cannot hold
    /// one 64-byte node.
    pub fn try_form(bvh: &WideBvh, max_bytes: u64) -> Result<TreeletAssignment, ConfigError> {
        TreeletAssignment::try_form_with_policy(bvh, max_bytes, FormationPolicy::GreedyBfs)
    }

    /// Forms treelets with an explicit growth [`FormationPolicy`],
    /// returning a typed error instead of panicking on an undersized
    /// budget.
    ///
    /// # Errors
    ///
    /// [`ConfigError::TreeletBudgetTooSmall`] if `max_bytes` cannot hold
    /// one 64-byte node.
    pub fn try_form_with_policy(
        bvh: &WideBvh,
        max_bytes: u64,
        policy: FormationPolicy,
    ) -> Result<TreeletAssignment, ConfigError> {
        if max_bytes < NODE_SIZE_BYTES {
            return Err(ConfigError::TreeletBudgetTooSmall { bytes: max_bytes });
        }
        let n = bvh.node_count();
        let mut of_node = vec![u32::MAX; n];
        // Sized for the most treelets possible (one per node) and
        // shrunk once formed: growing it by doubling would leave a trail
        // of freed blocks among the bench's long-lived data.
        let mut start = Vec::with_capacity(n + 1);
        start.push(0u32);
        let mut members = Vec::with_capacity(n);
        // pendingTreelets: roots of treelets not yet formed.
        let mut pending: VecDeque<u32> = VecDeque::new();
        pending.push_back(bvh.root());
        // Within-treelet work list, reused by every treelet.
        let mut queue: VecDeque<u32> = VecDeque::new();
        while let Some(root) = pending.pop_front() {
            let id = start.len() as u32 - 1;
            let mut remaining = max_bytes;
            // The pop discipline is the policy: BFS pops the front
            // (upper-level nodes land at the front of the treelet — the
            // property the PARTIAL heuristic relies on), DFS pops the
            // back, SurfaceArea pops the largest node.
            queue.clear();
            queue.push_back(root);
            while !queue.is_empty() {
                let node = match policy {
                    FormationPolicy::GreedyBfs => queue.pop_front().expect("checked non-empty"),
                    FormationPolicy::GreedyDfs => queue.pop_back().expect("checked non-empty"),
                    FormationPolicy::SurfaceArea => {
                        let best = queue
                            .iter()
                            .enumerate()
                            .max_by(|a, b| {
                                let sa = bvh.node_aabb(*a.1).surface_area();
                                let sb = bvh.node_aabb(*b.1).surface_area();
                                sa.total_cmp(&sb)
                            })
                            .map(|(i, _)| i)
                            .expect("checked non-empty");
                        queue.remove(best).expect("index in range")
                    }
                };
                if remaining >= NODE_SIZE_BYTES {
                    remaining -= NODE_SIZE_BYTES;
                    of_node[node as usize] = id;
                    members.push(node);
                    for child in bvh.node(node).child_nodes() {
                        queue.push_back(child);
                    }
                } else {
                    // No space left: this node and everything still queued
                    // become future treelet roots.
                    pending.push_back(node);
                }
            }
            start.push(members.len() as u32);
        }
        debug_assert!(of_node.iter().all(|&t| t != u32::MAX));
        start.shrink_to_fit();
        Ok(TreeletAssignment {
            start,
            members,
            of_node,
            max_bytes,
        })
    }

    /// Bytes [`TreeletAssignment::encode`] writes: the budget, the
    /// treelet count, and per treelet a length and its member ids.
    pub(crate) fn encoded_len(&self) -> usize {
        8 + 8 + self.count() * 8 + self.members.len() * 4
    }

    /// Appends the assignment to `w` for the preparation-artifact
    /// codec: the byte budget plus every treelet's member list in
    /// formation order (`of_node` is derived on decode).
    pub(crate) fn encode(&self, w: &mut rt_gpu_sim::ByteWriter) {
        w.put_u64(self.max_bytes);
        w.put_len(self.count());
        for members in self.as_slices() {
            w.put_len(members.len());
            for &node in members {
                w.put_u32(node);
            }
        }
    }

    /// Reads an assignment written by [`TreeletAssignment::encode`],
    /// validating it against a tree with `node_count` nodes: every node
    /// must land in exactly one treelet, member ids must be in range, and
    /// every treelet must be non-empty and within the byte budget, so a
    /// checksum-valid but bogus payload can never index out of bounds or
    /// overflow a layout slot at simulation time.
    pub(crate) fn decode(
        r: &mut rt_gpu_sim::ByteReader<'_>,
        node_count: usize,
    ) -> Result<TreeletAssignment, rt_gpu_sim::DecodeError> {
        use rt_gpu_sim::DecodeError;
        let max_bytes = r.take_u64()?;
        if max_bytes < NODE_SIZE_BYTES {
            return Err(DecodeError::malformed(format!(
                "treelet budget {max_bytes} below one node"
            )));
        }
        let treelet_count = r.take_len(8)?;
        let mut start = Vec::with_capacity(treelet_count + 1);
        start.push(0);
        let mut members = Vec::with_capacity(node_count);
        let mut of_node = vec![u32::MAX; node_count];
        for id in 0..treelet_count {
            let member_count = r.take_len(4)?;
            if member_count == 0 || member_count as u64 > max_bytes / NODE_SIZE_BYTES {
                return Err(DecodeError::malformed(format!(
                    "treelet {id} has {member_count} members, outside 1..={} for {max_bytes} B",
                    max_bytes / NODE_SIZE_BYTES
                )));
            }
            for _ in 0..member_count {
                let node = r.take_u32()?;
                let slot = of_node.get_mut(node as usize).ok_or_else(|| {
                    DecodeError::malformed(format!(
                        "treelet {id} member {node} outside {node_count} nodes"
                    ))
                })?;
                if *slot != u32::MAX {
                    return Err(DecodeError::malformed(format!(
                        "node {node} assigned to treelets {} and {id}",
                        *slot
                    )));
                }
                *slot = id as u32;
                members.push(node);
            }
            start.push(members.len() as u32);
        }
        if let Some(node) = of_node.iter().position(|&t| t == u32::MAX) {
            return Err(DecodeError::malformed(format!(
                "node {node} not assigned to any treelet"
            )));
        }
        Ok(TreeletAssignment {
            start,
            members,
            of_node,
            max_bytes,
        })
    }

    /// Number of treelets.
    pub fn count(&self) -> usize {
        self.start.len() - 1
    }

    /// Treelet id of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn of_node(&self, node: u32) -> u32 {
        self.of_node[node as usize]
    }

    /// Members of treelet `id`, root first, in formation order.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn members(&self, id: u32) -> &[u32] {
        &self.members[self.start[id as usize] as usize..self.start[id as usize + 1] as usize]
    }

    /// The membership lists of all treelets, in treelet-id order.
    pub fn as_slices(&self) -> impl ExactSizeIterator<Item = &[u32]> + Clone + '_ {
        self.start
            .windows(2)
            .map(|w| &self.members[w[0] as usize..w[1] as usize])
    }

    /// Nodes the assignment places in a treelet: the node count of the
    /// tree it was formed over.
    pub(crate) fn covered_nodes(&self) -> usize {
        self.members.len()
    }

    /// Byte budget treelets were formed with.
    pub fn max_bytes(&self) -> u64 {
        self.max_bytes
    }

    /// Occupied bytes of treelet `id`.
    pub fn occupied_bytes(&self, id: u32) -> u64 {
        self.members(id).len() as u64 * NODE_SIZE_BYTES
    }

    /// Mean fraction of the byte budget that treelets actually occupy.
    pub fn mean_occupancy(&self) -> f64 {
        if self.count() == 0 {
            return 0.0;
        }
        let total = self.members.len() as u64 * NODE_SIZE_BYTES;
        total as f64 / (self.max_bytes as f64 * self.count() as f64)
    }

    /// `true` if `a` and `b` are in the same treelet (the child-bit test of
    /// Algorithm 1, line 13).
    pub fn same_treelet(&self, a: u32, b: u32) -> bool {
        self.of_node(a) == self.of_node(b)
    }
}

impl fmt::Display for TreeletAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} treelets (max {} B, {:.0}% mean occupancy)",
            self.count(),
            self.max_bytes,
            self.mean_occupancy() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_geometry::{Triangle, Vec3};

    fn grid_bvh(n: usize) -> WideBvh {
        let tris: Vec<Triangle> = (0..n)
            .map(|i| {
                let x = (i % 32) as f32 * 2.0;
                let z = (i / 32) as f32 * 2.0;
                Triangle::new(
                    Vec3::new(x, 0.0, z),
                    Vec3::new(x + 1.0, 0.0, z),
                    Vec3::new(x, 1.0, z),
                )
            })
            .collect();
        WideBvh::build(tris)
    }

    #[test]
    fn every_node_is_assigned_exactly_once() {
        let bvh = grid_bvh(300);
        let a = TreeletAssignment::form(&bvh, 512);
        let mut seen = vec![false; bvh.node_count()];
        for g in 0..a.count() as u32 {
            for &m in a.members(g) {
                assert!(!seen[m as usize], "node {m} in two treelets");
                seen[m as usize] = true;
                assert_eq!(a.of_node(m), g);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn treelets_respect_byte_budget() {
        let bvh = grid_bvh(300);
        for bytes in [256u64, 512, 1024, 2048] {
            let a = TreeletAssignment::form(&bvh, bytes);
            for g in 0..a.count() as u32 {
                assert!(a.occupied_bytes(g) <= bytes);
                assert!(!a.members(g).is_empty());
            }
        }
    }

    #[test]
    fn treelets_are_connected() {
        // Every member except the treelet root must have its parent in the
        // same treelet (treelets are connected subtrees).
        let bvh = grid_bvh(300);
        let a = TreeletAssignment::form(&bvh, 512);
        let mut parent = vec![u32::MAX; bvh.node_count()];
        for i in 0..bvh.node_count() as u32 {
            for c in bvh.node(i).child_nodes() {
                parent[c as usize] = i;
            }
        }
        for g in 0..a.count() as u32 {
            let members = a.members(g);
            let root = members[0];
            for &m in &members[1..] {
                let p = parent[m as usize];
                assert_ne!(p, u32::MAX);
                assert_eq!(
                    a.of_node(p),
                    g,
                    "non-root member {m} of treelet {g} has parent outside (root {root})"
                );
            }
        }
    }

    #[test]
    fn root_treelet_is_zero_and_contains_bvh_root() {
        let bvh = grid_bvh(100);
        let a = TreeletAssignment::form(&bvh, 512);
        assert_eq!(a.of_node(bvh.root()), 0);
        assert_eq!(a.members(0)[0], bvh.root());
    }

    #[test]
    fn greedy_formation_fills_upper_treelets() {
        // The first-formed (upper) treelet should be at full budget for a
        // tree with plenty of nodes.
        let bvh = grid_bvh(1000);
        let a = TreeletAssignment::form(&bvh, 512);
        assert_eq!(a.occupied_bytes(0), 512);
    }

    #[test]
    fn members_are_in_breadth_first_order() {
        // The root's children must appear before any grandchild.
        let bvh = grid_bvh(1000);
        let a = TreeletAssignment::form(&bvh, 512);
        let members = a.members(0);
        let root_children: Vec<u32> = bvh.node(0).child_nodes().collect();
        let pos = |n: u32| members.iter().position(|&m| m == n);
        for &c in &root_children {
            if let (Some(pc), Some(p0)) = (pos(c), pos(members[0])) {
                assert!(pc > p0);
            }
        }
        // All members at positions 1..=k (k = root child count present in
        // this treelet) are root children.
        let in_treelet_children = root_children
            .iter()
            .filter(|&&c| a.of_node(c) == 0)
            .count()
            .min(members.len() - 1);
        for &member in members.iter().take(in_treelet_children + 1).skip(1) {
            assert!(
                root_children.contains(&member),
                "member {member} is not a root child (BFS order violated)"
            );
        }
    }

    #[test]
    fn occupancy_decreases_with_budget() {
        // Counts are not monotone in the budget (a big first treelet cuts
        // a wide BFS frontier into many tiny treelets — the same effect
        // that gives the paper's ROBOT an average of ~2 nodes per 512 B
        // treelet), but mean occupancy must fall as budgets grow.
        let bvh = grid_bvh(500);
        let occupancies: Vec<f64> = [64u64, 256, 512, 1024, 2048]
            .iter()
            .map(|&b| TreeletAssignment::form(&bvh, b).mean_occupancy())
            .collect();
        for w in occupancies.windows(2) {
            assert!(
                w[0] >= w[1] - 1e-12,
                "occupancy increased with budget: {occupancies:?}"
            );
        }
        // The one-node budget is perfectly occupied.
        assert!((occupancies[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_node_tree_is_one_treelet() {
        let bvh = grid_bvh(1);
        let a = TreeletAssignment::form(&bvh, 512);
        assert_eq!(a.count(), 1);
        assert_eq!(a.members(0), &[0]);
        assert!((a.mean_occupancy() - 64.0 / 512.0).abs() < 1e-9);
    }

    #[test]
    fn minimum_budget_one_node_per_treelet() {
        let bvh = grid_bvh(50);
        let a = TreeletAssignment::form(&bvh, 64);
        assert_eq!(a.count(), bvh.node_count());
        for g in 0..a.count() as u32 {
            assert_eq!(a.members(g).len(), 1);
        }
    }

    #[test]
    fn all_policies_produce_valid_partitions() {
        let bvh = grid_bvh(400);
        for policy in [
            FormationPolicy::GreedyBfs,
            FormationPolicy::GreedyDfs,
            FormationPolicy::SurfaceArea,
        ] {
            let a = TreeletAssignment::form_with_policy(&bvh, 512, policy);
            let mut seen = vec![false; bvh.node_count()];
            for g in 0..a.count() as u32 {
                assert!(a.occupied_bytes(g) <= 512, "{policy}: treelet over budget");
                for &m in a.members(g) {
                    assert!(!seen[m as usize], "{policy}: node {m} twice");
                    seen[m as usize] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "{policy}: nodes unassigned");
        }
    }

    #[test]
    fn dfs_policy_forms_deeper_treelets_than_bfs() {
        // Depth of a treelet = longest root-to-member path within it.
        let bvh = grid_bvh(1000);
        let mut parent = vec![u32::MAX; bvh.node_count()];
        for i in 0..bvh.node_count() as u32 {
            for c in bvh.node(i).child_nodes() {
                parent[c as usize] = i;
            }
        }
        let treelet_depth = |a: &TreeletAssignment| -> f64 {
            let mut total = 0usize;
            for g in 0..a.count() as u32 {
                let members = a.members(g);
                let mut deepest = 1usize;
                for &m in members {
                    let mut d = 1;
                    let mut cur = m;
                    while parent[cur as usize] != u32::MAX && a.of_node(parent[cur as usize]) == g {
                        cur = parent[cur as usize];
                        d += 1;
                    }
                    deepest = deepest.max(d);
                }
                total += deepest;
            }
            total as f64 / a.count() as f64
        };
        let bfs = TreeletAssignment::form_with_policy(&bvh, 512, FormationPolicy::GreedyBfs);
        let dfs = TreeletAssignment::form_with_policy(&bvh, 512, FormationPolicy::GreedyDfs);
        assert!(
            treelet_depth(&dfs) >= treelet_depth(&bfs),
            "DFS treelets should be at least as deep on average"
        );
    }

    #[test]
    fn surface_area_policy_prefers_large_nodes() {
        // The first treelet under SurfaceArea must have mean member
        // surface area >= the BFS one's (it picks the biggest nodes).
        let bvh = grid_bvh(600);
        let mean_sa = |members: &[u32]| {
            members
                .iter()
                .map(|&m| bvh.node_aabb(m).surface_area() as f64)
                .sum::<f64>()
                / members.len() as f64
        };
        let bfs = TreeletAssignment::form_with_policy(&bvh, 512, FormationPolicy::GreedyBfs);
        let sa = TreeletAssignment::form_with_policy(&bvh, 512, FormationPolicy::SurfaceArea);
        assert!(mean_sa(sa.members(0)) >= mean_sa(bfs.members(0)) * 0.99);
    }

    #[test]
    fn policy_display_names() {
        assert_eq!(FormationPolicy::GreedyBfs.to_string(), "greedy-bfs");
        assert_eq!(FormationPolicy::GreedyDfs.to_string(), "greedy-dfs");
        assert_eq!(FormationPolicy::SurfaceArea.to_string(), "surface-area");
        assert_eq!(FormationPolicy::default(), FormationPolicy::GreedyBfs);
    }

    #[test]
    fn same_treelet_helper() {
        let bvh = grid_bvh(200);
        let a = TreeletAssignment::form(&bvh, 512);
        let members = a.members(0);
        if members.len() >= 2 {
            assert!(a.same_treelet(members[0], members[1]));
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn budget_below_node_size_panics() {
        let bvh = grid_bvh(10);
        let _ = TreeletAssignment::form(&bvh, 32);
    }

    #[test]
    fn try_form_returns_typed_error_for_undersized_budget() {
        let bvh = grid_bvh(10);
        assert_eq!(
            TreeletAssignment::try_form(&bvh, 0).unwrap_err(),
            ConfigError::TreeletBudgetTooSmall { bytes: 0 }
        );
        assert_eq!(
            TreeletAssignment::try_form(&bvh, NODE_SIZE_BYTES - 1).unwrap_err(),
            ConfigError::TreeletBudgetTooSmall {
                bytes: NODE_SIZE_BYTES - 1
            }
        );
        let a = TreeletAssignment::try_form(&bvh, 512).expect("valid budget forms");
        assert!(a.count() > 0);
    }

    #[test]
    fn display_reports_count() {
        let bvh = grid_bvh(100);
        let a = TreeletAssignment::form(&bvh, 512);
        assert!(a.to_string().contains("treelets"));
    }
}
