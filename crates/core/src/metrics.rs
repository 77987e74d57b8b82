//! Analytical treelet-quality metrics.
//!
//! Formation policy changes prefetch quality before any simulation runs:
//! these metrics quantify an assignment's structure — how deep treelets
//! are (pointer-chase coverage per prefetch), how many tree edges cross
//! treelet boundaries (traversal transfers to the other-treelet stack),
//! and the surface-area-weighted expected utility of prefetched bytes.
//! They explain the `abl01_formation` simulation results.

use crate::treelet::TreeletAssignment;
use rt_bvh::{WideBvh, NODE_SIZE_BYTES};
use std::fmt;

/// Structural quality metrics of a treelet assignment over a BVH.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeletMetrics {
    /// Number of treelets.
    pub count: usize,
    /// Mean occupied fraction of the byte budget.
    pub mean_occupancy: f64,
    /// Mean treelet depth (longest root-to-member path inside the
    /// treelet; 1 = single node). Deeper treelets cover more of a ray's
    /// pointer chase per prefetch.
    pub mean_depth: f64,
    /// Fraction of tree edges that cross treelet boundaries. Every
    /// crossing is a deferral to the other-treelet stack during the
    /// two-stack traversal.
    pub cut_edge_fraction: f64,
    /// Surface-area-weighted byte utility: the fraction of all prefetched
    /// bytes (nodes, weighted by the probability a random ray touches
    /// them — their bounding-box surface area relative to the root's)
    /// that land in multi-node treelets. Singleton-treelet bytes always
    /// arrive with their own demand load, so they contribute nothing.
    pub weighted_byte_utility: f64,
}

impl TreeletMetrics {
    /// Computes the metrics of `treelets` over `bvh`.
    ///
    /// # Panics
    ///
    /// Panics if the assignment does not match the BVH's node count.
    pub fn of(bvh: &WideBvh, treelets: &TreeletAssignment) -> TreeletMetrics {
        let n = bvh.node_count();
        let covered = treelets.covered_nodes();
        assert_eq!(n, covered, "assignment covers {covered} of {n} nodes");

        // Parent map for depth computation.
        let mut parent = vec![u32::MAX; n];
        let mut edges = 0u64;
        let mut cut_edges = 0u64;
        for i in 0..n as u32 {
            for c in bvh.node(i).child_nodes() {
                parent[c as usize] = i;
                edges += 1;
                if treelets.of_node(c) != treelets.of_node(i) {
                    cut_edges += 1;
                }
            }
        }

        let mut depth_total = 0usize;
        for g in 0..treelets.count() as u32 {
            let mut deepest = 1usize;
            for &m in treelets.members(g) {
                let mut d = 1usize;
                let mut cur = m;
                while parent[cur as usize] != u32::MAX
                    && treelets.of_node(parent[cur as usize]) == g
                {
                    cur = parent[cur as usize];
                    d += 1;
                }
                deepest = deepest.max(d);
            }
            depth_total += deepest;
        }

        let root_area = bvh.root_aabb().surface_area().max(1e-12) as f64;
        let mut weighted_total = 0.0f64;
        let mut weighted_useful = 0.0f64;
        for g in 0..treelets.count() as u32 {
            let members = treelets.members(g);
            let weight: f64 = members
                .iter()
                .map(|&m| {
                    (bvh.node_aabb(m).surface_area() as f64 / root_area) * NODE_SIZE_BYTES as f64
                })
                .sum();
            weighted_total += weight;
            if members.len() > 1 {
                weighted_useful += weight;
            }
        }

        TreeletMetrics {
            count: treelets.count(),
            mean_occupancy: treelets.mean_occupancy(),
            mean_depth: depth_total as f64 / treelets.count().max(1) as f64,
            cut_edge_fraction: if edges == 0 {
                0.0
            } else {
                cut_edges as f64 / edges as f64
            },
            weighted_byte_utility: if weighted_total <= 0.0 {
                0.0
            } else {
                weighted_useful / weighted_total
            },
        }
    }
}

impl fmt::Display for TreeletMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} treelets, depth {:.2}, {:.0}% occupancy, {:.0}% cut edges, {:.0}% weighted utility",
            self.count,
            self.mean_depth,
            self.mean_occupancy * 100.0,
            self.cut_edge_fraction * 100.0,
            self.weighted_byte_utility * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::treelet::FormationPolicy;
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
    fn singleton_treelets_have_zero_utility_and_full_cut() {
        let bvh = grid_bvh(200);
        let singletons = TreeletAssignment::form(&bvh, 64);
        let m = TreeletMetrics::of(&bvh, &singletons);
        assert_eq!(m.count, bvh.node_count());
        assert!((m.mean_depth - 1.0).abs() < 1e-12);
        assert!((m.cut_edge_fraction - 1.0).abs() < 1e-12);
        assert_eq!(m.weighted_byte_utility, 0.0);
    }

    #[test]
    fn single_treelet_tree_has_no_cut_edges() {
        let bvh = grid_bvh(20);
        // A budget big enough for the whole tree.
        let whole = TreeletAssignment::form(&bvh, bvh.node_count() as u64 * 64);
        let m = TreeletMetrics::of(&bvh, &whole);
        assert_eq!(m.count, 1);
        assert_eq!(m.cut_edge_fraction, 0.0);
        assert!((m.weighted_byte_utility - 1.0).abs() < 1e-12);
        assert!(m.mean_depth as u32 >= bvh.depth().saturating_sub(0));
    }

    #[test]
    fn bigger_budgets_cut_fewer_edges() {
        let bvh = grid_bvh(600);
        let small = TreeletMetrics::of(&bvh, &TreeletAssignment::form(&bvh, 256));
        let large = TreeletMetrics::of(&bvh, &TreeletAssignment::form(&bvh, 2048));
        assert!(large.cut_edge_fraction <= small.cut_edge_fraction + 1e-12);
    }

    #[test]
    fn dfs_formation_is_deeper_on_average() {
        let bvh = grid_bvh(800);
        let bfs = TreeletMetrics::of(
            &bvh,
            &TreeletAssignment::form_with_policy(&bvh, 512, FormationPolicy::GreedyBfs),
        );
        let dfs = TreeletMetrics::of(
            &bvh,
            &TreeletAssignment::form_with_policy(&bvh, 512, FormationPolicy::GreedyDfs),
        );
        assert!(dfs.mean_depth >= bfs.mean_depth);
    }

    #[test]
    fn display_is_informative() {
        let bvh = grid_bvh(50);
        let m = TreeletMetrics::of(&bvh, &TreeletAssignment::form(&bvh, 512));
        let text = m.to_string();
        assert!(text.contains("treelets"));
        assert!(text.contains("cut edges"));
    }
}
