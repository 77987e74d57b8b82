//! BVH statistics, used to reproduce the paper's Table 2.

use crate::wide::{WideBvh, WideNode, NODE_SIZE_BYTES, TRIANGLE_SIZE_BYTES};
use std::fmt;

/// Summary statistics of a wide BVH.
///
/// # Examples
///
/// ```
/// use rt_bvh::{TreeStats, WideBvh};
/// use rt_geometry::{Triangle, Vec3};
///
/// let bvh = WideBvh::build(vec![Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y)]);
/// let stats = TreeStats::of(&bvh);
/// assert_eq!(stats.leaf_count, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeStats {
    /// Total node records (internal + leaf).
    pub node_count: usize,
    /// Internal node records.
    pub internal_count: usize,
    /// Leaf node records.
    pub leaf_count: usize,
    /// Triangles referenced by leaves.
    pub triangle_count: usize,
    /// Maximum depth (root = 1).
    pub max_depth: u32,
    /// Bytes of node records.
    pub node_bytes: u64,
    /// Bytes of triangle data.
    pub triangle_bytes: u64,
    /// Mean triangles per leaf.
    pub avg_leaf_tris: f64,
    /// Mean children per internal node.
    pub avg_arity: f64,
    /// Surface-area-heuristic cost of the tree: the expected number of
    /// node visits plus weighted triangle tests for a random ray, under
    /// the standard SAH model (conditional hit probability = child
    /// area / root area).
    pub sah_cost: f64,
}

impl TreeStats {
    /// Computes the statistics of `bvh`.
    pub fn of(bvh: &WideBvh) -> TreeStats {
        let mut internal_count = 0usize;
        let mut leaf_count = 0usize;
        let mut leaf_tris = 0u64;
        let mut child_total = 0u64;
        // SAH cost: expected visits of each node = its area / root area;
        // visiting an internal node costs one box test per child, a leaf
        // one test per triangle (unit costs).
        let root_area = bvh.root_aabb().surface_area().max(1e-12) as f64;
        let mut sah_cost = 0.0f64;
        for id in 0..bvh.node_count() as u32 {
            let p = bvh.node_aabb(id).surface_area() as f64 / root_area;
            match bvh.node(id) {
                WideNode::Internal(children) => {
                    internal_count += 1;
                    child_total += children.len() as u64;
                    sah_cost += p * children.len() as f64;
                }
                WideNode::Leaf { count, .. } => {
                    leaf_count += 1;
                    leaf_tris += count as u64;
                    sah_cost += p * count as f64;
                }
            }
        }
        TreeStats {
            node_count: bvh.node_count(),
            internal_count,
            leaf_count,
            triangle_count: bvh.triangles().len(),
            max_depth: bvh.depth(),
            node_bytes: bvh.node_count() as u64 * NODE_SIZE_BYTES,
            triangle_bytes: bvh.triangles().len() as u64 * TRIANGLE_SIZE_BYTES,
            avg_leaf_tris: if leaf_count > 0 {
                leaf_tris as f64 / leaf_count as f64
            } else {
                0.0
            },
            avg_arity: if internal_count > 0 {
                child_total as f64 / internal_count as f64
            } else {
                0.0
            },
            sah_cost,
        }
    }

    /// Total BVH footprint (nodes + triangles) in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.node_bytes + self.triangle_bytes
    }

    /// Total footprint in megabytes, as Table 2 reports tree sizes.
    pub fn total_mb(&self) -> f64 {
        self.total_bytes() as f64 / (1024.0 * 1024.0)
    }
}

impl fmt::Display for TreeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes ({} internal, {} leaf), depth {}, {:.2} MB, {:.2} tris/leaf",
            self.node_count,
            self.internal_count,
            self.leaf_count,
            self.max_depth,
            self.total_mb(),
            self.avg_leaf_tris
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_geometry::{Triangle, Vec3};

    fn grid(n: usize) -> Vec<Triangle> {
        (0..n)
            .map(|i| {
                let x = (i % 16) as f32;
                let z = (i / 16) as f32;
                Triangle::new(
                    Vec3::new(x, 0.0, z),
                    Vec3::new(x + 0.5, 0.0, z),
                    Vec3::new(x, 0.5, z),
                )
            })
            .collect()
    }

    #[test]
    fn counts_are_consistent() {
        let bvh = WideBvh::build(grid(200));
        let s = TreeStats::of(&bvh);
        assert_eq!(s.node_count, s.internal_count + s.leaf_count);
        assert_eq!(s.triangle_count, 200);
        assert_eq!(s.node_bytes, s.node_count as u64 * 64);
        assert!(s.avg_leaf_tris > 0.0 && s.avg_leaf_tris <= 4.0);
        assert!(s.avg_arity >= 2.0 && s.avg_arity <= 6.0);
        assert_eq!(s.max_depth, bvh.depth());
    }

    #[test]
    fn sah_cost_is_positive_and_scale_sane() {
        let bvh = WideBvh::build(grid(200));
        let s = TreeStats::of(&bvh);
        assert!(s.sah_cost > 0.0);
        // A random ray hitting the root cannot expect to test fewer
        // primitives than one leaf's worth, nor more than every
        // primitive + every box test.
        assert!(s.sah_cost < (s.triangle_count as f64 + 6.0 * s.internal_count as f64));
    }

    #[test]
    fn sah_cost_prefers_good_trees() {
        // A clustered scene (two distant blobs) should cost much less
        // than testing all triangles: the SAH cost reflects culling.
        let mut tris = grid(100);
        let far: Vec<Triangle> = grid(100)
            .iter()
            .map(|t| {
                let shift = |v: Vec3| v + Vec3::new(10_000.0, 0.0, 0.0);
                Triangle::new(shift(t.v0), shift(t.v1), shift(t.v2))
            })
            .collect();
        tris.extend(far);
        let s = TreeStats::of(&WideBvh::build(tris));
        assert!(
            s.sah_cost < s.triangle_count as f64 / 2.0,
            "sah {} vs {} tris",
            s.sah_cost,
            s.triangle_count
        );
    }

    #[test]
    fn single_leaf_stats() {
        let bvh = WideBvh::build(grid(1));
        let s = TreeStats::of(&bvh);
        assert_eq!(s.internal_count, 0);
        assert_eq!(s.leaf_count, 1);
        assert_eq!(s.avg_arity, 0.0);
        assert_eq!(s.avg_leaf_tris, 1.0);
    }

    #[test]
    fn total_mb_matches_bytes() {
        let bvh = WideBvh::build(grid(50));
        let s = TreeStats::of(&bvh);
        assert!((s.total_mb() * 1024.0 * 1024.0 - s.total_bytes() as f64).abs() < 1.0);
    }

    #[test]
    fn display_mentions_depth() {
        let bvh = WideBvh::build(grid(50));
        let text = TreeStats::of(&bvh).to_string();
        assert!(text.contains("depth"));
    }
}
