//! Binary BVH construction with binned SAH.
//!
//! The binary tree is an intermediate: [`crate::WideBvh`] collapses it into
//! the 6-wide tree the paper's RT unit traverses. The binned surface area
//! heuristic follows the standard construction (Wald 2007) that Embree's
//! default builder is also based on.

use rt_geometry::{Aabb, Triangle, Vec3};

/// Number of SAH bins per axis.
const BIN_COUNT: usize = 16;

/// A node of the intermediate binary BVH.
#[derive(Debug, Clone)]
pub(crate) struct BinaryNode {
    /// Bounds of everything below this node.
    pub aabb: Aabb,
    /// Index of the left child; the right child is `left + 1` is *not*
    /// guaranteed, so both are stored.
    pub left: u32,
    /// Index of the right child.
    pub right: u32,
    /// First triangle (into the reordered index list) if this is a leaf.
    pub first: u32,
    /// Number of triangles; zero for internal nodes.
    pub count: u32,
}

impl BinaryNode {
    pub fn is_leaf(&self) -> bool {
        self.count > 0
    }
}

/// The intermediate binary BVH: nodes plus the triangle order produced by
/// recursive partitioning.
#[derive(Debug, Clone)]
pub(crate) struct BinaryBvh {
    pub nodes: Vec<BinaryNode>,
    /// Permutation mapping new triangle positions to original indices.
    pub order: Vec<u32>,
}

/// Builds a binary BVH over `triangles` with at most `max_leaf_tris`
/// triangles per leaf.
pub(crate) fn build_binary(triangles: &[Triangle], max_leaf_tris: u32) -> BinaryBvh {
    assert!(
        !triangles.is_empty(),
        "cannot build a BVH over zero triangles"
    );
    let mut order: Vec<u32> = (0..triangles.len() as u32).collect();
    let prim_aabbs: Vec<Aabb> = triangles.iter().map(Triangle::aabb).collect();
    let centroids: Vec<Vec3> = triangles.iter().map(Triangle::centroid).collect();

    let mut nodes = Vec::with_capacity(2 * triangles.len());
    nodes.push(BinaryNode {
        aabb: Aabb::empty(),
        left: 0,
        right: 0,
        first: 0,
        count: 0,
    });
    // One pending range per level: only a tree deeper than 64 levels
    // regrows it, so the build allocates the same blocks for any scene.
    let mut stack = Vec::with_capacity(64);
    stack.push((0usize, 0usize, triangles.len()));
    while let Some((node_idx, begin, end)) = stack.pop() {
        let mut bounds = Aabb::empty();
        let mut centroid_bounds = Aabb::empty();
        for &t in &order[begin..end] {
            bounds.grow_box(&prim_aabbs[t as usize]);
            centroid_bounds.grow_point(centroids[t as usize]);
        }
        nodes[node_idx].aabb = bounds;
        let count = end - begin;
        let split = if count <= max_leaf_tris as usize {
            None
        } else {
            find_binned_split(
                &order[begin..end],
                &prim_aabbs,
                &centroids,
                &centroid_bounds,
            )
            .or_else(|| Some(Split::median(count)))
        };
        // Even when SAH would keep the range together, ranges larger than
        // the leaf capacity must split (fall back to a median split).
        match split {
            None => {
                nodes[node_idx].first = begin as u32;
                nodes[node_idx].count = count as u32;
            }
            Some(split) => {
                let mid = match split.axis {
                    Some(axis) => {
                        let pivot = split.position;
                        partition(&mut order[begin..end], |&t| {
                            centroids[t as usize][axis] < pivot
                        }) + begin
                    }
                    None => begin + count / 2,
                };
                // Degenerate partitions (all centroids equal) fall back to
                // an even split so recursion always terminates.
                let mid = if mid == begin || mid == end {
                    begin + count / 2
                } else {
                    mid
                };
                let left = nodes.len();
                nodes.push(BinaryNode {
                    aabb: Aabb::empty(),
                    left: 0,
                    right: 0,
                    first: 0,
                    count: 0,
                });
                nodes.push(BinaryNode {
                    aabb: Aabb::empty(),
                    left: 0,
                    right: 0,
                    first: 0,
                    count: 0,
                });
                nodes[node_idx].left = left as u32;
                nodes[node_idx].right = (left + 1) as u32;
                stack.push((left, begin, mid));
                stack.push((left + 1, mid, end));
            }
        }
    }
    BinaryBvh { nodes, order }
}

/// A chosen split: axis + position, or `None` axis for a median fallback.
struct Split {
    axis: Option<usize>,
    position: f32,
}

impl Split {
    fn median(_count: usize) -> Split {
        Split {
            axis: None,
            position: 0.0,
        }
    }
}

/// Finds the best binned SAH split of `prims`, or `None` if no split is
/// cheaper than keeping the range together (callers may still force one).
fn find_binned_split(
    prims: &[u32],
    prim_aabbs: &[Aabb],
    centroids: &[Vec3],
    centroid_bounds: &Aabb,
) -> Option<Split> {
    let extent = centroid_bounds.extent();
    let axis = extent.largest_axis();
    if extent[axis] < 1e-12 {
        return None; // all centroids coincide
    }
    let k = BIN_COUNT as f32 / extent[axis];
    let min = centroid_bounds.min[axis];
    let bin_of = |t: u32| -> usize {
        (((centroids[t as usize][axis] - min) * k) as usize).min(BIN_COUNT - 1)
    };

    let mut bin_bounds = [Aabb::empty(); BIN_COUNT];
    let mut bin_counts = [0usize; BIN_COUNT];
    for &t in prims {
        let b = bin_of(t);
        bin_bounds[b].grow_box(&prim_aabbs[t as usize]);
        bin_counts[b] += 1;
    }

    // Sweep from the right to accumulate suffix areas, then from the left
    // picking the best SAH cost.
    let mut right_area = [0.0f32; BIN_COUNT];
    let mut right_count = [0usize; BIN_COUNT];
    let mut acc = Aabb::empty();
    let mut cnt = 0;
    for i in (1..BIN_COUNT).rev() {
        acc.grow_box(&bin_bounds[i]);
        cnt += bin_counts[i];
        right_area[i] = acc.surface_area();
        right_count[i] = cnt;
    }
    let mut best: Option<(f32, usize)> = None;
    let mut left_acc = Aabb::empty();
    let mut left_count = 0usize;
    for i in 0..BIN_COUNT - 1 {
        left_acc.grow_box(&bin_bounds[i]);
        left_count += bin_counts[i];
        if left_count == 0 || right_count[i + 1] == 0 {
            continue;
        }
        let cost = left_acc.surface_area() * left_count as f32
            + right_area[i + 1] * right_count[i + 1] as f32;
        if best.is_none_or(|(c, _)| cost < c) {
            best = Some((cost, i));
        }
    }
    best.map(|(_, i)| Split {
        axis: Some(axis),
        position: min + (i + 1) as f32 / k,
    })
}

/// Partitions `slice` so that elements satisfying `pred` come first;
/// returns the number of such elements.
fn partition<T, F: Fn(&T) -> bool>(slice: &mut [T], pred: F) -> usize {
    let mut i = 0;
    for j in 0..slice.len() {
        if pred(&slice[j]) {
            slice.swap(i, j);
            i += 1;
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_triangles(n: usize) -> Vec<Triangle> {
        (0..n)
            .map(|i| {
                let x = (i % 10) as f32;
                let z = (i / 10) as f32;
                Triangle::new(
                    Vec3::new(x, 0.0, z),
                    Vec3::new(x + 0.5, 0.0, z),
                    Vec3::new(x, 0.5, z),
                )
            })
            .collect()
    }

    fn validate(bvh: &BinaryBvh, tris: &[Triangle]) {
        // Every triangle appears exactly once in the order permutation.
        let mut seen = vec![false; tris.len()];
        for &t in &bvh.order {
            assert!(!seen[t as usize], "triangle {t} referenced twice");
            seen[t as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Node bounds contain their children / triangles.
        for node in &bvh.nodes {
            if node.is_leaf() {
                for &t in &bvh.order[node.first as usize..(node.first + node.count) as usize] {
                    assert!(node.aabb.contains_box(&tris[t as usize].aabb()));
                }
            } else {
                assert!(node.aabb.contains_box(&bvh.nodes[node.left as usize].aabb));
                assert!(node.aabb.contains_box(&bvh.nodes[node.right as usize].aabb));
            }
        }
    }

    #[test]
    fn single_triangle_builds_leaf_root() {
        let tris = grid_triangles(1);
        let bvh = build_binary(&tris, 4);
        assert_eq!(bvh.nodes.len(), 1);
        assert!(bvh.nodes[0].is_leaf());
        validate(&bvh, &tris);
    }

    #[test]
    fn small_grid_is_valid() {
        let tris = grid_triangles(100);
        let bvh = build_binary(&tris, 4);
        validate(&bvh, &tris);
        // There must be internal structure, not one giant leaf.
        assert!(bvh.nodes.len() > 20);
    }

    #[test]
    fn leaf_capacity_respected() {
        let tris = grid_triangles(64);
        let bvh = build_binary(&tris, 2);
        for node in &bvh.nodes {
            if node.is_leaf() {
                assert!(node.count <= 2, "leaf holds {} triangles", node.count);
            }
        }
    }

    #[test]
    fn coincident_centroids_terminate() {
        // All triangles identical: centroid bounds are a point — builder
        // must fall back to median splits and terminate.
        let tri = Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y);
        let tris = vec![tri; 33];
        let bvh = build_binary(&tris, 4);
        validate(&bvh, &tris);
    }

    #[test]
    #[should_panic(expected = "zero triangles")]
    fn empty_input_panics() {
        let _ = build_binary(&[], 4);
    }

    #[test]
    fn partition_moves_matching_first() {
        let mut v = vec![5, 1, 4, 2, 3];
        let n = partition(&mut v, |&x| x <= 2);
        assert_eq!(n, 2);
        assert!(v[..n].iter().all(|&x| x <= 2));
        assert!(v[n..].iter().all(|&x| x > 2));
    }
}
