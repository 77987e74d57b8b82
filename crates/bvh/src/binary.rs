//! Binary BVH construction with binned SAH.
//!
//! The binary tree is an intermediate: [`crate::WideBvh`] collapses it into
//! the 6-wide tree the paper's RT unit traverses. The binned surface area
//! heuristic follows the standard construction (Wald 2007) that Embree's
//! default builder is also based on.
//!
//! Like those builders, it builds independent subtrees on parallel
//! threads, and the tree it returns is bit-identical at any thread count:
//!
//! - Each primitive's box and centroid travel in one [`Prim`] record that
//!   the partition permutes, so a node's primitives are one contiguous
//!   slice and no thread reads another's.
//! - A large enough range forks ([`build_subtree`]): its left half is
//!   built on a scoped thread and its right half on the calling thread,
//!   over the two `split_at_mut` halves of its slice.
//! - The serial loop pops a node's right child first, so the right
//!   subtree's nodes take one contiguous block of ids right after the
//!   node's two children, and the left subtree's block follows it. The
//!   forked left subtree is numbered from 0 on its own, then shifted by
//!   one offset as it is appended after the right block. Its leaf `first`
//!   offsets already count from the start of the whole array.
//! - Every node runs the same per-node step ([`split_node`]) over the
//!   same records in the same order, whichever thread builds it, so every
//!   bound and split equals the serial build's.

use rt_geometry::{Aabb, Triangle, Vec3};
use std::{panic, thread};

/// Number of SAH bins per axis.
const BIN_COUNT: usize = 16;

/// Ranges of fewer triangles than this are built on one thread: starting
/// a thread would cost more than it saves.
pub(crate) const FORK_MIN_TRIS: usize = 4096;

/// A node of the intermediate binary BVH.
#[derive(Debug, Clone, PartialEq)]
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
    /// A node whose bounds and children are not known yet.
    fn pending() -> BinaryNode {
        BinaryNode {
            aabb: Aabb::empty(),
            left: 0,
            right: 0,
            first: 0,
            count: 0,
        }
    }

    pub fn is_leaf(&self) -> bool {
        self.count > 0
    }

    /// This node with its child ids moved up by `offset`.
    fn shifted(&self, offset: u32) -> BinaryNode {
        if self.is_leaf() {
            return self.clone();
        }
        BinaryNode {
            left: self.left + offset,
            right: self.right + offset,
            ..self.clone()
        }
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

/// One triangle's build inputs, kept in partition order.
#[derive(Debug, Clone, Copy)]
struct Prim {
    aabb: Aabb,
    centroid: Vec3,
    /// The triangle's index in the input soup.
    index: u32,
}

/// Builds a binary BVH over `triangles` with at most `max_leaf_tris`
/// triangles per leaf, on up to `threads` threads. The result does not
/// depend on `threads`.
pub(crate) fn build_binary(
    triangles: &[Triangle],
    max_leaf_tris: u32,
    threads: usize,
) -> BinaryBvh {
    build_binary_with(triangles, max_leaf_tris, threads, thread::Builder::new)
}

/// [`build_binary`], forking onto threads that `spawner` configures.
fn build_binary_with(
    triangles: &[Triangle],
    max_leaf_tris: u32,
    threads: usize,
    spawner: fn() -> thread::Builder,
) -> BinaryBvh {
    assert!(
        !triangles.is_empty(),
        "cannot build a BVH over zero triangles"
    );
    let mut prims: Vec<Prim> = (0u32..)
        .zip(triangles)
        .map(|(index, t)| Prim {
            aabb: t.aabb(),
            centroid: t.centroid(),
            index,
        })
        .collect();
    let mut nodes = Vec::with_capacity(2 * triangles.len());
    nodes.push(BinaryNode::pending());
    build_subtree(
        &mut nodes,
        0,
        &mut prims,
        0,
        max_leaf_tris,
        threads,
        spawner,
    );
    let order = prims.iter().map(|p| p.index).collect();
    BinaryBvh { nodes, order }
}

/// Builds the subtree of the pending node `root` over `prims`, whose
/// first record is triangle `first` of the whole build, appending its
/// nodes to `nodes` in the serial loop's order. A range of at least
/// [`FORK_MIN_TRIS`] triangles with `threads ≥ 2` forks its left half
/// onto a scoped thread from `spawner` with half the threads; anything
/// else runs [`build_serial`]. If the OS refuses the thread (at a
/// process or thread limit, say), the calling thread builds the left
/// half too, after the right one: the nodes are the same either way.
fn build_subtree(
    nodes: &mut Vec<BinaryNode>,
    root: usize,
    prims: &mut [Prim],
    first: usize,
    max_leaf_tris: u32,
    threads: usize,
    spawner: fn() -> thread::Builder,
) {
    if threads < 2 || prims.len() < FORK_MIN_TRIS || prims.len() <= max_leaf_tris as usize {
        return build_serial(nodes, root, prims, first, max_leaf_tris);
    }
    let (aabb, mid) = split_node(prims, max_leaf_tris);
    let mid = mid.expect("a range above the leaf capacity splits");
    nodes[root].aabb = aabb;
    let left = push_children(nodes, root);
    let (lo, hi) = prims.split_at_mut(mid);
    let left_threads = threads / 2;
    // The left subtree, numbered from 0 in an array of its own.
    let build_left = |lo: &mut [Prim]| {
        let mut subtree = Vec::with_capacity(2 * lo.len());
        subtree.push(BinaryNode::pending());
        build_subtree(
            &mut subtree,
            0,
            lo,
            first,
            max_leaf_tris,
            left_threads,
            spawner,
        );
        subtree
    };
    let forked = thread::scope(|s| {
        let forked = spawner().spawn_scoped(s, || build_left(lo));
        build_subtree(
            nodes,
            left + 1,
            hi,
            first + mid,
            max_leaf_tris,
            threads - left_threads,
            spawner,
        );
        forked.map(|handle| {
            handle
                .join()
                .unwrap_or_else(|payload| panic::resume_unwind(payload))
        })
    });
    let subtree = forked.unwrap_or_else(|_refused| build_left(lo));
    // The subtree's node j ≥ 1 becomes node `offset + j`; its root is the
    // left child pushed above.
    let offset = (nodes.len() - 1) as u32;
    nodes[left] = subtree[0].shifted(offset);
    nodes.extend(subtree[1..].iter().map(|n| n.shifted(offset)));
}

/// The serial build of the pending node `root` over `prims` (see
/// [`build_subtree`]): a depth-first loop that pops the right child
/// first.
fn build_serial(
    nodes: &mut Vec<BinaryNode>,
    root: usize,
    prims: &mut [Prim],
    first: usize,
    max_leaf_tris: u32,
) {
    // One pending range per level: only a tree deeper than 64 levels
    // regrows it, so the loop allocates the same blocks for any scene.
    let mut stack = Vec::with_capacity(64);
    stack.push((root, 0usize, prims.len()));
    while let Some((node_idx, begin, end)) = stack.pop() {
        let (aabb, mid) = split_node(&mut prims[begin..end], max_leaf_tris);
        nodes[node_idx].aabb = aabb;
        match mid {
            None => {
                nodes[node_idx].first = (first + begin) as u32;
                nodes[node_idx].count = (end - begin) as u32;
            }
            Some(mid) => {
                let left = push_children(nodes, node_idx);
                stack.push((left, begin, begin + mid));
                stack.push((left + 1, begin + mid, end));
            }
        }
    }
}

/// The step every node runs, on whichever thread builds it: folds the
/// bounds of `prims` in order, then either keeps them as one leaf
/// (`None`) or partitions them and returns how many go left.
fn split_node(prims: &mut [Prim], max_leaf_tris: u32) -> (Aabb, Option<usize>) {
    let mut bounds = Aabb::empty();
    let mut centroid_bounds = Aabb::empty();
    for p in prims.iter() {
        bounds.grow_box(&p.aabb);
        centroid_bounds.grow_point(p.centroid);
    }
    let count = prims.len();
    if count <= max_leaf_tris as usize {
        return (bounds, None);
    }
    // Even when SAH would keep the range together, ranges larger than
    // the leaf capacity must split (fall back to a median split).
    let mid = match find_binned_split(prims, &centroid_bounds) {
        Some(split) => partition(prims, |p| p.centroid[split.axis] < split.position),
        None => count / 2,
    };
    // Degenerate partitions (all centroids equal) fall back to an even
    // split so recursion always terminates.
    let mid = if mid == 0 || mid == count {
        count / 2
    } else {
        mid
    };
    (bounds, Some(mid))
}

/// Appends two pending children of `parent` and returns the left one's
/// index; the right one's is the next.
fn push_children(nodes: &mut Vec<BinaryNode>, parent: usize) -> usize {
    let left = nodes.len();
    nodes.extend([BinaryNode::pending(), BinaryNode::pending()]);
    nodes[parent].left = left as u32;
    nodes[parent].right = (left + 1) as u32;
    left
}

/// A chosen SAH split: primitives whose centroid lies below `position`
/// on `axis` go left.
struct Split {
    axis: usize,
    position: f32,
}

/// Finds the best binned SAH split of `prims`, or `None` if no split is
/// cheaper than keeping the range together (callers may still force one).
fn find_binned_split(prims: &[Prim], centroid_bounds: &Aabb) -> Option<Split> {
    let extent = centroid_bounds.extent();
    let axis = extent.largest_axis();
    if extent[axis] < 1e-12 {
        return None; // all centroids coincide
    }
    let k = BIN_COUNT as f32 / extent[axis];
    let min = centroid_bounds.min[axis];
    let bin_of =
        |p: &Prim| -> usize { (((p.centroid[axis] - min) * k) as usize).min(BIN_COUNT - 1) };

    let mut bin_bounds = [Aabb::empty(); BIN_COUNT];
    let mut bin_counts = [0usize; BIN_COUNT];
    for p in prims {
        let b = bin_of(p);
        bin_bounds[b].grow_box(&p.aabb);
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
        axis,
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
        let bvh = build_binary(&tris, 4, 1);
        assert_eq!(bvh.nodes.len(), 1);
        assert!(bvh.nodes[0].is_leaf());
        validate(&bvh, &tris);
    }

    #[test]
    fn small_grid_is_valid() {
        let tris = grid_triangles(100);
        let bvh = build_binary(&tris, 4, 1);
        validate(&bvh, &tris);
        // There must be internal structure, not one giant leaf.
        assert!(bvh.nodes.len() > 20);
    }

    #[test]
    fn leaf_capacity_respected() {
        let tris = grid_triangles(64);
        let bvh = build_binary(&tris, 2, 1);
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
        let bvh = build_binary(&tris, 4, 1);
        validate(&bvh, &tris);
    }

    #[test]
    #[should_panic(expected = "zero triangles")]
    fn empty_input_panics() {
        let _ = build_binary(&[], 4, 1);
    }

    #[test]
    fn a_refused_thread_leaves_its_half_to_the_calling_thread() {
        // No OS maps a 4 EiB stack, so every fork's spawn fails.
        let refused = || thread::Builder::new().stack_size(1 << 62);
        assert!(thread::scope(|s| refused().spawn_scoped(s, || ()).is_err()));
        let tris = grid_triangles(3 * FORK_MIN_TRIS);
        let bvh = build_binary_with(&tris, 4, 4, refused);
        validate(&bvh, &tris);
        let serial = build_binary(&tris, 4, 1);
        assert_eq!((bvh.nodes, bvh.order), (serial.nodes, serial.order));
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
