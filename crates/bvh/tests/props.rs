//! Property-based tests for BVH construction and memory layout.

use rt_bvh::{MemoryImage, PackOptions, WideBvh, WideNode, NODE_SIZE_BYTES, WIDE_ARITY};
use rt_geometry::{Aabb, Ray, Triangle, Vec3};
use rt_rng::prop::forall;
use rt_rng::{Rng, SmallRng};

fn coord(rng: &mut SmallRng) -> f32 {
    rng.gen_range(-50.0f32..50.0)
}

fn triangle(rng: &mut SmallRng) -> Triangle {
    let p = Vec3::new(coord(rng), coord(rng), coord(rng));
    let edge = |rng: &mut SmallRng| {
        Vec3::new(
            rng.gen_range(-2.0f32..2.0),
            rng.gen_range(-2.0f32..2.0),
            rng.gen_range(-2.0f32..2.0),
        )
    };
    let (a, b) = (edge(rng), edge(rng));
    Triangle::new(p, p + a, p + b)
}

fn soup(rng: &mut SmallRng) -> Vec<Triangle> {
    let n = rng.gen_range(1..120usize);
    (0..n).map(|_| triangle(rng)).collect()
}

/// The six floats of `b`, bit for bit.
fn bits(b: &Aabb) -> [[u32; 3]; 2] {
    [b.min, b.max].map(|v| v.to_array().map(f32::to_bits))
}

/// Walks the tree, checking reachability, arity, containment, that a
/// leaf child's lane is bit-identical to the fold of the leaf's triangle
/// boxes, and that every triangle is covered exactly once.
fn validate_structure(bvh: &WideBvh) -> Result<(), String> {
    let mut visited = vec![false; bvh.node_count()];
    let mut covered = vec![false; bvh.triangles().len()];
    let mut stack = vec![bvh.root()];
    while let Some(n) = stack.pop() {
        if visited[n as usize] {
            return Err(format!("node {n} reachable twice"));
        }
        visited[n as usize] = true;
        match bvh.node(n) {
            WideNode::Internal(children) => {
                if children.is_empty() || children.len() > WIDE_ARITY {
                    return Err(format!("node {n} has {} children", children.len()));
                }
                for (lane, &c) in children.child_nodes().iter().enumerate() {
                    let (stored, folded) = (children.bounds.get(lane), bvh.node_aabb(c));
                    if !stored.contains_box(&folded) {
                        return Err(format!("child {c} escapes stored bounds"));
                    }
                    if bvh.node(c).leaf().is_some() && bits(&stored) != bits(&folded) {
                        return Err(format!("leaf {c}'s lane is not its triangles' bounds"));
                    }
                    stack.push(c);
                }
            }
            WideNode::Leaf { first, count } => {
                for i in first..first + count {
                    if covered[i as usize] {
                        return Err(format!("triangle {i} in two leaves"));
                    }
                    covered[i as usize] = true;
                }
            }
        }
    }
    if !visited.iter().all(|&v| v) {
        return Err("unreachable nodes".into());
    }
    if !covered.iter().all(|&c| c) {
        return Err("uncovered triangles".into());
    }
    Ok(())
}

#[test]
fn arbitrary_soups_build_valid_trees() {
    forall("arbitrary_soups_build_valid_trees", 64, |rng| {
        let mut bvh = WideBvh::build(soup(rng));
        if let Err(e) = validate_structure(&bvh) {
            panic!("{e}");
        }
        // Refitting to moved triangles keeps every invariant, the leaf
        // lanes' bit-equality included.
        let moved: Vec<Triangle> = bvh.triangles().iter().map(|_| triangle(rng)).collect();
        bvh.refit(moved);
        if let Err(e) = validate_structure(&bvh) {
            panic!("after refit: {e}");
        }
    });
}

#[test]
fn bvh_intersect_matches_brute_force() {
    forall("bvh_intersect_matches_brute_force", 64, |rng| {
        let tris = soup(rng);
        let o = Vec3::new(coord(rng), coord(rng), coord(rng));
        let dir = loop {
            let d = Vec3::new(
                rng.gen_range(-1.0f32..1.0),
                rng.gen_range(-1.0f32..1.0),
                rng.gen_range(-1.0f32..1.0),
            );
            if d.x.abs() + d.y.abs() + d.z.abs() > 0.1 {
                break d;
            }
        };
        let ray = Ray::new(o, dir);
        let brute = tris
            .iter()
            .filter_map(|t| t.intersect(&ray))
            .fold(f32::INFINITY, f32::min);
        let bvh = WideBvh::build(tris);
        let hit = bvh.intersect(&ray);
        if brute.is_finite() {
            assert!(hit.is_hit(), "bvh missed a brute-force hit at t={brute}");
            assert!(
                (hit.t - brute).abs() < 1e-3 * brute.max(1.0),
                "bvh t={} brute t={}",
                hit.t,
                brute
            );
        } else {
            assert!(!hit.is_hit(), "bvh found a phantom hit at t={}", hit.t);
        }
    });
}

#[test]
fn depth_first_layout_is_compact_and_unique() {
    forall("depth_first_layout_is_compact_and_unique", 64, |rng| {
        let bvh = WideBvh::build(soup(rng));
        let image = MemoryImage::depth_first(&bvh);
        let mut addrs: Vec<u64> = (0..bvh.node_count() as u32)
            .map(|n| image.node_addr(n))
            .collect();
        addrs.sort_unstable();
        for (i, w) in addrs.windows(2).enumerate() {
            assert!(w[0] != w[1], "duplicate address for node pair at {i}");
        }
        assert_eq!(
            addrs[addrs.len() - 1] - addrs[0],
            (bvh.node_count() as u64 - 1) * NODE_SIZE_BYTES
        );
    });
}

#[test]
fn treelet_packed_layout_keeps_groups_in_slots() {
    forall("treelet_packed_layout_keeps_groups_in_slots", 64, |rng| {
        let bvh = WideBvh::build(soup(rng));
        // Trivial chunked grouping is enough to exercise the layout.
        let groups: Vec<Vec<u32>> = (0..bvh.node_count() as u32)
            .collect::<Vec<_>>()
            .chunks(8)
            .map(|c| c.to_vec())
            .collect();
        let image = MemoryImage::treelet_packed(&bvh, &groups, PackOptions::paper_default());
        for (g, members) in groups.iter().enumerate() {
            let (base, bytes) = image.group_extent(g as u32);
            assert_eq!(bytes, members.len() as u64 * NODE_SIZE_BYTES);
            for &m in members {
                let a = image.node_addr(m);
                assert!(a >= base && a < base + bytes);
            }
        }
    });
}

#[test]
fn leaf_capacity_is_always_respected() {
    forall("leaf_capacity_is_always_respected", 64, |rng| {
        let bvh = rt_bvh::WideBvhBuilder::new()
            .max_leaf_tris(3)
            .build(soup(rng));
        for id in 0..bvh.node_count() as u32 {
            if let Some((_, count)) = bvh.node(id).leaf() {
                assert!(count <= 3);
            }
        }
    });
}
