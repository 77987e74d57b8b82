//! Pins the built tree itself: the FNV-1a digest of the
//! `encode_wide_bvh` bytes of four suite scenes at detail 1.0.
//!
//! The simulator's golden digests see the tree only through the rays
//! that traverse it, so a builder change that moved one leaf bound could
//! pass them. These digests cover every node bound, child order, leaf
//! range and triangle, so any change to the SAH builder or the AABB
//! fold that alters a single bit of any tree fails here first.

use rt_bvh::{encode_wide_bvh, WideBvh};
use rt_gpu_sim::{fnv1a64, ByteWriter};
use rt_scene::{Scene, SceneId};

/// `(scene, node count, digest of the encoded tree)` at detail 1.0.
const PINNED: [(SceneId, usize, u64); 4] = [
    (SceneId::Wknd, 492, 0x8a70_b531_7769_edf5),
    (SceneId::Ship, 780, 0x7a6e_12ff_b6a2_47aa),
    (SceneId::Bunny, 5_119, 0x3ba2_98d9_8f4a_f395),
    (SceneId::Crnvl, 7_588, 0x5a34_1ff8_f04f_31d0),
];

#[test]
fn built_trees_are_bit_identical_to_the_pinned_ones() {
    let mut found = Vec::new();
    for (id, _, _) in PINNED {
        let scene = Scene::build_with_detail(id, 1.0);
        let bvh = WideBvh::build(scene.mesh.into_triangles());
        let mut w = ByteWriter::new();
        encode_wide_bvh(&bvh, &mut w);
        found.push((id, bvh.node_count(), fnv1a64(w.bytes())));
    }
    for (id, nodes, digest) in &found {
        println!("{id}: {nodes} nodes, digest {digest:#018x}");
    }
    assert_eq!(found, PINNED, "a built tree changed");
}
