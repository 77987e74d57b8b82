//! Pins the built tree itself: the FNV-1a digest of the
//! `encode_wide_bvh` bytes of suite scenes at detail 1.0.
//!
//! The simulator's golden digests see the tree only through the rays
//! that traverse it, so a builder change that moved one leaf bound could
//! pass them. These digests cover every node bound, child order, leaf
//! range and triangle, so any change to the SAH builder or the AABB
//! fold that alters a single bit of any tree fails here first.
//!
//! The ignored test pins all sixteen scenes (about 280,000 nodes), so
//! run it in release: `cargo test --release -p rt-bvh --test
//! tree_digests -- --ignored`.

use rt_bvh::{encode_wide_bvh, WideBvh};
use rt_gpu_sim::{fnv1a64, ByteWriter};
use rt_scene::{Scene, SceneId};

/// `(scene, node count, digest of the encoded tree)` at detail 1.0; the
/// default run pins the first four.
const PINNED: [(SceneId, usize, u64); 16] = [
    (SceneId::Wknd, 492, 0x8a70_b531_7769_edf5),
    (SceneId::Ship, 780, 0x7a6e_12ff_b6a2_47aa),
    (SceneId::Bunny, 5_119, 0x3ba2_98d9_8f4a_f395),
    (SceneId::Crnvl, 7_588, 0x5a34_1ff8_f04f_31d0),
    (SceneId::Park, 26_719, 0x85c9_2c6f_8c7b_525c),
    (SceneId::Car, 46_991, 0x71e6_5b5b_52b2_b321),
    (SceneId::Robot, 47_995, 0x06ce_d2cb_2b84_0c3e),
    (SceneId::Sprng, 14_448, 0x7566_95df_9f6d_be76),
    (SceneId::Party, 16_620, 0xa0a1_9aaa_272e_f1d3),
    (SceneId::Fox, 31_973, 0xc097_6411_4107_a92a),
    (SceneId::Frst, 21_666, 0x97a4_0918_aaec_e106),
    (SceneId::Lands, 18_263, 0x1927_8bf8_82ea_2d1b),
    (SceneId::Spnza, 7_107, 0x657f_2c2f_e220_517f),
    (SceneId::Bath, 16_863, 0x1022_eeac_45b0_0ee8),
    (SceneId::Ref, 4_984, 0xc8d0_170c_8d7d_950a),
    (SceneId::Chsnt, 7_841, 0x84c5_1b0c_79f0_0260),
];

/// Builds each scene's tree at detail 1.0 and reads its node count and
/// digest.
fn built(scenes: &[(SceneId, usize, u64)]) -> Vec<(SceneId, usize, u64)> {
    let mut found = Vec::new();
    for &(id, _, _) in scenes {
        let bvh = WideBvh::build(Scene::build_with_detail(id, 1.0).mesh.into_triangles());
        let mut w = ByteWriter::new();
        encode_wide_bvh(&bvh, &mut w);
        let (nodes, digest) = (bvh.node_count(), fnv1a64(w.bytes()));
        println!("{id}: {nodes} nodes, digest {digest:#018x}");
        found.push((id, nodes, digest));
    }
    found
}

#[test]
fn built_trees_are_bit_identical_to_the_pinned_ones() {
    assert_eq!(built(&PINNED[..4]), PINNED[..4], "a built tree changed");
}

#[test]
#[ignore = "builds every suite tree at full detail; run in release"]
fn every_suite_tree_is_bit_identical_to_the_pinned_one() {
    let scenes = PINNED.map(|(id, _, _)| id);
    assert!(SceneId::ALL.iter().all(|id| scenes.contains(id)));
    assert_eq!(built(&PINNED), PINNED, "a built tree changed");
}
