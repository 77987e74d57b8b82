//! Fuzz-style robustness tests for the RTBVH01 preparation artifact:
//! `decode_prepared_bench` reads from disk and from the rt-served store,
//! so every input must give either a typed `DecodeError` or a bench that
//! re-encodes to exactly the input bytes, and never a panic.
//!
//! The inputs are every truncation of a valid artifact, single-bit flips
//! at sampled bytes of every region (header, tree, section table, the
//! `RAYS` and `TRLT` riders, checksum), each with the checksum left stale
//! and with it recomputed so the flip reaches the section decoders, and
//! random byte strings.

use rt_bvh::{
    artifact_checksum, encode_wide_bvh, WideNode, BVH_ARTIFACT_MAGIC, BVH_ARTIFACT_VERSION,
};
use rt_gpu_sim::{ByteWriter, DecodeError};
use rt_rng::prop::forall;
use rt_rng::{Rng, SmallRng};
use rt_scene::{SceneId, Workload, WorkloadKind};
use treelet_rt::{decode_prepared_bench, encode_prepared_bench, Bench, DEFAULT_TREELET_BYTES};

const SCENE: SceneId = SceneId::Wknd;
const KEY: u64 = 0x5eed_cafe;

/// A small prepared bench: enough nodes for several treelets, few
/// enough bytes that every truncation decodes quickly.
fn bench() -> Bench {
    Bench::prepare(SCENE, 0.02, Workload::new(WorkloadKind::Primary, 3, 3))
}

/// Decodes `bytes`; a success must re-encode to `bytes` exactly.
fn check(bytes: &[u8]) -> bool {
    match decode_prepared_bench(SCENE, KEY, bytes) {
        Ok((bench, treelets)) => {
            assert_eq!(
                encode_prepared_bench(&bench, KEY),
                bytes,
                "a decoded artifact must re-encode to its own bytes"
            );
            assert_eq!(&treelets, bench.treelets());
            true
        }
        Err(_) => false,
    }
}

/// Rewrites the trailing checksum over the (possibly tampered) body.
fn reseal(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let checksum = artifact_checksum(&bytes[..body]);
    bytes[body..].copy_from_slice(&checksum.to_le_bytes());
}

/// `(name, byte range)` of each region of the artifact `bench` encodes
/// to: the layout `BvhArtifact::to_bytes` writes, with the rays section
/// before the treelet rider.
fn regions(bench: &Bench, total: usize) -> Vec<(&'static str, std::ops::Range<usize>)> {
    let header = BVH_ARTIFACT_MAGIC.len() + 4 + 8;
    let mut tree = ByteWriter::new();
    encode_wide_bvh(bench.bvh(), &mut tree);
    let tree_end = header + tree.bytes().len();
    let rays_start = tree_end + 8 + 4 + 8;
    let rays_end = rays_start + 8 + bench.rays().len() * 32;
    let trlt_start = rays_end + 4 + 8;
    let checksum = total - 8;
    vec![
        ("header", 0..header),
        ("tree", header..tree_end),
        ("section table", tree_end..rays_start),
        ("RAYS", rays_start..rays_end),
        ("TRLT header", rays_end..trlt_start),
        ("TRLT", trlt_start..checksum),
        ("checksum", checksum..total),
    ]
}

#[test]
fn the_valid_artifact_round_trips() {
    let bench = bench();
    let bytes = encode_prepared_bench(&bench, KEY);
    assert!(check(&bytes));
    let (decoded, treelets) = decode_prepared_bench(SCENE, KEY, &bytes).unwrap();
    assert_eq!(treelets.max_bytes(), DEFAULT_TREELET_BYTES);
    assert!(
        treelets.count() > 4,
        "the fixture should form several treelets"
    );
    assert_eq!(decoded.rays(), bench.rays());
}

#[test]
fn every_truncation_is_a_typed_error() {
    let bytes = encode_prepared_bench(&bench(), KEY);
    for cut in 0..bytes.len() {
        assert!(
            !check(&bytes[..cut]),
            "a {cut}-byte prefix of a {}-byte artifact decoded",
            bytes.len()
        );
    }
}

#[test]
fn bit_flips_in_every_region_are_typed_errors_or_exact_round_trips() {
    let bench = bench();
    let bytes = encode_prepared_bench(&bench, KEY);
    let regions = regions(&bench, bytes.len());
    assert_eq!(
        regions.iter().map(|(_, r)| r.len()).sum::<usize>(),
        bytes.len()
    );
    for (name, range) in regions {
        assert!(!range.is_empty(), "{name} region is empty");
        let mut decoded = 0;
        forall(&format!("artifact_bit_flip_{name}"), 48, |rng| {
            let at = rng.gen_range(range.clone());
            let bit = 1u8 << rng.gen_range(0..8u32);
            let mut flipped = bytes.clone();
            flipped[at] ^= bit;
            // A stale checksum always rejects.
            assert!(!check(&flipped), "{name}: flip at {at} passed the checksum");
            // Resealed, the flip reaches the decoders behind the checksum.
            reseal(&mut flipped);
            if check(&flipped) {
                decoded += 1;
            }
        });
        println!("{name}: {decoded}/48 resealed flips decoded");
    }
}

#[test]
fn a_leaf_bound_that_is_not_its_triangles_fold_is_refused() {
    let bench = bench();
    let bvh = bench.bvh();
    let mut bytes = encode_prepared_bench(&bench, KEY);
    // The first leaf's record: after the header and the node count, each
    // leaf takes a tag, its bounds and its run (33 bytes), each internal
    // node a tag, a child count and 28 bytes per child.
    let mut at = BVH_ARTIFACT_MAGIC.len() + 4 + 8 + 8;
    for id in 0..bvh.node_count() as u32 {
        match bvh.node(id) {
            WideNode::Leaf { .. } => break,
            WideNode::Internal(children) => at += 2 + children.len() * 28,
        }
    }
    assert_eq!(bytes[at], 0, "a leaf tag");
    // Flip the lowest mantissa bit of the leaf's `min.x` and reseal, so
    // only the bounds check stands between the flip and a decoded tree.
    bytes[at + 1] ^= 1;
    reseal(&mut bytes);
    match decode_prepared_bench(SCENE, KEY, &bytes) {
        Err(DecodeError::Malformed { what }) => {
            assert!(what.contains("stored bounds"), "{what}");
        }
        Err(other) => panic!("expected Malformed, got {other:?}"),
        Ok(_) => panic!("a leaf with bounds other than its triangles' decoded"),
    }
}

#[test]
fn random_bytes_never_panic() {
    forall("artifact_random_bytes", 256, |rng: &mut SmallRng| {
        let len = rng.gen_range(0..1024usize);
        let mut bytes: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect();
        if rng.gen_bool(0.5) && bytes.len() >= BVH_ARTIFACT_MAGIC.len() + 4 {
            bytes[..BVH_ARTIFACT_MAGIC.len()].copy_from_slice(&BVH_ARTIFACT_MAGIC);
            bytes[BVH_ARTIFACT_MAGIC.len()..BVH_ARTIFACT_MAGIC.len() + 4]
                .copy_from_slice(&BVH_ARTIFACT_VERSION.to_le_bytes());
        }
        if rng.gen_bool(0.5) && bytes.len() >= 8 {
            reseal(&mut bytes);
        }
        check(&bytes);
    });
}
