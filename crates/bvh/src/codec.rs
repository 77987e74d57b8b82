//! `RTBVH01` — the versioned, checksummed artifact container for a
//! built [`WideBvh`].
//!
//! Building a BVH is the expensive half of preparing a benchmark: the
//! binned-SAH build plus 6-wide collapse dominates suite start-up, and
//! acceleration structures are built once and traversed millions of
//! times (the paper's BVHs reach 1.7 GB for exactly this reason). This
//! module serializes a finished tree so the preparation cache can skip
//! the build entirely on a repeat run.
//!
//! ## Container layout
//!
//! | field     | bytes | notes                                        |
//! |-----------|-------|----------------------------------------------|
//! | magic     | 7     | `RTBVH01`                                    |
//! | version   | 4     | [`BVH_ARTIFACT_VERSION`], little-endian      |
//! | identity  | 8     | caller-chosen cache key echoed into the file |
//! | bvh       | var   | nodes + triangles (see below)                |
//! | sections  | var   | tagged opaque blobs appended by higher layers|
//! | checksum  | 8     | [`artifact_checksum`] over everything above  |
//!
//! Version 2 replaced version 1's byte-serial FNV-1a checksum with
//! [`artifact_checksum`], which reads eight bytes per step: the
//! checksum covers the whole artifact (tens of MB for a suite), and a
//! byte-serial hash was a third of the cost of writing one.
//!
//! The node payload is one tagged record per node, in node order,
//! followed by the reordered triangle buffer. A leaf record carries its
//! bounds and its triangle run; an internal node is written from the
//! live lanes of its [`ChildSoa`]. The tree keeps no leaf bounds, so the
//! encoder writes the in-order fold of the leaf's triangle boxes, which
//! is bit-identical to the leaf's lane in its parent, and the decoder
//! refuses a leaf whose stored bounds are not that fold. The tree's
//! in-memory layout is not part of the format.
//!
//! Extra *sections* let downstream crates ride along in the same
//! artifact without `rt-bvh` knowing their types: the experiment
//! harness appends the generated workload rays and the default-budget
//! treelet assignment as opaque tagged byte blobs. Unknown tags are
//! preserved, so a reader older than a writer degrades gracefully.
//!
//! Decoding verifies magic, version, and checksum, then re-validates
//! every structural invariant through `WideBvh::from_parts` and every
//! leaf's stored bounds against its triangles — a
//! checksum-valid but semantically bogus payload (a bug, not bit rot)
//! is a typed [`DecodeError`], never a tree that panics in traversal.
//! Cache layers treat *any* decode error as a miss and rebuild: the
//! same self-healing rule the rt-served store applies to its artifacts.

use crate::soa::ChildSoa;
use crate::wide::{same_bits, NodeStore, WideBvh, WideNode, MAX_NODES, WIDE_ARITY};
use rt_geometry::{Aabb, Triangle, Vec3};
use rt_gpu_sim::{ByteReader, ByteWriter, DecodeError};

/// Container magic: the codec name, doubling as the on-disk format id.
pub const BVH_ARTIFACT_MAGIC: [u8; 7] = *b"RTBVH01";

/// Container version. Bump on any layout change: a reader refuses
/// mismatched versions outright ([`DecodeError::UnsupportedVersion`]),
/// and cache layers fold the version into the content key so a bumped
/// binary simply repopulates alongside old entries.
pub const BVH_ARTIFACT_VERSION: u32 = 2;

/// Node tag bytes in the serialized node array.
const TAG_LEAF: u8 = 0;
const TAG_INTERNAL: u8 = 1;

/// Magic, version and identity.
const HEADER_BYTES: usize = BVH_ARTIFACT_MAGIC.len() + 4 + 8;
/// One leaf record: tag, AABB, first triangle and count.
const LEAF_BYTES: usize = 1 + 24 + 8;
/// One child of an internal record (after its tag and child count):
/// AABB and node index.
const CHILD_BYTES: usize = 24 + 4;
/// One triangle: nine `f32`.
const TRIANGLE_BYTES: usize = 36;

/// Odd multipliers of [`artifact_checksum`]'s four lanes.
const LANE_MUL: [u64; 4] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0xd6e8_feb8_6659_fd93,
];

/// One [`artifact_checksum`] step: xor, odd multiply, rotate — each a
/// bijection.
#[inline]
fn mix(lane: u64, word: u64, mul: u64) -> u64 {
    (lane ^ word).wrapping_mul(mul).rotate_left(31)
}

/// The `RTBVH01` container checksum: four lanes, seeded with their
/// multipliers, each fold every fourth little-endian `u64` word of
/// `bytes` (xor the word in, multiply by the lane's odd constant, rotate
/// by 31), a zero-padded tail word goes to the next lane in turn, and
/// the length and the lanes fold into one word the same way, which a
/// multiply-xorshift finish spreads.
///
/// For a fixed word each step is a bijection of the lane, and for a
/// fixed lane a bijection of the word, so any change confined to one
/// 8-byte word (every single-bit flip, for one) always changes the
/// checksum. The four lanes are independent, so the loop runs at about a
/// word per cycle where byte-serial FNV-1a takes a multiply per byte.
/// Not a cryptographic hash, and not the state digest: digests,
/// checkpoints and cache keys stay on FNV-1a.
pub fn artifact_checksum(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_MUL;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for ((lane, word), mul) in lanes.iter_mut().zip(block.chunks_exact(8)).zip(LANE_MUL) {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            *lane = mix(*lane, word, mul);
        }
    }
    for ((lane, tail), mul) in lanes
        .iter_mut()
        .zip(blocks.remainder().chunks(8))
        .zip(LANE_MUL)
    {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        *lane = mix(*lane, u64::from_le_bytes(word), mul);
    }
    let mut h = bytes.len() as u64;
    for (lane, mul) in lanes.into_iter().zip(LANE_MUL) {
        h = mix(h, lane, mul);
    }
    h ^= h >> 32;
    h = h.wrapping_mul(LANE_MUL[0]);
    h ^ (h >> 29)
}

/// One opaque tagged blob carried in a [`BvhArtifact`] alongside the
/// tree — rays, treelet assignments, whatever a higher layer needs to
/// make a cache hit skip *all* of preparation, not just the build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactSection {
    /// Caller-chosen tag (e.g. `*b"RAYS"` as a u32). Tags unknown to a
    /// reader are preserved, not rejected.
    pub tag: u32,
    /// The section payload, opaque to this crate.
    pub bytes: Vec<u8>,
}

/// A built [`WideBvh`] plus its identity and rider sections, ready to
/// serialize into the `RTBVH01` container or freshly decoded from one.
#[derive(Debug)]
pub struct BvhArtifact {
    /// The caller's content key for this artifact (a digest over the
    /// preparation inputs). Echoed into the file and checked on load,
    /// so a mis-filed artifact is detected even when its checksum is
    /// intact.
    pub identity: u64,
    /// The tree itself.
    pub bvh: WideBvh,
    /// Rider sections in append order.
    pub sections: Vec<ArtifactSection>,
}

impl BvhArtifact {
    /// The first section with `tag`, if present.
    pub fn section(&self, tag: u32) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|s| s.tag == tag)
            .map(|s| s.bytes.as_slice())
    }

    /// Serializes the artifact into its container bytes
    /// (see [`encode_artifact`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let sections: Vec<(u32, &[u8])> = self
            .sections
            .iter()
            .map(|s| (s.tag, s.bytes.as_slice()))
            .collect();
        encode_artifact(self.identity, &self.bvh, &sections)
    }

    /// Decodes an `RTBVH01` container, verifying magic, version,
    /// checksum, and every structural invariant of the tree.
    ///
    /// # Errors
    ///
    /// Any corruption or format skew is a typed [`DecodeError`]: wrong
    /// magic, an unsupported version, truncation, trailing bytes, a
    /// checksum mismatch, or a payload that decodes but violates a tree
    /// invariant.
    pub fn from_bytes(bytes: &[u8]) -> Result<BvhArtifact, DecodeError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.take_bytes(BVH_ARTIFACT_MAGIC.len())?;
        if magic != BVH_ARTIFACT_MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = r.take_u32()?;
        if version != BVH_ARTIFACT_VERSION {
            return Err(DecodeError::UnsupportedVersion { found: version });
        }
        let identity = r.take_u64()?;
        let bvh = decode_wide_bvh(&mut r)?;
        let section_count = r.take_len(5)?;
        let mut sections = Vec::with_capacity(section_count);
        for _ in 0..section_count {
            let tag = r.take_u32()?;
            let n = r.take_len(1)?;
            let bytes = r.take_bytes(n)?.to_vec();
            sections.push(ArtifactSection { tag, bytes });
        }
        let body_len = r.position();
        let found = r.take_u64()?;
        r.expect_end()?;
        let expected = artifact_checksum(&bytes[..body_len]);
        if found != expected {
            return Err(DecodeError::ChecksumMismatch { expected, found });
        }
        Ok(BvhArtifact {
            identity,
            bvh,
            sections,
        })
    }
}

/// Writes an `RTBVH01` container from borrowed parts: the content
/// `identity`, the tree, and `(tag, payload)` rider sections in order.
///
/// The container is sized up front and written into one buffer, and
/// nothing is copied but the bytes themselves: the tree is read where
/// it lies, so encoding a prepared bench neither clones its tree nor
/// regrows the output.
pub fn encode_artifact(identity: u64, bvh: &WideBvh, sections: &[(u32, &[u8])]) -> Vec<u8> {
    let section_bytes: usize = sections.iter().map(|(_, b)| 4 + 8 + b.len()).sum();
    let len = HEADER_BYTES + wide_bvh_encoded_len(bvh) + 8 + section_bytes + 8;
    let mut w = ByteWriter::with_capacity(len);
    w.put_bytes(&BVH_ARTIFACT_MAGIC);
    w.put_u32(BVH_ARTIFACT_VERSION);
    w.put_u64(identity);
    encode_wide_bvh(bvh, &mut w);
    w.put_len(sections.len());
    for &(tag, bytes) in sections {
        w.put_u32(tag);
        w.put_len(bytes.len());
        w.put_bytes(bytes);
    }
    let checksum = artifact_checksum(w.bytes());
    w.put_u64(checksum);
    debug_assert_eq!(w.len(), len, "artifact size estimate");
    w.into_bytes()
}

/// Bytes [`encode_wide_bvh`] writes for `bvh`.
fn wide_bvh_encoded_len(bvh: &WideBvh) -> usize {
    let nodes: usize = (0..bvh.node_count() as u32)
        .map(|id| match bvh.node(id) {
            WideNode::Leaf { .. } => LEAF_BYTES,
            WideNode::Internal(children) => 2 + children.len() * CHILD_BYTES,
        })
        .sum();
    8 + nodes + 8 + bvh.triangles().len() * TRIANGLE_BYTES
}

fn vec3_into(out: &mut [u8], v: Vec3) {
    out[0..4].copy_from_slice(&v.x.to_le_bytes());
    out[4..8].copy_from_slice(&v.y.to_le_bytes());
    out[8..12].copy_from_slice(&v.z.to_le_bytes());
}

fn aabb_into(out: &mut [u8], b: &Aabb) {
    vec3_into(&mut out[0..12], b.min);
    vec3_into(&mut out[12..24], b.max);
}

/// Appends a built tree's nodes and triangles to `w` (no container
/// framing — [`encode_artifact`] is the framed front door).
///
/// Each record is assembled on the stack and appended in one copy: a
/// leaf from its triangle run and the fold of its triangle boxes
/// ([`WideBvh::node_aabb`]), an internal node from the live lanes of its
/// [`ChildSoa`].
pub fn encode_wide_bvh(bvh: &WideBvh, w: &mut ByteWriter) {
    w.put_len(bvh.node_count());
    let mut rec = [0u8; 2 + WIDE_ARITY * CHILD_BYTES];
    for id in 0..bvh.node_count() as u32 {
        match bvh.node(id) {
            WideNode::Leaf { first, count } => {
                rec[0] = TAG_LEAF;
                aabb_into(&mut rec[1..25], &bvh.node_aabb(id));
                rec[25..29].copy_from_slice(&first.to_le_bytes());
                rec[29..33].copy_from_slice(&count.to_le_bytes());
                w.put_bytes(&rec[..LEAF_BYTES]);
            }
            WideNode::Internal(children) => {
                rec[0] = TAG_INTERNAL;
                rec[1] = children.len() as u8;
                let lanes = rec[2..].chunks_exact_mut(CHILD_BYTES);
                for ((lane, &node), out) in children.child_nodes().iter().enumerate().zip(lanes) {
                    aabb_into(&mut out[..24], &children.bounds.get(lane));
                    out[24..].copy_from_slice(&node.to_le_bytes());
                }
                w.put_bytes(&rec[..2 + children.len() * CHILD_BYTES]);
            }
        }
    }
    w.put_len(bvh.triangles().len());
    let mut rec = [0u8; TRIANGLE_BYTES];
    for t in bvh.triangles() {
        vec3_into(&mut rec[0..12], t.v0);
        vec3_into(&mut rec[12..24], t.v1);
        vec3_into(&mut rec[24..36], t.v2);
        w.put_bytes(&rec);
    }
}

/// Reads a tree written by [`encode_wide_bvh`] straight into its node
/// records, re-validating every structural invariant.
///
/// # Errors
///
/// Truncation, an impossible child count, an empty leaf, any violated
/// tree invariant (out-of-range references, unreachable nodes,
/// uncovered triangles), or a leaf whose stored bounds (or lane) are not
/// bit-identical to the fold of its triangle boxes — each as a typed
/// [`DecodeError`].
pub fn decode_wide_bvh(r: &mut ByteReader<'_>) -> Result<WideBvh, DecodeError> {
    // A leaf record is the smallest node encoding.
    let node_count = r.take_len(LEAF_BYTES)?;
    if node_count > MAX_NODES {
        return Err(DecodeError::malformed(format!("{node_count} nodes")));
    }
    // How many records are leaves is known only once they are read, so
    // the internal records are sized for every node and trimmed by
    // `from_parts`: a fixed number of blocks for any tree. Each node's
    // stored bounds (empty for an internal node) wait for the triangles.
    let mut nodes = NodeStore::with_capacity(node_count, node_count);
    let mut stored = Vec::with_capacity(node_count);
    // Each record is parsed from one contiguous slice — a single
    // bounds check per record (leaf: 32 bytes; internal: 28 per
    // child) instead of one per field, which matters at hundreds of
    // thousands of nodes per artifact.
    let f32_at = |chunk: &[u8], at: usize| {
        f32::from_le_bytes([chunk[at], chunk[at + 1], chunk[at + 2], chunk[at + 3]])
    };
    let u32_at = |chunk: &[u8], at: usize| {
        u32::from_le_bytes([chunk[at], chunk[at + 1], chunk[at + 2], chunk[at + 3]])
    };
    let aabb_at = |chunk: &[u8], at: usize| Aabb {
        min: Vec3::new(
            f32_at(chunk, at),
            f32_at(chunk, at + 4),
            f32_at(chunk, at + 8),
        ),
        max: Vec3::new(
            f32_at(chunk, at + 12),
            f32_at(chunk, at + 16),
            f32_at(chunk, at + 20),
        ),
    };
    for i in 0..node_count {
        match r.take_u8()? {
            TAG_LEAF => {
                let rec = r.take_bytes(LEAF_BYTES - 1)?;
                let count = u32_at(rec, 28);
                if count == 0 {
                    return Err(DecodeError::malformed(format!("leaf {i} is empty")));
                }
                nodes.push_leaf(u32_at(rec, 24), count);
                stored.push(aabb_at(rec, 0));
            }
            TAG_INTERNAL => {
                let child_count = r.take_u8()? as usize;
                if child_count == 0 || child_count > WIDE_ARITY {
                    return Err(DecodeError::malformed(format!(
                        "node {i}: child count {child_count} outside 1..={WIDE_ARITY}"
                    )));
                }
                let rec = r.take_bytes(child_count * CHILD_BYTES)?;
                let mut children = ChildSoa::empty();
                for c in rec.chunks_exact(CHILD_BYTES) {
                    children.push(&aabb_at(c, 0), u32_at(c, 24));
                }
                nodes.push_internal(children);
                stored.push(Aabb::empty());
            }
            tag => {
                return Err(DecodeError::malformed(format!(
                    "node {i}: unknown node tag {tag}"
                )));
            }
        }
    }
    let tri_count = r.take_len(TRIANGLE_BYTES)?;
    // The triangle buffer is the bulk of the artifact (36 bytes each),
    // so it is decoded from one contiguous slice: a single bounds check
    // up front instead of nine checked reads per triangle — the
    // difference between a cache hit beating the build by 5× and
    // merely matching it on large scenes.
    let bytes = r.take_bytes(tri_count * TRIANGLE_BYTES)?;
    let mut triangles = Vec::with_capacity(tri_count);
    for chunk in bytes.chunks_exact(TRIANGLE_BYTES) {
        let f = |at: usize| {
            f32::from_le_bytes([chunk[at], chunk[at + 1], chunk[at + 2], chunk[at + 3]])
        };
        triangles.push(Triangle {
            v0: Vec3::new(f(0), f(4), f(8)),
            v1: Vec3::new(f(12), f(16), f(20)),
            v2: Vec3::new(f(24), f(28), f(32)),
        });
    }
    let bvh = WideBvh::from_parts(nodes, triangles).map_err(DecodeError::malformed)?;
    // The encoder writes the fold of a leaf's triangle boxes, so stored
    // bounds that are not that fold, bit for bit, would not re-encode to
    // themselves; and the tree keeps a leaf's bounds only in its
    // parent's lane, which must equal them too.
    for id in 0..bvh.node_count() as u32 {
        if bvh.node(id).leaf().is_some() && !same_bits(&stored[id as usize], &bvh.node_aabb(id)) {
            return Err(DecodeError::malformed(format!(
                "leaf {id}'s stored bounds differ from its triangles' bounds"
            )));
        }
    }
    for id in 0..bvh.node_count() as u32 {
        let Some(children) = bvh.node(id).internal() else {
            continue;
        };
        for (lane, &c) in children.child_nodes().iter().enumerate() {
            if bvh.node(c).leaf().is_some()
                && !same_bits(&children.bounds.get(lane), &stored[c as usize])
            {
                return Err(DecodeError::malformed(format!(
                    "leaf {c}'s lane differs from its triangles' bounds"
                )));
            }
        }
    }
    Ok(bvh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_rng::SmallRng;

    /// A random triangle soup: positions drawn from the rng, sized so
    /// the builder produces multi-level trees with mixed leaf runs.
    fn random_triangles(rng: &mut SmallRng, count: usize) -> Vec<Triangle> {
        let mut f = |scale: f32| {
            // Map the top 24 bits to [-scale, scale).
            let u = (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
            (u * 2.0 - 1.0) * scale
        };
        (0..count)
            .map(|_| {
                let base = Vec3::new(f(100.0), f(100.0), f(100.0));
                Triangle::new(
                    base,
                    base + Vec3::new(f(2.0), f(2.0), f(2.0)),
                    base + Vec3::new(f(2.0), f(2.0), f(2.0)),
                )
            })
            .collect()
    }

    fn assert_trees_equal(a: &WideBvh, b: &WideBvh) {
        assert_eq!(a.node_count(), b.node_count());
        for id in 0..a.node_count() as u32 {
            assert_eq!(a.node(id), b.node(id), "node {id}");
        }
        assert_eq!(a.triangles(), b.triangles());
        assert_eq!(
            a.expected_visits_per_ray().to_bits(),
            b.expected_visits_per_ray().to_bits()
        );
    }

    #[test]
    fn round_trips_randomized_trees() {
        let mut rng = SmallRng::seed_from_u64(0x5eed_b0b5);
        for &count in &[1usize, 2, 5, 17, 64, 200, 611] {
            let bvh = WideBvh::build(random_triangles(&mut rng, count));
            let bytes = encode_artifact(0xfeed_cafe, &bvh, &[]);
            let decoded = BvhArtifact::from_bytes(&bytes).expect("round trip");
            assert_eq!(decoded.identity, 0xfeed_cafe);
            assert_trees_equal(&bvh, &decoded.bvh);
        }
    }

    #[test]
    fn round_trips_sections() {
        let mut rng = SmallRng::seed_from_u64(7);
        let bvh = WideBvh::build(random_triangles(&mut rng, 20));
        let (rays, trlt) = (u32::from_le_bytes(*b"RAYS"), u32::from_le_bytes(*b"TRLT"));
        let bytes = encode_artifact(1, &bvh, &[(rays, &[1, 2, 3]), (trlt, &[])]);
        let decoded = BvhArtifact::from_bytes(&bytes).expect("round trip");
        let tags: Vec<u32> = decoded.sections.iter().map(|s| s.tag).collect();
        assert_eq!(tags, [rays, trlt]);
        assert_eq!(decoded.section(trlt), Some(&[][..]));
        // The owned form re-encodes through the same encoder.
        assert_eq!(decoded.to_bytes(), bytes);
        assert_eq!(
            decoded.section(u32::from_le_bytes(*b"RAYS")),
            Some(&[1u8, 2, 3][..])
        );
        assert_eq!(decoded.section(0xdead_beef), None);
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let mut rng = SmallRng::seed_from_u64(42);
        let bvh = WideBvh::build(random_triangles(&mut rng, 30));
        let bytes = encode_artifact(2, &bvh, &[(9, &[5; 16])]);
        for len in 0..bytes.len() {
            assert!(
                BvhArtifact::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes must not decode"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_a_typed_error() {
        let mut rng = SmallRng::seed_from_u64(43);
        let bvh = WideBvh::build(random_triangles(&mut rng, 8));
        let bytes = encode_artifact(3, &bvh, &[]);
        // Flip one bit per byte position; the checksum (or an earlier
        // structural check) must catch every single one.
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << (pos % 8);
            assert!(
                BvhArtifact::from_bytes(&corrupt).is_err(),
                "bit flip at byte {pos} must not decode"
            );
        }
    }

    #[test]
    fn refuses_bumped_version() {
        let mut rng = SmallRng::seed_from_u64(44);
        let bvh = WideBvh::build(random_triangles(&mut rng, 4));
        let mut bytes = encode_artifact(4, &bvh, &[]);
        // Patch the version field (right after the magic) and re-seal
        // the checksum so only the version check can object.
        let vpos = BVH_ARTIFACT_MAGIC.len();
        bytes[vpos..vpos + 4].copy_from_slice(&(BVH_ARTIFACT_VERSION + 1).to_le_bytes());
        let body = bytes.len() - 8;
        let checksum = artifact_checksum(&bytes[..body]);
        bytes[body..].copy_from_slice(&checksum.to_le_bytes());
        match BvhArtifact::from_bytes(&bytes) {
            Err(DecodeError::UnsupportedVersion { found }) => {
                assert_eq!(found, BVH_ARTIFACT_VERSION + 1);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn refuses_checksum_valid_but_bogus_structure() {
        // A payload whose checksum is fine but whose tree is nonsense:
        // a single internal node pointing at an out-of-range child.
        let mut w = ByteWriter::new();
        w.put_bytes(&BVH_ARTIFACT_MAGIC);
        w.put_u32(BVH_ARTIFACT_VERSION);
        w.put_u64(0);
        w.put_len(1); // one node
        w.put_u8(TAG_INTERNAL);
        w.put_u8(1);
        let mut aabb = [0u8; 24];
        aabb_into(&mut aabb, &Aabb::empty());
        w.put_bytes(&aabb);
        w.put_u32(7); // child 7 of 1
        w.put_len(1); // one triangle
        for _ in 0..9 {
            w.put_f32(0.0);
        }
        w.put_len(0); // no sections
        let checksum = artifact_checksum(w.bytes());
        w.put_u64(checksum);
        match BvhArtifact::from_bytes(w.bytes()) {
            Err(DecodeError::Malformed { .. }) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn refuses_a_leaf_lane_other_than_its_triangles() {
        // `artifact_fuzz.rs` flips a leaf record's stored bounds; this
        // flips the leaf's lane in its parent, the copy traversal tests.
        let mut rng = SmallRng::seed_from_u64(47);
        let bvh = WideBvh::build(random_triangles(&mut rng, 64));
        let mut bytes = encode_artifact(6, &bvh, &[]);
        // Records follow the header and the node count: 33 bytes per
        // leaf, 2 + 28 per child of an internal node.
        let mut at = HEADER_BYTES + 8;
        let lane = (0..bvh.node_count() as u32).find_map(|id| match bvh.node(id) {
            WideNode::Leaf { .. } => {
                at += LEAF_BYTES;
                None
            }
            WideNode::Internal(children) => {
                let leaf = children
                    .child_nodes()
                    .iter()
                    .position(|&c| bvh.node(c).leaf().is_some());
                let lane = leaf.map(|lane| at + 2 + lane * CHILD_BYTES);
                at += 2 + children.len() * CHILD_BYTES;
                lane
            }
        });
        // Flip the lowest mantissa bit of the lane's `max.z` and reseal:
        // only the bounds check can object.
        bytes[lane.expect("a leaf child") + 20] ^= 1;
        let body = bytes.len() - 8;
        let checksum = artifact_checksum(&bytes[..body]);
        bytes[body..].copy_from_slice(&checksum.to_le_bytes());
        match BvhArtifact::from_bytes(&bytes) {
            Err(DecodeError::Malformed { what }) => assert!(what.contains("lane"), "{what}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn decoded_tree_traverses_identically() {
        let mut rng = SmallRng::seed_from_u64(45);
        let original = WideBvh::build(random_triangles(&mut rng, 120));
        let decoded = BvhArtifact::from_bytes(&encode_artifact(5, &original, &[]))
            .expect("round trip")
            .bvh;
        for i in 0..32 {
            let x = i as f32 * 5.0 - 80.0;
            let ray = rt_geometry::Ray::new(Vec3::new(x, 0.0, -200.0), Vec3::Z);
            let a = original.intersect(&ray);
            let b = decoded.intersect(&ray);
            assert_eq!(a.is_hit(), b.is_hit());
            assert_eq!(a.t.to_bits(), b.t.to_bits());
        }
    }

    #[test]
    fn checksum_sees_every_single_bit_flip() {
        // Each step is a bijection, so a change inside one word can never
        // cancel out: every flip of every bit, at lengths covering each
        // tail size and several whole 32-byte blocks.
        let mut rng = SmallRng::seed_from_u64(46);
        for len in 0..=100usize {
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let sum = artifact_checksum(&bytes);
            for bit in 0..len * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(artifact_checksum(&flipped), sum, "len {len}, bit {bit}");
            }
        }
    }

    #[test]
    fn checksum_separates_lengths_and_word_order() {
        // Zero-padded tails must not alias: the length is folded in.
        let sums: std::collections::HashSet<u64> =
            (0..200).map(|n| artifact_checksum(&vec![0u8; n])).collect();
        assert_eq!(sums.len(), 200);
        // Swapping two words across lanes changes the sum.
        let mut a = [0u8; 64];
        a[..8].copy_from_slice(&1u64.to_le_bytes());
        let mut b = [0u8; 64];
        b[8..16].copy_from_slice(&1u64.to_le_bytes());
        assert_ne!(artifact_checksum(&a), artifact_checksum(&b));
    }

    #[test]
    fn checksum_values_are_pinned() {
        // Artifacts on disk carry these sums: a change here is a format
        // change and must bump `BVH_ARTIFACT_VERSION`.
        assert_eq!(artifact_checksum(b""), 0x0847_b057_d2b8_2d5b);
        assert_eq!(
            artifact_checksum(b"RTBVH01 treelet prefetching artifact"),
            0xddf0_063e_4af6_3abb
        );
    }
}
