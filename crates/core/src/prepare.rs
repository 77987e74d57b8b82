//! Content-addressed preparation cache: skip scene generation, BVH
//! construction, and ray generation when an identical preparation has
//! run before.
//!
//! Preparing a [`Bench`] is deterministic: the scene id, detail factor,
//! workload parameters, and BVH build parameters fully determine the
//! built tree, the generated rays, and the default treelet assignment.
//! That makes preparation *content-addressable* — a 64-bit FNV digest
//! over those inputs ([`prepare_cache_key`]) names the finished
//! artifact, and a [`BvhCache`] directory maps keys to serialized
//! `RTBVH01` containers ([`BvhArtifact`]).
//!
//! ## Cache identity rules
//!
//! The key covers everything that changes the *prepared bytes*:
//!
//! - scene id and detail factor (geometry),
//! - workload kind, resolution, and seed (rays),
//! - the BVH builder's `max_leaf_tris` (tree shape),
//! - the default treelet budget and the formation version (the rider),
//! - the artifact codec version (format).
//!
//! It deliberately excludes *budget-style knobs* that only affect how a
//! prepared bench is later simulated — the treelet budget a config asks
//! for, prefetch configuration, scheduler policy — the same rule the
//! rt-served store applies to its result identities. The artifact
//! carries the default-budget treelet assignment as a rider section,
//! which a cache hit hands to the bench, so runs at the default budget
//! never form treelets; a simulation sweeping other budgets re-forms in
//! O(nodes), which is noise next to the SAH build. Because runs read the
//! rider, the key names the formation that wrote it: a formation change
//! bumps the formation version and misses every old entry.
//!
//! ## Store rules (mirroring the rt-served store)
//!
//! - **Atomic writes**: entries land in a `.tmp` sibling and are
//!   renamed into place, so readers see a whole artifact or none. They
//!   are not fsynced: after a power loss an entry may read empty or
//!   torn, which the next rule turns into a miss.
//! - **Corrupt entry = self-healing miss**: any decode failure —
//!   truncation, bit rot, version skew, or a semantically bogus
//!   payload — deletes the entry and falls back to a fresh build that
//!   repopulates it. A damaged cache can cost time, never correctness.
//! - **Best-effort population**: a cache that cannot be written (disk
//!   full, permissions) degrades to pass-through with a warning.

use crate::experiments::Bench;
use crate::treelet::{TreeletAssignment, DEFAULT_TREELET_BYTES, FORMATION_VERSION};
use rt_bvh::{encode_artifact, BvhArtifact, BVH_ARTIFACT_VERSION, DEFAULT_MAX_LEAF_TRIS};
use rt_geometry::Ray;
use rt_gpu_sim::{fnv1a64, ByteReader, ByteWriter, DecodeError};
use rt_scene::{SceneId, Workload, WorkloadKind};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Artifact rider section holding the generated workload rays.
const RAYS_SECTION: u32 = u32::from_le_bytes(*b"RAYS");

/// Artifact rider section holding the default-budget treelet assignment.
const TREELET_SECTION: u32 = u32::from_le_bytes(*b"TRLT");

/// Serialized size of one ray (8 × f32), the decoder's allocation guard.
const RAY_BYTES: usize = 32;

fn workload_kind_tag(kind: WorkloadKind) -> u8 {
    // Explicit tags, not discriminants: reordering the enum must not
    // silently invalidate every cache on disk.
    match kind {
        WorkloadKind::Primary => 0,
        WorkloadKind::Diffuse => 1,
        WorkloadKind::Shadow => 2,
    }
}

/// The content key naming the preparation of (`scene`, `detail`,
/// `workload`): a FNV-1a 64 digest over every input that changes the
/// prepared artifact, including the codec version, so a format bump
/// repopulates cleanly alongside old entries instead of tripping over
/// them.
pub fn prepare_cache_key(scene: SceneId, detail: f32, workload: &Workload) -> u64 {
    let mut w = ByteWriter::new();
    w.put_bytes(b"rt-prepare-key");
    w.put_u32(BVH_ARTIFACT_VERSION);
    let name = scene.name();
    w.put_len(name.len());
    w.put_bytes(name.as_bytes());
    w.put_u32(detail.to_bits());
    w.put_u8(workload_kind_tag(workload.kind));
    w.put_u32(workload.width);
    w.put_u32(workload.height);
    w.put_u64(workload.seed);
    w.put_u32(DEFAULT_MAX_LEAF_TRIS);
    w.put_u64(DEFAULT_TREELET_BYTES);
    w.put_u32(FORMATION_VERSION);
    fnv1a64(w.bytes())
}

/// Serializes a prepared bench into `RTBVH01` container bytes under
/// content key `key`: the built tree, plus the generated rays and the
/// default-budget treelet assignment as rider sections, so a cache hit
/// skips *all* of preparation — not just the BVH build.
///
/// The tree is written where it lies ([`encode_artifact`]), and each
/// buffer is sized exactly, so encoding allocates a constant number of
/// blocks whatever the scene's size.
pub fn encode_prepared_bench(bench: &Bench, key: u64) -> Vec<u8> {
    let mut rays = ByteWriter::with_capacity(8 + bench.rays().len() * RAY_BYTES);
    rays.put_len(bench.rays().len());
    for r in bench.rays() {
        rays.put_f32(r.origin.x);
        rays.put_f32(r.origin.y);
        rays.put_f32(r.origin.z);
        rays.put_f32(r.direction.x);
        rays.put_f32(r.direction.y);
        rays.put_f32(r.direction.z);
        rays.put_f32(r.t_min);
        rays.put_f32(r.t_max);
    }
    let mut treelets = ByteWriter::with_capacity(bench.treelets().encoded_len());
    bench.treelets().encode(&mut treelets);
    encode_artifact(
        key,
        bench.bvh(),
        &[
            (RAYS_SECTION, rays.bytes()),
            (TREELET_SECTION, treelets.bytes()),
        ],
    )
}

/// Decodes an artifact written by [`encode_prepared_bench`] back into a
/// ready-to-simulate [`Bench`] for `scene` plus a copy of its cached
/// default-budget [`TreeletAssignment`] (the bench keeps its own),
/// verifying the container (magic, version, checksum), the echoed
/// content key, the tree's structural invariants, and the assignment's
/// budget and coverage of the tree.
///
/// # Errors
///
/// Any corruption, version skew, or identity mismatch is a typed
/// [`DecodeError`] — cache layers treat every one as a miss.
pub fn decode_prepared_bench(
    scene: SceneId,
    key: u64,
    bytes: &[u8],
) -> Result<(Bench, TreeletAssignment), DecodeError> {
    let bench = decode_bench(scene, key, bytes)?;
    let treelets = bench.treelets().clone();
    Ok((bench, treelets))
}

/// [`decode_prepared_bench`] without the copy of the assignment.
fn decode_bench(scene: SceneId, key: u64, bytes: &[u8]) -> Result<Bench, DecodeError> {
    let artifact = BvhArtifact::from_bytes(bytes)?;
    if artifact.identity != key {
        return Err(DecodeError::malformed(format!(
            "artifact identity {:#018x} does not match key {key:#018x} (mis-filed entry)",
            artifact.identity
        )));
    }
    let ray_bytes = artifact
        .section(RAYS_SECTION)
        .ok_or_else(|| DecodeError::malformed("artifact has no ray section"))?;
    let mut r = ByteReader::new(ray_bytes);
    let count = r.take_len(RAY_BYTES)?;
    let mut rays = Vec::with_capacity(count);
    for _ in 0..count {
        let origin = rt_geometry::Vec3::new(r.take_f32()?, r.take_f32()?, r.take_f32()?);
        let direction = rt_geometry::Vec3::new(r.take_f32()?, r.take_f32()?, r.take_f32()?);
        let t_min = r.take_f32()?;
        let t_max = r.take_f32()?;
        // Struct literal, not `Ray::new`: constructors may normalize;
        // the cache must reproduce the generated rays bit for bit.
        rays.push(Ray {
            origin,
            direction,
            t_min,
            t_max,
        });
    }
    r.expect_end()?;
    let treelet_bytes = artifact
        .section(TREELET_SECTION)
        .ok_or_else(|| DecodeError::malformed("artifact has no treelet section"))?;
    let mut t = ByteReader::new(treelet_bytes);
    let assignment = TreeletAssignment::decode(&mut t, artifact.bvh.node_count())?;
    t.expect_end()?;
    if assignment.max_bytes() != DEFAULT_TREELET_BYTES {
        return Err(DecodeError::malformed(format!(
            "treelet rider formed at {} B, not the default {DEFAULT_TREELET_BYTES} B",
            assignment.max_bytes()
        )));
    }
    Ok(Bench::from_cached_parts(
        scene,
        artifact.bvh,
        rays,
        assignment,
    ))
}

/// An on-disk preparation cache directory: one `RTBVH01` file per
/// content key, with atomic writes and self-healing reads.
///
/// The cache is safe to share between concurrent preparers (threads or
/// processes): writers race by renaming complete temp files over the
/// same destination — last writer wins with identical bytes — and
/// readers only ever see whole artifacts.
#[derive(Debug)]
pub struct BvhCache {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BvhCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Any error creating the directory.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<BvhCache> {
        let root = dir.into();
        std::fs::create_dir_all(&root)?;
        Ok(BvhCache {
            root,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// The cache named by the `RT_BVH_CACHE` environment variable, if
    /// set and non-empty. An unusable directory warns on stderr and
    /// disables caching rather than failing the run.
    pub fn from_env() -> Option<BvhCache> {
        let dir = std::env::var("RT_BVH_CACHE").ok()?;
        if dir.trim().is_empty() {
            return None;
        }
        match BvhCache::open(&dir) {
            Ok(cache) => Some(cache),
            Err(e) => {
                eprintln!("warning: RT_BVH_CACHE={dir} is unusable ({e}); preparing uncached");
                None
            }
        }
    }

    /// The cache directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Artifact path for a content key.
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.root.join(format!("{key:016x}.rtbvh"))
    }

    /// Cache hits served so far (monotonic, shared across threads).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (including self-healed corrupt entries) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Loads the prepared bench for `key`, or `None` on a miss. A
    /// present-but-undecodable entry is deleted (self-healing) and
    /// reported as a miss; the caller rebuilds and repopulates.
    pub(crate) fn load(&self, key: u64, scene: SceneId) -> Option<Bench> {
        let path = self.entry_path(key);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode_bench(scene, key, &bytes) {
            Ok(bench) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(bench)
            }
            Err(e) => {
                eprintln!(
                    "warning: discarding corrupt cache entry {} ({e})",
                    path.display()
                );
                let _ = std::fs::remove_file(&path);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a freshly prepared bench under `key`, atomically
    /// (write-then-rename). Failures warn and leave the cache
    /// unpopulated — never fail a preparation over cache I/O.
    ///
    /// Unlike a checkpoint, an entry is not synced to disk before the
    /// rename: a power loss can leave it empty or torn, and
    /// [`BvhCache::load`] reads that as a miss, deletes it, and the
    /// preparation stores it again.
    pub(crate) fn store(&self, key: u64, bench: &Bench) {
        let path = self.entry_path(key);
        let bytes = encode_prepared_bench(bench, key);
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        let written = std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = written {
            eprintln!("warning: could not cache {} ({e})", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_scene::WorkloadKind;

    fn temp_cache(name: &str) -> BvhCache {
        let dir = std::env::temp_dir().join(format!("rt-bvh-cache-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        BvhCache::open(dir).expect("temp cache")
    }

    fn workload() -> Workload {
        Workload::new(WorkloadKind::Primary, 8, 8)
    }

    /// FNV digest over a bench's observable prepared state — the
    /// "bit-identical" oracle the cache tests compare against.
    fn bench_digest(bench: &Bench) -> u64 {
        fnv1a64(&encode_prepared_bench(bench, 0))
    }

    #[test]
    fn cold_miss_then_warm_hit_is_bit_identical() {
        let cache = temp_cache("warm");
        let cold = Bench::try_prepare_cached(SceneId::Wknd, 0.2, workload(), Some(&cache)).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let warm = Bench::try_prepare_cached(SceneId::Wknd, 0.2, workload(), Some(&cache)).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(bench_digest(&cold), bench_digest(&warm));
        let uncached = Bench::try_prepare(SceneId::Wknd, 0.2, workload()).unwrap();
        assert_eq!(bench_digest(&uncached), bench_digest(&warm));
    }

    #[test]
    fn corrupt_entry_self_heals_with_identical_result() {
        let cache = temp_cache("heal");
        let cold =
            Bench::try_prepare_cached(SceneId::Bunny, 0.2, workload(), Some(&cache)).unwrap();
        let key = prepare_cache_key(SceneId::Bunny, 0.2, &workload());
        let path = cache.entry_path(key);
        // Flip a bit in the middle of the entry.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let healed =
            Bench::try_prepare_cached(SceneId::Bunny, 0.2, workload(), Some(&cache)).unwrap();
        assert_eq!(cache.hits(), 0, "corrupt entry must not count as a hit");
        assert_eq!(bench_digest(&cold), bench_digest(&healed));
        // The rebuild repopulated a valid entry.
        let rewarmed =
            Bench::try_prepare_cached(SceneId::Bunny, 0.2, workload(), Some(&cache)).unwrap();
        assert_eq!(cache.hits(), 1);
        assert_eq!(bench_digest(&cold), bench_digest(&rewarmed));
    }

    #[test]
    fn truncated_entry_is_a_miss() {
        let cache = temp_cache("trunc");
        let _ = Bench::try_prepare_cached(SceneId::Wknd, 0.15, workload(), Some(&cache)).unwrap();
        let key = prepare_cache_key(SceneId::Wknd, 0.15, &workload());
        let path = cache.entry_path(key);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        assert!(cache.load(key, SceneId::Wknd).is_none());
        assert!(!path.exists(), "self-healing must remove the bad entry");
    }

    #[test]
    fn empty_entry_is_a_miss() {
        // The zero-length file a power loss can leave behind an unsynced
        // write: a miss, deleted, and stored again by the preparation.
        let cache = temp_cache("empty");
        let cold =
            Bench::try_prepare_cached(SceneId::Wknd, 0.15, workload(), Some(&cache)).unwrap();
        let key = prepare_cache_key(SceneId::Wknd, 0.15, &workload());
        let path = cache.entry_path(key);
        std::fs::write(&path, []).unwrap();
        assert!(cache.load(key, SceneId::Wknd).is_none());
        assert!(!path.exists(), "self-healing must remove the empty entry");
        let rebuilt =
            Bench::try_prepare_cached(SceneId::Wknd, 0.15, workload(), Some(&cache)).unwrap();
        assert_eq!(bench_digest(&cold), bench_digest(&rebuilt));
        assert!(
            cache.load(key, SceneId::Wknd).is_some(),
            "the entry was stored again"
        );
    }

    #[test]
    fn key_separates_every_preparation_input() {
        let base = prepare_cache_key(SceneId::Wknd, 0.5, &workload());
        assert_ne!(base, prepare_cache_key(SceneId::Bunny, 0.5, &workload()));
        assert_ne!(base, prepare_cache_key(SceneId::Wknd, 0.25, &workload()));
        let mut wl = workload();
        wl.kind = WorkloadKind::Diffuse;
        assert_ne!(base, prepare_cache_key(SceneId::Wknd, 0.5, &wl));
        let mut wl = workload();
        wl.width = 16;
        assert_ne!(base, prepare_cache_key(SceneId::Wknd, 0.5, &wl));
        let mut wl = workload();
        wl.seed ^= 1;
        assert_ne!(base, prepare_cache_key(SceneId::Wknd, 0.5, &wl));
        // Same inputs, same key — the whole point.
        assert_eq!(base, prepare_cache_key(SceneId::Wknd, 0.5, &workload()));
    }

    #[test]
    fn decoded_assignment_matches_fresh_formation() {
        let bench = Bench::try_prepare(SceneId::Wknd, 0.2, workload()).unwrap();
        let key = 9;
        let bytes = encode_prepared_bench(&bench, key);
        let (decoded, assignment) = decode_prepared_bench(SceneId::Wknd, key, &bytes).unwrap();
        let fresh = TreeletAssignment::form(decoded.bvh(), DEFAULT_TREELET_BYTES);
        assert_eq!(assignment, fresh);
    }

    #[test]
    fn a_rider_formed_at_another_budget_is_refused() {
        // Runs read the rider as the default assignment, so one formed at
        // any other budget must never decode, even checksum-valid.
        let bench = Bench::try_prepare(SceneId::Wknd, 0.2, workload()).unwrap();
        let bytes = encode_prepared_bench(&bench, 3);
        let mut artifact = BvhArtifact::from_bytes(&bytes).unwrap();
        let mut rider = ByteWriter::new();
        TreeletAssignment::form(bench.bvh(), 2 * DEFAULT_TREELET_BYTES).encode(&mut rider);
        let section = artifact
            .sections
            .iter_mut()
            .find(|s| s.tag == TREELET_SECTION)
            .unwrap();
        section.bytes = rider.into_bytes();
        match decode_prepared_bench(SceneId::Wknd, 3, &artifact.to_bytes()) {
            Err(DecodeError::Malformed { what }) => assert!(what.contains("1024 B"), "{what}"),
            other => panic!("expected a budget rejection, got {other:?}"),
        }
    }

    #[test]
    fn key_carries_the_rider_formation() {
        // The key hashes the default budget and the formation version
        // after every other input: bumping either names a new entry.
        let base = prepare_cache_key(SceneId::Wknd, 0.5, &workload());
        let mut w = ByteWriter::new();
        w.put_bytes(b"rt-prepare-key");
        w.put_u32(BVH_ARTIFACT_VERSION);
        w.put_len(4);
        w.put_bytes(b"WKND");
        w.put_u32(0.5f32.to_bits());
        w.put_u8(0);
        w.put_u32(8);
        w.put_u32(8);
        w.put_u64(workload().seed);
        w.put_u32(DEFAULT_MAX_LEAF_TRIS);
        let prefix = w.bytes().to_vec();
        let key = |bytes: u64, version: u32| {
            let mut w = ByteWriter::new();
            w.put_bytes(&prefix);
            w.put_u64(bytes);
            w.put_u32(version);
            fnv1a64(w.bytes())
        };
        assert_eq!(base, key(DEFAULT_TREELET_BYTES, FORMATION_VERSION));
        assert_ne!(base, key(DEFAULT_TREELET_BYTES, FORMATION_VERSION + 1));
        assert_ne!(base, key(2 * DEFAULT_TREELET_BYTES, FORMATION_VERSION));
    }

    #[test]
    fn wrong_key_is_refused() {
        let bench = Bench::try_prepare(SceneId::Wknd, 0.2, workload()).unwrap();
        let bytes = encode_prepared_bench(&bench, 1);
        match decode_prepared_bench(SceneId::Wknd, 2, &bytes) {
            Err(DecodeError::Malformed { .. }) => {}
            other => panic!("expected identity mismatch, got {other:?}"),
        }
    }
}
