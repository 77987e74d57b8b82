//! Scene-level experiment harness: builds a scene's BVH once and runs it
//! under many simulator configurations, as the paper's evaluation does.

use crate::config::SimConfig;
use crate::session::SimSession;
use crate::sim::SimResult;
use crate::treelet::{TreeletAssignment, DEFAULT_TREELET_BYTES};
use rt_bvh::{TreeStats, WideBvh};
use rt_geometry::Ray;
use rt_scene::{Scene, SceneError, SceneId, Workload};

/// Default scene detail used by the experiment harness.
///
/// Full-paper scenes have BVHs up to 1.7 GB, far beyond what a CPU-hosted
/// cycle-level simulation can sweep; the harness builds each scene at a
/// reduced uniform detail that preserves the suite's relative scale
/// ordering (see `DESIGN.md`).
pub const DEFAULT_DETAIL: f32 = 0.5;

/// A scene that refused to prepare, as [`Bench::prepare_all`] reports
/// it: the scene's id beside its [`SceneError`], so a suite-wide
/// preparation names the scene it stopped at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrepareError {
    /// The scene that refused.
    pub scene: SceneId,
    /// Why it refused.
    pub error: SceneError,
}

impl std::fmt::Display for PrepareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scene {}: {}", self.scene, self.error)
    }
}

impl std::error::Error for PrepareError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// A prepared scene workload: geometry built, BVH constructed, rays
/// generated, default treelets formed — ready to simulate under any
/// [`SimConfig`].
///
/// Like the paper, which forms treelets once when the BVH is built
/// (§3.1), a bench forms its default-budget assignment once, and every
/// run whose config asks for that budget and formation uses it.
///
/// # Examples
///
/// ```no_run
/// use rt_scene::{SceneId, Workload};
/// use treelet_rt::{Bench, SimConfig};
///
/// let bench = Bench::prepare(SceneId::Wknd, 0.5, Workload::paper_default());
/// let baseline = bench.run(&SimConfig::paper_baseline());
/// let treelet = bench.run(&SimConfig::paper_treelet_prefetch());
/// println!("speedup: {:.3}", treelet.speedup_over(&baseline));
/// ```
#[derive(Debug)]
pub struct Bench {
    id: SceneId,
    bvh: WideBvh,
    rays: Vec<Ray>,
    /// The [`DEFAULT_TREELET_BYTES`], breadth-first assignment.
    treelets: TreeletAssignment,
}

impl Bench {
    /// Builds `scene` at `detail` and generates the `workload` rays.
    ///
    /// # Panics
    ///
    /// Panics with the [`SceneError`] message if `detail` is not finite
    /// and positive or the scaled scene would exceed the generator
    /// triangle ceiling; use [`Bench::try_prepare`] to handle those as
    /// typed errors (daemon and suite paths should).
    pub fn prepare(scene: SceneId, detail: f32, workload: Workload) -> Bench {
        match Bench::try_prepare(scene, detail, workload) {
            Ok(bench) => bench,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Bench::prepare`] with bad inputs as typed errors instead of
    /// panics.
    ///
    /// # Errors
    ///
    /// Everything [`Scene::try_build_with_detail`] can return:
    /// [`SceneError::InvalidDetail`] or [`SceneError::TooManyTriangles`].
    pub fn try_prepare(
        scene: SceneId,
        detail: f32,
        workload: Workload,
    ) -> Result<Bench, SceneError> {
        let scene_data = Scene::try_build_with_detail(scene, detail)?;
        Ok(Bench::from_scene(scene_data, workload))
    }

    /// Prepares an already built `scene` (a paper scene or a loaded
    /// mesh): generates the `workload` rays, builds the BVH and forms the
    /// default treelets.
    pub fn from_scene(scene: Scene, workload: Workload) -> Bench {
        let rays = workload.generate(&scene);
        let bvh = WideBvh::build(scene.mesh.into_triangles());
        let treelets = TreeletAssignment::form(&bvh, DEFAULT_TREELET_BYTES);
        Bench {
            id: scene.id,
            bvh,
            rays,
            treelets,
        }
    }

    /// [`Bench::try_prepare`] backed by a preparation cache: a valid
    /// cached artifact skips scene generation, ray generation, and the
    /// BVH build entirely; a miss (or any corrupt entry — self-healing)
    /// prepares from scratch and repopulates the cache. `cache = None`
    /// is exactly [`Bench::try_prepare`].
    ///
    /// The returned bench is bit-identical to an uncached preparation:
    /// the artifact stores the exact built tree and generated rays, and
    /// decode re-validates structure before trusting either.
    ///
    /// # Errors
    ///
    /// Everything [`Bench::try_prepare`] can return. Cache I/O problems
    /// are never errors — the cache degrades to a miss.
    pub fn try_prepare_cached(
        scene: SceneId,
        detail: f32,
        workload: Workload,
        cache: Option<&crate::BvhCache>,
    ) -> Result<Bench, SceneError> {
        let Some(cache) = cache else {
            return Bench::try_prepare(scene, detail, workload);
        };
        let key = crate::prepare_cache_key(scene, detail, &workload);
        if let Some(bench) = cache.load(key, scene) {
            return Ok(bench);
        }
        let bench = Bench::try_prepare(scene, detail, workload)?;
        cache.store(key, &bench);
        Ok(bench)
    }

    /// [`Bench::try_prepare_cached`] for every scene of `scenes` on
    /// `jobs` workers, in order.
    ///
    /// Scene generation, BVH construction and ray generation are
    /// independent and deterministic per scene, so the scenes shard
    /// across the cost-model scheduler ([`run_weighted`](crate::run_weighted)),
    /// planned by [`Bench::prepare_costs`] so the heaviest builds start
    /// first. Each scene's BVH build also forks its subtrees onto all
    /// the cores the process may use, whatever `jobs` is. Every bench is
    /// bit-identical to a serial, uncached preparation at any worker and
    /// core count: the cache stores the exact built artifact, and the
    /// forked build restores the serial build's tree bit for bit.
    ///
    /// # Errors
    ///
    /// The first error in `scenes` order, as [`Bench::try_prepare`]
    /// returns it, naming its scene.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero.
    pub fn prepare_all(
        scenes: &[SceneId],
        detail: f32,
        workload: Workload,
        jobs: usize,
        cache: Option<&crate::BvhCache>,
    ) -> Result<Vec<Bench>, PrepareError> {
        let costs = Bench::prepare_costs(scenes);
        crate::run_weighted(jobs, &costs, |i| {
            let scene = scenes[i];
            Bench::try_prepare_cached(scene, detail, workload, cache)
                .map_err(|error| PrepareError { scene, error })
        })
        .into_iter()
        .collect()
    }

    /// Cold-preparation cost estimates for `scenes`, in order, for the
    /// cost-model scheduler ([`run_weighted`](crate::run_weighted)):
    /// each scene's paper Table 2 tree size in bytes. Before any tree
    /// is built that is the only signal, and it tracks build cost
    /// within a detail level, so the heaviest builds are claimed first.
    /// Never 0.
    pub fn prepare_costs(scenes: &[SceneId]) -> Vec<u64> {
        scenes
            .iter()
            .map(|id| ((id.paper_stats().tree_size_mb * 1_048_576.0) as u64).max(1))
            .collect()
    }

    /// Reassembles a bench from artifact-decoded parts. The codec layer
    /// ([`decode_prepared_bench`](crate::decode_prepared_bench)) is the
    /// only caller; it has already validated the tree, the rays, and the
    /// assignment's budget and coverage.
    pub(crate) fn from_cached_parts(
        id: SceneId,
        bvh: WideBvh,
        rays: Vec<Ray>,
        treelets: TreeletAssignment,
    ) -> Bench {
        Bench {
            id,
            bvh,
            rays,
            treelets,
        }
    }

    /// The scene this bench was prepared from.
    pub fn scene(&self) -> SceneId {
        self.id
    }

    /// The prepared BVH.
    pub fn bvh(&self) -> &WideBvh {
        &self.bvh
    }

    /// The prepared rays.
    pub fn rays(&self) -> &[Ray] {
        &self.rays
    }

    /// The default treelet assignment: [`DEFAULT_TREELET_BYTES`] formed
    /// breadth-first, once per bench (or read back from the preparation
    /// cache).
    pub fn treelets(&self) -> &TreeletAssignment {
        &self.treelets
    }

    /// BVH statistics (Table 2 row).
    pub fn tree_stats(&self) -> TreeStats {
        TreeStats::of(&self.bvh)
    }

    /// Estimated simulation cost of one run over this bench, in the
    /// cost-model scheduler's work units: ray count × the tree's
    /// SAH-expected node visits per ray
    /// ([`WideBvh::expected_visits_per_ray`], computed once per tree),
    /// as an integer scaled so distinct scenes do not tie. Simulated
    /// work scales with how much tree each ray walks; on the 16
    /// detail-1.0 scenes the measured time per unit spans 2.1×, where
    /// nodes × rays spans 28×. It orders the longest-first claims of
    /// [`run_weighted`](crate::run_weighted); a misprediction costs
    /// balance, never correctness.
    pub fn estimated_cost(&self) -> u64 {
        crate::runner::cell_cost(self.bvh.expected_visits_per_ray(), self.rays.len())
    }

    /// A [`SimSession`] over this bench's BVH and rays — the front door
    /// for runs needing option combinations the convenience methods
    /// below don't cover. The session runs on the bench's
    /// [`treelets`](Bench::treelets) when its config asks for the default
    /// budget and formation, and forms its own otherwise.
    pub fn session(&self, config: SimConfig) -> SimSession<'_> {
        SimSession::new(&self.bvh, &self.rays, config).default_treelets(&self.treelets)
    }

    /// Runs the simulation under `config`.
    ///
    /// # Panics
    ///
    /// Panics with the [`SimError`](crate::SimError) message on any
    /// failure; use [`Bench::try_run`] to handle failures per cause.
    pub fn run(&self, config: &SimConfig) -> SimResult {
        match self.try_run(config) {
            Ok(result) => result,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs the simulation under `config`, returning a typed error
    /// instead of panicking on invalid configs, watchdog aborts, or
    /// uncovered BVHs.
    pub fn try_run(&self, config: &SimConfig) -> Result<SimResult, crate::SimError> {
        SimSession::borrowed(&self.bvh, &self.rays, config)
            .default_treelets(&self.treelets)
            .run()
    }

    /// Runs under `config` with crash-safe checkpointing, resuming from
    /// an existing checkpoint at `opts.path` when one is present.
    ///
    /// A checkpoint that belongs to a different run (a stale file from an
    /// earlier sweep with other inputs) or fails to decode is discarded
    /// in favor of a fresh checkpointed run, so a left-over file can
    /// never wedge a sweep.
    ///
    /// # Errors
    ///
    /// Everything a checkpointed [`SimSession::run`] can return.
    pub fn try_run_resumable(
        &self,
        config: &SimConfig,
        opts: &crate::CheckpointOptions,
    ) -> Result<SimResult, crate::SimError> {
        if opts.path.exists() {
            let resumed = self.session(config.clone()).resume(opts.clone()).run();
            match resumed {
                Err(crate::SimError::Snapshot(_)) => {}
                other => return other,
            }
        }
        self.session(config.clone()).checkpoint(opts.clone()).run()
    }
}

/// Geometric mean of a set of ratios (the paper reports GMean speedups).
///
/// # Panics
///
/// Panics if `values` is empty or contains non-positive entries.
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of nothing");
    assert!(
        values.iter().all(|&v| v > 0.0),
        "geometric mean requires positive values"
    );
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_scene::WorkloadKind;

    #[test]
    fn bench_prepares_and_runs() {
        let bench = Bench::prepare(
            SceneId::Wknd,
            0.25,
            Workload::new(WorkloadKind::Primary, 8, 8),
        );
        assert_eq!(bench.scene(), SceneId::Wknd);
        assert_eq!(bench.rays().len(), 64);
        assert!(bench.tree_stats().node_count > 0);
        let result = bench.run(&SimConfig::paper_baseline());
        assert_eq!(result.rays, 64);
    }

    #[test]
    fn same_bench_reused_across_configs() {
        let bench = Bench::prepare(
            SceneId::Wknd,
            0.25,
            Workload::new(WorkloadKind::Primary, 8, 8),
        );
        let a = bench.run(&SimConfig::paper_baseline());
        let b = bench.run(&SimConfig::paper_treelet_prefetch());
        // Same functional workload: identical traversal counts for the
        // same algorithm would be equal; different algorithms may differ,
        // but ray counts and treelet counts always match.
        assert_eq!(a.rays, b.rays);
        assert_eq!(a.treelet_count, b.treelet_count);
    }

    #[test]
    fn bench_telemetry_run_matches_plain_run() {
        let bench = Bench::prepare(
            SceneId::Wknd,
            0.25,
            Workload::new(WorkloadKind::Primary, 8, 8),
        );
        let config = SimConfig::paper_treelet_prefetch();
        let plain = bench.try_run(&config).unwrap();
        let mut telemetry = crate::Telemetry::new(128);
        let sampled = bench
            .session(config)
            .telemetry(&mut telemetry)
            .run()
            .unwrap();
        assert_eq!(plain.state_digest, sampled.state_digest);
        assert!(!telemetry.is_empty());
    }

    #[test]
    fn cold_warm_parallel_prepares_are_bit_identical() {
        let dir = std::env::temp_dir().join(format!("rt_prepare_all_cache_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let workload = Workload::new(WorkloadKind::Primary, 4, 4);
        let prepare = |jobs, cache: Option<&crate::BvhCache>| {
            Bench::prepare_all(&SceneId::ALL, 0.05, workload, jobs, cache).unwrap()
        };
        // Per-bench artifact bytes: nodes, triangles, rays and the
        // default treelet assignment.
        let artifacts = |benches: &[Bench]| -> Vec<Vec<u8>> {
            benches
                .iter()
                .map(|b| crate::encode_prepared_bench(b, 0))
                .collect()
        };
        // A cold serial prepare populates the cache.
        let cold_cache = crate::BvhCache::open(&dir).unwrap();
        let cold = prepare(1, Some(&cold_cache));
        assert_eq!(cold_cache.misses(), SceneId::ALL.len() as u64);
        let parallel = prepare(4, None);
        // A warm prepare is served entirely from the cache.
        let warm_cache = crate::BvhCache::open(&dir).unwrap();
        let warm = prepare(4, Some(&warm_cache));
        assert_eq!(
            (warm_cache.hits(), warm_cache.misses()),
            (SceneId::ALL.len() as u64, 0)
        );
        let cold_bytes = artifacts(&cold);
        assert_eq!(cold_bytes, artifacts(&parallel));
        assert_eq!(cold_bytes, artifacts(&warm));
        // Simulation state digests do not depend on how the suite was
        // prepared either.
        let digests = |benches: Vec<Bench>, jobs| -> Vec<(u64, u64)> {
            crate::Sweep::new(benches)
                .with_config("baseline", SimConfig::paper_baseline())
                .run_parallel(jobs)
                .into_iter()
                .map(|c| c.result.unwrap())
                .map(|r| (r.cycles, r.state_digest))
                .collect()
        };
        assert_eq!(digests(cold, 1), digests(warm, 4));
        std::fs::remove_dir_all(&dir).ok();
        // A rejected detail is the first scene's error, not a panic.
        let refused = Bench::prepare_all(&SceneId::ALL, 0.0, workload, 4, None).unwrap_err();
        assert_eq!(refused.scene, SceneId::ALL[0]);
        assert!(matches!(refused.error, SceneError::InvalidDetail { .. }));
        assert!(refused.to_string().contains(SceneId::ALL[0].name()));
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geometric_mean_rejects_nonpositive() {
        let _ = geometric_mean(&[1.0, 0.0]);
    }
}
