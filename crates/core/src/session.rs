//! One front door for every way to run the simulator.
//!
//! [`SimSession`] is a builder: construct a session over a BVH, a ray set
//! (or batches of them), and a config, opt into telemetry /
//! checkpointing / an external treelet assignment, and run:
//!
//! ```no_run
//! use rt_scene::{SceneId, Workload};
//! use treelet_rt::{Bench, SimConfig, SimSession};
//!
//! let bench = Bench::prepare(SceneId::Wknd, 0.5, Workload::paper_default());
//! let result = SimSession::new(bench.bvh(), bench.rays(), SimConfig::paper_treelet_prefetch())
//!     .run()
//!     .expect("simulation");
//! println!("{} cycles, digest {:#018x}", result.cycles, result.state_digest);
//! ```
//!
//! Every option combination funnels into the same engine invocation, so
//! the result — including its
//! [`state_digest`](crate::SimResult::state_digest) — is bit-identical
//! regardless of which observers (telemetry, checkpointing) are
//! attached.

use crate::config::{CheckpointOptions, PrefetchConfig, SimConfig};
use crate::error::{ConfigError, SimError};
use crate::sim::{run_identity, try_run_engine, SimResult};
use crate::snapshot::{self, SnapshotError};
use crate::telemetry::{Telemetry, TelemetryOptions};
use crate::treelet::{FormationPolicy, TreeletAssignment, DEFAULT_TREELET_BYTES};
use rt_bvh::WideBvh;
use rt_geometry::Ray;
use rt_gpu_sim::MemorySystem;
use std::borrow::Cow;

/// Where a session's rays come from.
#[derive(Debug, Clone, Copy)]
enum RaySource<'a> {
    /// One ray set, run to retirement in a single engine invocation.
    Single(&'a [Ray]),
    /// Ray batches run back-to-back through one memory hierarchy —
    /// caches stay warm between batches, as between the bounce
    /// generations of a wavefront renderer.
    Batches(&'a [Vec<Ray>]),
}

/// A configured simulation run: the builder front end over the engine.
///
/// Build with [`SimSession::new`] (one ray set) or
/// [`SimSession::batched`] (warm-cache batches), chain option setters,
/// and finish with one of the `run*` methods. Options compose: a
/// checkpointed run can collect telemetry, a resumed run keeps
/// checkpointing on the same cadence, and an external treelet
/// assignment works with all of them. The only exclusions are typed
/// errors, not panics: batched sessions reject checkpointing and
/// resume ([`ConfigError::UnsupportedBatchOption`]).
#[derive(Debug)]
pub struct SimSession<'a> {
    bvh: &'a WideBvh,
    rays: RaySource<'a>,
    config: Cow<'a, SimConfig>,
    telemetry: Option<TelemetryOptions>,
    checkpoint: Option<CheckpointOptions>,
    resume: bool,
    treelets: Option<&'a TreeletAssignment>,
    /// A bench's default-budget assignment, used in place of forming one
    /// when no explicit assignment was given and the config asks for
    /// the default budget and formation.
    default_treelets: Option<&'a TreeletAssignment>,
}

impl<'a> SimSession<'a> {
    /// A session over one ray set.
    pub fn new(bvh: &'a WideBvh, rays: &'a [Ray], config: SimConfig) -> SimSession<'a> {
        SimSession {
            bvh,
            rays: RaySource::Single(rays),
            config: Cow::Owned(config),
            telemetry: None,
            checkpoint: None,
            resume: false,
            treelets: None,
            default_treelets: None,
        }
    }

    /// A session over one ray set that borrows its config — for call
    /// sites that keep a config alive anyway and should not pay a clone
    /// per run (sweeps run thousands of sessions off a handful of
    /// configs).
    pub fn borrowed(bvh: &'a WideBvh, rays: &'a [Ray], config: &'a SimConfig) -> SimSession<'a> {
        SimSession {
            bvh,
            rays: RaySource::Single(rays),
            config: Cow::Borrowed(config),
            telemetry: None,
            checkpoint: None,
            resume: false,
            treelets: None,
            default_treelets: None,
        }
    }

    /// A session over ray batches sharing one memory hierarchy: caches
    /// stay warm between batches, each result's `cycles` is its batch's
    /// own duration, and cache/DRAM counters accumulate across the
    /// session (prefetch effectiveness is finalized on the last batch).
    pub fn batched(bvh: &'a WideBvh, batches: &'a [Vec<Ray>], config: SimConfig) -> SimSession<'a> {
        SimSession {
            bvh,
            rays: RaySource::Batches(batches),
            config: Cow::Owned(config),
            telemetry: None,
            checkpoint: None,
            resume: false,
            treelets: None,
            default_treelets: None,
        }
    }

    /// Collects a [`Telemetry`] time-series, sampling the engine's
    /// counters every `opts.every` cycles. Sampling is read-only — the
    /// run's `state_digest` is bit-identical with telemetry on or off.
    /// Retrieve the series with [`SimSession::run_with_telemetry`].
    pub fn telemetry(mut self, opts: TelemetryOptions) -> SimSession<'a> {
        self.telemetry = Some(opts);
        self
    }

    /// Writes a crash-safe checkpoint of the complete simulator state
    /// every `opts.every` cycles (and, when configured, appends a
    /// per-epoch state digest to `opts.digest_log`).
    pub fn checkpoint(mut self, opts: CheckpointOptions) -> SimSession<'a> {
        self.checkpoint = Some(opts);
        self
    }

    /// Resumes from the checkpoint at the configured
    /// [`checkpoint`](SimSession::checkpoint) path instead of starting
    /// fresh. The inputs must be the ones that produced the checkpoint
    /// (`max_cycles` and `progress_window` excluded); a mismatch is
    /// refused with [`SnapshotError::IdentityMismatch`]. The resumed
    /// run's result is bit-identical to an uninterrupted run's.
    pub fn resume_from_checkpoint(mut self) -> SimSession<'a> {
        self.resume = true;
        self
    }

    /// Uses an externally supplied treelet assignment instead of forming
    /// one from the config's budget — for experiments that reuse a
    /// *stale* assignment (e.g. animated scenes whose BVH was refitted
    /// without re-forming treelets). The packed-layout slot size comes
    /// from the assignment's byte budget.
    pub fn treelets(mut self, treelets: &'a TreeletAssignment) -> SimSession<'a> {
        self.treelets = Some(treelets);
        self
    }

    /// Offers `treelets`, formed with [`DEFAULT_TREELET_BYTES`] and
    /// [`FormationPolicy::GreedyBfs`], for runs whose config asks for
    /// exactly that, so the session need not form it again.
    pub(crate) fn default_treelets(mut self, treelets: &'a TreeletAssignment) -> SimSession<'a> {
        debug_assert_eq!(treelets.max_bytes(), DEFAULT_TREELET_BYTES);
        self.default_treelets = Some(treelets);
        self
    }

    /// Selects the prefetcher this session runs — the builder form of
    /// [`SimConfig::with_prefetcher`]. Combine with the
    /// [`PrefetchConfig`] constructors:
    ///
    /// ```no_run
    /// # use rt_scene::{SceneId, Workload};
    /// # use treelet_rt::{Bench, PrefetchConfig, SimConfig, SimSession};
    /// # let bench = Bench::prepare(SceneId::Wknd, 0.3, Workload::paper_default());
    /// let result = SimSession::new(bench.bvh(), bench.rays(), SimConfig::paper_baseline())
    ///     .prefetcher(PrefetchConfig::mta())
    ///     .run()
    ///     .expect("MTA run");
    /// ```
    ///
    /// For a treelet prefetcher this also reconciles the BVH layout with
    /// the prefetcher's mapping mode (see
    /// [`SimConfig::with_prefetcher`]); a borrowed config is cloned on
    /// first write.
    pub fn prefetcher(mut self, prefetch: PrefetchConfig) -> SimSession<'a> {
        let config = self.config.to_mut();
        *config = config.clone().with_prefetcher(prefetch);
        self
    }

    /// Estimated cost of running this session, in the cost-model
    /// scheduler's work units: total ray count (all batches for a
    /// batched session) × the tree's SAH-expected node visits per ray
    /// ([`WideBvh::expected_visits_per_ray`](rt_bvh::WideBvh::expected_visits_per_ray)).
    /// The same estimate
    /// [`Bench::estimated_cost`](crate::Bench::estimated_cost) feeds to
    /// [`run_weighted`](crate::run_weighted) — callers scheduling raw
    /// sessions across a pool can weigh them identically.
    pub fn estimated_cost(&self) -> u64 {
        let rays = match &self.rays {
            RaySource::Single(rays) => rays.len(),
            RaySource::Batches(batches) => batches.iter().map(Vec::len).sum(),
        };
        crate::runner::cell_cost(self.bvh.expected_visits_per_ray(), rays)
    }

    /// Runs the session to completion. For a batched session this
    /// returns the final batch's result (the one whose prefetch
    /// effectiveness is finalized); use [`SimSession::run_batches`] for
    /// all of them.
    ///
    /// # Errors
    ///
    /// - [`SimError::Config`] for an invalid config, a zero telemetry or
    ///   checkpoint interval, resume without checkpointing, or a batched
    ///   session with checkpointing,
    /// - [`SimError::EmptyInput`] for an empty ray set or batch list,
    /// - [`SimError::TreeletCoverage`] if an external assignment does
    ///   not cover the BVH,
    /// - [`SimError::CycleLimitExceeded`] / [`SimError::NoForwardProgress`]
    ///   from the watchdog,
    /// - [`SimError::Snapshot`] for checkpoint I/O failures, corrupt or
    ///   foreign checkpoints,
    /// - [`SimError::BatchPoisoned`] when a batch leaves the shared
    ///   hierarchy with broken request books.
    pub fn run(self) -> Result<SimResult, SimError> {
        let (mut results, _) = self.execute()?;
        Ok(results.pop().expect("execute returns at least one result"))
    }

    /// Runs the session and returns the collected telemetry alongside
    /// the result. Uses the configured
    /// [`telemetry`](SimSession::telemetry) options, or the default
    /// sampling interval when none were set.
    ///
    /// # Errors
    ///
    /// As [`SimSession::run`].
    pub fn run_with_telemetry(mut self) -> Result<(SimResult, Telemetry), SimError> {
        if self.telemetry.is_none() {
            self.telemetry = Some(TelemetryOptions::default());
        }
        let (mut results, telemetry) = self.execute()?;
        let result = results.pop().expect("execute returns at least one result");
        Ok((result, telemetry.expect("telemetry options were set")))
    }

    /// Runs a batched session, returning one result per batch. A
    /// single-ray-set session returns one result.
    ///
    /// # Errors
    ///
    /// As [`SimSession::run`]. A failing batch aborts the session;
    /// earlier batches' results are discarded.
    pub fn run_batches(self) -> Result<Vec<SimResult>, SimError> {
        Ok(self.execute()?.0)
    }

    /// Validates the option combination, forms treelets when none were
    /// supplied or offered, and drives the engine. Always returns at
    /// least one result on success.
    fn execute(self) -> Result<(Vec<SimResult>, Option<Telemetry>), SimError> {
        let SimSession {
            bvh,
            rays,
            config,
            telemetry,
            checkpoint,
            resume,
            treelets,
            default_treelets,
        } = self;
        config.validate()?;
        if let Some(opts) = &telemetry {
            opts.validate()?;
        }
        if let Some(opts) = &checkpoint {
            opts.validate()?;
        }
        if resume && checkpoint.is_none() {
            return Err(ConfigError::ResumeWithoutCheckpoint.into());
        }
        let default_config = config.treelet_bytes == DEFAULT_TREELET_BYTES
            && config.formation == FormationPolicy::GreedyBfs;
        let formed;
        let treelets = match treelets.or(default_treelets.filter(|_| default_config)) {
            Some(t) => t,
            None => {
                formed = TreeletAssignment::try_form_with_policy(
                    bvh,
                    config.treelet_bytes,
                    config.formation,
                )?;
                &formed
            }
        };
        let mut collected = telemetry.as_ref().map(Telemetry::new);
        match rays {
            RaySource::Single(rays) => {
                let resumed = match (&checkpoint, resume) {
                    (Some(opts), true) => {
                        let ck = snapshot::read_checkpoint(&opts.path)?;
                        let identity = run_identity(bvh, rays, &config, treelets);
                        if ck.identity != identity {
                            return Err(SnapshotError::IdentityMismatch {
                                expected: ck.identity,
                                found: identity,
                            }
                            .into());
                        }
                        Some(ck)
                    }
                    _ => None,
                };
                let mem = MemorySystem::new(config.mem, config.num_sms);
                let (result, _) = try_run_engine(
                    bvh,
                    rays,
                    &config,
                    treelets,
                    mem,
                    true,
                    checkpoint.as_ref(),
                    resumed,
                    collected.as_mut(),
                )?;
                Ok((vec![result], collected))
            }
            RaySource::Batches(batches) => {
                if checkpoint.is_some() {
                    let what = if resume { "resume" } else { "checkpointing" };
                    return Err(ConfigError::UnsupportedBatchOption { what }.into());
                }
                if batches.is_empty() {
                    return Err(SimError::EmptyInput { what: "batch" });
                }
                let mut mem = MemorySystem::new(config.mem, config.num_sms);
                let mut results = Vec::with_capacity(batches.len());
                for (i, batch) in batches.iter().enumerate() {
                    let finalize = i + 1 == batches.len();
                    let (result, returned) = try_run_engine(
                        bvh,
                        batch,
                        &config,
                        treelets,
                        mem,
                        finalize,
                        None,
                        None,
                        collected.as_mut(),
                    )?;
                    // A completed batch can still have wrecked the
                    // hierarchy's request books (fault injection dropping
                    // a prefetch response nobody was waiting on); the
                    // next batch would inherit leaked MSHRs, so refuse
                    // with a typed error instead of running on.
                    let audit = returned.audit();
                    if !finalize && (audit.double_completions > 0 || audit.dropped_responses > 0) {
                        return Err(SimError::BatchPoisoned {
                            batch: i,
                            dropped_responses: audit.dropped_responses,
                            double_completions: audit.double_completions,
                        });
                    }
                    mem = returned;
                    results.push(result);
                }
                Ok((results, collected))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_geometry::{Triangle, Vec3};
    use rt_scene::{Scene, SceneId, Workload, WorkloadKind};

    fn fixture() -> (WideBvh, Vec<Ray>) {
        let scene = Scene::build_with_detail(SceneId::Wknd, 0.3);
        let rays = Workload::new(WorkloadKind::Primary, 8, 8).generate(&scene);
        let bvh = WideBvh::build(scene.mesh.into_triangles());
        (bvh, rays)
    }

    /// Fresh per-test scratch directory under the system temp dir.
    fn scratch(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("treelet-session-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn full_builder_combination_is_zero_perturbation() {
        // Telemetry + checkpointing + an external treelet assignment in
        // one run. All observers are read-only or digest-neutral, so the
        // result matches the bare run bit for bit.
        let (bvh, rays) = fixture();
        let config = SimConfig::paper_treelet_prefetch();
        let treelets = TreeletAssignment::try_form(&bvh, config.treelet_bytes).unwrap();
        let plain = SimSession::new(&bvh, &rays, config.clone()).run().unwrap();

        let dir = scratch("combo");
        let ck = CheckpointOptions::new(500, dir.join("combo.rtsnap"))
            .with_digest_log(dir.join("combo.digests"));
        let (decked, telemetry) = SimSession::new(&bvh, &rays, config.clone())
            .treelets(&treelets)
            .checkpoint(ck.clone())
            .telemetry(TelemetryOptions::new(250))
            .run_with_telemetry()
            .unwrap();
        assert_eq!(plain.state_digest, decked.state_digest);
        assert_eq!(plain.cycles, decked.cycles);
        assert!(!telemetry.is_empty());
        assert!(ck.path.exists(), "checkpoint left in place");

        // The left-over final checkpoint resumes — with telemetry still
        // attached — and replays the tail onto the same final state.
        let (resumed, _) = SimSession::new(&bvh, &rays, config)
            .treelets(&treelets)
            .checkpoint(ck)
            .resume_from_checkpoint()
            .telemetry(TelemetryOptions::new(250))
            .run_with_telemetry()
            .unwrap();
        assert_eq!(plain.state_digest, resumed.state_digest);
        assert_eq!(plain.cycles, resumed.cycles);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prefetcher_builder_rewrites_the_config() {
        let (bvh, rays) = fixture();
        let base = SimConfig::paper_baseline();
        let direct = SimSession::new(
            &bvh,
            &rays,
            base.clone().with_prefetcher(PrefetchConfig::mta()),
        )
        .run()
        .unwrap();
        // A borrowed config is cloned on first write, leaving the
        // original untouched.
        let built = SimSession::borrowed(&bvh, &rays, &base)
            .prefetcher(PrefetchConfig::mta())
            .run()
            .unwrap();
        assert_eq!(base.prefetch, PrefetchConfig::None);
        assert_eq!(direct.state_digest, built.state_digest);
        assert!(built.mta.is_some());
    }

    #[test]
    fn resume_without_checkpoint_is_a_typed_error() {
        let (bvh, rays) = fixture();
        let err = SimSession::new(&bvh, &rays, SimConfig::paper_baseline())
            .resume_from_checkpoint()
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::Config(ConfigError::ResumeWithoutCheckpoint)
        ));
        assert!(err.to_string().contains("requires checkpoint options"));
    }

    #[test]
    fn batched_sessions_reject_checkpointing_and_resume() {
        let (bvh, rays) = fixture();
        let batches = vec![rays.clone()];
        let ck = CheckpointOptions::new(500, std::env::temp_dir().join("never-written.rtsnap"));
        let err = SimSession::batched(&bvh, &batches, SimConfig::paper_baseline())
            .checkpoint(ck.clone())
            .run_batches()
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::Config(ConfigError::UnsupportedBatchOption {
                what: "checkpointing"
            })
        ));
        let err = SimSession::batched(&bvh, &batches, SimConfig::paper_baseline())
            .checkpoint(ck)
            .resume_from_checkpoint()
            .run_batches()
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::Config(ConfigError::UnsupportedBatchOption { what: "resume" })
        ));
    }

    #[test]
    fn poisoned_batch_is_a_typed_error_not_a_panic() {
        // Drop the nth DRAM response for increasing n. A dropped demand
        // response livelocks that batch (watchdog, typed error); a
        // dropped *prefetch* response lets the batch complete with
        // broken request books, which the session must refuse before
        // running the next batch — never carry corrupt state forward,
        // never panic.
        let (bvh, rays) = fixture();
        let batches = vec![rays[..32].to_vec(), rays[32..].to_vec()];
        let mut poisoned = 0;
        let mut watchdogged = 0;
        for n in 0..24 {
            let mut config = SimConfig::paper_treelet_prefetch();
            config.progress_window = 20_000;
            config.mem.fault_injection = Some(rt_gpu_sim::FaultInjection::drop_nth_dram_send(7, n));
            match SimSession::batched(&bvh, &batches, config).run_batches() {
                Ok(results) => assert_eq!(results.len(), 2),
                Err(SimError::BatchPoisoned {
                    dropped_responses, ..
                }) => {
                    assert!(dropped_responses > 0);
                    poisoned += 1;
                }
                Err(SimError::NoForwardProgress { .. })
                | Err(SimError::CycleLimitExceeded { .. }) => watchdogged += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        // The sweep must have exercised the poisoned-handoff path (and
        // typically the watchdog path too) — otherwise this test proves
        // nothing.
        assert!(poisoned > 0, "no drop index poisoned a completed batch");
        assert!(watchdogged > 0, "no drop index hit a demand response");
    }

    #[test]
    fn estimated_cost_weighs_rays_by_expected_visits() {
        let (bvh, rays) = fixture();
        let config = SimConfig::paper_baseline();
        let visits = bvh.expected_visits_per_ray();
        let single = SimSession::new(&bvh, &rays, config.clone()).estimated_cost();
        assert_eq!(single, crate::runner::cell_cost(visits, rays.len()));
        // A batched session weighs every batch's rays.
        let batches = vec![rays[..32].to_vec(), rays[32..].to_vec()];
        let batched = SimSession::batched(&bvh, &batches, config).estimated_cost();
        assert_eq!(batched, single);
    }

    #[test]
    fn zero_area_root_gives_a_finite_cost() {
        // Triangles along one axis: the root box has no area, so the
        // tree reads its node count as the expected visits.
        let tris: Vec<Triangle> = (0..24)
            .map(|i| {
                let x = i as f32;
                Triangle::new(
                    Vec3::new(x, 0.0, 0.0),
                    Vec3::new(x + 0.5, 0.0, 0.0),
                    Vec3::new(x + 1.0, 0.0, 0.0),
                )
            })
            .collect();
        let bvh = WideBvh::build(tris);
        let rays = vec![Ray::new(Vec3::new(0.0, 1.0, 0.0), Vec3::new(0.0, -1.0, 0.0)); 4];
        let cost = SimSession::new(&bvh, &rays, SimConfig::paper_baseline()).estimated_cost();
        assert_eq!(cost, crate::runner::cell_cost(bvh.node_count() as f64, 4));
        assert!(cost > 0 && cost < u64::MAX);
    }
}
