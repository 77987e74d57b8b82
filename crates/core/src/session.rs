//! One front door for every way to run the simulator.
//!
//! [`SimSession`] is a builder: construct a session over a BVH, a ray
//! set, and a config, opt into telemetry / checkpointing / an external
//! treelet assignment, and [`run`](SimSession::run):
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
//! Every option combination funnels into the same engine invocation:
//! the observers (checkpointing, resume, telemetry) ride into it as one
//! probe value that reads the engine and never writes it, so the result
//! — including its [`state_digest`](crate::SimResult::state_digest) — is
//! bit-identical regardless of which of them are attached. Warm
//! multi-generation traffic (a path tracer's bounces) runs inside that
//! one invocation through
//! [`SimConfig::shader`](crate::SimConfig::shader).

use crate::config::{CheckpointOptions, SimConfig};
use crate::error::{ConfigError, SimError};
use crate::sim::{run_identity, try_run_engine, CheckpointRunner, Probes, SimResult};
use crate::telemetry::Telemetry;
use crate::treelet::{FormationPolicy, TreeletAssignment, DEFAULT_TREELET_BYTES};
use rt_bvh::WideBvh;
use rt_geometry::Ray;
use std::borrow::Cow;

/// A configured simulation run: the builder front end over the engine.
///
/// Build with [`SimSession::new`] or [`SimSession::borrowed`], chain
/// option setters, and finish with [`SimSession::run`]. Options compose:
/// a checkpointed run can collect telemetry, a [resumed](SimSession::resume)
/// run keeps checkpointing on the same cadence, and an external treelet
/// assignment works with all of them.
#[derive(Debug)]
pub struct SimSession<'a> {
    bvh: &'a WideBvh,
    rays: &'a [Ray],
    config: Cow<'a, SimConfig>,
    telemetry: Option<&'a mut Telemetry>,
    checkpoint: Option<CheckpointOptions>,
    /// Whether `checkpoint` names a checkpoint to resume from.
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
        SimSession::with_config(bvh, rays, Cow::Owned(config))
    }

    /// A session over one ray set that borrows its config — for call
    /// sites that keep a config alive anyway and should not pay a clone
    /// per run (sweeps run thousands of sessions off a handful of
    /// configs).
    pub fn borrowed(bvh: &'a WideBvh, rays: &'a [Ray], config: &'a SimConfig) -> SimSession<'a> {
        SimSession::with_config(bvh, rays, Cow::Borrowed(config))
    }

    fn with_config(bvh: &'a WideBvh, rays: &'a [Ray], config: Cow<'a, SimConfig>) -> Self {
        SimSession {
            bvh,
            rays,
            config,
            telemetry: None,
            checkpoint: None,
            resume: false,
            treelets: None,
            default_treelets: None,
        }
    }

    /// Records a time-series of the engine's counters into `sink`, one
    /// sample every [`sink.every()`](Telemetry::every) cycles plus one
    /// at the retiring cycle. Give each run a fresh sink from
    /// [`Telemetry::new`]. Sampling is read-only — the run's
    /// `state_digest` is bit-identical with telemetry on or off.
    pub fn telemetry(mut self, sink: &'a mut Telemetry) -> SimSession<'a> {
        self.telemetry = Some(sink);
        self
    }

    /// Writes a crash-safe checkpoint of the complete simulator state
    /// every `opts.every` cycles (and, when configured, appends a
    /// per-epoch state digest to `opts.digest_log`), starting fresh.
    /// Replaces any earlier `checkpoint` or `resume`.
    pub fn checkpoint(mut self, opts: CheckpointOptions) -> SimSession<'a> {
        self.checkpoint = Some(opts);
        self.resume = false;
        self
    }

    /// Resumes from the checkpoint at `opts.path` instead of starting
    /// fresh, and keeps checkpointing as [`checkpoint`](Self::checkpoint)
    /// does. The inputs must be the ones that produced the checkpoint
    /// (`max_cycles` and `progress_window` excluded), or the resume is
    /// refused with
    /// [`SnapshotError::IdentityMismatch`](crate::SnapshotError::IdentityMismatch);
    /// `opts.every` must be the interval it was written under, or it is
    /// refused with
    /// [`SnapshotError::IntervalMismatch`](crate::SnapshotError::IntervalMismatch).
    /// The resumed run's result is bit-identical to an uninterrupted
    /// run's. Replaces any earlier `checkpoint` or `resume`.
    pub fn resume(mut self, opts: CheckpointOptions) -> SimSession<'a> {
        self.checkpoint = Some(opts);
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

    /// Validates the inputs, forms treelets when none were supplied or
    /// offered, attaches the probes, and runs the session to completion.
    ///
    /// # Errors
    ///
    /// - [`SimError::Config`] for an invalid config or a zero telemetry
    ///   or checkpoint interval,
    /// - [`SimError::EmptyInput`] for an empty ray set,
    /// - [`SimError::TreeletCoverage`] if an external assignment does
    ///   not cover the BVH,
    /// - [`SimError::CycleLimitExceeded`] / [`SimError::NoForwardProgress`]
    ///   from the watchdog,
    /// - [`SimError::Snapshot`] for checkpoint I/O failures, corrupt or
    ///   foreign checkpoints, or a resume under another interval.
    pub fn run(self) -> Result<SimResult, SimError> {
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
        if telemetry.as_ref().is_some_and(|t| t.every() == 0) {
            return Err(ConfigError::ZeroTelemetryInterval.into());
        }
        if rays.is_empty() {
            return Err(SimError::EmptyInput { what: "ray" });
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
        let assigned = treelets.covered_nodes();
        if bvh.node_count() != assigned {
            return Err(SimError::TreeletCoverage {
                nodes: bvh.node_count(),
                assigned,
            });
        }
        let checkpoint = checkpoint
            .map(|opts| {
                let identity = run_identity(bvh, rays, &config, treelets);
                CheckpointRunner::start(&opts, identity, resume)
            })
            .transpose()?;
        let probes = Probes {
            checkpoint,
            telemetry,
        };
        try_run_engine(bvh, rays, &config, treelets, probes)
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
        let mut telemetry = Telemetry::new(250);
        let decked = SimSession::new(&bvh, &rays, config.clone())
            .treelets(&treelets)
            .checkpoint(ck.clone())
            .telemetry(&mut telemetry)
            .run()
            .unwrap();
        assert_eq!(plain.state_digest, decked.state_digest);
        assert_eq!(plain.cycles, decked.cycles);
        assert!(!telemetry.is_empty());
        assert!(ck.path.exists(), "checkpoint left in place");

        // The left-over final checkpoint resumes — with telemetry still
        // attached — and replays the tail onto the same final state.
        let mut telemetry = Telemetry::new(250);
        let resumed = SimSession::new(&bvh, &rays, config)
            .treelets(&treelets)
            .resume(ck)
            .telemetry(&mut telemetry)
            .run()
            .unwrap();
        assert_eq!(plain.state_digest, resumed.state_digest);
        assert_eq!(plain.cycles, resumed.cycles);
        std::fs::remove_dir_all(&dir).ok();
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
        let cost = crate::runner::cell_cost(bvh.expected_visits_per_ray(), 4);
        assert_eq!(cost, crate::runner::cell_cost(bvh.node_count() as f64, 4));
        assert!(cost > 0 && cost < u64::MAX);
    }
}
