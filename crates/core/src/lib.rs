//! # treelet-rt — Treelet Prefetching for Ray Tracing
//!
//! A from-scratch reproduction of *Treelet Prefetching For Ray Tracing*
//! (Chou, Nowicki, Aamodt — MICRO 2023). The paper's idea: divide the BVH
//! into small connected subtrees (*treelets*), traverse each ray's
//! current treelet to exhaustion with a two-stack algorithm, and let a
//! lightweight hardware prefetcher fetch whole treelets ahead of the
//! pointer-chasing traversal, hiding BVH memory latency.
//!
//! This crate implements the paper's contributions and its evaluation
//! apparatus:
//!
//! - [`TreeletAssignment`] — greedy breadth-first treelet formation (§3.1),
//! - [`trace_ray`] / [`TraversalAlgorithm`] — baseline DFS and the
//!   two-stack treelet traversal (§3.2, Algorithm 1),
//! - [`TreeletPrefetcher`] — the majority-voter prefetcher with the
//!   ALWAYS / POPULARITY / PARTIAL heuristics (§4.1–4.2) and the
//!   [`VoterAreaModel`] storage arithmetic (§6.5),
//! - [`SimConfig`] / [`SimSession`] — the RT-unit timing model with the
//!   Baseline / OMR / PMR schedulers (§4.3) and the BVH repacking or
//!   mapping-table options (§4.4), behind one builder front door,
//! - [`MtaPrefetcher`] — the Lee et al. stride-prefetching comparison
//!   (Fig. 8),
//! - [`Bench`] / [`Sweep`] — a scene-level harness and a parallel
//!   (scene × config) sweep grid for reproducing the paper's tables and
//!   figures.
//!
//! # Quickstart
//!
//! ```no_run
//! use rt_scene::{SceneId, Workload};
//! use treelet_rt::{Bench, SimConfig, SimSession};
//!
//! let bench = Bench::prepare(SceneId::Bunny, 0.5, Workload::paper_default());
//! let baseline = SimSession::new(bench.bvh(), bench.rays(), SimConfig::paper_baseline())
//!     .run()
//!     .expect("baseline");
//! let treelet = SimSession::new(bench.bvh(), bench.rays(), SimConfig::paper_treelet_prefetch())
//!     .run()
//!     .expect("treelet prefetch");
//! println!(
//!     "BUNNY: {:.1}% speedup",
//!     (treelet.speedup_over(&baseline) - 1.0) * 100.0
//! );
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod error;
mod experiments;
mod ghb;
mod metrics;
mod mta;
mod power;
mod prefetch;
mod prefetcher;
mod prepare;
mod runner;
mod session;
mod sim;
mod snapshot;
mod telemetry;
mod trace_io;
mod traversal;
mod treelet;
mod workloads;

pub use config::{
    CheckpointOptions, LayoutChoice, PrefetchConfig, PrefetchDestination, SchedulerPolicy,
    ShaderProgram, SimConfig,
};
pub use error::{ConfigError, ProgressSnapshot, SimError};
pub use experiments::{geometric_mean, Bench, DEFAULT_DETAIL};
pub use ghb::{GhbPrefetcher, GhbStats};
pub use metrics::TreeletMetrics;
pub use mta::{MtaPrefetcher, MtaStats};
pub use power::{ActivityCounts, EnergyModel, PowerReport};
pub use prefetch::{
    full_vote_counts, pseudo_vote_counts, MappingMode, PrefetchEntry, PrefetchHeuristic,
    PrefetchUsefulness, PrefetcherStats, TreeletPrefetcher, Vote, VoterAreaModel, VoterKind,
};
pub use prefetcher::PrefetchUnitStats;
pub use prepare::{decode_prepared_bench, encode_prepared_bench, prepare_cache_key, BvhCache};
// The preparation codec's error type, so callers can name
// `decode_prepared_bench`'s failures without a direct rt-gpu-sim dep.
pub use rt_gpu_sim::DecodeError;
pub use runner::{
    catch_job_panic, default_jobs, default_jobs_for, panic_message, plan_schedule,
    plan_schedule_with, run_scheduled, run_weighted, Schedule, Sweep, SweepOutcome,
};
pub use session::SimSession;
pub use sim::SimResult;
pub use snapshot::{
    first_divergence, parse_digest_log, read_checkpoint, read_digest_log, write_atomic, Checkpoint,
    DigestRecord, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use telemetry::{Telemetry, TelemetryOptions, TelemetrySample, DEFAULT_TELEMETRY_EVERY};
pub use trace_io::{read_traces, write_traces, ParseTraceError};
pub use traversal::{
    compile_trace, trace_ray, trace_ray_with, CompiledStep, RayTrace, TraceStep,
    TraversalAlgorithm, TraversalOptions, TraversalStats,
};
pub use treelet::{FormationPolicy, TreeletAssignment, DEFAULT_TREELET_BYTES};
pub use workloads::{bounce_rays, bounce_rays_indexed, direction_coherence, BounceKind};
