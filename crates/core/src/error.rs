//! Typed simulation errors.
//!
//! Every way a simulation can refuse to run or fail to make progress is
//! enumerated here, so callers (the CLI, the `Bench` sweep harness,
//! scripted experiments) can react per cause instead of parsing panic
//! strings. Harnesses that do abort on failure (`rt_bench::run_grid`,
//! which every experiment binary runs its grid through) panic with the
//! `Display` output.

use crate::config::LayoutChoice;
use crate::prefetch::MappingMode;
use crate::snapshot::SnapshotError;
use rt_gpu_sim::RequestId;
use std::fmt;

/// A [`SimConfig`](crate::SimConfig) inconsistency found by
/// [`SimConfig::validate`](crate::SimConfig::validate).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// SM count, warp size, or warp-buffer size is zero.
    ZeroSizedStructure,
    /// The treelet byte budget cannot hold even one 64-byte node.
    TreeletBudgetTooSmall {
        /// The rejected budget.
        bytes: u64,
    },
    /// The prefetcher's mapping mode does not match the memory layout.
    IncompatibleMapping {
        /// Configured mapping mode.
        mapping: MappingMode,
        /// Configured memory layout.
        layout: LayoutChoice,
    },
    /// A memory-system size, stride or clock that the memory model
    /// divides by or sizes a structure with is zero.
    ZeroMemoryParameter {
        /// The field, as its path in [`SimConfig`](crate::SimConfig)
        /// (e.g. `"mem.line_bytes"`).
        field: &'static str,
    },
    /// The L2 capacity does not divide evenly into its sets.
    UnevenL2Sets {
        /// Configured L2 capacity in lines.
        lines: usize,
        /// Configured L2 set count.
        sets: u64,
    },
    /// The forward-progress watchdog window is zero.
    ZeroProgressWindow,
    /// The checkpoint interval is zero.
    ZeroCheckpointInterval,
    /// The telemetry sampling interval is zero.
    ZeroTelemetryInterval,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroSizedStructure => {
                write!(f, "SM count, warp size, and warp buffer must be nonzero")
            }
            ConfigError::TreeletBudgetTooSmall { bytes } => {
                write!(
                    f,
                    "treelet byte budget must hold at least one node (got {bytes} bytes)"
                )
            }
            ConfigError::IncompatibleMapping { mapping, layout } => {
                write!(
                    f,
                    "mapping mode {mapping:?} is incompatible with layout {layout}"
                )
            }
            ConfigError::ZeroMemoryParameter { field } => {
                write!(f, "{field} must be nonzero")
            }
            ConfigError::UnevenL2Sets { lines, sets } => {
                write!(f, "an L2 of {lines} lines does not divide into {sets} sets")
            }
            ConfigError::ZeroProgressWindow => {
                write!(f, "progress window must be nonzero")
            }
            ConfigError::ZeroCheckpointInterval => {
                write!(f, "checkpoint interval must be nonzero")
            }
            ConfigError::ZeroTelemetryInterval => {
                write!(f, "telemetry sampling interval must be nonzero")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Diagnostic snapshot of the RT unit and memory hierarchy, captured when
/// the watchdog aborts a run.
///
/// Everything a post-mortem needs to tell a deadlock from a livelock from
/// a too-small cycle budget: which warp-buffer slots were occupied, which
/// memory requests were still outstanding, and how deep the queues were.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Core cycle at which the run was aborted.
    pub cycle: u64,
    /// Rays that had not yet retired.
    pub rays_remaining: usize,
    /// Occupied warp-buffer slots per SM.
    pub warp_buffer_occupancy: Vec<usize>,
    /// Memory requests in flight anywhere in the hierarchy.
    pub outstanding_requests: usize,
    /// The oldest outstanding request ids (truncated to a handful).
    pub outstanding_request_ids: Vec<RequestId>,
    /// Entries queued at the L2 partitions.
    pub l2_queue_depth: usize,
    /// Lines in flight at DRAM.
    pub dram_in_flight: usize,
    /// Treelet-prefetch queue depth per SM (empty when no prefetcher).
    pub prefetch_queue_depths: Vec<usize>,
}

impl fmt::Display for ProgressSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {}: {} rays remaining, warp slots {:?}, \
             {} outstanding requests (ids {:?}), l2 queue {}, dram in flight {}",
            self.cycle,
            self.rays_remaining,
            self.warp_buffer_occupancy,
            self.outstanding_requests,
            self.outstanding_request_ids,
            self.l2_queue_depth,
            self.dram_in_flight,
        )?;
        if self.prefetch_queue_depths.iter().any(|&d| d > 0) {
            write!(f, ", prefetch queues {:?}", self.prefetch_queue_depths)?;
        }
        Ok(())
    }
}

/// Why a simulation could not produce a result.
///
/// Returned by [`SimSession`](crate::SimSession)'s `run*` methods and
/// [`Bench::try_run`](crate::Bench::try_run).
#[derive(Debug)]
pub enum SimError {
    /// The configuration failed validation.
    Config(ConfigError),
    /// A required input collection was empty (`what` names it: "ray",
    /// "batch").
    EmptyInput {
        /// The empty input's name.
        what: &'static str,
    },
    /// The supplied treelet assignment does not cover the BVH's nodes.
    TreeletCoverage {
        /// Nodes in the BVH.
        nodes: usize,
        /// Nodes the assignment covers.
        assigned: usize,
    },
    /// The run exceeded the configured hard cycle budget.
    CycleLimitExceeded {
        /// The configured `max_cycles`.
        limit: u64,
        /// State at abort.
        snapshot: ProgressSnapshot,
    },
    /// The watchdog saw no ray retire and no memory response drain for a
    /// full window with no future work scheduled — a livelock.
    NoForwardProgress {
        /// The configured `progress_window`.
        window: u64,
        /// State at abort.
        snapshot: ProgressSnapshot,
    },
    /// A worker job panicked and the panic was contained at the job
    /// boundary instead of unwinding through the pool — one poisoned
    /// (scene, config) cell must not kill a whole sweep.
    WorkerPanicked {
        /// Zero-based index of the job that panicked.
        job: usize,
        /// The panic payload's message, when it carried one.
        message: String,
    },
    /// A checkpoint could not be written, read, or applied (corrupt
    /// bytes, I/O failure, or a checkpoint from different inputs).
    Snapshot(SnapshotError),
}

impl SimError {
    /// Whether re-running the same inputs could plausibly succeed.
    ///
    /// The simulator is deterministic, so genuine simulation failures
    /// (invalid configs, cycle limits, livelocks) recur
    /// identically on a retry; only environmental failures — a panicked
    /// worker, an I/O error while checkpointing — are worth one. This is
    /// the retry policy for every supervising layer (the sweep harness,
    /// the rt-served job supervisor), kept here so they cannot drift
    /// apart.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            SimError::WorkerPanicked { .. } | SimError::Snapshot(SnapshotError::Io { .. })
        )
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The wording of the first three arms is load-bearing: the
        // panicking `simulate` wrappers surface these strings, and
        // long-standing callers match on the substrings.
        match self {
            SimError::Config(e) => write!(f, "invalid simulation config: {e}"),
            SimError::EmptyInput { what } => write!(f, "need at least one {what}"),
            SimError::TreeletCoverage { nodes, assigned } => write!(
                f,
                "treelet assignment does not cover the BVH \
                 ({assigned} of {nodes} nodes assigned)"
            ),
            SimError::CycleLimitExceeded { limit, snapshot } => write!(
                f,
                "simulation exceeded {limit} cycles — deadlock? ({snapshot})"
            ),
            SimError::NoForwardProgress { window, snapshot } => write!(
                f,
                "no forward progress for {window} cycles — livelock? ({snapshot})"
            ),
            SimError::WorkerPanicked { job, message } => {
                write!(f, "worker panicked on job {job}: {message}")
            }
            SimError::Snapshot(e) => write!(f, "checkpoint failure: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            SimError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<SnapshotError> for SimError {
    fn from(e: SnapshotError) -> Self {
        SimError::Snapshot(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> ProgressSnapshot {
        ProgressSnapshot {
            cycle: 1234,
            rays_remaining: 7,
            warp_buffer_occupancy: vec![2, 0],
            outstanding_requests: 3,
            outstanding_request_ids: vec![10, 11, 12],
            l2_queue_depth: 1,
            dram_in_flight: 0,
            prefetch_queue_depths: vec![4, 0],
        }
    }

    #[test]
    fn display_preserves_legacy_panic_substrings() {
        let config = SimError::Config(ConfigError::ZeroSizedStructure);
        assert!(config.to_string().contains("invalid simulation config"));
        assert!(SimError::EmptyInput { what: "ray" }
            .to_string()
            .contains("need at least one ray"));
        assert!(SimError::EmptyInput { what: "batch" }
            .to_string()
            .contains("need at least one batch"));
        let coverage = SimError::TreeletCoverage {
            nodes: 10,
            assigned: 4,
        };
        assert!(coverage
            .to_string()
            .contains("treelet assignment does not cover the BVH"));
    }

    #[test]
    fn watchdog_errors_carry_their_snapshots() {
        let e = SimError::NoForwardProgress {
            window: 5000,
            snapshot: snapshot(),
        };
        let text = e.to_string();
        assert!(text.contains("livelock"));
        assert!(text.contains("7 rays remaining"));
        assert!(text.contains("prefetch queues"));
        let e = SimError::CycleLimitExceeded {
            limit: 99,
            snapshot: snapshot(),
        };
        assert!(e.to_string().contains("exceeded 99 cycles"));
    }

    #[test]
    fn sources_chain_to_the_cause() {
        use std::error::Error;
        let e = SimError::from(ConfigError::ZeroProgressWindow);
        assert!(e.source().is_some());
        assert!(SimError::EmptyInput { what: "ray" }.source().is_none());
    }

    #[test]
    fn snapshot_errors_display_and_chain() {
        use std::error::Error;
        let e = SimError::from(SnapshotError::IdentityMismatch {
            expected: 1,
            found: 2,
        });
        assert!(e.to_string().contains("checkpoint failure"));
        assert!(e.to_string().contains("different run"));
        assert!(e.source().is_some());
        let e = SimError::from(SnapshotError::Decode(rt_gpu_sim::DecodeError::BadMagic));
        assert!(e.to_string().contains("invalid checkpoint"));
        let e = SimError::from(SnapshotError::IntervalMismatch {
            epoch: 2,
            cycle: 4000,
            every: 3000,
        });
        assert!(e.to_string().contains("not written every 3000 cycles"));
        assert!(!e.is_transient());
    }

    #[test]
    fn worker_panicked_names_the_job_and_message() {
        let e = SimError::WorkerPanicked {
            job: 3,
            message: "index out of bounds".into(),
        };
        let text = e.to_string();
        assert!(text.contains("job 3"));
        assert!(text.contains("index out of bounds"));
        use std::error::Error;
        assert!(e.source().is_none());
    }

    #[test]
    fn transience_separates_environment_from_determinism() {
        assert!(SimError::WorkerPanicked {
            job: 0,
            message: "boom".into()
        }
        .is_transient());
        // Deterministic failures recur on retry: not transient.
        assert!(!SimError::EmptyInput { what: "ray" }.is_transient());
        assert!(!SimError::Config(ConfigError::ZeroProgressWindow).is_transient());
        assert!(!SimError::CycleLimitExceeded {
            limit: 1,
            snapshot: snapshot()
        }
        .is_transient());
        // A checkpoint from different inputs is a permanent mismatch; a
        // checkpoint I/O failure is the environment's fault.
        assert!(!SimError::from(SnapshotError::IdentityMismatch {
            expected: 1,
            found: 2
        })
        .is_transient());
    }

    #[test]
    fn config_error_messages_name_the_fields() {
        let e = ConfigError::TreeletBudgetTooSmall { bytes: 32 };
        assert!(e.to_string().contains("32 bytes"));
        assert!(ConfigError::ZeroProgressWindow
            .to_string()
            .contains("progress window"));
    }
}
