//! Simulation configuration (the paper's Table 1 plus the treelet knobs).

use crate::error::ConfigError;
use crate::prefetch::{MappingMode, PrefetchHeuristic, VoterKind};
use crate::traversal::{TraversalAlgorithm, TraversalOptions};
use crate::treelet::{FormationPolicy, DEFAULT_TREELET_BYTES};
use crate::workloads::BounceKind;
use rt_gpu_sim::MemConfig;
use std::fmt;

/// How BVH memory is laid out for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutChoice {
    /// Baseline depth-first node order.
    DepthFirst,
    /// Treelet-packed layout with an optional extra inter-treelet stride
    /// (Fig. 15's DRAM load-balancing knob).
    TreeletPacked {
        /// Extra bytes between treelet slots (0 or 256 in the paper).
        extra_stride: u64,
    },
    /// Unmodified (depth-first) layout plus a node-to-treelet mapping
    /// table the prefetcher must consult (§4.4).
    MappingTable,
}

impl fmt::Display for LayoutChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutChoice::DepthFirst => write!(f, "depth-first"),
            LayoutChoice::TreeletPacked { extra_stride } => {
                write!(f, "treelet-packed(+{extra_stride}B)")
            }
            LayoutChoice::MappingTable => write!(f, "mapping-table"),
        }
    }
}

/// Which prefetcher (if any) the RT unit runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrefetchConfig {
    /// No prefetching (the baseline RT unit).
    None,
    /// The paper's treelet prefetcher.
    Treelet {
        /// Prefetch heuristic (§4.2).
        heuristic: PrefetchHeuristic,
        /// Majority voter implementation (§4.1.1).
        voter: VoterKind,
        /// Voter latency in cycles (Fig. 16 sweeps 0–512).
        latency: u64,
        /// How treelet membership is learned (§4.4).
        mapping: MappingMode,
    },
    /// The Lee et al. many-thread-aware stride prefetcher, implemented
    /// optimistically with infinite tables (Fig. 8's comparison).
    Mta,
    /// A global-history-buffer prefetcher (§2.3), the classic
    /// irregular-pattern prefetcher the paper argues cannot capture
    /// per-ray miss sequences.
    Ghb,
}

impl PrefetchConfig {
    /// No prefetcher (the baseline RT unit).
    pub fn none() -> Self {
        PrefetchConfig::None
    }

    /// The paper's default treelet prefetcher: ALWAYS heuristic, ideal
    /// voter, packed layout.
    pub fn treelet() -> Self {
        PrefetchConfig::Treelet {
            heuristic: PrefetchHeuristic::Always,
            voter: VoterKind::Full,
            latency: 0,
            mapping: MappingMode::Packed,
        }
    }

    /// The Lee et al. many-thread-aware stride prefetcher.
    pub fn mta() -> Self {
        PrefetchConfig::Mta
    }

    /// The global-history-buffer prefetcher.
    pub fn ghb() -> Self {
        PrefetchConfig::Ghb
    }

    /// `true` if any prefetcher is active.
    pub fn is_enabled(&self) -> bool {
        !matches!(self, PrefetchConfig::None)
    }
}

/// A simplified shader program the SM runs around its `traceRay` calls
/// (paper Fig. 2: warps execute shader code on the SM's execution units;
/// the RT unit only handles traversal).
///
/// Each warp issues `raygen_ops` shader operations (one per cycle on the
/// SM's shared issue port, arbitrated oldest-first across warps), calls
/// `traceRay`, waits for the RT unit, runs `shade_ops` operations on the
/// results, and — for `bounces > 0` — traces the bounce rays derived from
/// the hits, with dead lanes masked off SIMT-style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShaderProgram {
    /// Shader operations before the first `traceRay`.
    pub raygen_ops: u64,
    /// Shader operations between a generation's results and the next
    /// `traceRay` (closest-hit/miss shading).
    pub shade_ops: u64,
    /// Secondary ray generations (0 = primary rays only).
    pub bounces: u32,
    /// How bounce directions are derived from hits.
    pub bounce_kind: BounceKind,
    /// RNG seed for diffuse bounces.
    pub seed: u64,
}

impl ShaderProgram {
    /// A small path-tracing-style program: light raygen, one diffuse
    /// bounce, moderate shading.
    pub fn path_tracer() -> Self {
        ShaderProgram {
            raygen_ops: 32,
            shade_ops: 64,
            bounces: 1,
            bounce_kind: BounceKind::Diffuse,
            seed: 0x5ade,
        }
    }
}

/// Where treelet prefetches are installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrefetchDestination {
    /// Into the requesting SM's L1 (the paper's design).
    #[default]
    L1,
    /// Into the shared L2 only — avoids L1 pollution at the cost of the
    /// L2 hit latency on first use (an extension experiment).
    L2,
}

impl fmt::Display for PrefetchDestination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PrefetchDestination::L1 => "L1",
            PrefetchDestination::L2 => "L2",
        })
    }
}

/// RT-unit warp scheduling policy (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerPolicy {
    /// Oldest non-stalled warp (the baseline).
    Baseline,
    /// Oldest warp with a ray Matching the prefetched treelet (OMR).
    OldestMatchingRay,
    /// The warp with the Most Rays matching the prefetched treelet (PMR).
    PrioritizeMostRays,
}

impl fmt::Display for SchedulerPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SchedulerPolicy::Baseline => "baseline",
            SchedulerPolicy::OldestMatchingRay => "OMR",
            SchedulerPolicy::PrioritizeMostRays => "PMR",
        })
    }
}

/// Periodic checkpointing of a running simulation.
///
/// Every `every` cycles (an *epoch*), the engine serializes its complete
/// dynamic state into `path` — atomically, so a crash at any instant
/// leaves either the previous checkpoint or the new one, never a torn
/// file. Hand the options to [`SimSession::checkpoint`](crate::SimSession::checkpoint)
/// to start fresh, or the same options to
/// [`SimSession::resume`](crate::SimSession::resume) to restart a killed
/// run from that file with a bit-identical
/// [`SimResult`](crate::SimResult) to the uninterrupted run; `every`
/// must stay what it was when the file was written.
///
/// # Examples
///
/// ```no_run
/// use treelet_rt::CheckpointOptions;
///
/// let opts = CheckpointOptions::new(10_000, "/tmp/run.rtsnap")
///     .with_digest_log("/tmp/run.digests");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointOptions {
    /// Cycles between checkpoints (must be nonzero).
    pub every: u64,
    /// Checkpoint file, atomically replaced at each epoch.
    pub path: std::path::PathBuf,
    /// Optional replay-digest log: one `epoch=…` line per epoch,
    /// truncated back to the resumed epoch on resume. Two runs are
    /// bit-identical exactly when their logs match; `bisect-divergence`
    /// compares two such logs.
    pub digest_log: Option<std::path::PathBuf>,
}

impl CheckpointOptions {
    /// Checkpointing every `every` cycles into `path`, with no digest
    /// log.
    pub fn new(every: u64, path: impl Into<std::path::PathBuf>) -> Self {
        CheckpointOptions {
            every,
            path: path.into(),
            digest_log: None,
        }
    }

    /// Returns a copy that also appends per-epoch state digests to
    /// `path`.
    pub fn with_digest_log(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.digest_log = Some(path.into());
        self
    }

    /// Validates the options.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroCheckpointInterval`] if `every` is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.every == 0 {
            return Err(ConfigError::ZeroCheckpointInterval);
        }
        Ok(())
    }
}

/// Full simulation configuration.
///
/// # Examples
///
/// ```
/// use treelet_rt::SimConfig;
///
/// let baseline = SimConfig::paper_baseline();
/// let treelet = SimConfig::paper_treelet_prefetch();
/// assert!(!baseline.prefetch.is_enabled());
/// assert!(treelet.prefetch.is_enabled());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of streaming multiprocessors (Table 1: 8).
    pub num_sms: usize,
    /// Threads per warp (Table 1: 32).
    pub warp_size: usize,
    /// RT-unit warp buffer entries (Table 1: 16).
    pub warp_buffer_size: usize,
    /// Memory hierarchy parameters.
    pub mem: MemConfig,
    /// Ray traversal algorithm.
    pub traversal: TraversalAlgorithm,
    /// Traversal ablation knobs (child ordering, early termination).
    pub traversal_options: TraversalOptions,
    /// Treelet formation growth policy (§3.1; extra policies explore the
    /// paper's §8 future work).
    pub formation: FormationPolicy,
    /// BVH memory layout.
    pub layout: LayoutChoice,
    /// Maximum treelet size in bytes (512 default; Fig. 19 sweeps).
    pub treelet_bytes: u64,
    /// Prefetcher configuration.
    pub prefetch: PrefetchConfig,
    /// Where treelet prefetches are installed (extension; the paper uses
    /// the L1).
    pub prefetch_destination: PrefetchDestination,
    /// Also prefetch the triangle data referenced by the treelet's leaf
    /// nodes (extension; the paper prefetches node records only).
    pub prefetch_triangles: bool,
    /// Warp scheduling policy.
    pub scheduler: SchedulerPolicy,
    /// RT-unit operation latency of a ray-box (node) test, cycles.
    pub node_test_latency: u64,
    /// RT-unit operation latency of a ray-triangle (leaf) test, cycles.
    pub tri_test_latency: u64,
    /// Demand lines the RT unit's memory scheduler issues from the
    /// selected warp per cycle (the L1 access-queue width).
    pub issue_width: usize,
    /// Cycles of ray-generation shader work separating consecutive warps'
    /// `traceRay` issues on one SM (0 = all warps arrive immediately, the
    /// trace-replay idealization; a real shader core staggers them).
    /// Ignored when `shader` is set — the shader model supersedes it.
    pub raygen_interval: u64,
    /// Optional SM shader-pipeline model wrapped around the RT unit
    /// (None = pure trace replay, the paper's §5 methodology).
    pub shader: Option<ShaderProgram>,
    /// Prefetch queue capacity in entries.
    pub prefetch_queue_capacity: usize,
    /// Hard cycle limit (deadlock guard).
    pub max_cycles: u64,
    /// Forward-progress watchdog window, cycles: if no ray retires and no
    /// memory response drains for this many consecutive cycles (and no
    /// future work is scheduled), the run aborts with
    /// [`SimError::NoForwardProgress`](crate::SimError::NoForwardProgress)
    /// instead of spinning until `max_cycles`.
    pub progress_window: u64,
    /// Fast-forward the cycle loop across provably idle stretches (no
    /// queued work anywhere, every pending event strictly in the future).
    /// The skip is exact — cycle counts, occupancy integrals, watchdog
    /// behavior and state digests are bit-identical with it off — so it
    /// only trades wall-clock time. On by default; turn off to force the
    /// naive cycle-by-cycle loop (e.g. when bisecting the engine itself).
    pub idle_skip: bool,
}

impl SimConfig {
    /// The unmodified baseline RT unit: DFS traversal, depth-first layout,
    /// no prefetching.
    pub fn paper_baseline() -> Self {
        SimConfig {
            num_sms: 8,
            warp_size: 32,
            warp_buffer_size: 16,
            mem: MemConfig::paper_default(),
            traversal: TraversalAlgorithm::BaselineDfs,
            traversal_options: TraversalOptions::default(),
            formation: FormationPolicy::GreedyBfs,
            layout: LayoutChoice::DepthFirst,
            treelet_bytes: DEFAULT_TREELET_BYTES,
            prefetch: PrefetchConfig::None,
            prefetch_destination: PrefetchDestination::L1,
            prefetch_triangles: false,
            scheduler: SchedulerPolicy::Baseline,
            node_test_latency: 4,
            tri_test_latency: 8,
            issue_width: 4,
            raygen_interval: 0,
            shader: None,
            prefetch_queue_capacity: 64,
            max_cycles: 200_000_000,
            progress_window: 1_000_000,
            idle_skip: true,
        }
    }

    /// Treelet-based traversal without prefetching (Fig. 9's lower bars).
    pub fn paper_treelet_traversal_only() -> Self {
        SimConfig {
            traversal: TraversalAlgorithm::TwoStackTreelet,
            layout: LayoutChoice::TreeletPacked { extra_stride: 0 },
            ..SimConfig::paper_baseline()
        }
    }

    /// The paper's headline configuration (Fig. 7): treelet traversal +
    /// treelet prefetching with the ALWAYS heuristic, PMR scheduler, and
    /// 512-byte treelets.
    pub fn paper_treelet_prefetch() -> Self {
        SimConfig {
            traversal: TraversalAlgorithm::TwoStackTreelet,
            layout: LayoutChoice::TreeletPacked { extra_stride: 0 },
            prefetch: PrefetchConfig::treelet(),
            scheduler: SchedulerPolicy::PrioritizeMostRays,
            ..SimConfig::paper_baseline()
        }
    }

    /// Returns a copy with a different heuristic (treelet prefetch runs).
    pub fn with_heuristic(mut self, heuristic: PrefetchHeuristic) -> Self {
        if let PrefetchConfig::Treelet { heuristic: h, .. } = &mut self.prefetch {
            *h = heuristic;
        }
        self
    }

    /// Returns a copy with a different scheduler.
    pub fn with_scheduler(mut self, scheduler: SchedulerPolicy) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Returns a copy with a different treelet byte budget.
    pub fn with_treelet_bytes(mut self, bytes: u64) -> Self {
        self.treelet_bytes = bytes;
        self
    }

    /// Returns a copy with a different voter and latency.
    pub fn with_voter(mut self, kind: VoterKind, latency_cycles: u64) -> Self {
        if let PrefetchConfig::Treelet { voter, latency, .. } = &mut self.prefetch {
            *voter = kind;
            *latency = latency_cycles;
        }
        self
    }

    /// Returns a copy running the given prefetcher.
    ///
    /// For a treelet prefetcher the memory layout is reconciled with the
    /// mapping mode (packed layout for [`MappingMode::Packed`], the
    /// mapping-table layout otherwise), mirroring
    /// [`SimConfig::with_mapping_mode`]; other prefetchers leave the
    /// layout untouched.
    pub fn with_prefetcher(mut self, prefetch: PrefetchConfig) -> Self {
        self.prefetch = prefetch;
        if let PrefetchConfig::Treelet { mapping, .. } = prefetch {
            self.layout = match mapping {
                MappingMode::Packed => LayoutChoice::TreeletPacked { extra_stride: 0 },
                _ => LayoutChoice::MappingTable,
            };
        }
        self
    }

    /// Returns a copy using the unmodified BVH + mapping-table option.
    pub fn with_mapping_mode(mut self, mode: MappingMode) -> Self {
        if let PrefetchConfig::Treelet { mapping, .. } = &mut self.prefetch {
            *mapping = mode;
        }
        self.layout = match mode {
            MappingMode::Packed => LayoutChoice::TreeletPacked { extra_stride: 0 },
            _ => LayoutChoice::MappingTable,
        };
        self
    }

    /// Validates cross-field consistency.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found: zero-sized structures, a
    /// zero memory size, stride or clock, L2 sets that do not divide its
    /// lines, a treelet budget below one node, a prefetcher mapping mode
    /// incompatible with the memory layout, or a zero watchdog window.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_sms == 0 || self.warp_size == 0 || self.warp_buffer_size == 0 {
            return Err(ConfigError::ZeroSizedStructure);
        }
        // The memory model divides by each of these or sizes a cache,
        // an MSHR file or the DRAM with it, so a zero panics there.
        let mem = &self.mem;
        let sizes = [
            ("mem.line_bytes", mem.line_bytes),
            ("mem.l1_lines", mem.l1_lines as u64),
            ("mem.l1_mshrs", mem.l1_mshrs as u64),
            ("mem.l2_lines", mem.l2_lines as u64),
            ("mem.l2_sets", mem.l2_sets),
            ("mem.l2_mshrs", mem.l2_mshrs as u64),
            ("mem.l2_partitions", mem.l2_partitions as u64),
            ("mem.l2_partition_stride", mem.l2_partition_stride),
            ("mem.core_clock_mhz", mem.core_clock_mhz),
            ("mem.mem_clock_mhz", mem.mem_clock_mhz),
            ("mem.dram.channels", mem.dram.channels as u64),
            ("mem.dram.partition_stride", mem.dram.partition_stride),
            ("mem.dram.burst_cycles", mem.dram.burst_cycles),
        ];
        if let Some(&(field, _)) = sizes.iter().find(|&&(_, value)| value == 0) {
            return Err(ConfigError::ZeroMemoryParameter { field });
        }
        if !(mem.l2_lines as u64).is_multiple_of(mem.l2_sets) {
            return Err(ConfigError::UnevenL2Sets {
                lines: mem.l2_lines,
                sets: mem.l2_sets,
            });
        }
        if self.treelet_bytes < 64 {
            return Err(ConfigError::TreeletBudgetTooSmall {
                bytes: self.treelet_bytes,
            });
        }
        if self.progress_window == 0 {
            return Err(ConfigError::ZeroProgressWindow);
        }
        if let PrefetchConfig::Treelet { mapping, .. } = self.prefetch {
            match (mapping, self.layout) {
                (MappingMode::Packed, LayoutChoice::TreeletPacked { .. }) => {}
                (MappingMode::LooseWait | MappingMode::StrictWait, LayoutChoice::MappingTable) => {}
                (mapping, layout) => {
                    return Err(ConfigError::IncompatibleMapping { mapping, layout })
                }
            }
        }
        Ok(())
    }

    /// Warp-buffer ray capacity (the popularity-ratio denominator).
    pub fn warp_buffer_rays(&self) -> u32 {
        (self.warp_buffer_size * self.warp_size) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        SimConfig::paper_baseline().validate().unwrap();
        SimConfig::paper_treelet_traversal_only()
            .validate()
            .unwrap();
        SimConfig::paper_treelet_prefetch().validate().unwrap();
    }

    #[test]
    fn paper_table_1_values() {
        let c = SimConfig::paper_baseline();
        assert_eq!(c.num_sms, 8);
        assert_eq!(c.warp_size, 32);
        assert_eq!(c.warp_buffer_size, 16);
        assert_eq!(c.warp_buffer_rays(), 512);
        assert_eq!(c.mem.l1_lines * c.mem.line_bytes as usize, 64 * 1024);
        assert_eq!(c.mem.l2_lines * c.mem.line_bytes as usize, 3 * 1024 * 1024);
        assert_eq!(c.mem.core_clock_mhz, 1365);
        assert_eq!(c.mem.mem_clock_mhz, 3500);
    }

    #[test]
    fn mapping_mode_builder_keeps_config_consistent() {
        let strict = SimConfig::paper_treelet_prefetch().with_mapping_mode(MappingMode::StrictWait);
        strict.validate().unwrap();
        assert_eq!(strict.layout, LayoutChoice::MappingTable);
        let packed = strict.with_mapping_mode(MappingMode::Packed);
        packed.validate().unwrap();
        assert_eq!(
            packed.layout,
            LayoutChoice::TreeletPacked { extra_stride: 0 }
        );
    }

    #[test]
    fn inconsistent_mapping_is_rejected() {
        let mut c = SimConfig::paper_treelet_prefetch();
        c.layout = LayoutChoice::DepthFirst;
        assert!(c.validate().is_err());
    }

    #[test]
    fn builders_modify_fields() {
        let c = SimConfig::paper_treelet_prefetch()
            .with_heuristic(PrefetchHeuristic::Partial)
            .with_scheduler(SchedulerPolicy::OldestMatchingRay)
            .with_treelet_bytes(1024)
            .with_voter(VoterKind::PseudoTwoLevel, 32);
        assert_eq!(c.treelet_bytes, 1024);
        assert_eq!(c.scheduler, SchedulerPolicy::OldestMatchingRay);
        match c.prefetch {
            PrefetchConfig::Treelet {
                heuristic,
                voter,
                latency,
                ..
            } => {
                assert_eq!(heuristic, PrefetchHeuristic::Partial);
                assert_eq!(voter, VoterKind::PseudoTwoLevel);
                assert_eq!(latency, 32);
            }
            other => panic!("unexpected prefetch config {other:?}"),
        }
    }

    #[test]
    fn checkpoint_options_validate() {
        let opts = CheckpointOptions::new(5_000, "/tmp/ck.rtsnap").with_digest_log("/tmp/ck.log");
        opts.validate().unwrap();
        assert_eq!(opts.every, 5_000);
        assert!(opts.digest_log.is_some());
        assert_eq!(
            CheckpointOptions::new(0, "/tmp/ck.rtsnap").validate(),
            Err(ConfigError::ZeroCheckpointInterval)
        );
    }

    #[test]
    fn zero_treelet_budget_rejected() {
        let mut c = SimConfig::paper_baseline();
        c.treelet_bytes = 32;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_errors_are_typed() {
        let mut c = SimConfig::paper_baseline();
        c.num_sms = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroSizedStructure));

        let mut c = SimConfig::paper_baseline();
        c.treelet_bytes = 32;
        assert_eq!(
            c.validate(),
            Err(ConfigError::TreeletBudgetTooSmall { bytes: 32 })
        );

        let mut c = SimConfig::paper_baseline();
        c.progress_window = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroProgressWindow));

        let mut c = SimConfig::paper_treelet_prefetch();
        c.layout = LayoutChoice::DepthFirst;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::IncompatibleMapping {
                mapping: MappingMode::Packed,
                layout: LayoutChoice::DepthFirst,
            })
        ));
    }
}
