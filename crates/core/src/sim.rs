//! The RT-unit timing simulation.
//!
//! Follows the paper's methodology (§5): traversal is functionally
//! simulated to produce each ray's dependent memory-access sequence, and
//! this cycle-level model replays those sequences through the RT unit —
//! warp buffer, memory scheduler, operation units, treelet prefetcher,
//! and prefetch queue — on top of the `rt-gpu-sim` memory hierarchy.

use crate::config::{CheckpointOptions, LayoutChoice, PrefetchConfig, SchedulerPolicy, SimConfig};
use crate::error::{ProgressSnapshot, SimError};
use crate::ghb::GhbStats;
use crate::hashpath::{hash_ray_key, HashPathStats};
use crate::mta::MtaStats;
use crate::power::{ActivityCounts, EnergyModel, PowerReport};
use crate::prefetch::{MappingMode, PrefetchEntry, PrefetchUsefulness, PrefetcherStats};
use crate::prefetcher::{PrefetchUnitStats, Prefetcher, PrefetcherUnit, WarpBufferView};
use crate::snapshot::{self, Checkpoint, DigestRecord, SnapshotError};
use crate::telemetry::{Telemetry, TelemetrySample};
use crate::traversal::{compile_trace, trace_ray_with, CompiledStep, RayTrace, TraversalStats};
use crate::treelet::TreeletAssignment;
use rt_bvh::{MemoryImage, PackOptions, TreeStats, WideBvh};
use rt_geometry::Ray;
use rt_gpu_sim::{
    fnv1a64, AccessKind, ByteReader, ByteWriter, CacheStats, CountTable, CountVec, DecodeError,
    FillOrigin, FxBuildHasher, FxHashMap, Issue, MemorySystem, PrefetchEffect, RequestId,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::Write as _;

/// Everything a simulation run measures.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Total core cycles until every ray retired.
    pub cycles: u64,
    /// Rays simulated.
    pub rays: usize,
    /// Functional traversal statistics (Table 3 metrics).
    pub traversal: TraversalStats,
    /// Summed L1 counters (Fig. 12 breakdown).
    pub l1: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// Prefetch effectiveness classification at the L1 (Fig. 20).
    pub prefetch_effect: PrefetchEffect,
    /// Prefetch effectiveness at the L2 (populated for L2-destination
    /// prefetch runs).
    pub prefetch_effect_l2: PrefetchEffect,
    /// Treelet prefetcher counters, when enabled.
    pub prefetcher: Option<PrefetcherStats>,
    /// MTA comparison prefetcher counters, when enabled.
    pub mta: Option<MtaStats>,
    /// GHB comparison prefetcher counters, when enabled.
    pub ghb: Option<GhbStats>,
    /// Hash-path predictor counters, when enabled.
    pub hash: Option<HashPathStats>,
    /// Mean latency of demand BVH-node loads, core cycles (Fig. 1b).
    pub node_load_latency: f64,
    /// 99th-percentile latency of demand BVH-node loads (tail latency).
    pub node_load_latency_p99: f64,
    /// Mean DRAM data-bus utilization (Fig. 1a).
    pub dram_utilization: f64,
    /// Per-channel DRAM access counts (Fig. 15 evidence).
    pub dram_channel_accesses: Vec<u64>,
    /// Lines moved from L2 toward L1s (Fig. 11's L2 bandwidth).
    pub l2_to_l1_lines: u64,
    /// Lines moved from DRAM into L2.
    pub dram_to_l2_lines: u64,
    /// Dynamic activity for the power model.
    pub activity: ActivityCounts,
    /// Power/energy report.
    pub power: PowerReport,
    /// BVH statistics of the scene (Table 2).
    pub tree: TreeStats,
    /// Number of treelets formed (Table 2).
    pub treelet_count: usize,
    /// Mean fraction of live lanes per warp entering the RT unit. Lanes
    /// are masked off when their ray has no traversal work (missed the
    /// scene) or died in an earlier bounce generation (shader mode).
    pub simt_efficiency: f64,
    /// Mean fraction of RT-unit warp-buffer slots occupied over the run.
    pub warp_buffer_occupancy: f64,
    /// FNV-1a digest of the engine's complete final state (warp buffer,
    /// traversal progress, caches, DRAM, prefetchers). Two runs of the
    /// same inputs are bit-identical exactly when these match — the
    /// checkpoint/resume acceptance check compares them.
    pub state_digest: u64,
}

impl SimResult {
    /// Speedup of this run relative to `baseline` (ratio of cycle counts;
    /// with fixed work this equals the paper's IPC speedup).
    pub fn speedup_over(&self, baseline: &SimResult) -> f64 {
        baseline.cycles as f64 / self.cycles as f64
    }

    /// L2→L1 bandwidth in bytes per core cycle (Fig. 11's metric before
    /// normalization).
    pub fn l2_bytes_per_cycle(&self, line_bytes: u64) -> f64 {
        self.l2_to_l1_lines as f64 * line_bytes as f64 / self.cycles as f64
    }
}

/// Digest pinning a checkpoint to its inputs: the canonicalized
/// configuration (cycle budgets zeroed — they bound the run but never
/// alter its state trajectory, and resuming an exhausted run under a
/// larger budget is the whole point), plus the BVH, ray-set, and treelet
/// shapes. The heavyweight inputs (node bounds, ray origins) are pinned
/// transitively: the serialized engine state they produce would not
/// round-trip against different geometry, and the digest check turns
/// that into an upfront typed error for the overwhelmingly common
/// mix-up — pointing a resume at the wrong scene or config.
pub(crate) fn run_identity(
    bvh: &WideBvh,
    rays: &[Ray],
    config: &SimConfig,
    treelets: &TreeletAssignment,
) -> u64 {
    let mut canon = config.clone();
    canon.max_cycles = 0;
    canon.progress_window = 0;
    // Idle-skipping is a pure wall-clock optimization (bit-identical
    // trajectory), so a checkpoint written with it off resumes with it on.
    canon.idle_skip = true;
    let mut w = ByteWriter::new();
    w.put_bytes(format!("{canon:?}").as_bytes());
    w.put_usize(bvh.node_count());
    w.put_usize(rays.len());
    w.put_usize(treelets.count());
    fnv1a64(w.bytes())
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn try_run_engine(
    bvh: &WideBvh,
    rays: &[Ray],
    config: &SimConfig,
    treelets: &TreeletAssignment,
    mem: MemorySystem,
    finalize: bool,
    checkpoint: Option<&CheckpointOptions>,
    resume: Option<Checkpoint>,
    mut telemetry: Option<&mut Telemetry>,
) -> Result<(SimResult, MemorySystem), SimError> {
    config.validate()?;
    if rays.is_empty() {
        return Err(SimError::EmptyInput { what: "ray" });
    }
    let assigned = treelets.as_slices().iter().map(Vec::len).sum::<usize>();
    if bvh.node_count() != assigned {
        return Err(SimError::TreeletCoverage {
            nodes: bvh.node_count(),
            assigned,
        });
    }

    let image = match config.layout {
        LayoutChoice::DepthFirst => MemoryImage::depth_first(bvh),
        LayoutChoice::TreeletPacked { extra_stride } => MemoryImage::treelet_packed(
            bvh,
            treelets.as_slices(),
            PackOptions {
                slot_bytes: treelets.max_bytes(),
                extra_stride,
            },
        ),
        LayoutChoice::MappingTable => MemoryImage::depth_first(bvh).with_mapping_table(),
    };

    let trace_one =
        |r: &Ray| trace_ray_with(bvh, treelets, r, config.traversal, config.traversal_options);
    // Hash-predictor runs precompute each ray's prediction key (dead
    // lanes keep a placeholder; they never enter the warp buffer).
    let hash_quant = match config.prefetch {
        PrefetchConfig::Hash {
            origin_bits,
            dir_bits,
            seed,
            ..
        } => Some((origin_bits, dir_bits, seed)),
        _ => None,
    };
    let scene_bounds = bvh.root_aabb();
    let key_of = |r: &Ray| {
        let (origin_bits, dir_bits, seed) = hash_quant.expect("hash config");
        hash_ray_key(r, &scene_bounds, origin_bits, dir_bits, seed)
    };
    let mut hash_keys: Vec<u64> = match hash_quant {
        Some(_) => rays.iter().map(key_of).collect(),
        None => Vec::new(),
    };
    // Generation 0: the supplied rays. With a shader program, bounce
    // generations follow, lane-aligned (dead lanes are None).
    let mut all_traces: Vec<Option<RayTrace>> = rays.iter().map(|r| Some(trace_one(r))).collect();
    if let Some(program) = config.shader {
        let mut current: Vec<Option<Ray>> = rays.iter().copied().map(Some).collect();
        for g in 1..=program.bounces {
            current = crate::workloads::bounce_rays_indexed(
                bvh,
                &current,
                program.bounce_kind,
                program.seed.wrapping_add(g as u64),
            );
            all_traces.extend(current.iter().map(|r| r.as_ref().map(trace_one)));
            if hash_quant.is_some() {
                hash_keys.extend(current.iter().map(|r| r.as_ref().map_or(0, key_of)));
            }
        }
    }
    let live_traces: Vec<RayTrace> = all_traces.iter().flatten().cloned().collect();
    let traversal = TraversalStats::of(&live_traces);
    let line_bytes = config.mem.line_bytes;
    let compiled: Vec<Vec<CompiledStep>> = all_traces
        .iter()
        .map(|t| {
            t.as_ref()
                .map(|t| compile_trace(t, &image, line_bytes))
                .unwrap_or_default()
        })
        .collect();

    // Operation-unit activity is fixed by the functional traces.
    let mut activity = ActivityCounts::default();
    for steps in &compiled {
        for s in steps {
            if s.is_leaf {
                activity.tri_tests += (s.lines.len() as u64).saturating_sub(1).max(1);
            } else {
                activity.box_tests += rt_bvh::WIDE_ARITY as u64;
            }
        }
    }

    // Per-treelet cache lines, front (upper levels) first. With the
    // triangle-prefetch extension, leaf members' primitive lines follow
    // the node lines (so PARTIAL still prioritizes upper nodes).
    let treelet_lines: Vec<Vec<u64>> = (0..treelets.count() as u32)
        .map(|g| {
            let mut lines: Vec<u64> = treelets
                .members(g)
                .iter()
                .map(|&n| image.node_addr(n) / line_bytes * line_bytes)
                .collect();
            if config.prefetch_triangles {
                for &n in treelets.members(g) {
                    if let rt_bvh::WideNode::Leaf { first, count, .. } = &bvh.nodes()[n as usize] {
                        let begin = image.triangle_addr(*first);
                        let end = begin + *count as u64 * rt_bvh::TRIANGLE_SIZE_BYTES;
                        let mut addr = begin / line_bytes * line_bytes;
                        while addr < end {
                            lines.push(addr);
                            addr += line_bytes;
                        }
                    }
                }
            }
            let mut seen = std::collections::HashSet::new();
            lines.retain(|l| seen.insert(*l));
            lines
        })
        .collect();
    let meta_lines: Vec<u64> = (0..treelets.count() as u32)
        .map(|g| {
            image
                .mapping_entry_addr(treelets.members(g)[0])
                .unwrap_or(0)
                / line_bytes
                * line_bytes
        })
        .collect();

    let mut start_cycle = mem.cycle();
    let mut engine = Engine::new(
        config,
        &compiled,
        treelets,
        treelet_lines,
        meta_lines,
        hash_keys,
        mem,
    );
    let mut resumed_epoch = None;
    if let Some(ck) = resume {
        engine
            .restore_dynamic(&ck.payload)
            .map_err(|e| SimError::Snapshot(SnapshotError::Decode(e)))?;
        // `cycles` must measure the whole logical run, not just the
        // resumed tail, so the original start carries over.
        start_cycle = ck.start_cycle;
        resumed_epoch = Some(ck.epoch);
    }
    let mut runner = match checkpoint {
        None => None,
        Some(opts) => {
            let identity = run_identity(bvh, rays, config, treelets);
            Some(CheckpointRunner::start(
                opts,
                identity,
                start_cycle,
                resumed_epoch,
            )?)
        }
    };
    let end_cycle = engine.run(runner.as_mut(), telemetry.as_deref_mut())?;
    // A closing sample at the retiring cycle, so short runs (and the tail
    // between the last epoch and retirement) are never invisible.
    if let Some(t) = telemetry {
        if t.samples().last().is_none_or(|s| s.cycle != end_cycle) {
            let sample = engine.telemetry_sample(end_cycle);
            t.record(sample);
        }
    }
    let cycles = end_cycle - start_cycle;
    // Always-on-in-debug memory audit: every request the engine issued
    // must have been answered exactly once (fault injection legitimately
    // breaks the books by dropping responses).
    if config.mem.fault_injection.is_none() {
        let audit = engine.mem.audit();
        debug_assert!(
            audit.double_completions == 0 && audit.dropped_responses == 0,
            "memory-system audit failed: {audit:?}"
        );
    }

    let l1 = engine.mem.l1_stats_total();
    let l2 = engine.mem.l2_stats();
    let (prefetch_effect, prefetch_effect_l2) = if finalize {
        (
            engine.mem.finalize_prefetch_effect(),
            engine.mem.finalize_l2_prefetch_effect(),
        )
    } else {
        (
            engine.mem.prefetch_effect_snapshot(),
            PrefetchEffect::default(),
        )
    };
    activity.l1_accesses = l1.demand_accesses() + l1.prefetch_probes;
    activity.l2_accesses = l2.demand_accesses() + l2.prefetch_probes;
    activity.dram_accesses = engine.mem.dram().total_accesses();
    let power = EnergyModel::paper_default().evaluate(
        &activity,
        cycles,
        config.num_sms,
        config.mem.core_clock_mhz,
    );

    // One kind-tagged fold over the units, then split into the
    // per-kind result fields.
    let mut unit_stats: Option<PrefetchUnitStats> = None;
    for unit in engine.sms.iter().filter_map(|s| s.unit.as_ref()) {
        let stats = unit.unit_stats();
        match unit_stats.as_mut() {
            None => unit_stats = Some(stats),
            Some(acc) => acc.merge(&stats),
        }
    }
    let (prefetcher_stats, mta_stats, ghb_stats, hash_stats): (
        Option<PrefetcherStats>,
        Option<MtaStats>,
        Option<GhbStats>,
        Option<HashPathStats>,
    ) = match unit_stats {
        None => (None, None, None, None),
        Some(PrefetchUnitStats::Treelet(s)) => (Some(s), None, None, None),
        Some(PrefetchUnitStats::Mta(s)) => (None, Some(s), None, None),
        Some(PrefetchUnitStats::Ghb(s)) => (None, None, Some(s), None),
        Some(PrefetchUnitStats::Hash(s)) => (None, None, None, Some(s)),
    };

    let result = SimResult {
        cycles,
        rays: rays.len(),
        traversal,
        l1,
        l2,
        prefetch_effect,
        prefetch_effect_l2,
        prefetcher: prefetcher_stats,
        mta: mta_stats,
        ghb: ghb_stats,
        hash: hash_stats,
        node_load_latency: engine.mem.stats().mean_latency(AccessKind::Node),
        node_load_latency_p99: engine
            .mem
            .stats()
            .latency_histogram(AccessKind::Node)
            .map_or(0.0, |h| h.percentile(99.0)),
        dram_utilization: engine.mem.dram_utilization(),
        dram_channel_accesses: engine.mem.dram().channel_accesses(),
        l2_to_l1_lines: engine.mem.stats().l2_to_l1_lines,
        dram_to_l2_lines: engine.mem.stats().dram_to_l2_lines,
        activity,
        power,
        tree: TreeStats::of(bvh),
        treelet_count: treelets.count(),
        simt_efficiency: if engine.rt_entries == 0 {
            1.0
        } else {
            engine.rt_live_lanes as f64 / (engine.rt_entries as f64 * config.warp_size as f64)
        },
        warp_buffer_occupancy: if cycles == 0 {
            0.0
        } else {
            engine.occupancy_integral as f64
                / (cycles as f64 * (config.num_sms * config.warp_buffer_size) as f64)
        },
        state_digest: engine.state_digest(),
    };
    Ok((result, engine.mem))
}

/// One traversal step as the timing model replays it: the node's
/// treelet, whether it is a leaf, and the cache lines it fetches.
type StepData = (u32, bool, Vec<(u64, AccessKind)>);

/// A ray's replay state in the timing model.
#[derive(Debug)]
struct RayCtx {
    steps: Vec<StepData>,
    /// Per step, the treelet this ray reports to the prefetcher: the
    /// treelet it *will traverse next* (§4.1 — the prefetcher identifies
    /// "treelets that will be traversed next"). A ray entering treelet T
    /// reports T (its deeper nodes are still ahead); a ray already inside
    /// T reports the treelet it will move to after T — in hardware, the
    /// top of its other-treelet stack.
    vote: Vec<u32>,
    step: usize,
    /// Index into the current step's line list of the next line to
    /// issue. Lines issue front-to-back (the node line first); the
    /// cursor replaces the old per-step clone-and-reverse scratch
    /// vector, so the steady state allocates nothing.
    next_line: usize,
    outstanding: u32,
    /// Warp-buffer slot currently holding this ray.
    slot: usize,
}

impl RayCtx {
    fn is_done(&self) -> bool {
        self.step >= self.steps.len()
    }

    fn current_treelet(&self) -> Option<u32> {
        self.vote.get(self.step).copied()
    }

    /// The current step's not-yet-issued lines, in issue order.
    fn pending_lines(&self) -> &[(u64, AccessKind)] {
        match self.steps.get(self.step) {
            Some(step) => &step.2[self.next_line..],
            None => &[],
        }
    }
}

#[derive(Debug)]
enum ReqOwner {
    Ray(u32),
    PrefetchLine,
    /// A Strict-Wait mapping load gating treelet lines.
    PrefetchMeta(Vec<u64>),
}

#[derive(Debug)]
struct WarpSlot {
    arrival: u64,
    rays: Vec<u32>,
    active: usize,
    ready: VecDeque<u32>,
    /// Active rays' current-treelet counts (feeds the voter and PMR).
    /// At most one entry per resident ray, so a linear multiset beats a
    /// hashed map.
    counts: CountVec,
    /// `counts.get(t)` for the SM's `match_treelet` `t` (0 without one):
    /// the OMR/PMR match count, kept current at every count update.
    /// Derived state, never encoded.
    matching: u32,
    /// Which logical warp this is (shader mode).
    warp_id: usize,
    /// Which ray generation the warp is tracing (shader mode).
    generation: u32,
}

impl WarpSlot {
    /// Adds one ray reporting treelet `t` to the slot's and the SM's
    /// counts; `match_treelet` is the SM's.
    fn count_ray(&mut self, global: &mut CountTable, match_treelet: Option<u32>, t: u32) {
        self.counts.increment(t);
        global.increment(t);
        if match_treelet == Some(t) {
            self.matching += 1;
        }
    }

    /// Removes one ray reporting treelet `t` from the slot's and the SM's
    /// counts.
    fn uncount_ray(&mut self, global: &mut CountTable, match_treelet: Option<u32>, t: u32) {
        self.counts.decrement(t);
        global.decrement(t);
        if match_treelet == Some(t) {
            self.matching -= 1;
        }
    }
}

/// A warp waiting to enter the RT unit's warp buffer.
#[derive(Debug)]
struct PendingWarp {
    ready_at: u64,
    warp_id: usize,
    generation: u32,
    rays: Vec<u32>,
}

/// Shader work occupying the SM's issue port before the warp's next
/// `traceRay` (raygen or between-bounce shading).
#[derive(Debug)]
struct ShaderJob {
    warp_id: usize,
    remaining_ops: u64,
    next_generation: u32,
}

#[derive(Debug)]
struct SmState {
    /// Warps waiting to enter the buffer.
    warp_queue: VecDeque<PendingWarp>,
    /// Shader work serialized on the SM's issue port (shader mode).
    shader_runqueue: VecDeque<ShaderJob>,
    slots: Vec<Option<WarpSlot>>,
    test_heap: BinaryHeap<Reverse<(u64, u32)>>,
    req_map: FxHashMap<RequestId, ReqOwner>,
    counts_global: CountTable,
    /// The SM's prefetcher (if any), driven through the unified
    /// [`Prefetcher`] trait.
    unit: Option<PrefetcherUnit>,
    active_rays: usize,
    /// The treelet the slots' `matching` counts refer to: the unit's
    /// last-prefetched treelet as the OMR/PMR scheduler last saw it.
    /// Derived state, never encoded; reset on restore.
    match_treelet: Option<u32>,
}

impl SmState {
    /// Points every slot's `matching` count at treelet `target`.
    fn retarget_matches(&mut self, target: Option<u32>) {
        if self.match_treelet == target {
            return;
        }
        self.match_treelet = target;
        for slot in self.slots.iter_mut().flatten() {
            slot.matching = target.map_or(0, |t| slot.counts.get(t));
        }
    }
}

struct Engine<'a> {
    config: &'a SimConfig,
    mem: MemorySystem,
    rays: Vec<RayCtx>,
    sms: Vec<SmState>,
    treelet_lines: Vec<Vec<u64>>,
    meta_lines: Vec<u64>,
    /// Per-ray hash-predictor keys (hash configs only, else empty).
    /// Static replay data derived from the inputs, never encoded.
    hash_keys: Vec<u64>,
    /// Per-ray deduplicated node-line paths (hash configs only).
    hash_paths: Vec<Vec<u64>>,
    mapping: MappingMode,
    remaining: usize,
    /// Lane ids (generation-0 ray indices) per logical warp.
    warp_lanes: Vec<Vec<u32>>,
    /// Ray generations (1 unless a shader program adds bounces).
    generations: u32,
    /// Generation-0 lane count; generation g's ray ids are offset by
    /// `g * lanes_total`.
    lanes_total: usize,
    /// Warp-buffer entries and live lanes, for the SIMT-efficiency stat.
    rt_entries: u64,
    rt_live_lanes: u64,
    /// Currently occupied warp-buffer slots (all SMs).
    occupied_slots: usize,
    /// Occupied slots (all SMs) whose `ready` queue is non-empty — the
    /// idle-skip eligibility test. Derived state, never encoded;
    /// recounted on restore.
    ready_slots: usize,
    /// Sum over cycles of occupied slots, for the occupancy stat.
    occupancy_integral: u64,
    /// Set whenever the current cycle did observable work (a warp
    /// entered, a response drained, a test finished, a line issued, a
    /// shader op ran); the watchdog clears and checks it every cycle.
    progress: bool,
    /// Last cycle the watchdog saw progress (or scheduled future work).
    /// Lives on the engine — not the run loop — so checkpoints carry it
    /// and a resumed run times out at exactly the same cycle an
    /// uninterrupted one would.
    last_progress: u64,
    /// Scratch buffer swapped with the memory system's per-SM completion
    /// list each cycle (never encoded; exists only to keep the drain
    /// loop allocation-free).
    completed: Vec<RequestId>,
}

impl std::fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("remaining", &self.remaining)
            .finish_non_exhaustive()
    }
}

impl<'a> Engine<'a> {
    fn new(
        config: &'a SimConfig,
        compiled: &[Vec<CompiledStep>],
        treelets: &TreeletAssignment,
        treelet_lines: Vec<Vec<u64>>,
        meta_lines: Vec<u64>,
        hash_keys: Vec<u64>,
        mem: MemorySystem,
    ) -> Engine<'a> {
        let rays: Vec<RayCtx> = compiled
            .iter()
            .map(|steps| {
                let step_data: Vec<StepData> = steps
                    .iter()
                    .map(|s| {
                        let lines: Vec<(u64, AccessKind)> = s
                            .lines
                            .iter()
                            .enumerate()
                            .map(|(i, &l)| {
                                (
                                    l,
                                    if i == 0 {
                                        AccessKind::Node
                                    } else {
                                        AccessKind::Triangle
                                    },
                                )
                            })
                            .collect();
                        (s.treelet, s.is_leaf, lines)
                    })
                    .collect();
                // Per-step prefetcher vote: entering steps report their
                // own treelet; interior steps report the next different
                // treelet in the trace (the ray's pending treelet).
                let n = step_data.len();
                let mut next_diff = vec![0u32; n];
                for i in (0..n).rev() {
                    next_diff[i] = if i + 1 < n {
                        if step_data[i + 1].0 != step_data[i].0 {
                            step_data[i + 1].0
                        } else {
                            next_diff[i + 1]
                        }
                    } else {
                        // A ray ending inside a treelet has no pending
                        // treelet; it keeps reporting its own.
                        step_data[i].0
                    };
                }
                let vote: Vec<u32> = (0..n)
                    .map(|i| {
                        let entering = i == 0 || step_data[i - 1].0 != step_data[i].0;
                        if entering {
                            step_data[i].0
                        } else {
                            next_diff[i]
                        }
                    })
                    .collect();
                RayCtx {
                    steps: step_data,
                    vote,
                    step: 0,
                    next_line: 0,
                    outstanding: 0,
                    slot: usize::MAX,
                }
            })
            .collect();

        let mapping = match config.prefetch {
            PrefetchConfig::Treelet { mapping, .. } => mapping,
            _ => MappingMode::Packed,
        };
        // Hash-predictor replay data: each ray's node-line path (front
        // first, consecutive duplicates removed, capped at the config's
        // line budget) is static, so it lives outside the encoded
        // dynamic state alongside the keys.
        let hash_paths: Vec<Vec<u64>> = match config.prefetch {
            PrefetchConfig::Hash { max_path_lines, .. } => compiled
                .iter()
                .map(|steps| {
                    let mut path: Vec<u64> = Vec::new();
                    for s in steps {
                        if path.len() == max_path_lines {
                            break;
                        }
                        if let Some(&line) = s.lines.first() {
                            if path.last() != Some(&line) {
                                path.push(line);
                            }
                        }
                    }
                    path
                })
                .collect(),
            _ => Vec::new(),
        };
        // Every warp this SM will ever queue is known up front (pure
        // replay queues them all in the constructor; shader mode feeds
        // them back one at a time), so size the deque once.
        let warps_per_sm = rays
            .len()
            .div_ceil(config.warp_size)
            .div_ceil(config.num_sms)
            + 1;
        let mut sms: Vec<SmState> = (0..config.num_sms)
            .map(|_| SmState {
                warp_queue: VecDeque::with_capacity(warps_per_sm),
                shader_runqueue: VecDeque::new(),
                slots: (0..config.warp_buffer_size).map(|_| None).collect(),
                test_heap: BinaryHeap::new(),
                req_map: FxHashMap::default(),
                counts_global: CountTable::with_key_capacity(treelets.count()),
                unit: PrefetcherUnit::from_config(config),
                active_rays: 0,
                match_treelet: None,
            })
            .collect();

        // In shader mode the ray array holds all generations
        // back-to-back; warps are formed over generation-0 lanes and
        // re-enter the RT unit once per generation.
        let generations = config.shader.map_or(1, |p| p.bounces + 1);
        let lanes_total = rays.len() / generations as usize;
        let remaining = rays.iter().filter(|r| !r.is_done()).count();

        // Chunk generation-0 lanes into warps, round-robin across SMs.
        let mut warp_lanes: Vec<Vec<u32>> = Vec::new();
        for (w, chunk) in (0..lanes_total as u32)
            .collect::<Vec<_>>()
            .chunks(config.warp_size)
            .enumerate()
        {
            let lanes: Vec<u32> = chunk.to_vec();
            let sm = w % config.num_sms;
            match config.shader {
                None => {
                    // Pure replay: warps become available after their
                    // raygen stagger.
                    let position = sms[sm].warp_queue.len() as u64;
                    sms[sm].warp_queue.push_back(PendingWarp {
                        ready_at: position * config.raygen_interval,
                        warp_id: w,
                        generation: 0,
                        rays: lanes.clone(),
                    });
                }
                Some(program) => {
                    // Shader mode: the raygen program runs on the SM's
                    // issue port first.
                    if program.raygen_ops == 0 {
                        sms[sm].warp_queue.push_back(PendingWarp {
                            ready_at: 0,
                            warp_id: w,
                            generation: 0,
                            rays: lanes.clone(),
                        });
                    } else {
                        sms[sm].shader_runqueue.push_back(ShaderJob {
                            warp_id: w,
                            remaining_ops: program.raygen_ops,
                            next_generation: 0,
                        });
                    }
                }
            }
            warp_lanes.push(lanes);
        }

        let last_progress = mem.cycle();
        Engine {
            config,
            mem,
            rays,
            sms,
            treelet_lines,
            meta_lines,
            hash_keys,
            hash_paths,
            mapping,
            remaining,
            warp_lanes,
            generations,
            lanes_total,
            rt_entries: 0,
            rt_live_lanes: 0,
            occupied_slots: 0,
            ready_slots: 0,
            occupancy_integral: 0,
            progress: false,
            last_progress,
            completed: Vec::new(),
        }
    }

    /// Ray ids of `warp_id` at `generation`.
    fn generation_rays(&self, warp_id: usize, generation: u32) -> Vec<u32> {
        self.warp_lanes[warp_id]
            .iter()
            .map(|&lane| lane + generation * self.lanes_total as u32)
            .collect()
    }

    /// Advances the SM's shader issue port by one operation; completed
    /// jobs release their warp's next `traceRay`.
    fn run_shader_port(&mut self, sm: usize, now: u64) {
        if self.sms[sm].shader_runqueue.is_empty() {
            return;
        }
        self.progress = true;
        let state = &mut self.sms[sm];
        let Some(job) = state.shader_runqueue.front_mut() else {
            return;
        };
        job.remaining_ops -= 1;
        if job.remaining_ops == 0 {
            let job = state
                .shader_runqueue
                .pop_front()
                .expect("front checked above");
            let rays = self.generation_rays(job.warp_id, job.next_generation);
            self.sms[sm].warp_queue.push_back(PendingWarp {
                ready_at: now,
                warp_id: job.warp_id,
                generation: job.next_generation,
                rays,
            });
        }
    }

    /// Called when a warp finishes a generation in the RT unit: schedules
    /// its shading + next `traceRay` if any lane survives.
    fn warp_generation_done(&mut self, sm: usize, warp_id: usize, generation: u32) {
        let Some(program) = self.config.shader else {
            return;
        };
        let next = generation + 1;
        if next >= self.generations {
            return;
        }
        let next_rays = self.generation_rays(warp_id, next);
        let any_live = next_rays.iter().any(|&r| !self.rays[r as usize].is_done());
        if !any_live {
            return;
        }
        if program.shade_ops == 0 {
            self.sms[sm].warp_queue.push_back(PendingWarp {
                ready_at: self.mem.cycle(),
                warp_id,
                generation: next,
                rays: next_rays,
            });
        } else {
            self.sms[sm].shader_runqueue.push_back(ShaderJob {
                warp_id,
                remaining_ops: program.shade_ops,
                next_generation: next,
            });
        }
    }

    /// Advances the engine until every ray retires, watching both the
    /// hard cycle budget and forward progress. When `ckpt` is set, the
    /// complete dynamic state is checkpointed at every epoch boundary —
    /// including the one on which a budget error fires, so an exhausted
    /// run can be resumed under a larger budget. When `telem` is set, a
    /// read-only counter sample is recorded on its own epoch boundary;
    /// sampling never touches digested state, so the run's trajectory is
    /// bit-identical with telemetry on or off.
    fn run(
        &mut self,
        mut ckpt: Option<&mut CheckpointRunner>,
        mut telem: Option<&mut Telemetry>,
    ) -> Result<u64, SimError> {
        let max_cycles = self.config.max_cycles;
        let window = self.config.progress_window;
        while self.remaining > 0 {
            self.progress = false;
            for sm in 0..self.config.num_sms {
                self.step_sm(sm);
            }
            self.occupancy_integral += self.occupied_slots as u64;
            self.mem.tick();
            let now = self.mem.cycle();
            let advanced = self.progress || self.scheduled_work_pending(now);
            if advanced {
                self.last_progress = now;
            }
            if let Some(c) = ckpt.as_deref_mut() {
                if now.is_multiple_of(c.every) {
                    let payload = self.encode_dynamic();
                    c.emit(payload, now, self.remaining as u64)?;
                }
            }
            if let Some(t) = telem.as_deref_mut() {
                if now.is_multiple_of(t.every()) {
                    let sample = self.telemetry_sample(now);
                    t.record(sample);
                }
            }
            if !advanced && now - self.last_progress >= window {
                return Err(SimError::NoForwardProgress {
                    window,
                    snapshot: self.snapshot(now),
                });
            }
            if now >= max_cycles {
                return Err(SimError::CycleLimitExceeded {
                    limit: max_cycles,
                    snapshot: self.snapshot(now),
                });
            }
            if self.config.idle_skip && !self.progress {
                let ckpt_every = ckpt.as_deref().map(|c| c.every);
                let telem_every = telem.as_deref().map(|t| t.every());
                self.try_skip_idle(now, ckpt_every, telem_every);
            }
        }
        Ok(self.mem.cycle())
    }

    /// Fast-forwards the clock across a provably idle stretch.
    ///
    /// Called at observation cycle `now` of an iteration that made no
    /// progress; the next iteration's work happens at entry cycle `now`.
    /// If no unit can possibly act before some entry cycle `r > now`,
    /// every iteration in between is a no-op except for three per-cycle
    /// integrations — the occupancy integral, the watchdog's
    /// `last_progress` tracking, and the checkpoint/telemetry epoch
    /// boundaries — which are applied here in closed form (and the skip
    /// is capped so no epoch boundary, watchdog deadline, or cycle-limit
    /// observation falls inside the skipped range). The resulting
    /// trajectory is bit-identical to single-stepping.
    fn try_skip_idle(&mut self, now: u64, ckpt_every: Option<u64>, telem_every: Option<u64>) {
        // Eligibility: nothing may be able to act at entry cycle `now`.
        // Occupied slots must have drained `ready` queues — a ready ray
        // issues (or bumps cache MSHR-rejection counters on Retry, which
        // the digest covers) every cycle. Prefetcher queues must be empty
        // for the same reason.
        debug_assert_eq!(self.ready_slots, self.count_ready_slots());
        if self.ready_slots > 0 || !self.mem.can_skip_idle() {
            return;
        }
        for s in &self.sms {
            if !s.shader_runqueue.is_empty() {
                return;
            }
            if s.unit.as_ref().is_some_and(|u| u.queue_len() > 0) {
                return;
            }
        }
        // Earliest entry cycle at which any unit can act again. With no
        // candidate the state is frozen: skip straight toward the
        // watchdog deadline (or the cycle limit) and let the normal path
        // report the error.
        let mut r = u64::MAX;
        if let Some(t) = self.mem.next_event_cycle() {
            // The tick at the end of entry cycle t-1 delivers the event.
            r = r.min(t.saturating_sub(1));
        }
        for s in &self.sms {
            if let Some(&Reverse((t, _))) = s.test_heap.peek() {
                r = r.min(t);
            }
            if let Some(w) = s.warp_queue.front() {
                // A front not yet ready enters at its ready_at; a ready
                // front with no free slot waits on ray retirement, which
                // cannot happen while idle — no candidate.
                if w.ready_at >= now {
                    r = r.min(w.ready_at);
                }
            }
        }
        // The warp buffers are frozen while idle, so each prefetcher can
        // say when a decision would first do more than bump counters.
        // Asking costs a vote per SM: stop once no skip is possible.
        for sm in 0..self.sms.len() {
            if r <= now {
                return;
            }
            if let Some(Some(t)) =
                self.with_unit_view(sm, |unit, view| unit.next_decision_event(now, view))
            {
                r = r.min(t);
            }
        }
        // Watchdog: `last_progress` advances at every observed cycle with
        // scheduled future work, so cap the skip such that the deadline
        // observation is never jumped over.
        let window = self.config.progress_window;
        let any_tests = self.sms.iter().any(|s| !s.test_heap.is_empty());
        if !any_tests {
            let max_warp_ready = self
                .sms
                .iter()
                .flat_map(|s| s.warp_queue.iter().map(|w| w.ready_at))
                .filter(|&t| t > now)
                .max();
            let deadline_base = match max_warp_ready {
                // Work stays scheduled until m; the watchdog can first
                // fire at m - 1 + window.
                Some(m) => m - 1,
                None => self.last_progress,
            };
            r = r.min(deadline_base.saturating_add(window).saturating_sub(1));
        }
        // Never jump a checkpoint/telemetry epoch boundary or the cycle
        // limit: skipped observation cycles are now+1..=r.
        if let Some(every) = ckpt_every {
            r = r.min((now / every + 1).saturating_mul(every) - 1);
        }
        if let Some(every) = telem_every {
            r = r.min((now / every + 1).saturating_mul(every) - 1);
        }
        r = r.min(self.config.max_cycles.saturating_sub(1));
        if r <= now {
            return;
        }
        self.mem.skip_idle_to(r);
        // Closed forms of the per-cycle integrations over the skipped
        // iterations (entry cycles now..r-1, observed cycles now+1..=r).
        for sm in 0..self.sms.len() {
            self.with_unit_view(sm, |unit, view| unit.skip_decisions(now, r, view));
        }
        self.occupancy_integral += self.occupied_slots as u64 * (r - now);
        if any_tests {
            // Tests pend throughout the skip (they would execute at or
            // before the resume entry cycle): every skipped observation
            // counts as scheduled work.
            self.last_progress = self.last_progress.max(r);
        } else if let Some(m) = self
            .sms
            .iter()
            .flat_map(|s| s.warp_queue.iter().map(|w| w.ready_at))
            .filter(|&t| t > now)
            .max()
        {
            // Warp arrivals pend until cycle m: observed cycles up to
            // m - 1 still count as scheduled work.
            self.last_progress = self.last_progress.max(r.min(m - 1));
        }
    }

    /// Counts the occupied slots with a non-empty `ready` queue, the
    /// value `ready_slots` maintains.
    fn count_ready_slots(&self) -> usize {
        self.sms
            .iter()
            .flat_map(|s| s.slots.iter().flatten())
            .filter(|slot| !slot.ready.is_empty())
            .count()
    }

    /// `true` when some SM holds time-scheduled future work: a pending
    /// warp whose raygen stagger has not elapsed, or an operation-unit
    /// test still counting down. Such cycles are legitimately idle (the
    /// `raygen_interval` knob can park a warp arbitrarily long), so the
    /// watchdog must not treat them as a stall.
    fn scheduled_work_pending(&self, now: u64) -> bool {
        self.sms.iter().any(|s| {
            !s.test_heap.is_empty() || s.warp_queue.iter().any(|w| w.ready_at > now)
        })
    }

    /// Captures the diagnostic state the watchdog errors report.
    fn snapshot(&self, now: u64) -> ProgressSnapshot {
        let mut ids = self.mem.outstanding_request_ids();
        ids.truncate(8);
        ProgressSnapshot {
            cycle: now,
            rays_remaining: self.remaining,
            warp_buffer_occupancy: self
                .sms
                .iter()
                .map(|s| s.slots.iter().filter(|slot| slot.is_some()).count())
                .collect(),
            outstanding_requests: self.mem.outstanding_requests(),
            outstanding_request_ids: ids,
            l2_queue_depth: self.mem.l2_queue_depth(),
            dram_in_flight: self.mem.dram().in_flight(),
            prefetch_queue_depths: self
                .sms
                .iter()
                .map(|s| s.unit.as_ref().map_or(0, Prefetcher::queue_len))
                .collect(),
        }
    }

    /// Builds one telemetry epoch from read-only accessors. Nothing here
    /// may mutate the engine or memory system: the zero-perturbation
    /// guarantee (bit-identical state digests with telemetry on or off)
    /// rests on this method taking `&self`.
    fn telemetry_sample(&self, now: u64) -> TelemetrySample {
        let l1 = self.mem.l1_stats_total();
        let l2 = self.mem.l2_stats();
        let usefulness = PrefetchUsefulness::from_effect(&self.mem.prefetch_effect_snapshot());
        let stats = self.mem.stats();
        let dram = self.mem.dram();
        let accesses = dram.channel_accesses();
        let line_bytes = self.config.mem.line_bytes;
        TelemetrySample {
            cycle: now,
            rays_remaining: self.remaining as u64,
            warp_buffer_occupancy: self.occupied_slots,
            warp_queue_depth: self.sms.iter().map(|s| s.warp_queue.len()).sum(),
            test_heap_depth: self.sms.iter().map(|s| s.test_heap.len()).sum(),
            prefetch_queue_depth: self
                .sms
                .iter()
                .map(|s| s.unit.as_ref().map_or(0, Prefetcher::queue_len))
                .sum(),
            outstanding_requests: self.mem.outstanding_requests(),
            l1_hit_rate: l1.demand_hit_rate(),
            l1_mshrs_in_use: self.mem.l1_mshrs_in_use(),
            l1_mshr_rejections: l1.mshr_rejections,
            l2_hit_rate: l2.demand_hit_rate(),
            l2_mshrs_in_use: self.mem.l2_mshrs_in_use(),
            l2_queue_depth: self.mem.l2_queue_depth(),
            l2_to_l1_lines: stats.l2_to_l1_lines,
            dram_to_l2_lines: stats.dram_to_l2_lines,
            prefetch_useful: usefulness.useful,
            prefetch_late: usefulness.late,
            prefetch_useless: usefulness.useless,
            dram_channel_queue: dram.channel_in_flight(),
            dram_channel_bytes: accesses.iter().map(|&a| a * line_bytes).collect(),
            dram_channel_accesses: accesses,
        }
    }

    fn step_sm(&mut self, sm: usize) {
        let now = self.mem.cycle();
        self.run_shader_port(sm, now);
        self.fill_warp_buffer(sm, now);
        self.drain_completions(sm, now);
        self.finish_tests(sm, now);
        let issued_demand = self.schedule_demand(sm);
        if issued_demand {
            self.progress = true;
        }
        self.run_prefetcher(sm, now, issued_demand);
    }

    fn fill_warp_buffer(&mut self, sm: usize, now: u64) {
        let state = &mut self.sms[sm];
        for slot_idx in 0..state.slots.len() {
            if state.slots[slot_idx].is_some() {
                continue;
            }
            // The next warp enters only after its raygen shader issued.
            let ready = state.warp_queue.front().is_some_and(|w| w.ready_at <= now);
            if !ready {
                break;
            }
            let Some(pending) = state.warp_queue.pop_front() else {
                break;
            };
            self.progress = true;
            let lanes = pending.rays.len();
            let mut slot = WarpSlot {
                arrival: now,
                rays: pending.rays,
                active: 0,
                ready: VecDeque::with_capacity(lanes),
                counts: CountVec::with_capacity(4),
                matching: 0,
                warp_id: pending.warp_id,
                generation: pending.generation,
            };
            for lane in 0..lanes {
                let r = slot.rays[lane];
                let ray = &mut self.rays[r as usize];
                ray.slot = slot_idx;
                if ray.is_done() {
                    continue;
                }
                slot.active += 1;
                state.active_rays += 1;
                slot.ready.push_back(r);
                if let Some(t) = ray.current_treelet() {
                    slot.count_ray(&mut state.counts_global, state.match_treelet, t);
                }
                if !self.hash_keys.is_empty() {
                    if let Some(unit) = state.unit.as_mut() {
                        unit.observe_ray_enter(self.hash_keys[r as usize]);
                    }
                }
            }
            if slot.active > 0 {
                self.rt_entries += 1;
                self.rt_live_lanes += slot.active as u64;
                self.occupied_slots += 1;
                // Every active lane entered the ready queue.
                self.ready_slots += 1;
                state.slots[slot_idx] = Some(slot);
            } else {
                // Every lane already dead (e.g. all rays missed the root):
                // the warp skips the RT unit; its next generation, if any,
                // is dead too, so nothing to schedule.
            }
        }
    }

    fn drain_completions(&mut self, sm: usize, now: u64) {
        // Swap the SM's completion list into the engine's scratch buffer
        // (the two Vecs ping-pong between the engine and the memory
        // system, so the steady state allocates nothing).
        let mut completed = std::mem::take(&mut self.completed);
        self.mem.drain_completed_into(sm, &mut completed);
        for &req in &completed {
            self.progress = true;
            let Some(owner) = self.sms[sm].req_map.remove(&req) else {
                continue;
            };
            match owner {
                ReqOwner::Ray(r) => {
                    let ray = &mut self.rays[r as usize];
                    ray.outstanding -= 1;
                    if ray.outstanding == 0 && !ray.is_done() && ray.pending_lines().is_empty() {
                        let is_leaf = ray.steps[ray.step].1;
                        let latency = if is_leaf {
                            self.config.tri_test_latency
                        } else {
                            self.config.node_test_latency
                        };
                        self.sms[sm].test_heap.push(Reverse((now + latency, r)));
                    }
                }
                ReqOwner::PrefetchLine => {}
                ReqOwner::PrefetchMeta(gated) => {
                    if let Some(unit) = self.sms[sm].unit.as_mut() {
                        unit.release_gated(gated);
                    }
                }
            }
        }
        self.completed = completed;
    }

    fn finish_tests(&mut self, sm: usize, now: u64) {
        while let Some(&Reverse((t, r))) = self.sms[sm].test_heap.peek() {
            if t > now {
                break;
            }
            self.sms[sm].test_heap.pop();
            self.advance_ray(sm, r);
        }
    }

    fn advance_ray(&mut self, sm: usize, r: u32) {
        self.progress = true;
        let ray = &mut self.rays[r as usize];
        let old_treelet = ray.current_treelet();
        ray.step += 1;
        let state = &mut self.sms[sm];
        let slot_idx = ray.slot;
        let slot = state.slots[slot_idx]
            .as_mut()
            .expect("ray's warp slot must be occupied");
        if ray.is_done() {
            if let Some(t) = old_treelet {
                slot.uncount_ray(&mut state.counts_global, state.match_treelet, t);
            }
            slot.active -= 1;
            state.active_rays -= 1;
            self.remaining -= 1;
            if !self.hash_paths.is_empty() {
                if let Some(unit) = state.unit.as_mut() {
                    unit.observe_ray_retire(self.hash_keys[r as usize], &self.hash_paths[r as usize]);
                }
            }
            if slot.active == 0 {
                let (warp_id, generation) = (slot.warp_id, slot.generation);
                state.slots[slot_idx] = None; // warp cleared from the buffer
                self.occupied_slots -= 1;
                self.warp_generation_done(sm, warp_id, generation);
            }
        } else {
            let new_treelet = ray.current_treelet();
            if old_treelet != new_treelet {
                if let Some(t) = old_treelet {
                    slot.uncount_ray(&mut state.counts_global, state.match_treelet, t);
                }
                if let Some(t) = new_treelet {
                    slot.count_ray(&mut state.counts_global, state.match_treelet, t);
                }
            }
            ray.next_line = 0;
            if slot.ready.is_empty() {
                self.ready_slots += 1;
            }
            slot.ready.push_back(r);
        }
    }

    /// Picks a warp per the scheduling policy and issues one line.
    /// Returns `true` if the memory scheduler was busy with demand work.
    fn schedule_demand(&mut self, sm: usize) -> bool {
        let slot_idx = {
            let state = &mut self.sms[sm];
            let last_prefetched = state.unit.as_ref().and_then(|u| u.last_prefetched_treelet());
            let policy = match last_prefetched {
                None => SchedulerPolicy::Baseline,
                Some(_) => self.config.scheduler,
            };
            if policy != SchedulerPolicy::Baseline {
                state.retarget_matches(last_prefetched);
            }
            let candidates = state
                .slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.as_ref().map(|s| (i, s)))
                .filter(|(_, s)| !s.ready.is_empty())
                .inspect(|(_, s)| {
                    if policy != SchedulerPolicy::Baseline {
                        debug_assert_eq!(
                            s.matching,
                            last_prefetched.map_or(0, |t| s.counts.get(t)),
                            "stale OMR/PMR match count"
                        );
                    }
                });
            match policy {
                SchedulerPolicy::Baseline => {
                    candidates.min_by_key(|(_, s)| s.arrival).map(|(i, _)| i)
                }
                // Oldest matching warp, else the oldest warp.
                SchedulerPolicy::OldestMatchingRay => candidates
                    .min_by_key(|(_, s)| (s.matching == 0, s.arrival))
                    .map(|(i, _)| i),
                SchedulerPolicy::PrioritizeMostRays => candidates
                    .max_by_key(|(_, s)| (s.matching, Reverse(s.arrival)))
                    .map(|(i, _)| i),
            }
        };
        let Some(slot_idx) = slot_idx else {
            return false;
        };

        // Issue up to `issue_width` lines from the selected warp this
        // cycle (the RT unit processes one warp buffer entry per cycle
        // and pushes its requests into the L1 access queue).
        let state = &mut self.sms[sm];
        let slot = state.slots[slot_idx]
            .as_mut()
            .expect("candidate slot occupied");
        let mut issued = 0usize;
        while issued < self.config.issue_width {
            let Some(&r) = slot.ready.front() else {
                break;
            };
            let ray = &mut self.rays[r as usize];
            let step_lines = ray.steps[ray.step].2.len();
            let (line, kind) = ray.steps[ray.step].2[ray.next_line];
            let issue = self.mem.access(sm, line, FillOrigin::Demand, kind);
            match issue {
                Issue::Hit(req) | Issue::Pending(req) => {
                    issued += 1;
                    ray.outstanding += 1;
                    ray.next_line += 1;
                    state.req_map.insert(req, ReqOwner::Ray(r));
                    if let Some(unit) = state.unit.as_mut() {
                        // Each unit filters the stream itself: MTA takes
                        // every demand load, the GHB only misses.
                        unit.observe_demand(slot_idx as u32, line, matches!(issue, Issue::Pending(_)));
                    }
                    if ray.next_line == step_lines {
                        slot.ready.pop_front();
                        if slot.ready.is_empty() {
                            self.ready_slots -= 1;
                        }
                    }
                }
                Issue::Retry => {
                    break; // L1 MSHRs exhausted: stall the scheduler
                }
                Issue::PrefetchDropped => unreachable!("demand loads are never dropped"),
            }
        }
        issued > 0
    }

    /// Runs `f` on SM `sm`'s prefetcher with a view of its warp buffer;
    /// `None` when the SM has no prefetcher.
    fn with_unit_view<R>(
        &mut self,
        sm: usize,
        f: impl FnOnce(&mut PrefetcherUnit, &WarpBufferView<'_>) -> R,
    ) -> Option<R> {
        let treelet_lines = &self.treelet_lines;
        let meta_lines = &self.meta_lines;
        let state = &mut self.sms[sm];
        let unit = state.unit.as_mut()?;
        let lines = |t: u32| treelet_lines[t as usize].as_slice();
        let meta = |t: u32| meta_lines[t as usize];
        let slots = &state.slots;
        let per_warp = |f: &mut dyn FnMut(&CountVec)| {
            for s in slots.iter().flatten() {
                f(&s.counts);
            }
        };
        let view = WarpBufferView::new(
            self.mapping,
            state.active_rays as u32,
            &state.counts_global,
            &per_warp,
            &lines,
            &meta,
        );
        Some(f(unit, &view))
    }

    fn run_prefetcher(&mut self, sm: usize, now: u64, issued_demand: bool) {
        // Unified prefetcher step: let the unit observe the warp buffer
        // and decide (the treelet voter samples/votes here, §4.1), then
        // drain one queued entry when the memory scheduler is idle.
        if self
            .with_unit_view(sm, |unit, view| unit.decide(now, view))
            .is_none()
            || issued_demand
        {
            return;
        }
        let state = &mut self.sms[sm];
        let Some(unit) = state.unit.as_mut() else {
            return;
        };
        let Some(entry) = unit.pop_entry() else {
            return;
        };
        match entry {
            PrefetchEntry::Line(addr) => {
                let issue = match self.config.prefetch_destination {
                    crate::PrefetchDestination::L1 => {
                        self.mem
                            .access(sm, addr, FillOrigin::Prefetch, AccessKind::Prefetch)
                    }
                    crate::PrefetchDestination::L2 => self.mem.prefetch_l2(addr),
                };
                match issue {
                    Issue::Pending(req) | Issue::Hit(req) => {
                        state.req_map.insert(req, ReqOwner::PrefetchLine);
                    }
                    Issue::PrefetchDropped | Issue::Retry => {}
                }
            }
            PrefetchEntry::Meta { addr, gated_lines } => {
                match self
                    .mem
                    .access(sm, addr, FillOrigin::Prefetch, AccessKind::Meta)
                {
                    Issue::Pending(req) | Issue::Hit(req) => {
                        state.req_map.insert(req, ReqOwner::PrefetchMeta(gated_lines));
                    }
                    Issue::PrefetchDropped => {
                        // Mapping entry already cached: the gated lines
                        // release immediately.
                        unit.release_gated(gated_lines);
                    }
                    Issue::Retry => {}
                }
            }
        }
    }

    /// Serializes the engine's complete dynamic state — everything not
    /// deterministically recomputed from (bvh, rays, config) by
    /// [`Engine::new`] — into canonical bytes. Unordered containers are
    /// sorted by key so one architectural state always yields one byte
    /// sequence; ordered containers (queues, per-slot vectors, each
    /// ray's pending lines) are encoded verbatim because their order is
    /// architecturally significant. The FNV-1a digest of this encoding
    /// is therefore a state digest, and the encoding doubles as the
    /// checkpoint payload — a single code path keeps digests and
    /// checkpoints consistent by construction.
    fn encode_dynamic(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_usize(self.remaining);
        w.put_u64(self.rt_entries);
        w.put_u64(self.rt_live_lanes);
        w.put_usize(self.occupied_slots);
        w.put_u64(self.occupancy_integral);
        w.put_u64(self.last_progress);
        w.put_len(self.rays.len());
        for ray in &self.rays {
            w.put_usize(ray.step);
            // The cursor encodes as the not-yet-issued suffix in reverse,
            // byte-identical to the pop-from-back scratch list it replaced.
            let pending = ray.pending_lines();
            w.put_len(pending.len());
            for &(line, kind) in pending.iter().rev() {
                w.put_u64(line);
                w.put_u8(kind.tag());
            }
            w.put_u32(ray.outstanding);
            w.put_usize(ray.slot);
        }
        w.put_len(self.sms.len());
        for sm in &self.sms {
            encode_sm_state(sm, &mut w);
        }
        self.mem.encode_state(&mut w);
        w.into_bytes()
    }

    /// FNV-1a digest of [`Engine::encode_dynamic`]'s bytes.
    fn state_digest(&self) -> u64 {
        fnv1a64(&self.encode_dynamic())
    }

    /// Overwrites this freshly constructed engine's dynamic state with a
    /// checkpoint payload. The static state (compiled traces, treelet
    /// line sets, warp→lane mapping) was already rebuilt by
    /// [`Engine::new`] from the same inputs — the caller has verified
    /// the identity digest — so only the dynamic fields are applied.
    ///
    /// # Errors
    ///
    /// Typed [`DecodeError`]s for truncation, trailing bytes, or values
    /// inconsistent with the rebuilt static state (ray or SM counts,
    /// step indices past the end of a trace, prefetcher presence not
    /// matching the configuration).
    fn restore_dynamic(&mut self, payload: &[u8]) -> Result<(), DecodeError> {
        let mut r = ByteReader::new(payload);
        self.remaining = r.take_usize()?;
        self.rt_entries = r.take_u64()?;
        self.rt_live_lanes = r.take_u64()?;
        self.occupied_slots = r.take_usize()?;
        self.occupancy_integral = r.take_u64()?;
        self.last_progress = r.take_u64()?;
        let n = r.take_len(1)?;
        if n != self.rays.len() {
            return Err(DecodeError::malformed(format!(
                "checkpoint holds {n} rays, this run traces {}",
                self.rays.len()
            )));
        }
        for ray in &mut self.rays {
            ray.step = r.take_usize()?;
            if ray.step > ray.steps.len() {
                return Err(DecodeError::malformed(format!(
                    "ray step {} past the end of its {}-step trace",
                    ray.step,
                    ray.steps.len()
                )));
            }
            let k = r.take_len(9)?;
            let lines: &[(u64, AccessKind)] = match ray.steps.get(ray.step) {
                Some(step) => &step.2,
                None => &[],
            };
            if k > lines.len() {
                return Err(DecodeError::malformed(format!(
                    "ray has {k} pending lines, its current step holds {}",
                    lines.len()
                )));
            }
            ray.next_line = lines.len() - k;
            // The payload lists the pending suffix back-to-front; each
            // entry must match the trace rebuilt from the same inputs.
            for i in 0..k {
                let line = r.take_u64()?;
                let kind = AccessKind::from_tag(r.take_u8()?)?;
                if (line, kind) != lines[lines.len() - 1 - i] {
                    return Err(DecodeError::malformed(format!(
                        "pending line {line:#x} disagrees with the rebuilt trace"
                    )));
                }
            }
            ray.outstanding = r.take_u32()?;
            ray.slot = r.take_usize()?;
        }
        let n = r.take_len(1)?;
        if n != self.sms.len() {
            return Err(DecodeError::malformed(format!(
                "checkpoint holds {n} SMs, this run has {}",
                self.sms.len()
            )));
        }
        let num_rays = self.rays.len();
        for sm in &mut self.sms {
            restore_sm_state(sm, &mut r, num_rays)?;
        }
        self.ready_slots = self.count_ready_slots();
        self.mem = MemorySystem::decode_state(&mut r, self.config.mem, self.config.num_sms)?;
        r.expect_end()?;
        Ok(())
    }
}

/// Serializes one SM's dynamic state (see [`Engine::encode_dynamic`] for
/// the ordering rules).
fn encode_sm_state(sm: &SmState, w: &mut ByteWriter) {
    w.put_len(sm.warp_queue.len());
    for pending in &sm.warp_queue {
        w.put_u64(pending.ready_at);
        w.put_usize(pending.warp_id);
        w.put_u32(pending.generation);
        w.put_len(pending.rays.len());
        for &r in &pending.rays {
            w.put_u32(r);
        }
    }
    w.put_len(sm.shader_runqueue.len());
    for job in &sm.shader_runqueue {
        w.put_usize(job.warp_id);
        w.put_u64(job.remaining_ops);
        w.put_u32(job.next_generation);
    }
    w.put_len(sm.slots.len());
    for slot in &sm.slots {
        match slot {
            None => w.put_bool(false),
            Some(s) => {
                w.put_bool(true);
                w.put_u64(s.arrival);
                w.put_len(s.rays.len());
                for &r in &s.rays {
                    w.put_u32(r);
                }
                w.put_usize(s.active);
                w.put_len(s.ready.len());
                for &r in &s.ready {
                    w.put_u32(r);
                }
                encode_counts_vec(&s.counts, w);
                w.put_usize(s.warp_id);
                w.put_u32(s.generation);
            }
        }
    }
    // Heap entries are unique (a ray finishes one test at a time), so a
    // sorted list reconstructs pop order exactly.
    let mut tests: Vec<(u64, u32)> = sm.test_heap.iter().map(|Reverse(p)| *p).collect();
    tests.sort_unstable();
    w.put_len(tests.len());
    for (t, ray) in tests {
        w.put_u64(t);
        w.put_u32(ray);
    }
    let mut reqs: Vec<(RequestId, &ReqOwner)> = sm.req_map.iter().map(|(&k, v)| (k, v)).collect();
    reqs.sort_unstable_by_key(|&(k, _)| k);
    w.put_len(reqs.len());
    for (req, owner) in reqs {
        w.put_u64(req);
        match owner {
            ReqOwner::Ray(r) => {
                w.put_u8(0);
                w.put_u32(*r);
            }
            ReqOwner::PrefetchLine => w.put_u8(1),
            ReqOwner::PrefetchMeta(gated) => {
                w.put_u8(2);
                w.put_len(gated.len());
                for &line in gated {
                    w.put_u64(line);
                }
            }
        }
    }
    encode_counts(&sm.counts_global, w);
    // The legacy layout writes three presence flags (treelet, MTA, GHB)
    // so pre-existing digests stay bit-identical; the hash predictor is
    // an additive fourth section present only in hash configurations.
    match &sm.unit {
        None => {
            w.put_bool(false);
            w.put_bool(false);
            w.put_bool(false);
        }
        Some(PrefetcherUnit::Treelet(p)) => {
            w.put_bool(true);
            p.encode_state(w);
            w.put_bool(false);
            w.put_bool(false);
        }
        Some(PrefetcherUnit::Mta(m)) => {
            w.put_bool(false);
            w.put_bool(true);
            m.encode_state(w);
            w.put_bool(false);
        }
        Some(PrefetcherUnit::Ghb(g)) => {
            w.put_bool(false);
            w.put_bool(false);
            w.put_bool(true);
            g.encode_state(w);
        }
        Some(PrefetcherUnit::Hash(h)) => {
            w.put_bool(false);
            w.put_bool(false);
            w.put_bool(false);
            w.put_bool(true);
            h.encode_state(w);
        }
    }
    w.put_usize(sm.active_rays);
}

/// Restores one SM's dynamic state in place.
fn restore_sm_state(
    sm: &mut SmState,
    r: &mut ByteReader<'_>,
    num_rays: usize,
) -> Result<(), DecodeError> {
    let n = r.take_len(20)?;
    sm.warp_queue = VecDeque::with_capacity(n);
    for _ in 0..n {
        let ready_at = r.take_u64()?;
        let warp_id = r.take_usize()?;
        let generation = r.take_u32()?;
        let k = r.take_len(4)?;
        let mut rays = Vec::with_capacity(k);
        for _ in 0..k {
            rays.push(r.take_u32()?);
        }
        sm.warp_queue.push_back(PendingWarp {
            ready_at,
            warp_id,
            generation,
            rays,
        });
    }
    let n = r.take_len(20)?;
    sm.shader_runqueue = VecDeque::with_capacity(n);
    for _ in 0..n {
        sm.shader_runqueue.push_back(ShaderJob {
            warp_id: r.take_usize()?,
            remaining_ops: r.take_u64()?,
            next_generation: r.take_u32()?,
        });
    }
    let n = r.take_len(1)?;
    if n != sm.slots.len() {
        return Err(DecodeError::malformed(format!(
            "checkpoint holds {n} warp-buffer slots, the configuration has {}",
            sm.slots.len()
        )));
    }
    for slot in &mut sm.slots {
        *slot = if r.take_bool()? {
            let arrival = r.take_u64()?;
            let k = r.take_len(4)?;
            let mut rays = Vec::with_capacity(k);
            for _ in 0..k {
                rays.push(r.take_u32()?);
            }
            let active = r.take_usize()?;
            let k = r.take_len(4)?;
            let mut ready = VecDeque::with_capacity(k);
            for _ in 0..k {
                ready.push_back(r.take_u32()?);
            }
            let counts = decode_counts_vec(r)?;
            let warp_id = r.take_usize()?;
            let generation = r.take_u32()?;
            Some(WarpSlot {
                arrival,
                rays,
                active,
                ready,
                counts,
                matching: 0,
                warp_id,
                generation,
            })
        } else {
            None
        };
    }
    let n = r.take_len(12)?;
    sm.test_heap = BinaryHeap::with_capacity(n);
    for _ in 0..n {
        let t = r.take_u64()?;
        let ray = r.take_u32()?;
        sm.test_heap.push(Reverse((t, ray)));
    }
    let n = r.take_len(9)?;
    sm.req_map = FxHashMap::with_capacity_and_hasher(n, FxBuildHasher::default());
    for _ in 0..n {
        let req = r.take_u64()?;
        let owner = match r.take_u8()? {
            0 => {
                let ray = r.take_u32()?;
                if ray as usize >= num_rays {
                    return Err(DecodeError::malformed(format!(
                        "request owner ray {ray} out of range ({num_rays} rays)"
                    )));
                }
                ReqOwner::Ray(ray)
            }
            1 => ReqOwner::PrefetchLine,
            2 => {
                let k = r.take_len(8)?;
                let mut gated = Vec::with_capacity(k);
                for _ in 0..k {
                    gated.push(r.take_u64()?);
                }
                ReqOwner::PrefetchMeta(gated)
            }
            t => {
                return Err(DecodeError::malformed(format!(
                    "unknown request-owner tag {t}"
                )))
            }
        };
        if sm.req_map.insert(req, owner).is_some() {
            return Err(DecodeError::malformed(format!(
                "duplicate in-flight request {req}"
            )));
        }
    }
    sm.counts_global = decode_counts(r)?;
    restore_unit_state(&mut sm.unit, r)?;
    sm.active_rays = r.take_usize()?;
    // Every restored slot's `matching` is 0: no treelet yet.
    sm.match_treelet = None;
    Ok(())
}

/// Reads the prefetcher presence flags and, for the configured unit, its
/// state — rejecting checkpoints whose flags disagree with the
/// configuration the engine was rebuilt from. The flag layout mirrors
/// [`encode_sm_state`]: three legacy sections (treelet, MTA, GHB) and an
/// additive hash section only hash configurations carry.
fn restore_unit_state(
    unit: &mut Option<PrefetcherUnit>,
    r: &mut ByteReader<'_>,
) -> Result<(), DecodeError> {
    let mismatch = |flag: bool, name: &str| {
        DecodeError::malformed(format!(
            "checkpoint {} a {name}, the configuration {}",
            if flag { "carries" } else { "lacks" },
            if flag { "has none" } else { "expects one" },
        ))
    };
    let expect = |r: &mut ByteReader<'_>, want: bool, name: &str| -> Result<(), DecodeError> {
        let present = r.take_bool()?;
        if present != want {
            return Err(mismatch(present, name));
        }
        Ok(())
    };
    match unit {
        None => {
            expect(r, false, "treelet prefetcher")?;
            expect(r, false, "MTA prefetcher")?;
            expect(r, false, "GHB prefetcher")?;
            Ok(())
        }
        Some(PrefetcherUnit::Treelet(p)) => {
            expect(r, true, "treelet prefetcher")?;
            p.restore_state(r)?;
            expect(r, false, "MTA prefetcher")?;
            expect(r, false, "GHB prefetcher")?;
            Ok(())
        }
        Some(PrefetcherUnit::Mta(m)) => {
            expect(r, false, "treelet prefetcher")?;
            expect(r, true, "MTA prefetcher")?;
            m.restore_state(r)?;
            expect(r, false, "GHB prefetcher")?;
            Ok(())
        }
        Some(PrefetcherUnit::Ghb(g)) => {
            expect(r, false, "treelet prefetcher")?;
            expect(r, false, "MTA prefetcher")?;
            expect(r, true, "GHB prefetcher")?;
            g.restore_state(r)
        }
        Some(PrefetcherUnit::Hash(h)) => {
            expect(r, false, "treelet prefetcher")?;
            expect(r, false, "MTA prefetcher")?;
            expect(r, false, "GHB prefetcher")?;
            expect(r, true, "hash-path prefetcher")?;
            h.restore_state(r)
        }
    }
}

/// Canonical encoding of a treelet-popularity count table (sorted by
/// treelet id, zero entries omitted — byte-identical to the map encoding
/// it replaced, since the map never held zeros either).
fn encode_counts(counts: &CountTable, w: &mut ByteWriter) {
    let entries = counts.sorted_pairs();
    w.put_len(entries.len());
    for (k, c) in entries {
        w.put_u32(k);
        w.put_u32(c);
    }
}

fn decode_counts(r: &mut ByteReader<'_>) -> Result<CountTable, DecodeError> {
    let n = r.take_len(8)?;
    let mut counts = CountTable::default();
    for _ in 0..n {
        let k = r.take_u32()?;
        let c = r.take_u32()?;
        if counts.get(k) != 0 {
            return Err(DecodeError::malformed(format!(
                "duplicate treelet count entry {k}"
            )));
        }
        if c == 0 {
            return Err(DecodeError::malformed(format!(
                "zero treelet count entry {k}"
            )));
        }
        counts.add(k, c);
    }
    Ok(counts)
}

/// Per-slot variant of [`encode_counts`] over the small linear table.
fn encode_counts_vec(counts: &CountVec, w: &mut ByteWriter) {
    let entries = counts.sorted_pairs();
    w.put_len(entries.len());
    for (k, c) in entries {
        w.put_u32(k);
        w.put_u32(c);
    }
}

fn decode_counts_vec(r: &mut ByteReader<'_>) -> Result<CountVec, DecodeError> {
    let n = r.take_len(8)?;
    let mut counts = CountVec::with_capacity(n);
    for _ in 0..n {
        let k = r.take_u32()?;
        let c = r.take_u32()?;
        if counts.get(k) != 0 {
            return Err(DecodeError::malformed(format!(
                "duplicate treelet count entry {k}"
            )));
        }
        if c == 0 {
            return Err(DecodeError::malformed(format!(
                "zero treelet count entry {k}"
            )));
        }
        counts.add(k, c);
    }
    Ok(counts)
}

/// Live I/O state of a checkpointing run: where checkpoints land, the
/// header fields they all share, and the open digest log.
struct CheckpointRunner {
    every: u64,
    path: std::path::PathBuf,
    identity: u64,
    start_cycle: u64,
    log: Option<(std::path::PathBuf, std::fs::File)>,
}

impl CheckpointRunner {
    /// Validates the options and opens the digest log: fresh runs
    /// truncate it; resumed runs keep only the records at or before the
    /// resumed epoch, so the log never claims epochs the resumed
    /// timeline has not yet reached.
    fn start(
        opts: &CheckpointOptions,
        identity: u64,
        start_cycle: u64,
        resumed_epoch: Option<u64>,
    ) -> Result<CheckpointRunner, SimError> {
        opts.validate()?;
        let log = match &opts.digest_log {
            None => None,
            Some(path) => {
                let kept: Vec<DigestRecord> = match resumed_epoch {
                    Some(epoch) if path.exists() => snapshot::read_digest_log(path)
                        .map_err(SimError::Snapshot)?
                        .into_iter()
                        .filter(|rec| rec.epoch <= epoch)
                        .collect(),
                    _ => Vec::new(),
                };
                let io = |what: &'static str, source: std::io::Error| {
                    SimError::Snapshot(SnapshotError::Io {
                        what,
                        path: path.clone(),
                        source,
                    })
                };
                let mut file =
                    std::fs::File::create(path).map_err(|e| io("create digest log", e))?;
                for rec in &kept {
                    writeln!(file, "{rec}").map_err(|e| io("rewrite digest log", e))?;
                }
                file.flush().map_err(|e| io("rewrite digest log", e))?;
                Some((path.clone(), file))
            }
        };
        Ok(CheckpointRunner {
            every: opts.every,
            path: opts.path.clone(),
            identity,
            start_cycle,
            log,
        })
    }

    /// Atomically replaces the checkpoint file with the state at `cycle`
    /// and appends the epoch's digest record to the log.
    fn emit(&mut self, payload: Vec<u8>, cycle: u64, rays_remaining: u64) -> Result<(), SimError> {
        let epoch = cycle / self.every;
        let checkpoint = Checkpoint {
            identity: self.identity,
            epoch,
            start_cycle: self.start_cycle,
            cycle,
            rays_remaining,
            payload,
        };
        snapshot::write_atomic(&self.path, &checkpoint.to_bytes())?;
        if let Some((path, file)) = &mut self.log {
            let record = DigestRecord {
                epoch,
                cycle,
                digest: checkpoint.state_digest(),
                rays_remaining,
            };
            writeln!(file, "{record}")
                .and_then(|()| file.flush())
                .map_err(|source| SnapshotError::Io {
                    what: "append digest log",
                    path: path.clone(),
                    source,
                })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::session::SimSession;
    use crate::telemetry::TelemetryOptions;
    use rt_scene::{Scene, SceneId, Workload, WorkloadKind};

    fn fixture() -> (WideBvh, Vec<Ray>) {
        let scene = Scene::build_with_detail(SceneId::Wknd, 0.3);
        let rays = Workload::new(WorkloadKind::Primary, 8, 8).generate(&scene);
        let bvh = WideBvh::build(scene.mesh.into_triangles());
        (bvh, rays)
    }

    #[test]
    fn baseline_simulation_completes() {
        let (bvh, rays) = fixture();
        let result = SimSession::borrowed(&bvh, &rays, &SimConfig::paper_baseline())
            .run()
            .unwrap();
        assert!(result.cycles > 0);
        assert_eq!(result.rays, 64);
        assert!(result.l1.demand_accesses() > 0);
        assert!(result.traversal.avg_nodes_per_ray > 0.0);
        assert!(result.prefetcher.is_none());
        assert_eq!(result.prefetch_effect.total(), 0);
    }

    #[test]
    fn treelet_prefetch_simulation_completes_and_prefetches() {
        let (bvh, rays) = fixture();
        let result = SimSession::borrowed(&bvh, &rays, &SimConfig::paper_treelet_prefetch())
            .run()
            .unwrap();
        assert!(result.cycles > 0);
        let p = result.prefetcher.expect("prefetcher stats present");
        assert!(p.decisions > 0, "prefetcher never made a decision");
        assert!(
            result.l1.prefetch_probes > 0,
            "no prefetches reached the L1"
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let (bvh, rays) = fixture();
        let a = SimSession::borrowed(&bvh, &rays, &SimConfig::paper_treelet_prefetch())
            .run()
            .unwrap();
        let b = SimSession::borrowed(&bvh, &rays, &SimConfig::paper_treelet_prefetch())
            .run()
            .unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.l1, b.l1);
    }

    #[test]
    fn telemetry_sampling_is_zero_perturbation() {
        let (bvh, rays) = fixture();
        let config = SimConfig::paper_treelet_prefetch();
        let plain = SimSession::borrowed(&bvh, &rays, &config)
            .run()
            .expect("plain run");
        let (sampled, telemetry) = SimSession::borrowed(&bvh, &rays, &config)
            .telemetry(TelemetryOptions::new(64))
            .run_with_telemetry()
            .expect("telemetry run");
        // Bit-identical trajectory: same digest, same cycle count, same
        // cache counters.
        assert_eq!(plain.state_digest, sampled.state_digest);
        assert_eq!(plain.cycles, sampled.cycles);
        assert_eq!(plain.l1, sampled.l1);
        assert_eq!(plain.dram_channel_accesses, sampled.dram_channel_accesses);
        // The time-series itself: epochs are present, cycle-ordered, and
        // close with a final sample at the retiring cycle.
        assert!(!telemetry.is_empty());
        let samples = telemetry.samples();
        assert!(samples.windows(2).all(|w| w[0].cycle < w[1].cycle));
        let last = samples.last().unwrap();
        assert_eq!(last.cycle, sampled.cycles);
        assert_eq!(last.rays_remaining, 0);
        assert_eq!(last.dram_channel_accesses.len(), 4);
        assert_eq!(&last.dram_channel_accesses, &sampled.dram_channel_accesses);
        // Per-channel bytes are accesses × line size.
        for (b, a) in last
            .dram_channel_bytes
            .iter()
            .zip(last.dram_channel_accesses.iter())
        {
            assert_eq!(*b, a * config.mem.line_bytes);
        }
        // Cumulative counters never decrease across epochs.
        assert!(samples
            .windows(2)
            .all(|w| w[0].l2_to_l1_lines <= w[1].l2_to_l1_lines));
        // The prefetch taxonomy shows up for a prefetching config.
        assert!(last.prefetch_useful + last.prefetch_late + last.prefetch_useless > 0);
    }

    #[test]
    fn telemetry_rejects_zero_interval() {
        let (bvh, rays) = fixture();
        let err = SimSession::borrowed(&bvh, &rays, &SimConfig::paper_baseline())
            .telemetry(TelemetryOptions::new(0))
            .run_with_telemetry()
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::Config(crate::error::ConfigError::ZeroTelemetryInterval)
        ));
    }

    #[test]
    fn undersized_treelet_budget_is_a_typed_error_not_a_panic() {
        let (bvh, rays) = fixture();
        let mut config = SimConfig::paper_baseline();
        config.treelet_bytes = 0;
        let err = SimSession::borrowed(&bvh, &rays, &config)
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::Config(crate::error::ConfigError::TreeletBudgetTooSmall { bytes: 0 })
        ));
    }

    #[test]
    fn all_demand_loads_complete() {
        // End-to-end conservation: the number of demand accesses the L1
        // observed must equal the total lines of every compiled trace —
        // nothing dropped, nothing duplicated.
        let (bvh, rays) = fixture();
        let config = SimConfig::paper_baseline();
        let result = SimSession::borrowed(&bvh, &rays, &config).run().unwrap();
        let treelets = TreeletAssignment::form(&bvh, config.treelet_bytes);
        let image = MemoryImage::depth_first(&bvh);
        let expected: u64 = rays
            .iter()
            .map(|r| {
                let trace = crate::traversal::trace_ray(&bvh, &treelets, r, config.traversal);
                compile_trace(&trace, &image, config.mem.line_bytes)
                    .iter()
                    .map(|s| s.lines.len() as u64)
                    .sum::<u64>()
            })
            .sum();
        assert!(expected > 0);
        assert_eq!(result.l1.demand_accesses(), expected);
        assert!(result.node_load_latency > 0.0);
    }

    #[test]
    fn mta_prefetcher_runs() {
        let (bvh, rays) = fixture();
        let mut config = SimConfig::paper_baseline();
        config.prefetch = PrefetchConfig::Mta;
        let result = SimSession::borrowed(&bvh, &rays, &config).run().unwrap();
        let mta = result.mta.expect("mta stats present");
        assert!(mta.observed > 0);
    }

    #[test]
    fn ghb_prefetcher_runs() {
        let (bvh, rays) = fixture();
        let mut config = SimConfig::paper_baseline();
        config.prefetch = PrefetchConfig::Ghb;
        let result = SimSession::borrowed(&bvh, &rays, &config).run().unwrap();
        let ghb = result.ghb.expect("ghb stats present");
        assert!(ghb.observed > 0, "GHB never saw the miss stream");
        // BVH pointer chasing is the pattern the GHB cannot exploit: the
        // timely fraction stays negligible.
        let e = result.prefetch_effect;
        assert!(e.timely * 5 <= e.total().max(1));
    }

    #[test]
    fn formation_policies_all_simulate() {
        let (bvh, rays) = fixture();
        for policy in [
            crate::FormationPolicy::GreedyBfs,
            crate::FormationPolicy::GreedyDfs,
            crate::FormationPolicy::SurfaceArea,
        ] {
            let mut config = SimConfig::paper_treelet_prefetch();
            config.formation = policy;
            let result = SimSession::borrowed(&bvh, &rays, &config).run().unwrap();
            assert!(result.cycles > 0, "{policy} did not complete");
        }
    }

    #[test]
    fn traversal_ablations_simulate() {
        let (bvh, rays) = fixture();
        for (ordered, ert) in [(false, true), (true, false), (false, false)] {
            let mut config = SimConfig::paper_baseline();
            config.traversal_options = crate::TraversalOptions {
                ordered_children: ordered,
                early_termination: ert,
            };
            let result = SimSession::borrowed(&bvh, &rays, &config).run().unwrap();
            assert!(result.cycles > 0);
        }
    }

    #[test]
    fn triangle_prefetch_extension_runs_and_fetches_more() {
        let (bvh, rays) = fixture();
        let nodes_only = SimSession::borrowed(&bvh, &rays, &SimConfig::paper_treelet_prefetch())
            .run()
            .unwrap();
        let mut config = SimConfig::paper_treelet_prefetch();
        config.prefetch_triangles = true;
        let with_tris = SimSession::borrowed(&bvh, &rays, &config).run().unwrap();
        assert!(with_tris.cycles > 0);
        let p0 = nodes_only.prefetcher.unwrap();
        let p1 = with_tris.prefetcher.unwrap();
        assert!(
            p1.lines_enqueued >= p0.lines_enqueued,
            "triangle prefetch should enqueue at least as many lines"
        );
    }

    #[test]
    fn l2_destination_prefetch_runs() {
        let (bvh, rays) = fixture();
        let mut config = SimConfig::paper_treelet_prefetch();
        config.prefetch_destination = crate::PrefetchDestination::L2;
        let result = SimSession::borrowed(&bvh, &rays, &config).run().unwrap();
        assert!(result.cycles > 0);
        // Prefetch effectiveness shows up at the L2, not the L1.
        assert_eq!(result.l1.prefetch_probes, 0, "L1 must see no prefetches");
        assert!(
            result.prefetch_effect_l2.total() > 0,
            "L2 must classify the prefetches"
        );
    }

    #[test]
    fn warp_buffer_occupancy_is_a_sane_fraction() {
        let (bvh, rays) = fixture();
        let r = SimSession::borrowed(&bvh, &rays, &SimConfig::paper_baseline())
            .run()
            .unwrap();
        assert!(r.warp_buffer_occupancy > 0.0);
        assert!(r.warp_buffer_occupancy <= 1.0);
        // 2 warps over 8 SMs × 16 slots: occupancy must be far below full.
        assert!(
            r.warp_buffer_occupancy < 0.5,
            "occupancy {} too high for 2 warps in 128 slots",
            r.warp_buffer_occupancy
        );
    }

    #[test]
    fn shader_program_with_bounces_completes() {
        let (bvh, rays) = fixture();
        let mut config = SimConfig::paper_treelet_prefetch();
        config.shader = Some(crate::ShaderProgram::path_tracer());
        let result = SimSession::borrowed(&bvh, &rays, &config).run().unwrap();
        assert!(result.cycles > 0);
        // Bounce lanes add demand traffic beyond the primary generation.
        let primary_only = SimSession::borrowed(&bvh, &rays, &SimConfig::paper_treelet_prefetch())
            .run()
            .unwrap();
        assert!(result.l1.demand_accesses() > primary_only.l1.demand_accesses());
        // Masked lanes pull SIMT efficiency below the primary-only run
        // (bounce generations lose the lanes that missed).
        assert!(result.simt_efficiency > 0.0);
        assert!(result.simt_efficiency < primary_only.simt_efficiency);
    }

    #[test]
    fn shader_ops_serialize_on_the_issue_port() {
        // With zero-op shaders the run matches the pure-replay setup; a
        // heavy raygen program must lengthen it.
        let (bvh, rays) = fixture();
        let mut light = SimConfig::paper_baseline();
        light.shader = Some(crate::ShaderProgram {
            raygen_ops: 1,
            shade_ops: 0,
            bounces: 0,
            bounce_kind: crate::BounceKind::Diffuse,
            seed: 1,
        });
        let mut heavy = light.clone();
        heavy.shader = Some(crate::ShaderProgram {
            raygen_ops: 20_000,
            shade_ops: 0,
            bounces: 0,
            bounce_kind: crate::BounceKind::Diffuse,
            seed: 1,
        });
        let fast = SimSession::borrowed(&bvh, &rays, &light).run().unwrap();
        let slow = SimSession::borrowed(&bvh, &rays, &heavy).run().unwrap();
        assert!(
            slow.cycles > fast.cycles + 10_000,
            "raygen ops must serialize: {} vs {}",
            slow.cycles,
            fast.cycles
        );
        // Same traversal work either way.
        assert_eq!(fast.l1.demand_accesses(), slow.l1.demand_accesses());
    }

    #[test]
    fn shader_simulation_is_deterministic() {
        let (bvh, rays) = fixture();
        let mut config = SimConfig::paper_treelet_prefetch();
        config.shader = Some(crate::ShaderProgram::path_tracer());
        let a = SimSession::borrowed(&bvh, &rays, &config).run().unwrap();
        let b = SimSession::borrowed(&bvh, &rays, &config).run().unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.l1, b.l1);
        assert!((a.simt_efficiency - b.simt_efficiency).abs() < 1e-12);
    }

    #[test]
    fn raygen_stagger_delays_completion() {
        // One SM so that the fixture's two warps actually queue behind
        // each other.
        let (bvh, rays) = fixture();
        let mut base_cfg = SimConfig::paper_baseline();
        base_cfg.num_sms = 1;
        let immediate = SimSession::borrowed(&bvh, &rays, &base_cfg).run().unwrap();
        let mut staggered_cfg = base_cfg.clone();
        // Longer than the whole immediate run, so the second warp cannot
        // hide inside it.
        staggered_cfg.raygen_interval = 2 * immediate.cycles;
        let staggered = SimSession::borrowed(&bvh, &rays, &staggered_cfg)
            .run()
            .unwrap();
        assert!(
            staggered.cycles > immediate.cycles,
            "stagger must lengthen the run: {} vs {}",
            staggered.cycles,
            immediate.cycles
        );
        // Same functional work either way.
        assert_eq!(
            staggered.l1.demand_accesses(),
            immediate.l1.demand_accesses()
        );
    }

    #[test]
    fn warm_batches_share_the_cache() {
        // Running the same rays twice in one session: the second batch
        // hits the warm caches and completes much faster.
        let (bvh, rays) = fixture();
        let results = SimSession::batched(
            &bvh,
            &[rays.clone(), rays.clone()],
            SimConfig::paper_baseline(),
        )
        .run_batches()
        .unwrap();
        assert_eq!(results.len(), 2);
        assert!(
            results[1].cycles * 2 < results[0].cycles,
            "warm batch not faster: {} vs {}",
            results[1].cycles,
            results[0].cycles
        );
        // Cache counters accumulate: the second result's totals exceed
        // the first's.
        assert!(results[1].l1.demand_accesses() > results[0].l1.demand_accesses());
    }

    #[test]
    fn batched_equals_single_for_one_batch() {
        let (bvh, rays) = fixture();
        let single = SimSession::borrowed(&bvh, &rays, &SimConfig::paper_treelet_prefetch())
            .run()
            .unwrap();
        let batched = SimSession::batched(
            &bvh,
            std::slice::from_ref(&rays),
            SimConfig::paper_treelet_prefetch(),
        )
        .run_batches()
        .unwrap();
        assert_eq!(single.cycles, batched[0].cycles);
        assert_eq!(single.l1, batched[0].l1);
        assert_eq!(single.prefetch_effect, batched[0].prefetch_effect);
    }

    #[test]
    #[should_panic(expected = "at least one batch")]
    fn empty_batches_panic() {
        let (bvh, _) = fixture();
        let _ = SimSession::batched(&bvh, &[], SimConfig::paper_baseline())
            .run_batches()
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn stale_treelets_still_simulate_after_refit() {
        // Animated-scene scenario: deform the triangles, refit the BVH,
        // keep the frame-0 treelet assignment. Topology is unchanged, so
        // the assignment stays valid and the simulation completes.
        let (mut bvh, rays) = fixture();
        let treelets = TreeletAssignment::form(&bvh, 512);
        let fresh = SimSession::borrowed(&bvh, &rays, &SimConfig::paper_treelet_prefetch())
            .treelets(&treelets)
            .run()
            .unwrap();
        let deformed: Vec<rt_geometry::Triangle> = bvh
            .triangles()
            .iter()
            .map(|t| {
                let wobble = |v: rt_geometry::Vec3| {
                    rt_geometry::Vec3::new(v.x, v.y + 0.25 * (v.x * 2.0).sin(), v.z)
                };
                rt_geometry::Triangle::new(wobble(t.v0), wobble(t.v1), wobble(t.v2))
            })
            .collect();
        bvh.refit(deformed);
        let stale = SimSession::borrowed(&bvh, &rays, &SimConfig::paper_treelet_prefetch())
            .treelets(&treelets)
            .run()
            .unwrap();
        assert!(fresh.cycles > 0 && stale.cycles > 0);
    }

    #[test]
    fn mapping_table_modes_run() {
        let (bvh, rays) = fixture();
        for mode in [MappingMode::LooseWait, MappingMode::StrictWait] {
            let config = SimConfig::paper_treelet_prefetch().with_mapping_mode(mode);
            let result = SimSession::borrowed(&bvh, &rays, &config).run().unwrap();
            assert!(result.cycles > 0, "{mode:?} did not complete");
        }
    }

    #[test]
    fn schedulers_all_complete() {
        let (bvh, rays) = fixture();
        for sched in [
            SchedulerPolicy::Baseline,
            SchedulerPolicy::OldestMatchingRay,
            SchedulerPolicy::PrioritizeMostRays,
        ] {
            let config = SimConfig::paper_treelet_prefetch().with_scheduler(sched);
            let result = SimSession::borrowed(&bvh, &rays, &config).run().unwrap();
            assert!(result.cycles > 0, "{sched} did not complete");
        }
    }

    #[test]
    fn dram_sees_traffic_on_cold_caches() {
        let (bvh, rays) = fixture();
        let result = SimSession::borrowed(&bvh, &rays, &SimConfig::paper_baseline())
            .run()
            .unwrap();
        assert!(result.dram_to_l2_lines > 0);
        assert!(result.dram_utilization > 0.0);
        assert_eq!(result.dram_channel_accesses.len(), 4);
    }

    #[test]
    fn power_report_is_positive() {
        let (bvh, rays) = fixture();
        let result = SimSession::borrowed(&bvh, &rays, &SimConfig::paper_baseline())
            .run()
            .unwrap();
        assert!(result.power.avg_power_w > 0.0);
        assert!(result.power.dynamic_nj > 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid simulation config")]
    fn invalid_config_panics() {
        let (bvh, rays) = fixture();
        let mut config = SimConfig::paper_treelet_prefetch();
        config.layout = LayoutChoice::DepthFirst; // incompatible with Packed mapping
        let _ = SimSession::borrowed(&bvh, &rays, &config)
            .run()
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    #[should_panic(expected = "at least one ray")]
    fn empty_rays_panic() {
        let (bvh, _) = fixture();
        let _ = SimSession::borrowed(&bvh, &[], &SimConfig::paper_baseline())
            .run()
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn invalid_config_returns_typed_error() {
        let (bvh, rays) = fixture();
        let mut config = SimConfig::paper_treelet_prefetch();
        config.layout = LayoutChoice::DepthFirst;
        match SimSession::borrowed(&bvh, &rays, &config).run() {
            Err(SimError::Config(crate::ConfigError::IncompatibleMapping { .. })) => {}
            other => panic!("expected IncompatibleMapping, got {other:?}"),
        }
    }

    #[test]
    fn zero_sms_is_an_error_not_a_panic() {
        // Validation must run before the memory system is built, or the
        // zero-SM assert inside MemorySystem::new fires first.
        let (bvh, rays) = fixture();
        let mut config = SimConfig::paper_baseline();
        config.num_sms = 0;
        assert!(matches!(
            SimSession::borrowed(&bvh, &rays, &config).run(),
            Err(SimError::Config(crate::ConfigError::ZeroSizedStructure))
        ));
        assert!(matches!(
            SimSession::batched(&bvh, &[rays], config.clone()).run_batches(),
            Err(SimError::Config(crate::ConfigError::ZeroSizedStructure))
        ));
    }

    #[test]
    fn empty_inputs_return_typed_errors() {
        let (bvh, _) = fixture();
        assert!(matches!(
            SimSession::borrowed(&bvh, &[], &SimConfig::paper_baseline()).run(),
            Err(SimError::EmptyInput { what: "ray" })
        ));
        assert!(matches!(
            SimSession::batched(&bvh, &[], SimConfig::paper_baseline()).run_batches(),
            Err(SimError::EmptyInput { what: "batch" })
        ));
    }

    #[test]
    fn mismatched_treelets_are_a_coverage_error() {
        let (bvh, rays) = fixture();
        let other_scene = Scene::build_with_detail(SceneId::Bunny, 0.3);
        let other_bvh = WideBvh::build(other_scene.mesh.into_triangles());
        let foreign = TreeletAssignment::form(&other_bvh, 512);
        assert_ne!(bvh.node_count(), other_bvh.node_count());
        match SimSession::borrowed(&bvh, &rays, &SimConfig::paper_baseline())
            .treelets(&foreign)
            .run()
        {
            Err(SimError::TreeletCoverage { nodes, assigned }) => {
                assert_eq!(nodes, bvh.node_count());
                assert_eq!(assigned, other_bvh.node_count());
            }
            other => panic!("expected TreeletCoverage, got {other:?}"),
        }
    }

    #[test]
    fn cycle_limit_returns_error_with_snapshot() {
        let (bvh, rays) = fixture();
        let mut config = SimConfig::paper_baseline();
        // Far too few cycles to finish; the default progress window is
        // much larger, so the hard limit fires first.
        config.max_cycles = 300;
        match SimSession::borrowed(&bvh, &rays, &config).run() {
            Err(SimError::CycleLimitExceeded { limit, snapshot }) => {
                assert_eq!(limit, 300);
                assert_eq!(snapshot.cycle, 300);
                assert!(snapshot.rays_remaining > 0);
                assert_eq!(snapshot.warp_buffer_occupancy.len(), config.num_sms);
            }
            other => panic!("expected CycleLimitExceeded, got {other:?}"),
        }
    }

    #[test]
    fn dropped_dram_response_trips_the_watchdog() {
        // Swallow the very first DRAM response: its waiters can never
        // finish, and once every other ray retires nothing moves. The
        // watchdog must convert that livelock into an error instead of
        // spinning to max_cycles.
        let (bvh, rays) = fixture();
        let mut config = SimConfig::paper_baseline();
        config.mem.fault_injection = Some(rt_gpu_sim::FaultInjection::drop_nth_dram_send(1, 0));
        config.progress_window = 5_000;
        match SimSession::borrowed(&bvh, &rays, &config).run() {
            Err(SimError::NoForwardProgress { window, snapshot }) => {
                assert_eq!(window, 5_000);
                assert!(snapshot.rays_remaining > 0);
                assert!(
                    snapshot.outstanding_requests > 0,
                    "the wedged request must appear in the snapshot"
                );
                assert!(!snapshot.outstanding_request_ids.is_empty());
            }
            other => panic!("expected NoForwardProgress, got {other:?}"),
        }
    }

    #[test]
    fn latency_faults_do_not_change_functional_results() {
        let (bvh, rays) = fixture();
        let clean = SimSession::borrowed(&bvh, &rays, &SimConfig::paper_treelet_prefetch())
            .run()
            .unwrap();
        let mut faulty_cfg = SimConfig::paper_treelet_prefetch();
        faulty_cfg.mem.fault_injection = Some(rt_gpu_sim::FaultInjection::latency_storm(42));
        let faulty = SimSession::borrowed(&bvh, &rays, &faulty_cfg)
            .run()
            .expect("latency faults must complete");
        // Faults perturb timing only: identical traversal and demand
        // traffic, at least as many cycles.
        assert_eq!(faulty.traversal, clean.traversal);
        assert_eq!(faulty.l1.demand_accesses(), clean.l1.demand_accesses());
        assert!(faulty.cycles >= clean.cycles);
        // The same seed reproduces the same faulty timing.
        let again = SimSession::borrowed(&bvh, &rays, &faulty_cfg)
            .run()
            .unwrap();
        assert_eq!(faulty.cycles, again.cycles);
        assert_eq!(faulty.l1, again.l1);
    }

    /// Fresh per-test scratch directory under the system temp dir.
    fn ckpt_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("treelet-ckpt-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn determinism_across_entry_points_and_batch_splits() {
        let (bvh, rays) = fixture();
        let config = SimConfig::paper_treelet_prefetch();
        let single_a = SimSession::borrowed(&bvh, &rays, &config).run().unwrap();
        let single_b = SimSession::borrowed(&bvh, &rays, &config).run().unwrap();
        assert_eq!(format!("{single_a:?}"), format!("{single_b:?}"));
        // One whole batch goes down the same path as a single run: the
        // results — final state digest included — are identical.
        let whole = SimSession::batched(&bvh, std::slice::from_ref(&rays), config.clone())
            .run_batches()
            .unwrap();
        assert_eq!(format!("{:?}", whole[0]), format!("{single_a:?}"));
        assert_eq!(whole[0].state_digest, single_a.state_digest);
        // Multi-batch sessions form warps per batch, so each split point
        // is its own timing trajectory; what determinism demands is that
        // every split reproduces itself exactly, run to run.
        for split in [16usize, 32, 48] {
            let (a, b) = rays.split_at(split);
            let batches = [a.to_vec(), b.to_vec()];
            let r1 = SimSession::batched(&bvh, &batches, config.clone())
                .run_batches()
                .unwrap();
            let r2 = SimSession::batched(&bvh, &batches, config.clone())
                .run_batches()
                .unwrap();
            assert_eq!(format!("{r1:?}"), format!("{r2:?}"), "split at {split}");
            assert_eq!(
                r1.last().unwrap().state_digest,
                r2.last().unwrap().state_digest,
                "split at {split}"
            );
        }
    }

    #[test]
    fn interrupted_runs_resume_bit_identical_across_scenes() {
        // The acceptance matrix: ≥3 scenes, including the treelet-prefetch
        // configuration, plus fault-injection (RNG state) and shader-mode
        // (bounce bookkeeping) variants of it.
        let mut faulty = SimConfig::paper_treelet_prefetch();
        faulty.mem.fault_injection = Some(rt_gpu_sim::FaultInjection::latency_storm(42));
        let mut shaded = SimConfig::paper_treelet_prefetch();
        shaded.shader = Some(crate::ShaderProgram::path_tracer());
        let cases = [
            (SceneId::Wknd, SimConfig::paper_baseline(), "wknd-baseline"),
            (
                SceneId::Bunny,
                SimConfig::paper_treelet_prefetch(),
                "bunny-prefetch",
            ),
            (
                SceneId::Park,
                SimConfig::paper_treelet_traversal_only(),
                "park-treelet",
            ),
            (SceneId::Wknd, faulty, "wknd-prefetch-faulty"),
            (SceneId::Wknd, shaded, "wknd-prefetch-shader"),
        ];
        let dir = ckpt_dir("resume");
        for (scene_id, config, name) in cases {
            let scene = Scene::build_with_detail(scene_id, 0.3);
            let rays = Workload::new(WorkloadKind::Primary, 8, 8).generate(&scene);
            let bvh = WideBvh::build(scene.mesh.into_triangles());
            let straight = SimSession::borrowed(&bvh, &rays, &config).run().unwrap();
            let every = (straight.cycles / 7).max(1);
            let opts = CheckpointOptions::new(every, dir.join(format!("{name}.rtsnap")))
                .with_digest_log(dir.join(format!("{name}.digests")));
            // Uninterrupted checkpointed run: bit-identical to the plain
            // run, with several epochs logged.
            let full = SimSession::borrowed(&bvh, &rays, &config)
                .checkpoint(opts.clone())
                .run()
                .unwrap();
            assert_eq!(format!("{full:?}"), format!("{straight:?}"), "{name}");
            let log_path = opts.digest_log.as_ref().unwrap();
            let full_log = snapshot::read_digest_log(log_path).unwrap();
            assert!(
                full_log.len() >= 3,
                "{name}: expected several epochs, got {}",
                full_log.len()
            );
            // Interrupt mid-run via the cycle budget — the checkpoint from
            // the aborting epoch survives, exactly as after a SIGKILL
            // between epochs — then resume under the full budget.
            let mut truncated = config.clone();
            truncated.max_cycles = (straight.cycles * 2 / 3).max(every);
            match SimSession::borrowed(&bvh, &rays, &truncated)
                .checkpoint(opts.clone())
                .run()
            {
                Err(SimError::CycleLimitExceeded { .. }) => {}
                other => panic!("{name}: expected budget exhaustion, got {other:?}"),
            }
            let ck = snapshot::read_checkpoint(&opts.path).unwrap();
            assert!(
                ck.cycle < straight.cycles,
                "{name}: checkpoint must be mid-run"
            );
            assert!(ck.rays_remaining > 0, "{name}");
            let resumed = SimSession::borrowed(&bvh, &rays, &config)
                .checkpoint(opts.clone())
                .resume_from_checkpoint()
                .run()
                .unwrap();
            assert_eq!(
                format!("{resumed:?}"),
                format!("{straight:?}"),
                "{name}: resumed run must be bit-identical"
            );
            assert_eq!(resumed.state_digest, straight.state_digest, "{name}");
            // The digest history after resume matches the uninterrupted
            // run's epoch for epoch.
            let resumed_log = snapshot::read_digest_log(log_path).unwrap();
            assert_eq!(resumed_log, full_log, "{name}: digest histories differ");
            assert!(snapshot::first_divergence(&full_log, &resumed_log).is_none());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_corrupt_and_foreign_checkpoints() {
        let (bvh, rays) = fixture();
        let config = SimConfig::paper_baseline();
        let dir = ckpt_dir("reject");
        let path = dir.join("ck.rtsnap");
        let straight = SimSession::borrowed(&bvh, &rays, &config).run().unwrap();
        let opts = CheckpointOptions::new((straight.cycles / 4).max(1), &path);
        SimSession::borrowed(&bvh, &rays, &config)
            .checkpoint(opts.clone())
            .run()
            .unwrap();
        // A checkpoint from a different configuration is refused up front.
        match SimSession::borrowed(&bvh, &rays, &SimConfig::paper_treelet_traversal_only())
            .checkpoint(opts.clone())
            .resume_from_checkpoint()
            .run()
        {
            Err(SimError::Snapshot(SnapshotError::IdentityMismatch { expected, found })) => {
                assert_ne!(expected, found);
            }
            other => panic!("expected identity mismatch, got {other:?}"),
        }
        // A larger cycle budget is NOT a different run: resuming the
        // finished checkpoint under it replays the tail and matches.
        let mut roomy = config.clone();
        roomy.max_cycles = config.max_cycles + 1;
        let resumed = SimSession::borrowed(&bvh, &rays, &roomy)
            .checkpoint(opts.clone())
            .resume_from_checkpoint()
            .run()
            .unwrap();
        assert_eq!(resumed.state_digest, straight.state_digest);
        // Truncation, bit flips, and a missing file are all typed errors.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        match SimSession::borrowed(&bvh, &rays, &config)
            .checkpoint(opts.clone())
            .resume_from_checkpoint()
            .run()
        {
            Err(SimError::Snapshot(SnapshotError::Decode(_))) => {}
            other => panic!("expected decode error on truncation, got {other:?}"),
        }
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        match SimSession::borrowed(&bvh, &rays, &config)
            .checkpoint(opts.clone())
            .resume_from_checkpoint()
            .run()
        {
            Err(SimError::Snapshot(SnapshotError::Decode(_))) => {}
            other => panic!("expected decode error on bit flip, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
        match SimSession::borrowed(&bvh, &rays, &config)
            .checkpoint(opts.clone())
            .resume_from_checkpoint()
            .run()
        {
            Err(SimError::Snapshot(SnapshotError::Io { .. })) => {}
            other => panic!("expected io error on missing file, got {other:?}"),
        }
        // A zero interval is a config error, not a runtime surprise.
        let bad = CheckpointOptions::new(0, dir.join("never.rtsnap"));
        assert!(matches!(
            SimSession::borrowed(&bvh, &rays, &config)
                .checkpoint(bad.clone())
                .run(),
            Err(SimError::Config(crate::ConfigError::ZeroCheckpointInterval))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watchdog_tolerates_long_legitimate_stalls() {
        // A raygen stagger far longer than the progress window parks the
        // second warp for ages with nothing in flight; the watchdog must
        // count that scheduled future work, not abort.
        let (bvh, rays) = fixture();
        let mut config = SimConfig::paper_baseline();
        config.num_sms = 1;
        config.raygen_interval = 50_000;
        config.progress_window = 10_000;
        let result = SimSession::borrowed(&bvh, &rays, &config)
            .run()
            .expect("staggered run must complete");
        assert!(result.cycles > 50_000);
    }
}
