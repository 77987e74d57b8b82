//! The RT-unit timing simulation.
//!
//! Follows the paper's methodology (§5): traversal is functionally
//! simulated to produce each ray's dependent memory-access sequence, and
//! this cycle-level model replays those sequences through the RT unit —
//! warp buffer, memory scheduler, operation units, treelet prefetcher,
//! and prefetch queue — on top of the `rt-gpu-sim` memory hierarchy.
//! The hand-off is a `Replay`: every ray's trace compiled into two flat
//! arrays (per ray its steps, per step its node and prefetcher vote),
//! every ray traced into one reused scratch. A step's cache lines come
//! from a per-node table built from the run's memory image.

use crate::config::{CheckpointOptions, LayoutChoice, SchedulerPolicy, SimConfig};
use crate::error::{ProgressSnapshot, SimError};
use crate::ghb::GhbStats;
use crate::mta::MtaStats;
use crate::power::{ActivityCounts, EnergyModel, PowerReport};
use crate::prefetch::{PrefetchEntry, PrefetchUsefulness, PrefetcherStats};
use crate::prefetcher::{PrefetchUnitStats, PrefetcherUnit, TreeletLines};
use crate::snapshot::{self, Checkpoint, DigestRecord, SnapshotError};
use crate::telemetry::{Telemetry, TelemetrySample};
use crate::traversal::{step_lines, trace_into, TraceScratch, TraceStep, TraversalStats};
use crate::treelet::TreeletAssignment;
use rt_bvh::{MemoryImage, PackOptions, WideBvh};
use rt_geometry::Ray;
use rt_gpu_sim::{
    check_decoded_window, fnv1a64, AccessKind, ByteReader, ByteWriter, CacheStats, CountTable,
    CountVec, DecodeError, FillOrigin, IdWindow, Issue, MemorySystem, PrefetchEffect, RequestId,
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

/// The memory image `config`'s layout gives `bvh`.
fn memory_image(bvh: &WideBvh, config: &SimConfig, treelets: &TreeletAssignment) -> MemoryImage {
    match config.layout {
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
    }
}

/// Runs `rays` to retirement on a fresh memory hierarchy, checkpointing
/// to `checkpoint`, resuming from `resume` and sampling into `telemetry`
/// when given.
pub(crate) fn try_run_engine(
    bvh: &WideBvh,
    rays: &[Ray],
    config: &SimConfig,
    treelets: &TreeletAssignment,
    checkpoint: Option<&CheckpointOptions>,
    resume: Option<Checkpoint>,
    mut telemetry: Option<&mut Telemetry>,
) -> Result<SimResult, SimError> {
    config.validate()?;
    if rays.is_empty() {
        return Err(SimError::EmptyInput { what: "ray" });
    }
    let assigned = treelets.covered_nodes();
    if bvh.node_count() != assigned {
        return Err(SimError::TreeletCoverage {
            nodes: bvh.node_count(),
            assigned,
        });
    }

    let replay = Replay::compile(bvh, rays, config, treelets);
    // The image is needed only to list each node's and each treelet's
    // lines.
    let (node_lines, treelet_lines) = {
        let image = memory_image(bvh, config, treelets);
        (
            NodeLines::new(bvh, &image, config.mem.line_bytes),
            TreeletLines::new(bvh, config, treelets, &image),
        )
    };
    let traversal = replay.traversal_stats();
    // Operation-unit activity is fixed by the functional traces.
    let mut activity = replay.activity(&node_lines);

    let mem = MemorySystem::new(config.mem, config.num_sms);
    let mut start_cycle = mem.cycle();
    let mut engine = Engine::new(config, replay, node_lines, treelets, treelet_lines, mem);
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
    let prefetch_effect = engine.mem.finalize_prefetch_effect();
    let prefetch_effect_l2 = engine.mem.finalize_l2_prefetch_effect();
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
    let (prefetcher_stats, mta_stats, ghb_stats): (
        Option<PrefetcherStats>,
        Option<MtaStats>,
        Option<GhbStats>,
    ) = match unit_stats {
        None => (None, None, None),
        Some(PrefetchUnitStats::Treelet(s)) => (Some(s), None, None),
        Some(PrefetchUnitStats::Mta(s)) => (None, Some(s), None),
        Some(PrefetchUnitStats::Ghb(s)) => (None, None, Some(s)),
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
    Ok(result)
}

/// Every ray's compiled trace, as the timing model replays it: per ray
/// its steps, per step the visited node and the treelet the ray votes
/// for. Ray `r`'s steps are `steps[ray_start[r]..ray_start[r + 1]]`. A
/// step's cache lines are its node's in [`NodeLines`], so the replay
/// depends on neither the memory layout nor the line size.
///
/// Static replay data, rebuilt from the inputs on resume, never encoded.
#[derive(Debug)]
struct Replay {
    /// Per ray, its first step, plus one closing entry.
    ray_start: Vec<u32>,
    steps: Vec<Step>,
    /// Rays with a trace (dead shader lanes have none), for the
    /// traversal statistics.
    traced: usize,
}

/// One traversal step of a [`Replay`].
#[derive(Debug, Clone, Copy)]
struct Step {
    /// The visited node.
    node: u32,
    /// The treelet the ray reports to the prefetcher: the treelet it
    /// *will traverse next* (§4.1 — the prefetcher identifies "treelets
    /// that will be traversed next"). A ray entering treelet T reports T
    /// (its deeper nodes are still ahead); a ray already inside T reports
    /// the treelet it will move to after T — in hardware, the top of its
    /// other-treelet stack.
    vote: u32,
}

impl Replay {
    /// Traces every ray `config` replays. Generation 0 is `rays`; with a
    /// shader program, bounce generations follow, lane-aligned (dead
    /// lanes have no trace). Each ray is traced into one reused scratch
    /// and compiled from it.
    fn compile(
        bvh: &WideBvh,
        rays: &[Ray],
        config: &SimConfig,
        treelets: &TreeletAssignment,
    ) -> Replay {
        let mut ray_start = Vec::with_capacity(rays.len() + 1);
        ray_start.push(0);
        let mut replay = Replay {
            ray_start,
            steps: Vec::new(),
            traced: 0,
        };
        let mut scratch = TraceScratch::default();
        let mut push = |r: Option<&Ray>| {
            let steps = r.map(|r| {
                trace_into(
                    bvh,
                    treelets,
                    r,
                    config.traversal,
                    config.traversal_options,
                    &mut scratch,
                );
                scratch.steps.as_slice()
            });
            replay.push(steps);
        };
        rays.iter().for_each(|r| push(Some(r)));
        if let Some(program) = config.shader {
            let mut current: Vec<Option<Ray>> = rays.iter().copied().map(Some).collect();
            for g in 1..=program.bounces {
                current = crate::workloads::bounce_rays_indexed(
                    bvh,
                    &current,
                    program.bounce_kind,
                    program.seed.wrapping_add(g as u64),
                );
                current.iter().for_each(|r| push(r.as_ref()));
            }
        }
        replay
    }

    /// Appends one ray: its traced `steps`, or no steps for a dead lane.
    fn push(&mut self, steps: Option<&[TraceStep]>) {
        self.traced += usize::from(steps.is_some());
        let steps = steps.unwrap_or_default();
        // Entering steps vote for their own treelet; interior steps for
        // the next different treelet in the trace (the ray's pending
        // treelet). A ray ending inside a treelet has no pending treelet
        // and keeps voting for its own.
        let first = self.steps.len();
        self.steps.extend(steps.iter().map(|s| Step {
            node: s.node,
            vote: s.treelet,
        }));
        let votes = &mut self.steps[first..];
        let mut next_diff = steps.last().map_or(0, |s| s.treelet);
        for i in (0..steps.len()).rev() {
            let treelet = steps[i].treelet;
            if i + 1 < steps.len() && steps[i + 1].treelet != treelet {
                next_diff = steps[i + 1].treelet;
            }
            let entering = i == 0 || steps[i - 1].treelet != treelet;
            if !entering {
                votes[i].vote = next_diff;
            }
        }
        self.ray_start.push(index(self.steps.len()));
    }

    /// Rays replayed (every generation's, dead lanes included).
    fn rays(&self) -> usize {
        self.ray_start.len() - 1
    }

    /// Ray `r`'s first step and step count.
    fn ray_steps(&self, r: usize) -> (u32, u32) {
        let first = self.ray_start[r];
        (first, self.ray_start[r + 1] - first)
    }

    /// Node-visit statistics over the traced rays.
    fn traversal_stats(&self) -> TraversalStats {
        let max = (0..self.rays()).map(|r| self.ray_steps(r).1).max();
        TraversalStats {
            avg_nodes_per_ray: self.steps.len() as f64 / self.traced as f64,
            max_nodes_per_ray: max.unwrap_or(0) as usize,
        }
    }

    /// The operation units' box and triangle tests, with each node's
    /// lines from `lines`.
    fn activity(&self, lines: &NodeLines) -> ActivityCounts {
        let mut activity = ActivityCounts::default();
        for step in &self.steps {
            if lines.is_leaf(step.node) {
                activity.tri_tests += u64::from(lines.count(step.node) - 1).max(1);
            } else {
                activity.box_tests += rt_bvh::WIDE_ARITY as u64;
            }
        }
        activity
    }
}

/// Every node's cache lines under one memory image, in issue order: the
/// node record's line (an [`AccessKind::Node`] load), then a leaf's
/// triangle lines, as [`step_lines`] lists them. Those are a run of
/// consecutive lines, so a node's lines are three numbers.
///
/// Built once per run from the image and never encoded: a replay step
/// looks its lines up here instead of storing them.
#[derive(Debug)]
struct NodeLines {
    runs: Vec<LineRun>,
    /// Line number `i` starts at byte `base + i * line_bytes`. Every
    /// image address is at or above [`rt_bvh::NODE_REGION_BASE`], so
    /// numbers count from the line holding it.
    base: u64,
    line_bytes: u64,
}

/// One node's lines in [`NodeLines`]: its record's line, then the
/// triangle lines `tri_first..tri_end` (empty for an internal node).
#[derive(Debug, Clone, Copy)]
struct LineRun {
    line: u32,
    tri_first: u32,
    tri_end: u32,
    /// Whether the node is a leaf (it pays the primitive-test latency).
    leaf: bool,
}

impl NodeLines {
    /// The lines of every node of `bvh` laid out by `image`, in
    /// `line_bytes`-sized lines.
    fn new(bvh: &WideBvh, image: &MemoryImage, line_bytes: u64) -> NodeLines {
        let first_line = rt_bvh::NODE_REGION_BASE / line_bytes;
        let number = |line: u64| {
            u32::try_from(line - first_line).expect("an image's line numbers fit 32 bits")
        };
        let runs = (0..index(bvh.node_count()))
            .map(|node| {
                let range = bvh.node(node).leaf();
                let (line, tri_lines) = step_lines(node, range, image, line_bytes);
                let (tri_first, tri_end) = match range {
                    Some(_) => (number(tri_lines.start), number(tri_lines.end)),
                    None => (0, 0),
                };
                LineRun {
                    line: number(line),
                    tri_first,
                    tri_end,
                    leaf: range.is_some(),
                }
            })
            .collect();
        NodeLines {
            runs,
            base: first_line * line_bytes,
            line_bytes,
        }
    }

    /// How many lines a visit to `node` fetches.
    fn count(&self, node: u32) -> u32 {
        let run = self.runs[node as usize];
        1 + run.tri_end - run.tri_first
    }

    /// The byte address of `node`'s `i`th line.
    fn line(&self, node: u32, i: u32) -> u64 {
        let run = self.runs[node as usize];
        let number = if i == 0 {
            run.line
        } else {
            run.tri_first + i - 1
        };
        self.base + u64::from(number) * self.line_bytes
    }

    fn is_leaf(&self, node: u32) -> bool {
        self.runs[node as usize].leaf
    }
}

/// A replay offset as stored: step and line counts fit 32 bits.
fn index(n: usize) -> u32 {
    u32::try_from(n).expect("replay offsets fit 32 bits")
}

/// The kind of the `i`th line of a step: the node record comes first,
/// triangle data after it.
fn line_kind(i: u32) -> AccessKind {
    if i == 0 {
        AccessKind::Node
    } else {
        AccessKind::Triangle
    }
}

/// [`RayCtx::slot`] of a ray never admitted to a warp buffer.
const NO_SLOT: u32 = u32::MAX;

/// A ray's replay state in the timing model.
#[derive(Debug)]
struct RayCtx {
    /// The ray's first step in the [`Replay`] and its step count.
    first: u32,
    len: u32,
    /// Steps completed.
    step: u32,
    /// Index into the current step's line list of the next line to
    /// issue. Lines issue front-to-back (the node line first), so the
    /// steady state allocates nothing.
    next_line: u32,
    outstanding: u32,
    /// Warp-buffer slot currently holding this ray, or [`NO_SLOT`].
    slot: u32,
}

impl RayCtx {
    fn is_done(&self) -> bool {
        self.step >= self.len
    }

    /// The current step's index in the [`Replay`], if any is left.
    fn current_step(&self) -> Option<usize> {
        (!self.is_done()).then(|| (self.first + self.step) as usize)
    }

    fn current_treelet(&self, replay: &Replay) -> Option<u32> {
        self.current_step().map(|s| replay.steps[s].vote)
    }

    /// The current step's node and how many lines it fetches in all.
    fn current_lines(&self, replay: &Replay, lines: &NodeLines) -> Option<(u32, u32)> {
        self.current_step().map(|s| {
            let node = replay.steps[s].node;
            (node, lines.count(node))
        })
    }

    /// How many of the current step's lines are not yet issued.
    fn pending_lines(&self, replay: &Replay, lines: &NodeLines) -> u32 {
        self.current_lines(replay, lines)
            .map_or(0, |(_, count)| count - self.next_line)
    }
}

/// What an in-flight request was issued for.
#[derive(Debug)]
enum ReqOwner {
    Ray(u32),
    PrefetchLine,
    /// A Strict-Wait mapping load gating treelet lines.
    PrefetchMeta(Vec<u64>),
}

/// [`ReqOwner`] as [`Owners`] stores it: a Strict-Wait load's gated
/// lines live in a side slab, so every entry is a few bytes.
#[derive(Debug, Clone, Copy)]
enum OwnerTag {
    Ray(u32),
    PrefetchLine,
    /// The slot of [`Owners::gated`] holding the gated lines.
    PrefetchMeta(u32),
}

/// The owner of one in-flight request and the SM that issued it.
#[derive(Debug, Clone, Copy)]
struct Owner {
    sm: u32,
    tag: OwnerTag,
}

/// Who owns each in-flight request, for every SM.
///
/// The memory system allocates request ids in increasing order and
/// completes most requests within a few hundred cycles, so the owners sit
/// in one window indexed by the id: an issue and a completion each cost
/// an index, not a hash. Each SM's owners encode in id order.
///
/// L2-destination prefetches complete silently in the memory system, so
/// they have no owner here.
#[derive(Debug)]
struct Owners {
    live: IdWindow<Owner>,
    /// Gated lines of the in-flight Strict-Wait loads; `free_gated`
    /// lists the emptied slots.
    gated: Vec<Vec<u64>>,
    free_gated: Vec<u32>,
}

impl Owners {
    fn new() -> Owners {
        Owners {
            live: IdWindow::new(),
            gated: Vec::new(),
            free_gated: Vec::new(),
        }
    }

    /// Records `owner` for `req`, issued by `sm` after every id already
    /// recorded.
    fn insert(&mut self, req: RequestId, sm: usize, owner: ReqOwner) {
        let tag = match owner {
            ReqOwner::Ray(r) => OwnerTag::Ray(r),
            ReqOwner::PrefetchLine => OwnerTag::PrefetchLine,
            ReqOwner::PrefetchMeta(lines) => {
                let slot = match self.free_gated.pop() {
                    Some(slot) => {
                        self.gated[slot as usize] = lines;
                        slot
                    }
                    None => {
                        self.gated.push(lines);
                        index(self.gated.len() - 1)
                    }
                };
                OwnerTag::PrefetchMeta(slot)
            }
        };
        let previous = self.live.insert(req, Owner { sm: index(sm), tag });
        debug_assert!(previous.is_none(), "request {req} owned twice");
    }

    /// Removes and returns the owner of completed request `req` of `sm`.
    fn remove(&mut self, req: RequestId, sm: usize) -> Option<ReqOwner> {
        let owner = self.live.remove(req)?;
        debug_assert_eq!(
            owner.sm as usize, sm,
            "request {req} completed on another SM"
        );
        Some(match owner.tag {
            OwnerTag::Ray(r) => ReqOwner::Ray(r),
            OwnerTag::PrefetchLine => ReqOwner::PrefetchLine,
            OwnerTag::PrefetchMeta(slot) => {
                self.free_gated.push(slot);
                ReqOwner::PrefetchMeta(std::mem::take(&mut self.gated[slot as usize]))
            }
        })
    }

    /// Writes `sm`'s owners in id order.
    fn encode_sm(&self, sm: usize, w: &mut ByteWriter) {
        let of_sm = |(_, o): &(RequestId, &Owner)| o.sm as usize == sm;
        w.put_len(self.live.iter().filter(of_sm).count());
        for (req, owner) in self.live.iter().filter(of_sm) {
            w.put_u64(req);
            match owner.tag {
                OwnerTag::Ray(r) => {
                    w.put_u8(0);
                    w.put_u32(r);
                }
                OwnerTag::PrefetchLine => w.put_u8(1),
                OwnerTag::PrefetchMeta(slot) => {
                    let gated = &self.gated[slot as usize];
                    w.put_u8(2);
                    w.put_len(gated.len());
                    for &line in gated {
                        w.put_u64(line);
                    }
                }
            }
        }
    }

    /// Rebuilds the table from every SM's decoded `(id, sm, owner)`
    /// entries.
    fn restore(mut entries: Vec<(RequestId, usize, ReqOwner)>) -> Result<Owners, DecodeError> {
        entries.sort_unstable_by_key(|&(req, _, _)| req);
        if let Some(w) = entries.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(DecodeError::malformed(format!(
                "duplicate in-flight request {}",
                w[0].0
            )));
        }
        // The window pads one slot per id between its live ids.
        if let (Some(first), Some(last)) = (entries.first(), entries.last()) {
            check_decoded_window(first.0, last.0, entries.len())?;
        }
        let mut owners = Owners::new();
        for (req, sm, owner) in entries {
            owners.insert(req, sm, owner);
        }
        Ok(owners)
    }
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
    /// Which logical warp this is (shader mode).
    warp_id: usize,
    /// Which ray generation the warp is tracing (shader mode).
    generation: u32,
}

impl WarpSlot {
    /// Adds one ray reporting treelet `t` to the slot's and the SM's
    /// counts, and to the slot's `matching` count if `t` is the SM's
    /// `match_treelet`.
    fn count_ray(
        &mut self,
        matching: &mut u32,
        global: &mut CountTable,
        match_treelet: Option<u32>,
        t: u32,
    ) {
        self.counts.increment(t);
        global.increment(t);
        if match_treelet == Some(t) {
            *matching += 1;
        }
    }

    /// Removes one ray reporting treelet `t` from the slot's and the SM's
    /// counts, and from `matching` if `t` is the SM's `match_treelet`.
    fn uncount_ray(
        &mut self,
        matching: &mut u32,
        global: &mut CountTable,
        match_treelet: Option<u32>,
        t: u32,
    ) {
        self.counts.decrement(t);
        global.decrement(t);
        if match_treelet == Some(t) {
            *matching -= 1;
        }
    }
}

/// What `select_warp` orders an occupied slot by.
#[derive(Debug, Clone, Copy, Default)]
struct SlotKey {
    /// The slot's `arrival`.
    arrival: u64,
    /// The slot's `counts.get(t)` for the SM's `match_treelet` `t` (0
    /// without one): the OMR/PMR match count, kept current at every
    /// count update.
    matching: u32,
}

/// A warp waiting to enter the RT unit's warp buffer.
#[derive(Debug)]
struct PendingWarp {
    ready_at: u64,
    warp_id: usize,
    generation: u32,
    rays: Vec<u32>,
}

/// Appends `warp` to `queue`. Warps queue at their raygen stagger
/// (`position × raygen_interval`) or at the current cycle, so a queue is
/// sorted by `ready_at` and its back is its latest warp.
fn queue_warp(queue: &mut VecDeque<PendingWarp>, warp: PendingWarp) {
    debug_assert!(
        queue.back().is_none_or(|b| b.ready_at <= warp.ready_at),
        "warp queued out of ready_at order"
    );
    queue.push_back(warp);
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
    /// Each occupied slot's scheduling key, by slot index, so a pick
    /// reads one small array instead of every candidate slot. Derived
    /// state, never encoded; rebuilt on restore.
    keys: Vec<SlotKey>,
    /// The occupied slots whose `ready` queue is non-empty, in no
    /// particular order: `select_warp` breaks ties by slot index. Derived
    /// state, never encoded; rebuilt on restore.
    ready_list: Vec<usize>,
    /// Occupied slots. Derived state, never encoded; recounted on
    /// restore.
    occupied: usize,
    test_heap: BinaryHeap<Reverse<(u64, u32)>>,
    counts_global: CountTable,
    /// The SM's prefetcher, if the configuration runs one.
    unit: Option<PrefetcherUnit>,
    active_rays: usize,
    /// The treelet the keys' `matching` counts refer to: the unit's
    /// last-prefetched treelet as the OMR/PMR scheduler last saw it.
    /// Derived state, never encoded; reset on restore.
    match_treelet: Option<u32>,
    /// The last demand retry of this SM's scheduler, if any. Cleared
    /// whenever the warp buffer changes (a warp is admitted or a ray
    /// advances); after an L1 fill it no longer matches. Derived state,
    /// never encoded; reset on restore.
    stall: Option<Stall>,
}

/// What a demand issue that returned `Issue::Retry` was made under.
///
/// Only an L1 fill frees an MSHR or makes a line resident or pending (a
/// prefetch probe cannot allocate while the MSHRs are full). So while the
/// SM sees no fill, its warp buffer is unchanged and the scheduler target
/// is the same, the scheduler would pick the same ray and be refused the
/// same line again.
#[derive(Debug, Clone, Copy)]
struct Stall {
    /// `MemorySystem::l1_fills` of the SM at the retry.
    fills: u64,
    /// The scheduler target (the unit's last-prefetched treelet).
    target: Option<u32>,
    /// The refused line.
    line: u64,
}

impl SmState {
    /// An idle SM of `config` for a BVH of `treelets` treelets, with room
    /// for `warps` queued warps.
    fn new(config: &SimConfig, treelets: usize, warps: usize) -> SmState {
        SmState {
            warp_queue: VecDeque::with_capacity(warps),
            shader_runqueue: VecDeque::new(),
            slots: (0..config.warp_buffer_size).map(|_| None).collect(),
            keys: vec![SlotKey::default(); config.warp_buffer_size],
            ready_list: Vec::with_capacity(config.warp_buffer_size),
            occupied: 0,
            test_heap: BinaryHeap::new(),
            counts_global: CountTable::with_key_capacity(treelets),
            unit: PrefetcherUnit::from_config(config),
            active_rays: 0,
            match_treelet: None,
            stall: None,
        }
    }

    /// Removes `slot_idx`, whose `ready` queue just drained, from
    /// `ready_list`.
    fn unlist_ready(ready_list: &mut Vec<usize>, slot_idx: usize) {
        let pos = ready_list
            .iter()
            .position(|&i| i == slot_idx)
            .expect("a slot with ready rays is listed");
        ready_list.swap_remove(pos);
    }

    /// Recomputes the derived slot bookkeeping from the slots, with no
    /// `match_treelet`.
    fn recount_slots(&mut self) {
        self.ready_list.clear();
        self.occupied = 0;
        self.match_treelet = None;
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(slot) = slot {
                self.occupied += 1;
                self.keys[i] = SlotKey {
                    arrival: slot.arrival,
                    matching: 0,
                };
                if !slot.ready.is_empty() {
                    self.ready_list.push(i);
                }
            }
        }
    }

    /// Points every occupied slot's `matching` count at treelet `target`.
    fn retarget_matches(&mut self, target: Option<u32>) {
        if self.match_treelet == target {
            return;
        }
        self.match_treelet = target;
        for (slot, key) in self.slots.iter().zip(&mut self.keys) {
            if let Some(slot) = slot {
                key.matching = target.map_or(0, |t| slot.counts.get(t));
            }
        }
    }
}

struct Engine<'a> {
    config: &'a SimConfig,
    mem: MemorySystem,
    /// Every ray's compiled trace (static replay data, never encoded).
    replay: Replay,
    /// Every node's cache lines (static replay data, never encoded).
    node_lines: NodeLines,
    rays: Vec<RayCtx>,
    sms: Vec<SmState>,
    /// The treelet prefetcher's address map (empty for other runs).
    /// Static replay data, never encoded.
    treelet_lines: TreeletLines,
    /// The owner of every in-flight request.
    owners: Owners,
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
        replay: Replay,
        node_lines: NodeLines,
        treelets: &TreeletAssignment,
        treelet_lines: TreeletLines,
        mem: MemorySystem,
    ) -> Engine<'a> {
        let rays: Vec<RayCtx> = (0..replay.rays())
            .map(|r| {
                let (first, len) = replay.ray_steps(r);
                RayCtx {
                    first,
                    len,
                    step: 0,
                    next_line: 0,
                    outstanding: 0,
                    slot: NO_SLOT,
                }
            })
            .collect();

        // Every warp this SM will ever queue is known up front (pure
        // replay queues them all in the constructor; shader mode feeds
        // them back one at a time), so size the deque once.
        let warps_per_sm = rays
            .len()
            .div_ceil(config.warp_size)
            .div_ceil(config.num_sms)
            + 1;
        let mut sms: Vec<SmState> = (0..config.num_sms)
            .map(|_| SmState::new(config, treelets.count(), warps_per_sm))
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
                    queue_warp(
                        &mut sms[sm].warp_queue,
                        PendingWarp {
                            ready_at: position * config.raygen_interval,
                            warp_id: w,
                            generation: 0,
                            rays: lanes.clone(),
                        },
                    );
                }
                Some(program) => {
                    // Shader mode: the raygen program runs on the SM's
                    // issue port first.
                    if program.raygen_ops == 0 {
                        queue_warp(
                            &mut sms[sm].warp_queue,
                            PendingWarp {
                                ready_at: 0,
                                warp_id: w,
                                generation: 0,
                                rays: lanes.clone(),
                            },
                        );
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
            replay,
            node_lines,
            rays,
            sms,
            treelet_lines,
            owners: Owners::new(),
            remaining,
            warp_lanes,
            generations,
            lanes_total,
            rt_entries: 0,
            rt_live_lanes: 0,
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
            queue_warp(
                &mut self.sms[sm].warp_queue,
                PendingWarp {
                    ready_at: now,
                    warp_id: job.warp_id,
                    generation: job.next_generation,
                    rays,
                },
            );
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
            queue_warp(
                &mut self.sms[sm].warp_queue,
                PendingWarp {
                    ready_at: self.mem.cycle(),
                    warp_id,
                    generation: next,
                    rays: next_rays,
                },
            );
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
            self.occupancy_integral += self.occupied_slots() as u64;
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
        if self.sms.iter().any(|s| !s.ready_list.is_empty()) || !self.mem.can_skip_idle() {
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
        for s in &self.sms {
            if r <= now {
                return;
            }
            let Some(unit) = &s.unit else {
                continue;
            };
            let per_warp = s.slots.iter().flatten().map(|slot| &slot.counts);
            if let Some(t) = unit.next_decision_event(
                now,
                s.active_rays as u32,
                &s.counts_global,
                per_warp,
                &self.treelet_lines,
            ) {
                r = r.min(t);
            }
        }
        // Watchdog: `last_progress` advances at every observed cycle with
        // scheduled future work, so cap the skip such that the deadline
        // observation is never jumped over.
        let window = self.config.progress_window;
        let any_tests = self.sms.iter().any(|s| !s.test_heap.is_empty());
        if !any_tests {
            let max_warp_ready = self.latest_warp_ready(now);
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
        for s in &mut self.sms {
            if let Some(unit) = &mut s.unit {
                let per_warp = s.slots.iter().flatten().map(|slot| &slot.counts);
                unit.skip_decisions(
                    now,
                    r,
                    s.active_rays as u32,
                    &s.counts_global,
                    per_warp,
                    &self.treelet_lines,
                );
            }
        }
        self.occupancy_integral += self.occupied_slots() as u64 * (r - now);
        if any_tests {
            // Tests pend throughout the skip (they would execute at or
            // before the resume entry cycle): every skipped observation
            // counts as scheduled work.
            self.last_progress = self.last_progress.max(r);
        } else if let Some(m) = self.latest_warp_ready(now) {
            // Warp arrivals pend until cycle m: observed cycles up to
            // m - 1 still count as scheduled work.
            self.last_progress = self.last_progress.max(r.min(m - 1));
        }
    }

    /// Currently occupied warp-buffer slots (all SMs).
    fn occupied_slots(&self) -> usize {
        self.sms.iter().map(|s| s.occupied).sum()
    }

    /// `true` when some SM holds time-scheduled future work: a pending
    /// warp whose raygen stagger has not elapsed, or an operation-unit
    /// test still counting down. Such cycles are legitimately idle (the
    /// `raygen_interval` knob can park a warp arbitrarily long), so the
    /// watchdog must not treat them as a stall.
    fn scheduled_work_pending(&self, now: u64) -> bool {
        self.sms.iter().any(|s| {
            !s.test_heap.is_empty() || s.warp_queue.back().is_some_and(|w| w.ready_at > now)
        })
    }

    /// The latest `ready_at` after `now` of any queued warp: each queue
    /// is sorted, so its back is its latest.
    fn latest_warp_ready(&self, now: u64) -> Option<u64> {
        self.sms
            .iter()
            .filter_map(|s| s.warp_queue.back().map(|w| w.ready_at))
            .filter(|&t| t > now)
            .max()
    }

    /// Captures the diagnostic state the watchdog errors report.
    fn snapshot(&self, now: u64) -> ProgressSnapshot {
        let mut ids = self.mem.outstanding_request_ids();
        ids.truncate(8);
        ProgressSnapshot {
            cycle: now,
            rays_remaining: self.remaining,
            warp_buffer_occupancy: self.sms.iter().map(|s| s.occupied).collect(),
            outstanding_requests: self.mem.outstanding_requests(),
            outstanding_request_ids: ids,
            l2_queue_depth: self.mem.l2_queue_depth(),
            dram_in_flight: self.mem.dram().in_flight(),
            prefetch_queue_depths: self
                .sms
                .iter()
                .map(|s| s.unit.as_ref().map_or(0, PrefetcherUnit::queue_len))
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
            warp_buffer_occupancy: self.occupied_slots(),
            warp_queue_depth: self.sms.iter().map(|s| s.warp_queue.len()).sum(),
            test_heap_depth: self.sms.iter().map(|s| s.test_heap.len()).sum(),
            prefetch_queue_depth: self
                .sms
                .iter()
                .map(|s| s.unit.as_ref().map_or(0, PrefetcherUnit::queue_len))
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
        // The next warp enters only after its raygen shader issued, and
        // only into a free slot.
        let front_ready =
            |state: &SmState| state.warp_queue.front().is_some_and(|w| w.ready_at <= now);
        if !front_ready(state) || state.occupied == state.slots.len() {
            return;
        }
        for slot_idx in 0..state.slots.len() {
            if state.slots[slot_idx].is_some() {
                continue;
            }
            if !front_ready(state) {
                break;
            }
            let Some(pending) = state.warp_queue.pop_front() else {
                break;
            };
            state.stall = None;
            self.progress = true;
            let lanes = pending.rays.len();
            let mut slot = WarpSlot {
                arrival: now,
                rays: pending.rays,
                active: 0,
                ready: VecDeque::with_capacity(lanes),
                counts: CountVec::with_capacity(4),
                warp_id: pending.warp_id,
                generation: pending.generation,
            };
            let key = &mut state.keys[slot_idx];
            *key = SlotKey {
                arrival: now,
                matching: 0,
            };
            for lane in 0..lanes {
                let r = slot.rays[lane];
                let ray = &mut self.rays[r as usize];
                ray.slot = index(slot_idx);
                if ray.is_done() {
                    continue;
                }
                slot.active += 1;
                state.active_rays += 1;
                slot.ready.push_back(r);
                if let Some(t) = ray.current_treelet(&self.replay) {
                    slot.count_ray(
                        &mut key.matching,
                        &mut state.counts_global,
                        state.match_treelet,
                        t,
                    );
                }
            }
            if slot.active > 0 {
                self.rt_entries += 1;
                self.rt_live_lanes += slot.active as u64;
                state.occupied += 1;
                // Every active lane entered the ready queue.
                state.ready_list.push(slot_idx);
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
            let Some(owner) = self.owners.remove(req, sm) else {
                continue;
            };
            match owner {
                ReqOwner::Ray(r) => {
                    let ray = &mut self.rays[r as usize];
                    ray.outstanding -= 1;
                    // The last line of a step arrived: its test starts.
                    let issued = ray.outstanding == 0
                        && ray.pending_lines(&self.replay, &self.node_lines) == 0;
                    if let Some(s) = ray.current_step().filter(|_| issued) {
                        let latency = if self.node_lines.is_leaf(self.replay.steps[s].node) {
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
        let old_treelet = ray.current_treelet(&self.replay);
        ray.step += 1;
        let state = &mut self.sms[sm];
        state.stall = None;
        let slot_idx = ray.slot as usize;
        let slot = state.slots[slot_idx]
            .as_mut()
            .expect("ray's warp slot must be occupied");
        let matching = &mut state.keys[slot_idx].matching;
        if ray.is_done() {
            if let Some(t) = old_treelet {
                slot.uncount_ray(matching, &mut state.counts_global, state.match_treelet, t);
            }
            slot.active -= 1;
            state.active_rays -= 1;
            self.remaining -= 1;
            if slot.active == 0 {
                debug_assert!(
                    slot.ready.is_empty(),
                    "a warp with no active ray has a ready one"
                );
                let (warp_id, generation) = (slot.warp_id, slot.generation);
                state.slots[slot_idx] = None; // warp cleared from the buffer
                state.occupied -= 1;
                self.warp_generation_done(sm, warp_id, generation);
            }
        } else {
            let new_treelet = ray.current_treelet(&self.replay);
            if old_treelet != new_treelet {
                if let Some(t) = old_treelet {
                    slot.uncount_ray(matching, &mut state.counts_global, state.match_treelet, t);
                }
                if let Some(t) = new_treelet {
                    slot.count_ray(matching, &mut state.counts_global, state.match_treelet, t);
                }
            }
            ray.next_line = 0;
            if slot.ready.is_empty() {
                state.ready_list.push(slot_idx);
            }
            slot.ready.push_back(r);
        }
    }

    /// Picks a warp per the scheduling policy and issues one line.
    /// Returns `true` if the memory scheduler was busy with demand work.
    fn schedule_demand(&mut self, sm: usize) -> bool {
        let target = self.sms[sm]
            .unit
            .as_ref()
            .and_then(|u| u.last_prefetched_treelet());
        // A stalled scheduler would retry the same line: count the
        // rejection without selecting a warp or probing the L1.
        if let Some(stall) = self.sms[sm].stall {
            if stall.fills == self.mem.l1_fills(sm) && stall.target == target {
                debug_assert_eq!(
                    self.select_warp(sm, target)
                        .map(|slot_idx| self.front_line(sm, slot_idx)),
                    Some(stall.line),
                    "a repeated retry must refuse the line the scheduler picks"
                );
                self.mem.repeat_retry(sm, stall.line);
                return false;
            }
        }
        let Some(slot_idx) = self.select_warp(sm, target) else {
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
            let (node, count) = ray
                .current_lines(&self.replay, &self.node_lines)
                .expect("a ready ray has a step left");
            let line = self.node_lines.line(node, ray.next_line);
            let last = ray.next_line + 1 == count;
            let kind = line_kind(ray.next_line);
            let issue = self.mem.access(sm, line, FillOrigin::Demand, kind);
            match issue {
                Issue::Hit(req) | Issue::Pending(req) => {
                    issued += 1;
                    ray.outstanding += 1;
                    ray.next_line += 1;
                    self.owners.insert(req, sm, ReqOwner::Ray(r));
                    if let Some(unit) = state.unit.as_mut() {
                        // Each unit filters the stream itself: MTA takes
                        // every demand load, the GHB only misses.
                        unit.observe_demand(
                            slot_idx as u32,
                            line,
                            matches!(issue, Issue::Pending(_)),
                        );
                    }
                    if last {
                        slot.ready.pop_front();
                        if slot.ready.is_empty() {
                            SmState::unlist_ready(&mut state.ready_list, slot_idx);
                        }
                    }
                }
                Issue::Retry => {
                    // L1 MSHRs exhausted: stall the scheduler.
                    state.stall = Some(Stall {
                        fills: self.mem.l1_fills(sm),
                        target,
                        line,
                    });
                    break;
                }
                Issue::PrefetchDropped => unreachable!("demand loads are never dropped"),
            }
        }
        issued > 0
    }

    /// The line the front ready ray of warp slot `slot_idx` issues next.
    fn front_line(&self, sm: usize, slot_idx: usize) -> u64 {
        let slot = self.sms[sm].slots[slot_idx]
            .as_ref()
            .expect("candidate slot occupied");
        let ray = &self.rays[*slot.ready.front().expect("candidate has a ready ray") as usize];
        let (node, _) = ray
            .current_lines(&self.replay, &self.node_lines)
            .expect("a ready ray has a step left");
        self.node_lines.line(node, ray.next_line)
    }

    /// The warp slot the SM's scheduling policy issues from next, or
    /// `None` when no slot has a ready ray. `target` is the unit's
    /// last-prefetched treelet; without one the policy is Baseline.
    ///
    /// Only the slots in `ready_list` are candidates, ordered by their
    /// `keys`, and the slot index breaks ties: the pick is the one an
    /// in-order scan of every slot makes (`min_by_key` keeps the first
    /// minimum, `max_by_key` the last maximum), which debug builds check.
    fn select_warp(&mut self, sm: usize, target: Option<u32>) -> Option<usize> {
        let state = &mut self.sms[sm];
        let policy = match target {
            None => SchedulerPolicy::Baseline,
            Some(_) => self.config.scheduler,
        };
        if policy != SchedulerPolicy::Baseline {
            state.retarget_matches(target);
        }
        let keys = &state.keys;
        let candidates = state.ready_list.iter().map(|&i| (i, keys[i]));
        let pick = match policy {
            SchedulerPolicy::Baseline => candidates.min_by_key(|&(i, k)| (k.arrival, i)),
            // Oldest matching warp, else the oldest warp.
            SchedulerPolicy::OldestMatchingRay => {
                candidates.min_by_key(|&(i, k)| (k.matching == 0, k.arrival, i))
            }
            SchedulerPolicy::PrioritizeMostRays => {
                candidates.max_by_key(|&(i, k)| (k.matching, Reverse(k.arrival), i))
            }
        }
        .map(|(i, _)| i);
        debug_assert_eq!(
            pick,
            scan_select(&state.slots, policy, target),
            "ready list or scheduler keys out of date"
        );
        pick
    }

    fn run_prefetcher(&mut self, sm: usize, now: u64, issued_demand: bool) {
        // Let the unit decide (the treelet voter samples and votes here,
        // §4.1), then drain one queued entry when the memory scheduler is
        // idle.
        let state = &mut self.sms[sm];
        let Some(unit) = state.unit.as_mut() else {
            return;
        };
        let per_warp = state.slots.iter().flatten().map(|slot| &slot.counts);
        unit.decide(
            now,
            state.active_rays as u32,
            &state.counts_global,
            per_warp,
            &self.treelet_lines,
        );
        if issued_demand {
            return;
        }
        let Some(entry) = unit.pop_entry() else {
            return;
        };
        match entry {
            PrefetchEntry::Line(addr) => match self.config.prefetch_destination {
                crate::PrefetchDestination::L1 => {
                    let issue =
                        self.mem
                            .access(sm, addr, FillOrigin::Prefetch, AccessKind::Prefetch);
                    if let Some(req) = issue.request_id() {
                        self.owners.insert(req, sm, ReqOwner::PrefetchLine);
                    }
                }
                crate::PrefetchDestination::L2 => {
                    self.mem.prefetch_l2(addr);
                }
            },
            PrefetchEntry::Meta { addr, gated_lines } => {
                match self
                    .mem
                    .access(sm, addr, FillOrigin::Prefetch, AccessKind::Meta)
                {
                    Issue::Pending(req) | Issue::Hit(req) => {
                        self.owners
                            .insert(req, sm, ReqOwner::PrefetchMeta(gated_lines));
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
        self.encode_dynamic_into(&mut w);
        w.into_bytes()
    }

    /// Writes [`Engine::encode_dynamic`]'s bytes to `w`.
    fn encode_dynamic_into(&self, w: &mut ByteWriter) {
        w.put_usize(self.remaining);
        w.put_u64(self.rt_entries);
        w.put_u64(self.rt_live_lanes);
        w.put_usize(self.occupied_slots());
        w.put_u64(self.occupancy_integral);
        w.put_u64(self.last_progress);
        w.put_len(self.rays.len());
        for ray in &self.rays {
            w.put_u64(ray.step.into());
            // The cursor encodes as the not-yet-issued suffix in reverse,
            // byte-identical to the pop-from-back scratch list it replaced.
            w.put_len(ray.pending_lines(&self.replay, &self.node_lines) as usize);
            if let Some((node, count)) = ray.current_lines(&self.replay, &self.node_lines) {
                for i in (ray.next_line..count).rev() {
                    w.put_u64(self.node_lines.line(node, i));
                    w.put_u8(line_kind(i).tag());
                }
            }
            w.put_u32(ray.outstanding);
            // A never-admitted ray's slot encodes as `u64::MAX`, the
            // checkpoint format's sentinel.
            w.put_u64(match ray.slot {
                NO_SLOT => u64::MAX,
                slot => slot.into(),
            });
        }
        w.put_len(self.sms.len());
        for (i, sm) in self.sms.iter().enumerate() {
            encode_sm_state(sm, |w| self.owners.encode_sm(i, w), w);
        }
        self.mem.encode_state(w);
    }

    /// FNV-1a digest of [`Engine::encode_dynamic`]'s bytes, hashed as
    /// they are written instead of kept.
    fn state_digest(&self) -> u64 {
        let mut w = ByteWriter::hashing();
        self.encode_dynamic_into(&mut w);
        w.digest()
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
        let occupied_slots = r.take_usize()?;
        self.occupancy_integral = r.take_u64()?;
        self.last_progress = r.take_u64()?;
        let n = r.take_len(1)?;
        if n != self.rays.len() {
            return Err(DecodeError::malformed(format!(
                "checkpoint holds {n} rays, this run traces {}",
                self.rays.len()
            )));
        }
        let slots = self.config.warp_buffer_size;
        for ray in &mut self.rays {
            let step = r.take_u64()?;
            ray.step = match u32::try_from(step) {
                Ok(step) if step <= ray.len => step,
                _ => {
                    return Err(DecodeError::malformed(format!(
                        "ray step {step} past the end of its {}-step trace",
                        ray.len
                    )))
                }
            };
            let k = r.take_len(9)?;
            let (node, count) = ray
                .current_lines(&self.replay, &self.node_lines)
                .unwrap_or((0, 0));
            if k > count as usize {
                return Err(DecodeError::malformed(format!(
                    "ray has {k} pending lines, its current step holds {count}"
                )));
            }
            ray.next_line = count - index(k);
            // The payload lists the pending suffix back-to-front; each
            // entry must match the lines rebuilt from the same inputs.
            for i in (ray.next_line..count).rev() {
                let line = r.take_u64()?;
                let kind = AccessKind::from_tag(r.take_u8()?)?;
                if (line, kind) != (self.node_lines.line(node, i), line_kind(i)) {
                    return Err(DecodeError::malformed(format!(
                        "pending line {line:#x} disagrees with the rebuilt trace"
                    )));
                }
            }
            ray.outstanding = r.take_u32()?;
            ray.slot = match r.take_u64()? {
                u64::MAX => NO_SLOT,
                slot if slot < slots as u64 => index(slot as usize),
                slot => {
                    return Err(DecodeError::malformed(format!(
                        "ray slot {slot} out of range ({slots} warp-buffer slots)"
                    )))
                }
            };
        }
        let n = r.take_len(1)?;
        if n != self.sms.len() {
            return Err(DecodeError::malformed(format!(
                "checkpoint holds {n} SMs, this run has {}",
                self.sms.len()
            )));
        }
        let num_rays = self.rays.len();
        let mut owners = Vec::new();
        for (i, sm) in self.sms.iter_mut().enumerate() {
            for (req, owner) in restore_sm_state(sm, &mut r, num_rays)? {
                owners.push((req, i, owner));
            }
        }
        self.owners = Owners::restore(owners)?;
        if occupied_slots != self.occupied_slots() {
            return Err(DecodeError::malformed(format!(
                "checkpoint counts {occupied_slots} occupied warp-buffer slots, its slots hold {}",
                self.occupied_slots()
            )));
        }
        self.mem = MemorySystem::decode_state(&mut r, self.config.mem, self.config.num_sms)?;
        r.expect_end()?;
        Ok(())
    }
}

/// Serializes one SM's dynamic state (see [`Engine::encode_dynamic`] for
/// the ordering rules); `encode_owners` writes its request owners.
fn encode_sm_state(sm: &SmState, encode_owners: impl FnOnce(&mut ByteWriter), w: &mut ByteWriter) {
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
    encode_owners(w);
    encode_counts(&sm.counts_global, w);
    // One presence flag per prefetcher kind, the configured unit's state
    // after its own flag.
    for kind in 0..PrefetcherUnit::KINDS.len() {
        match sm.unit.as_ref().filter(|u| u.kind() == kind) {
            Some(unit) => {
                w.put_bool(true);
                unit.encode_state(w);
            }
            None => w.put_bool(false),
        }
    }
    w.put_usize(sm.active_rays);
}

/// Restores one SM's dynamic state in place, returning its request
/// owners for the engine's table.
fn restore_sm_state(
    sm: &mut SmState,
    r: &mut ByteReader<'_>,
    num_rays: usize,
) -> Result<Vec<(RequestId, ReqOwner)>, DecodeError> {
    let n = r.take_len(20)?;
    sm.warp_queue = VecDeque::with_capacity(n);
    for _ in 0..n {
        let ready_at = r.take_u64()?;
        if sm.warp_queue.back().is_some_and(|w| w.ready_at > ready_at) {
            return Err(DecodeError::malformed(format!(
                "warp queue goes back to ready_at {ready_at}"
            )));
        }
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
    let mut owners = Vec::with_capacity(n);
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
        owners.push((req, owner));
    }
    sm.counts_global = decode_counts(r)?;
    restore_unit_state(&mut sm.unit, r)?;
    sm.active_rays = r.take_usize()?;
    sm.stall = None;
    // Every restored key's `matching` is 0: no treelet yet.
    sm.recount_slots();
    Ok(owners)
}

/// `select_warp`'s pick by an in-order scan of every slot, counting each
/// slot's rays in treelet `target` afresh: the reference its ready list
/// and scheduler keys are checked against.
fn scan_select(
    slots: &[Option<WarpSlot>],
    policy: SchedulerPolicy,
    target: Option<u32>,
) -> Option<usize> {
    let candidates = slots
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.as_ref().map(|s| (i, s)))
        .filter(|(_, s)| !s.ready.is_empty())
        .map(|(i, s)| (i, s.arrival, target.map_or(0, |t| s.counts.get(t))));
    match policy {
        SchedulerPolicy::Baseline => candidates.min_by_key(|&(_, arrival, _)| arrival),
        SchedulerPolicy::OldestMatchingRay => {
            candidates.min_by_key(|&(_, arrival, matching)| (matching == 0, arrival))
        }
        SchedulerPolicy::PrioritizeMostRays => {
            candidates.max_by_key(|&(_, arrival, matching)| (matching, Reverse(arrival)))
        }
    }
    .map(|(i, _, _)| i)
}

/// Reads the prefetcher presence flags and, for the configured unit, its
/// state — rejecting checkpoints whose flags disagree with the
/// configuration the engine was rebuilt from. The flag layout mirrors
/// [`encode_sm_state`]: one flag per kind (treelet, MTA, GHB).
fn restore_unit_state(
    unit: &mut Option<PrefetcherUnit>,
    r: &mut ByteReader<'_>,
) -> Result<(), DecodeError> {
    let configured = unit.as_ref().map(PrefetcherUnit::kind);
    for (kind, name) in PrefetcherUnit::KINDS.iter().enumerate() {
        let present = r.take_bool()?;
        if present != (configured == Some(kind)) {
            return Err(DecodeError::malformed(format!(
                "checkpoint {} a {name}, the configuration {}",
                if present { "carries" } else { "lacks" },
                if present { "has none" } else { "expects one" },
            )));
        }
        if let Some(unit) = unit.as_mut().filter(|_| present) {
            unit.restore_state(r)?;
        }
    }
    Ok(())
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
    use crate::config::{PrefetchConfig, SimConfig};
    use crate::prefetch::MappingMode;
    use crate::session::SimSession;
    use crate::telemetry::TelemetryOptions;
    use crate::traversal::{compile_trace, trace_ray_with};
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
        let mut telemetry = Telemetry::new(&TelemetryOptions::new(64));
        let sampled = SimSession::borrowed(&bvh, &rays, &config)
            .telemetry(&mut telemetry)
            .run()
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
        let mut telemetry = Telemetry::new(&TelemetryOptions::new(0));
        let err = SimSession::borrowed(&bvh, &rays, &SimConfig::paper_baseline())
            .telemetry(&mut telemetry)
            .run()
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
    fn replay_matches_compile_trace_for_every_ray() {
        // Each replay step's node, looked up in the per-node line table,
        // must list exactly what `compile_trace` lists, step by step,
        // under every memory image; the triangle-prefetch extension
        // changes only the prefetched treelet lines, never a ray's own.
        let (bvh, rays) = fixture();
        let layouts = [
            LayoutChoice::DepthFirst,
            LayoutChoice::TreeletPacked { extra_stride: 0 },
            LayoutChoice::MappingTable,
        ];
        for layout in layouts {
            for prefetch_triangles in [false, true] {
                let mut config = SimConfig::paper_treelet_prefetch();
                config.layout = layout;
                config.prefetch_triangles = prefetch_triangles;
                let treelets = TreeletAssignment::form(&bvh, config.treelet_bytes);
                let image = memory_image(&bvh, &config, &treelets);
                let replay = Replay::compile(&bvh, &rays, &config, &treelets);
                let table = NodeLines::new(&bvh, &image, config.mem.line_bytes);
                assert_eq!(replay.rays(), rays.len());
                let mut steps = 0;
                let mut leaf_with_triangle_lines = false;
                for (r, ray) in rays.iter().enumerate() {
                    let trace = trace_ray_with(
                        &bvh,
                        &treelets,
                        ray,
                        config.traversal,
                        config.traversal_options,
                    );
                    let expected = compile_trace(&trace, &image, config.mem.line_bytes);
                    let (first, len) = replay.ray_steps(r);
                    assert_eq!(len as usize, expected.len(), "{layout:?} ray {r} steps");
                    for (i, step) in expected.iter().enumerate() {
                        let s = replay.steps[first as usize + i];
                        assert_eq!(s.node, step.node, "{layout:?} ray {r} step {i}");
                        let lines: Vec<u64> = (0..table.count(s.node))
                            .map(|i| table.line(s.node, i))
                            .collect();
                        assert_eq!(lines, step.lines, "{layout:?} ray {r} step {i}");
                        assert_eq!(table.is_leaf(s.node), step.is_leaf);
                        leaf_with_triangle_lines |= step.is_leaf && lines.len() > 1;
                        // Entering a treelet votes for it; inside one, the
                        // vote is the next different treelet on the trace.
                        let entering = i == 0 || expected[i - 1].treelet != step.treelet;
                        let vote = if entering {
                            step.treelet
                        } else {
                            expected[i + 1..]
                                .iter()
                                .map(|t| t.treelet)
                                .find(|&t| t != step.treelet)
                                .unwrap_or(step.treelet)
                        };
                        assert_eq!(s.vote, vote, "{layout:?} ray {r} step {i} vote");
                    }
                    steps += expected.len();
                }
                assert!(steps > 0);
                assert!(leaf_with_triangle_lines, "no leaf step with triangle lines");
                assert_eq!(replay.steps.len(), steps);
            }
        }
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
    fn in_engine_bounces_run_on_warm_caches() {
        // A bounce generation traced inside the run finds the lines its
        // primary generation left in the L2, so it moves fewer lines from
        // DRAM than the same two generations run cold one after another.
        let (bvh, rays) = fixture();
        let program = crate::ShaderProgram {
            raygen_ops: 0,
            shade_ops: 0,
            bounces: 1,
            bounce_kind: crate::BounceKind::Diffuse,
            seed: 0xaf,
        };
        let mut config = SimConfig::paper_baseline();
        config.shader = Some(program);
        let warm = SimSession::borrowed(&bvh, &rays, &config).run().unwrap();
        let cold = SimConfig::paper_baseline();
        let primary = SimSession::borrowed(&bvh, &rays, &cold).run().unwrap();
        // Generation g is seeded with `seed + g`.
        let bounced = crate::bounce_rays(&bvh, &rays, program.bounce_kind, program.seed + 1);
        assert!(!bounced.is_empty());
        let bounce = SimSession::borrowed(&bvh, &bounced, &cold).run().unwrap();
        assert_eq!(
            warm.l1.demand_accesses(),
            primary.l1.demand_accesses() + bounce.l1.demand_accesses(),
            "the run traces the same two generations"
        );
        assert!(
            warm.dram_to_l2_lines < primary.dram_to_l2_lines + bounce.dram_to_l2_lines,
            "warm {} vs cold {} + {}",
            warm.dram_to_l2_lines,
            primary.dram_to_l2_lines,
            bounce.dram_to_l2_lines
        );
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
        // zero-SM assert inside MemorySystem::new fires first. The same
        // holds for every memory size, stride and clock the model divides
        // by or sizes a structure with.
        use crate::ConfigError;
        let (bvh, rays) = fixture();
        let refused = |config: &SimConfig, want: &ConfigError| {
            let result = SimSession::borrowed(&bvh, &rays, config).run();
            match result {
                Err(SimError::Config(found)) => assert_eq!(&found, want),
                other => panic!("expected {want:?}, got {:?}", other.map(|_| ())),
            }
        };
        let mut config = SimConfig::paper_baseline();
        config.num_sms = 0;
        refused(&config, &ConfigError::ZeroSizedStructure);
        type Zero = fn(&mut SimConfig);
        let zeros: [(&str, Zero); 13] = [
            ("mem.line_bytes", |c| c.mem.line_bytes = 0),
            ("mem.l1_lines", |c| c.mem.l1_lines = 0),
            ("mem.l1_mshrs", |c| c.mem.l1_mshrs = 0),
            ("mem.l2_lines", |c| c.mem.l2_lines = 0),
            ("mem.l2_sets", |c| c.mem.l2_sets = 0),
            ("mem.l2_mshrs", |c| c.mem.l2_mshrs = 0),
            ("mem.l2_partitions", |c| c.mem.l2_partitions = 0),
            ("mem.l2_partition_stride", |c| c.mem.l2_partition_stride = 0),
            ("mem.core_clock_mhz", |c| c.mem.core_clock_mhz = 0),
            ("mem.mem_clock_mhz", |c| c.mem.mem_clock_mhz = 0),
            ("mem.dram.channels", |c| c.mem.dram.channels = 0),
            ("mem.dram.partition_stride", |c| {
                c.mem.dram.partition_stride = 0
            }),
            ("mem.dram.burst_cycles", |c| c.mem.dram.burst_cycles = 0),
        ];
        for (field, zero) in zeros {
            let mut config = SimConfig::paper_baseline();
            zero(&mut config);
            refused(&config, &ConfigError::ZeroMemoryParameter { field });
        }
        let mut config = SimConfig::paper_baseline();
        config.mem.l2_sets = config.mem.l2_lines as u64 / 2 + 1;
        refused(
            &config,
            &ConfigError::UnevenL2Sets {
                lines: config.mem.l2_lines,
                sets: config.mem.l2_sets,
            },
        );
    }

    #[test]
    fn empty_inputs_return_typed_errors() {
        let (bvh, _) = fixture();
        assert!(matches!(
            SimSession::borrowed(&bvh, &[], &SimConfig::paper_baseline()).run(),
            Err(SimError::EmptyInput { what: "ray" })
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
    fn determinism_across_entry_points() {
        // An owned and a borrowed config go down the same path: the
        // results — final state digest included — are identical, run to
        // run.
        let (bvh, rays) = fixture();
        let config = SimConfig::paper_treelet_prefetch();
        let borrowed_a = SimSession::borrowed(&bvh, &rays, &config).run().unwrap();
        let borrowed_b = SimSession::borrowed(&bvh, &rays, &config).run().unwrap();
        let owned = SimSession::new(&bvh, &rays, config.clone()).run().unwrap();
        assert_eq!(format!("{borrowed_a:?}"), format!("{borrowed_b:?}"));
        assert_eq!(format!("{owned:?}"), format!("{borrowed_a:?}"));
        assert_eq!(owned.state_digest, borrowed_a.state_digest);
    }

    #[test]
    fn interrupted_runs_resume_bit_identical_across_scenes() {
        // The acceptance matrix: ≥3 scenes, including the treelet-prefetch
        // configuration, plus fault-injection (RNG state), shader-mode
        // (bounce bookkeeping), mapping-table (Strict-Wait gated lines on
        // a depth-first image) and triangle-prefetch variants of it.
        // Restore rebuilds every pending line from the memory image.
        let mut faulty = SimConfig::paper_treelet_prefetch();
        faulty.mem.fault_injection = Some(rt_gpu_sim::FaultInjection::latency_storm(42));
        let mut shaded = SimConfig::paper_treelet_prefetch();
        shaded.shader = Some(crate::ShaderProgram::path_tracer());
        let strict = SimConfig::paper_treelet_prefetch().with_mapping_mode(MappingMode::StrictWait);
        assert_eq!(strict.layout, LayoutChoice::MappingTable);
        let mut triangles = SimConfig::paper_treelet_prefetch();
        triangles.prefetch_triangles = true;
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
            (SceneId::Car, strict, "car-prefetch-strict-wait"),
            (SceneId::Park, triangles, "park-prefetch-triangles"),
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
    fn l2_destination_prefetch_owners_survive_resume() {
        // L2-destination prefetches complete silently and record no
        // owner, so a checkpoint taken while they are in flight resumes
        // onto the uninterrupted run's final state.
        let scene = Scene::build_with_detail(SceneId::Wknd, 0.1);
        let rays = Workload::new(WorkloadKind::Primary, 16, 16).generate(&scene);
        let bvh = WideBvh::build(scene.mesh.into_triangles());
        let mut config = SimConfig::paper_treelet_prefetch();
        config.prefetch_destination = crate::PrefetchDestination::L2;
        let straight = SimSession::borrowed(&bvh, &rays, &config).run().unwrap();
        assert!(
            straight.prefetch_effect_l2.total() > 0,
            "no L2 prefetch issued"
        );
        let dir = ckpt_dir("l2-owners");
        let opts = CheckpointOptions::new((straight.cycles / 5).max(1), dir.join("l2.rtsnap"));
        let mut truncated = config.clone();
        truncated.max_cycles = straight.cycles * 2 / 3;
        match SimSession::borrowed(&bvh, &rays, &truncated)
            .checkpoint(opts.clone())
            .run()
        {
            Err(SimError::CycleLimitExceeded { .. }) => {}
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
        let ck = snapshot::read_checkpoint(&opts.path).unwrap();
        assert!(ck.cycle < straight.cycles && ck.rays_remaining > 0);
        let resumed = SimSession::borrowed(&bvh, &rays, &config)
            .checkpoint(opts.clone())
            .resume_from_checkpoint()
            .run()
            .unwrap();
        assert_eq!(resumed.state_digest, straight.state_digest);
        assert_eq!(format!("{resumed:?}"), format!("{straight:?}"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn owners_encode_each_sm_in_id_order() {
        let mut owners = Owners::new();
        owners.insert(3, 0, ReqOwner::Ray(7));
        owners.insert(4, 0, ReqOwner::PrefetchLine);
        owners.insert(5, 1, ReqOwner::PrefetchMeta(vec![0x40, 0x80]));
        owners.insert(8, 0, ReqOwner::Ray(11));
        assert!(matches!(owners.remove(3, 0), Some(ReqOwner::Ray(7))));
        let encode = |owners: &Owners, sm| {
            let mut w = ByteWriter::new();
            owners.encode_sm(sm, &mut w);
            w.into_bytes()
        };
        let mut want = ByteWriter::new();
        want.put_len(2);
        want.put_u64(4);
        want.put_u8(1);
        want.put_u64(8);
        want.put_u8(0);
        want.put_u32(11);
        assert_eq!(encode(&owners, 0), want.into_bytes());
        let mut want = ByteWriter::new();
        want.put_len(1);
        want.put_u64(5);
        want.put_u8(2);
        want.put_len(2);
        want.put_u64(0x40);
        want.put_u64(0x80);
        assert_eq!(encode(&owners, 1), want.into_bytes());
        // Restore takes every SM's entries in any order.
        let entries = vec![
            (8, 0, ReqOwner::Ray(11)),
            (5, 1, ReqOwner::PrefetchMeta(vec![0x40, 0x80])),
            (4, 0, ReqOwner::PrefetchLine),
        ];
        let back = Owners::restore(entries).unwrap();
        for sm in 0..2 {
            assert_eq!(encode(&back, sm), encode(&owners, sm));
        }
        // One request owned by two SMs is refused.
        let twice = vec![(5, 0, ReqOwner::Ray(1)), (5, 1, ReqOwner::Ray(2))];
        assert!(matches!(
            Owners::restore(twice),
            Err(DecodeError::Malformed { .. })
        ));
        // Owners 2^40 ids apart would pad the window with 2^40 slots:
        // refused before any insert.
        let far = vec![(3, 0, ReqOwner::Ray(1)), (1 << 40, 0, ReqOwner::Ray(2))];
        match Owners::restore(far) {
            Err(DecodeError::Malformed { what }) => assert!(what.contains("span"), "{what}"),
            other => panic!("expected a refused span, got {other:?}"),
        }
    }

    #[test]
    fn restore_refuses_ray_steps_and_slots_that_do_not_fit() {
        let (bvh, rays) = fixture();
        let config = SimConfig::paper_baseline();
        let treelets = TreeletAssignment::form(&bvh, config.treelet_bytes);
        let engine = || {
            let image = memory_image(&bvh, &config, &treelets);
            Engine::new(
                &config,
                Replay::compile(&bvh, &rays, &config, &treelets),
                NodeLines::new(&bvh, &image, config.mem.line_bytes),
                &treelets,
                TreeletLines::new(&bvh, &config, &treelets, &image),
                MemorySystem::new(config.mem, config.num_sms),
            )
        };
        let fresh = engine();
        let bytes = fresh.encode_dynamic();
        // Six header words and the ray count, then ray 0: its step, its
        // pending lines (9 bytes each), its outstanding count, its slot.
        let step_at = 7 * 8;
        let pending = fresh.rays[0].pending_lines(&fresh.replay, &fresh.node_lines) as usize;
        let slot_at = step_at + 16 + 9 * pending + 4;
        // A never-admitted ray's slot is the 64-bit sentinel, and it
        // round-trips.
        assert_eq!(bytes[slot_at..slot_at + 8], u64::MAX.to_le_bytes());
        let mut back = engine();
        back.restore_dynamic(&bytes)
            .expect("a fresh engine restores");
        assert_eq!(back.encode_dynamic(), bytes);
        let patched = |at: usize, value: u64| {
            let mut b = bytes.clone();
            b[at..at + 8].copy_from_slice(&value.to_le_bytes());
            engine().restore_dynamic(&b)
        };
        let slots = config.warp_buffer_size as u64;
        for (at, value, want) in [
            (slot_at, slots, "out of range"),
            (slot_at, u32::MAX.into(), "out of range"),
            (step_at, 1 << 32, "past the end"),
        ] {
            match patched(at, value) {
                Err(DecodeError::Malformed { what }) => assert!(what.contains(want), "{what}"),
                other => panic!("expected {want:?} for {value}, got {other:?}"),
            }
        }
        patched(slot_at, slots - 1).expect("the last slot fits");
    }

    #[test]
    fn restore_refuses_a_warp_queue_out_of_ready_order() {
        let config = SimConfig::paper_baseline();
        let queue = |ready: [u64; 2]| {
            let mut w = ByteWriter::new();
            w.put_len(2);
            for ready_at in ready {
                w.put_u64(ready_at);
                w.put_usize(0);
                w.put_u32(0);
                w.put_len(0);
            }
            w.into_bytes()
        };
        let restore = |bytes: &[u8]| {
            let mut sm = SmState::new(&config, 1, 2);
            restore_sm_state(&mut sm, &mut ByteReader::new(bytes), 64).map(|_| ())
        };
        match restore(&queue([10, 5])) {
            Err(DecodeError::Malformed { what }) => assert!(what.contains("warp queue"), "{what}"),
            other => panic!("expected a malformed queue, got {other:?}"),
        }
        // In order, the queue decodes and the truncated rest is refused.
        assert!(matches!(
            restore(&queue([5, 10])),
            Err(DecodeError::UnexpectedEof { .. })
        ));
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

    #[test]
    fn sm_state_codec_matrix_over_prefetcher_kinds() {
        // An SM of each configuration, its unit (if any) holding state.
        let sm_of = |prefetch: PrefetchConfig| {
            let config = SimConfig::paper_baseline().with_prefetcher(prefetch);
            let mut sm = SmState::new(&config, 4, 0);
            if let Some(unit) = sm.unit.as_mut() {
                for k in 0..4 {
                    unit.observe_demand(0, 128 * k, true);
                }
                unit.release_gated(vec![64, 192]);
            }
            sm
        };
        let encode = |sm: &SmState| {
            let mut w = ByteWriter::new();
            encode_sm_state(sm, |w| w.put_len(0), &mut w);
            w.into_bytes()
        };
        let kinds = [
            PrefetchConfig::none(),
            PrefetchConfig::treelet(),
            PrefetchConfig::mta(),
            PrefetchConfig::ghb(),
        ];
        for from in kinds {
            let source = sm_of(from);
            let bytes = encode(&source);
            for into in kinds {
                let mut target = sm_of(into);
                let mut r = ByteReader::new(&bytes);
                let restored = restore_sm_state(&mut target, &mut r, 1);
                let (have, want) = (
                    source.unit.as_ref().map(PrefetcherUnit::kind),
                    target.unit.as_ref().map(PrefetcherUnit::kind),
                );
                if have == want {
                    restored.expect("same-kind restore");
                    r.expect_end().expect("restore reads every byte");
                    assert_eq!(encode(&target), bytes, "{from:?} round trip");
                    continue;
                }
                // The first flag that differs names the refused kind.
                let message = match (have, want) {
                    (Some(h), w) if w.is_none_or(|w| h < w) => {
                        format!("checkpoint carries a {}", PrefetcherUnit::KINDS[h])
                    }
                    (_, w) => format!(
                        "checkpoint lacks a {}",
                        PrefetcherUnit::KINDS[w.expect("kinds differ")]
                    ),
                };
                let err = restored.expect_err("mismatched kinds are refused");
                assert!(
                    err.to_string().contains(&message),
                    "{from:?} into {into:?}: {err} (expected {message:?})"
                );
            }
        }
    }
}
