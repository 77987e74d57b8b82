//! The simulation pipeline timed layer by layer, and the per-layer
//! metrics derived from the spans.
//!
//! A traced cell calls each layer's public function in turn — treelet
//! formation, memory layout, ray tracing, trace compilation — and then
//! runs the same `SimSession` an untraced cell runs, handed the formed
//! treelets. The session repeats layout, tracing and compilation
//! internally, so the engine's own time is *derived*:
//! `sim.engine_ms = sim.run − (bvh.layout + traversal.trace +
//! traversal.compile)`. Timing from outside cannot see further in.

use crate::metrics::{Outcome, Values, END_TO_END, PER_LAYER};
use crate::trace::{self, Span, SpanId, Tracer};
use rt_bvh::{MemoryImage, PackOptions, WideBvh};
use rt_scene::{Scene, SceneId, Workload};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use treelet_rt::{
    compile_trace, decode_prepared_bench, encode_prepared_bench, geometric_mean, plan_schedule,
    prepare_cache_key, run_scheduled, trace_ray_with, write_atomic, Bench, BvhCache, LayoutChoice,
    SimConfig, SimError, SimResult, SimSession, TreeletAssignment,
};

/// Spans whose self time a layer accounts for. Whatever else a pass
/// spends — its own bookkeeping, gaps between calls inside a cell — is
/// the unexplained remainder `trace.explained_pct` exposes.
const LAYER_SPANS: [&str; 6] = [
    "treelet.form",
    "bvh.layout",
    "traversal.trace",
    "traversal.compile",
    "sim.run",
    "runner",
];

/// The registry's `&'static` name for `name`.
///
/// # Panics
///
/// Panics if `name` is not a declared metric — a bug in this crate.
pub fn metric(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|&(n, _)| n)
        .find(|&n| n == name)
        .unwrap_or_else(|| panic!("undeclared metric {name}"))
}

/// One (scene, config) cell of a pass.
#[derive(Debug, Clone, Copy)]
pub struct Cell<'a> {
    /// The prepared scene.
    pub bench: &'a Bench,
    /// The config's label, `baseline` or `prefetch`.
    pub label: &'static str,
    /// The config.
    pub config: &'a SimConfig,
}

impl Cell<'_> {
    /// The cell's golden-file key.
    pub fn key(&self) -> String {
        format!("{} {}", self.bench.scene().name(), self.label)
    }
}

/// The memory image `config` runs on: the choice the engine makes.
fn layout(bvh: &WideBvh, treelets: &TreeletAssignment, config: &SimConfig) -> MemoryImage {
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

/// Runs one cell with every layer in its own span under `parent`.
fn traced_cell(
    tracer: &Tracer,
    parent: SpanId,
    id: u32,
    cell: &Cell<'_>,
) -> Result<SimResult, SimError> {
    let span = tracer.open("cell", Some(parent), Some(id), 1);
    let (bvh, config) = (cell.bench.bvh(), cell.config);
    let at = Some(span);
    let out = (|| {
        let treelets = tracer.time("treelet.form", at, Some(id), || {
            TreeletAssignment::try_form_with_policy(bvh, config.treelet_bytes, config.formation)
        })?;
        let image = tracer.time("bvh.layout", at, Some(id), || {
            layout(bvh, &treelets, config)
        });
        let traces: Vec<_> = tracer.time("traversal.trace", at, Some(id), || {
            cell.bench
                .rays()
                .iter()
                .map(|r| {
                    trace_ray_with(
                        bvh,
                        &treelets,
                        r,
                        config.traversal,
                        config.traversal_options,
                    )
                })
                .collect()
        });
        let compiled: Vec<_> = tracer.time("traversal.compile", at, Some(id), || {
            traces
                .iter()
                .map(|t| compile_trace(t, &image, config.mem.line_bytes))
                .collect()
        });
        black_box(&compiled);
        drop((image, traces, compiled));
        tracer.time("sim.run", at, Some(id), || {
            SimSession::borrowed(bvh, cell.bench.rays(), config)
                .treelets(&treelets)
                .run()
        })
    })();
    tracer.close(span);
    out
}

/// What a traced pass returns.
#[derive(Debug)]
pub struct TracedPass {
    /// Per-cell results, in cell order.
    pub results: Vec<Result<SimResult, SimError>>,
    /// Wall time of the pass, seconds.
    pub wall_s: f64,
}

/// Runs `cells` once, traced, on the cost-model scheduler with at most
/// `jobs` workers: [`plan_schedule`] then [`run_scheduled`], the two
/// halves of the `run_weighted` call an untraced pass makes. Cell ids in
/// the spans are `pass × cells.len() + index`.
pub fn traced_pass(
    tracer: &Tracer,
    pass: usize,
    jobs: usize,
    cells: &[Cell<'_>],
    costs: &[u64],
) -> TracedPass {
    let start = std::time::Instant::now();
    let schedule = plan_schedule(jobs, costs);
    let width = schedule.workers() as u32;
    let root = tracer.open("pass", None, Some(pass as u32), width);
    let runner = tracer.open("runner", Some(root), None, width);
    let base = (pass * cells.len()) as u32;
    let results = run_scheduled(&schedule, |i| {
        traced_cell(tracer, runner, base + i as u32, &cells[i])
    });
    tracer.close(runner);
    tracer.close(root);
    TracedPass {
        results,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Re-runs every cell with idle-skip off (`sim.run_no_idle_skip`
/// spans) and checks each result is bit-identical to `expected`:
/// idle-skip may only trade host time.
pub fn no_idle_skip_probe(
    tracer: &Tracer,
    cells: &[Cell<'_>],
    expected: &[Result<SimResult, SimError>],
    outcome: &mut Outcome,
) {
    let root = tracer.open("probe", None, None, 1);
    for (i, (cell, want)) in cells.iter().zip(expected).enumerate() {
        let config = SimConfig {
            idle_skip: false,
            ..cell.config.clone()
        };
        let bvh = cell.bench.bvh();
        let got =
            TreeletAssignment::try_form_with_policy(bvh, config.treelet_bytes, config.formation)
                .map_err(SimError::from)
                .and_then(|treelets| {
                    tracer.time("sim.run_no_idle_skip", Some(root), Some(i as u32), || {
                        SimSession::borrowed(bvh, cell.bench.rays(), &config)
                            .treelets(&treelets)
                            .run()
                    })
                });
        let same = match (&got, want) {
            (Ok(a), Ok(b)) => (a.cycles, a.state_digest) == (b.cycles, b.state_digest),
            _ => false,
        };
        outcome.check(same, || {
            format!("{}: idle-skip off changed the result", cell.key())
        });
    }
    tracer.close(root);
}

/// Derives the front-end, engine, prefetcher, memory, runner and trace
/// metrics from the spans of `passes` traced passes (each followed by an
/// idle-skip probe pass) over `cells`, and the simulated counts from one
/// pass's `results`. Cells come config-major, so each label's cells are
/// adjacent.
pub fn derive(
    values: &mut Values,
    spans: &[Span],
    cells: &[Cell<'_>],
    results: &[Result<SimResult, SimError>],
    passes: usize,
) {
    let n = cells.len();
    if n == 0 {
        return;
    }
    let per_pass = passes.max(1) as f64;
    // (span name, config label) → summed milliseconds.
    let mut by_label: BTreeMap<(&str, &str), f64> = BTreeMap::new();
    for s in spans {
        if let Some(id) = s.cell.filter(|_| s.name.contains('.')) {
            let label = cells[id as usize % n].label;
            *by_label.entry((s.name, label)).or_insert(0.0) += s.duration_ns() as f64 / 1e6;
        }
    }
    let ms = |name: &str, label: &str| by_label.get(&(name, label)).copied().unwrap_or(0.0);
    let labels: Vec<&str> = {
        let mut l: Vec<&str> = cells.iter().map(|c| c.label).collect();
        l.dedup();
        l
    };
    for (metric_name, span) in [
        ("treelet.form_ms", "treelet.form"),
        ("bvh.layout_ms", "bvh.layout"),
        ("traversal.trace_ms", "traversal.trace"),
        ("traversal.compile_ms", "traversal.compile"),
    ] {
        let total: f64 = labels.iter().map(|l| ms(span, l)).sum();
        values.insert(metric(metric_name), total / per_pass);
    }

    let ok: Vec<(&Cell<'_>, &SimResult)> = cells
        .iter()
        .zip(results)
        .filter_map(|(c, r)| r.as_ref().ok().map(|r| (c, r)))
        .collect();
    for &label in &labels {
        let front = (ms("bvh.layout", label)
            + ms("traversal.trace", label)
            + ms("traversal.compile", label))
            / per_pass;
        let engine = ms("sim.run", label) / per_pass - front;
        let mine: Vec<&SimResult> = ok
            .iter()
            .filter(|(c, _)| c.label == label)
            .map(|(_, r)| *r)
            .collect();
        let cycles: u64 = mine.iter().map(|r| r.cycles).sum();
        let occupancy: f64 = mine
            .iter()
            .map(|r| r.warp_buffer_occupancy * r.cycles as f64)
            .sum::<f64>()
            / cycles.max(1) as f64;
        let set = |values: &mut Values, prefix: &str, v: f64| {
            values.insert(metric(&format!("{prefix}.{label}")), v);
        };
        set(values, "sim.engine_ms", engine);
        set(values, "sim.cycles", cycles as f64);
        set(
            values,
            "sim.engine_ns_per_cycle",
            engine * 1e6 / cycles.max(1) as f64,
        );
        set(values, "sim.warp_buffer_occupancy", occupancy);
        let no_skip = ms("sim.run_no_idle_skip", label);
        if no_skip > 0.0 {
            let engine_no_skip = no_skip / per_pass - front;
            set(values, "sim.engine_ms_no_idle_skip", engine_no_skip);
            set(values, "sim.idle_skip_speedup", engine_no_skip / engine);
        }
    }

    // The paper's GMean speedup, over scenes that ran both configs.
    let mut pairs: BTreeMap<SceneId, [u64; 2]> = BTreeMap::new();
    for (c, r) in &ok {
        let slot = match c.label {
            "baseline" => 0,
            "prefetch" => 1,
            _ => continue,
        };
        pairs.entry(c.bench.scene()).or_default()[slot] = r.cycles;
    }
    let ratios: Vec<f64> = pairs
        .values()
        .filter(|[b, p]| *b > 0 && *p > 0)
        .map(|[b, p]| *b as f64 / *p as f64)
        .collect();
    if !ratios.is_empty() {
        values.insert("sim.speedup_gmean", geometric_mean(&ratios));
    }

    let sum = |f: &dyn Fn(&SimResult) -> u64| ok.iter().map(|(_, r)| f(r)).sum::<u64>() as f64;
    let rays = sum(&|r| r.rays as u64);
    values.insert(
        "traversal.nodes_per_ray",
        ok.iter()
            .map(|(_, r)| r.traversal.avg_nodes_per_ray * r.rays as f64)
            .sum::<f64>()
            / rays.max(1.0),
    );
    values.insert("treelet.count", sum(&|r| r.treelet_count as u64));
    let pf = |f: &dyn Fn(&treelet_rt::PrefetcherStats) -> u64| {
        sum(&|r| r.prefetcher.as_ref().map_or(0, f))
    };
    values.insert("prefetch.decisions", pf(&|p| p.decisions));
    values.insert("prefetch.lines_enqueued", pf(&|p| p.lines_enqueued));
    values.insert("prefetch.queue_full_drops", pf(&|p| p.queue_full_drops));
    values.insert("prefetch.timely", sum(&|r| r.prefetch_effect.timely));
    values.insert("prefetch.early", sum(&|r| r.prefetch_effect.early));
    values.insert("prefetch.late", sum(&|r| r.prefetch_effect.late));
    values.insert("prefetch.too_late", sum(&|r| r.prefetch_effect.too_late));
    values.insert("prefetch.unused", sum(&|r| r.prefetch_effect.unused));
    values.insert("prefetch.classified", sum(&|r| r.prefetch_effect.total()));

    let l1_hits = sum(&|r| r.l1.demand_hits_on_prefetch + r.l1.demand_hits_on_demand);
    let l2_hits = sum(&|r| r.l2.demand_hits_on_prefetch + r.l2.demand_hits_on_demand);
    values.insert(
        "mem.l1_hit_rate",
        l1_hits / sum(&|r| r.l1.demand_accesses()).max(1.0),
    );
    values.insert(
        "mem.l2_hit_rate",
        l2_hits / sum(&|r| r.l2.demand_accesses()).max(1.0),
    );
    values.insert("mem.l1_demand_misses", sum(&|r| r.l1.demand_misses));
    values.insert("mem.l1_mshr_rejections", sum(&|r| r.l1.mshr_rejections));
    let all_cycles = sum(&|r| r.cycles);
    values.insert(
        "mem.dram_utilization",
        ok.iter()
            .map(|(_, r)| r.dram_utilization * r.cycles as f64)
            .sum::<f64>()
            / all_cycles.max(1.0),
    );
    let cells_ok = ok.len().max(1) as f64;
    values.insert(
        "mem.node_load_latency_mean",
        ok.iter().map(|(_, r)| r.node_load_latency).sum::<f64>() / cells_ok,
    );
    values.insert(
        "mem.node_load_latency_p99",
        ok.iter().map(|(_, r)| r.node_load_latency_p99).sum::<f64>() / cells_ok,
    );
    values.insert("mem.l2_to_l1_lines", sum(&|r| r.l2_to_l1_lines));
    values.insert("mem.dram_to_l2_lines", sum(&|r| r.dram_to_l2_lines));
}

/// Derives the runner and trace metrics from every traced pass's spans.
/// `untraced_walls` are the wall times of the untraced passes run
/// alongside, the base of `trace.overhead_pct`.
pub fn derive_trace(
    values: &mut Values,
    spans: &[Span],
    traced_walls: &[f64],
    untraced_walls: &[f64],
) {
    let selfs = trace::self_times(spans);
    let (mut explained, mut capacity, mut cell_ns, mut runner_ns, mut runner_self) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    for (s, self_ns) in spans.iter().zip(&selfs) {
        let thread_ns = f64::from(s.width) * s.duration_ns() as f64;
        match s.name {
            "pass" => capacity += thread_ns,
            "cell" => cell_ns += s.duration_ns() as f64,
            "runner" => {
                runner_ns += thread_ns;
                runner_self += self_ns;
            }
            _ => {}
        }
        if LAYER_SPANS.contains(&s.name) {
            explained += self_ns;
        }
    }
    let passes = traced_walls.len().max(1) as f64;
    if runner_ns > 0.0 {
        values.insert("runner.busy_ratio", cell_ns / runner_ns);
        values.insert("runner.self_ms", runner_self / 1e6 / passes);
    }
    if capacity > 0.0 {
        values.insert("trace.explained_pct", 100.0 * explained / capacity);
    }
    if !traced_walls.is_empty() && !untraced_walls.is_empty() {
        let traced = crate::stats::median(traced_walls);
        values.insert("trace.pass_ms", traced * 1e3);
        values.insert(
            "trace.overhead_pct",
            100.0 * (traced / crate::stats::median(untraced_walls) - 1.0),
        );
    }
}

/// Prepares every scene once more, serially and step by step, to time
/// the preparation layers: scene generation, ray generation and the BVH
/// build through their own calls; then a cold preparation into an empty
/// [`BvhCache`] under `dir`, the artifact's encode, atomic write and
/// decode, and a warm (cache-hit) preparation. The decoded artifact
/// must re-encode to the same bytes.
pub fn prepare_layers(
    tracer: &Tracer,
    detail: f32,
    workload: Workload,
    dir: &Path,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let root = tracer.open("setup", None, None, 1);
    let at = Some(root);
    let mut artifact_bytes = 0usize;
    let cache =
        BvhCache::open(dir.join("layers")).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::fs::create_dir_all(dir.join("artifacts")).map_err(|e| e.to_string())?;
    for (i, &id) in SceneId::ALL.iter().enumerate() {
        let cell = Some(i as u32);
        let scene = tracer
            .time("scene.build", at, cell, || {
                Scene::try_build_with_detail(id, detail)
            })
            .map_err(|e| format!("{id}: {e}"))?;
        let rays = tracer.time("scene.rays", at, cell, || workload.generate(&scene));
        let bvh = tracer.time("bvh.build", at, cell, || {
            WideBvh::build(scene.mesh.into_triangles())
        });
        black_box((rays, bvh));

        let bench = tracer
            .time("prepare.cold", at, cell, || {
                Bench::try_prepare_cached(id, detail, workload, Some(&cache))
            })
            .map_err(|e| format!("{id}: {e}"))?;
        let key = prepare_cache_key(id, detail, &workload);
        let bytes = tracer.time("bvh.encode", at, cell, || {
            encode_prepared_bench(&bench, key)
        });
        artifact_bytes += bytes.len();
        let path = dir.join("artifacts").join(format!("{key:016x}.rtbvh"));
        tracer
            .time("prepare.cache_store", at, cell, || {
                write_atomic(&path, &bytes)
            })
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let decoded = tracer.time("bvh.decode", at, cell, || {
            decode_prepared_bench(id, key, &bytes)
        });
        let same = decoded.is_ok_and(|(d, _)| encode_prepared_bench(&d, key) == bytes);
        outcome.check(same, || format!("{id}: the artifact does not round-trip"));
        let warm = tracer.time("prepare.cache_load", at, cell, || {
            Bench::try_prepare_cached(id, detail, workload, Some(&cache))
        });
        let same = warm.is_ok_and(|w| encode_prepared_bench(&w, key) == bytes);
        outcome.check(same, || {
            format!("{id}: the cache-warm bench differs from the cold one")
        });
    }
    tracer.close(root);
    let values = &mut outcome.values;
    let totals = trace::total_ms_by_name(&tracer.spans());
    for (metric_name, span) in [
        ("scene.build_ms", "scene.build"),
        ("scene.rays_ms", "scene.rays"),
        ("bvh.build_ms", "bvh.build"),
        ("bvh.encode_ms", "bvh.encode"),
        ("bvh.decode_ms", "bvh.decode"),
        ("prepare.cache_store_ms", "prepare.cache_store"),
        ("prepare.cache_load_ms", "prepare.cache_load"),
    ] {
        values.insert(
            metric(metric_name),
            totals.get(span).copied().unwrap_or(0.0),
        );
    }
    values.insert("bvh.artifact_bytes", artifact_bytes as f64);
    values.insert("prepare.cache_hits", cache.hits() as f64);
    values.insert("prepare.cache_misses", cache.misses() as f64);
    Ok(())
}
