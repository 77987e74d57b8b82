//! The simulator workloads: all sixteen scenes at detail 1.0, crossed
//! with one or two configs, prepared and run through the calls the CLI
//! `sweep` makes (`run_weighted` over `Bench::try_prepare_cached`, then
//! `run_weighted` over `Bench::try_run`), each cell timed.

use crate::golden::{self, CellDigest};
use crate::host;
use crate::layers::{self, Cell};
use crate::metrics::Outcome;
use crate::reference::{run_weighted_timed, Reference, Timed};
use crate::stats;
use crate::trace::Tracer;
use rt_scene::{SceneId, Workload, WorkloadKind};
use std::path::Path;
use treelet_rt::{catch_job_panic, plan_schedule, Bench, BvhCache, SimConfig, Sweep};

/// Scene detail of every simulator workload: the paper's full scenes.
const DETAIL: f32 = 1.0;

/// Cold preparations per run; `setup_s` is their median.
const COLD_REPS: usize = 5;

/// One simulator workload.
#[derive(Debug)]
pub struct SimSpec {
    /// Workload name, as in `BENCHMARK.json`.
    pub name: &'static str,
    kind: WorkloadKind,
    res: u32,
    labels: &'static [&'static str],
    /// Run on `nproc` workers instead of one.
    parallel: bool,
    /// Seconds one timed pass takes on the reference host at its calm
    /// speed: it turns `--seconds` into a fixed number of passes.
    pass_s: f64,
}

/// The paper's Fig. 7 setting: 32×32 primary rays, baseline and
/// treelet prefetch. 1,024 rays fit the 4,096 warp-buffer lanes.
pub const PRIMARY_32: SimSpec = SimSpec {
    name: "primary_32",
    kind: WorkloadKind::Primary,
    res: 32,
    labels: &["baseline", "prefetch"],
    parallel: false,
    pass_s: 0.75,
};

/// Incoherent rays, prefetch only: the prefetcher and memory model are
/// the hot path.
pub const DIFFUSE_48_PREFETCH: SimSpec = SimSpec {
    name: "diffuse_48_prefetch",
    kind: WorkloadKind::Diffuse,
    res: 48,
    labels: &["prefetch"],
    parallel: false,
    pass_s: 2.8,
};

/// 16,384 primary rays (4× the warp-buffer lanes) on every core,
/// baseline only: warp turnover and the multi-worker runner, no
/// prefetcher.
pub const BASELINE_128_PAR: SimSpec = SimSpec {
    name: "baseline_128_par",
    kind: WorkloadKind::Primary,
    res: 128,
    labels: &["baseline"],
    parallel: true,
    pass_s: 1.3,
};

/// Every simulator workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [&SimSpec; 3] = [&PRIMARY_32, &DIFFUSE_48_PREFETCH, &BASELINE_128_PAR];

fn config(label: &str) -> SimConfig {
    match label {
        "baseline" => SimConfig::paper_baseline(),
        "prefetch" => SimConfig::paper_treelet_prefetch(),
        other => unreachable!("no config labelled {other}"),
    }
}

impl SimSpec {
    /// The ray workload for `seed`. Primary rays do not depend on it.
    pub fn workload(&self, seed: u64) -> Workload {
        Workload::new(self.kind, self.res, self.res).with_seed(seed)
    }

    fn jobs(&self) -> usize {
        if self.parallel {
            host::nproc()
        } else {
            1
        }
    }

    /// Whether the golden file applies to `seed`: always for primary
    /// rays, which are the same for every seed.
    fn golden_applies(&self, seed: u64) -> bool {
        self.kind == WorkloadKind::Primary || seed == golden::DEFAULT_SEED
    }

    /// Timed passes a run of `seconds` makes: as many as take `seconds`
    /// on the reference host, and enough for the lowest tail percentile
    /// to have ten cell times beyond it. The count depends on `seconds`
    /// alone, so every commit does the same work.
    pub fn passes(&self, seconds: f64) -> usize {
        let cells = SceneId::ALL.len() * self.labels.len();
        let floor = stats::MIN_TAIL_SAMPLES.div_ceil(cells);
        ((seconds / self.pass_s).ceil() as usize).max(floor)
    }
}

fn open_cache(dir: &Path) -> Result<BvhCache, String> {
    BvhCache::open(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// Prepares every scene as `cmd_sweep` does: through the cache, sharded
/// by each scene's paper tree size. Returns the benches and the seconds
/// that took at reference speed.
fn prepare(
    kernel: &Reference,
    workload: Workload,
    jobs: usize,
    cache: &BvhCache,
) -> Result<(Vec<Bench>, f64), String> {
    let costs: Vec<u64> = SceneId::ALL
        .iter()
        .map(|id| ((id.paper_stats().tree_size_mb * 1_048_576.0) as u64).max(1))
        .collect();
    let timed = run_weighted_timed(kernel, jobs, &costs, |i| {
        Bench::try_prepare_cached(SceneId::ALL[i], DETAIL, workload, Some(cache))
    });
    let seconds = timed.wall_ms / 1e3;
    let benches = timed
        .results
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| format!("preparation failed: {e}"))?;
    Ok((benches, seconds))
}

/// The grid, config-major like the CLI's.
fn grid(spec: &SimSpec, benches: Vec<Bench>) -> Sweep {
    spec.labels
        .iter()
        .fold(Sweep::new(benches), |s, &l| s.with_config(l, config(l)))
}

fn cells<'a>(spec: &SimSpec, sweep: &'a Sweep) -> Vec<Cell<'a>> {
    let per = sweep.benches().len();
    (0..sweep.cell_count())
        .map(|i| Cell {
            bench: &sweep.benches()[i % per],
            label: spec.labels[i / per],
            config: &sweep.configs()[i / per].1,
        })
        .collect()
}

/// A cell's result in a pass: `(cycles, digest)` or why it failed.
type CellResult = Result<(u64, u64), String>;

/// One untraced pass, as `Sweep::run_parallel` runs it, with each cell
/// timed next to a reference kernel call.
fn pass(kernel: &Reference, sweep: &Sweep, cells: &[Cell<'_>], jobs: usize) -> Timed<CellResult> {
    run_weighted_timed(kernel, jobs, &sweep.cell_costs(), |i| {
        catch_job_panic(i, || cells[i].bench.try_run(cells[i].config))
            .map(|r| (r.cycles, r.state_digest))
            .map_err(|e| e.to_string())
    })
}

/// Checks a pass cell by cell against the first pass of the run, which
/// `first` keeps.
fn check_pass(
    first: &mut Option<Vec<CellDigest>>,
    got: &[CellResult],
    cells: &[Cell<'_>],
    outcome: &mut Outcome,
) {
    let digests: Vec<CellDigest> = cells
        .iter()
        .zip(got)
        .map(|(c, r)| {
            let (cycles, digest) = r.clone().unwrap_or((0, 0));
            CellDigest {
                key: c.key(),
                cycles,
                digest,
            }
        })
        .collect();
    for (i, r) in got.iter().enumerate() {
        match r {
            Err(e) => outcome.fail(format!("{}: {e}", digests[i].key)),
            Ok(_) => {
                let want = first.as_ref().map_or(&digests[i], |d| &d[i]);
                outcome.check(want == &digests[i], || {
                    format!(
                        "{}: result differs from the run's first pass",
                        digests[i].key
                    )
                });
            }
        }
    }
    first.get_or_insert(digests);
}

/// Checks (or with `bless`, writes) the golden file when it applies.
fn golden(spec: &SimSpec, seed: u64, cells: &[CellDigest], bless: bool, outcome: &mut Outcome) {
    if !spec.golden_applies(seed) {
        return;
    }
    if bless {
        if let Err(e) = golden::bless(spec.name, seed, cells) {
            outcome.fail(format!("cannot write the golden file: {e}"));
        }
    } else {
        golden::check(spec.name, cells, outcome);
    }
}

/// The untraced run: cold set-up, one check pass on the cold-prepared
/// benches, a cache-warm preparation, then [`SimSpec::passes`] timed
/// passes on the cache-warm benches.
///
/// Every time is at reference speed (see [`crate::reference`]), and
/// every timed sample counts: `ops_per_s` is the median pass's cells per
/// second, and `op_ms_p50` and `op_ms_tail` are percentiles over every
/// timed cell. `peak_rss_mb` is read after the check pass: the footprint
/// of preparing and running the grid once, as one CLI `sweep` does.
/// (Later passes only add allocator fragmentation that depends on which
/// worker ran which cell.)
pub fn run(
    spec: &SimSpec,
    seed: u64,
    seconds: f64,
    dir: &Path,
    bless: bool,
) -> Result<Outcome, String> {
    let (jobs, workload) = (spec.jobs(), spec.workload(seed));
    let kernel = Reference::new();
    let mut out = Outcome::default();
    let mut cold = Vec::new();
    let mut benches = Vec::new();
    for k in 0..COLD_REPS {
        let cache = open_cache(&dir.join(format!("cold{k}")))?;
        drop(std::mem::take(&mut benches));
        let (b, s) = prepare(&kernel, workload, jobs, &cache)?;
        benches = b;
        cold.push(s);
    }

    // The check pass runs on cold-prepared benches, the timed passes on
    // cache-warm benches, and all must agree.
    let mut first = None;
    let peak_rss_mb = {
        let sweep = grid(spec, benches);
        let cells = cells(spec, &sweep);
        let check = pass(&kernel, &sweep, &cells, jobs);
        check_pass(&mut first, &check.results, &cells, &mut out);
        host::peak_rss_mb()
    };

    let cache = open_cache(&dir.join(format!("cold{}", COLD_REPS - 1)))?;
    let (benches, _) = prepare(&kernel, workload, jobs, &cache)?;
    let sweep = grid(spec, benches);
    let cells = cells(spec, &sweep);
    let (mut per_s, mut raw_per_s, mut kernel_ms, mut times) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..spec.passes(seconds) {
        let p = pass(&kernel, &sweep, &cells, jobs);
        check_pass(&mut first, &p.results, &cells, &mut out);
        per_s.push(cells.len() as f64 * 1e3 / p.wall_ms);
        raw_per_s.push(cells.len() as f64 * 1e3 / p.raw_wall_ms);
        kernel_ms.push(p.kernel_ms);
        times.extend(p.item_ms);
    }
    golden(
        spec,
        seed,
        first.as_deref().unwrap_or_default(),
        bless,
        &mut out,
    );

    let p = stats::tail_percentile(times.len()).expect("passes() leaves ten beyond p75");
    eprintln!(
        "{}: {} timed passes on {} worker(s); op_ms_tail is p{p} of {} cell times; \
         reference kernel {:.4} ms per call (median pass), so {:.2} cells/s as measured",
        spec.name,
        per_s.len(),
        plan_schedule(jobs, &sweep.cell_costs()).workers(),
        times.len(),
        stats::median(&kernel_ms),
        stats::median(&raw_per_s),
    );
    let v = &mut out.values;
    v.insert("setup_s", stats::median(&cold));
    v.insert("ops_per_s", stats::median(&per_s));
    v.insert("op_ms_p50", stats::median(&times));
    v.insert("op_ms_tail", stats::percentile(&times, p));
    v.insert("peak_rss_mb", peak_rss_mb);
    Ok(out)
}

/// The traced run: the preparation layers, then untraced and traced
/// passes in turn, each traced pass followed by an idle-skip probe pass
/// (so the two engine timings share the host's state); the three passes
/// repeat as often as a run of a third of `seconds` makes timed passes.
/// Per-layer times are as measured, not at reference speed.
pub fn run_traced(
    spec: &SimSpec,
    seed: u64,
    seconds: f64,
    dir: &Path,
    tracer: &Tracer,
) -> Result<Outcome, String> {
    let (jobs, workload) = (spec.jobs(), spec.workload(seed));
    let kernel = Reference::new();
    let mut out = Outcome::default();
    layers::prepare_layers(tracer, DETAIL, workload, dir, &mut out)?;
    let (benches, _) = prepare(&kernel, workload, jobs, &open_cache(&dir.join("layers"))?)?;
    let sweep = grid(spec, benches);
    let cells = cells(spec, &sweep);
    let costs = sweep.cell_costs();
    let plan = plan_schedule(jobs, &costs);

    let (mut first, mut untraced, mut traced) = (None, Vec::new(), Vec::new());
    let mut last = Vec::new();
    for _ in 0..spec.passes(seconds / 3.0) {
        let p = pass(&kernel, &sweep, &cells, jobs);
        check_pass(&mut first, &p.results, &cells, &mut out);
        untraced.push(p.raw_wall_ms / 1e3);
        let result = layers::traced_pass(tracer, traced.len(), jobs, &cells, &costs);
        let digests: Vec<CellResult> = result
            .results
            .iter()
            .map(|r| {
                r.as_ref()
                    .map(|r| (r.cycles, r.state_digest))
                    .map_err(|e| e.to_string())
            })
            .collect();
        check_pass(&mut first, &digests, &cells, &mut out);
        layers::no_idle_skip_probe(tracer, &cells, &result.results, &mut out);
        traced.push(result.wall_s);
        last = result.results;
    }
    golden(
        spec,
        seed,
        first.as_deref().unwrap_or_default(),
        false,
        &mut out,
    );

    let spans = tracer.spans();
    let v = &mut out.values;
    layers::derive(v, &spans, &cells, &last, traced.len());
    layers::derive_trace(v, &spans, &traced, &untraced);
    v.insert("runner.workers", plan.workers() as f64);
    v.insert("runner.inline_cells", plan.inline_cells().len() as f64);
    v.insert("runner.chunks", plan.chunks().len() as f64);
    Ok(out)
}
