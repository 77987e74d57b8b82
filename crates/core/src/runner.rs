//! Parallel execution of independent simulation jobs.
//!
//! Suites and config sweeps are embarrassingly parallel: every
//! (scene, config) cell is an isolated, deterministic, single-threaded
//! simulation. This module shards such cells across a small hand-rolled
//! scoped thread pool (no external dependencies — the build is offline)
//! while preserving the serial contract exactly:
//!
//! - **Deterministic ordering** — results come back in job-index order
//!   no matter which worker finished first.
//! - **Bit-identical results** — each job runs the same single-threaded
//!   simulation a serial loop would, so every
//!   [`state_digest`](crate::SimResult::state_digest) matches the
//!   `jobs == 1` run bit for bit.
//! - **`jobs == 1` is literally serial** — the closure runs inline on
//!   the caller's thread; no worker threads are spawned.
//!
//! There is one pool: the cost-model scheduler [`run_weighted`]
//! (planned by [`plan_schedule`], executed by [`run_scheduled`]). It
//! runs every simulation grid through [`Sweep`] (the CLI's `suite` and
//! `sweep`, every `rt-bench` binary) and every suite-wide preparation
//! through [`Bench::prepare_all`]. Each cell
//! carries an estimated cost (a simulation: rays × the tree's
//! SAH-expected node visits per ray; a preparation: the scene's paper
//! tree size), cells are sorted longest-first and every worker claims
//! one cell at a time until none is left, so the cheap cells fill the
//! gaps at the end. The worker count never exceeds the machine's actual
//! core count — spawning more CPU-bound workers than cores is pure
//! context-switch overhead, which makes a parallel run slower than a
//! serial one on small machines.
//! Panics inside a cell unwind through the pool unless the caller wraps
//! the cell in [`catch_job_panic`], as `Sweep` does.

use crate::config::SimConfig;
use crate::error::SimError;
use crate::experiments::Bench;
use crate::sim::SimResult;
use rt_scene::SceneId;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Parses an `RT_JOBS`-style override: a positive integer means "use
/// exactly this many workers"; anything else is ignored.
fn jobs_from_env(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// The machine's available parallelism, or 1 when it cannot be
/// determined.
fn hardware_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Default worker count: the `RT_JOBS` environment variable when it is
/// set to a positive integer, otherwise the machine's available
/// parallelism (1 when it cannot be determined).
pub fn default_jobs() -> usize {
    let env = std::env::var("RT_JOBS").ok();
    jobs_from_env(env.as_deref()).unwrap_or_else(hardware_parallelism)
}

/// [`default_jobs`] capped at the number of cells actually on offer —
/// an 8-core box running a 3-cell sweep gets 3 workers, not 8 threads
/// with five of them idle. Always at least 1, even for zero cells.
pub fn default_jobs_for(cells: usize) -> usize {
    default_jobs().min(cells).max(1)
}

/// Scale of [`cell_cost`]: expected visits are kept to 1/65,536 of a
/// node so scenes whose trees differ only slightly still weigh apart.
const VISIT_SCALE: f64 = 65_536.0;

/// Estimated cost of one cell, in the cost-model scheduler's work
/// units: `rays` × the tree's SAH-expected node visits per ray (see
/// [`WideBvh::expected_visits_per_ray`](rt_bvh::WideBvh::expected_visits_per_ray)),
/// as an integer at [`VISIT_SCALE`]. Never 0.
pub(crate) fn cell_cost(expected_visits: f64, rays: usize) -> u64 {
    // `as` saturates, and maps a NaN to 0.
    ((expected_visits * VISIT_SCALE) as u64)
        .max(1)
        .saturating_mul(rays.max(1) as u64)
}

/// A cost-model execution plan for a set of weighted cells, produced by
/// [`plan_schedule`] and executed by [`run_scheduled`].
///
/// A multi-worker plan is one claim per cell, longest first; `workers`
/// counts every participating thread including the caller. A plan with
/// `workers == 1` is the plain serial loop in index order and spawns
/// nothing.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Cells in claim order: longest first for a multi-worker plan,
    /// index order for a serial one.
    order: Vec<usize>,
    workers: usize,
}

impl Schedule {
    /// Total number of cells the plan covers.
    pub fn cells(&self) -> usize {
        self.order.len()
    }

    /// Threads that will participate, caller included. `1` means fully
    /// serial: no threads are spawned.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Cells the caller runs before any claim: every cell of a serial
    /// plan, none of a multi-worker one.
    pub fn inline_cells(&self) -> &[usize] {
        if self.workers <= 1 {
            &self.order
        } else {
            &[]
        }
    }

    /// The claims of a multi-worker plan, one single-cell chunk per
    /// cell in claim order; none for a serial plan.
    pub fn chunks(&self) -> std::slice::Chunks<'_, usize> {
        let claimed = if self.workers <= 1 {
            &[]
        } else {
            &self.order[..]
        };
        claimed.chunks(1)
    }
}

/// Plans a cost-model schedule for `costs.len()` cells on `jobs`
/// requested workers, clamped to the machine's available parallelism.
/// See [`plan_schedule_with`] for the planning rules.
///
/// # Panics
///
/// Panics if `jobs` is zero.
pub fn plan_schedule(jobs: usize, costs: &[u64]) -> Schedule {
    plan_schedule_with(jobs, hardware_parallelism(), costs)
}

/// [`plan_schedule`] with the hardware parallelism injected — the pure,
/// deterministic core, so tests (and a 1-core CI box) can exercise
/// multi-worker plans.
///
/// Rules:
///
/// - `workers = min(jobs, hardware, cells)` — the scheduler refuses to
///   oversubscribe the machine no matter how many jobs were requested,
///   because an extra CPU-bound worker per core is a context-switch
///   tax, not a speedup;
/// - one worker (or at most one cell) is the serial loop in index
///   order;
/// - otherwise every cell is its own claim, sorted longest-first
///   (stable: ties keep index order). The longest cells start first
///   and the cheap ones come last, filling the gaps while the others
///   finish: a greedy list schedule, so the last worker is done within
///   `total / workers + (1 − 1/workers) · longest` (Graham's bound).
///
/// The caller's thread is worker #0 and claims alongside the
/// `workers − 1` spawned threads.
///
/// # Panics
///
/// Panics if `jobs` is zero.
pub fn plan_schedule_with(jobs: usize, hardware: usize, costs: &[u64]) -> Schedule {
    assert!(jobs > 0, "need at least one worker");
    let workers = jobs.min(hardware).min(costs.len()).max(1);
    let mut order: Vec<usize> = (0..costs.len()).collect();
    if workers > 1 {
        // Longest-first; the sort is stable, so equal costs keep index order.
        order.sort_by_key(|&i| std::cmp::Reverse(costs[i]));
    }
    Schedule { order, workers }
}

/// Executes a [`Schedule`]: spawns `workers − 1` threads that, with the
/// caller, claim cells in the plan's order until none is left. Results
/// come back in cell-index order regardless of which worker ran what; a
/// `workers == 1` plan runs every cell inline in index order with zero
/// spawns.
///
/// Cost estimates steer *placement only* — a wildly mispredicted cost
/// still runs exactly once and lands in the right output slot; dynamic
/// claiming absorbs the imbalance.
///
/// # Panics
///
/// Resumes the panic of any `run` call that panics.
pub fn run_scheduled<T, F>(schedule: &Schedule, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let count = schedule.cells();
    if schedule.workers <= 1 {
        return (0..count).map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let (next, run) = (&next, &run);
    let order = &schedule.order;
    let claim = move || {
        let mut mine = Vec::new();
        while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            mine.push((i, run(i)));
        }
        mine
    };
    let mut indexed: Vec<(usize, T)> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..schedule.workers).map(|_| scope.spawn(claim)).collect();
        // Worker #0 (the caller) claims alongside the spawned threads.
        let mine = claim();
        spawned
            .into_iter()
            .flat_map(|w| {
                w.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .chain(mine)
            .collect()
    });
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, t)| t).collect()
}

/// Runs `run(0..costs.len())` under the cost-model scheduler: plans with
/// [`plan_schedule`] and executes with [`run_scheduled`]. Results are in
/// index order and bit-identical to a serial loop for any `jobs`.
///
/// # Panics
///
/// Panics if `jobs` is zero, and resumes the panic of any `run` call
/// that panics.
pub fn run_weighted<T, F>(jobs: usize, costs: &[u64], run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_scheduled(&plan_schedule(jobs, costs), run)
}

/// Renders a panic payload's message, if it carried one.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Runs `f` with panics contained at the job boundary: a panic becomes
/// [`SimError::WorkerPanicked`] carrying the job index and the panic
/// message, instead of unwinding through the worker pool and killing
/// every sibling job's results.
///
/// This is the robust-path complement to [`run_scheduled`]'s
/// resume-unwind behaviour: [`Sweep`] and the daemon's supervisor wrap
/// each cell's runner in `catch_job_panic` so one poisoned cell is
/// reported as a typed per-cell error while the rest of the grid
/// completes.
pub fn catch_job_panic<T>(
    job: usize,
    f: impl FnOnce() -> Result<T, SimError>,
) -> Result<T, SimError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(outcome) => outcome,
        Err(payload) => Err(SimError::WorkerPanicked {
            job,
            message: panic_message(&*payload).to_string(),
        }),
    }
}

/// One cell of a [`Sweep`]: which config label and scene produced it,
/// and what came out.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Label of the configuration that produced this cell. Shared with
    /// the sweep's config column (and every sibling cell of the same
    /// config) instead of cloned per cell.
    pub label: Arc<str>,
    /// The scene this cell simulated.
    pub scene: SceneId,
    /// The cell's result, or why it could not run.
    pub result: Result<SimResult, SimError>,
}

/// A (scene × config) sweep grid: prepared benches crossed with labeled
/// configurations, run cell-by-cell across a worker pool.
///
/// # Examples
///
/// ```no_run
/// use rt_scene::{SceneId, Workload};
/// use treelet_rt::{Bench, SimConfig, Sweep};
///
/// let benches = vec![
///     Bench::prepare(SceneId::Wknd, 0.5, Workload::paper_default()),
///     Bench::prepare(SceneId::Car, 0.5, Workload::paper_default()),
/// ];
/// let sweep = Sweep::new(benches)
///     .with_config("baseline", SimConfig::paper_baseline())
///     .with_config("prefetch", SimConfig::paper_treelet_prefetch());
/// for cell in sweep.run_parallel(4) {
///     let cycles = cell.result.map(|r| r.cycles);
///     println!("{}/{}: {cycles:?}", cell.label, cell.scene);
/// }
/// ```
#[derive(Debug)]
pub struct Sweep {
    benches: Vec<Bench>,
    configs: Vec<(Arc<str>, SimConfig)>,
}

impl Sweep {
    /// A sweep over `benches` with no configurations yet.
    pub fn new(benches: Vec<Bench>) -> Sweep {
        Sweep {
            benches,
            configs: Vec::new(),
        }
    }

    /// Adds a labeled configuration column to the grid.
    pub fn with_config(mut self, label: impl Into<Arc<str>>, config: SimConfig) -> Sweep {
        self.configs.push((label.into(), config));
        self
    }

    /// The prepared benches, in grid row order.
    pub fn benches(&self) -> &[Bench] {
        &self.benches
    }

    /// The labeled configurations, in grid column order.
    pub fn configs(&self) -> &[(Arc<str>, SimConfig)] {
        &self.configs
    }

    /// Number of (scene, config) cells in the grid.
    pub fn cell_count(&self) -> usize {
        self.benches.len() * self.configs.len()
    }

    /// Per-cell cost estimates in grid (config-major) order, from each
    /// bench's [`Bench::estimated_cost`] — the inputs the cost-model
    /// scheduler plans with.
    pub fn cell_costs(&self) -> Vec<u64> {
        let per_bench: Vec<u64> = self.benches.iter().map(Bench::estimated_cost).collect();
        (0..self.cell_count())
            .map(|i| per_bench[i % per_bench.len().max(1)])
            .collect()
    }

    /// Runs every (scene, config) cell under the cost-model scheduler
    /// (see [`run_weighted`]) with at most `jobs` workers, returning
    /// outcomes in config-major order (all scenes of the first config,
    /// then the second, …) regardless of completion order. Each cell is
    /// an independent single-threaded simulation, so every result —
    /// including its [`state_digest`](crate::SimResult::state_digest) —
    /// is bit-identical to what `jobs == 1` produces.
    ///
    /// A cell whose simulation panics is contained at the cell boundary
    /// and reported as [`SimError::WorkerPanicked`] in that cell's
    /// outcome; the rest of the grid still completes.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero.
    pub fn run_parallel(&self, jobs: usize) -> Vec<SweepOutcome> {
        let per_config = self.benches.len();
        let costs = self.cell_costs();
        run_weighted(jobs, &costs, |i| {
            let (label, config) = &self.configs[i / per_config];
            let bench = &self.benches[i % per_config];
            SweepOutcome {
                label: Arc::clone(label),
                scene: bench.scene(),
                result: catch_job_panic(i, || bench.try_run(config)),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_scene::{Workload, WorkloadKind};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn jobs_env_override_parses_strictly() {
        assert_eq!(jobs_from_env(Some("3")), Some(3));
        assert_eq!(jobs_from_env(Some(" 8 ")), Some(8));
        assert_eq!(jobs_from_env(Some("0")), None);
        assert_eq!(jobs_from_env(Some("-2")), None);
        assert_eq!(jobs_from_env(Some("many")), None);
        assert_eq!(jobs_from_env(Some("")), None);
        assert_eq!(jobs_from_env(None), None);
    }

    #[test]
    fn default_jobs_for_caps_at_cell_count() {
        assert_eq!(default_jobs_for(0), 1);
        assert_eq!(default_jobs_for(1), 1);
        let unbounded = default_jobs();
        assert!(default_jobs_for(2) <= 2);
        assert!(default_jobs_for(usize::MAX) == unbounded);
    }

    #[test]
    fn plan_serial_when_one_worker_or_one_cell() {
        let plan = plan_schedule_with(1, 8, &[1_000_000, 2_000_000]);
        assert_eq!(plan.workers(), 1);
        assert_eq!(plan.chunks().len(), 0);
        assert_eq!(plan.inline_cells(), &[0, 1]);
        let plan = plan_schedule_with(4, 8, &[5_000_000]);
        assert_eq!(plan.workers(), 1);
        let plan = plan_schedule_with(4, 8, &[]);
        assert_eq!(plan.workers(), 1);
        assert_eq!(plan.cells(), 0);
    }

    #[test]
    fn plan_clamps_workers_to_hardware() {
        // 4 requested workers on a 1-core machine: the scheduler refuses
        // to oversubscribe — this is the parallel-slower-than-serial fix.
        let costs = vec![10_000_000; 8];
        let plan = plan_schedule_with(4, 1, &costs);
        assert_eq!(plan.workers(), 1);
        let plan = plan_schedule_with(4, 2, &costs);
        assert!(plan.workers() <= 2);
    }

    #[test]
    fn plan_claims_every_cell_once_longest_first() {
        // Cheap cells are claimed like any other, after the expensive
        // ones, each alone.
        let costs = vec![10, 50_000_000, 20, 60_000_000, 70_000_000, 40_000_000];
        let plan = plan_schedule_with(4, 8, &costs);
        assert_eq!(plan.workers(), 4);
        assert!(plan.inline_cells().is_empty());
        assert!(plan.chunks().all(|chunk| chunk.len() == 1));
        let claimed: Vec<usize> = plan.chunks().flatten().copied().collect();
        assert_eq!(claimed, vec![4, 3, 1, 5, 2, 0]);
        assert_eq!(claimed.len(), plan.cells());
    }

    #[test]
    fn plan_ties_keep_index_order() {
        let costs = vec![1_000_000; 5];
        let plan = plan_schedule_with(2, 8, &costs);
        let order: Vec<usize> = plan.chunks().flatten().copied().collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        // Among mixed costs, each tie still keeps index order.
        let plan = plan_schedule_with(2, 8, &[5, 9, 5, 9, 7]);
        let order: Vec<usize> = plan.chunks().flatten().copied().collect();
        assert_eq!(order, vec![1, 3, 4, 0, 2]);
    }

    /// Makespan of `plan` when cell `i` takes `durations[i]`: the caller
    /// runs the inline cells first, then each claim goes to the worker
    /// that is free earliest — the loop [`run_scheduled`] executes.
    fn simulated_makespan(plan: &Schedule, durations: &[f64]) -> f64 {
        let mut free = vec![0.0f64; plan.workers()];
        free[0] = plan.inline_cells().iter().map(|&i| durations[i]).sum();
        for chunk in plan.chunks() {
            let w = (0..free.len())
                .min_by(|&a, &b| free[a].total_cmp(&free[b]))
                .expect("a plan has a worker");
            free[w] += chunk.iter().map(|&i| durations[i]).sum::<f64>();
        }
        free.into_iter().fold(0.0, f64::max)
    }

    /// Per-scene milliseconds of one 128×128 `paper_baseline` cell at
    /// detail 1.0, measured single-threaded on 2 vCPUs, in
    /// `SceneId::ALL` order.
    const BASELINE_128_MS: [f64; 16] = [
        36.25, 145.92, 141.04, 140.58, 100.95, 500.64, 131.94, 168.97, 134.85, 93.32, 52.87, 65.19,
        83.28, 91.49, 67.46, 54.18,
    ];
    /// The same scenes' SAH-expected node visits per ray.
    const BASELINE_128_VISITS: [f64; 16] = [
        3.81, 12.03, 17.68, 13.88, 7.81, 41.62, 18.01, 15.91, 8.73, 12.83, 5.69, 7.83, 10.36, 7.11,
        6.51, 5.36,
    ];
    /// The same scenes' BVH node counts.
    const BASELINE_128_NODES: [u64; 16] = [
        492, 26_719, 46_991, 47_995, 14_448, 16_620, 31_973, 21_666, 18_263, 5_119, 7_588, 780,
        7_107, 16_863, 4_984, 7_841,
    ];

    #[test]
    fn plan_balances_measured_baseline_128_cells() {
        const RAYS: u64 = 128 * 128;
        let sah_costs: Vec<u64> = BASELINE_128_VISITS
            .iter()
            .map(|&v| cell_cost(v, RAYS as usize))
            .collect();
        let node_costs: Vec<u64> = BASELINE_128_NODES.iter().map(|&n| n * RAYS).collect();
        let total: f64 = BASELINE_128_MS.iter().sum();
        let longest = BASELINE_128_MS.iter().copied().fold(0.0, f64::max);
        let ratio = |w: usize, costs: &[u64]| {
            let plan = plan_schedule_with(w, w, costs);
            simulated_makespan(&plan, &BASELINE_128_MS) / (total / w as f64).max(longest)
        };
        let (two, four) = (ratio(2, &sah_costs), ratio(4, &sah_costs));
        assert!(
            two <= 1.02,
            "2 workers: makespan {two:.3} × the lower bound"
        );
        assert!(
            four <= 1.06,
            "4 workers: makespan {four:.3} × the lower bound"
        );
        // Ordered by nodes × rays, PARTY (34 nodes walked per ray) is
        // only 8th by cost and starts too late for 4 workers to balance.
        let nodes_four = ratio(4, &node_costs);
        assert!(
            nodes_four > 1.06,
            "nodes × rays, 4 workers: {nodes_four:.3}"
        );
    }

    #[test]
    fn cell_cost_is_never_zero_and_keeps_scenes_apart() {
        assert_eq!(cell_cost(f64::NAN, 0), 1);
        assert_eq!(cell_cost(0.0, 16), 16);
        assert_eq!(cell_cost(f64::INFINITY, 2), u64::MAX);
        // The measured scenes' visits are distinct to two decimals:
        // even at a 4×4 workload no two of them weigh the same.
        let mut costs: Vec<u64> = BASELINE_128_VISITS
            .iter()
            .map(|&v| cell_cost(v, 16))
            .collect();
        costs.sort_unstable();
        costs.dedup();
        assert_eq!(costs.len(), BASELINE_128_VISITS.len());
    }

    #[test]
    fn plan_meets_the_list_scheduling_bound() {
        // Graham's bound for any list schedule: makespan ≤ total / w +
        // (1 − 1/w) · longest. Costs are integers below 2^32, so every
        // sum below is exact in f64 and the check needs no tolerance.
        use rt_rng::prop::forall;
        use rt_rng::Rng;
        forall("plan_meets_the_list_scheduling_bound", 256, |rng| {
            let n = rng.gen_range(1..48usize);
            let costs: Vec<u64> = (0..n)
                .map(|_| {
                    let bits = rng.gen_range(1..33u32);
                    rng.gen_range(1..(1u64 << bits) + 1)
                })
                .collect();
            let durations: Vec<f64> = costs.iter().map(|&c| c as f64).collect();
            let total: f64 = durations.iter().sum();
            let longest = durations.iter().copied().fold(0.0, f64::max);
            for w in [2usize, 3, 4, 8] {
                let plan = plan_schedule_with(w, w, &costs);
                let makespan = simulated_makespan(&plan, &durations);
                let wf = w as f64;
                assert!(
                    makespan * wf <= total + (wf - 1.0) * longest,
                    "w = {w}: makespan {makespan} over Graham's bound for {costs:?}"
                );
            }
        });
    }

    #[test]
    fn run_scheduled_matches_serial_for_multiworker_plans() {
        // Force a genuinely multi-worker plan (hardware injected as 4)
        // so the spawned-thread path runs even on a 1-core CI box, and
        // check index order plus exactly-once execution.
        let costs: Vec<u64> = (0..32).map(|i| (i as u64 + 1) * 100_000).collect();
        let plan = plan_schedule_with(4, 4, &costs);
        assert!(plan.workers() > 1, "plan must exercise the threaded path");
        let calls = AtomicUsize::new(0);
        let out: Vec<usize> = run_scheduled(&plan, |i| {
            calls.fetch_add(1, Ordering::SeqCst);
            i * 3
        });
        assert_eq!(out, (0..32).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(calls.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn run_weighted_survives_cost_misprediction() {
        // Costs are deliberately inverted: the cell estimated cheapest
        // is actually the slowest. Placement may be suboptimal but the
        // contract holds — every cell runs exactly once, results are in
        // index order.
        let costs: Vec<u64> = (0..16).map(|i| (16 - i) * 1_000_000).collect();
        let calls = AtomicUsize::new(0);
        let out: Vec<usize> = run_weighted(8, &costs, |i| {
            calls.fetch_add(1, Ordering::SeqCst);
            if i == 15 {
                // The "cheapest" estimate is the real straggler.
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
        assert_eq!(calls.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn run_weighted_handles_empty_and_serial() {
        let none: Vec<usize> = run_weighted(4, &[], |i| i);
        assert!(none.is_empty());
        let serial: Vec<usize> = run_weighted(1, &[10_000_000; 5], |i| i * 2);
        assert_eq!(serial, vec![0, 2, 4, 6, 8]);
        // More workers than cells: every cell still runs once, in order.
        let few: Vec<usize> = run_weighted(8, &[10_000_000; 3], |i| i + 1);
        assert_eq!(few, vec![1, 2, 3]);
    }

    #[test]
    fn run_scheduled_preserves_order_under_a_slow_first_cell() {
        // The first cell sleeps while the other workers race ahead on a
        // forced multi-worker plan; results must still come back in
        // index order, and every index must run exactly once.
        let plan = plan_schedule_with(4, 4, &[10_000_000; 16]);
        assert!(plan.workers() > 1, "plan must exercise the threaded path");
        let calls = AtomicUsize::new(0);
        let out: Vec<usize> = run_scheduled(&plan, |i| {
            calls.fetch_add(1, Ordering::SeqCst);
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
        assert_eq!(calls.load(Ordering::SeqCst), 16);
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn run_weighted_rejects_zero_workers() {
        let _ = run_weighted(0, &[1], |i| i);
    }

    #[test]
    #[should_panic(expected = "job 3 exploded")]
    fn run_scheduled_propagates_worker_panics() {
        let costs = vec![10_000_000; 8];
        let plan = plan_schedule_with(4, 4, &costs);
        let _ = run_scheduled(&plan, |i| {
            if i == 3 {
                panic!("job 3 exploded");
            }
            i
        });
    }

    #[test]
    fn catch_job_panic_surfaces_a_typed_error() {
        // Silence the default panic hook so the contained panic does not
        // spray a backtrace into test output.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let ok: Result<u32, SimError> = catch_job_panic(0, || Ok(7));
        assert_eq!(ok.unwrap(), 7);
        let typed: Result<u32, SimError> =
            catch_job_panic(1, || Err(SimError::EmptyInput { what: "ray" }));
        assert!(matches!(typed, Err(SimError::EmptyInput { .. })));
        let panicked: Result<u32, SimError> = catch_job_panic(2, || panic!("cell exploded"));
        std::panic::set_hook(prev);
        match panicked {
            Err(SimError::WorkerPanicked { job, message }) => {
                assert_eq!(job, 2);
                assert!(message.contains("cell exploded"));
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn panic_message_renders_common_payloads() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(&*s), "static str");
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(&*s), "owned");
        let s: Box<dyn std::any::Any + Send> = Box::new(42u8);
        assert_eq!(panic_message(&*s), "non-string panic payload");
    }

    fn two_scenes() -> Vec<Bench> {
        let workload = Workload::new(WorkloadKind::Primary, 4, 4);
        vec![
            Bench::prepare(SceneId::Wknd, 0.1, workload),
            Bench::prepare(SceneId::Car, 0.1, workload),
        ]
    }

    fn two_scene_sweep() -> Sweep {
        Sweep::new(two_scenes())
            .with_config("baseline", SimConfig::paper_baseline())
            .with_config("prefetch", SimConfig::paper_treelet_prefetch())
    }

    #[test]
    fn sweep_shares_labels_instead_of_cloning() {
        let sweep = two_scene_sweep();
        let outcomes = sweep.run_parallel(2);
        // Both cells of a config hold the *same* allocation as the
        // sweep's config column: 3 = column + 2 cells.
        let (label, _) = &sweep.configs()[0];
        assert_eq!(Arc::strong_count(label), 3);
        assert!(Arc::ptr_eq(&outcomes[0].label, &outcomes[1].label));
    }

    #[test]
    fn sweep_costs_follow_the_grid() {
        let sweep = two_scene_sweep();
        let costs = sweep.cell_costs();
        assert_eq!(costs.len(), 4);
        // Config-major: costs repeat per config column.
        assert_eq!(costs[0], costs[2]);
        assert_eq!(costs[1], costs[3]);
        assert_eq!(costs[0], sweep.benches()[0].estimated_cost());
        assert!(costs.iter().all(|&c| c > 0));
    }

    #[test]
    fn small_sweep_cells_take_the_threaded_path() {
        // However cheap, the cells the cross-jobs digest tests run are
        // claimed one by one on every worker the machine has: no cell is
        // kept back for the caller.
        let sweep = two_scene_sweep();
        let costs = sweep.cell_costs();
        let plan = plan_schedule_with(4, 8, &costs);
        assert_eq!(plan.workers(), costs.len());
        assert!(plan.inline_cells().is_empty());
        assert_eq!(plan.chunks().len(), costs.len());
    }

    #[test]
    fn sweep_digests_identical_across_job_counts() {
        // The determinism contract behind `--jobs N` and `idle_skip`:
        // every worker count and the naive cycle-by-cycle loop yield the
        // serial run's cycles and digests, in config-major order.
        let digests = |sweep: &Sweep, jobs: usize| -> Vec<(Arc<str>, SceneId, u64, u64)> {
            sweep
                .run_parallel(jobs)
                .into_iter()
                .map(|c| {
                    let r = c.result.expect("cell completes");
                    (c.label, c.scene, r.cycles, r.state_digest)
                })
                .collect()
        };
        let sweep = two_scene_sweep();
        let serial = digests(&sweep, 1);
        assert_eq!(serial.len(), 4);
        // Config-major ordering: both scenes of a label are adjacent.
        assert_eq!(&*serial[0].0, "baseline");
        assert_eq!(&*serial[1].0, "baseline");
        assert_eq!(serial[0].1, SceneId::Wknd);
        assert_eq!(serial[1].1, SceneId::Car);
        assert_eq!(serial, digests(&sweep, 2));
        assert_eq!(serial, digests(&sweep, 4));
        let no_skip =
            sweep
                .configs()
                .iter()
                .fold(Sweep::new(two_scenes()), |s, (label, config)| {
                    let naive = SimConfig {
                        idle_skip: false,
                        ..config.clone()
                    };
                    s.with_config(Arc::clone(label), naive)
                });
        assert_eq!(serial, digests(&no_skip, 4), "idle_skip = false");
    }

    #[test]
    fn sweep_digests_identical_under_forced_multiworker_plan() {
        // The scheduler's threaded path (unreachable behind the hardware
        // clamp on a 1-core box) must still produce serial digests: plan
        // with injected hardware, execute directly.
        let sweep = two_scene_sweep();
        let per_config = sweep.benches().len();
        let costs = sweep.cell_costs();
        let serial: Vec<u64> = sweep
            .run_parallel(1)
            .into_iter()
            .map(|c| c.result.expect("cell completes").state_digest)
            .collect();
        let plan = plan_schedule_with(4, 4, &costs);
        let threaded: Vec<u64> = run_scheduled(&plan, |i| {
            let (_, config) = &sweep.configs()[i / per_config];
            let bench = &sweep.benches()[i % per_config];
            bench.try_run(config).expect("cell completes").state_digest
        });
        assert_eq!(serial, threaded);
    }

    #[test]
    fn sweep_reports_typed_errors_per_cell() {
        let mut bad = SimConfig::paper_baseline();
        bad.num_sms = 0;
        let workload = Workload::new(WorkloadKind::Primary, 2, 2);
        let sweep = Sweep::new(vec![Bench::prepare(SceneId::Wknd, 0.1, workload)])
            .with_config("good", SimConfig::paper_baseline())
            .with_config("bad", bad);
        let outcomes = sweep.run_parallel(2);
        assert!(outcomes[0].result.is_ok());
        assert!(matches!(outcomes[1].result, Err(SimError::Config(_))));
    }
}
