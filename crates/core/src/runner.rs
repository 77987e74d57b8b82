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
//! (planned by [`plan_schedule`], executed by [`run_scheduled`]), used
//! by [`Sweep`], the `rt-bench` suite, and suite preparation. Each cell
//! carries an estimated cost (BVH node count × ray count), cheap cells
//! run inline on the caller's thread, expensive cells are sorted
//! longest-first and claimed in cost-weighted chunks, and the worker
//! count never exceeds the machine's actual core count — spawning more
//! CPU-bound workers than cores is pure context-switch overhead, which
//! makes a parallel run slower than a serial one on small machines.
//! Panics inside a cell unwind through the pool unless the caller wraps
//! the cell in [`catch_job_panic`], as `Sweep` and the suite do.

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
    value.and_then(|v| v.trim().parse::<usize>().ok()).filter(|&n| n > 0)
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

/// Cells estimated cheaper than this (in [`Bench::estimated_cost`]
/// units: BVH nodes × rays) run inline on the caller's thread — the
/// cross-thread handoff costs more than the work.
pub const INLINE_COST: u64 = 32_768;

/// Minimum estimated cost of one claimable chunk. Chunks are sized at
/// `max(total_big_cost / (4 × workers), CHUNK_MIN_COST)` so each worker
/// sees ~4 claims of load-balancing slack without the claim traffic of
/// one-cell-at-a-time scheduling.
pub const CHUNK_MIN_COST: u64 = 262_144;

/// A cost-model execution plan for a set of weighted cells, produced by
/// [`plan_schedule`] and executed by [`run_scheduled`].
///
/// The plan partitions cells into *inline* work (cheap cells the caller
/// runs itself, in index order) and *chunks* of expensive cells (sorted
/// longest-first, claimed dynamically by the worker pool). `workers`
/// counts every participating thread including the caller; a plan with
/// `workers == 1` degenerates to the plain serial loop and spawns
/// nothing.
#[derive(Debug, Clone)]
pub struct Schedule {
    cells: usize,
    inline: Vec<usize>,
    chunks: Vec<Vec<usize>>,
    workers: usize,
    inline_cost: u64,
    chunked_cost: u64,
}

impl Schedule {
    /// Total number of cells the plan covers.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Threads that will participate, caller included. `1` means fully
    /// serial: no threads are spawned.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Cell indices the caller runs inline, in index order.
    pub fn inline_cells(&self) -> &[usize] {
        &self.inline
    }

    /// The cost-weighted chunks of expensive cells, in claim order
    /// (largest first).
    pub fn chunks(&self) -> &[Vec<usize>] {
        &self.chunks
    }

    /// Summed estimated cost of the inline cells.
    pub fn inline_cost(&self) -> u64 {
        self.inline_cost
    }

    /// Summed estimated cost of the chunked cells.
    pub fn chunked_cost(&self) -> u64 {
        self.chunked_cost
    }

    /// A serial plan: every cell inline on the caller, nothing spawned.
    fn serial(costs: &[u64]) -> Schedule {
        Schedule {
            cells: costs.len(),
            inline: (0..costs.len()).collect(),
            chunks: Vec::new(),
            workers: 1,
            inline_cost: costs.iter().sum(),
            chunked_cost: 0,
        }
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
/// - cells estimated below [`INLINE_COST`] run inline on the caller;
/// - the remaining cells are sorted longest-first (stable: ties keep
///   index order) and packed greedily into chunks of at least
///   `max(total / (4 × workers), CHUNK_MIN_COST)` estimated cost;
/// - `workers = min(jobs, hardware, chunks + 1 if there is inline work)`
///   and never below 1 — the scheduler refuses to oversubscribe the
///   machine no matter how many jobs were requested, because an extra
///   CPU-bound worker per core is a context-switch tax, not a speedup.
///
/// The caller's thread is worker #0: it runs the inline cells first,
/// then joins the chunk-claiming loop alongside the `workers − 1`
/// spawned threads.
///
/// # Panics
///
/// Panics if `jobs` is zero.
pub fn plan_schedule_with(jobs: usize, hardware: usize, costs: &[u64]) -> Schedule {
    assert!(jobs > 0, "need at least one worker");
    let budget = jobs.min(hardware.max(1));
    if budget <= 1 || costs.len() <= 1 {
        return Schedule::serial(costs);
    }

    let mut inline = Vec::new();
    let mut big: Vec<(usize, u64)> = Vec::new();
    for (i, &c) in costs.iter().enumerate() {
        if c < INLINE_COST {
            inline.push(i);
        } else {
            big.push((i, c));
        }
    }
    if big.is_empty() {
        return Schedule::serial(costs);
    }
    // Longest-first; the sort is stable, so equal costs keep index order.
    big.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    let chunked_cost: u64 = big.iter().map(|&(_, c)| c).sum();
    let target = (chunked_cost / (4 * budget as u64)).max(CHUNK_MIN_COST);

    let mut chunks: Vec<Vec<usize>> = Vec::new();
    let mut cur = Vec::new();
    let mut cur_cost = 0u64;
    for (i, c) in big {
        cur.push(i);
        cur_cost += c;
        if cur_cost >= target {
            chunks.push(std::mem::take(&mut cur));
            cur_cost = 0;
        }
    }
    if !cur.is_empty() {
        chunks.push(cur);
    }

    let workers = budget
        .min(chunks.len() + usize::from(!inline.is_empty()))
        .max(1);
    if workers <= 1 {
        return Schedule::serial(costs);
    }
    Schedule {
        cells: costs.len(),
        inline_cost: inline.iter().map(|&i| costs[i]).sum(),
        inline,
        chunks,
        workers,
        chunked_cost,
    }
}

/// Executes a [`Schedule`]: spawns `workers − 1` threads to claim
/// chunks while the caller runs the inline cells and then joins the
/// claim loop. Results come back in cell-index order regardless of which
/// worker ran what; a `workers == 1` plan runs every cell inline in
/// index order with zero spawns.
///
/// Cost estimates steer *placement only* — a wildly mispredicted cost
/// still runs exactly once and lands in the right output slot; dynamic
/// chunk claiming absorbs the imbalance.
///
/// # Panics
///
/// Panics if `schedule` does not cover exactly `0..schedule.cells()`,
/// and resumes the panic of any `run` call that panics.
pub fn run_scheduled<T, F>(schedule: &Schedule, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let count = schedule.cells;
    if schedule.workers <= 1 {
        return (0..count).map(run).collect();
    }
    debug_assert_eq!(
        schedule.inline.len() + schedule.chunks.iter().map(Vec::len).sum::<usize>(),
        count,
        "schedule must cover every cell exactly once"
    );
    let next = AtomicUsize::new(0);
    let (next, run) = (&next, &run);
    let chunks = &schedule.chunks;
    let claim_into = move |mine: &mut Vec<(usize, T)>| loop {
        let c = next.fetch_add(1, Ordering::Relaxed);
        if c >= chunks.len() {
            break;
        }
        for &i in &chunks[c] {
            mine.push((i, run(i)));
        }
    };
    let mut indexed: Vec<(usize, T)> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..schedule.workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    claim_into(&mut mine);
                    mine
                })
            })
            .collect();
        // Worker #0 (the caller): inline cells first, then chunks.
        let mut mine: Vec<(usize, T)> =
            schedule.inline.iter().map(|&i| (i, run(i))).collect();
        claim_into(&mut mine);
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
/// resume-unwind behaviour: sweeps and suite harnesses wrap each cell's
/// runner in `catch_job_panic` so one poisoned cell is reported as a
/// typed per-cell error while the rest of the grid completes.
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
        assert!(plan.chunks().is_empty());
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
    fn plan_inlines_cheap_cells_and_chunks_big_ones() {
        // Two tiny cells (below INLINE_COST) and four expensive ones.
        let costs = vec![
            10,
            50_000_000,
            20,
            60_000_000,
            70_000_000,
            40_000_000,
        ];
        let plan = plan_schedule_with(4, 8, &costs);
        assert_eq!(plan.inline_cells(), &[0, 2]);
        assert_eq!(plan.inline_cost(), 30);
        assert_eq!(plan.chunked_cost(), 220_000_000);
        assert!(plan.workers() > 1);
        // Every big cell appears exactly once across the chunks, and the
        // claim order is longest-cell-first.
        let mut chunked: Vec<usize> = plan.chunks().iter().flatten().copied().collect();
        assert_eq!(chunked.first(), Some(&4)); // 70M is the longest
        chunked.sort_unstable();
        assert_eq!(chunked, vec![1, 3, 4, 5]);
        // Coverage: inline + chunks == all cells.
        assert_eq!(plan.inline_cells().len() + chunked.len(), plan.cells());
    }

    #[test]
    fn plan_ties_keep_index_order() {
        let costs = vec![1_000_000; 5];
        let plan = plan_schedule_with(2, 8, &costs);
        let order: Vec<usize> = plan.chunks().iter().flatten().copied().collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
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

    fn two_scene_sweep() -> Sweep {
        let workload = Workload::new(WorkloadKind::Primary, 4, 4);
        Sweep::new(vec![
            Bench::prepare(SceneId::Wknd, 0.1, workload),
            Bench::prepare(SceneId::Car, 0.1, workload),
        ])
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
    fn small_sweep_cells_take_the_inline_path() {
        // The cells the cross-jobs digest tests run are all below the
        // inline threshold, so those tests genuinely exercise the
        // inline-small-cell path of the scheduler.
        let sweep = two_scene_sweep();
        let costs = sweep.cell_costs();
        assert!(costs.iter().all(|&c| c < INLINE_COST), "costs: {costs:?}");
        let plan = plan_schedule_with(4, 8, &costs);
        assert_eq!(plan.workers(), 1);
        assert_eq!(plan.inline_cells().len(), costs.len());
    }

    #[test]
    fn sweep_digests_identical_across_job_counts() {
        // The tentpole contract: `--jobs N` is bit-identical to serial.
        let sweep = two_scene_sweep();
        let digests = |jobs: usize| -> Vec<(Arc<str>, SceneId, u64)> {
            sweep
                .run_parallel(jobs)
                .into_iter()
                .map(|c| (c.label, c.scene, c.result.expect("cell completes").state_digest))
                .collect()
        };
        let serial = digests(1);
        assert_eq!(serial.len(), 4);
        // Config-major ordering: both scenes of a label are adjacent.
        assert_eq!(&*serial[0].0, "baseline");
        assert_eq!(&*serial[1].0, "baseline");
        assert_eq!(serial[0].1, SceneId::Wknd);
        assert_eq!(serial[1].1, SceneId::Car);
        assert_eq!(serial, digests(2));
        assert_eq!(serial, digests(4));
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
        assert!(matches!(
            outcomes[1].result,
            Err(SimError::Config(_))
        ));
    }
}
