//! Shared experiment harness for reproducing the paper's tables and
//! figures.
//!
//! Every `fig*`/`tab*` binary in `src/bin/` prepares the sixteen-scene
//! suite once with [`Suite::prepare`], runs the configurations the
//! corresponding paper experiment compares, and prints the same rows or
//! series the paper reports (plus the paper's published numbers where
//! available, for side-by-side comparison).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod svg;

use rt_scene::{SceneId, Workload};
use std::time::Instant;
pub use svg::bar_chart;
use treelet_rt::{
    catch_job_panic, default_jobs_for, geometric_mean, run_weighted, Bench, BvhCache, SimConfig,
    SimError, SimResult,
};

/// Default scene detail for the experiment suite (full evaluation scale;
/// see `DESIGN.md` for the scaling rationale).
pub const SUITE_DETAIL: f32 = 1.0;

/// Parses an optional `TREELET_DETAIL`-style override. Pure (no
/// environment access) so the rejection paths are unit-testable:
/// `None`/empty means "no override", a finite positive number is the
/// override, and anything else is an error naming the bad value —
/// never a silent fallback.
///
/// # Errors
///
/// A human-readable description of why the value was rejected.
fn parse_detail_override(raw: Option<&str>) -> Result<Option<f32>, String> {
    let Some(raw) = raw else { return Ok(None) };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<f32>() {
        Ok(d) if d.is_finite() && d > 0.0 => Ok(Some(d)),
        Ok(d) => Err(format!(
            "TREELET_DETAIL={trimmed} must be a finite positive number (parsed as {d})"
        )),
        Err(_) => Err(format!("TREELET_DETAIL={trimmed} is not a number")),
    }
}

/// The suite detail to use: the `TREELET_DETAIL` override when it is
/// set and valid, otherwise [`SUITE_DETAIL`]. An unparseable override
/// warns on stderr (it used to be silently ignored — a typo'd
/// `TREELET_DETAIL=0.1x` would quietly run the full-detail suite for
/// minutes) and falls back to the default.
fn suite_detail_from_env() -> f32 {
    let raw = std::env::var("TREELET_DETAIL").ok();
    match parse_detail_override(raw.as_deref()) {
        Ok(Some(detail)) => detail,
        Ok(None) => SUITE_DETAIL,
        Err(why) => {
            eprintln!("warning: ignoring invalid detail override: {why}; using {SUITE_DETAIL}");
            SUITE_DETAIL
        }
    }
}

/// The sixteen-scene evaluation suite, prepared once and reused across
/// configurations.
#[derive(Debug)]
pub struct Suite {
    benches: Vec<Bench>,
}

impl Suite {
    /// Prepares every scene of the paper's Table 2 at `detail` with the
    /// given ray workload, printing progress to stderr: preparation is
    /// sharded across the cost-model scheduler (biggest scenes first,
    /// `RT_JOBS` overriding the worker count) and served from the
    /// `RT_BVH_CACHE` cache when one is configured.
    pub fn prepare(detail: f32, workload: Workload) -> Suite {
        let jobs = default_jobs_for(SceneId::ALL.len());
        Suite::prepare_with(detail, workload, jobs, BvhCache::from_env().as_ref())
    }

    /// Prepares the suite on `jobs` workers, through `cache` if given.
    ///
    /// Scene generation, BVH construction, and ray generation for each
    /// scene are independent and deterministic, so the cells shard
    /// across the same cost-model scheduler the simulations use —
    /// planned by the paper's Table 2 tree sizes (the best available
    /// estimate before any tree is built) so the heaviest builds start
    /// first. Results come back in suite order, and every bench is
    /// bit-identical to a serial, uncached preparation at any worker
    /// count: the cache stores the exact built artifact, and each cell
    /// is single-threaded.
    ///
    /// Progress is one complete `eprintln!` line per scene emitted from
    /// this harness (never a split `eprint!` pair that would interleave
    /// across workers), plus a summary with cache hit counts.
    ///
    /// # Panics
    ///
    /// Panics with the scene's [`SceneError`](rt_scene::SceneError)
    /// message if `detail` is rejected.
    fn prepare_with(
        detail: f32,
        workload: Workload,
        jobs: usize,
        cache: Option<&BvhCache>,
    ) -> Suite {
        let t0 = Instant::now();
        let scenes = SceneId::ALL;
        let costs = Bench::prepare_costs(&scenes);
        let benches = run_weighted(jobs, &costs, |i| {
            let id = scenes[i];
            let c0 = Instant::now();
            let bench = match Bench::try_prepare_cached(id, detail, workload, cache) {
                Ok(bench) => bench,
                Err(e) => panic!("preparing {id}: {e}"),
            };
            eprintln!(
                "prepared {id}: {} triangles, {} nodes in {:.1?}",
                bench.bvh().triangles().len(),
                bench.bvh().node_count(),
                c0.elapsed()
            );
            bench
        });
        match cache {
            Some(c) => eprintln!(
                "suite prepared in {:.1?} ({} cache hits, {} misses)",
                t0.elapsed(),
                c.hits(),
                c.misses()
            ),
            None => eprintln!("suite prepared in {:.1?}", t0.elapsed()),
        }
        Suite { benches }
    }

    /// Prepares the suite with the paper's default workload (32×32
    /// primary rays, 1 SPP) at the default detail, honoring the
    /// `TREELET_DETAIL` environment variable for quick runs (an invalid
    /// value warns on stderr and falls back to [`SUITE_DETAIL`]).
    pub fn prepare_default() -> Suite {
        Suite::prepare(suite_detail_from_env(), Workload::paper_default())
    }

    /// The prepared per-scene benches, in Table 2 order.
    pub fn benches(&self) -> &[Bench] {
        &self.benches
    }

    /// Per-scene cost estimates in suite order — the inputs the
    /// cost-model scheduler plans with (see [`run_weighted`]).
    fn scene_costs(&self) -> Vec<u64> {
        self.benches.iter().map(Bench::estimated_cost).collect()
    }

    /// Runs `config` on every scene, in suite order. Scenes are sharded
    /// across the machine's worker pool (each simulation itself is
    /// deterministic and single-threaded, so results are identical to a
    /// serial run). The pool never exceeds the scene count or the
    /// machine's core count.
    ///
    /// # Panics
    ///
    /// Panics with the failing scene's recorded reason if any scene
    /// fails.
    // A 16-scene suite makes the `SimError` payload size irrelevant.
    #[allow(clippy::result_large_err)]
    pub fn run_all(&self, config: &SimConfig) -> Vec<SimResult> {
        let jobs = default_jobs_for(self.benches.len());
        self.run_with(jobs, |_, b| b.try_run(config))
            .into_iter()
            .map(|outcome| match outcome {
                SceneOutcome::Completed { result } => result,
                SceneOutcome::Failed { scene, reason } => {
                    panic!("scene {scene} failed: {reason}")
                }
            })
            .collect()
    }

    /// Runs `run(index, bench)` on every scene across `jobs` workers,
    /// recording failures instead of propagating them: a scene that
    /// returns a [`SimError`] or panics is reported as
    /// [`SceneOutcome::Failed`] while the other scenes' results survive.
    /// A panicking scene is retried once (a typed error is
    /// deterministic, so it is not); retries are surfaced on stderr.
    ///
    /// Scenes are scheduled by the cost model ([`run_weighted`]): each
    /// scene's estimated cost is its ray count × its tree's SAH-expected
    /// node visits per ray ([`Bench::estimated_cost`]), scenes are
    /// claimed one at a time longest-first, and the worker count is
    /// clamped to the machine's core count. Outcomes come back
    /// in suite order regardless of which scene finished first, and any
    /// worker count produces bit-identical per-scene results — including
    /// their [`state_digest`](SimResult::state_digest)s.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero. Panics *inside* `run` are contained per
    /// scene as typed [`SimError::WorkerPanicked`] failures — they never
    /// unwind through the pool, so one poisoned scene cannot take the
    /// rest of the sweep with it.
    #[allow(clippy::result_large_err)]
    fn run_with<F>(&self, jobs: usize, run: F) -> Vec<SceneOutcome>
    where
        F: Fn(usize, &Bench) -> Result<SimResult, SimError> + Sync,
    {
        let costs = self.scene_costs();
        run_weighted(jobs, &costs, |i| {
            let b = &self.benches[i];
            let mut attempts = 1;
            let mut attempt = catch_job_panic(i, || run(i, b));
            if matches!(attempt, Err(SimError::WorkerPanicked { .. })) {
                // A panic may be environmental (e.g. stack exhaustion
                // under thread contention); give the scene one more
                // chance before recording it as lost. Typed errors are
                // deterministic and are not retried.
                attempts = 2;
                attempt = catch_job_panic(i, || run(i, b));
            }
            match attempt {
                Ok(result) => {
                    if attempts > 1 {
                        eprintln!("scene {} completed on attempt {attempts}", b.scene());
                    }
                    SceneOutcome::Completed { result }
                }
                Err(e) => {
                    eprintln!(
                        "scene {} failed after {attempts} attempt(s): {e}",
                        b.scene()
                    );
                    SceneOutcome::Failed {
                        scene: b.scene(),
                        reason: e.to_string(),
                    }
                }
            }
        })
    }
}

/// What happened to one scene of a [`Suite::run_with`] sweep.
// One outcome per scene: the size gap between a full `SimResult` and a
// failure record doesn't matter at this cardinality.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum SceneOutcome {
    /// The simulation finished and produced a result.
    Completed {
        /// The scene's result.
        result: SimResult,
    },
    /// The simulation returned an error or panicked; the sweep went on
    /// without it.
    Failed {
        /// The scene that was lost.
        scene: SceneId,
        /// The `SimError` message or panic payload.
        reason: String,
    },
}

/// Slugifies a table title into a file-name-safe stem.
fn slugify(title: &str) -> String {
    let mut out = String::new();
    let mut last_dash = true;
    for ch in title.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch.to_ascii_lowercase());
            last_dash = false;
        } else if !last_dash {
            out.push('-');
            last_dash = true;
        }
    }
    out.trim_matches('-').to_string()
}

/// Writes a table as CSV into `dir` (one file per table, named from the
/// title).
///
/// # Errors
///
/// Returns any I/O error from creating or writing the file.
fn write_csv(
    dir: &std::path::Path,
    title: &str,
    columns: &[&str],
    rows: &[(SceneId, Vec<f64>)],
) -> std::io::Result<std::path::PathBuf> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.csv", slugify(title)));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    write!(file, "scene")?;
    for c in columns {
        write!(file, ",{}", slugify(c))?;
    }
    writeln!(file)?;
    for (scene, cells) in rows {
        write!(file, "{}", scene.name())?;
        for v in cells {
            write!(file, ",{v}")?;
        }
        writeln!(file)?;
    }
    Ok(path)
}

/// Prints a table: a header row, one row per scene, and (optionally) a
/// geometric-mean row, matching how the paper reports per-scene series.
/// When the `TREELET_CSV_DIR` environment variable is set, the table is
/// also written there as CSV for plotting.
pub fn print_scene_table(title: &str, columns: &[&str], rows: &[(SceneId, Vec<f64>)], gmean: bool) {
    if let Ok(dir) = std::env::var("TREELET_CSV_DIR") {
        match write_csv(std::path::Path::new(&dir), title, columns, rows) {
            Ok(path) => eprintln!("csv written: {}", path.display()),
            Err(e) => eprintln!("csv write failed: {e}"),
        }
    }
    println!("\n== {title} ==");
    print!("{:<7}", "Scene");
    for c in columns {
        print!(" {c:>14}");
    }
    println!();
    for (scene, cells) in rows {
        print!("{:<7}", scene.name());
        for v in cells {
            print!(" {v:>14.4}");
        }
        println!();
    }
    if gmean && !rows.is_empty() {
        print!("{:<7}", "GMean");
        for col in 0..columns.len() {
            let vals: Vec<f64> = rows.iter().map(|(_, cells)| cells[col]).collect();
            if vals.iter().all(|&v| v > 0.0) {
                print!(" {:>14.4}", geometric_mean(&vals));
            } else {
                print!(" {:>14}", "-");
            }
        }
        println!();
    }
}

/// Formats a speedup as the percentage the paper quotes (`1.321` →
/// `+32.1%`).
pub fn pct(speedup: f64) -> String {
    format!("{:+.1}%", (speedup - 1.0) * 100.0)
}

#[cfg(test)]
#[allow(clippy::result_large_err)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Mutex;
    use treelet_rt::{encode_prepared_bench, CheckpointOptions};

    impl SceneOutcome {
        /// The result, if the scene completed.
        fn result(&self) -> Option<&SimResult> {
            match self {
                SceneOutcome::Completed { result } => Some(result),
                SceneOutcome::Failed { .. } => None,
            }
        }

        /// Whether the scene completed.
        fn is_completed(&self) -> bool {
            matches!(self, SceneOutcome::Completed { .. })
        }
    }

    /// Counts the runner invocations each scene gets, so the retry tests
    /// can see how many attempts [`Suite::run_with`] made.
    #[derive(Default)]
    struct Attempts(Mutex<HashMap<SceneId, u32>>);

    impl Attempts {
        /// Records one invocation for `scene`; returns its attempt number.
        fn record(&self, scene: SceneId) -> u32 {
            let mut counts = self.0.lock().unwrap();
            let n = counts.entry(scene).or_default();
            *n += 1;
            *n
        }

        /// How many invocations `scene` got.
        fn of(&self, scene: SceneId) -> u32 {
            self.0.lock().unwrap().get(&scene).copied().unwrap_or(0)
        }
    }

    #[test]
    fn pct_formats_paper_style() {
        assert_eq!(pct(1.321), "+32.1%");
        assert_eq!(pct(0.963), "-3.7%");
        assert_eq!(pct(1.0), "+0.0%");
    }

    #[test]
    fn detail_override_parsing_is_strict() {
        assert_eq!(parse_detail_override(None), Ok(None));
        assert_eq!(parse_detail_override(Some("")), Ok(None));
        assert_eq!(parse_detail_override(Some("  ")), Ok(None));
        assert_eq!(parse_detail_override(Some("0.25")), Ok(Some(0.25)));
        assert_eq!(parse_detail_override(Some(" 2 ")), Ok(Some(2.0)));
        // Every rejection names the offending value instead of being
        // silently swallowed (the old `.ok().and_then(parse().ok())`
        // fell back to the full-detail suite on a typo).
        for bad in ["0.1x", "abc", "0", "-1", "inf", "NaN"] {
            let err = parse_detail_override(Some(bad)).unwrap_err();
            assert!(err.contains(bad.trim()), "{bad:?} -> {err}");
        }
    }

    /// Per-bench serialized artifact bytes — the bit-identity oracle
    /// for preparation paths (covers nodes, triangles, rays, and the
    /// default treelet assignment).
    fn prepared_digests(suite: &Suite) -> Vec<Vec<u8>> {
        suite
            .benches()
            .iter()
            .map(|b| encode_prepared_bench(b, 0))
            .collect()
    }

    #[test]
    fn cold_warm_parallel_prepares_are_bit_identical() {
        let dir =
            std::env::temp_dir().join(format!("rt_bench_prepare_cache_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let workload = Workload::new(rt_scene::WorkloadKind::Primary, 4, 4);
        let detail = 0.05;
        // Cold serial prepare populates the cache.
        let cold_cache = BvhCache::open(&dir).unwrap();
        let cold = Suite::prepare_with(detail, workload, 1, Some(&cold_cache));
        // Parallel uncached prepare.
        let parallel = Suite::prepare_with(detail, workload, 4, None);
        // Warm parallel prepare must be all hits.
        let warm_cache = BvhCache::open(&dir).unwrap();
        let warm = Suite::prepare_with(detail, workload, 4, Some(&warm_cache));
        assert_eq!(
            (warm_cache.hits(), warm_cache.misses()),
            (SceneId::ALL.len() as u64, 0),
            "warm prepare must be served entirely from cache"
        );
        let cold_d = prepared_digests(&cold);
        assert_eq!(cold_d, prepared_digests(&parallel));
        assert_eq!(cold_d, prepared_digests(&warm));
        // And the acceptance-level oracle: simulation state digests are
        // bit-identical regardless of how the suite was prepared.
        let config = SimConfig::paper_baseline();
        let from_cold = cold.run_with(1, |_, b| b.try_run(&config));
        let from_warm = warm.run_with(4, |_, b| b.try_run(&config));
        for (a, b) in from_cold.iter().zip(&from_warm) {
            let (a, b) = (a.result().unwrap(), b.result().unwrap());
            assert_eq!(a.state_digest, b.state_digest);
            assert_eq!(a.cycles, b.cycles);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn slugify_makes_file_stems() {
        assert_eq!(
            slugify("Fig. 7: speedup and power (ALWAYS)"),
            "fig-7-speedup-and-power-always"
        );
        assert_eq!(slugify("   "), "");
    }

    #[test]
    fn write_csv_round_trip() {
        let dir = std::env::temp_dir().join("rt_bench_csv_test");
        let rows = vec![
            (SceneId::Wknd, vec![1.0, 2.5]),
            (SceneId::Car, vec![0.5, 4.0]),
        ];
        let path = write_csv(&dir, "Test table: one", &["a", "b x"], &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "scene,a,b-x\nWKND,1,2.5\nCAR,0.5,4\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallel_suite_digests_match_serial() {
        // The determinism contract behind `--jobs N` and `idle_skip`: for
        // both paper configs, every worker count and the naive
        // cycle-by-cycle loop yield the serial run's per-scene cycles and
        // digests, in suite order.
        let suite = Suite::prepare(0.1, Workload::new(rt_scene::WorkloadKind::Primary, 16, 16));
        for config in [
            SimConfig::paper_baseline(),
            SimConfig::paper_treelet_prefetch(),
        ] {
            let no_skip = SimConfig {
                idle_skip: false,
                ..config.clone()
            };
            let run = |jobs, config: &SimConfig| -> Vec<(u64, u64)> {
                suite
                    .run_with(jobs, |_, b| b.try_run(config))
                    .iter()
                    .map(|o| o.result().unwrap())
                    .map(|r| (r.cycles, r.state_digest))
                    .collect()
            };
            let serial = run(1, &config);
            assert_eq!(serial.len(), SceneId::ALL.len());
            assert_eq!(serial, run(4, &config), "--jobs 4");
            assert_eq!(serial, run(4, &no_skip), "idle_skip = false");
        }
    }

    #[test]
    fn robust_sweep_survives_a_panicking_scene() {
        // Full 16-scene suite at tiny detail with a minimal workload; one
        // scene's runner panics deliberately. The other fifteen must
        // still report results.
        let suite = Suite::prepare(0.05, Workload::new(rt_scene::WorkloadKind::Primary, 4, 4));
        let config = SimConfig::paper_baseline();
        let attempts = Attempts::default();
        let outcomes = suite.run_with(default_jobs_for(SceneId::ALL.len()), |_, b| {
            attempts.record(b.scene());
            if b.scene() == SceneId::Ship {
                panic!("injected fault");
            }
            b.try_run(&config)
        });
        assert_eq!(outcomes.len(), SceneId::ALL.len());
        let completed = outcomes.iter().filter(|o| o.is_completed()).count();
        assert_eq!(completed, SceneId::ALL.len() - 1);
        let failed: Vec<_> = outcomes.iter().filter(|o| !o.is_completed()).collect();
        match failed.as_slice() {
            [SceneOutcome::Failed { scene, reason }] => {
                assert_eq!(*scene, SceneId::Ship);
                assert!(reason.contains("injected fault"), "reason: {reason}");
                // A panicking scene gets its one retry before being lost.
                assert_eq!(attempts.of(SceneId::Ship), 2);
            }
            other => panic!("expected exactly one failure, got {other:?}"),
        }
        // Scenes that never panicked completed on their first attempt.
        for scene in SceneId::ALL.into_iter().filter(|&s| s != SceneId::Ship) {
            assert_eq!(attempts.of(scene), 1, "{scene}");
        }
    }

    #[test]
    fn robust_sweep_records_typed_errors_without_retry() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let suite = Suite::prepare(0.05, Workload::new(rt_scene::WorkloadKind::Primary, 2, 2));
        let calls = AtomicUsize::new(0);
        let mut bad = SimConfig::paper_baseline();
        bad.num_sms = 0;
        let outcomes = suite.run_with(default_jobs_for(SceneId::ALL.len()), |_, b| {
            calls.fetch_add(1, Ordering::SeqCst);
            b.try_run(&bad)
        });
        // Typed errors are deterministic: one attempt per scene, no retry.
        assert_eq!(calls.load(Ordering::SeqCst), SceneId::ALL.len());
        assert!(outcomes.iter().all(|o| !o.is_completed()));
        for o in &outcomes {
            if let SceneOutcome::Failed { reason, .. } = o {
                assert!(reason.contains("invalid simulation config"));
            }
        }
    }

    #[test]
    fn robust_sweep_retries_a_transient_panic() {
        let suite = Suite::prepare(0.05, Workload::new(rt_scene::WorkloadKind::Primary, 2, 2));
        let config = SimConfig::paper_baseline();
        let attempts = Attempts::default();
        let outcomes = suite.run_with(default_jobs_for(SceneId::ALL.len()), |_, b| {
            if attempts.record(b.scene()) == 1 {
                panic!("transient");
            }
            b.try_run(&config)
        });
        // Every scene panicked on its first attempt and succeeded on the
        // retry, so the whole sweep still completes — in two attempts.
        assert!(outcomes.iter().all(|o| o.is_completed()));
        assert!(SceneId::ALL.into_iter().all(|s| attempts.of(s) == 2));
    }

    #[test]
    fn resumable_sweep_checkpoints_and_reruns_identically() {
        let suite = Suite::prepare(0.05, Workload::new(rt_scene::WorkloadKind::Primary, 4, 4));
        let config = SimConfig::paper_treelet_prefetch();
        let dir =
            std::env::temp_dir().join(format!("rt_bench_resumable_sweep_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // Each scene checkpoints into `dir/<scene>.rtsnap` (with a digest
        // log alongside) and resumes from its checkpoint when present.
        let resumable = |_: usize, b: &Bench| {
            let slug = b.scene().name().to_ascii_lowercase();
            let opts = CheckpointOptions::new(2_000, dir.join(format!("{slug}.rtsnap")))
                .with_digest_log(dir.join(format!("{slug}.digests")));
            b.try_run_resumable(&config, &opts)
        };
        let jobs = default_jobs_for(SceneId::ALL.len());
        let first = suite.run_with(jobs, resumable);
        assert!(first.iter().all(|o| o.is_completed()));
        // Every scene opened its digest log; scenes that ran past the
        // first epoch also left a checkpoint behind.
        let mut checkpoints = 0;
        for b in suite.benches() {
            let slug = b.scene().name().to_ascii_lowercase();
            assert!(dir.join(format!("{slug}.digests")).exists(), "{slug}");
            checkpoints += usize::from(dir.join(format!("{slug}.rtsnap")).exists());
        }
        assert!(checkpoints > 0, "no scene reached its first epoch");
        // A second sweep resumes from the left-over final checkpoints,
        // replays each scene's tail, and lands on the same state.
        let second = suite.run_with(jobs, resumable);
        for (a, b) in first.iter().zip(&second) {
            let (a, b) = (a.result().unwrap(), b.result().unwrap());
            assert_eq!(a.state_digest, b.state_digest);
            assert_eq!(a.cycles, b.cycles);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn print_scene_table_smoke() {
        // Printing must not panic on normal and empty row sets.
        print_scene_table(
            "test",
            &["a", "b"],
            &[
                (SceneId::Wknd, vec![1.0, 2.0]),
                (SceneId::Ship, vec![0.5, 4.0]),
            ],
            true,
        );
        print_scene_table("empty", &["a"], &[], true);
    }
}
