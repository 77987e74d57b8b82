//! Shared experiment harness for reproducing the paper's tables and
//! figures.
//!
//! Every `fig*`/`tab*`/`abl*` binary in `src/bin/` prepares the
//! sixteen-scene suite once with [`suite`], describes the configurations
//! the corresponding paper experiment compares as one [`Sweep`], runs
//! that grid once with [`run_grid`], and prints the same rows or series
//! the paper reports (plus the paper's published numbers where
//! available, for side-by-side comparison).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod svg;

use rt_scene::{SceneId, Workload};
use std::fmt::Display;
use std::str::FromStr;
use std::time::Instant;
pub use svg::bar_chart;
use treelet_rt::{default_jobs_for, geometric_mean, Bench, BvhCache, SimResult, Sweep};

/// Default scene detail for the experiment suite (full evaluation scale;
/// see `DESIGN.md` for the scaling rationale).
const SUITE_DETAIL: f32 = 1.0;

/// Parses an optional numeric override of the environment variable
/// `var`. Pure (no environment access) so the rejection paths are
/// unit-testable: `None`/empty means "no override", a value that parses
/// and passes `valid` is the override, and anything else is an error
/// naming the bad value and `what` a valid one is — never a silent
/// fallback.
///
/// # Errors
///
/// A human-readable description of why the value was rejected.
fn parse_override<T: FromStr + Display>(
    var: &str,
    raw: Option<&str>,
    what: &str,
    valid: fn(&T) -> bool,
) -> Result<Option<T>, String> {
    let Some(raw) = raw else { return Ok(None) };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<T>() {
        Ok(v) if valid(&v) => Ok(Some(v)),
        Ok(v) => Err(format!("{var}={trimmed} must be {what} (parsed as {v})")),
        Err(_) => Err(format!("{var}={trimmed} is not {what}")),
    }
}

/// The value of the numeric environment override `var` when it is set
/// and valid, otherwise `default`. Unset or empty means no override. An
/// invalid value (a typo such as `0.1x`, or one that `valid` refuses)
/// warns on stderr, naming the value and `what` a valid one is, and
/// falls back to `default` — never silently.
pub fn env_override<T: FromStr + Display>(
    var: &str,
    default: T,
    what: &str,
    valid: fn(&T) -> bool,
) -> T {
    let raw = std::env::var(var).ok();
    match parse_override(var, raw.as_deref(), what, valid) {
        Ok(Some(v)) => v,
        Ok(None) => default,
        Err(why) => {
            eprintln!("warning: ignoring invalid override: {why}; using {default}");
            default
        }
    }
}

/// What a valid `TREELET_DETAIL` is, and the test for it.
const DETAIL_RULE: (&str, fn(&f32) -> bool) =
    ("a finite positive number", |d| d.is_finite() && *d > 0.0);

/// The scene detail every harness binary runs at: the `TREELET_DETAIL`
/// override when it is set and valid, otherwise full detail (1.0). An
/// invalid override (a typo such as `0.1x`, or `0` or `-1`) warns on
/// stderr and falls back to full detail, so it never reaches scene
/// preparation.
pub fn suite_detail() -> f32 {
    let (what, valid) = DETAIL_RULE;
    env_override("TREELET_DETAIL", SUITE_DETAIL, what, valid)
}

/// The sixteen scenes of the paper's Table 2 at [`suite_detail`] with
/// the paper's default workload (32×32 primary rays, 1 SPP).
pub fn suite() -> Vec<Bench> {
    prepare_suite(suite_detail(), Workload::paper_default())
}

/// The sixteen scenes of the paper's Table 2 at `detail` with the given
/// ray workload, in Table 2 order, prepared by [`Bench::prepare_all`] on
/// the machine's worker pool (`RT_JOBS` overriding the worker count) and
/// through the `RT_BVH_CACHE` cache when one is configured. The
/// preparation time and cache hit counts go to stderr.
///
/// # Panics
///
/// Panics with the scene error if `detail` is rejected.
pub fn prepare_suite(detail: f32, workload: Workload) -> Vec<Bench> {
    let t0 = Instant::now();
    let cache = BvhCache::from_env();
    let jobs = default_jobs_for(SceneId::ALL.len());
    let benches = Bench::prepare_all(&SceneId::ALL, detail, workload, jobs, cache.as_ref())
        .unwrap_or_else(|e| panic!("preparing the suite: {e}"));
    match cache {
        Some(c) => eprintln!(
            "suite prepared in {:.1?} ({} cache hits, {} misses)",
            t0.elapsed(),
            c.hits(),
            c.misses()
        ),
        None => eprintln!("suite prepared in {:.1?}", t0.elapsed()),
    }
    benches
}

/// Runs every cell of `sweep` in one [`Sweep::run_parallel`] call on
/// the machine's worker pool (`RT_JOBS` overriding the worker count) and
/// returns one column per config, in config order, each holding the
/// config's results in bench order.
///
/// # Panics
///
/// Panics on the first failed cell in grid order, naming its config
/// label, scene and error. Cells are deterministic, so a rerun fails
/// the same way.
pub fn run_grid(sweep: &Sweep) -> Vec<Vec<SimResult>> {
    let jobs = default_jobs_for(sweep.cell_count());
    let mut cells = sweep.run_parallel(jobs).into_iter().map(|cell| {
        cell.result
            .unwrap_or_else(|e| panic!("config {} on scene {} failed: {e}", cell.label, cell.scene))
    });
    let per_config = sweep.benches().len();
    sweep
        .configs()
        .iter()
        .map(|_| cells.by_ref().take(per_config).collect())
        .collect()
}

/// One row per bench: the speedup of every column after the first over
/// the first (the baseline), as [`run_grid`] returns them.
pub fn speedup_rows(benches: &[Bench], results: &[Vec<SimResult>]) -> Vec<(SceneId, Vec<f64>)> {
    let (base, variants) = results.split_first().expect("a baseline column");
    benches
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let cells = variants.iter().map(|r| r[i].speedup_over(&base[i]));
            (b.scene(), cells.collect())
        })
        .collect()
}

/// The geometric mean of column `col` of `rows`.
pub fn column_gmean(rows: &[(SceneId, Vec<f64>)], col: usize) -> f64 {
    let vals: Vec<f64> = rows.iter().map(|(_, cells)| cells[col]).collect();
    geometric_mean(&vals)
}

/// Prints the speedup of every config of `sweep` after its first over
/// the first, as a scene table titled `title` with one column per
/// config label, then one `label: +x.y%` geometric-mean line per
/// column.
pub fn print_speedups(title: &str, sweep: &Sweep, results: &[Vec<SimResult>]) {
    let rows = speedup_rows(sweep.benches(), results);
    let labels: Vec<&str> = sweep.configs()[1..].iter().map(|(l, _)| &**l).collect();
    print_scene_table(title, &labels, &rows, true);
    for (col, label) in labels.iter().enumerate() {
        println!("{label}: {}", pct(column_gmean(&rows, col)));
    }
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
mod tests {
    use super::*;
    use rt_scene::WorkloadKind;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use treelet_rt::{catch_job_panic, run_weighted, CheckpointOptions, SimConfig, SimError};

    #[test]
    fn pct_formats_paper_style() {
        assert_eq!(pct(1.321), "+32.1%");
        assert_eq!(pct(0.963), "-3.7%");
        assert_eq!(pct(1.0), "+0.0%");
    }

    #[test]
    fn detail_override_parsing_is_strict() {
        let (what, valid) = DETAIL_RULE;
        let parse = |raw| parse_override("TREELET_DETAIL", raw, what, valid);
        assert_eq!(parse(None), Ok(None));
        assert_eq!(parse(Some("")), Ok(None));
        assert_eq!(parse(Some("  ")), Ok(None));
        assert_eq!(parse(Some("0.25")), Ok(Some(0.25)));
        assert_eq!(parse(Some(" 2 ")), Ok(Some(2.0)));
        // Every rejection names the offending value instead of being
        // silently swallowed (the old `.ok().and_then(parse().ok())`
        // fell back to the full-detail suite on a typo).
        for bad in ["0.1x", "abc", "0", "-1", "inf", "NaN"] {
            let err = parse(Some(bad)).unwrap_err();
            assert!(err.contains(bad.trim()), "{bad:?} -> {err}");
            assert!(err.contains(what), "{bad:?} -> {err}");
        }
    }

    #[test]
    fn integer_override_parsing_is_strict() {
        let parse = |raw| parse_override("EVERY", raw, "a positive integer", |&n: &u64| n > 0);
        assert_eq!(parse(None), Ok(None));
        assert_eq!(parse(Some(" 250 ")), Ok(Some(250)));
        for bad in ["10x", "0", "-5", "1.5"] {
            let err = parse(Some(bad)).unwrap_err();
            assert!(err.contains(&format!("EVERY={bad}")), "{bad:?} -> {err}");
            assert!(err.contains("a positive integer"), "{bad:?} -> {err}");
        }
    }

    /// Two tiny scenes crossed with a baseline and a prefetch column.
    fn two_scene_sweep() -> Sweep {
        let workload = Workload::new(WorkloadKind::Primary, 2, 2);
        let benches = [SceneId::Wknd, SceneId::Ship].map(|id| Bench::prepare(id, 0.05, workload));
        Sweep::new(benches.into())
            .with_config("baseline", SimConfig::paper_baseline())
            .with_config("prefetch", SimConfig::paper_treelet_prefetch())
    }

    #[test]
    fn run_grid_returns_one_column_per_config_in_bench_order() {
        let sweep = two_scene_sweep();
        let results = run_grid(&sweep);
        assert_eq!(results.len(), 2);
        for (column, (_, config)) in results.iter().zip(sweep.configs()) {
            let expected: Vec<u64> = sweep
                .benches()
                .iter()
                .map(|b| b.run(config).state_digest)
                .collect();
            let got: Vec<u64> = column.iter().map(|r| r.state_digest).collect();
            assert_eq!(got, expected);
        }
        let rows = speedup_rows(sweep.benches(), &results);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].0, SceneId::Ship);
        assert_eq!(rows[1].1, vec![results[1][1].speedup_over(&results[0][1])]);
    }

    #[test]
    #[should_panic(expected = "config bad on scene WKND failed: invalid simulation config")]
    fn run_grid_panics_naming_the_failed_cell() {
        let mut bad = SimConfig::paper_baseline();
        bad.num_sms = 0;
        let _ = run_grid(&two_scene_sweep().with_config("bad", bad));
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
        // The determinism contract behind `--jobs N` and `idle_skip`, over
        // the whole suite: for both paper configs, every worker count and
        // the naive cycle-by-cycle loop yield the serial run's per-scene
        // cycles and digests, in suite order.
        let benches = prepare_suite(0.1, Workload::new(WorkloadKind::Primary, 16, 16));
        let naive = |config: SimConfig| SimConfig {
            idle_skip: false,
            ..config
        };
        let sweep = Sweep::new(benches)
            .with_config("baseline", SimConfig::paper_baseline())
            .with_config("prefetch", SimConfig::paper_treelet_prefetch())
            .with_config("baseline naive", naive(SimConfig::paper_baseline()))
            .with_config("prefetch naive", naive(SimConfig::paper_treelet_prefetch()));
        let run = |jobs| -> Vec<Vec<(u64, u64)>> {
            let results = sweep.run_parallel(jobs);
            let cells: Vec<(u64, u64)> = results
                .into_iter()
                .map(|c| c.result.expect("cell completes"))
                .map(|r| (r.cycles, r.state_digest))
                .collect();
            cells
                .chunks(SceneId::ALL.len())
                .map(<[_]>::to_vec)
                .collect()
        };
        let serial = run(1);
        assert_eq!(serial.len(), 4);
        assert!(serial
            .iter()
            .all(|column| column.len() == SceneId::ALL.len()));
        assert_eq!(serial, run(4), "--jobs 4");
        assert_eq!(serial[0], serial[2], "baseline, idle_skip = false");
        assert_eq!(serial[1], serial[3], "prefetch, idle_skip = false");
    }

    #[test]
    fn robust_sweep_survives_a_panicking_scene() {
        // Full 16-scene suite at tiny detail with a minimal workload; one
        // scene's cell panics deliberately. Each cell is contained the way
        // `Sweep::run_parallel` contains it, so the other fifteen still
        // report results and the panic becomes that scene's typed error.
        let benches = prepare_suite(0.05, Workload::new(WorkloadKind::Primary, 4, 4));
        let config = SimConfig::paper_baseline();
        let costs: Vec<u64> = benches.iter().map(Bench::estimated_cost).collect();
        let calls = AtomicUsize::new(0);
        // The closures' Err type is the simulator's SimError (128+ bytes);
        // one cell per call, so the large-variant cost does not matter.
        #[allow(clippy::result_large_err)]
        let outcomes = run_weighted(default_jobs_for(benches.len()), &costs, |i| {
            catch_job_panic(i, || {
                calls.fetch_add(1, Ordering::SeqCst);
                if benches[i].scene() == SceneId::Ship {
                    panic!("injected fault");
                }
                benches[i].try_run(&config)
            })
        });
        assert_eq!(outcomes.len(), SceneId::ALL.len());
        // One attempt per scene: a panicking cell is not retried.
        assert_eq!(calls.load(Ordering::SeqCst), SceneId::ALL.len());
        for (b, outcome) in benches.iter().zip(&outcomes) {
            match (b.scene(), outcome) {
                (SceneId::Ship, Err(SimError::WorkerPanicked { message, .. })) => {
                    assert!(message.contains("injected fault"), "message: {message}");
                }
                (scene, Ok(_)) if scene != SceneId::Ship => {}
                (scene, other) => panic!("{scene}: unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn robust_sweep_records_typed_errors_without_retry() {
        let benches = prepare_suite(0.05, Workload::new(WorkloadKind::Primary, 2, 2));
        let mut bad = SimConfig::paper_baseline();
        bad.num_sms = 0;
        let sweep = Sweep::new(benches).with_config("bad", bad);
        let outcomes = sweep.run_parallel(default_jobs_for(sweep.cell_count()));
        // Typed errors are deterministic: one outcome per scene, in suite
        // order, each the config error rather than a contained panic.
        assert_eq!(outcomes.len(), SceneId::ALL.len());
        for (cell, scene) in outcomes.iter().zip(SceneId::ALL) {
            assert_eq!(cell.scene, scene);
            match &cell.result {
                Err(e @ SimError::Config(_)) => {
                    assert!(e.to_string().contains("invalid simulation config"), "{e}");
                }
                other => panic!("{scene}: expected a config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn resumable_sweep_checkpoints_and_reruns_identically() {
        let benches = prepare_suite(0.05, Workload::new(WorkloadKind::Primary, 4, 4));
        let config = SimConfig::paper_treelet_prefetch();
        let dir =
            std::env::temp_dir().join(format!("rt_bench_resumable_sweep_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // Each scene checkpoints into `dir/<scene>.rtsnap` (with a digest
        // log alongside) and resumes from its checkpoint when present.
        let sweep = || -> Vec<(u64, u64)> {
            benches
                .iter()
                .map(|b| {
                    let slug = b.scene().name().to_ascii_lowercase();
                    let opts = CheckpointOptions::new(2_000, dir.join(format!("{slug}.rtsnap")))
                        .with_digest_log(dir.join(format!("{slug}.digests")));
                    let r = b
                        .try_run_resumable(&config, &opts)
                        .expect("scene completes");
                    (r.cycles, r.state_digest)
                })
                .collect()
        };
        let first = sweep();
        // Every scene opened its digest log; scenes that ran past the
        // first epoch also left a checkpoint behind.
        let mut checkpoints = 0;
        for b in &benches {
            let slug = b.scene().name().to_ascii_lowercase();
            assert!(dir.join(format!("{slug}.digests")).exists(), "{slug}");
            checkpoints += usize::from(dir.join(format!("{slug}.rtsnap")).exists());
        }
        assert!(checkpoints > 0, "no scene reached its first epoch");
        // A second sweep resumes from the left-over final checkpoints,
        // replays each scene's tail, and lands on the same state.
        assert_eq!(first, sweep());
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
