//! `rtbench` — the repository's benchmark.
//!
//! ```text
//! rtbench --workload NAME --seed N [--seconds S] [--trace 0|1] [--bless]
//! rtbench --seed N [--seconds S] [--trace 0|1]      every workload, one child process each
//! rtbench compare PARENT_DIR CHANGE_DIR             verdicts from >= 10 paired runs
//! rtbench summarize SET_DIR...                      medians and quartiles as JSON
//! ```
//!
//! A workload run prints `workload metric value unit` lines and, last,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. It exits 0 when every check passed, 1 when one failed
//! (after printing every metric), and 2 when it could not measure.

// Per-cell results carry the simulator's own `SimError` (128+ bytes with
// its progress snapshot); a cell is milliseconds of work, so the size of
// its error variant is irrelevant here.
#![allow(clippy::result_large_err)]

mod compare;
mod golden;
mod host;
mod layers;
mod metrics;
mod reference;
mod sim;
mod stats;
mod trace;

use metrics::Outcome;
use rt_served::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = [sim::ALL[0].name, sim::ALL[1].name, sim::ALL[2].name];

/// `--seconds` when not given (`run_seconds`). It sets how much work a
/// run measures: each workload makes as many timed passes as take this
/// long on the reference host.
const DEFAULT_SECONDS: f64 = 12.0;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: golden::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        bless: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w} (expected one of {WORKLOADS:?})"
                    ));
                }
                parsed.workload = Some(w.clone());
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--bless" => parsed.bless = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.bless && parsed.trace {
        return Err("--bless needs --trace 0".to_string());
    }
    Ok(parsed)
}

fn benchmark_json() -> PathBuf {
    host::package_dir().join("..").join("BENCHMARK.json")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => {
            compare::compare(&benchmark_json(), Path::new(&args[1]), Path::new(&args[2])).map(
                |ok| {
                    if ok {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::from(1)
                    }
                },
            )
        }
        Some("summarize") if args.len() >= 2 => {
            let sets: Vec<PathBuf> = args[1..].iter().map(PathBuf::from).collect();
            compare::summarize(&benchmark_json(), &sets).map(|()| ExitCode::SUCCESS)
        }
        Some("compare" | "summarize") => {
            Err("usage: rtbench compare A/ B/ | rtbench summarize SET...".to_string())
        }
        _ => parse_args(&args).map(|a| match &a.workload {
            Some(w) => run_workload(w, &a),
            None => run_all(&a),
        }),
    };
    result.unwrap_or_else(|e| {
        eprintln!("rtbench: {e}");
        ExitCode::from(2)
    })
}

/// Runs one workload in this process and reports it.
fn run_workload(workload: &str, args: &Args) -> ExitCode {
    let out = host::out_dir(args.seed);
    let scratch = out.join(format!("work-{workload}-{}", std::process::id()));
    let tracer = Tracer::new();
    let measured = std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("{}: {e}", scratch.display()))
        .and_then(|()| measure(workload, args, &scratch, &tracer));
    let _ = std::fs::remove_dir_all(&scratch);
    match measured.and_then(|o| report(workload, args, &o, &tracer).map(|()| o)) {
        Ok(outcome) if outcome.correct() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("rtbench: {workload}: {e}");
            ExitCode::from(2)
        }
    }
}

fn measure(workload: &str, a: &Args, scratch: &Path, tracer: &Tracer) -> Result<Outcome, String> {
    let spec = sim::ALL
        .into_iter()
        .find(|s| s.name == workload)
        .ok_or(format!("unknown workload {workload}"))?;
    if a.trace {
        sim::run_traced(spec, a.seed, a.seconds, scratch, tracer)
    } else {
        sim::run(spec, a.seed, a.seconds, scratch, a.bless)
    }
}

/// Prints the metric lines and the result line, and records the run in
/// `out/<seed>/results.json` (and the spans in `trace-<workload>.json`).
fn report(workload: &str, a: &Args, outcome: &Outcome, tracer: &Tracer) -> Result<(), String> {
    let rows = outcome.rows(a.trace)?;
    for p in &outcome.problems {
        eprintln!("rtbench: {workload}: FAILED {p}");
    }
    for (name, value, unit) in &rows {
        println!("{workload} {name} {value} {unit}");
    }
    let line = outcome.line(&rows);
    let out = host::out_dir(a.seed);
    if a.trace {
        let path = out.join(format!("trace-{workload}.json"));
        treelet_rt::write_atomic(&path, trace::to_json(&tracer.spans()).encode().as_bytes())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    record(&out.join("results.json"), workload, a, &line)?;
    println!("{}", line.encode());
    Ok(())
}

/// Merges this run's result line into the seed's `results.json`.
fn record(path: &Path, workload: &str, a: &Args, line: &Json) -> Result<(), String> {
    let mut doc = match std::fs::read_to_string(path)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
    {
        Some(Json::Obj(fields)) => fields,
        _ => BTreeMap::new(),
    };
    doc.insert("seed".to_string(), Json::num(a.seed));
    doc.insert("seconds".to_string(), Json::Num(a.seconds));
    doc.insert("nproc".to_string(), Json::num(host::nproc() as u64));
    doc.insert("rustc".to_string(), Json::str(host::rustc_version()));
    doc.insert("git_rev".to_string(), Json::str(host::git_rev()));
    let workloads = doc
        .entry("workloads".to_string())
        .or_insert_with(|| Json::Obj(BTreeMap::new()));
    if let Json::Obj(w) = workloads {
        let entry = w
            .entry(workload.to_string())
            .or_insert_with(|| Json::Obj(BTreeMap::new()));
        if let Json::Obj(e) = entry {
            let key = if a.trace { "per_layer" } else { "end_to_end" };
            e.insert(key.to_string(), line.clone());
        }
    }
    treelet_rt::write_atomic(path, Json::Obj(doc).encode().as_bytes())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs every workload in a child process of its own, so that each
/// `peak_rss_mb` is that workload's alone.
fn run_all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("rtbench: cannot find this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = Vec::new();
    for w in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }]);
        if a.bless {
            cmd.arg("--bless");
        }
        // The child's stdout and stderr pass through.
        if !cmd.status().is_ok_and(|s| s.success()) {
            failed.push(w);
        }
    }
    let results = host::out_dir(a.seed).join("results.json");
    if failed.is_empty() {
        eprintln!(
            "rtbench: every workload correct; results in {}",
            results.display()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "rtbench: FAILED {failed:?}; results in {}",
            results.display()
        );
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_match_benchmark_json() {
        let text = std::fs::read_to_string(benchmark_json()).unwrap();
        let doc = Json::parse(&text).unwrap();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn args_parse_and_reject_garbage() {
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let a = parse_args(&s(&[
            "--workload",
            "primary_32",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("primary_32"), 7, 3.0, true)
        );
        assert!(parse_args(&s(&["--workload", "nope"])).is_err());
        assert!(parse_args(&s(&["--trace", "2"])).is_err());
        assert!(parse_args(&s(&["--seconds", "0"])).is_err());
        assert!(parse_args(&s(&["--seed"])).is_err());
        assert!(parse_args(&s(&["--bless", "--trace", "1"])).is_err());
    }

    #[test]
    fn seed_moves_diffuse_rays_but_not_primary_rays() {
        let scene = rt_scene::Scene::try_build_with_detail(rt_scene::SceneId::Wknd, 0.05).unwrap();
        let rays = |spec: &sim::SimSpec, seed| spec.workload(seed).generate(&scene);
        assert_eq!(rays(&sim::PRIMARY_32, 1), rays(&sim::PRIMARY_32, 2));
        assert_eq!(
            rays(&sim::BASELINE_128_PAR, 1),
            rays(&sim::BASELINE_128_PAR, 9)
        );
        assert_ne!(
            rays(&sim::DIFFUSE_48_PREFETCH, 1),
            rays(&sim::DIFFUSE_48_PREFETCH, 2)
        );
        assert_eq!(
            rays(&sim::DIFFUSE_48_PREFETCH, 3),
            rays(&sim::DIFFUSE_48_PREFETCH, 3)
        );
    }

    #[test]
    fn pass_counts_depend_on_seconds_alone() {
        // 20 s of 0.75 s passes, and the floor that leaves ten cell
        // times beyond p75 on a 16-cell workload.
        assert_eq!(sim::PRIMARY_32.passes(20.0), 27);
        assert_eq!(sim::DIFFUSE_48_PREFETCH.passes(1.0), 3);
    }
}
