//! `rtbench compare` and `rtbench summarize`: judging a change from
//! repeated runs, by the rule the benchmark's bounds are written for.
//!
//! A run set is a directory holding one `results.json` per run (the
//! `benchmark/out/` tree after runs with seeds 1..=N). Two sets are
//! paired run by run through the files' relative paths.

use crate::stats;
use rt_served::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Fewest pairs `compare` judges from.
pub const MIN_PAIRS: usize = 10;

/// How a change compares with its parent on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change won at least 9 of 10 pairs and the medians differ by
    /// more than the parent's interquartile range.
    Better,
    /// The change's median is within the bound of the parent's.
    Unchanged,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Worse,
    /// The parent's own spread is wider than the bound (or there are
    /// too few pairs), so the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `change` against `parent`, paired index by index.
/// `higher_is_better` gives the metric's direction and `bound` the share
/// of the parent's median by which it may worsen.
pub fn verdict(parent: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let pairs = parent.len().min(change.len());
    if pairs < MIN_PAIRS {
        return Verdict::Unresolved;
    }
    let (parent, change) = (&parent[..pairs], &change[..pairs]);
    // Positive when the change reads better.
    let gain = |p: f64, c: f64| if higher_is_better { c - p } else { p - c };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| gain(p, c) > 0.0)
        .count();
    let (mp, mc) = (stats::median(parent), stats::median(change));
    let spread = stats::iqr(parent);
    if wins * 10 >= pairs * 9 && gain(mp, mc) > spread {
        return Verdict::Better;
    }
    if spread > bound * mp.abs() {
        return Verdict::Unresolved;
    }
    if -gain(mp, mc) > bound * mp.abs() {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

/// Every `results.json` under `dir`, by path relative to `dir`.
fn load_set(dir: &Path) -> Result<BTreeMap<PathBuf, Json>, String> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<PathBuf, Json>) -> Result<(), String> {
        let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(root, &path, out)?;
            } else if path.file_name().is_some_and(|n| n == "results.json") {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
                let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
                out.insert(rel, doc);
            }
        }
        Ok(())
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out)?;
    if out.is_empty() {
        return Err(format!("{}: no results.json found", dir.display()));
    }
    Ok(out)
}

/// The end-to-end value of `metric` on `workload` in one run record.
fn value(run: &Json, workload: &str, metric: &str) -> Option<f64> {
    run.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// A declared end-to-end metric: name, whether higher is better, bound.
type Declared = (String, bool, f64);

/// The end-to-end metrics and workloads `BENCHMARK.json` declares.
fn declared(benchmark_json: &Path) -> Result<(Vec<Declared>, Vec<String>), String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json has no {key}"))
    };
    let metrics = list("end_to_end")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b), Some(x)) => Ok((n.to_string(), b == "higher", x)),
                _ => Err(format!(
                    "BENCHMARK.json: malformed end_to_end entry {}",
                    m.encode()
                )),
            }
        })
        .collect::<Result<_, _>>()?;
    let workloads = list("workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    Ok((metrics, workloads))
}

fn fmt_quartiles(values: &[f64]) -> String {
    let [q1, m, q3] = stats::quartiles(values);
    format!("{m:.6} [{q1:.6}, {q3:.6}]")
}

/// `rtbench compare PARENT CHANGE`: one verdict per (workload, metric).
/// Returns whether no pairing got worse.
pub fn compare(
    benchmark_json: &Path,
    parent_dir: &Path,
    change_dir: &Path,
) -> Result<bool, String> {
    let (metrics, workloads) = declared(benchmark_json)?;
    let (parent, change) = (load_set(parent_dir)?, load_set(change_dir)?);
    let paired: Vec<(&Json, &Json)> = parent
        .iter()
        .filter_map(|(rel, p)| change.get(rel).map(|c| (p, c)))
        .collect();
    println!("{} paired runs", paired.len());
    println!("workload metric verdict wins/pairs parent_median [q1, q3] change_median [q1, q3]");
    let mut ok = true;
    for workload in &workloads {
        for (metric, higher, bound) in &metrics {
            let (mut p, mut c) = (Vec::new(), Vec::new());
            for (pr, cr) in &paired {
                if let (Some(a), Some(b)) =
                    (value(pr, workload, metric), value(cr, workload, metric))
                {
                    p.push(a);
                    c.push(b);
                }
            }
            if p.is_empty() {
                println!("{workload} {metric} unresolved 0/0 (no paired values)");
                continue;
            }
            let v = verdict(&p, &c, *higher, *bound);
            ok &= v != Verdict::Worse;
            let wins = p
                .iter()
                .zip(&c)
                .filter(|&(a, b)| if *higher { b > a } else { b < a })
                .count();
            println!(
                "{workload} {metric} {} {wins}/{} {} {}",
                v.as_str(),
                p.len(),
                fmt_quartiles(&p),
                fmt_quartiles(&c)
            );
        }
    }
    Ok(ok)
}

/// `rtbench summarize SET...`: per set, workload and end-to-end metric,
/// the median, quartiles, spread (IQR over median) and run count, as
/// one JSON document on stdout.
pub fn summarize(benchmark_json: &Path, sets: &[PathBuf]) -> Result<(), String> {
    let (metrics, workloads) = declared(benchmark_json)?;
    let mut out_sets = Vec::new();
    let mut host = (None, None);
    for dir in sets {
        let runs = load_set(dir)?;
        for run in runs.values() {
            host.0 = host.0.or_else(|| run.get("nproc").cloned());
            host.1 = host.1.or_else(|| run.get("rustc").cloned());
        }
        let mut per_workload = BTreeMap::new();
        for workload in &workloads {
            let mut per_metric = BTreeMap::new();
            for (metric, _, _) in &metrics {
                let values: Vec<f64> = runs
                    .values()
                    .filter_map(|r| value(r, workload, metric))
                    .collect();
                if values.is_empty() {
                    continue;
                }
                let [q1, median, q3] = stats::quartiles(&values);
                per_metric.insert(
                    metric.clone(),
                    Json::obj([
                        ("median", Json::Num(median)),
                        ("q1", Json::Num(q1)),
                        ("q3", Json::Num(q3)),
                        (
                            "spread",
                            Json::Num((q3 - q1) / median.abs().max(f64::MIN_POSITIVE)),
                        ),
                        ("runs", Json::num(values.len() as u64)),
                    ]),
                );
            }
            per_workload.insert(workload.clone(), Json::Obj(per_metric));
        }
        out_sets.push(Json::obj([
            ("runs", Json::num(runs.len() as u64)),
            ("workloads", Json::Obj(per_workload)),
        ]));
    }
    let doc = Json::obj([
        ("nproc", host.0.unwrap_or(Json::Null)),
        ("rustc", host.1.unwrap_or(Json::Null)),
        ("sets", Json::Arr(out_sets)),
    ]);
    println!("{}", doc.encode());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(base: f64, jitter: &[f64]) -> Vec<f64> {
        jitter.iter().map(|j| base + j).collect()
    }

    const JITTER: [f64; 10] = [0.0, 0.1, -0.1, 0.2, -0.2, 0.05, -0.05, 0.15, -0.15, 0.0];

    #[test]
    fn clear_win_is_better() {
        // Latency (lower is better) drops 10% with 1% noise.
        let parent = runs(10.0, &JITTER);
        let change = runs(9.0, &JITTER);
        assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::Better);
        // Throughput (higher is better) rises the same way.
        assert_eq!(verdict(&change, &parent, true, 0.1), Verdict::Better);
    }

    #[test]
    fn small_shift_is_unchanged() {
        let parent = runs(10.0, &JITTER);
        let change = runs(10.3, &JITTER);
        assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn beyond_the_bound_is_worse() {
        let parent = runs(10.0, &JITTER);
        let change = runs(11.5, &JITTER);
        assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::Worse);
        assert_eq!(
            verdict(&parent, &runs(8.5, &JITTER), true, 0.1),
            Verdict::Worse
        );
    }

    #[test]
    fn noisy_parent_is_unresolved() {
        let wide = [0.0, 3.0, -3.0, 2.0, -2.0, 1.0, -1.0, 2.5, -2.5, 0.5];
        let parent = runs(10.0, &wide);
        let change = runs(10.5, &wide);
        assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn wins_without_a_gap_beyond_the_spread_are_not_better() {
        // The change wins every pair by a hair: not a gain.
        let parent = runs(10.0, &JITTER);
        let change: Vec<f64> = parent.iter().map(|p| p - 0.01).collect();
        assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn eight_of_ten_wins_is_not_better() {
        let parent = vec![10.0; 10];
        let mut change = vec![8.0; 10];
        change[0] = 10.0;
        change[1] = 10.5;
        assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::Unchanged);
        change[1] = 8.0;
        assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::Better);
    }

    #[test]
    fn too_few_pairs_is_unresolved() {
        let parent = vec![10.0; 9];
        assert_eq!(verdict(&parent, &[5.0; 9], false, 0.1), Verdict::Unresolved);
    }
}
