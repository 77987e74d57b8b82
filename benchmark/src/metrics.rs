//! The metric registry and the result line every run prints.
//!
//! Every metric the benchmark can print is declared here, once, with its
//! unit; `BENCHMARK.json` declares the same names (a unit test keeps the
//! two in step). A run fills a [`Values`] map and [`Outcome::line`]
//! renders exactly the registry's names, so nothing undeclared can be
//! printed.

use rt_served::Json;
use std::collections::BTreeMap;

/// A metric name and its unit.
pub type MetricDef = (&'static str, &'static str);

/// Metrics a user of the system sees, printed with `--trace 0`. The
/// "op" is one simulated cell; times are at reference speed (see
/// [`crate::reference`]).
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
];

/// Per-layer metrics, printed with `--trace 1`. Times are as measured,
/// per pass (summed over the pass's cells) unless the README says
/// otherwise; a metric whose layer a workload does not run reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // Preparation (rt-scene, rt-bvh, core::prepare): one serial cold
    // preparation of the workload's scene set.
    ("scene.build_ms", "ms"),
    ("scene.rays_ms", "ms"),
    ("bvh.build_ms", "ms"),
    ("bvh.encode_ms", "ms"),
    ("bvh.decode_ms", "ms"),
    ("bvh.artifact_bytes", "bytes"),
    ("prepare.cache_store_ms", "ms"),
    ("prepare.cache_load_ms", "ms"),
    ("prepare.cache_hits", "count"),
    ("prepare.cache_misses", "count"),
    // Per-cell front end (treelet, rt_bvh::MemoryImage, traversal).
    ("treelet.form_ms", "ms"),
    ("treelet.count", "count"),
    ("bvh.layout_ms", "ms"),
    ("traversal.trace_ms", "ms"),
    ("traversal.compile_ms", "ms"),
    ("traversal.nodes_per_ray", "nodes"),
    // Engine (core::sim), per config label.
    ("sim.engine_ms.baseline", "ms"),
    ("sim.engine_ms.prefetch", "ms"),
    ("sim.engine_ns_per_cycle.baseline", "ns"),
    ("sim.engine_ns_per_cycle.prefetch", "ns"),
    ("sim.engine_ms_no_idle_skip.baseline", "ms"),
    ("sim.engine_ms_no_idle_skip.prefetch", "ms"),
    ("sim.idle_skip_speedup.baseline", "ratio"),
    ("sim.idle_skip_speedup.prefetch", "ratio"),
    ("sim.cycles.baseline", "cycles"),
    ("sim.cycles.prefetch", "cycles"),
    ("sim.warp_buffer_occupancy.baseline", "ratio"),
    ("sim.warp_buffer_occupancy.prefetch", "ratio"),
    ("sim.speedup_gmean", "ratio"),
    // Prefetcher (core::prefetch, core::prefetcher), prefetch cells.
    ("prefetch.decisions", "count"),
    ("prefetch.lines_enqueued", "count"),
    ("prefetch.queue_full_drops", "count"),
    ("prefetch.timely", "count"),
    ("prefetch.early", "count"),
    ("prefetch.late", "count"),
    ("prefetch.too_late", "count"),
    ("prefetch.unused", "count"),
    ("prefetch.classified", "count"),
    // Memory model (rt-gpu-sim): exact simulated counts.
    ("mem.l1_hit_rate", "ratio"),
    ("mem.l1_demand_misses", "count"),
    ("mem.l1_mshr_rejections", "count"),
    ("mem.l2_hit_rate", "ratio"),
    ("mem.dram_utilization", "ratio"),
    ("mem.node_load_latency_mean", "cycles"),
    ("mem.node_load_latency_p99", "cycles"),
    ("mem.l2_to_l1_lines", "count"),
    ("mem.dram_to_l2_lines", "count"),
    // Runner (core::runner).
    ("runner.workers", "count"),
    ("runner.inline_cells", "count"),
    ("runner.chunks", "count"),
    ("runner.busy_ratio", "ratio"),
    ("runner.self_ms", "ms"),
    // The tracing itself.
    ("trace.pass_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.explained_pct", "%"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one workload run produced: the checks and the metric values.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells simulated, checks made).
    pub attempted: u64,
    /// Operations that failed or disagreed with a check.
    pub failed: u64,
    /// Metric values by name.
    pub values: Values,
    /// Why each failure counted, for stderr.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records one attempted operation and whether it passed.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(problem());
        }
    }

    /// Records a failure outside any counted operation.
    pub fn fail(&mut self, problem: String) {
        self.attempted += 1;
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The registry's metrics as `(name, value, unit)`. With `trace`
    /// off these are the end-to-end metrics, and one the run did not
    /// measure is an error; with it on they are the per-layer metrics,
    /// and one whose layer the workload does not run reads 0.
    pub fn rows(&self, trace: bool) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let (defs, required) = if trace {
            (PER_LAYER, false)
        } else {
            (END_TO_END, true)
        };
        let declared = |name: &str| END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name);
        if let Some(name) = self.values.keys().find(|n| !declared(n)) {
            return Err(format!("metric {name} is not declared"));
        }
        defs.iter()
            .map(|&(name, unit)| match self.values.get(name) {
                Some(v) if v.is_finite() => Ok((name, *v, unit)),
                Some(v) => Err(format!("metric {name} is {v}")),
                None if required => Err(format!("metric {name} was not measured")),
                None => Ok((name, 0.0, unit)),
            })
            .collect()
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`, and
    /// `metrics` holding every metric in `rows`.
    pub fn line(&self, rows: &[(&'static str, f64, &'static str)]) -> Json {
        let metrics = rows
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::num(self.attempted)),
            ("failed", Json::num(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a valid metric name: a letter or digit, then at
    /// most 63 letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok_char)
    }

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Json::as_arr)
            .expect("section is an array")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn registry(defs: &[MetricDef]) -> Vec<(String, String)> {
        defs.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_are_exactly_the_declared_ones() {
        assert_eq!(registry(END_TO_END), declared("end_to_end"));
        assert_eq!(registry(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn metric_names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad name {name}");
            assert!(seen.insert(name), "duplicate {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        assert!(PER_LAYER.len() < 128);
    }

    #[test]
    fn result_line_carries_every_metric() {
        let mut outcome = Outcome::default();
        outcome.check(true, String::new);
        for &(name, _) in END_TO_END {
            outcome.values.insert(name, 1.5);
        }
        let rows = outcome.rows(false).unwrap();
        let line = outcome.line(&rows);
        let reparsed = Json::parse(&line.encode()).unwrap();
        assert_eq!(reparsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(reparsed.get("attempted").and_then(Json::as_u64), Some(1));
        for &(name, unit) in END_TO_END {
            let m = reparsed.get("metrics").and_then(|m| m.get(name)).unwrap();
            assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.5));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
        }
        // Per-layer metrics default to 0; end-to-end ones are required.
        assert!(Outcome::default().rows(false).is_err());
        assert!(Outcome::default().rows(true).is_ok());
        assert!(!Outcome::default().correct());
    }
}
