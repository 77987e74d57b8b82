//! Figure 10: performance of the prefetch heuristics (ALWAYS,
//! POPULARITY with 0.25 / 0.5 / 0.75 thresholds, PARTIAL) against the
//! baseline RT unit.

use rt_bench::{pct, print_scene_table, Suite};
use treelet_rt::{geometric_mean, PrefetchHeuristic, SimConfig};

fn main() {
    let suite = Suite::prepare_default();
    let base = suite.run_all(&SimConfig::paper_baseline());
    let heuristics = [
        ("ALWAYS", PrefetchHeuristic::Always),
        ("POP:0.25", PrefetchHeuristic::Popularity(0.25)),
        ("POP:0.5", PrefetchHeuristic::Popularity(0.5)),
        ("POP:0.75", PrefetchHeuristic::Popularity(0.75)),
        ("PARTIAL", PrefetchHeuristic::Partial),
    ];
    let results: Vec<Vec<_>> = heuristics
        .iter()
        .map(|(_, h)| suite.run_all(&SimConfig::paper_treelet_prefetch().with_heuristic(*h)))
        .collect();

    let rows: Vec<_> = suite
        .benches()
        .iter()
        .enumerate()
        .map(|(i, b)| {
            (
                b.scene(),
                results
                    .iter()
                    .map(|r| r[i].speedup_over(&base[i]))
                    .collect(),
            )
        })
        .collect();
    let columns: Vec<&str> = heuristics.iter().map(|(n, _)| *n).collect();
    print_scene_table(
        "Fig. 10: prefetch heuristic speedups",
        &columns,
        &rows,
        true,
    );

    for (col, (name, _)) in heuristics.iter().enumerate() {
        let vals: Vec<f64> = rows.iter().map(|(_, c)| c[col]).collect();
        println!("{name}: {}", pct(geometric_mean(&vals)));
    }
    println!("(paper: ALWAYS +31.9% > POPULARITY +27% > PARTIAL +16%)");
}
