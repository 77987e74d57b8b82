//! Figure 10: performance of the prefetch heuristics (ALWAYS,
//! POPULARITY with 0.25 / 0.5 / 0.75 thresholds, PARTIAL) against the
//! baseline RT unit.

use rt_bench::{print_speedups, run_grid, suite};
use treelet_rt::{PrefetchHeuristic, SimConfig, Sweep};

fn main() {
    let heuristics = [
        ("ALWAYS", PrefetchHeuristic::Always),
        ("POP:0.25", PrefetchHeuristic::Popularity(0.25)),
        ("POP:0.5", PrefetchHeuristic::Popularity(0.5)),
        ("POP:0.75", PrefetchHeuristic::Popularity(0.75)),
        ("PARTIAL", PrefetchHeuristic::Partial),
    ];
    let sweep = heuristics.into_iter().fold(
        Sweep::new(suite()).with_config("baseline", SimConfig::paper_baseline()),
        |sweep, (name, h)| {
            sweep.with_config(name, SimConfig::paper_treelet_prefetch().with_heuristic(h))
        },
    );
    print_speedups(
        "Fig. 10: prefetch heuristic speedups",
        &sweep,
        &run_grid(&sweep),
    );
    println!("(paper: ALWAYS +31.9% > POPULARITY +27% > PARTIAL +16%)");
}
