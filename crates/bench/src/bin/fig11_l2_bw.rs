//! Figure 11: L2 bandwidth of the prefetch heuristics, normalized to the
//! baseline RT unit (no prefetching).

use rt_bench::{print_scene_table, run_grid, suite};
use treelet_rt::{PrefetchHeuristic, SimConfig, Sweep};

fn main() {
    let line = SimConfig::paper_baseline().mem.line_bytes;
    let heuristics = [
        ("ALWAYS", PrefetchHeuristic::Always),
        ("POP:0.5", PrefetchHeuristic::Popularity(0.5)),
        ("PARTIAL", PrefetchHeuristic::Partial),
    ];
    let sweep = heuristics.into_iter().fold(
        Sweep::new(suite()).with_config("baseline", SimConfig::paper_baseline()),
        |sweep, (name, h)| {
            sweep.with_config(name, SimConfig::paper_treelet_prefetch().with_heuristic(h))
        },
    );
    let results = run_grid(&sweep);
    let (base, results) = results.split_first().expect("a baseline column");

    let rows: Vec<_> = sweep
        .benches()
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let b0 = base[i].l2_bytes_per_cycle(line);
            (
                b.scene(),
                results
                    .iter()
                    .map(|r| r[i].l2_bytes_per_cycle(line) / b0)
                    .collect(),
            )
        })
        .collect();
    let columns: Vec<&str> = heuristics.iter().map(|(n, _)| *n).collect();
    print_scene_table(
        "Fig. 11: L2 bandwidth normalized to no prefetching",
        &columns,
        &rows,
        true,
    );
    println!("(paper: POPULARITY/PARTIAL throttle L2 BW below ALWAYS)");
}
