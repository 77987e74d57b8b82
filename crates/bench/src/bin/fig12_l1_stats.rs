//! Figure 12: L1 cache statistics per prefetch heuristic — the fraction
//! of demand accesses that hit on prefetched data, hit on demand-fetched
//! data, merged with an in-flight fetch (pending), or missed.

use rt_bench::{run_grid, suite};
use treelet_rt::{PrefetchConfig, PrefetchHeuristic, SimConfig, SimResult, Sweep};

fn breakdown(r: &SimResult) -> [f64; 4] {
    let s = &r.l1;
    let total = s.demand_accesses().max(1) as f64;
    [
        s.demand_hits_on_prefetch as f64 / total,
        s.demand_hits_on_demand as f64 / total,
        s.demand_pending_hits as f64 / total,
        s.demand_misses as f64 / total,
    ]
}

fn main() {
    let heuristics = [
        ("ALWAYS", PrefetchHeuristic::Always),
        ("POP:0.25", PrefetchHeuristic::Popularity(0.25)),
        ("POP:0.5", PrefetchHeuristic::Popularity(0.5)),
        ("POP:0.75", PrefetchHeuristic::Popularity(0.75)),
        ("PARTIAL", PrefetchHeuristic::Partial),
    ];
    let baseline =
        SimConfig::paper_treelet_traversal_only().with_prefetcher(PrefetchConfig::none());
    let sweep = heuristics.into_iter().fold(
        Sweep::new(suite()).with_config("Baseline", baseline),
        |sweep, (name, h)| {
            sweep.with_config(name, SimConfig::paper_treelet_prefetch().with_heuristic(h))
        },
    );
    let results = run_grid(&sweep);

    println!("== Fig. 12: L1 demand-access breakdown per heuristic ==");
    println!(
        "{:<7} {:<9} {:>9} {:>9} {:>9} {:>9}",
        "Scene", "Config", "pf-hit", "dem-hit", "pending", "miss"
    );
    for (i, bench) in sweep.benches().iter().enumerate() {
        for (col, (name, _)) in sweep.configs().iter().enumerate() {
            let [p, d, pend, m] = breakdown(&results[col][i]);
            println!(
                "{:<7} {:<9} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%",
                if col == 0 { bench.scene().name() } else { "" },
                name,
                p * 100.0,
                d * 100.0,
                pend * 100.0,
                m * 100.0
            );
        }
    }
    println!("(paper: ALWAYS shows the largest prefetch-hit fraction)");
}
