//! Table 3: average and maximum nodes traversed per ray, baseline DFS vs
//! treelet-based traversal. Lower is better.

use rt_bench::{run_grid, suite};
use treelet_rt::{geometric_mean, SimConfig, Sweep};

fn main() {
    let sweep = Sweep::new(suite())
        .with_config("baseline", SimConfig::paper_baseline())
        .with_config("traversal", SimConfig::paper_treelet_traversal_only());
    let results = run_grid(&sweep);
    let (dfs, two) = (&results[0], &results[1]);

    println!("== Table 3: nodes traversed per ray (DFS vs treelet traversal) ==");
    println!(
        "{:<7} {:>10} {:>10} {:>9} | {:>8} {:>8} {:>9}",
        "Scene", "avg DFS", "avg Trlt", "diff", "max DFS", "max Trlt", "diff"
    );
    let mut avg_ratio = Vec::new();
    let mut max_ratio = Vec::new();
    for (i, b) in sweep.benches().iter().enumerate() {
        let (d, t) = (&dfs[i].traversal, &two[i].traversal);
        let ar = t.avg_nodes_per_ray / d.avg_nodes_per_ray;
        let mr = t.max_nodes_per_ray as f64 / d.max_nodes_per_ray as f64;
        avg_ratio.push(ar);
        max_ratio.push(mr);
        println!(
            "{:<7} {:>10.1} {:>10.1} {:>+8.2}% | {:>8} {:>8} {:>+8.2}%",
            b.scene().name(),
            d.avg_nodes_per_ray,
            t.avg_nodes_per_ray,
            (ar - 1.0) * 100.0,
            d.max_nodes_per_ray,
            t.max_nodes_per_ray,
            (mr - 1.0) * 100.0
        );
    }
    println!(
        "GMean diff: avg {:+.2}% (paper: -2.12%), max {:+.2}% (paper: -0.28%)",
        (geometric_mean(&avg_ratio) - 1.0) * 100.0,
        (geometric_mean(&max_ratio) - 1.0) * 100.0
    );
}
