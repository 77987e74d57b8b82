//! Figure 1: average DRAM utilization (a) and average memory latency of
//! demand BVH loads (b), baseline RT unit vs. treelet prefetching.

use rt_bench::{print_scene_table, run_grid, suite};
use treelet_rt::{SimConfig, Sweep};

fn main() {
    let sweep = Sweep::new(suite())
        .with_config("baseline", SimConfig::paper_baseline())
        .with_config("prefetch", SimConfig::paper_treelet_prefetch());
    let results = run_grid(&sweep);
    let (base, pf) = (&results[0], &results[1]);

    let util_rows: Vec<_> = sweep
        .benches()
        .iter()
        .zip(base.iter().zip(pf))
        .map(|(b, (r0, r1))| (b.scene(), vec![r0.dram_utilization, r1.dram_utilization]))
        .collect();
    print_scene_table(
        "Fig. 1a: average DRAM utilization",
        &["baseline", "treelet-pf"],
        &util_rows,
        false,
    );

    let lat_rows: Vec<_> = sweep
        .benches()
        .iter()
        .zip(base.iter().zip(pf))
        .map(|(b, (r0, r1))| {
            (
                b.scene(),
                vec![
                    r0.node_load_latency,
                    r1.node_load_latency,
                    r0.node_load_latency_p99,
                    r1.node_load_latency_p99,
                ],
            )
        })
        .collect();
    print_scene_table(
        "Fig. 1b: demand BVH-load latency (core cycles; mean and p99 tail)",
        &["mean base", "mean pf", "p99 base", "p99 pf"],
        &lat_rows,
        true,
    );

    let reduction: Vec<f64> = base
        .iter()
        .zip(pf)
        .map(|(r0, r1)| 1.0 - r1.node_load_latency / r0.node_load_latency)
        .collect();
    let mean = reduction.iter().sum::<f64>() / reduction.len() as f64;
    println!(
        "\nmean BVH demand-latency reduction: {:.1}% (paper: 54%)",
        mean * 100.0
    );
}
