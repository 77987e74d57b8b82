//! Figure 7: overall speedup and power of treelet prefetching with the
//! ALWAYS heuristic, PMR scheduler, and 512-byte treelets.

use rt_bench::{column_gmean, pct, print_scene_table, run_grid, suite};
use treelet_rt::{SimConfig, Sweep};

fn main() {
    let sweep = Sweep::new(suite())
        .with_config("baseline", SimConfig::paper_baseline())
        .with_config("prefetch", SimConfig::paper_treelet_prefetch());
    let results = run_grid(&sweep);
    let (base, pf) = (&results[0], &results[1]);

    let rows: Vec<_> = sweep
        .benches()
        .iter()
        .zip(base.iter().zip(pf))
        .map(|(b, (r0, r1))| {
            (
                b.scene(),
                vec![
                    r1.speedup_over(r0),
                    r1.power.avg_power_w / r0.power.avg_power_w,
                ],
            )
        })
        .collect();
    print_scene_table(
        "Fig. 7: speedup and normalized power (ALWAYS, PMR, 512 B)",
        &["speedup", "norm. power"],
        &rows,
        true,
    );

    println!(
        "\nmean speedup: {} (paper: +32.1%); power stays ~constant (paper: same power)",
        pct(column_gmean(&rows, 0))
    );
}
