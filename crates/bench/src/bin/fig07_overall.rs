//! Figure 7: overall speedup and power of treelet prefetching with the
//! ALWAYS heuristic, PMR scheduler, and 512-byte treelets.

use rt_bench::{pct, print_scene_table, Suite};
use treelet_rt::{geometric_mean, SimConfig};

fn main() {
    let suite = Suite::prepare_default();
    let base = suite.run_all(&SimConfig::paper_baseline());
    let pf = suite.run_all(&SimConfig::paper_treelet_prefetch());

    let rows: Vec<_> = suite
        .benches()
        .iter()
        .zip(base.iter().zip(&pf))
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

    let speedups: Vec<f64> = rows.iter().map(|(_, c)| c[0]).collect();
    println!(
        "\nmean speedup: {} (paper: +32.1%); power stays ~constant (paper: same power)",
        pct(geometric_mean(&speedups))
    );
}
