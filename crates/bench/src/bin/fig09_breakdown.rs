//! Figure 9: speedup breakdown — treelet-based traversal alone (bottom)
//! and the additional gain from treelet prefetching (top), with the
//! baseline scheduler as in the paper.

use rt_bench::{column_gmean, pct, print_scene_table, run_grid, speedup_rows, suite};
use treelet_rt::{SchedulerPolicy, SimConfig, Sweep};

fn main() {
    let sweep = Sweep::new(suite())
        .with_config("baseline", SimConfig::paper_baseline())
        .with_config("traversal", SimConfig::paper_treelet_traversal_only())
        .with_config(
            "prefetch",
            SimConfig::paper_treelet_prefetch().with_scheduler(SchedulerPolicy::Baseline),
        );
    let rows = speedup_rows(sweep.benches(), &run_grid(&sweep));
    print_scene_table(
        "Fig. 9: speedup breakdown (baseline scheduler)",
        &["trav only", "trav+prefetch"],
        &rows,
        true,
    );
    println!(
        "\ntraversal alone: {} (paper: -3.7%); with prefetching: {} (paper: +32.1%)",
        pct(column_gmean(&rows, 0)),
        pct(column_gmean(&rows, 1))
    );
}
