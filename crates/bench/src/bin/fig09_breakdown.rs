//! Figure 9: speedup breakdown — treelet-based traversal alone (bottom)
//! and the additional gain from treelet prefetching (top), with the
//! baseline scheduler as in the paper.

use rt_bench::{pct, print_scene_table, Suite};
use treelet_rt::{geometric_mean, SchedulerPolicy, SimConfig};

fn main() {
    let suite = Suite::prepare_default();
    let base = suite.run_all(&SimConfig::paper_baseline());
    let trav = suite.run_all(&SimConfig::paper_treelet_traversal_only());
    let pf_cfg = SimConfig::paper_treelet_prefetch().with_scheduler(SchedulerPolicy::Baseline);
    let pf = suite.run_all(&pf_cfg);

    let rows: Vec<_> = suite
        .benches()
        .iter()
        .enumerate()
        .map(|(i, b)| {
            (
                b.scene(),
                vec![trav[i].speedup_over(&base[i]), pf[i].speedup_over(&base[i])],
            )
        })
        .collect();
    print_scene_table(
        "Fig. 9: speedup breakdown (baseline scheduler)",
        &["trav only", "trav+prefetch"],
        &rows,
        true,
    );
    let t: Vec<f64> = rows.iter().map(|(_, c)| c[0]).collect();
    let p: Vec<f64> = rows.iter().map(|(_, c)| c[1]).collect();
    println!(
        "\ntraversal alone: {} (paper: -3.7%); with prefetching: {} (paper: +32.1%)",
        pct(geometric_mean(&t)),
        pct(geometric_mean(&p))
    );
}
