//! Figure 13: performance of the RT-unit treelet schedulers (baseline,
//! OMR, PMR) with treelet prefetching enabled.

use rt_bench::{pct, print_scene_table, Suite};
use treelet_rt::{geometric_mean, SchedulerPolicy, SimConfig};

fn main() {
    let suite = Suite::prepare_default();
    let base = suite.run_all(&SimConfig::paper_baseline());
    let policies = [
        ("baseline", SchedulerPolicy::Baseline),
        ("OMR", SchedulerPolicy::OldestMatchingRay),
        ("PMR", SchedulerPolicy::PrioritizeMostRays),
    ];
    let results: Vec<Vec<_>> = policies
        .iter()
        .map(|(_, p)| suite.run_all(&SimConfig::paper_treelet_prefetch().with_scheduler(*p)))
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
    let columns: Vec<&str> = policies.iter().map(|(n, _)| *n).collect();
    print_scene_table("Fig. 13: treelet scheduler speedups", &columns, &rows, true);
    for (col, (name, _)) in policies.iter().enumerate() {
        let vals: Vec<f64> = rows.iter().map(|(_, c)| c[col]).collect();
        println!("{name}: {}", pct(geometric_mean(&vals)));
    }
    println!("(paper: all within ~0.3% of each other; PMR +32.1% best)");
}
