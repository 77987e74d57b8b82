//! Figure 20: prefetch effectiveness for 512-byte treelets with the
//! baseline scheduler and ALWAYS heuristic — each prefetch classified as
//! timely, late, too late, early, or unused.

use rt_bench::{print_scene_table, run_grid, suite};
use treelet_rt::{SchedulerPolicy, SimConfig, Sweep};

fn main() {
    let config = SimConfig::paper_treelet_prefetch().with_scheduler(SchedulerPolicy::Baseline);
    let sweep = Sweep::new(suite()).with_config("prefetch", config);
    let results = &run_grid(&sweep)[0];

    let rows: Vec<_> = sweep
        .benches()
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let e = results[i].prefetch_effect;
            let total = e.total().max(1) as f64;
            (
                b.scene(),
                vec![
                    e.timely as f64 / total * 100.0,
                    e.late as f64 / total * 100.0,
                    e.too_late as f64 / total * 100.0,
                    e.early as f64 / total * 100.0,
                    e.unused as f64 / total * 100.0,
                ],
            )
        })
        .collect();
    print_scene_table(
        "Fig. 20: prefetch effectiveness (% of prefetch probes)",
        &["timely", "late", "too late", "early", "unused"],
        &rows,
        false,
    );
    let mean = |col: usize| rows.iter().map(|(_, c)| c[col]).sum::<f64>() / rows.len() as f64;
    println!(
        "\nmeans: timely {:.1}% late {:.1}% too-late {:.1}% early {:.1}% unused {:.1}%",
        mean(0),
        mean(1),
        mean(2),
        mean(3),
        mean(4)
    );
    println!("(paper: timely 47.8%, unused 43.5% — unused prefetches are the stated area for improvement)");
}
