//! Figure 8: comparison to prior work — the Lee et al. many-thread-aware
//! stride prefetcher (implemented optimistically with infinite tables)
//! and a global history buffer against treelet prefetching, with a
//! per-prefetcher useful/late/useless timeliness taxonomy.

use rt_bench::{
    column_gmean, pct, prepare_suite, print_scene_table, run_grid, speedup_rows, suite,
    suite_detail,
};
use rt_scene::{Workload, WorkloadKind};
use treelet_rt::{PrefetchConfig, PrefetchUsefulness, SimConfig, SimResult, Sweep};

fn taxonomy(results: &[SimResult]) -> (PrefetchUsefulness, u64) {
    let mut acc = PrefetchUsefulness::default();
    let mut total = 0;
    for r in results {
        let u = PrefetchUsefulness::from_effect(&r.prefetch_effect);
        acc.useful += u.useful;
        acc.late += u.late;
        acc.useless += u.useless;
        total += r.prefetch_effect.total();
    }
    (acc, total)
}

/// `sweep` with the bakeoff's three prefetchers appended as columns.
fn with_prefetchers(sweep: Sweep) -> Sweep {
    sweep
        .with_config(
            "MTA (Lee+)",
            SimConfig::paper_baseline().with_prefetcher(PrefetchConfig::mta()),
        )
        .with_config(
            "GHB",
            SimConfig::paper_baseline().with_prefetcher(PrefetchConfig::ghb()),
        )
        .with_config("treelet-pf", SimConfig::paper_treelet_prefetch())
}

fn main() {
    // Speedup comparison at the paper-default workload, like every
    // other figure.
    let sweep =
        with_prefetchers(Sweep::new(suite()).with_config("baseline", SimConfig::paper_baseline()));
    let rows = speedup_rows(sweep.benches(), &run_grid(&sweep));
    print_scene_table(
        "Fig. 8: speedup vs prior work",
        &["MTA (Lee+)", "GHB", "treelet-pf"],
        &rows,
        true,
    );
    println!(
        "\nMTA mean: {} (paper: ~0%, ineffective); GHB mean: {} (paper §2.4: unsuitable); treelet mean: {}",
        pct(column_gmean(&rows, 0)),
        pct(column_gmean(&rows, 1)),
        pct(column_gmean(&rows, 2))
    );

    // Timeliness taxonomy: where each prefetcher's lines ended up.
    //
    // This part runs 128x128 primary rays instead of the 32x32 default.
    // 32x32's 1,024 rays fit the 8 SM x 16 warp x 32 lane warp buffer at
    // once, so each SM fills and drains it a single time; 16,384 rays
    // turn it over four times, the steady state a longer frame runs in,
    // and every prefetcher issues 6-14x the lines it issues at 32x32.
    let workload = Workload::new(WorkloadKind::Primary, 128, 128);
    let turnover = with_prefetchers(Sweep::new(prepare_suite(suite_detail(), workload)));
    let results = run_grid(&turnover);
    println!("\n== Prefetch timeliness per prefetcher (128x128 suite totals) ==");
    println!(
        "{:<12} {:>10} {:>9} {:>9} {:>9}",
        "Prefetcher", "issued", "useful", "late", "useless"
    );
    for ((name, _), results) in turnover.configs().iter().zip(&results) {
        let (u, total) = taxonomy(results);
        let share = |n: u64| {
            if total == 0 {
                0.0
            } else {
                n as f64 / total as f64 * 100.0
            }
        };
        println!(
            "{:<12} {:>10} {:>8.1}% {:>8.1}% {:>8.1}%",
            name,
            total,
            share(u.useful),
            share(u.late),
            share(u.useless)
        );
    }
    let (u, total) = taxonomy(&results[0]);
    if total > 0 {
        println!(
            "\nMTA prefetches that fetched nothing useful: {:.0}% (paper: 'does not fetch many useful BVH nodes')",
            (u.late + u.useless) as f64 / total as f64 * 100.0
        );
    }
}
