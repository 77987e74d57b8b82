//! Figure 8: comparison to prior work — the Lee et al. many-thread-aware
//! stride prefetcher (implemented optimistically with infinite tables)
//! and a global history buffer against treelet prefetching, with a
//! per-prefetcher useful/late/useless timeliness taxonomy.

use rt_bench::{pct, print_scene_table, Suite, SUITE_DETAIL};
use rt_scene::{Workload, WorkloadKind};
use treelet_rt::{geometric_mean, PrefetchConfig, PrefetchUsefulness, SimConfig, SimResult};

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

fn main() {
    let detail = std::env::var("TREELET_DETAIL")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(SUITE_DETAIL);
    // Speedup comparison at the paper-default workload, like every
    // other figure.
    let suite = Suite::prepare(detail, Workload::paper_default());
    let base = suite.run_all(&SimConfig::paper_baseline());
    let mta = suite.run_all(&SimConfig::paper_baseline().with_prefetcher(PrefetchConfig::mta()));
    let ghb = suite.run_all(&SimConfig::paper_baseline().with_prefetcher(PrefetchConfig::ghb()));
    let pf = suite.run_all(&SimConfig::paper_treelet_prefetch());

    let rows: Vec<_> = suite
        .benches()
        .iter()
        .enumerate()
        .map(|(i, b)| {
            (
                b.scene(),
                vec![
                    mta[i].speedup_over(&base[i]),
                    ghb[i].speedup_over(&base[i]),
                    pf[i].speedup_over(&base[i]),
                ],
            )
        })
        .collect();
    print_scene_table(
        "Fig. 8: speedup vs prior work",
        &["MTA (Lee+)", "GHB", "treelet-pf"],
        &rows,
        true,
    );
    let mta_s: Vec<f64> = rows.iter().map(|(_, c)| c[0]).collect();
    let ghb_s: Vec<f64> = rows.iter().map(|(_, c)| c[1]).collect();
    let pf_s: Vec<f64> = rows.iter().map(|(_, c)| c[2]).collect();
    println!(
        "\nMTA mean: {} (paper: ~0%, ineffective); GHB mean: {} (paper §2.4: unsuitable); treelet mean: {}",
        pct(geometric_mean(&mta_s)),
        pct(geometric_mean(&ghb_s)),
        pct(geometric_mean(&pf_s))
    );

    // Timeliness taxonomy: where each prefetcher's lines ended up.
    //
    // This part runs 128x128 primary rays instead of the 32x32 default.
    // 32x32's 1,024 rays fit the 8 SM x 16 warp x 32 lane warp buffer at
    // once, so each SM fills and drains it a single time; 16,384 rays
    // turn it over four times, the steady state a longer frame runs in,
    // and every prefetcher issues 6-14x the lines it issues at 32x32.
    let turnover = Suite::prepare(detail, Workload::new(WorkloadKind::Primary, 128, 128));
    let mta_t =
        turnover.run_all(&SimConfig::paper_baseline().with_prefetcher(PrefetchConfig::mta()));
    let ghb_t =
        turnover.run_all(&SimConfig::paper_baseline().with_prefetcher(PrefetchConfig::ghb()));
    let pf_t = turnover.run_all(&SimConfig::paper_treelet_prefetch());
    println!("\n== Prefetch timeliness per prefetcher (128x128 suite totals) ==");
    println!(
        "{:<12} {:>10} {:>9} {:>9} {:>9}",
        "Prefetcher", "issued", "useful", "late", "useless"
    );
    for (name, results) in [
        ("MTA (Lee+)", &mta_t),
        ("GHB", &ghb_t),
        ("treelet-pf", &pf_t),
    ] {
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
    let (u, total) = taxonomy(&mta_t);
    if total > 0 {
        println!(
            "\nMTA prefetches that fetched nothing useful: {:.0}% (paper: 'does not fetch many useful BVH nodes')",
            (u.late + u.useless) as f64 / total as f64 * 100.0
        );
    }
}
