//! Renders SVG charts of the key reproduced figures into `charts/`
//! (override with the `TREELET_CHART_DIR` environment variable).

use rt_bench::{bar_chart, run_grid, speedup_rows, suite};
use std::path::PathBuf;
use treelet_rt::{PrefetchHeuristic, SimConfig, Sweep};

fn main() -> std::io::Result<()> {
    let dir =
        PathBuf::from(std::env::var("TREELET_CHART_DIR").unwrap_or_else(|_| "charts".to_string()));
    std::fs::create_dir_all(&dir)?;
    let heuristics = [
        ("ALWAYS", PrefetchHeuristic::Always),
        ("POP 0.5", PrefetchHeuristic::Popularity(0.5)),
        ("PARTIAL", PrefetchHeuristic::Partial),
    ];
    let sweep = heuristics
        .into_iter()
        .fold(
            Sweep::new(suite()).with_config("baseline", SimConfig::paper_baseline()),
            |sweep, (name, h)| {
                sweep.with_config(name, SimConfig::paper_treelet_prefetch().with_heuristic(h))
            },
        )
        .with_config("traversal", SimConfig::paper_treelet_traversal_only());
    let results = run_grid(&sweep);
    // ALWAYS is the paper's treelet-prefetch configuration.
    let (base, pf, trav) = (&results[0], &results[1], &results[4]);

    // Fig. 7: overall speedup + normalized power.
    let rows: Vec<_> = sweep
        .benches()
        .iter()
        .enumerate()
        .map(|(i, b)| {
            (
                b.scene(),
                vec![
                    pf[i].speedup_over(&base[i]),
                    pf[i].power.avg_power_w / base[i].power.avg_power_w,
                ],
            )
        })
        .collect();
    std::fs::write(
        dir.join("fig07_overall.svg"),
        bar_chart(
            "Fig. 7: treelet prefetching speedup and normalized power (ALWAYS, PMR, 512 B)",
            &["speedup", "norm. power"],
            &rows,
            Some(1.0),
        ),
    )?;

    // Fig. 9: breakdown.
    let rows: Vec<_> = sweep
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
    std::fs::write(
        dir.join("fig09_breakdown.svg"),
        bar_chart(
            "Fig. 9: treelet traversal alone vs + prefetching",
            &["traversal only", "traversal + prefetch"],
            &rows,
            Some(1.0),
        ),
    )?;

    // Fig. 10: heuristics.
    let rows = speedup_rows(sweep.benches(), &results[..4]);
    let columns: Vec<&str> = heuristics.iter().map(|(n, _)| *n).collect();
    std::fs::write(
        dir.join("fig10_heuristics.svg"),
        bar_chart("Fig. 10: prefetch heuristics", &columns, &rows, Some(1.0)),
    )?;

    // Fig. 20: effectiveness stack rendered as grouped bars.
    let rows: Vec<_> = sweep
        .benches()
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let e = pf[i].prefetch_effect;
            let total = e.total().max(1) as f64;
            (
                b.scene(),
                vec![
                    e.timely as f64 / total,
                    e.late as f64 / total,
                    e.too_late as f64 / total,
                    e.unused as f64 / total,
                ],
            )
        })
        .collect();
    std::fs::write(
        dir.join("fig20_effectiveness.svg"),
        bar_chart(
            "Fig. 20: prefetch effectiveness (fractions)",
            &["timely", "late", "too late", "unused"],
            &rows,
            None,
        ),
    )?;

    println!("charts written to {}", dir.display());
    Ok(())
}
