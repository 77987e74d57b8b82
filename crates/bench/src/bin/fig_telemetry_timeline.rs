//! Telemetry timelines: per-scene time-series data behind the paper's
//! time-resolved evidence — prefetch timeliness shares (Fig. 10),
//! L2→L1 line traffic (Fig. 11), and per-channel DRAM load imbalance
//! (Fig. 15).
//!
//! Runs every scene under the full treelet-prefetch configuration with
//! telemetry sampling on, writes one CSV per scene to
//! `charts/data/telemetry_<scene>.csv` (override the root with
//! `TREELET_CHART_DIR`), and prints the end-of-run usefulness shares
//! and DRAM channel imbalance so the table can be eyeballed without
//! opening the files. `TREELET_TELEMETRY_EVERY` overrides the sampling
//! interval (default 1000 cycles).

use rt_bench::suite;
use std::path::PathBuf;
use treelet_rt::{SimConfig, Telemetry, TelemetryOptions};

fn main() -> std::io::Result<()> {
    let dir =
        PathBuf::from(std::env::var("TREELET_CHART_DIR").unwrap_or_else(|_| "charts".to_string()))
            .join("data");
    std::fs::create_dir_all(&dir)?;
    let every = std::env::var("TREELET_TELEMETRY_EVERY")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(treelet_rt::DEFAULT_TELEMETRY_EVERY);
    let opts = TelemetryOptions::new(every);
    let config = SimConfig::paper_treelet_prefetch();

    println!(
        "{:<7} {:>8} {:>9} {:>7} {:>9} {:>9}",
        "Scene", "samples", "useful%", "late%", "useless%", "dram CV"
    );
    for bench in suite() {
        let mut telemetry = Telemetry::new(&opts);
        let result = match bench
            .session(config.clone())
            .telemetry(&mut telemetry)
            .run()
        {
            Ok(result) => result,
            Err(e) => {
                eprintln!("{}: {e}", bench.scene());
                continue;
            }
        };
        let path = dir.join(format!(
            "telemetry_{}.csv",
            bench.scene().name().to_lowercase()
        ));
        telemetry.write_csv(&path)?;
        let last = telemetry.samples().last().expect("run produced samples");
        let total =
            (last.prefetch_useful + last.prefetch_late + last.prefetch_useless).max(1) as f64;
        let share = |n: u64| 100.0 * n as f64 / total;
        println!(
            "{:<7} {:>8} {:>8.1}% {:>6.1}% {:>8.1}% {:>9.3}",
            bench.scene().name(),
            telemetry.len(),
            share(last.prefetch_useful),
            share(last.prefetch_late),
            share(last.prefetch_useless),
            cv(&result.dram_channel_accesses),
        );
    }
    println!("\nwrote per-scene timelines to {}", dir.display());
    Ok(())
}

/// Coefficient of variation of per-channel access counts (the Fig. 15
/// imbalance metric).
fn cv(counts: &[u64]) -> f64 {
    let n = counts.len() as f64;
    let mean = counts.iter().sum::<u64>() as f64 / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = counts
        .iter()
        .map(|&c| (c as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    var.sqrt() / mean
}
