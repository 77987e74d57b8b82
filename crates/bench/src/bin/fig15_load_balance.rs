//! Figure 15: DRAM load-balancing effect of adding a 256-byte stride
//! between 512-byte treelet slots (roots 768 B apart instead of 512 B).

use rt_bench::{column_gmean, pct, print_scene_table, run_grid, speedup_rows, suite};
use treelet_rt::{LayoutChoice, SimConfig, Sweep};

fn main() {
    let mut strided = SimConfig::paper_treelet_prefetch();
    strided.layout = LayoutChoice::TreeletPacked { extra_stride: 256 };
    let sweep = Sweep::new(suite())
        .with_config("512B slots", SimConfig::paper_treelet_prefetch())
        .with_config("+256B stride", strided);
    let results = run_grid(&sweep);
    let (r0, r1) = (&results[0], &results[1]);

    let rows = speedup_rows(sweep.benches(), &results);
    print_scene_table(
        "Fig. 15: +256 B stride speedup over plain 512 B packing",
        &["speedup"],
        &rows,
        true,
    );
    println!(
        "\nmean stride benefit: {} (paper: +5.7%)",
        pct(column_gmean(&rows, 0))
    );

    // Channel imbalance evidence: coefficient of variation of per-channel
    // DRAM accesses with and without the stride.
    let cv = |counts: &[u64]| {
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
    };
    println!("\nper-channel DRAM access imbalance (coefficient of variation):");
    println!("{:<7} {:>12} {:>12}", "Scene", "512B slots", "+256B stride");
    for (i, b) in sweep.benches().iter().enumerate() {
        println!(
            "{:<7} {:>12.3} {:>12.3}",
            b.scene().name(),
            cv(&r0[i].dram_channel_accesses),
            cv(&r1[i].dram_channel_accesses)
        );
    }
}
