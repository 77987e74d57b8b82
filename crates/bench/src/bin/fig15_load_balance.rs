//! Figure 15: DRAM load-balancing effect of adding a 256-byte stride
//! between 512-byte treelet slots (roots 768 B apart instead of 512 B).

use rt_bench::{pct, print_scene_table, Suite};
use treelet_rt::{geometric_mean, LayoutChoice, SimConfig};

fn main() {
    let suite = Suite::prepare_default();
    let packed = SimConfig::paper_treelet_prefetch();
    let mut strided = SimConfig::paper_treelet_prefetch();
    strided.layout = LayoutChoice::TreeletPacked { extra_stride: 256 };
    let r0 = suite.run_all(&packed);
    let r1 = suite.run_all(&strided);

    let rows: Vec<_> = suite
        .benches()
        .iter()
        .enumerate()
        .map(|(i, b)| (b.scene(), vec![r1[i].speedup_over(&r0[i])]))
        .collect();
    print_scene_table(
        "Fig. 15: +256 B stride speedup over plain 512 B packing",
        &["speedup"],
        &rows,
        true,
    );
    let vals: Vec<f64> = rows.iter().map(|(_, c)| c[0]).collect();
    println!(
        "\nmean stride benefit: {} (paper: +5.7%)",
        pct(geometric_mean(&vals))
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
    for (i, b) in suite.benches().iter().enumerate() {
        println!(
            "{:<7} {:>12.3} {:>12.3}",
            b.scene().name(),
            cv(&r0[i].dram_channel_accesses),
            cv(&r1[i].dram_channel_accesses)
        );
    }
}
