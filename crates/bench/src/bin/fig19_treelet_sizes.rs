//! Figure 19: performance with different maximum treelet sizes (256,
//! 512, 1024, 2048 bytes).

use rt_bench::{pct, print_scene_table, Suite};
use treelet_rt::{geometric_mean, SimConfig};

fn main() {
    let suite = Suite::prepare_default();
    let base = suite.run_all(&SimConfig::paper_baseline());
    let sizes = [256u64, 512, 1024, 2048];
    let results: Vec<Vec<_>> = sizes
        .iter()
        .map(|&s| suite.run_all(&SimConfig::paper_treelet_prefetch().with_treelet_bytes(s)))
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
    print_scene_table(
        "Fig. 19: speedup vs maximum treelet size",
        &["256 B", "512 B", "1024 B", "2048 B"],
        &rows,
        true,
    );
    for (col, s) in sizes.iter().enumerate() {
        let vals: Vec<f64> = rows.iter().map(|(_, c)| c[col]).collect();
        println!("{s} B: {}", pct(geometric_mean(&vals)));
    }
    println!("(paper: 512 B best +31.9%; 256 B worst +24.8%)");
}
