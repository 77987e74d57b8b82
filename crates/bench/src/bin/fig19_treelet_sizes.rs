//! Figure 19: performance with different maximum treelet sizes (256,
//! 512, 1024, 2048 bytes).

use rt_bench::{print_speedups, run_grid, suite};
use treelet_rt::{SimConfig, Sweep};

fn main() {
    let sweep = [256u64, 512, 1024, 2048].into_iter().fold(
        Sweep::new(suite()).with_config("baseline", SimConfig::paper_baseline()),
        |sweep, s| {
            let config = SimConfig::paper_treelet_prefetch().with_treelet_bytes(s);
            sweep.with_config(format!("{s} B"), config)
        },
    );
    print_speedups(
        "Fig. 19: speedup vs maximum treelet size",
        &sweep,
        &run_grid(&sweep),
    );
    println!("(paper: 512 B best +31.9%; 256 B worst +24.8%)");
}
