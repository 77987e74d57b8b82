//! Figure 16: performance impact of prefetcher (majority voter) latency,
//! swept from 0 to 512 cycles. A 512-cycle latency corresponds to one
//! first-level table counting one thread per cycle; 128 cycles to four
//! tables; 32 cycles to a table per warp-buffer entry (§6.5).

use rt_bench::{column_gmean, pct, print_scene_table, run_grid, speedup_rows, suite};
use treelet_rt::{SimConfig, Sweep, VoterKind};

fn main() {
    let latencies = [0u64, 32, 128, 512];
    let sweep = latencies.into_iter().fold(
        Sweep::new(suite()).with_config("baseline", SimConfig::paper_baseline()),
        |sweep, lat| {
            let config =
                SimConfig::paper_treelet_prefetch().with_voter(VoterKind::PseudoTwoLevel, lat);
            sweep.with_config(format!("{lat} cyc"), config)
        },
    );
    let rows = speedup_rows(sweep.benches(), &run_grid(&sweep));
    print_scene_table(
        "Fig. 16: speedup vs prefetcher latency (pseudo two-level voter)",
        &["0 cyc", "32 cyc", "128 cyc", "512 cyc"],
        &rows,
        true,
    );
    for (col, lat) in latencies.iter().enumerate() {
        println!("latency {lat}: {}", pct(column_gmean(&rows, col)));
    }
    println!("(paper: 0/32 cyc ≈ +31-32%, 128 cyc +25.3%, 512 cyc +17%)");
}
