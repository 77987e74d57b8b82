//! Figure 16: performance impact of prefetcher (majority voter) latency,
//! swept from 0 to 512 cycles. A 512-cycle latency corresponds to one
//! first-level table counting one thread per cycle; 128 cycles to four
//! tables; 32 cycles to a table per warp-buffer entry (§6.5).

use rt_bench::{pct, print_scene_table, Suite};
use treelet_rt::{geometric_mean, SimConfig, VoterKind};

fn main() {
    let suite = Suite::prepare_default();
    let base = suite.run_all(&SimConfig::paper_baseline());
    let latencies = [0u64, 32, 128, 512];
    let results: Vec<Vec<_>> = latencies
        .iter()
        .map(|&lat| {
            suite.run_all(
                &SimConfig::paper_treelet_prefetch().with_voter(VoterKind::PseudoTwoLevel, lat),
            )
        })
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
        "Fig. 16: speedup vs prefetcher latency (pseudo two-level voter)",
        &["0 cyc", "32 cyc", "128 cyc", "512 cyc"],
        &rows,
        true,
    );
    for (col, lat) in latencies.iter().enumerate() {
        let vals: Vec<f64> = rows.iter().map(|(_, c)| c[col]).collect();
        println!("latency {lat}: {}", pct(geometric_mean(&vals)));
    }
    println!("(paper: 0/32 cyc ≈ +31-32%, 128 cyc +25.3%, 512 cyc +17%)");
}
