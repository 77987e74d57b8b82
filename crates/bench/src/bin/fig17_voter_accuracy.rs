//! Figure 17: decision accuracy of the pseudo two-level majority voter —
//! how often it agrees with a full majority voter on the most popular
//! treelet.

use rt_bench::{print_scene_table, run_grid, suite};
use treelet_rt::{SimConfig, Sweep, VoterKind};

fn main() {
    let sweep = [0u64, 32, 128]
        .into_iter()
        .fold(Sweep::new(suite()), |sweep, lat| {
            let config =
                SimConfig::paper_treelet_prefetch().with_voter(VoterKind::PseudoTwoLevel, lat);
            sweep.with_config(format!("{lat} cyc"), config)
        });
    let results = run_grid(&sweep);

    let rows: Vec<_> = sweep
        .benches()
        .iter()
        .enumerate()
        .map(|(i, b)| {
            (
                b.scene(),
                results
                    .iter()
                    .map(|r| {
                        r[i].prefetcher
                            .map(|p| p.voter_accuracy() * 100.0)
                            .unwrap_or(0.0)
                    })
                    .collect(),
            )
        })
        .collect();
    print_scene_table(
        "Fig. 17: pseudo-voter agreement with the full voter (%)",
        &["0 cyc", "32 cyc", "128 cyc"],
        &rows,
        false,
    );
    let mean: f64 = rows.iter().map(|(_, c)| c[0]).sum::<f64>() / rows.len() as f64;
    println!("\nmean agreement at 0-cycle sampling: {mean:.1}% (paper: 91.2%)");
}
