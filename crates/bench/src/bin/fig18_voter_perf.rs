//! Figure 18: performance of the pseudo two-level majority voter against
//! the idealized full voter — the accuracy loss should not cost
//! performance.

use rt_bench::{column_gmean, pct, print_scene_table, run_grid, speedup_rows, suite};
use treelet_rt::{SimConfig, Sweep, VoterKind};

fn main() {
    let prefetch = SimConfig::paper_treelet_prefetch;
    let sweep = Sweep::new(suite())
        .with_config("baseline", SimConfig::paper_baseline())
        .with_config("full", prefetch().with_voter(VoterKind::Full, 0))
        .with_config(
            "pseudo",
            prefetch().with_voter(VoterKind::PseudoTwoLevel, 0),
        );
    let rows = speedup_rows(sweep.benches(), &run_grid(&sweep));
    print_scene_table(
        "Fig. 18: full vs pseudo two-level voter speedups",
        &["full", "pseudo"],
        &rows,
        true,
    );
    println!(
        "\nfull: {} pseudo: {} (paper: accuracy loss does not impact performance)",
        pct(column_gmean(&rows, 0)),
        pct(column_gmean(&rows, 1))
    );
}
