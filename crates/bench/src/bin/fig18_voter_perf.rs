//! Figure 18: performance of the pseudo two-level majority voter against
//! the idealized full voter — the accuracy loss should not cost
//! performance.

use rt_bench::{pct, print_scene_table, Suite};
use treelet_rt::{geometric_mean, SimConfig, VoterKind};

fn main() {
    let suite = Suite::prepare_default();
    let base = suite.run_all(&SimConfig::paper_baseline());
    let full = suite.run_all(&SimConfig::paper_treelet_prefetch().with_voter(VoterKind::Full, 0));
    let pseudo = suite
        .run_all(&SimConfig::paper_treelet_prefetch().with_voter(VoterKind::PseudoTwoLevel, 0));

    let rows: Vec<_> = suite
        .benches()
        .iter()
        .enumerate()
        .map(|(i, b)| {
            (
                b.scene(),
                vec![
                    full[i].speedup_over(&base[i]),
                    pseudo[i].speedup_over(&base[i]),
                ],
            )
        })
        .collect();
    print_scene_table(
        "Fig. 18: full vs pseudo two-level voter speedups",
        &["full", "pseudo"],
        &rows,
        true,
    );
    let f: Vec<f64> = rows.iter().map(|(_, c)| c[0]).collect();
    let p: Vec<f64> = rows.iter().map(|(_, c)| c[1]).collect();
    println!(
        "\nfull: {} pseudo: {} (paper: accuracy loss does not impact performance)",
        pct(geometric_mean(&f)),
        pct(geometric_mean(&p))
    );
}
