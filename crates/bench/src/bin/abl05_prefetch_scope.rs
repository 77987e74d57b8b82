//! Ablation: prefetch scope extensions beyond the paper's design —
//! (a) also prefetching the triangle data referenced by a treelet's leaf
//! nodes, and (b) installing prefetches into the shared L2 instead of the
//! L1 (trading first-use latency for zero L1 pollution).

use rt_bench::{pct, print_scene_table, Suite};
use treelet_rt::{geometric_mean, PrefetchDestination, SimConfig};

fn main() {
    let suite = Suite::prepare_default();
    let base = suite.run_all(&SimConfig::paper_baseline());
    let variants: Vec<(&str, SimConfig)> = vec![
        ("nodes->L1", SimConfig::paper_treelet_prefetch()),
        ("nodes+tris->L1", {
            let mut c = SimConfig::paper_treelet_prefetch();
            c.prefetch_triangles = true;
            c
        }),
        ("nodes->L2", {
            let mut c = SimConfig::paper_treelet_prefetch();
            c.prefetch_destination = PrefetchDestination::L2;
            c
        }),
        ("nodes+tris->L2", {
            let mut c = SimConfig::paper_treelet_prefetch();
            c.prefetch_triangles = true;
            c.prefetch_destination = PrefetchDestination::L2;
            c
        }),
    ];
    let results: Vec<Vec<_>> = variants.iter().map(|(_, c)| suite.run_all(c)).collect();

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
    let columns: Vec<&str> = variants.iter().map(|(n, _)| *n).collect();
    print_scene_table(
        "Ablation 5: prefetch scope (what is fetched, and into which cache)",
        &columns,
        &rows,
        true,
    );
    for (col, (name, _)) in variants.iter().enumerate() {
        let vals: Vec<f64> = rows.iter().map(|(_, c)| c[col]).collect();
        println!("{name}: {}", pct(geometric_mean(&vals)));
    }
    println!("(the paper's design is nodes->L1; triangle data and L2 placement are extensions)");
}
