//! Ablation: prefetch scope extensions beyond the paper's design —
//! (a) also prefetching the triangle data referenced by a treelet's leaf
//! nodes, and (b) installing prefetches into the shared L2 instead of the
//! L1 (trading first-use latency for zero L1 pollution).

use rt_bench::{print_speedups, run_grid, suite};
use treelet_rt::{PrefetchDestination, SimConfig, Sweep};

fn main() {
    let variants = [
        ("nodes->L1", false, PrefetchDestination::L1),
        ("nodes+tris->L1", true, PrefetchDestination::L1),
        ("nodes->L2", false, PrefetchDestination::L2),
        ("nodes+tris->L2", true, PrefetchDestination::L2),
    ];
    let sweep = variants.into_iter().fold(
        Sweep::new(suite()).with_config("baseline", SimConfig::paper_baseline()),
        |sweep, (name, triangles, destination)| {
            let mut c = SimConfig::paper_treelet_prefetch();
            c.prefetch_triangles = triangles;
            c.prefetch_destination = destination;
            sweep.with_config(name, c)
        },
    );
    print_speedups(
        "Ablation 5: prefetch scope (what is fetched, and into which cache)",
        &sweep,
        &run_grid(&sweep),
    );
    println!("(the paper's design is nodes->L1; triangle data and L2 placement are extensions)");
}
