//! Ablation: treelet formation policies (the paper's §8 future work,
//! "optimizing treelet formation with statistical metrics") — the paper's
//! greedy BFS vs a depth-first variant vs surface-area-weighted growth.

use rt_bench::{pct, print_scene_table, Suite};
use treelet_rt::{geometric_mean, FormationPolicy, SimConfig, TreeletAssignment, TreeletMetrics};

fn main() {
    let suite = Suite::prepare_default();
    let base = suite.run_all(&SimConfig::paper_baseline());
    let policies = [
        ("greedy-bfs", FormationPolicy::GreedyBfs),
        ("greedy-dfs", FormationPolicy::GreedyDfs),
        ("surface-area", FormationPolicy::SurfaceArea),
    ];
    let results: Vec<Vec<_>> = policies
        .iter()
        .map(|(_, p)| {
            let mut c = SimConfig::paper_treelet_prefetch();
            c.formation = *p;
            suite.run_all(&c)
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
    let columns: Vec<&str> = policies.iter().map(|(n, _)| *n).collect();
    print_scene_table(
        "Ablation 1: treelet formation policy speedups (ALWAYS, PMR, 512 B)",
        &columns,
        &rows,
        true,
    );
    for (col, (name, _)) in policies.iter().enumerate() {
        let vals: Vec<f64> = rows.iter().map(|(_, c)| c[col]).collect();
        println!("{name}: {}", pct(geometric_mean(&vals)));
    }

    // Structural explanation: treelet-quality metrics per policy on a
    // representative scene.
    let bench = &suite.benches()[9]; // BUNNY
    println!("\ntreelet quality on {} (512 B):", bench.scene());
    for (name, policy) in policies {
        let assignment = TreeletAssignment::form_with_policy(bench.bvh(), 512, policy);
        println!(
            "  {name:<13} {}",
            TreeletMetrics::of(bench.bvh(), &assignment)
        );
    }
}
