//! Ablation: treelet formation policies (the paper's §8 future work,
//! "optimizing treelet formation with statistical metrics") — the paper's
//! greedy BFS vs a depth-first variant vs surface-area-weighted growth.

use rt_bench::{print_speedups, run_grid, suite};
use treelet_rt::{FormationPolicy, SimConfig, Sweep, TreeletAssignment, TreeletMetrics};

fn main() {
    let policies = [
        ("greedy-bfs", FormationPolicy::GreedyBfs),
        ("greedy-dfs", FormationPolicy::GreedyDfs),
        ("surface-area", FormationPolicy::SurfaceArea),
    ];
    let sweep = policies.into_iter().fold(
        Sweep::new(suite()).with_config("baseline", SimConfig::paper_baseline()),
        |sweep, (name, p)| {
            let mut c = SimConfig::paper_treelet_prefetch();
            c.formation = p;
            sweep.with_config(name, c)
        },
    );
    print_speedups(
        "Ablation 1: treelet formation policy speedups (ALWAYS, PMR, 512 B)",
        &sweep,
        &run_grid(&sweep),
    );

    // Structural explanation: treelet-quality metrics per policy on a
    // representative scene.
    let bench = &sweep.benches()[9]; // BUNNY
    println!("\ntreelet quality on {} (512 B):", bench.scene());
    for (name, policy) in policies {
        let assignment = TreeletAssignment::form_with_policy(bench.bvh(), 512, policy);
        println!(
            "  {name:<13} {}",
            TreeletMetrics::of(bench.bvh(), &assignment)
        );
    }
}
