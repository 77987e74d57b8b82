//! Table 2: per-scene BVH statistics (tree size, depth, total treelets at
//! the 512-byte maximum treelet size), with the paper's published values
//! alongside for comparison. Absolute sizes differ — our procedural
//! stand-ins are scaled down (see DESIGN.md) — but the relative ordering
//! of the suite is preserved.

use rt_bench::Suite;

fn main() {
    let suite = Suite::prepare_default();
    println!("== Table 2: evaluation scenes (ours vs. paper) ==");
    println!(
        "{:<7} {:>12} {:>7} {:>12} | {:>12} {:>7} {:>12}",
        "Scene", "size MB", "depth", "treelets", "paper MB", "depth", "treelets"
    );
    for bench in suite.benches() {
        let stats = bench.tree_stats();
        let treelets = bench.treelets();
        let paper = bench.scene().paper_stats();
        println!(
            "{:<7} {:>12.2} {:>7} {:>12} | {:>12.1} {:>7} {:>12}",
            bench.scene().name(),
            stats.total_mb(),
            stats.max_depth,
            treelets.count(),
            paper.tree_size_mb,
            paper.tree_depth,
            paper.total_treelets
        );
    }
}
