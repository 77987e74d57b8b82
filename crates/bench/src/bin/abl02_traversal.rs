//! Ablation: traversal-order design choices — near-first child ordering
//! and early ray termination — quantifying how much of the baseline's
//! efficiency each contributes (DESIGN.md §6 calls these out as ablation
//! targets).

use rt_bench::{column_gmean, print_scene_table, run_grid, suite};
use treelet_rt::{SimConfig, Sweep, TraversalOptions};

fn main() {
    let variants = [
        (
            "no-order",
            TraversalOptions {
                ordered_children: false,
                early_termination: true,
            },
        ),
        (
            "no-ERT",
            TraversalOptions {
                ordered_children: true,
                early_termination: false,
            },
        ),
        (
            "neither",
            TraversalOptions {
                ordered_children: false,
                early_termination: false,
            },
        ),
    ];
    let sweep = variants.into_iter().fold(
        Sweep::new(suite()).with_config("baseline", SimConfig::paper_baseline()),
        |sweep, (name, opts)| {
            let mut c = SimConfig::paper_baseline();
            c.traversal_options = opts;
            sweep.with_config(name, c)
        },
    );
    let results = run_grid(&sweep);
    let (base, results) = results.split_first().expect("a baseline column");

    // Report slowdown factors (cycles relative to the full baseline) and
    // node inflation.
    let rows: Vec<_> = sweep
        .benches()
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let mut cells = Vec::new();
            for r in results {
                cells.push(r[i].cycles as f64 / base[i].cycles as f64);
            }
            for r in results {
                cells.push(r[i].traversal.avg_nodes_per_ray / base[i].traversal.avg_nodes_per_ray);
            }
            (b.scene(), cells)
        })
        .collect();
    print_scene_table(
        "Ablation 2: cycle and node-visit inflation without ordering / ERT",
        &[
            "cyc no-order",
            "cyc no-ERT",
            "cyc neither",
            "node no-order",
            "node no-ERT",
            "node neither",
        ],
        &rows,
        true,
    );
    for (col, (name, _)) in sweep.configs()[1..].iter().enumerate() {
        println!(
            "{name}: {:.2}x cycles vs full baseline",
            column_gmean(&rows, col)
        );
    }
}
