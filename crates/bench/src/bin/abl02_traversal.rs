//! Ablation: traversal-order design choices — near-first child ordering
//! and early ray termination — quantifying how much of the baseline's
//! efficiency each contributes (DESIGN.md §6 calls these out as ablation
//! targets).

use rt_bench::{print_scene_table, Suite};
use treelet_rt::{geometric_mean, SimConfig, TraversalOptions};

fn main() {
    let suite = Suite::prepare_default();
    let base = suite.run_all(&SimConfig::paper_baseline());
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
    let results: Vec<Vec<_>> = variants
        .iter()
        .map(|(_, opts)| {
            let mut c = SimConfig::paper_baseline();
            c.traversal_options = *opts;
            suite.run_all(&c)
        })
        .collect();

    // Report slowdown factors (cycles relative to the full baseline) and
    // node inflation.
    let rows: Vec<_> = suite
        .benches()
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let mut cells = Vec::new();
            for r in &results {
                cells.push(r[i].cycles as f64 / base[i].cycles as f64);
            }
            for r in &results {
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
    for (col, (name, _)) in variants.iter().enumerate() {
        let vals: Vec<f64> = rows.iter().map(|(_, c)| c[col]).collect();
        println!(
            "{name}: {:.2}x cycles vs full baseline",
            geometric_mean(&vals)
        );
    }
}
