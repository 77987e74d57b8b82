//! Figure 14: treelet BVH options — the repacked treelet layout vs. an
//! unmodified BVH with a node-to-treelet mapping table under the Loose
//! Wait (optimistic) and Strict Wait (pessimistic) schedules.

use rt_bench::{pct, print_scene_table, Suite};
use treelet_rt::{geometric_mean, MappingMode, SimConfig};

fn main() {
    let suite = Suite::prepare_default();
    let base = suite.run_all(&SimConfig::paper_baseline());
    let options = [
        ("repacked", MappingMode::Packed),
        ("loose-wait", MappingMode::LooseWait),
        ("strict-wait", MappingMode::StrictWait),
    ];
    let results: Vec<Vec<_>> = options
        .iter()
        .map(|(_, m)| suite.run_all(&SimConfig::paper_treelet_prefetch().with_mapping_mode(*m)))
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
    let columns: Vec<&str> = options.iter().map(|(n, _)| *n).collect();
    print_scene_table("Fig. 14: treelet BVH options", &columns, &rows, true);
    for (col, (name, _)) in options.iter().enumerate() {
        let vals: Vec<f64> = rows.iter().map(|(_, c)| c[col]).collect();
        println!("{name}: {}", pct(geometric_mean(&vals)));
    }
    println!("(paper: repacked +31.9% > loose +29.7% >> strict -2.5%)");
    println!("mapping table storage: 4 B per node = 1/16 of the 64 B node region (paper §6.4)");
}
