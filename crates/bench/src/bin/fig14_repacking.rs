//! Figure 14: treelet BVH options — the repacked treelet layout vs. an
//! unmodified BVH with a node-to-treelet mapping table under the Loose
//! Wait (optimistic) and Strict Wait (pessimistic) schedules.

use rt_bench::{print_speedups, run_grid, suite};
use treelet_rt::{MappingMode, SimConfig, Sweep};

fn main() {
    let options = [
        ("repacked", MappingMode::Packed),
        ("loose-wait", MappingMode::LooseWait),
        ("strict-wait", MappingMode::StrictWait),
    ];
    let sweep = options.into_iter().fold(
        Sweep::new(suite()).with_config("baseline", SimConfig::paper_baseline()),
        |sweep, (name, m)| {
            sweep.with_config(
                name,
                SimConfig::paper_treelet_prefetch().with_mapping_mode(m),
            )
        },
    );
    print_speedups("Fig. 14: treelet BVH options", &sweep, &run_grid(&sweep));
    println!("(paper: repacked +31.9% > loose +29.7% >> strict -2.5%)");
    println!("mapping table storage: 4 B per node = 1/16 of the 64 B node region (paper §6.4)");
}
