//! Figure 13: performance of the RT-unit treelet schedulers (baseline,
//! OMR, PMR) with treelet prefetching enabled.

use rt_bench::{print_speedups, run_grid, suite};
use treelet_rt::{SchedulerPolicy, SimConfig, Sweep};

fn main() {
    let policies = [
        ("baseline", SchedulerPolicy::Baseline),
        ("OMR", SchedulerPolicy::OldestMatchingRay),
        ("PMR", SchedulerPolicy::PrioritizeMostRays),
    ];
    let sweep = policies.into_iter().fold(
        Sweep::new(suite()).with_config("baseline", SimConfig::paper_baseline()),
        |sweep, (name, p)| {
            sweep.with_config(name, SimConfig::paper_treelet_prefetch().with_scheduler(p))
        },
    );
    print_speedups(
        "Fig. 13: treelet scheduler speedups",
        &sweep,
        &run_grid(&sweep),
    );
    println!("(paper: all within ~0.3% of each other; PMR +32.1% best)");
}
