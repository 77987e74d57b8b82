//! Fig. 8 bakeoff determinism contract: the three-way prior-work
//! comparison (MTA, GHB, treelet) over the full sixteen-scene
//! suite must be rerun-stable — every scene's cycle count and state
//! digest bit-identical between two passes — and each prefetcher must
//! leave its own distinguishable fingerprint on the suite, so a silent
//! mis-dispatch (two selectors driving the same engine path) cannot pass.
//!
//! CI runs this at smoke detail; the `fig08_prior_work` binary runs the
//! same cells at full scale.

use rt_bench::{prepare_suite, run_grid};
use rt_scene::{Workload, WorkloadKind};
use treelet_rt::{PrefetchConfig, SimConfig, SimResult, Sweep};

/// `(cycles, state digest)` per scene, for every config column.
fn digests(results: &[Vec<SimResult>]) -> Vec<Vec<(u64, u64)>> {
    results
        .iter()
        .map(|column| column.iter().map(|r| (r.cycles, r.state_digest)).collect())
        .collect()
}

#[test]
fn bakeoff_suite_is_rerun_stable_and_prefetchers_are_distinct() {
    let sweep = Sweep::new(prepare_suite(
        0.1,
        Workload::new(WorkloadKind::Primary, 16, 16),
    ))
    .with_config("baseline", SimConfig::paper_baseline())
    .with_config(
        "mta",
        SimConfig::paper_baseline().with_prefetcher(PrefetchConfig::mta()),
    )
    .with_config(
        "ghb",
        SimConfig::paper_baseline().with_prefetcher(PrefetchConfig::ghb()),
    )
    .with_config("treelet", SimConfig::paper_treelet_prefetch());
    let fingerprints = digests(&run_grid(&sweep));
    assert_eq!(
        fingerprints,
        digests(&run_grid(&sweep)),
        "suite digests changed between identical reruns"
    );
    // Each prefetcher must behave differently from every other config
    // somewhere in the suite; identical whole-suite fingerprints mean
    // two selectors silently ran the same engine path.
    let labels = sweep.configs();
    for i in 0..fingerprints.len() {
        for j in i + 1..fingerprints.len() {
            assert_ne!(
                fingerprints[i], fingerprints[j],
                "{} and {} produced identical suite digests",
                labels[i].0, labels[j].0
            );
        }
    }
}
