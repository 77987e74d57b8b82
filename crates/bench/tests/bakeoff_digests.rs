//! Fig. 8 bakeoff determinism contract: the three-way prior-work
//! comparison (MTA, GHB, treelet) over the full sixteen-scene
//! suite must be rerun-stable — every scene's cycle count and state
//! digest bit-identical between two passes — and each prefetcher must
//! leave its own distinguishable fingerprint on the suite, so a silent
//! mis-dispatch (two selectors driving the same engine path) cannot pass.
//!
//! CI runs this at smoke detail; the `fig08_prior_work` binary runs the
//! same cells at full scale.

use rt_bench::Suite;
use rt_scene::{Workload, WorkloadKind};
use treelet_rt::{PrefetchConfig, SimConfig, SimResult};

fn digests(results: &[SimResult]) -> Vec<(u64, u64)> {
    results.iter().map(|r| (r.cycles, r.state_digest)).collect()
}

#[test]
fn bakeoff_suite_is_rerun_stable_and_prefetchers_are_distinct() {
    let suite = Suite::prepare(0.1, Workload::new(WorkloadKind::Primary, 16, 16));
    let configs: Vec<(&str, SimConfig)> = vec![
        ("baseline", SimConfig::paper_baseline()),
        (
            "mta",
            SimConfig::paper_baseline().with_prefetcher(PrefetchConfig::mta()),
        ),
        (
            "ghb",
            SimConfig::paper_baseline().with_prefetcher(PrefetchConfig::ghb()),
        ),
        ("treelet", SimConfig::paper_treelet_prefetch()),
    ];
    let mut fingerprints = Vec::new();
    for (name, config) in &configs {
        let first = digests(&suite.run_all(config));
        let second = digests(&suite.run_all(config));
        assert_eq!(
            first, second,
            "{name}: suite digests changed between identical reruns"
        );
        fingerprints.push((*name, first));
    }
    // Each prefetcher must behave differently from every other config
    // somewhere in the suite; identical whole-suite fingerprints mean
    // two selectors silently ran the same engine path.
    for i in 0..fingerprints.len() {
        for j in i + 1..fingerprints.len() {
            assert_ne!(
                fingerprints[i].1, fingerprints[j].1,
                "{} and {} produced identical suite digests",
                fingerprints[i].0, fingerprints[j].0
            );
        }
    }
}
