//! A bench's own run path matches a session that forms its own treelets.
//!
//! `Bench::try_run` may hand the session an assignment the bench already
//! holds instead of forming one per run. Whatever it hands over, the
//! result must equal a bare `SimSession::new(bvh, rays, config).run()`,
//! which always forms from `config`, in cycles and in state digest. The
//! third config asks for a non-default budget and formation, so it pins
//! the path where the session still forms its own assignment.
//!
//! The bench's assignment is the one formation gives, whether the bench
//! was prepared cold or read back from the preparation cache.

use rt_scene::{SceneId, Workload, WorkloadKind};
use treelet_rt::{
    Bench, BvhCache, FormationPolicy, SimConfig, SimSession, TreeletAssignment,
    DEFAULT_TREELET_BYTES,
};

fn configs() -> [(&'static str, SimConfig); 3] {
    let mut dfs_256 = SimConfig::paper_treelet_prefetch();
    dfs_256.treelet_bytes = 256;
    dfs_256.formation = FormationPolicy::GreedyDfs;
    [
        ("baseline", SimConfig::paper_baseline()),
        ("prefetch", SimConfig::paper_treelet_prefetch()),
        ("prefetch-dfs-256", dfs_256),
    ]
}

#[test]
fn bench_run_equals_a_session_forming_its_own_treelets() {
    for scene in [SceneId::Wknd, SceneId::Car, SceneId::Park] {
        let bench = Bench::prepare(scene, 0.1, Workload::new(WorkloadKind::Primary, 16, 16));
        for (name, config) in configs() {
            let via_bench = bench.try_run(&config).expect("bench run");
            let via_session = SimSession::new(bench.bvh(), bench.rays(), config.clone())
                .run()
                .expect("session run");
            assert_eq!(
                (via_bench.cycles, via_bench.state_digest),
                (via_session.cycles, via_session.state_digest),
                "{scene}/{name}: bench and session runs differ"
            );
            assert_eq!(via_bench.treelet_count, via_session.treelet_count);
        }
    }
}

#[test]
fn cold_and_cached_benches_hold_the_formed_default_assignment() {
    let dir = std::env::temp_dir().join(format!("rt-default-assignment-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = BvhCache::open(&dir).expect("temp cache");
    for scene in [SceneId::Wknd, SceneId::Car, SceneId::Park] {
        let workload = Workload::new(WorkloadKind::Primary, 16, 16);
        let cold = Bench::try_prepare_cached(scene, 0.1, workload, Some(&cache)).unwrap();
        let hit = Bench::try_prepare_cached(scene, 0.1, workload, Some(&cache)).unwrap();
        let formed = TreeletAssignment::form(cold.bvh(), DEFAULT_TREELET_BYTES);
        assert_eq!(cold.treelets(), &formed, "{scene}: cold bench");
        assert_eq!(hit.treelets(), &formed, "{scene}: cache hit");
        let config = SimConfig::paper_treelet_prefetch();
        assert_eq!(
            cold.try_run(&config).unwrap().state_digest,
            hit.try_run(&config).unwrap().state_digest,
            "{scene}: cold and cached runs differ"
        );
    }
    assert_eq!((cache.hits(), cache.misses()), (3, 3));
    std::fs::remove_dir_all(&dir).ok();
}
