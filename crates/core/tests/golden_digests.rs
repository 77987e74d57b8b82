//! Golden state-digest regression tests.
//!
//! The dense-table rework of the simulator's hot path (Fx-hashed request
//! maps, count tables, the pending-line cursor, idle-cycle skipping)
//! must be unobservable in simulated behavior. These tests pin two
//! scenes' final `state_digest` values under both paper configurations
//! so any future change to the cycle loop, the keyed tables, or the
//! snapshot codec that perturbs simulated state — rather than just
//! wall-clock speed — fails loudly instead of silently shifting every
//! digest log in CI.
//!
//! The pinned values correspond to the CI suite cells
//! `suite --detail 0.1 --res 16 --config {baseline,prefetch}`.

use treelet_rt::{
    Bench, CheckpointOptions, MappingMode, PrefetchConfig, PrefetchDestination, PrefetchHeuristic,
    SchedulerPolicy, SimConfig, SimSession, VoterKind,
};

use rt_scene::{SceneId, Workload, WorkloadKind};

/// The suite smoke workload: detail 0.1, 16×16 primary rays.
fn bench(scene: SceneId) -> Bench {
    Bench::prepare(scene, 0.1, Workload::new(WorkloadKind::Primary, 16, 16))
}

/// (scene, config name, config, expected cycles, expected digest).
///
/// The mta/ghb/hash rows pin the Fig. 8 prior-work prefetchers riding on
/// the paper baseline — the same cells the bakeoff harness runs — so a
/// change to the unified `Prefetcher` dispatch that perturbs any one of
/// them fails here by name rather than shifting bakeoff output silently.
fn golden() -> [(SceneId, &'static str, SimConfig, u64, u64); 10] {
    [
        (
            SceneId::Wknd,
            "baseline",
            SimConfig::paper_baseline(),
            1875,
            0x74cebf7a2df3df4e,
        ),
        (
            SceneId::Car,
            "baseline",
            SimConfig::paper_baseline(),
            3749,
            0xd3ea8674ce4ed419,
        ),
        (
            SceneId::Wknd,
            "prefetch",
            SimConfig::paper_treelet_prefetch(),
            1591,
            0x55beb052ef4e43eb,
        ),
        (
            SceneId::Car,
            "prefetch",
            SimConfig::paper_treelet_prefetch(),
            3148,
            0x7443b83510c62a52,
        ),
        (
            SceneId::Wknd,
            "mta",
            SimConfig::paper_baseline().with_prefetcher(PrefetchConfig::mta()),
            1875,
            0x38812acfe0a9701a,
        ),
        (
            SceneId::Car,
            "mta",
            SimConfig::paper_baseline().with_prefetcher(PrefetchConfig::mta()),
            3753,
            0xf9d1f4f40c0be1e1,
        ),
        (
            SceneId::Wknd,
            "ghb",
            SimConfig::paper_baseline().with_prefetcher(PrefetchConfig::ghb()),
            1875,
            0x55f136e57e73ea93,
        ),
        (
            SceneId::Car,
            "ghb",
            SimConfig::paper_baseline().with_prefetcher(PrefetchConfig::ghb()),
            3749,
            0x5eb54e64dda9cbda,
        ),
        (
            SceneId::Wknd,
            "hash",
            SimConfig::paper_baseline().with_prefetcher(PrefetchConfig::hash()),
            1875,
            0x0463f97cb1936c5d,
        ),
        (
            SceneId::Car,
            "hash",
            SimConfig::paper_baseline().with_prefetcher(PrefetchConfig::hash()),
            3749,
            0x7e1e8998ca0d4163,
        ),
    ]
}

#[test]
fn state_digests_match_the_pinned_goldens() {
    for (scene, name, config, cycles, digest) in golden() {
        let result = bench(scene).run(&config);
        assert_eq!(result.cycles, cycles, "{scene}/{name} cycles");
        assert_eq!(
            result.state_digest, digest,
            "{scene}/{name} digest {:#018x} != pinned {digest:#018x}",
            result.state_digest
        );
    }
}

#[test]
fn idle_skip_is_bit_identical_to_the_naive_loop() {
    // The fast-forward path must be a pure wall-clock optimization:
    // turning it off reproduces the same cycles, counters, and digest.
    for (scene, name, config, cycles, digest) in golden() {
        let mut naive = config;
        naive.idle_skip = false;
        let result = bench(scene).run(&naive);
        assert_eq!(result.cycles, cycles, "{scene}/{name} cycles (no skip)");
        assert_eq!(result.state_digest, digest, "{scene}/{name} digest (no skip)");
    }
}

#[test]
fn checkpoint_resume_round_trips_over_the_dense_tables() {
    // Interrupt each golden run mid-flight via the cycle budget, resume
    // from the surviving checkpoint, and require the exact pinned final
    // digest: the snapshot codec serializes the Fx-hashed tables and the
    // pending-line cursor in canonical order, so the resumed timeline is
    // indistinguishable from the straight one.
    let dir = std::env::temp_dir().join(format!("golden-digests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (scene, name, config, cycles, digest) in golden() {
        let b = bench(scene);
        let every = (cycles / 5).max(1);
        let opts = CheckpointOptions::new(every, dir.join(format!("{scene}-{name}.rtsnap")));
        let mut truncated = config.clone();
        truncated.max_cycles = cycles * 2 / 3;
        let interrupted = SimSession::borrowed(b.bvh(), b.rays(), &truncated)
            .checkpoint(opts.clone())
            .run();
        assert!(interrupted.is_err(), "{scene}/{name} must hit the budget");
        let resumed = SimSession::borrowed(b.bvh(), b.rays(), &config)
            .checkpoint(opts)
            .resume_from_checkpoint()
            .run()
            .unwrap();
        assert_eq!(resumed.cycles, cycles, "{scene}/{name} resumed cycles");
        assert_eq!(
            resumed.state_digest, digest,
            "{scene}/{name} resumed digest"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Treelet-prefetcher variants whose idle-skip handling differs from the
/// default config's: staged decisions (voter latency), the pseudo voter's
/// accuracy counters, threshold-suppressed and partial decisions, the
/// mapping-table queue entries, the OMR scheduler, and L2 prefetches.
fn treelet_variants() -> Vec<(String, SimConfig)> {
    let prefetch = SimConfig::paper_treelet_prefetch;
    let mut variants = Vec::new();
    for latency in [0, 32, 512] {
        for voter in [VoterKind::Full, VoterKind::PseudoTwoLevel] {
            variants.push((
                format!("{voter:?}/latency {latency}"),
                prefetch().with_voter(voter, latency),
            ));
        }
    }
    for heuristic in [
        PrefetchHeuristic::Popularity(0.5),
        PrefetchHeuristic::Partial,
    ] {
        variants.push((format!("{heuristic}"), prefetch().with_heuristic(heuristic)));
    }
    for mode in [MappingMode::LooseWait, MappingMode::StrictWait] {
        variants.push((format!("{mode:?}"), prefetch().with_mapping_mode(mode)));
    }
    variants.push((
        "OMR".to_string(),
        prefetch().with_scheduler(SchedulerPolicy::OldestMatchingRay),
    ));
    let mut l2 = prefetch();
    l2.prefetch_destination = PrefetchDestination::L2;
    variants.push(("L2 destination".to_string(), l2));
    variants
}

#[test]
fn idle_skip_is_bit_identical_across_treelet_variants() {
    // Two scenes with different idle profiles: coherent primary rays and
    // incoherent diffuse rays (many distinct treelets per SM).
    let benches = [
        ("WKND primary", bench(SceneId::Wknd)),
        (
            "CAR diffuse",
            Bench::prepare(
                SceneId::Car,
                0.1,
                Workload::new(WorkloadKind::Diffuse, 16, 16),
            ),
        ),
    ];
    for (scene, b) in &benches {
        for (name, config) in treelet_variants() {
            let mut naive = config.clone();
            naive.idle_skip = false;
            let skip = b.run(&config);
            let step = b.run(&naive);
            assert_eq!(skip.cycles, step.cycles, "{scene}/{name} cycles");
            assert_eq!(
                skip.state_digest, step.state_digest,
                "{scene}/{name} digest"
            );
            assert_eq!(skip.prefetcher, step.prefetcher, "{scene}/{name} stats");
            assert!(skip.prefetcher.is_some(), "{scene}/{name} runs a voter");
        }
    }
}
