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
    SchedulerPolicy, ShaderProgram, SimConfig, SimSession, Telemetry, TelemetryOptions, VoterKind,
};

use rt_scene::{SceneId, Workload, WorkloadKind};

/// The suite smoke workload: detail 0.1, 16×16 primary rays.
fn bench(scene: SceneId) -> Bench {
    Bench::prepare(scene, 0.1, Workload::new(WorkloadKind::Primary, 16, 16))
}

/// (scene, config name, config, expected cycles, expected digest).
///
/// The mta/ghb rows pin the Fig. 8 prior-work prefetchers riding on
/// the paper baseline — the same cells the bakeoff harness runs — so a
/// change to the `PrefetcherUnit` dispatch that perturbs any one of them
/// fails here by name rather than shifting bakeoff output silently.
///
/// The remaining rows pin replay paths the paper configs leave out:
/// two-stack traversal without a prefetcher, Strict-Wait mapping loads,
/// triangle lines in the prefetched treelets, and a path-tracer shader
/// (dead lanes and bounce generations).
fn golden() -> [(SceneId, &'static str, SimConfig, u64, u64); 16] {
    let strict_wait =
        || SimConfig::paper_treelet_prefetch().with_mapping_mode(MappingMode::StrictWait);
    let triangles = || {
        let mut c = SimConfig::paper_treelet_prefetch();
        c.prefetch_triangles = true;
        c
    };
    let shader = || {
        let mut c = SimConfig::paper_treelet_prefetch();
        c.shader = Some(ShaderProgram::path_tracer());
        c
    };
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
            "traversal-only",
            SimConfig::paper_treelet_traversal_only(),
            2125,
            0x2fe389b935f5653b,
        ),
        (
            SceneId::Car,
            "traversal-only",
            SimConfig::paper_treelet_traversal_only(),
            3751,
            0x5e0251e0782d8ef4,
        ),
        (
            SceneId::Wknd,
            "strict-wait",
            strict_wait(),
            1875,
            0xa798d9bd2b2d5136,
        ),
        (
            SceneId::Car,
            "strict-wait",
            strict_wait(),
            3467,
            0x4a6769697a0ed355,
        ),
        (
            SceneId::Wknd,
            "triangles",
            triangles(),
            1345,
            0xb2b813072e8225da,
        ),
        (
            SceneId::Car,
            "triangles",
            triangles(),
            2822,
            0x0fd856b2d1014baf,
        ),
        (SceneId::Wknd, "shader", shader(), 2455, 0xbc3de925fee6ca34),
        (SceneId::Car, "shader", shader(), 3723, 0x63c007d19d258776),
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
        assert_eq!(
            result.state_digest, digest,
            "{scene}/{name} digest (no skip)"
        );
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

/// The MSHR-starvation grid: L1 MSHRs per SM, issue width, and a
/// prefetch/scheduler mode. Fewer MSHRs make the demand scheduler stall
/// on `Issue::Retry` for most of the run, so these cells pin the retry
/// path (every rejection is counted in `mshr_rejections`, which the
/// digest covers) as well as the fills that end each stall. Two SMs give
/// each SM four warps of a 16×16 image, so the OMR and PMR schedulers
/// have warps to choose between.
fn starvation_configs() -> Vec<(String, SimConfig)> {
    let mut modes = vec![("none".to_string(), SimConfig::paper_baseline())];
    for (dest, destination) in [
        ("L1", PrefetchDestination::L1),
        ("L2", PrefetchDestination::L2),
    ] {
        for (sched, scheduler) in [
            ("Baseline", SchedulerPolicy::Baseline),
            ("OMR", SchedulerPolicy::OldestMatchingRay),
            ("PMR", SchedulerPolicy::PrioritizeMostRays),
        ] {
            let mut config = SimConfig::paper_treelet_prefetch().with_scheduler(scheduler);
            config.prefetch_destination = destination;
            modes.push((format!("treelet->{dest}/{sched}"), config));
        }
    }
    let mut configs = Vec::new();
    for mshrs in [1, 4, 64] {
        for width in [1, 4] {
            for (mode, base) in &modes {
                let mut config = base.clone();
                config.num_sms = 2;
                config.mem.l1_mshrs = mshrs;
                config.issue_width = width;
                configs.push((format!("mshrs {mshrs}/width {width}/{mode}"), config));
            }
        }
    }
    configs
}

/// Coherent primary and incoherent diffuse rays, 16×16.
fn starvation_benches() -> [(&'static str, Bench); 2] {
    [
        ("WKND primary", bench(SceneId::Wknd)),
        (
            "CAR diffuse",
            Bench::prepare(
                SceneId::Car,
                0.1,
                Workload::new(WorkloadKind::Diffuse, 16, 16),
            ),
        ),
    ]
}

/// (cycles, state digest, L1 MSHR rejections) per starvation cell, in
/// `starvation_benches` × `starvation_configs` order.
const STARVATION_GOLDEN: [(u64, u64, u64); 84] = [
    (14391, 0x20266f7857b27a44, 23761), // WKND primary/mshrs 1/width 1/none
    (14387, 0xd97bb161a39db108, 23774), // WKND primary/mshrs 1/width 1/treelet->L1/Baseline
    (14830, 0x8ccc3ba9840ac2d6, 24019), // WKND primary/mshrs 1/width 1/treelet->L1/OMR
    (13913, 0xbbbd550f26ccf1ea, 23234), // WKND primary/mshrs 1/width 1/treelet->L1/PMR
    (13636, 0x745df4e59ae66608, 22328), // WKND primary/mshrs 1/width 1/treelet->L2/Baseline
    (13624, 0x52c42ab286e44890, 21692), // WKND primary/mshrs 1/width 1/treelet->L2/OMR
    (13291, 0x075a03c165c46acd, 21595), // WKND primary/mshrs 1/width 1/treelet->L2/PMR
    (14389, 0x55cbf6e737ee3fa0, 24349), // WKND primary/mshrs 1/width 4/none
    (14385, 0xd7f170f5f9d14258, 24364), // WKND primary/mshrs 1/width 4/treelet->L1/Baseline
    (14827, 0xad7d7a6b0e74f549, 24795), // WKND primary/mshrs 1/width 4/treelet->L1/OMR
    (13910, 0x930ed8c4588ece24, 24021), // WKND primary/mshrs 1/width 4/treelet->L1/PMR
    (13722, 0xef9ff33bcd0499af, 23045), // WKND primary/mshrs 1/width 4/treelet->L2/Baseline
    (13708, 0xdf820c60f82803ff, 22642), // WKND primary/mshrs 1/width 4/treelet->L2/OMR
    (13378, 0xb34fe2b999d28832, 22566), // WKND primary/mshrs 1/width 4/treelet->L2/PMR
    (3917, 0xf7c9d85c685e5b33, 5407),   // WKND primary/mshrs 4/width 1/none
    (3837, 0xa00faf69f6e28adb, 5187),   // WKND primary/mshrs 4/width 1/treelet->L1/Baseline
    (4108, 0x26b8e14b8b428cd5, 4566),   // WKND primary/mshrs 4/width 1/treelet->L1/OMR
    (3844, 0x78673fce82b428d9, 4525),   // WKND primary/mshrs 4/width 1/treelet->L1/PMR
    (3729, 0xc8952a03601621cc, 4911),   // WKND primary/mshrs 4/width 1/treelet->L2/Baseline
    (3805, 0x2572908eed6599b3, 4162),   // WKND primary/mshrs 4/width 1/treelet->L2/OMR
    (3722, 0x6e52e14caa4baba4, 3899),   // WKND primary/mshrs 4/width 1/treelet->L2/PMR
    (3898, 0xb261657e97c8d8e1, 5995),   // WKND primary/mshrs 4/width 4/none
    (3735, 0xb8cd4d5bcd035f97, 5615),   // WKND primary/mshrs 4/width 4/treelet->L1/Baseline
    (3908, 0x35ec27c434ff1625, 5174),   // WKND primary/mshrs 4/width 4/treelet->L1/OMR
    (3830, 0x19d7c340a3179ebd, 5048),   // WKND primary/mshrs 4/width 4/treelet->L1/PMR
    (3752, 0x422a751fd79b281f, 5471),   // WKND primary/mshrs 4/width 4/treelet->L2/Baseline
    (3875, 0xb8ca10f6ad5c5ab0, 4934),   // WKND primary/mshrs 4/width 4/treelet->L2/OMR
    (3807, 0xe81ccadb247a60ec, 5023),   // WKND primary/mshrs 4/width 4/treelet->L2/PMR
    (2053, 0x54a075e2cbfaab3b, 0),      // WKND primary/mshrs 64/width 1/none
    (1899, 0x0e30cacb1a79d04d, 0),      // WKND primary/mshrs 64/width 1/treelet->L1/Baseline
    (1899, 0xf7730c4ca1dfbf78, 0),      // WKND primary/mshrs 64/width 1/treelet->L1/OMR
    (1795, 0x68e759690714721b, 0),      // WKND primary/mshrs 64/width 1/treelet->L1/PMR
    (2009, 0x01c018df0ff2a18e, 0),      // WKND primary/mshrs 64/width 1/treelet->L2/Baseline
    (2009, 0x700662304abea8b6, 0),      // WKND primary/mshrs 64/width 1/treelet->L2/OMR
    (1903, 0xf84e413228c5c1a7, 0),      // WKND primary/mshrs 64/width 1/treelet->L2/PMR
    (1904, 0x3d907f4e6b5de54c, 0),      // WKND primary/mshrs 64/width 4/none
    (1650, 0x0820b885992a5db2, 0),      // WKND primary/mshrs 64/width 4/treelet->L1/Baseline
    (1650, 0x0820b885992a5db2, 0),      // WKND primary/mshrs 64/width 4/treelet->L1/OMR
    (1623, 0xd74aa4f5e01a97f4, 0),      // WKND primary/mshrs 64/width 4/treelet->L1/PMR
    (1921, 0x15b4c6d85cbafd84, 0),      // WKND primary/mshrs 64/width 4/treelet->L2/Baseline
    (1921, 0xfb1ad267e60436cc, 0),      // WKND primary/mshrs 64/width 4/treelet->L2/OMR
    (1912, 0xb0a698e61a01697e, 0),      // WKND primary/mshrs 64/width 4/treelet->L2/PMR
    (303536, 0x600617ccd777e428, 574478), // CAR diffuse/mshrs 1/width 1/none
    (303042, 0x250c351026694492, 571123), // CAR diffuse/mshrs 1/width 1/treelet->L1/Baseline
    (301215, 0x187766da36d333e1, 570538), // CAR diffuse/mshrs 1/width 1/treelet->L1/OMR
    (299516, 0x4d7a9df2fca06aef, 568137), // CAR diffuse/mshrs 1/width 1/treelet->L1/PMR
    (300577, 0xbbccd01ddcb77af2, 566536), // CAR diffuse/mshrs 1/width 1/treelet->L2/Baseline
    (297350, 0x406b64afeb12bb87, 562457), // CAR diffuse/mshrs 1/width 1/treelet->L2/OMR
    (295806, 0x66fd7d9632b10d49, 559638), // CAR diffuse/mshrs 1/width 1/treelet->L2/PMR
    (303480, 0xec9fb2a6869ce570, 579638), // CAR diffuse/mshrs 1/width 4/none
    (303260, 0xc07ec5a87a4a4d45, 576433), // CAR diffuse/mshrs 1/width 4/treelet->L1/Baseline
    (301385, 0x14d1d8c2c4538eaa, 576201), // CAR diffuse/mshrs 1/width 4/treelet->L1/OMR
    (300108, 0xb112b1a0e391685b, 574876), // CAR diffuse/mshrs 1/width 4/treelet->L1/PMR
    (300631, 0x692834ed4dd904d5, 572074), // CAR diffuse/mshrs 1/width 4/treelet->L2/Baseline
    (297745, 0x2d00eb80084b36f1, 569218), // CAR diffuse/mshrs 1/width 4/treelet->L2/OMR
    (296356, 0x50139089aef0af3a, 566649), // CAR diffuse/mshrs 1/width 4/treelet->L2/PMR
    (76247, 0x4fa53495ba9223b4, 139011), // CAR diffuse/mshrs 4/width 1/none
    (76126, 0xcb9a556b8c00feb9, 138287), // CAR diffuse/mshrs 4/width 1/treelet->L1/Baseline
    (75046, 0xbedcebc7fb99497a, 137397), // CAR diffuse/mshrs 4/width 1/treelet->L1/OMR
    (74359, 0x9f039c646206b83c, 137229), // CAR diffuse/mshrs 4/width 1/treelet->L1/PMR
    (75644, 0xf051f60269bacaed, 136948), // CAR diffuse/mshrs 4/width 1/treelet->L2/Baseline
    (74516, 0x982cc4ae17d73666, 135508), // CAR diffuse/mshrs 4/width 1/treelet->L2/OMR
    (74123, 0x0583579d2e8a9e7d, 135167), // CAR diffuse/mshrs 4/width 1/treelet->L2/PMR
    (76224, 0x0639fb2fedfd9d09, 144205), // CAR diffuse/mshrs 4/width 4/none
    (75931, 0x48623c5a96b3c274, 143239), // CAR diffuse/mshrs 4/width 4/treelet->L1/Baseline
    (75677, 0xd86e89cf651748a7, 142769), // CAR diffuse/mshrs 4/width 4/treelet->L1/OMR
    (74765, 0xcbc2cbf8d6af0336, 142835), // CAR diffuse/mshrs 4/width 4/treelet->L1/PMR
    (75576, 0xa99ed22e4a635bfd, 142091), // CAR diffuse/mshrs 4/width 4/treelet->L2/Baseline
    (74756, 0xb43a03a8fc8c2289, 141596), // CAR diffuse/mshrs 4/width 4/treelet->L2/OMR
    (74116, 0xacedc728792c7513, 140509), // CAR diffuse/mshrs 4/width 4/treelet->L2/PMR
    (6771, 0x3fea963ac6e82554, 3579),   // CAR diffuse/mshrs 64/width 1/none
    (6617, 0x09f023a85e80ad52, 3826),   // CAR diffuse/mshrs 64/width 1/treelet->L1/Baseline
    (6397, 0x8747ccd936549892, 3894),   // CAR diffuse/mshrs 64/width 1/treelet->L1/OMR
    (6454, 0x714381751934bb16, 3652),   // CAR diffuse/mshrs 64/width 1/treelet->L1/PMR
    (6592, 0xd4d6ace5c34adf29, 3749),   // CAR diffuse/mshrs 64/width 1/treelet->L2/Baseline
    (6367, 0xf7e5743ef9a14dd8, 3618),   // CAR diffuse/mshrs 64/width 1/treelet->L2/OMR
    (6265, 0xf2321e3100ef8e6f, 3545),   // CAR diffuse/mshrs 64/width 1/treelet->L2/PMR
    (6463, 0x1dceaf945c861583, 6878),   // CAR diffuse/mshrs 64/width 4/none
    (6232, 0xf9525439abf4c4b8, 6991),   // CAR diffuse/mshrs 64/width 4/treelet->L1/Baseline
    (6404, 0x3c05f3c18ec963e5, 7239),   // CAR diffuse/mshrs 64/width 4/treelet->L1/OMR
    (5894, 0x25b251006b7b04b8, 7303),   // CAR diffuse/mshrs 64/width 4/treelet->L1/PMR
    (6020, 0xa2c806e93adf11f9, 6848),   // CAR diffuse/mshrs 64/width 4/treelet->L2/Baseline
    (6342, 0xe19dbedbe28eda4b, 6913),   // CAR diffuse/mshrs 64/width 4/treelet->L2/OMR
    (5862, 0x253f65735b1d6a4a, 7100),   // CAR diffuse/mshrs 64/width 4/treelet->L2/PMR
];

/// Runs each `starvation_benches` × `configs` cell that `select` keeps
/// and compares (cycles, digest, L1 MSHR rejections) with its row of
/// `pinned`, which lists every cell in that order.
fn check_pinned(
    configs: Vec<(String, SimConfig)>,
    pinned: &[(u64, u64, u64)],
    select: impl Fn(&SimConfig) -> bool,
) {
    let mut pinned = pinned.iter();
    for (scene, b) in &starvation_benches() {
        for (name, config) in &configs {
            let &want = pinned.next().expect("one pinned row per cell");
            if !select(config) {
                continue;
            }
            let result = b.run(config);
            let got = (
                result.cycles,
                result.state_digest,
                result.l1.mshr_rejections,
            );
            assert_eq!(
                got, want,
                "{scene}/{name}: got ({}, {:#018x}, {})",
                got.0, got.1, got.2
            );
        }
    }
    assert!(pinned.next().is_none(), "every pinned row has a cell");
}

#[test]
fn mshr_starvation_matches_the_pinned_goldens_width_1() {
    // The two issue widths are separate tests so they run in parallel.
    check_pinned(starvation_configs(), &STARVATION_GOLDEN, |c| {
        c.issue_width == 1
    });
}

#[test]
fn mshr_starvation_matches_the_pinned_goldens_width_4() {
    check_pinned(starvation_configs(), &STARVATION_GOLDEN, |c| {
        c.issue_width == 4
    });
}

#[test]
fn checkpoint_taken_mid_stall_resumes_bit_identically() {
    // One MSHR per SM: the demand scheduler is stalled on most cycles.
    // Checkpoint at cycles where an SM was rejected on both sides of the
    // boundary, so the snapshot lands inside a stall.
    let b = bench(SceneId::Wknd);
    let mut config = SimConfig::paper_treelet_prefetch();
    config.num_sms = 2;
    config.mem.l1_mshrs = 1;
    let straight = b.run(&config);
    let mut telemetry = Telemetry::new(&TelemetryOptions::new(1));
    SimSession::borrowed(b.bvh(), b.rays(), &config)
        .telemetry(&mut telemetry)
        .run()
        .unwrap();
    let rejections: Vec<(u64, u64)> = telemetry
        .samples()
        .iter()
        .map(|s| (s.cycle, s.l1_mshr_rejections))
        .collect();
    let stalled: Vec<u64> = rejections
        .windows(3)
        .filter(|w| w[0].1 < w[1].1 && w[1].1 < w[2].1)
        .map(|w| w[1].0)
        .collect();
    let dir = std::env::temp_dir().join(format!("golden-stall-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for quarter in 1..=3 {
        let at = *stalled
            .iter()
            .find(|&&c| c >= straight.cycles * quarter / 4)
            .expect("the run stalls in every quarter");
        let opts = CheckpointOptions::new(at, dir.join(format!("stall-{at}.rtsnap")));
        let mut truncated = config.clone();
        truncated.max_cycles = at;
        let interrupted = SimSession::borrowed(b.bvh(), b.rays(), &truncated)
            .checkpoint(opts.clone())
            .run();
        assert!(interrupted.is_err(), "cycle {at} must hit the budget");
        let resumed = SimSession::borrowed(b.bvh(), b.rays(), &config)
            .checkpoint(opts)
            .resume_from_checkpoint()
            .run()
            .unwrap();
        assert_eq!(resumed.cycles, straight.cycles, "resumed at {at}: cycles");
        assert_eq!(
            resumed.state_digest, straight.state_digest,
            "resumed at {at}: digest"
        );
        assert_eq!(resumed.l1, straight.l1, "resumed at {at}: L1 counters");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Starvation under warp turnover: fewer warp-buffer slots than the four
/// warps each SM runs, admitted on a long raygen stagger, so warps enter
/// the buffer while the scheduler is stalled and PMR or OMR may switch
/// to them.
fn turnover_configs() -> Vec<(String, SimConfig)> {
    let mut configs = Vec::new();
    for (slots, mshrs) in [(2, 2), (3, 1)] {
        for (sched, scheduler) in [
            ("OMR", SchedulerPolicy::OldestMatchingRay),
            ("PMR", SchedulerPolicy::PrioritizeMostRays),
        ] {
            let mut config = SimConfig::paper_treelet_prefetch().with_scheduler(scheduler);
            config.num_sms = 2;
            config.warp_buffer_size = slots;
            config.raygen_interval = 1000;
            config.mem.l1_mshrs = mshrs;
            configs.push((format!("slots {slots}/mshrs {mshrs}/{sched}"), config));
        }
    }
    configs
}

/// (cycles, state digest, L1 MSHR rejections) per turnover cell, in
/// `starvation_benches` × `turnover_configs` order.
const TURNOVER_GOLDEN: [(u64, u64, u64); 8] = [
    (6918, 0xcdfbe6399c8c4240, 11243), // WKND primary/slots 2/mshrs 2/OMR
    (7080, 0x70da01c9cc82fc00, 10875), // WKND primary/slots 2/mshrs 2/PMR
    (14492, 0xb4954470b30f63b9, 24422), // WKND primary/slots 3/mshrs 1/OMR
    (14467, 0x57def22bc6e9e541, 24423), // WKND primary/slots 3/mshrs 1/PMR
    (152158, 0xb59ed12b299496f0, 287457), // CAR diffuse/slots 2/mshrs 2/OMR
    (152231, 0x16640fc5287252d9, 287781), // CAR diffuse/slots 2/mshrs 2/PMR
    (301612, 0xf04bf3aff32e8f32, 575821), // CAR diffuse/slots 3/mshrs 1/OMR
    (300076, 0x17dacef3d7a2f3c2, 576937), // CAR diffuse/slots 3/mshrs 1/PMR
];

#[test]
fn mshr_starvation_under_warp_turnover_matches_the_pinned_goldens() {
    check_pinned(turnover_configs(), &TURNOVER_GOLDEN, |_| true);
}
