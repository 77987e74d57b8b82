//! Integration tests asserting the *qualitative shapes* of the paper's
//! results — who wins, in which regime — on reduced-size scenes so the
//! suite stays fast in debug builds. The full-scale numbers live in the
//! `rt-bench` harness binaries and EXPERIMENTS.md.

use treelet_prefetching::bvh::{TreeStats, WideBvh};
use treelet_prefetching::scene::{Scene, SceneId, Workload, WorkloadKind};
use treelet_prefetching::treelet::{MappingMode, PrefetchConfig, SimConfig, SimResult, SimSession};

fn run(id: SceneId, detail: f32, config: &SimConfig) -> SimResult {
    let scene = Scene::build_with_detail(id, detail);
    let rays = Workload::new(WorkloadKind::Primary, 16, 16).generate(&scene);
    let bvh = WideBvh::build(scene.mesh.into_triangles());
    SimSession::new(&bvh, &rays, config.clone())
        .run()
        .expect("simulation")
}

#[test]
fn prefetching_reduces_demand_load_latency() {
    // Fig. 1b's shape: treelet prefetching cuts the average latency of
    // demand BVH loads.
    let base = run(SceneId::Crnvl, 0.5, &SimConfig::paper_baseline());
    let pf = run(SceneId::Crnvl, 0.5, &SimConfig::paper_treelet_prefetch());
    assert!(
        pf.node_load_latency < base.node_load_latency,
        "prefetching did not reduce node load latency: {} vs {}",
        pf.node_load_latency,
        base.node_load_latency
    );
}

#[test]
fn prefetching_produces_timely_hits() {
    let pf = run(SceneId::Crnvl, 0.5, &SimConfig::paper_treelet_prefetch());
    let e = pf.prefetch_effect;
    assert!(e.total() > 0, "no prefetches classified");
    assert!(e.timely + e.late > 0, "no prefetch ever helped: {e:?}");
}

#[test]
fn prefetching_raises_dram_utilization() {
    // Fig. 1a's shape: the baseline underuses DRAM; prefetching raises
    // utilization by converting serialized pointer-chasing into bulk
    // treelet fetches.
    let base = run(SceneId::Car, 0.4, &SimConfig::paper_baseline());
    let pf = run(SceneId::Car, 0.4, &SimConfig::paper_treelet_prefetch());
    assert!(
        base.dram_utilization < 0.5,
        "baseline should be latency-bound"
    );
    assert!(pf.dram_utilization > base.dram_utilization * 0.9);
}

#[test]
fn strict_wait_is_no_better_than_loose_wait() {
    // Fig. 14's shape: gating prefetches on mapping-table loads can only
    // delay them.
    let loose = run(
        SceneId::Fox,
        0.4,
        &SimConfig::paper_treelet_prefetch().with_mapping_mode(MappingMode::LooseWait),
    );
    let strict = run(
        SceneId::Fox,
        0.4,
        &SimConfig::paper_treelet_prefetch().with_mapping_mode(MappingMode::StrictWait),
    );
    assert!(
        strict.cycles as f64 >= loose.cycles as f64 * 0.98,
        "strict wait unexpectedly faster: {} vs {}",
        strict.cycles,
        loose.cycles
    );
    // Strict wait can never produce more timely prefetch traffic.
    assert!(strict.l1.prefetch_probes <= loose.l1.prefetch_probes);
}

#[test]
fn stride_balances_dram_channels() {
    // Fig. 15's shape: 512 B-apart treelet roots skew traffic toward
    // channels 0/2; the extra 256 B stride spreads it.
    let cv = |counts: &[u64]| {
        let n = counts.len() as f64;
        let mean = counts.iter().sum::<u64>() as f64 / n;
        let var = counts
            .iter()
            .map(|&c| (c as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        var.sqrt() / mean
    };
    let packed = run(SceneId::Bunny, 0.5, &SimConfig::paper_treelet_prefetch());
    let mut strided_cfg = SimConfig::paper_treelet_prefetch();
    strided_cfg.layout =
        treelet_prefetching::treelet::LayoutChoice::TreeletPacked { extra_stride: 256 };
    let strided = run(SceneId::Bunny, 0.5, &strided_cfg);
    assert!(
        cv(&strided.dram_channel_accesses) < cv(&packed.dram_channel_accesses),
        "stride did not balance channels: {:?} vs {:?}",
        strided.dram_channel_accesses,
        packed.dram_channel_accesses
    );
}

#[test]
fn mta_stride_prefetcher_is_ineffective_on_ray_tracing() {
    // Fig. 8's shape: stride prefetching finds almost nothing useful in
    // BVH pointer-chasing traffic.
    let config = SimConfig::paper_baseline().with_prefetcher(PrefetchConfig::mta());
    let mta = run(SceneId::Sprng, 0.4, &config);
    let stats = mta.mta.expect("MTA stats");
    assert!(stats.observed > 0);
    let e = mta.prefetch_effect;
    let useful = e.timely + e.late;
    assert!(
        useful * 5 <= e.total().max(1),
        "MTA unexpectedly useful: {e:?}"
    );
}

#[test]
fn cache_resident_scene_has_high_hit_rate() {
    // WKND's BVH fits in the L1 — the reason the paper sees no speedup
    // there.
    let base = run(SceneId::Wknd, 0.4, &SimConfig::paper_baseline());
    let scene = Scene::build_with_detail(SceneId::Wknd, 0.4);
    let footprint = TreeStats::of(&WideBvh::build(scene.mesh.into_triangles())).total_bytes();
    assert!(
        footprint < 512 * 1024,
        "WKND stand-in too large: {footprint} bytes"
    );
    // After the cold pass, reuse dominates: misses are a small fraction.
    let misses = base.l1.demand_misses as f64;
    let total = base.l1.demand_accesses() as f64;
    assert!(
        misses / total < 0.5,
        "cache-resident scene missing too often ({:.0}%)",
        misses / total * 100.0
    );
}

#[test]
fn voter_latency_hurts_monotonically_in_the_limit() {
    // Fig. 16's shape: an instant voter beats a 512-cycle voter.
    use treelet_prefetching::treelet::VoterKind;
    let fast = run(
        SceneId::Chsnt,
        0.5,
        &SimConfig::paper_treelet_prefetch().with_voter(VoterKind::PseudoTwoLevel, 0),
    );
    let slow = run(
        SceneId::Chsnt,
        0.5,
        &SimConfig::paper_treelet_prefetch().with_voter(VoterKind::PseudoTwoLevel, 512),
    );
    assert!(
        slow.cycles >= fast.cycles,
        "512-cycle voter beat the instant voter: {} vs {}",
        slow.cycles,
        fast.cycles
    );
}

#[test]
fn pseudo_voter_accuracy_is_high() {
    use treelet_prefetching::treelet::VoterKind;
    let r = run(
        SceneId::Party,
        0.4,
        &SimConfig::paper_treelet_prefetch().with_voter(VoterKind::PseudoTwoLevel, 0),
    );
    let p = r.prefetcher.expect("prefetcher stats");
    assert!(p.pseudo_comparisons > 0);
    assert!(
        p.voter_accuracy() > 0.7,
        "pseudo voter accuracy suspiciously low: {:.2}",
        p.voter_accuracy()
    );
}
