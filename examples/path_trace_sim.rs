//! Simulates a path tracer: the primary generation plus two bounce
//! generations, comparing the baseline and treelet-prefetching
//! configurations per generation on cold caches, then for the whole
//! frame in one run whose shader program traces the bounces on warm
//! caches.
//!
//! Bounce generations get progressively less coherent — the regime the
//! paper's §2.4 motivates treelet prefetching with.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example path_trace_sim [SCENE] [DETAIL]
//! ```

use treelet_prefetching::bvh::WideBvh;
use treelet_prefetching::scene::{Scene, SceneId, Workload};
use treelet_prefetching::treelet::{
    bounce_rays, direction_coherence, BounceKind, ShaderProgram, SimConfig, SimSession,
};

fn main() {
    let mut args = std::env::args().skip(1);
    let scene_id = args
        .next()
        .and_then(|s| SceneId::from_name(&s))
        .unwrap_or(SceneId::Crnvl);
    let detail: f32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(1.0);

    println!("path-trace simulation on {scene_id} (detail {detail})");
    let scene = Scene::build_with_detail(scene_id, detail);
    let primary = Workload::paper_default().generate(&scene);
    let bvh = WideBvh::build(scene.mesh.into_triangles());

    // Build three generations: primary, first diffuse bounce, second
    // diffuse bounce. The shader program below seeds generation g with
    // `seed + g`, so it traces these same rays.
    let program = ShaderProgram {
        raygen_ops: 0,
        shade_ops: 0,
        bounces: 2,
        bounce_kind: BounceKind::Diffuse,
        seed: 0xaf,
    };
    let bounce1 = bounce_rays(&bvh, &primary, program.bounce_kind, program.seed + 1);
    let bounce2 = bounce_rays(&bvh, &bounce1, program.bounce_kind, program.seed + 2);
    let generations = [
        ("primary", &primary),
        ("bounce 1", &bounce1),
        ("bounce 2", &bounce2),
    ];

    println!(
        "\n{:<9} {:>6} {:>10} {:>11} {:>11} {:>9}",
        "gen", "rays", "coherence", "base cyc", "pf cyc", "speedup"
    );
    let mut total_base = 0u64;
    let mut total_pf = 0u64;
    for (name, rays) in generations {
        if rays.is_empty() {
            println!("{name:<9} {:>6} (no surviving rays)", 0);
            continue;
        }
        let base = SimSession::new(&bvh, rays, SimConfig::paper_baseline())
            .run()
            .expect("baseline generation");
        let pf = SimSession::new(&bvh, rays, SimConfig::paper_treelet_prefetch())
            .run()
            .expect("prefetch generation");
        total_base += base.cycles;
        total_pf += pf.cycles;
        println!(
            "{:<9} {:>6} {:>10.3} {:>11} {:>11} {:>8.3}x",
            name,
            rays.len(),
            direction_coherence(rays),
            base.cycles,
            pf.cycles,
            pf.speedup_over(&base)
        );
    }
    println!(
        "\nwhole frame (cold caches per generation): {} -> {} cycles ({:.3}x)",
        total_base,
        total_pf,
        total_base as f64 / total_pf as f64
    );

    // A real path tracer keeps the caches warm between generations: the
    // SM's shader program traces the bounces inside one run.
    let warm = |mut config: SimConfig| {
        config.shader = Some(program);
        SimSession::new(&bvh, &primary, config)
            .run()
            .expect("warm whole frame")
            .cycles
    };
    let warm_base = warm(SimConfig::paper_baseline());
    let warm_pf = warm(SimConfig::paper_treelet_prefetch());
    println!(
        "whole frame (warm caches across generations): {} -> {} cycles ({:.3}x)",
        warm_base,
        warm_pf,
        warm_base as f64 / warm_pf as f64
    );
}
