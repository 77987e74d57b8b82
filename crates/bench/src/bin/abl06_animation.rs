//! Ablation: animated scenes — BVH refitting vs rebuilding, and treelet
//! staleness. Each frame deforms the geometry; we compare
//!
//! - **rebuild**: rebuild the BVH and re-form treelets every frame (the
//!   quality ceiling), against
//! - **refit + stale treelets**: refit the frame-0 BVH in place and keep
//!   the frame-0 treelet assignment (the cheap path a real engine would
//!   take between full rebuilds).
//!
//! The question: how fast does treelet-prefetching quality decay when the
//! treelets no longer match the deformed geometry?

use rt_bench::{pct, suite_detail};
use rt_bvh::WideBvh;
use rt_geometry::{Triangle, Vec3};
use rt_scene::{Scene, SceneId, Workload};
use treelet_rt::{SimConfig, SimSession, TreeletAssignment};

const AMPLITUDE: f32 = 0.4;

/// The travelling vertical ripple at `phase` applied to a rest-pose
/// vertex.
fn ripple(v: Vec3, phase: f32) -> Vec3 {
    Vec3::new(v.x, v.y + AMPLITUDE * (v.x * 0.8 + phase).sin(), v.z)
}

/// Deforms rest-pose triangles to `phase`.
fn deform(rest: &[Triangle], phase: f32) -> Vec<Triangle> {
    rest.iter()
        .map(|t| {
            Triangle::new(
                ripple(t.v0, phase),
                ripple(t.v1, phase),
                ripple(t.v2, phase),
            )
        })
        .collect()
}

fn main() {
    let detail = suite_detail();
    let scene = Scene::build_with_detail(SceneId::Bunny, detail);
    let rays = Workload::paper_default().generate(&scene);
    let rest = scene.mesh.into_triangles();

    // Frame-0 structures for the refit path. The build reorders
    // triangles; recover their rest poses (phase-0 ripple removed) so
    // later frames can be generated in the reordered order the refit
    // expects.
    let mut refit_bvh = WideBvh::build(deform(&rest, 0.0));
    let frame0_treelets = TreeletAssignment::form(&refit_bvh, 512);
    let reordered_rest: Vec<Triangle> = refit_bvh
        .triangles()
        .iter()
        .map(|t| {
            let unripple = |v: Vec3| Vec3::new(v.x, v.y - AMPLITUDE * (v.x * 0.8).sin(), v.z);
            Triangle::new(unripple(t.v0), unripple(t.v1), unripple(t.v2))
        })
        .collect();

    println!("== Ablation 6: animation — rebuild vs refit + stale treelets (BUNNY) ==");
    println!(
        "{:>5} {:>16} {:>16} {:>13}",
        "frame", "rebuild speedup", "refit speedup", "refit/rebuild"
    );
    for frame in 0..6 {
        let phase = frame as f32 * 0.9;

        // Quality ceiling: fresh build + fresh treelets every frame.
        let rebuilt = WideBvh::build(deform(&rest, phase));
        let rb_base = SimSession::new(&rebuilt, &rays, SimConfig::paper_baseline())
            .run()
            .expect("rebuild baseline");
        let rb_pf = SimSession::new(&rebuilt, &rays, SimConfig::paper_treelet_prefetch())
            .run()
            .expect("rebuild prefetch");

        // Cheap path: refit the frame-0 topology, keep frame-0 treelets.
        refit_bvh.refit(deform(&reordered_rest, phase));
        let rf_base = SimSession::new(&refit_bvh, &rays, SimConfig::paper_baseline())
            .treelets(&frame0_treelets)
            .run()
            .expect("refit baseline");
        let rf_pf = SimSession::new(&refit_bvh, &rays, SimConfig::paper_treelet_prefetch())
            .treelets(&frame0_treelets)
            .run()
            .expect("refit prefetch");

        let rb = rb_pf.speedup_over(&rb_base);
        let rf = rf_pf.speedup_over(&rf_base);
        println!(
            "{frame:>5} {:>16} {:>16} {:>13.3}",
            pct(rb),
            pct(rf),
            rf / rb
        );
    }
    println!("\n(1.0 in the last column = stale treelets are as good as fresh ones)");
}
