//! Ablation: ray incoherence vs prefetch benefit. The paper (§2.4)
//! argues secondary and reflection rays are the hard case for classical
//! prefetchers; this experiment measures treelet prefetching on primary
//! rays, true diffuse bounces (traced off the primary hits), specular
//! bounces, and surface-sampled shadow rays.

use rt_bench::{pct, suite_detail};
use rt_scene::{Scene, SceneId, Workload, WorkloadKind};
use treelet_rt::{bounce_rays, direction_coherence, BounceKind, SimConfig, SimSession};

fn main() {
    let detail = suite_detail();
    println!("== Ablation 3: workload incoherence vs prefetch benefit ==");
    println!(
        "{:<7} {:<10} {:>9} {:>10} {:>10} {:>10}",
        "Scene", "workload", "coherence", "base cyc", "pf cyc", "speedup"
    );
    for scene_id in [SceneId::Bunny, SceneId::Crnvl, SceneId::Frst] {
        let scene = Scene::build_with_detail(scene_id, detail);
        let primary = Workload::paper_default().generate(&scene);
        let shadow = Workload::new(WorkloadKind::Shadow, 32, 32).generate(&scene);
        let bvh = rt_bvh::WideBvh::build(scene.mesh.into_triangles());
        let diffuse = bounce_rays(&bvh, &primary, BounceKind::Diffuse, 11);
        let specular = bounce_rays(&bvh, &primary, BounceKind::Specular, 11);

        for (name, rays) in [
            ("primary", &primary),
            ("specular", &specular),
            ("diffuse", &diffuse),
            ("shadow", &shadow),
        ] {
            if rays.is_empty() {
                continue;
            }
            let base = SimSession::new(&bvh, rays, SimConfig::paper_baseline())
                .run()
                .expect("baseline");
            let pf = SimSession::new(&bvh, rays, SimConfig::paper_treelet_prefetch())
                .run()
                .expect("prefetch");
            println!(
                "{:<7} {:<10} {:>9.3} {:>10} {:>10} {:>9}",
                scene_id.name(),
                name,
                direction_coherence(rays),
                base.cycles,
                pf.cycles,
                pct(pf.speedup_over(&base))
            );
        }
    }
    println!("\n(expectation: bounce generations are less coherent than primary rays;");
    println!(" treelet prefetching still helps because it does not rely on address regularity)");
}
