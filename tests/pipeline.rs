//! End-to-end integration tests across the whole stack: scene generation
//! → BVH construction → treelet formation → functional traversal →
//! cycle-level simulation.

use treelet_prefetching::bvh::{MemoryImage, TreeStats, WideBvh};
use treelet_prefetching::scene::{Scene, SceneId, Workload, WorkloadKind};
use treelet_prefetching::treelet::{
    compile_trace, trace_ray, SimConfig, SimSession, TraversalAlgorithm, TreeletAssignment,
};

fn small_workload() -> Workload {
    Workload::new(WorkloadKind::Primary, 12, 12)
}

#[test]
fn full_pipeline_runs_on_several_scenes() {
    for id in [SceneId::Wknd, SceneId::Ship, SceneId::Ref] {
        let scene = Scene::build_with_detail(id, 0.35);
        let rays = small_workload().generate(&scene);
        let bvh = WideBvh::build(scene.mesh.into_triangles());
        let result = SimSession::new(&bvh, &rays, SimConfig::paper_baseline())
            .run()
            .expect("simulation");
        assert!(result.cycles > 0, "{id}: no cycles simulated");
        assert_eq!(result.rays, rays.len());
        assert!(result.l1.demand_accesses() > 0);
        assert_eq!(TreeStats::of(&bvh).node_count, bvh.node_count());
    }
}

#[test]
fn traversal_algorithms_agree_with_reference_intersector() {
    let scene = Scene::build_with_detail(SceneId::Crnvl, 0.35);
    let rays = small_workload().generate(&scene);
    let bvh = WideBvh::build(scene.mesh.into_triangles());
    let treelets = TreeletAssignment::form(&bvh, 512);
    for ray in &rays {
        let reference = bvh.intersect(ray);
        for algo in [
            TraversalAlgorithm::BaselineDfs,
            TraversalAlgorithm::TwoStackTreelet,
        ] {
            let trace = trace_ray(&bvh, &treelets, ray, algo);
            assert_eq!(
                trace.hit.primitive, reference.primitive,
                "{algo} disagrees with reference"
            );
        }
    }
}

#[test]
fn demand_access_conservation_across_configs() {
    // The timing model must issue exactly the lines the functional traces
    // compile to, for every traversal/layout combination.
    let scene = Scene::build_with_detail(SceneId::Bath, 0.3);
    let rays = small_workload().generate(&scene);
    let bvh = WideBvh::build(scene.mesh.into_triangles());
    for config in [
        SimConfig::paper_baseline(),
        SimConfig::paper_treelet_traversal_only(),
    ] {
        let treelets = TreeletAssignment::form(&bvh, config.treelet_bytes);
        let image = match config.layout {
            treelet_prefetching::treelet::LayoutChoice::DepthFirst => {
                MemoryImage::depth_first(&bvh)
            }
            treelet_prefetching::treelet::LayoutChoice::TreeletPacked { extra_stride } => {
                MemoryImage::treelet_packed(
                    &bvh,
                    treelets.as_slices(),
                    treelet_prefetching::bvh::PackOptions {
                        slot_bytes: config.treelet_bytes,
                        extra_stride,
                    },
                )
            }
            treelet_prefetching::treelet::LayoutChoice::MappingTable => {
                MemoryImage::depth_first(&bvh).with_mapping_table()
            }
        };
        let expected: u64 = rays
            .iter()
            .map(|r| {
                compile_trace(
                    &trace_ray(&bvh, &treelets, r, config.traversal),
                    &image,
                    config.mem.line_bytes,
                )
                .iter()
                .map(|s| s.lines.len() as u64)
                .sum::<u64>()
            })
            .sum();
        let result = SimSession::new(&bvh, &rays, config.clone())
            .run()
            .expect("simulation");
        assert_eq!(
            result.l1.demand_accesses(),
            expected,
            "lost or duplicated demand accesses under {:?}/{}",
            config.traversal,
            config.layout
        );
    }
}

#[test]
fn treelet_packed_image_respects_formation() {
    let scene = Scene::build_with_detail(SceneId::Spnza, 0.3);
    let bvh = WideBvh::build(scene.mesh.into_triangles());
    let treelets = TreeletAssignment::form(&bvh, 512);
    let image = MemoryImage::treelet_packed(
        &bvh,
        treelets.as_slices(),
        treelet_prefetching::bvh::PackOptions::paper_default(),
    );
    // Every node's address upper bits identify its treelet slot.
    for node in 0..bvh.node_count() as u32 {
        let g = treelets.of_node(node);
        let (base, bytes) = image.group_extent(g);
        let addr = image.node_addr(node);
        assert!(addr >= base && addr < base + bytes);
        assert_eq!(image.group_of(node), Some(g));
    }
}

#[test]
fn diffuse_and_shadow_workloads_simulate() {
    let scene = Scene::build_with_detail(SceneId::Frst, 0.25);
    let bvh = WideBvh::build(scene.mesh.clone().into_triangles());
    for kind in [WorkloadKind::Diffuse, WorkloadKind::Shadow] {
        let rays = Workload::new(kind, 8, 8).generate(&scene);
        let result = SimSession::new(&bvh, &rays, SimConfig::paper_treelet_prefetch())
            .run()
            .expect("simulation");
        assert!(result.cycles > 0, "{kind} workload failed");
    }
}

#[test]
fn rendered_images_are_identical_across_traversal_algorithms() {
    // The two-stack treelet traversal must be *functionally invisible*:
    // a whole frame of closest-hit queries yields the same image as the
    // baseline DFS (primitive ids and hit distances both).
    let scene = Scene::build_with_detail(SceneId::Ref, 0.35);
    let rays = Workload::new(WorkloadKind::Primary, 24, 24).generate(&scene);
    let bvh = WideBvh::build(scene.mesh.into_triangles());
    let treelets = TreeletAssignment::form(&bvh, 512);
    let image = |algo| -> Vec<(Option<u32>, u32)> {
        rays.iter()
            .map(|r| {
                let hit = trace_ray(&bvh, &treelets, r, algo).hit;
                // Compare distances bit-exactly: identical primitives give
                // identical t regardless of visit order.
                (hit.primitive, hit.t.to_bits())
            })
            .collect()
    };
    let dfs = image(TraversalAlgorithm::BaselineDfs);
    let two = image(TraversalAlgorithm::TwoStackTreelet);
    assert_eq!(dfs, two, "traversal algorithm changed the rendered image");
}

#[test]
fn simulation_deterministic_end_to_end() {
    let scene = Scene::build_with_detail(SceneId::Chsnt, 0.3);
    let rays = small_workload().generate(&scene);
    let bvh = WideBvh::build(scene.mesh.into_triangles());
    let config = SimConfig::paper_treelet_prefetch();
    let a = SimSession::new(&bvh, &rays, config.clone())
        .run()
        .expect("simulation");
    let b = SimSession::new(&bvh, &rays, config)
        .run()
        .expect("simulation");
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.l1, b.l1);
    assert_eq!(a.prefetch_effect, b.prefetch_effect);
    assert_eq!(a.dram_channel_accesses, b.dram_channel_accesses);
}
