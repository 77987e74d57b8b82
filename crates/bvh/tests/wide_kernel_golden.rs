//! Golden cross-check of the batched 6-wide AABB kernel against the
//! scalar slab test, over every scene of the evaluation suite.
//!
//! Traversal tests child bounds through [`ChildSoa`]'s batched
//! [`WideAabb`] kernel instead of per-child [`Aabb::intersect`] calls.
//! The simulator's state digests are pinned to the scalar path's exact
//! float results, so the wide kernel must agree *bitwise* — same hit
//! verdict and identical entry-distance bits — on every lane of every
//! internal node, for rays representative of the real workloads. A
//! single ULP of drift here would silently shift traversal order and
//! break the golden digests two crates up.

use rt_bvh::{ChildSoa, WideBvh};
use rt_scene::{Scene, SceneId, Workload, WorkloadKind};

#[test]
fn wide_kernel_matches_scalar_bitwise_on_all_suite_scenes() {
    for id in SceneId::ALL {
        let scene = Scene::build_with_detail(id, 0.1);
        let rays = Workload::new(WorkloadKind::Primary, 8, 8).generate(&scene);
        let bvh = WideBvh::build(scene.mesh.into_triangles());
        let records: Vec<&ChildSoa> = (0..bvh.node_count() as u32)
            .filter_map(|n| bvh.node(n).internal())
            .collect();
        let mut lanes = 0u64;
        let mut hits = 0u64;
        for ray in &rays {
            let inv = ray.inv_direction();
            for record in &records {
                let wide = record.bounds.intersect(ray, inv);
                for lane in 0..record.len() {
                    lanes += 1;
                    let scalar = record.bounds.get(lane).intersect(ray, inv);
                    let wide_entry = wide.entry(lane);
                    match scalar {
                        Some(t) => {
                            hits += 1;
                            let w = wide_entry.unwrap_or_else(|| {
                                panic!("{id}: lane {lane} missed where scalar hit")
                            });
                            assert_eq!(
                                w.to_bits(),
                                t.to_bits(),
                                "{id}: lane {lane} entry distance drifted ({w} vs {t})"
                            );
                        }
                        None => assert!(
                            wide_entry.is_none(),
                            "{id}: lane {lane} hit where scalar missed"
                        ),
                    }
                }
            }
        }
        // The comparison must have had teeth: real lanes, and real hits
        // (primary rays into the scene always strike the upper tree).
        assert!(lanes > 0, "{id}: no lanes compared");
        assert!(hits > 0, "{id}: no lane ever hit");
    }
}
