//! Integration test: a user-supplied OBJ mesh through the entire stack —
//! parse, build, form treelets, and simulate both RT-unit configurations.

use treelet_prefetching::bvh::WideBvh;
use treelet_prefetching::geometry::{Ray, Vec3};
use treelet_prefetching::scene::parse_obj;
use treelet_prefetching::treelet::{SimConfig, SimSession, TreeletAssignment};

/// A small procedurally written OBJ: a grid of quads plus a pyramid.
fn obj_text() -> String {
    let mut out = String::new();
    let n = 12;
    for j in 0..=n {
        for i in 0..=n {
            out.push_str(&format!("v {} 0 {}\n", i as f32, j as f32));
        }
    }
    for j in 0..n {
        for i in 0..n {
            let a = j * (n + 1) + i + 1;
            let b = a + 1;
            let c = a + n + 2;
            let d = a + n + 1;
            out.push_str(&format!("f {a} {b} {c} {d}\n"));
        }
    }
    // A pyramid on top, referencing vertices relatively.
    out.push_str("v 4 0 4\nv 8 0 4\nv 8 0 8\nv 4 0 8\nv 6 5 6\n");
    out.push_str("f -5 -4 -1\nf -4 -3 -1\nf -3 -2 -1\nf -2 -5 -1\n");
    out
}

#[test]
fn obj_mesh_simulates_end_to_end() {
    let mesh = parse_obj(obj_text().as_bytes()).expect("valid obj");
    // n*n quads -> 2 triangles each, plus 4 pyramid faces.
    assert_eq!(mesh.len(), 12 * 12 * 2 + 4);
    let bvh = WideBvh::build(mesh.into_triangles());
    let treelets = TreeletAssignment::form(&bvh, 512);
    assert!(treelets.count() > 1);

    // Shoot a grid of rays downward.
    let rays: Vec<Ray> = (0..64)
        .map(|i| {
            let x = (i % 8) as f32 * 1.6 + 0.2;
            let z = (i / 8) as f32 * 1.6 + 0.2;
            Ray::new(Vec3::new(x, 10.0, z), Vec3::new(0.01, -1.0, 0.02))
        })
        .collect();
    // Every ray hits the ground grid.
    for (i, r) in rays.iter().enumerate() {
        assert!(bvh.intersect(r).is_hit(), "ray {i} missed the obj grid");
    }

    let base = SimSession::new(&bvh, &rays, SimConfig::paper_baseline())
        .run()
        .expect("simulation");
    let pf = SimSession::new(&bvh, &rays, SimConfig::paper_treelet_prefetch())
        .run()
        .expect("simulation");
    assert!(base.cycles > 0 && pf.cycles > 0);
    assert_eq!(base.rays, 64);
    // The pyramid apex ray sees the pyramid before the ground.
    let apex = Ray::new(Vec3::new(6.0, 10.0, 6.0), Vec3::new(0.0, -1.0, 0.0));
    let hit = bvh.intersect(&apex);
    assert!(hit.is_hit());
    assert!(
        apex.at(hit.t).y > 3.0,
        "apex ray should hit the pyramid top"
    );
}
