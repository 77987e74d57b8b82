//! Property-based tests for scene generation, workloads, and OBJ I/O.

use rt_geometry::{Triangle, Vec3};
use rt_rng::prop::forall;
use rt_rng::{Rng, SmallRng};
use rt_scene::{parse_obj, write_obj, Camera, Mesh, Scene, SceneId, Workload, WorkloadKind};

fn coord(rng: &mut SmallRng) -> f32 {
    rng.gen_range(-1000.0f32..1000.0)
}

fn triangle(rng: &mut SmallRng) -> Triangle {
    let v = |rng: &mut SmallRng| Vec3::new(coord(rng), coord(rng), coord(rng));
    let (a, b, c) = (v(rng), v(rng), v(rng));
    Triangle::new(a, b, c)
}

fn soup(rng: &mut SmallRng, max: usize) -> Vec<Triangle> {
    let n = rng.gen_range(0..max);
    (0..n).map(|_| triangle(rng)).collect()
}

#[test]
fn obj_write_parse_round_trip() {
    forall("obj_write_parse_round_trip", 64, |rng| {
        let mesh = Mesh::from_triangles(soup(rng, 40));
        let mut text = Vec::new();
        write_obj(&mut text, &mesh).unwrap();
        let parsed = parse_obj(text.as_slice()).unwrap();
        assert_eq!(parsed.triangles(), mesh.triangles());
    });
}

#[test]
fn mesh_translation_moves_aabb_exactly() {
    forall("mesh_translation_moves_aabb_exactly", 64, |rng| {
        let n = rng.gen_range(1..20usize);
        let tris: Vec<Triangle> = (0..n).map(|_| triangle(rng)).collect();
        let mesh = Mesh::from_triangles(tris);
        let offset = Vec3::new(coord(rng), coord(rng), coord(rng));
        let moved = mesh.translated(offset);
        let a = mesh.aabb();
        let b = moved.aabb();
        // Component-wise translation within float tolerance.
        let tol = 1e-2 * (1.0 + offset.length() + a.extent().length());
        assert!((b.min - (a.min + offset)).length() <= tol);
        assert!((b.max - (a.max + offset)).length() <= tol);
    });
}

#[test]
fn camera_rays_are_unit_and_deterministic() {
    forall("camera_rays_are_unit_and_deterministic", 64, |rng| {
        let eye = Vec3::new(
            rng.gen_range(-50.0f32..50.0),
            rng.gen_range(1.0f32..50.0) + 60.0,
            rng.gen_range(-50.0f32..50.0),
        );
        let (px, py) = (rng.gen_range(0..16u32), rng.gen_range(0..16u32));
        let cam = Camera::look_at(eye, Vec3::ZERO, Vec3::Y, 1.0, 1.0);
        let a = cam.ray(px, py, 16, 16);
        let b = cam.ray(px, py, 16, 16);
        assert_eq!(a, b);
        assert!((a.direction.length() - 1.0).abs() < 1e-4);
        assert_eq!(a.origin, eye);
    });
}

#[test]
fn workloads_are_deterministic_per_seed() {
    forall("workloads_are_deterministic_per_seed", 8, |rng| {
        let seed = rng.gen::<u64>();
        let scene = Scene::build_with_detail(SceneId::Ship, 0.25);
        let w = Workload::new(WorkloadKind::Diffuse, 4, 4).with_seed(seed);
        assert_eq!(w.generate(&scene), w.generate(&scene));
    });
}

#[test]
fn scene_detail_never_produces_empty_or_nonfinite() {
    forall(
        "scene_detail_never_produces_empty_or_nonfinite",
        16,
        |rng| {
            // A cheap scene across a detail range: always non-empty, always
            // finite geometry.
            let detail = rng.gen_range(0.1f32..0.5);
            let scene = Scene::build_with_detail(SceneId::Wknd, detail);
            assert!(!scene.mesh.is_empty());
            for t in scene.mesh.triangles() {
                assert!(t.v0.is_finite() && t.v1.is_finite() && t.v2.is_finite());
            }
        },
    );
}
