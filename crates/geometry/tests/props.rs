//! Property-based tests for the geometry primitives.

use rt_geometry::{Aabb, Ray, Triangle, Vec3};
use rt_rng::prop::forall;
use rt_rng::{Rng, SmallRng};

fn coord(rng: &mut SmallRng) -> f32 {
    rng.gen_range(-100.0f32..100.0)
}

fn vec3(rng: &mut SmallRng) -> Vec3 {
    Vec3::new(coord(rng), coord(rng), coord(rng))
}

fn nonzero_vec3(rng: &mut SmallRng) -> Vec3 {
    loop {
        let v = vec3(rng);
        if v.length_squared() > 1e-3 {
            return v;
        }
    }
}

/// A triangle rejected until non-degenerate, so hit-based properties
/// never divide by a near-zero normal.
fn nondegenerate_triangle(rng: &mut SmallRng) -> Triangle {
    loop {
        let t = Triangle::new(vec3(rng), vec3(rng), vec3(rng));
        if !t.is_degenerate() {
            return t;
        }
    }
}

#[test]
fn vec_addition_commutes() {
    forall("vec_addition_commutes", 256, |rng| {
        let (a, b) = (vec3(rng), vec3(rng));
        assert_eq!(a + b, b + a);
    });
}

#[test]
fn dot_is_symmetric() {
    forall("dot_is_symmetric", 256, |rng| {
        let (a, b) = (vec3(rng), vec3(rng));
        assert!((a.dot(b) - b.dot(a)).abs() < 1e-3);
    });
}

#[test]
fn cross_is_orthogonal() {
    forall("cross_is_orthogonal", 256, |rng| {
        let (a, b) = (nonzero_vec3(rng), nonzero_vec3(rng));
        let c = a.cross(b);
        // Orthogonality tolerance scales with the magnitudes involved.
        let scale = a.length() * b.length() * (a.length() + b.length());
        assert!(c.dot(a).abs() <= scale * 1e-4 + 1e-3);
        assert!(c.dot(b).abs() <= scale * 1e-4 + 1e-3);
    });
}

#[test]
fn normalized_has_unit_length() {
    forall("normalized_has_unit_length", 256, |rng| {
        let v = nonzero_vec3(rng);
        assert!((v.normalized().length() - 1.0).abs() < 1e-4);
    });
}

#[test]
fn min_max_bracket_lerp() {
    forall("min_max_bracket_lerp", 256, |rng| {
        let (a, b) = (vec3(rng), vec3(rng));
        let t = rng.gen_range(0.0f32..1.0);
        let l = a.lerp(b, t);
        let lo = a.min(b);
        let hi = a.max(b);
        for axis in 0..3 {
            assert!(l[axis] >= lo[axis] - 1e-3);
            assert!(l[axis] <= hi[axis] + 1e-3);
        }
    });
}

#[test]
fn aabb_union_contains_both() {
    forall("aabb_union_contains_both", 256, |rng| {
        let (a0, a1, b0, b1) = (vec3(rng), vec3(rng), vec3(rng), vec3(rng));
        let a = Aabb::new(a0.min(a1), a0.max(a1));
        let b = Aabb::new(b0.min(b1), b0.max(b1));
        let u = a.union(&b);
        assert!(u.contains_box(&a));
        assert!(u.contains_box(&b));
    });
}

#[test]
fn aabb_grow_point_contains() {
    forall("aabb_grow_point_contains", 256, |rng| {
        let (p, q) = (vec3(rng), vec3(rng));
        let mut b = Aabb::from_point(p);
        b.grow_point(q);
        assert!(b.contains_point(p));
        assert!(b.contains_point(q));
    });
}

/// A coordinate drawn mostly from the values where a select fold and
/// `f32::min`/`f32::max` could part: ±0, ±inf and NaN.
fn edge_coord(rng: &mut SmallRng) -> f32 {
    const EDGES: [f32; 7] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];
    if rng.gen_bool(0.8) {
        EDGES[rng.gen_range(0..EDGES.len())]
    } else {
        coord(rng)
    }
}

fn edge_vec3(rng: &mut SmallRng) -> Vec3 {
    Vec3::new(edge_coord(rng), edge_coord(rng), edge_coord(rng))
}

fn bits(v: Vec3) -> [u32; 3] {
    [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]
}

#[test]
fn aabb_grow_point_from_empty_matches_std_min_max_bitwise() {
    // The builder's fold is a select (`o < acc`); from `Aabb::empty()`
    // it must give exactly what folding with `f32::min`/`f32::max` gives,
    // ±0, ±inf and NaN arguments included, or the built trees change.
    forall(
        "aabb_grow_point_from_empty_matches_std_min_max_bitwise",
        512,
        |rng| {
            let mut b = Aabb::empty();
            let (mut min, mut max) = (Vec3::splat(f32::INFINITY), Vec3::splat(f32::NEG_INFINITY));
            for _ in 0..rng.gen_range(1usize..9) {
                let p = edge_vec3(rng);
                b.grow_point(p);
                min = min.min(p);
                max = max.max(p);
                assert_eq!(bits(b.min), bits(min), "grow_point min");
                assert_eq!(bits(b.max), bits(max), "grow_point max");
            }
        },
    );
}

#[test]
fn aabb_grow_box_from_empty_matches_std_min_max_bitwise() {
    // `Vec3::min`/`max` fold lane-wise with `f32::min`/`f32::max`.
    forall(
        "aabb_grow_box_from_empty_matches_std_min_max_bitwise",
        512,
        |rng| {
            let mut b = Aabb::empty();
            let (mut min, mut max) = (Vec3::splat(f32::INFINITY), Vec3::splat(f32::NEG_INFINITY));
            for _ in 0..rng.gen_range(1usize..9) {
                let other = Aabb::new(edge_vec3(rng), edge_vec3(rng));
                b.grow_box(&other);
                min = min.min(other.min);
                max = max.max(other.max);
                assert_eq!(bits(b.min), bits(min), "grow_box min");
                assert_eq!(bits(b.max), bits(max), "grow_box max");
            }
        },
    );
}

#[test]
fn triangle_aabb_never_holds_a_nan() {
    forall("triangle_aabb_never_holds_a_nan", 256, |rng| {
        let t = Triangle::new(edge_vec3(rng), edge_vec3(rng), edge_vec3(rng));
        let b = t.aabb();
        for v in [b.min, b.max] {
            assert!(!(v.x.is_nan() || v.y.is_nan() || v.z.is_nan()), "{b}");
        }
    });
}

#[test]
fn ray_from_inside_box_always_hits() {
    forall("ray_from_inside_box_always_hits", 256, |rng| {
        let (c0, c1) = (vec3(rng), vec3(rng));
        let dir = nonzero_vec3(rng);
        let t = rng.gen_range(0.05f32..0.95);
        let b = Aabb::new(c0.min(c1) - Vec3::splat(0.5), c0.max(c1) + Vec3::splat(0.5));
        // A point strictly inside the (padded) box.
        let origin = b.min.lerp(b.max, t);
        let ray = Ray::with_interval(origin, dir, 0.0, f32::INFINITY);
        assert!(b.intersect(&ray, ray.inv_direction()).is_some());
    });
}

#[test]
fn box_hit_entry_is_within_interval() {
    forall("box_hit_entry_is_within_interval", 256, |rng| {
        let (c0, c1, o) = (vec3(rng), vec3(rng), vec3(rng));
        let dir = nonzero_vec3(rng);
        let b = Aabb::new(c0.min(c1), c0.max(c1));
        let ray = Ray::new(o, dir);
        if let Some(t) = b.intersect(&ray, ray.inv_direction()) {
            assert!(t >= ray.t_min);
            assert!(t <= ray.t_max);
        }
    });
}

#[test]
fn triangle_hit_point_lies_in_plane() {
    forall("triangle_hit_point_lies_in_plane", 256, |rng| {
        let tri = nondegenerate_triangle(rng);
        let o = vec3(rng);
        let dir = nonzero_vec3(rng);
        let ray = Ray::new(o, dir);
        if let Some(t) = tri.intersect(&ray) {
            let p = ray.at(t);
            let n = tri.normal().normalized();
            let d = n.dot(p - tri.v0).abs();
            // Plane distance tolerance scales with the geometry.
            let scale = (p - tri.v0).length().max(1.0);
            assert!(d < scale * 1e-2, "off-plane by {d}");
        }
    });
}

#[test]
fn triangle_hit_inside_its_aabb() {
    forall("triangle_hit_inside_its_aabb", 256, |rng| {
        let tri = nondegenerate_triangle(rng);
        let o = vec3(rng);
        let dir = nonzero_vec3(rng);
        let ray = Ray::new(o, dir);
        if let Some(t) = tri.intersect(&ray) {
            let p = ray.at(t);
            // Padded for floating-point slack.
            let mut b = tri.aabb();
            let pad = Vec3::splat(0.05 * (1.0 + p.length()));
            b.grow_point(b.min - pad);
            b.grow_point(b.max + pad);
            assert!(b.contains_point(p));
        }
    });
}

#[test]
fn shrinking_t_max_never_creates_hits() {
    forall("shrinking_t_max_never_creates_hits", 256, |rng| {
        let tri = nondegenerate_triangle(rng);
        let o = vec3(rng);
        let dir = nonzero_vec3(rng);
        let cut = rng.gen_range(0.0f32..1.0);
        let full = Ray::new(o, dir);
        let full_hit = tri.intersect(&full);
        let mut clipped = full;
        clipped.t_max = cut * 10.0;
        if let Some(t) = tri.intersect(&clipped) {
            // A hit in the clipped interval must also exist unclipped.
            assert!(full_hit.is_some());
            assert!((full_hit.unwrap() - t).abs() < 1e-4);
        }
    });
}
