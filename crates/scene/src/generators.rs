//! Procedural primitive generators used to assemble the evaluation scenes.
//!
//! Every generator is deterministic for a given set of parameters; scenes
//! that need randomness take an explicit RNG so that workloads are
//! reproducible across runs.

use crate::Mesh;
use crate::SceneError;
use rt_geometry::{Triangle, Vec3};
use rt_rng::Rng;

/// Ceiling on the triangles a single generator call may produce (2²⁶,
/// ~67 M — well above any paper scene, well below allocation-until-OOM).
///
/// Parameterized generators compute their triangle count in closed form
/// *before* allocating and return
/// [`SceneError::TooManyTriangles`] when a runaway detail factor (e.g.
/// `--detail 1e30` saturating resolutions to `u32::MAX`) would blow past
/// it, so bad input fails in microseconds instead of hanging.
pub const MAX_GENERATOR_TRIANGLES: u64 = 1 << 26;

/// Fails fast when a generator would produce more than
/// [`MAX_GENERATOR_TRIANGLES`] triangles. Counts are computed in `u128`
/// so `u32::MAX`-saturated resolutions cannot overflow the check itself.
fn budget(requested: u128) -> Result<(), SceneError> {
    if requested > MAX_GENERATOR_TRIANGLES as u128 {
        return Err(SceneError::TooManyTriangles {
            requested: requested.min(u64::MAX as u128) as u64,
            limit: MAX_GENERATOR_TRIANGLES,
        });
    }
    Ok(())
}

/// Tessellated rectangle in the XZ plane at height `y`, spanning
/// `[-half, half]²`, subdivided into `res × res` quads (2 triangles each).
///
/// # Errors
///
/// [`SceneError::TooManyTriangles`] if `2·res²` exceeds the ceiling.
pub fn ground_plane(half: f32, y: f32, res: u32) -> Result<Mesh, SceneError> {
    let res = res.max(1);
    budget(2 * res as u128 * res as u128)?;
    let mut mesh = Mesh::new();
    let step = 2.0 * half / res as f32;
    for i in 0..res {
        for j in 0..res {
            let x0 = -half + i as f32 * step;
            let z0 = -half + j as f32 * step;
            let (x1, z1) = (x0 + step, z0 + step);
            let a = Vec3::new(x0, y, z0);
            let b = Vec3::new(x1, y, z0);
            let c = Vec3::new(x1, y, z1);
            let d = Vec3::new(x0, y, z1);
            mesh.push(Triangle::new(a, b, c));
            mesh.push(Triangle::new(a, c, d));
        }
    }
    Ok(mesh)
}

/// Axis-aligned box with corners `min`/`max` (12 triangles).
pub fn cuboid(min: Vec3, max: Vec3) -> Mesh {
    let p = |x: f32, y: f32, z: f32| Vec3::new(x, y, z);
    let (a, b) = (min, max);
    let v = [
        p(a.x, a.y, a.z),
        p(b.x, a.y, a.z),
        p(b.x, b.y, a.z),
        p(a.x, b.y, a.z),
        p(a.x, a.y, b.z),
        p(b.x, a.y, b.z),
        p(b.x, b.y, b.z),
        p(a.x, b.y, b.z),
    ];
    let quads = [
        [0, 1, 2, 3], // -z
        [5, 4, 7, 6], // +z
        [4, 0, 3, 7], // -x
        [1, 5, 6, 2], // +x
        [4, 5, 1, 0], // -y
        [3, 2, 6, 7], // +y
    ];
    let mut mesh = Mesh::new();
    for q in quads {
        mesh.push(Triangle::new(v[q[0]], v[q[1]], v[q[2]]));
        mesh.push(Triangle::new(v[q[0]], v[q[2]], v[q[3]]));
    }
    mesh
}

/// Latitude/longitude sphere with `stacks × slices` resolution.
///
/// # Errors
///
/// [`SceneError::TooManyTriangles`] if `2·stacks·slices` exceeds the
/// ceiling.
pub fn uv_sphere(center: Vec3, radius: f32, stacks: u32, slices: u32) -> Result<Mesh, SceneError> {
    displaced_sphere(center, radius, stacks, slices, |_, _| 0.0)
}

/// Sphere whose radius is perturbed by `displace(theta, phi)` — used for
/// organic "blob" objects (bunny/fox stand-ins).
///
/// # Errors
///
/// [`SceneError::TooManyTriangles`] if `2·stacks·slices` exceeds the
/// ceiling.
pub fn displaced_sphere<F: Fn(f32, f32) -> f32>(
    center: Vec3,
    radius: f32,
    stacks: u32,
    slices: u32,
    displace: F,
) -> Result<Mesh, SceneError> {
    let stacks = stacks.max(2);
    let slices = slices.max(3);
    budget(2 * stacks as u128 * slices as u128)?;
    let vertex = |i: u32, j: u32| {
        let theta = std::f32::consts::PI * i as f32 / stacks as f32;
        let phi = 2.0 * std::f32::consts::PI * j as f32 / slices as f32;
        let r = radius * (1.0 + displace(theta, phi));
        center
            + Vec3::new(
                r * theta.sin() * phi.cos(),
                r * theta.cos(),
                r * theta.sin() * phi.sin(),
            )
    };
    let mut mesh = Mesh::new();
    for i in 0..stacks {
        for j in 0..slices {
            let j1 = (j + 1) % slices;
            let (a, b, c, d) = (
                vertex(i, j),
                vertex(i + 1, j),
                vertex(i + 1, j1),
                vertex(i, j1),
            );
            if i > 0 {
                mesh.push(Triangle::new(a, b, d));
            }
            if i + 1 < stacks {
                mesh.push(Triangle::new(b, c, d));
            }
            if i == 0 {
                mesh.push(Triangle::new(a, b, c));
            } else if i + 1 == stacks {
                // bottom cap handled by the first triangle above
            }
        }
    }
    Ok(mesh)
}

/// Open cone with apex above the base center (tree/stand-in foliage).
///
/// # Errors
///
/// [`SceneError::TooManyTriangles`] if `2·slices` exceeds the ceiling.
pub fn cone(
    base_center: Vec3,
    base_radius: f32,
    height: f32,
    slices: u32,
) -> Result<Mesh, SceneError> {
    let slices = slices.max(3);
    budget(2 * slices as u128)?;
    let apex = base_center + Vec3::new(0.0, height, 0.0);
    let ring = |j: u32| {
        let phi = 2.0 * std::f32::consts::PI * j as f32 / slices as f32;
        base_center + Vec3::new(base_radius * phi.cos(), 0.0, base_radius * phi.sin())
    };
    let mut mesh = Mesh::new();
    for j in 0..slices {
        let (a, b) = (ring(j), ring((j + 1) % slices));
        mesh.push(Triangle::new(a, b, apex));
        mesh.push(Triangle::new(b, a, base_center)); // base disk
    }
    Ok(mesh)
}

/// Open cylinder along +Y (tree trunks, columns).
///
/// # Errors
///
/// [`SceneError::TooManyTriangles`] if `2·slices` exceeds the ceiling.
pub fn cylinder(
    base_center: Vec3,
    radius: f32,
    height: f32,
    slices: u32,
) -> Result<Mesh, SceneError> {
    let slices = slices.max(3);
    budget(2 * slices as u128)?;
    let ring = |j: u32, y: f32| {
        let phi = 2.0 * std::f32::consts::PI * j as f32 / slices as f32;
        base_center + Vec3::new(radius * phi.cos(), y, radius * phi.sin())
    };
    let mut mesh = Mesh::new();
    for j in 0..slices {
        let j1 = (j + 1) % slices;
        let (a, b) = (ring(j, 0.0), ring(j1, 0.0));
        let (c, d) = (ring(j1, height), ring(j, height));
        mesh.push(Triangle::new(a, b, c));
        mesh.push(Triangle::new(a, c, d));
    }
    Ok(mesh)
}

/// Tube swept along a helix (spring stand-in).
///
/// # Errors
///
/// [`SceneError::TooManyTriangles`] if `2·segments·sides` exceeds the
/// ceiling.
pub fn helix_tube(
    center: Vec3,
    coil_radius: f32,
    tube_radius: f32,
    turns: f32,
    height: f32,
    segments: u32,
    sides: u32,
) -> Result<Mesh, SceneError> {
    let segments = segments.max(2);
    let sides = sides.max(3);
    budget(2 * segments as u128 * sides as u128)?;
    let spine = |i: u32| {
        let t = i as f32 / segments as f32;
        let angle = turns * 2.0 * std::f32::consts::PI * t;
        center
            + Vec3::new(
                coil_radius * angle.cos(),
                height * t,
                coil_radius * angle.sin(),
            )
    };
    let ring = |i: u32| -> Vec<Vec3> {
        let p = spine(i);
        let next = spine((i + 1).min(segments));
        let prev = spine(i.saturating_sub(1));
        let tangent = {
            let d = next - prev;
            if d.length_squared() > 1e-12 {
                d.normalized()
            } else {
                Vec3::Y
            }
        };
        let n0 = if tangent.largest_axis() == 1 {
            Vec3::X
        } else {
            Vec3::Y
        };
        let u = tangent.cross(n0).normalized();
        let v = tangent.cross(u);
        (0..sides)
            .map(|k| {
                let a = 2.0 * std::f32::consts::PI * k as f32 / sides as f32;
                p + (u * a.cos() + v * a.sin()) * tube_radius
            })
            .collect()
    };
    let mut mesh = Mesh::new();
    let mut prev = ring(0);
    for i in 1..=segments {
        let cur = ring(i);
        for k in 0..sides as usize {
            let k1 = (k + 1) % sides as usize;
            mesh.push(Triangle::new(prev[k], cur[k], cur[k1]));
            mesh.push(Triangle::new(prev[k], cur[k1], prev[k1]));
        }
        prev = cur;
    }
    Ok(mesh)
}

/// Heightfield terrain over `[-half, half]²` with `res × res` cells and
/// height given by `height(x, z)`.
///
/// # Errors
///
/// [`SceneError::TooManyTriangles`] if `2·res²` exceeds the ceiling.
pub fn terrain<F: Fn(f32, f32) -> f32>(half: f32, res: u32, height: F) -> Result<Mesh, SceneError> {
    let res = res.max(1);
    budget(2 * res as u128 * res as u128)?;
    let step = 2.0 * half / res as f32;
    let point = |i: u32, j: u32| {
        let x = -half + i as f32 * step;
        let z = -half + j as f32 * step;
        Vec3::new(x, height(x, z), z)
    };
    let mut mesh = Mesh::new();
    for i in 0..res {
        for j in 0..res {
            let a = point(i, j);
            let b = point(i + 1, j);
            let c = point(i + 1, j + 1);
            let d = point(i, j + 1);
            mesh.push(Triangle::new(a, b, c));
            mesh.push(Triangle::new(a, c, d));
        }
    }
    Ok(mesh)
}

/// `count` random small triangles scattered uniformly inside a box — the
/// maximally incoherent "confetti" workload (party stand-in).
///
/// # Errors
///
/// [`SceneError::TooManyTriangles`] if `count` exceeds the ceiling.
pub fn confetti<R: Rng>(
    rng: &mut R,
    count: usize,
    min: Vec3,
    max: Vec3,
    size: f32,
) -> Result<Mesh, SceneError> {
    budget(count as u128)?;
    let mut mesh = Mesh::new();
    let ext = max - min;
    for _ in 0..count {
        let p = min
            + Vec3::new(
                rng.gen::<f32>() * ext.x,
                rng.gen::<f32>() * ext.y,
                rng.gen::<f32>() * ext.z,
            );
        let rv = |rng: &mut R| {
            Vec3::new(
                rng.gen::<f32>() - 0.5,
                rng.gen::<f32>() - 0.5,
                rng.gen::<f32>() - 0.5,
            ) * size
        };
        mesh.push(Triangle::new(p + rv(rng), p + rv(rng), p + rv(rng)));
    }
    Ok(mesh)
}

/// Deterministic value-noise-like ripple used to displace organic shapes.
/// Cheap, smooth, and reproducible without a noise dependency.
pub fn ripple(theta: f32, phi: f32, octaves: u32, amplitude: f32) -> f32 {
    let mut sum = 0.0;
    let mut amp = amplitude;
    let mut freq = 3.0;
    for _ in 0..octaves {
        sum += amp * (freq * theta).sin() * (freq * phi + 0.7).cos();
        amp *= 0.5;
        freq *= 2.1;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_rng::SmallRng;

    #[test]
    fn ground_plane_counts() {
        let m = ground_plane(10.0, 0.0, 4).unwrap();
        assert_eq!(m.len(), 4 * 4 * 2);
        let b = m.aabb();
        assert_eq!(b.min, Vec3::new(-10.0, 0.0, -10.0));
        assert_eq!(b.max, Vec3::new(10.0, 0.0, 10.0));
    }

    #[test]
    fn cuboid_has_12_triangles_and_tight_bounds() {
        let m = cuboid(Vec3::ZERO, Vec3::ONE);
        assert_eq!(m.len(), 12);
        assert_eq!(m.aabb().min, Vec3::ZERO);
        assert_eq!(m.aabb().max, Vec3::ONE);
    }

    #[test]
    fn sphere_bounds_match_radius() {
        let m = uv_sphere(Vec3::ZERO, 2.0, 8, 12).unwrap();
        assert!(!m.is_empty());
        let b = m.aabb();
        assert!(b.max.max_component() <= 2.0 + 1e-4);
        assert!(b.min.min_component() >= -2.0 - 1e-4);
        // No degenerate triangles emitted.
        assert!(m.triangles().iter().all(|t| !t.is_degenerate()));
    }

    #[test]
    fn displaced_sphere_respects_displacement() {
        let m = displaced_sphere(Vec3::ZERO, 1.0, 8, 12, |_, _| 0.5).unwrap();
        let b = m.aabb();
        assert!(b.max.max_component() > 1.2);
    }

    #[test]
    fn cone_and_cylinder_counts() {
        assert_eq!(cone(Vec3::ZERO, 1.0, 2.0, 8).unwrap().len(), 16);
        assert_eq!(cylinder(Vec3::ZERO, 1.0, 2.0, 8).unwrap().len(), 16);
    }

    #[test]
    fn helix_tube_spans_height() {
        let m = helix_tube(Vec3::ZERO, 2.0, 0.2, 3.0, 5.0, 32, 6).unwrap();
        let b = m.aabb();
        assert!(b.max.y > 4.5);
        assert!(b.min.y < 0.5);
        assert_eq!(m.len(), 32 * 6 * 2);
    }

    #[test]
    fn terrain_follows_height_function() {
        let m = terrain(5.0, 8, |x, z| 0.1 * (x + z)).unwrap();
        assert_eq!(m.len(), 8 * 8 * 2);
        let b = m.aabb();
        assert!(b.max.y <= 1.0 + 1e-4);
        assert!(b.min.y >= -1.0 - 1e-4);
    }

    #[test]
    fn confetti_is_deterministic_per_seed() {
        let mut r1 = SmallRng::seed_from_u64(7);
        let mut r2 = SmallRng::seed_from_u64(7);
        let a = confetti(&mut r1, 50, Vec3::ZERO, Vec3::ONE, 0.05).unwrap();
        let b = confetti(&mut r2, 50, Vec3::ZERO, Vec3::ONE, 0.05).unwrap();
        assert_eq!(a.len(), 50);
        assert_eq!(a.triangles()[10], b.triangles()[10]);
    }

    #[test]
    fn confetti_stays_near_box() {
        let mut rng = SmallRng::seed_from_u64(1);
        let m = confetti(&mut rng, 100, Vec3::ZERO, Vec3::splat(4.0), 0.1).unwrap();
        let b = m.aabb();
        assert!(b.min.min_component() >= -0.2);
        assert!(b.max.max_component() <= 4.2);
    }

    #[test]
    fn ripple_is_bounded() {
        for i in 0..50 {
            let v = ripple(i as f32 * 0.1, i as f32 * 0.2, 3, 0.2);
            assert!(v.abs() < 0.5);
        }
    }

    #[test]
    fn oversized_requests_fail_fast_without_allocating() {
        // 2 * u32::MAX^2 overflows u64; the budget math must still reject
        // it promptly instead of wrapping around or allocating.
        let mut rng = SmallRng::seed_from_u64(1);
        let big = u32::MAX;
        assert!(ground_plane(1.0, 0.0, big).is_err());
        assert!(uv_sphere(Vec3::ZERO, 1.0, big, big).is_err());
        assert!(displaced_sphere(Vec3::ZERO, 1.0, big, big, |_, _| 0.0).is_err());
        assert!(cone(Vec3::ZERO, 1.0, 1.0, big).is_err());
        assert!(cylinder(Vec3::ZERO, 1.0, 1.0, big).is_err());
        assert!(helix_tube(Vec3::ZERO, 1.0, 0.1, 1.0, 1.0, big, big).is_err());
        assert!(terrain(1.0, big, |_, _| 0.0).is_err());
        assert!(confetti(
            &mut rng,
            (MAX_GENERATOR_TRIANGLES + 1) as usize,
            Vec3::ZERO,
            Vec3::ONE,
            0.1
        )
        .is_err());
    }

    #[test]
    fn over_budget_error_reports_request_and_limit() {
        match ground_plane(1.0, 0.0, u32::MAX) {
            Err(SceneError::TooManyTriangles { requested, limit }) => {
                assert_eq!(limit, MAX_GENERATOR_TRIANGLES);
                assert!(requested > limit);
            }
            other => panic!("expected TooManyTriangles, got {other:?}"),
        }
    }
}
