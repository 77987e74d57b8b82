//! Ray workload generation.
//!
//! The paper evaluates primary rays at 1 sample per pixel and discusses the
//! incoherence of secondary rays at length. This module produces both:
//! coherent camera rays and incoherent diffuse-bounce-style rays sampled
//! from the scene surface.

use crate::Scene;
use rt_geometry::{Ray, Vec3};
use rt_rng::{Rng, SmallRng};
use std::fmt;

/// The kind of ray workload to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// One camera ray per pixel (coherent; the paper's main setting).
    Primary,
    /// Rays spawned from random surface points into the cosine-weighted
    /// hemisphere around the surface normal (incoherent, like secondary
    /// global-illumination rays).
    Diffuse,
    /// Rays from random surface points toward a point light (shadow rays:
    /// common origin structure but divergent directions).
    Shadow,
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            WorkloadKind::Primary => "primary",
            WorkloadKind::Diffuse => "diffuse",
            WorkloadKind::Shadow => "shadow",
        };
        f.write_str(name)
    }
}

/// Specification of a ray workload.
///
/// # Examples
///
/// ```
/// use rt_scene::{Scene, SceneId, Workload, WorkloadKind};
///
/// let scene = Scene::build_with_detail(SceneId::Wknd, 0.3);
/// let rays = Workload::new(WorkloadKind::Primary, 16, 16).generate(&scene);
/// assert_eq!(rays.len(), 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// The kind of rays to generate.
    pub kind: WorkloadKind,
    /// Image width in pixels (ray count is `width * height`).
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// RNG seed for the incoherent workloads.
    pub seed: u64,
}

impl Workload {
    /// Creates a workload of `width * height` rays.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn new(kind: WorkloadKind, width: u32, height: u32) -> Self {
        assert!(
            width > 0 && height > 0,
            "workload dimensions must be nonzero"
        );
        Workload {
            kind,
            width,
            height,
            seed: 0x7265_616c,
        }
    }

    /// The paper's default: 32×32 primary rays (1 SPP).
    pub fn paper_default() -> Self {
        Workload::new(WorkloadKind::Primary, 32, 32)
    }

    /// Returns a copy with a different RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total number of rays.
    pub fn ray_count(&self) -> usize {
        (self.width * self.height) as usize
    }

    /// Generates the rays for `scene`.
    pub fn generate(&self, scene: &Scene) -> Vec<Ray> {
        match self.kind {
            WorkloadKind::Primary => scene.camera.primary_rays(self.width, self.height),
            WorkloadKind::Diffuse => self.surface_rays(scene, SurfaceRayStyle::Hemisphere),
            WorkloadKind::Shadow => self.surface_rays(scene, SurfaceRayStyle::TowardLight),
        }
    }

    fn surface_rays(&self, scene: &Scene, style: SurfaceRayStyle) -> Vec<Ray> {
        let tris = scene.mesh.triangles();
        assert!(!tris.is_empty(), "cannot sample rays from an empty scene");
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let aabb = scene.mesh.aabb();
        let light = aabb.center() + Vec3::new(0.0, aabb.extent().y.max(1.0) * 1.5, 0.0);
        (0..self.ray_count())
            .map(|_| {
                let tri = &tris[rng.gen_range(0..tris.len())];
                // Uniform barycentric sample of the triangle.
                let (mut u, mut v) = (rng.gen::<f32>(), rng.gen::<f32>());
                if u + v > 1.0 {
                    u = 1.0 - u;
                    v = 1.0 - v;
                }
                let p = tri.v0 + (tri.v1 - tri.v0) * u + (tri.v2 - tri.v0) * v;
                let n = {
                    let n = tri.normal();
                    if n.length_squared() > 1e-12 {
                        n.normalized()
                    } else {
                        Vec3::Y
                    }
                };
                let dir = match style {
                    SurfaceRayStyle::Hemisphere => sample_hemisphere(&mut rng, n),
                    SurfaceRayStyle::TowardLight => {
                        let d = light - p;
                        if d.length_squared() > 1e-12 {
                            d.normalized()
                        } else {
                            n
                        }
                    }
                };
                // Offset along the normal to avoid self-intersection.
                Ray::new(p + n * 1e-3, dir)
            })
            .collect()
    }
}

#[derive(Clone, Copy)]
enum SurfaceRayStyle {
    Hemisphere,
    TowardLight,
}

/// Cosine-weighted hemisphere sample around `normal`.
fn sample_hemisphere<R: Rng>(rng: &mut R, normal: Vec3) -> Vec3 {
    // Rejection-free: sample a point on the unit sphere, add the normal,
    // and normalize (Lambertian trick from ray tracing in one weekend).
    loop {
        let v = Vec3::new(
            rng.gen::<f32>() * 2.0 - 1.0,
            rng.gen::<f32>() * 2.0 - 1.0,
            rng.gen::<f32>() * 2.0 - 1.0,
        );
        let len2 = v.length_squared();
        if len2 > 1e-6 && len2 <= 1.0 {
            let dir = (normal + v / len2.sqrt()).normalized();
            // Guard against the antipodal sample canceling the normal.
            if dir.dot(normal) > 0.0 {
                return dir;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SceneId;

    fn tiny_scene() -> Scene {
        Scene::build_with_detail(SceneId::Wknd, 0.2)
    }

    #[test]
    fn primary_workload_matches_camera() {
        let scene = tiny_scene();
        let rays = Workload::new(WorkloadKind::Primary, 8, 8).generate(&scene);
        assert_eq!(rays.len(), 64);
        let direct = scene.camera.primary_rays(8, 8);
        assert_eq!(rays[17], direct[17]);
    }

    #[test]
    fn paper_default_is_32x32_primary() {
        let w = Workload::paper_default();
        assert_eq!(w.ray_count(), 1024);
        assert_eq!(w.kind, WorkloadKind::Primary);
    }

    #[test]
    fn diffuse_rays_are_deterministic_and_unit_length() {
        let scene = tiny_scene();
        let w = Workload::new(WorkloadKind::Diffuse, 8, 8);
        let a = w.generate(&scene);
        let b = w.generate(&scene);
        assert_eq!(a.len(), 64);
        assert_eq!(a[10], b[10]);
        for r in &a {
            assert!((r.direction.length() - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn different_seeds_give_different_diffuse_rays() {
        let scene = tiny_scene();
        let a = Workload::new(WorkloadKind::Diffuse, 8, 8).generate(&scene);
        let b = Workload::new(WorkloadKind::Diffuse, 8, 8)
            .with_seed(99)
            .generate(&scene);
        assert_ne!(a[0], b[0]);
    }

    #[test]
    fn diffuse_origins_lie_near_scene_surface() {
        let scene = tiny_scene();
        let aabb = scene.mesh.aabb();
        let mut grown = aabb;
        grown.grow_point(aabb.min - rt_geometry::Vec3::splat(0.1));
        grown.grow_point(aabb.max + rt_geometry::Vec3::splat(0.1));
        for r in Workload::new(WorkloadKind::Diffuse, 8, 8).generate(&scene) {
            assert!(grown.contains_point(r.origin));
        }
    }

    #[test]
    fn shadow_rays_point_upward_on_average() {
        let scene = tiny_scene();
        let rays = Workload::new(WorkloadKind::Shadow, 8, 8).generate(&scene);
        let mean_y: f32 = rays.iter().map(|r| r.direction.y).sum::<f32>() / rays.len() as f32;
        // The light sits above the scene, so shadow rays mostly go up.
        assert!(mean_y > 0.0);
    }

    #[test]
    fn workload_kind_display() {
        assert_eq!(WorkloadKind::Primary.to_string(), "primary");
        assert_eq!(WorkloadKind::Diffuse.to_string(), "diffuse");
        assert_eq!(WorkloadKind::Shadow.to_string(), "shadow");
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dimension_panics() {
        let _ = Workload::new(WorkloadKind::Primary, 0, 8);
    }
}
