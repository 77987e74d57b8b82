//! Secondary-ray workload generation.
//!
//! The paper (§2.4) motivates treelet prefetching with the incoherence of
//! secondary and reflection rays, which "traverse drastically different
//! parts of the BVH tree due to the different ray bounces". This module
//! derives such rays by actually tracing a base generation against the
//! BVH and bouncing at the hit points — the closest functional equivalent
//! of the shader-generated bounce rays a full Vulkan pipeline would
//! produce.

use rt_bvh::WideBvh;
use rt_geometry::{Ray, Vec3};
use rt_rng::{Rng, SmallRng};

/// How bounce directions are chosen at each hit point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BounceKind {
    /// Cosine-weighted hemisphere sampling around the geometric normal
    /// (diffuse global-illumination rays — maximally incoherent).
    Diffuse,
    /// Mirror reflection of the incoming direction (reflection rays).
    Specular,
}

impl std::fmt::Display for BounceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BounceKind::Diffuse => "diffuse",
            BounceKind::Specular => "specular",
        })
    }
}

/// Traces `base` rays against `bvh` and returns one bounce ray per hit
/// (missing rays produce no bounce). Deterministic for a given `seed`.
///
/// # Examples
///
/// ```no_run
/// use rt_bvh::WideBvh;
/// use rt_scene::{Scene, SceneId, Workload};
/// use treelet_rt::{bounce_rays, BounceKind};
///
/// let scene = Scene::build_with_detail(SceneId::Bunny, 0.5);
/// let primary = Workload::paper_default().generate(&scene);
/// let bvh = WideBvh::build(scene.mesh.into_triangles());
/// let bounces = bounce_rays(&bvh, &primary, BounceKind::Diffuse, 7);
/// assert!(bounces.len() <= primary.len());
/// ```
pub fn bounce_rays(bvh: &WideBvh, base: &[Ray], kind: BounceKind, seed: u64) -> Vec<Ray> {
    let wrapped: Vec<Option<Ray>> = base.iter().copied().map(Some).collect();
    bounce_rays_indexed(bvh, &wrapped, kind, seed)
        .into_iter()
        .flatten()
        .collect()
}

/// Lane-preserving variant of [`bounce_rays`]: slot `i` of the result is
/// the bounce of slot `i` of `base`, or `None` where the lane was already
/// dead or missed — the form a SIMT warp needs, where dead lanes stay in
/// place.
pub fn bounce_rays_indexed(
    bvh: &WideBvh,
    base: &[Option<Ray>],
    kind: BounceKind,
    seed: u64,
) -> Vec<Option<Ray>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    base.iter()
        .map(|slot| {
            let ray = slot.as_ref()?;
            let hit = bvh.intersect(ray);
            let prim = hit.primitive?;
            let p = ray.at(hit.t);
            let tri = bvh.triangles()[prim as usize];
            let n = {
                let n = tri.normal();
                let n = if n.length_squared() > 1e-12 {
                    n.normalized()
                } else {
                    Vec3::Y
                };
                // Face the normal against the incoming ray.
                if n.dot(ray.direction) > 0.0 {
                    -n
                } else {
                    n
                }
            };
            let dir = match kind {
                BounceKind::Diffuse => sample_hemisphere(&mut rng, n),
                BounceKind::Specular => ray.direction - n * (2.0 * ray.direction.dot(n)),
            };
            Some(Ray::new(p + n * 1e-3, dir.normalized()))
        })
        .collect()
}

/// Cosine-weighted hemisphere sample around `normal`.
fn sample_hemisphere<R: Rng>(rng: &mut R, normal: Vec3) -> Vec3 {
    loop {
        let v = Vec3::new(
            rng.gen::<f32>() * 2.0 - 1.0,
            rng.gen::<f32>() * 2.0 - 1.0,
            rng.gen::<f32>() * 2.0 - 1.0,
        );
        let len2 = v.length_squared();
        if len2 > 1e-6 && len2 <= 1.0 {
            let dir = (normal + v / len2.sqrt()).normalized();
            if dir.dot(normal) > 0.0 {
                return dir;
            }
        }
    }
}

/// Mean pairwise direction coherence of a ray set: 1 = identical
/// directions, 0 = isotropic. Used to verify that bounce generations are
/// less coherent than primary rays.
///
/// # Panics
///
/// Panics if `rays` is empty.
pub fn direction_coherence(rays: &[Ray]) -> f64 {
    assert!(!rays.is_empty(), "need at least one ray");
    // |mean direction| is 1 for identical rays and ~0 for isotropic sets.
    let mut sum = Vec3::ZERO;
    for r in rays {
        sum += r.direction.normalized();
    }
    (sum / rays.len() as f32).length() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_scene::{Scene, SceneId, Workload, WorkloadKind};

    fn fixture() -> (WideBvh, Vec<Ray>) {
        let scene = Scene::build_with_detail(SceneId::Wknd, 0.3);
        let rays = Workload::new(WorkloadKind::Primary, 16, 16).generate(&scene);
        let bvh = WideBvh::build(scene.mesh.into_triangles());
        (bvh, rays)
    }

    #[test]
    fn bounces_originate_at_hit_surfaces() {
        let (bvh, primary) = fixture();
        let bounces = bounce_rays(&bvh, &primary, BounceKind::Diffuse, 1);
        assert!(!bounces.is_empty(), "some primary rays must hit");
        let scene_box = bvh.root_aabb();
        for b in &bounces {
            assert!(
                scene_box.contains_point(b.origin),
                "bounce origin off-surface"
            );
            assert!((b.direction.length() - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn bounce_count_equals_hit_count() {
        let (bvh, primary) = fixture();
        let hits = primary.iter().filter(|r| bvh.intersect(r).is_hit()).count();
        let bounces = bounce_rays(&bvh, &primary, BounceKind::Specular, 1);
        assert_eq!(bounces.len(), hits);
    }

    #[test]
    fn diffuse_bounces_are_less_coherent_than_primary() {
        let (bvh, primary) = fixture();
        let bounces = bounce_rays(&bvh, &primary, BounceKind::Diffuse, 1);
        assert!(
            direction_coherence(&bounces) < direction_coherence(&primary),
            "diffuse bounces should be less coherent"
        );
    }

    #[test]
    fn specular_bounces_leave_the_surface() {
        let (bvh, primary) = fixture();
        for (ray, bounce) in primary
            .iter()
            .filter(|r| bvh.intersect(r).is_hit())
            .zip(bounce_rays(&bvh, &primary, BounceKind::Specular, 1))
        {
            // The specular direction reverses the normal component: its
            // dot with the incoming direction is < 1.
            assert!(bounce.direction.dot(ray.direction.normalized()) < 1.0 - 1e-6);
        }
    }

    #[test]
    fn bounces_are_deterministic_per_seed() {
        let (bvh, primary) = fixture();
        let a = bounce_rays(&bvh, &primary, BounceKind::Diffuse, 42);
        let b = bounce_rays(&bvh, &primary, BounceKind::Diffuse, 42);
        assert_eq!(a, b);
        let c = bounce_rays(&bvh, &primary, BounceKind::Diffuse, 43);
        assert_ne!(a[0], c[0]);
    }

    #[test]
    fn coherence_metric_extremes() {
        let same = vec![Ray::new(Vec3::ZERO, Vec3::X); 8];
        assert!((direction_coherence(&same) - 1.0).abs() < 1e-6);
        let opposed = vec![
            Ray::new(Vec3::ZERO, Vec3::X),
            Ray::new(Vec3::ZERO, -Vec3::X),
        ];
        assert!(direction_coherence(&opposed) < 1e-6);
    }
}
