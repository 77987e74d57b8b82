//! Triangle primitives and the Möller–Trumbore intersection test.

use crate::{Aabb, Ray, Vec3};
use std::fmt;

/// A triangle defined by three vertices.
///
/// Triangles are the only primitive type in this stack, matching the
/// triangle-only scenes the paper evaluates on.
///
/// # Examples
///
/// ```
/// use rt_geometry::{Ray, Triangle, Vec3};
///
/// let tri = Triangle::new(
///     Vec3::new(0.0, 0.0, 1.0),
///     Vec3::new(1.0, 0.0, 1.0),
///     Vec3::new(0.0, 1.0, 1.0),
/// );
/// let ray = Ray::new(Vec3::new(0.25, 0.25, 0.0), Vec3::Z);
/// assert_eq!(tri.intersect(&ray), Some(1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Triangle {
    /// First vertex.
    pub v0: Vec3,
    /// Second vertex.
    pub v1: Vec3,
    /// Third vertex.
    pub v2: Vec3,
}

impl Triangle {
    /// Creates a triangle from its three vertices.
    #[inline]
    pub const fn new(v0: Vec3, v1: Vec3, v2: Vec3) -> Self {
        Triangle { v0, v1, v2 }
    }

    /// Bounding box of the triangle.
    ///
    /// Seeded from [`Aabb::empty`], so the box never holds a NaN: a NaN
    /// coordinate is skipped, and a lane NaN in all three vertices stays
    /// empty, which leaves every box it is folded into unchanged.
    #[inline]
    pub fn aabb(&self) -> Aabb {
        let mut b = Aabb::empty();
        b.grow_point(self.v0);
        b.grow_point(self.v1);
        b.grow_point(self.v2);
        b
    }

    /// Centroid (arithmetic mean of the vertices). Used by SAH binning.
    #[inline]
    pub fn centroid(&self) -> Vec3 {
        (self.v0 + self.v1 + self.v2) / 3.0
    }

    /// Unnormalized geometric normal `(v1-v0) × (v2-v0)`.
    #[inline]
    pub fn normal(&self) -> Vec3 {
        (self.v1 - self.v0).cross(self.v2 - self.v0)
    }

    /// Area of the triangle.
    #[inline]
    pub fn area(&self) -> f32 {
        self.normal().length() * 0.5
    }

    /// `true` if the triangle has (near-)zero area.
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        self.area() < 1e-12
    }

    /// Möller–Trumbore ray-triangle intersection.
    ///
    /// Returns the hit distance `t` if the ray crosses the triangle within
    /// `[ray.t_min, ray.t_max]`, `None` otherwise. Backfacing triangles are
    /// reported too (no culling), as required for closest-hit traversal.
    pub fn intersect(&self, ray: &Ray) -> Option<f32> {
        let e1 = self.v1 - self.v0;
        let e2 = self.v2 - self.v0;
        let p = ray.direction.cross(e2);
        let det = e1.dot(p);
        // Parallel (or degenerate) — no stable intersection.
        if det.abs() < 1e-12 {
            return None;
        }
        let inv_det = 1.0 / det;
        let s = ray.origin - self.v0;
        let u = s.dot(p) * inv_det;
        if !(0.0..=1.0).contains(&u) {
            return None;
        }
        let q = s.cross(e1);
        let v = ray.direction.dot(q) * inv_det;
        if v < 0.0 || u + v > 1.0 {
            return None;
        }
        let t = e2.dot(q) * inv_det;
        if t >= ray.t_min && t <= ray.t_max {
            Some(t)
        } else {
            None
        }
    }
}

impl fmt::Display for Triangle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Triangle[{}, {}, {}]", self.v0, self.v1, self.v2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unit right triangle in the plane z = 1.
    fn unit_tri() -> Triangle {
        Triangle::new(
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(1.0, 0.0, 1.0),
            Vec3::new(0.0, 1.0, 1.0),
        )
    }

    #[test]
    fn aabb_encloses_vertices() {
        let t = unit_tri();
        let b = t.aabb();
        assert!(b.contains_point(t.v0));
        assert!(b.contains_point(t.v1));
        assert!(b.contains_point(t.v2));
        assert_eq!(b.min, Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(b.max, Vec3::new(1.0, 1.0, 1.0));
    }

    #[test]
    fn centroid_area_normal() {
        let t = unit_tri();
        assert_eq!(t.centroid(), Vec3::new(1.0 / 3.0, 1.0 / 3.0, 1.0));
        assert_eq!(t.area(), 0.5);
        // Normal points along +Z for counter-clockwise winding.
        assert_eq!(t.normal().normalized(), Vec3::Z);
    }

    #[test]
    fn ray_hits_interior() {
        let t = unit_tri();
        let ray = Ray::new(Vec3::new(0.2, 0.2, 0.0), Vec3::Z);
        assert_eq!(t.intersect(&ray), Some(1.0));
    }

    #[test]
    fn ray_misses_outside_edges() {
        let t = unit_tri();
        // Outside the hypotenuse (u + v > 1).
        let ray = Ray::new(Vec3::new(0.8, 0.8, 0.0), Vec3::Z);
        assert_eq!(t.intersect(&ray), None);
        // Negative u.
        let ray = Ray::new(Vec3::new(-0.1, 0.5, 0.0), Vec3::Z);
        assert_eq!(t.intersect(&ray), None);
        // Negative v.
        let ray = Ray::new(Vec3::new(0.5, -0.1, 0.0), Vec3::Z);
        assert_eq!(t.intersect(&ray), None);
    }

    #[test]
    fn backface_hits_are_reported() {
        let t = unit_tri();
        // Ray from behind, hitting the backface.
        let ray = Ray::new(Vec3::new(0.2, 0.2, 2.0), -Vec3::Z);
        assert_eq!(t.intersect(&ray), Some(1.0));
    }

    #[test]
    fn parallel_ray_misses() {
        let t = unit_tri();
        let ray = Ray::new(Vec3::new(0.0, 0.0, 0.0), Vec3::X);
        assert_eq!(t.intersect(&ray), None);
    }

    #[test]
    fn hit_outside_interval_is_rejected() {
        let t = unit_tri();
        let mut ray = Ray::new(Vec3::new(0.2, 0.2, 0.0), Vec3::Z);
        ray.t_max = 0.5;
        assert_eq!(t.intersect(&ray), None);
        ray.t_max = f32::INFINITY;
        ray.t_min = 2.0;
        assert_eq!(t.intersect(&ray), None);
    }

    #[test]
    fn hit_behind_origin_is_rejected() {
        let t = unit_tri();
        let ray = Ray::new(Vec3::new(0.2, 0.2, 2.0), Vec3::Z);
        assert_eq!(t.intersect(&ray), None);
    }

    #[test]
    fn degenerate_triangle_detection() {
        let d = Triangle::new(Vec3::ZERO, Vec3::X, Vec3::X * 2.0);
        assert!(d.is_degenerate());
        assert!(!unit_tri().is_degenerate());
        // A ray through a degenerate triangle never hits.
        let ray = Ray::new(Vec3::new(0.5, 0.0, -1.0), Vec3::Z);
        assert_eq!(d.intersect(&ray), None);
    }

    #[test]
    fn edge_hit_is_inclusive() {
        let t = unit_tri();
        // Through vertex v0 exactly.
        let ray = Ray::new(Vec3::new(0.0, 0.0, 0.0), Vec3::Z);
        assert_eq!(t.intersect(&ray), Some(1.0));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(unit_tri().to_string().contains("Triangle"));
    }
}
