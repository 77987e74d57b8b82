//! Axis-aligned bounding boxes and the ray-box slab test.

use crate::{Ray, Vec3};
use std::fmt;

/// An axis-aligned bounding box described by its minimum and maximum corners.
///
/// The canonical empty box has `min = +inf` and `max = -inf` so that growing
/// it by any point or box yields that point or box.
///
/// # Examples
///
/// ```
/// use rt_geometry::{Aabb, Vec3};
///
/// let mut b = Aabb::empty();
/// b.grow_point(Vec3::ZERO);
/// b.grow_point(Vec3::new(1.0, 2.0, 3.0));
/// assert_eq!(b.extent(), Vec3::new(1.0, 2.0, 3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl Aabb {
    /// Creates a box from explicit corners.
    ///
    /// `min` must be component-wise `<= max` for a non-empty box; use
    /// [`Aabb::empty`] for the identity element of [`Aabb::grow_box`].
    #[inline]
    pub const fn new(min: Vec3, max: Vec3) -> Self {
        Aabb { min, max }
    }

    /// The canonical empty box (`min = +inf`, `max = -inf`).
    #[inline]
    pub fn empty() -> Self {
        Aabb {
            min: Vec3::splat(f32::INFINITY),
            max: Vec3::splat(f32::NEG_INFINITY),
        }
    }

    /// Box containing a single point.
    #[inline]
    pub fn from_point(p: Vec3) -> Self {
        Aabb { min: p, max: p }
    }

    /// `true` if the box contains no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y || self.min.z > self.max.z
    }

    /// Expands the box to contain `p`.
    ///
    /// A NaN coordinate of `p` leaves that bound unchanged; see
    /// [`Aabb::grow_box`] for the fold.
    #[inline]
    pub fn grow_point(&mut self, p: Vec3) {
        self.min = fold_min(self.min, p);
        self.max = fold_max(self.max, p);
    }

    /// Expands the box to contain `other`.
    ///
    /// Each lane folds with a select (`o < acc`), one `minss`/`maxss`,
    /// instead of `f32::min`'s NaN-aware sequence. The two agree unless
    /// the box itself already holds a NaN, which a box grown from
    /// [`Aabb::empty`] never does: a NaN argument loses the comparison
    /// and leaves the bound as it was, as `f32::min` would. This fold is
    /// the SAH builder's inner loop.
    #[inline]
    pub fn grow_box(&mut self, other: &Aabb) {
        self.min = fold_min(self.min, other.min);
        self.max = fold_max(self.max, other.max);
    }

    /// Returns the union of `self` and `other` without mutating either.
    #[inline]
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Size of the box along each axis, or zero for empty boxes.
    #[inline]
    pub fn extent(&self) -> Vec3 {
        if self.is_empty() {
            Vec3::ZERO
        } else {
            self.max - self.min
        }
    }

    /// Center point of the box.
    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Surface area of the box (the SAH cost metric), zero for empty boxes.
    #[inline]
    pub fn surface_area(&self) -> f32 {
        let e = self.extent();
        2.0 * (e.x * e.y + e.y * e.z + e.z * e.x)
    }

    /// Axis index (0..3) of the longest extent.
    #[inline]
    pub fn longest_axis(&self) -> usize {
        self.extent().largest_axis()
    }

    /// `true` if `p` is inside or on the boundary of the box.
    #[inline]
    pub fn contains_point(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// `true` if `other` is fully inside `self` (empty boxes are contained
    /// in everything).
    #[inline]
    pub fn contains_box(&self, other: &Aabb) -> bool {
        other.is_empty() || (self.contains_point(other.min) && self.contains_point(other.max))
    }

    /// Slab-method ray-box intersection.
    ///
    /// Returns the entry distance `t_entry` clamped to the ray interval if
    /// the ray intersects the box within `[ray.t_min, ray.t_max]`, `None`
    /// otherwise. The entry distance is what BVH traversal pushes with the
    /// node for front-to-back ordering and early-termination checks.
    #[inline]
    pub fn intersect(&self, ray: &Ray, inv_dir: Vec3) -> Option<f32> {
        let t0 = (self.min - ray.origin) * inv_dir;
        let t1 = (self.max - ray.origin) * inv_dir;
        let t_near = t0.min(t1);
        let t_far = t0.max(t1);
        let t_entry = t_near.max_component().max(ray.t_min);
        let t_exit = t_far.min_component().min(ray.t_max);
        if t_entry <= t_exit {
            Some(t_entry)
        } else {
            None
        }
    }
}

/// Lane-wise `o` where `o < acc`, else `acc`: one `minss` per lane.
#[inline]
fn fold_min(acc: Vec3, o: Vec3) -> Vec3 {
    let lane = |a: f32, o: f32| if o < a { o } else { a };
    Vec3::new(lane(acc.x, o.x), lane(acc.y, o.y), lane(acc.z, o.z))
}

/// Lane-wise `o` where `o > acc`, else `acc`: one `maxss` per lane.
#[inline]
fn fold_max(acc: Vec3, o: Vec3) -> Vec3 {
    let lane = |a: f32, o: f32| if o > a { o } else { a };
    Vec3::new(lane(acc.x, o.x), lane(acc.y, o.y), lane(acc.z, o.z))
}

impl Default for Aabb {
    /// The empty box, so that `Aabb::default()` is the identity for
    /// [`Aabb::grow_box`].
    fn default() -> Self {
        Aabb::empty()
    }
}

impl fmt::Display for Aabb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Aabb[{} .. {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::ONE)
    }

    #[test]
    fn empty_box_properties() {
        let e = Aabb::empty();
        assert!(e.is_empty());
        assert_eq!(e.extent(), Vec3::ZERO);
        assert_eq!(e.surface_area(), 0.0);
        assert_eq!(Aabb::default(), e);
    }

    #[test]
    fn grow_point_from_empty() {
        let mut b = Aabb::empty();
        b.grow_point(Vec3::new(1.0, -2.0, 3.0));
        assert!(!b.is_empty());
        assert_eq!(b.min, b.max);
        b.grow_point(Vec3::new(-1.0, 2.0, 0.0));
        assert_eq!(b.min, Vec3::new(-1.0, -2.0, 0.0));
        assert_eq!(b.max, Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn union_is_commutative_and_grows() {
        let a = Aabb::new(Vec3::ZERO, Vec3::ONE);
        let b = Aabb::new(Vec3::splat(2.0), Vec3::splat(3.0));
        let u = a.union(&b);
        assert_eq!(u, b.union(&a));
        assert!(u.contains_box(&a));
        assert!(u.contains_box(&b));
    }

    #[test]
    fn union_with_empty_is_identity() {
        let a = unit_box();
        assert_eq!(a.union(&Aabb::empty()), a);
    }

    #[test]
    fn surface_area_of_unit_box() {
        assert_eq!(unit_box().surface_area(), 6.0);
    }

    #[test]
    fn center_and_extent() {
        let b = Aabb::new(Vec3::new(-1.0, 0.0, 2.0), Vec3::new(3.0, 4.0, 6.0));
        assert_eq!(b.center(), Vec3::new(1.0, 2.0, 4.0));
        assert_eq!(b.extent(), Vec3::new(4.0, 4.0, 4.0));
    }

    #[test]
    fn longest_axis() {
        let b = Aabb::new(Vec3::ZERO, Vec3::new(1.0, 5.0, 2.0));
        assert_eq!(b.longest_axis(), 1);
    }

    #[test]
    fn containment() {
        let b = unit_box();
        assert!(b.contains_point(Vec3::splat(0.5)));
        assert!(b.contains_point(Vec3::ZERO)); // boundary
        assert!(!b.contains_point(Vec3::splat(1.1)));
        assert!(b.contains_box(&Aabb::new(Vec3::splat(0.2), Vec3::splat(0.8))));
        assert!(!b.contains_box(&Aabb::new(Vec3::splat(0.5), Vec3::splat(1.5))));
        assert!(b.contains_box(&Aabb::empty()));
    }

    #[test]
    fn ray_hits_box_straight_on() {
        let b = unit_box();
        let ray = Ray::new(Vec3::new(-1.0, 0.5, 0.5), Vec3::X);
        let t = b.intersect(&ray, ray.inv_direction());
        assert_eq!(t, Some(1.0));
    }

    #[test]
    fn ray_misses_box() {
        let b = unit_box();
        let ray = Ray::new(Vec3::new(-1.0, 2.0, 0.5), Vec3::X);
        assert_eq!(b.intersect(&ray, ray.inv_direction()), None);
    }

    #[test]
    fn ray_starting_inside_reports_clamped_entry() {
        let b = unit_box();
        let ray = Ray::new(Vec3::splat(0.5), Vec3::X);
        let t = b.intersect(&ray, ray.inv_direction());
        // Entry is clamped to t_min when the origin is inside.
        assert_eq!(t, Some(ray.t_min));
    }

    #[test]
    fn ray_behind_box_misses() {
        let b = unit_box();
        let ray = Ray::new(Vec3::new(2.0, 0.5, 0.5), Vec3::X);
        assert_eq!(b.intersect(&ray, ray.inv_direction()), None);
    }

    #[test]
    fn shrunk_t_max_culls_far_box() {
        let b = Aabb::new(Vec3::new(10.0, 0.0, 0.0), Vec3::new(11.0, 1.0, 1.0));
        let mut ray = Ray::new(Vec3::new(0.0, 0.5, 0.5), Vec3::X);
        assert!(b.intersect(&ray, ray.inv_direction()).is_some());
        ray.t_max = 5.0; // closer hit already found
        assert_eq!(b.intersect(&ray, ray.inv_direction()), None);
    }

    #[test]
    fn axis_parallel_ray_inside_slab() {
        // Direction has a zero component; inv_dir is infinite there.
        let b = unit_box();
        let ray = Ray::new(Vec3::new(0.5, -1.0, 0.5), Vec3::Y);
        assert!(b.intersect(&ray, ray.inv_direction()).is_some());
        let miss = Ray::new(Vec3::new(2.0, -1.0, 0.5), Vec3::Y);
        assert_eq!(b.intersect(&miss, miss.inv_direction()), None);
    }

    #[test]
    fn diagonal_ray_hits_corner_region() {
        let b = unit_box();
        let ray = Ray::new(Vec3::splat(-1.0), Vec3::ONE.normalized());
        let t = b.intersect(&ray, ray.inv_direction()).expect("should hit");
        // Entry at the corner (0,0,0): distance sqrt(3).
        assert!((t - 3f32.sqrt()).abs() < 1e-5);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(unit_box().to_string().contains("Aabb"));
    }
}
