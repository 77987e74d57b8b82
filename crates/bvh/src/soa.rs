//! The flat record an internal node of a [`WideBvh`](crate::WideBvh)
//! is made of.
//!
//! Every internal node is one [`ChildSoa`]: its children's bounds as a
//! batched [`WideAabb`] beside their node indices. This is the Arches
//! `WideTreeletBVH::Node` layout, `Data[WIDTH]` beside `AABB[WIDTH]`,
//! and traversal's 6-wide slab test reads it in one call.
//!
//! The tree keeps these records in one array, in node order, plus one
//! 8-byte slot per node id. An internal node's slot indexes its record;
//! a leaf's slot is the whole leaf, its run of triangles, and its bounds
//! live only in its parent's lane. So a node visit reads one record or
//! one slot, and a leaf takes 8 bytes.

use crate::wide::WIDE_ARITY;
use rt_geometry::{Aabb, Ray, Vec3, WideAabb};

/// One internal node: its children in structure-of-arrays form, bounds
/// as a batched [`WideAabb`] (lane `i` = child `i`) plus the child node
/// indices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChildSoa {
    /// Child bounding boxes, one lane per child, in child-list order.
    pub bounds: WideAabb,
    /// Child node indices; lanes `len()..` are `u32::MAX` padding.
    pub nodes: [u32; WIDE_ARITY],
}

impl ChildSoa {
    /// A record with no children yet.
    pub fn empty() -> ChildSoa {
        ChildSoa {
            bounds: WideAabb::empty(),
            nodes: [u32::MAX; WIDE_ARITY],
        }
    }

    /// Appends a child with bounds `aabb` and node index `node`.
    ///
    /// # Panics
    ///
    /// Panics if the record already holds [`WIDE_ARITY`] children.
    #[inline]
    pub fn push(&mut self, aabb: &Aabb, node: u32) {
        let i = self.len();
        assert!(i < WIDE_ARITY, "child list exceeds arity");
        self.bounds.set(i, aabb);
        self.nodes[i] = node;
        self.bounds.len += 1;
    }

    /// Number of children in this record.
    #[inline]
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// `true` for a record with no children.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// The child node indices, in child-list order.
    #[inline]
    pub fn child_nodes(&self) -> &[u32] {
        &self.nodes[..self.len()]
    }

    /// Union of the child bounds, folded in child-list order: the
    /// node's own bounds.
    pub fn aabb(&self) -> Aabb {
        let mut b = Aabb::empty();
        for i in 0..self.len() {
            b.grow_box(&self.bounds.get(i));
        }
        b
    }

    /// Batched slab test of `ray` against every child, appending the
    /// hit lanes to `out` in child-list order (the same order the
    /// scalar `children.iter().filter_map(..)` loop produced).
    #[inline]
    pub fn intersect_into(&self, ray: &Ray, inv_dir: Vec3, out: &mut ChildHits) {
        let hits = self.bounds.intersect(ray, inv_dir);
        for i in 0..self.len() {
            if hits.mask & (1 << i) != 0 {
                out.push(self.nodes[i], hits.entries[i]);
            }
        }
    }
}

/// Fixed-capacity list of `(child node, entry distance)` hits from one
/// batched child test — the traversal scratch that replaces a per-node
/// `Vec` allocation.
#[derive(Debug, Clone, Copy)]
pub struct ChildHits {
    items: [(u32, f32); WIDE_ARITY],
    len: usize,
}

impl ChildHits {
    /// An empty hit list.
    #[inline]
    pub fn new() -> ChildHits {
        ChildHits {
            items: [(0, 0.0); WIDE_ARITY],
            len: 0,
        }
    }

    /// The recorded hits, in their current order.
    #[inline]
    pub fn as_slice(&self) -> &[(u32, f32)] {
        &self.items[..self.len]
    }

    /// Appends a hit.
    #[inline]
    pub fn push(&mut self, node: u32, entry: f32) {
        self.items[self.len] = (node, entry);
        self.len += 1;
    }

    /// Number of recorded hits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no hits were recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sorts the hits farthest-first (descending entry distance), so a
    /// LIFO stack pops the nearest child first.
    ///
    /// The insertion sort is *stable* — equal entry distances keep
    /// child-list order — and compares with `f32::total_cmp`, exactly
    /// like the `sort_by(|a, b| b.1.total_cmp(&a.1))` it replaces, so
    /// traversal order is bit-identical to the old `Vec`-based path.
    #[inline]
    pub fn sort_far_first(&mut self) {
        for i in 1..self.len {
            let x = self.items[i];
            let mut j = i;
            while j > 0 && self.items[j - 1].1.total_cmp(&x.1) == std::cmp::Ordering::Less {
                self.items[j] = self.items[j - 1];
                j -= 1;
            }
            self.items[j] = x;
        }
    }
}

impl Default for ChildHits {
    fn default() -> Self {
        ChildHits::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box(lo: f32) -> Aabb {
        Aabb::new(Vec3::splat(lo), Vec3::splat(lo + 1.0))
    }

    #[test]
    fn pack_round_trips_children() {
        let children = [(3, 0.0), (7, 2.0), (9, -4.0)];
        let mut soa = ChildSoa::empty();
        for &(node, lo) in &children {
            soa.push(&unit_box(lo), node);
        }
        assert_eq!(soa.len(), 3);
        assert_eq!(soa.child_nodes(), [3, 7, 9]);
        for (i, &(_, lo)) in children.iter().enumerate() {
            assert_eq!(soa.bounds.get(i), unit_box(lo));
        }
        assert_eq!(soa.aabb(), Aabb::new(Vec3::splat(-4.0), Vec3::splat(3.0)));
        // Padding lanes are inert.
        for i in children.len()..WIDE_ARITY {
            assert_eq!(soa.nodes[i], u32::MAX);
        }
    }

    #[test]
    fn empty_record_for_leaves() {
        // The empty child record is the starting point every internal
        // node is pushed into.
        let soa = ChildSoa::empty();
        assert!(soa.is_empty());
        assert_eq!(soa.len(), 0);
        assert!(soa.child_nodes().is_empty());
        assert_eq!(soa.aabb(), Aabb::empty());
        assert_eq!(soa.nodes, [u32::MAX; WIDE_ARITY]);
    }

    #[test]
    #[should_panic(expected = "exceeds arity")]
    fn pack_rejects_oversized_lists() {
        let mut soa = ChildSoa::empty();
        for i in 0..=WIDE_ARITY as u32 {
            soa.push(&unit_box(0.0), i);
        }
    }
}
