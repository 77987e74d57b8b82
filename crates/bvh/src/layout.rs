//! BVH memory images: assignment of byte addresses to node records and
//! triangle data.
//!
//! The paper evaluates three layouts (§4.4, §6.4):
//!
//! - the **baseline** depth-first layout an ordinary builder emits,
//! - the **treelet-packed** layout where nodes of the same treelet are
//!   contiguous and treelet roots are aligned to the maximum treelet size
//!   (so the prefetcher can identify a treelet from the upper address
//!   bits), optionally with an extra inter-treelet stride for DRAM load
//!   balancing (Fig. 15),
//! - an unmodified layout plus a **node-to-treelet mapping table** (4 bytes
//!   per node) that the prefetcher must load before it can prefetch.

use crate::wide::{WideBvh, NODE_SIZE_BYTES, TRIANGLE_SIZE_BYTES};

/// Base address of the BVH node region.
pub const NODE_REGION_BASE: u64 = 0x1_0000_0000;

/// Which layout strategy produced a [`MemoryImage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutKind {
    /// Nodes in depth-first order (baseline builder output).
    DepthFirst,
    /// Nodes grouped by treelet, roots aligned to the treelet slot size.
    TreeletPacked,
}

/// Options for the treelet-packed layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackOptions {
    /// Slot reserved per treelet; treelet roots are `slot_bytes +
    /// extra_stride` apart. Must be a multiple of the 64-byte node size
    /// and at least one node.
    pub slot_bytes: u64,
    /// Extra padding between treelet slots (the paper's 256-byte DRAM
    /// load-balancing stride, Fig. 15).
    pub extra_stride: u64,
}

impl PackOptions {
    /// The paper's default: 512-byte slots, no extra stride.
    pub fn paper_default() -> Self {
        PackOptions {
            slot_bytes: 512,
            extra_stride: 0,
        }
    }

    /// Returns a copy with the given extra stride.
    pub fn with_extra_stride(mut self, stride: u64) -> Self {
        self.extra_stride = stride;
        self
    }
}

impl Default for PackOptions {
    fn default() -> Self {
        PackOptions::paper_default()
    }
}

/// Byte-address assignment for every node record and triangle of a BVH.
///
/// # Examples
///
/// ```
/// use rt_bvh::{MemoryImage, WideBvh};
/// use rt_geometry::{Triangle, Vec3};
///
/// let bvh = WideBvh::build(vec![Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y)]);
/// let image = MemoryImage::depth_first(&bvh);
/// assert_eq!(image.node_addr(0) % 64, 0);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryImage {
    kind: LayoutKind,
    node_addrs: Vec<u64>,
    /// Per-group (treelet) base address and occupied bytes, for
    /// treelet-packed layouts.
    groups: Vec<(u64, u64)>,
    /// Treelet group of each node (treelet-packed layouts only).
    group_of: Vec<u32>,
    tri_base: u64,
    tri_count: u64,
    mapping_table_base: Option<u64>,
    node_count: usize,
    total_bytes: u64,
}

impl MemoryImage {
    /// Lays out nodes in depth-first order — the baseline layout.
    pub fn depth_first(bvh: &WideBvh) -> MemoryImage {
        let n = bvh.node_count();
        let mut node_addrs = vec![0u64; n];
        let mut next = NODE_REGION_BASE;
        let mut stack = vec![bvh.root()];
        let mut placed = 0usize;
        while let Some(id) = stack.pop() {
            node_addrs[id as usize] = next;
            next += NODE_SIZE_BYTES;
            placed += 1;
            // Push children in reverse so the first child is placed next
            // (true depth-first address order).
            stack.extend(bvh.node(id).child_nodes().rev());
        }
        debug_assert_eq!(placed, n, "depth-first layout missed nodes");
        Self::finish(
            LayoutKind::DepthFirst,
            node_addrs,
            Vec::new(),
            Vec::new(),
            next,
            bvh,
        )
    }

    /// Lays out nodes grouped by treelet.
    ///
    /// The `g`th item of `treelets` lists the node indices of treelet
    /// `g` in their within-treelet order (treelet root first; the paper
    /// forms treelets breadth-first so upper-level nodes come first): a
    /// `&[Vec<u32>]`, or a flat assignment's slices. Each treelet
    /// occupies one fixed-size slot so treelet identity is visible in the
    /// upper address bits.
    ///
    /// # Panics
    ///
    /// Panics if a treelet exceeds its slot, if a node appears in more
    /// than one treelet, or if some node is in no treelet.
    pub fn treelet_packed<T: AsRef<[u32]>>(
        bvh: &WideBvh,
        treelets: impl IntoIterator<Item = T>,
        options: PackOptions,
    ) -> MemoryImage {
        assert!(
            options.slot_bytes >= NODE_SIZE_BYTES
                && options.slot_bytes.is_multiple_of(NODE_SIZE_BYTES),
            "slot_bytes must be a positive multiple of the node size"
        );
        let n = bvh.node_count();
        let mut node_addrs = vec![u64::MAX; n];
        let mut group_of = vec![u32::MAX; n];
        let pitch = options.slot_bytes + options.extra_stride;
        let treelets = treelets.into_iter();
        let mut groups = Vec::with_capacity(treelets.size_hint().0);
        for (g, members) in treelets.enumerate() {
            let members = members.as_ref();
            let base = NODE_REGION_BASE + g as u64 * pitch;
            let bytes = members.len() as u64 * NODE_SIZE_BYTES;
            assert!(
                bytes <= options.slot_bytes,
                "treelet {g} occupies {bytes} bytes, over the {} byte slot",
                options.slot_bytes
            );
            for (i, &node) in members.iter().enumerate() {
                assert!(
                    node_addrs[node as usize] == u64::MAX,
                    "node {node} assigned to two treelets"
                );
                node_addrs[node as usize] = base + i as u64 * NODE_SIZE_BYTES;
                group_of[node as usize] = g as u32;
            }
            groups.push((base, bytes));
        }
        assert!(
            node_addrs.iter().all(|&a| a != u64::MAX),
            "some nodes are in no treelet"
        );
        let end = NODE_REGION_BASE + groups.len() as u64 * pitch;
        Self::finish(
            LayoutKind::TreeletPacked,
            node_addrs,
            groups,
            group_of,
            end,
            bvh,
        )
    }

    fn finish(
        kind: LayoutKind,
        node_addrs: Vec<u64>,
        groups: Vec<(u64, u64)>,
        group_of: Vec<u32>,
        node_region_end: u64,
        bvh: &WideBvh,
    ) -> MemoryImage {
        let tri_base = align_up(node_region_end, 256);
        let tri_count = bvh.triangles().len() as u64;
        let total_bytes = tri_base + tri_count * TRIANGLE_SIZE_BYTES - NODE_REGION_BASE;
        MemoryImage {
            kind,
            node_count: node_addrs.len(),
            node_addrs,
            groups,
            group_of,
            tri_base,
            tri_count,
            mapping_table_base: None,
            total_bytes,
        }
    }

    /// Appends a node-to-treelet mapping table region (4 bytes per node,
    /// paper §4.4) after the triangle data. Requires treelet groups, i.e.
    /// makes sense on an image built with treelet knowledge — the paper's
    /// "unmodified BVH + mapping table" case is modeled as a depth-first
    /// image whose prefetcher consults this table.
    pub fn with_mapping_table(mut self) -> MemoryImage {
        let base = align_up(self.tri_base + self.tri_count * TRIANGLE_SIZE_BYTES, 256);
        self.mapping_table_base = Some(base);
        self.total_bytes = base + self.node_count as u64 * 4 - NODE_REGION_BASE;
        self
    }

    /// Which layout strategy built this image.
    pub fn kind(&self) -> LayoutKind {
        self.kind
    }

    /// Byte address of a node record.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_addr(&self, node: u32) -> u64 {
        self.node_addrs[node as usize]
    }

    /// Byte address of a triangle's data.
    ///
    /// # Panics
    ///
    /// Panics if `tri` is out of range.
    pub fn triangle_addr(&self, tri: u32) -> u64 {
        assert!((tri as u64) < self.tri_count, "triangle {tri} out of range");
        self.tri_base + tri as u64 * TRIANGLE_SIZE_BYTES
    }

    /// Address of a node's 4-byte mapping-table entry, if the image has a
    /// mapping table.
    pub fn mapping_entry_addr(&self, node: u32) -> Option<u64> {
        self.mapping_table_base.map(|b| b + node as u64 * 4)
    }

    /// `true` if the image carries a mapping table region.
    pub fn has_mapping_table(&self) -> bool {
        self.mapping_table_base.is_some()
    }

    /// Number of treelet groups (zero for non-treelet layouts).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Base address and occupied bytes of treelet `group`.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range (including on non-treelet
    /// layouts, which have no groups).
    pub fn group_extent(&self, group: u32) -> (u64, u64) {
        self.groups[group as usize]
    }

    /// Treelet group of `node` (treelet-packed layouts only).
    pub fn group_of(&self, node: u32) -> Option<u32> {
        self.group_of
            .get(node as usize)
            .copied()
            .filter(|_| self.kind == LayoutKind::TreeletPacked)
    }

    /// Number of node records in the image.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Total footprint in bytes, from the node region base to the end of
    /// the last region.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }
}

fn align_up(v: u64, align: u64) -> u64 {
    v.div_ceil(align) * align
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WideBvh;
    use rt_geometry::{Triangle, Vec3};

    fn grid(n: usize) -> Vec<Triangle> {
        (0..n)
            .map(|i| {
                let x = (i % 12) as f32 * 2.0;
                let z = (i / 12) as f32 * 2.0;
                Triangle::new(
                    Vec3::new(x, 0.0, z),
                    Vec3::new(x + 1.0, 0.0, z),
                    Vec3::new(x, 1.0, z),
                )
            })
            .collect()
    }

    /// Trivial treelet partition: consecutive runs of `k` nodes in index
    /// order (formation order doesn't matter for layout tests).
    fn chunked_treelets(bvh: &WideBvh, k: usize) -> Vec<Vec<u32>> {
        (0..bvh.node_count() as u32)
            .collect::<Vec<_>>()
            .chunks(k)
            .map(|c| c.to_vec())
            .collect()
    }

    #[test]
    fn depth_first_assigns_unique_aligned_addresses() {
        let bvh = WideBvh::build(grid(100));
        let img = MemoryImage::depth_first(&bvh);
        let mut addrs: Vec<u64> = (0..bvh.node_count() as u32)
            .map(|n| img.node_addr(n))
            .collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), bvh.node_count());
        assert!(addrs.iter().all(|a| a % NODE_SIZE_BYTES == 0));
        // Contiguous: first is the base, last is base + (n-1)*64.
        assert_eq!(addrs[0], NODE_REGION_BASE);
        assert_eq!(
            addrs[addrs.len() - 1],
            NODE_REGION_BASE + (bvh.node_count() as u64 - 1) * NODE_SIZE_BYTES
        );
    }

    #[test]
    fn depth_first_places_nodes_in_preorder() {
        // Node, then each child's subtree in child order: the address
        // order every pinned digest was taken with.
        fn preorder(bvh: &WideBvh, id: u32, out: &mut Vec<u32>) {
            out.push(id);
            for c in bvh.node(id).child_nodes() {
                preorder(bvh, c, out);
            }
        }
        let bvh = WideBvh::build(grid(40));
        let mut order = Vec::new();
        preorder(&bvh, bvh.root(), &mut order);
        assert_eq!(order.len(), bvh.node_count());
        assert!(bvh.node_count() > 5, "the tree must have several levels");
        let img = MemoryImage::depth_first(&bvh);
        for (i, &node) in order.iter().enumerate() {
            assert_eq!(
                img.node_addr(node),
                NODE_REGION_BASE + i as u64 * NODE_SIZE_BYTES,
                "node {node} is not at preorder position {i}"
            );
        }
    }

    #[test]
    fn depth_first_root_comes_first() {
        let bvh = WideBvh::build(grid(50));
        let img = MemoryImage::depth_first(&bvh);
        assert_eq!(img.node_addr(bvh.root()), NODE_REGION_BASE);
    }

    #[test]
    fn depth_first_first_child_adjacent_to_parent() {
        let bvh = WideBvh::build(grid(50));
        let img = MemoryImage::depth_first(&bvh);
        let first_child = bvh.node(0).child_nodes().next().unwrap();
        assert_eq!(img.node_addr(first_child), NODE_REGION_BASE + 64);
    }

    #[test]
    fn treelet_packed_slots_are_aligned() {
        let bvh = WideBvh::build(grid(64));
        let treelets = chunked_treelets(&bvh, 8);
        let img = MemoryImage::treelet_packed(&bvh, &treelets, PackOptions::paper_default());
        for g in 0..img.group_count() as u32 {
            let (base, bytes) = img.group_extent(g);
            assert_eq!((base - NODE_REGION_BASE) % 512, 0);
            assert!(bytes <= 512);
        }
    }

    #[test]
    fn treelet_packed_members_contiguous_in_order() {
        let bvh = WideBvh::build(grid(64));
        let treelets = chunked_treelets(&bvh, 8);
        let img = MemoryImage::treelet_packed(&bvh, &treelets, PackOptions::paper_default());
        for (g, members) in treelets.iter().enumerate() {
            let (base, _) = img.group_extent(g as u32);
            for (i, &m) in members.iter().enumerate() {
                assert_eq!(img.node_addr(m), base + i as u64 * 64);
                assert_eq!(img.group_of(m), Some(g as u32));
            }
        }
    }

    #[test]
    fn extra_stride_spreads_roots() {
        let bvh = WideBvh::build(grid(64));
        let treelets = chunked_treelets(&bvh, 8);
        let plain = MemoryImage::treelet_packed(&bvh, &treelets, PackOptions::paper_default());
        let strided = MemoryImage::treelet_packed(
            &bvh,
            &treelets,
            PackOptions::paper_default().with_extra_stride(256),
        );
        let (b0, _) = plain.group_extent(0);
        let (b1, _) = plain.group_extent(1);
        assert_eq!(b1 - b0, 512);
        let (s0, _) = strided.group_extent(0);
        let (s1, _) = strided.group_extent(1);
        assert_eq!(s1 - s0, 768);
    }

    #[test]
    #[should_panic(expected = "over the")]
    fn oversized_treelet_panics() {
        let bvh = WideBvh::build(grid(64));
        let treelets = chunked_treelets(&bvh, 20); // 20 * 64 > 512
        let _ = MemoryImage::treelet_packed(&bvh, &treelets, PackOptions::paper_default());
    }

    #[test]
    #[should_panic(expected = "no treelet")]
    fn missing_node_panics() {
        let bvh = WideBvh::build(grid(64));
        let mut treelets = chunked_treelets(&bvh, 8);
        treelets.pop();
        let _ = MemoryImage::treelet_packed(&bvh, &treelets, PackOptions::paper_default());
    }

    #[test]
    fn triangle_region_follows_nodes() {
        let bvh = WideBvh::build(grid(30));
        let img = MemoryImage::depth_first(&bvh);
        let t0 = img.triangle_addr(0);
        assert!(t0 >= NODE_REGION_BASE + bvh.node_count() as u64 * 64);
        assert_eq!(img.triangle_addr(1) - t0, TRIANGLE_SIZE_BYTES);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn triangle_addr_out_of_range_panics() {
        let bvh = WideBvh::build(grid(4));
        let img = MemoryImage::depth_first(&bvh);
        let _ = img.triangle_addr(4);
    }

    #[test]
    fn mapping_table_region() {
        let bvh = WideBvh::build(grid(30));
        let img = MemoryImage::depth_first(&bvh).with_mapping_table();
        assert!(img.has_mapping_table());
        let e0 = img.mapping_entry_addr(0).unwrap();
        let e1 = img.mapping_entry_addr(1).unwrap();
        assert_eq!(e1 - e0, 4);
        // Table sits after the triangles.
        assert!(e0 >= img.triangle_addr((bvh.triangles().len() - 1) as u32));
        // Table adds ~1/16 of the node bytes to the footprint.
        let plain = MemoryImage::depth_first(&bvh);
        assert!(img.total_bytes() > plain.total_bytes());
    }

    #[test]
    fn group_of_is_none_for_depth_first() {
        let bvh = WideBvh::build(grid(10));
        let img = MemoryImage::depth_first(&bvh);
        assert_eq!(img.group_of(0), None);
    }
}
