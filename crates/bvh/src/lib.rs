//! Bounding volume hierarchy construction and memory layout for the
//! treelet-prefetching reproduction.
//!
//! This crate rebuilds the BVH substrate the paper relies on:
//!
//! - [`WideBvh`] / [`WideBvhBuilder`] — binned-SAH binary construction
//!   collapsed into the 6-wide tree the RT unit traverses,
//! - [`ChildSoa`] — the flat record an internal node is made of, read
//!   through [`WideBvh::node`]: its child bounds + pointers in the
//!   structure-of-arrays form traversal's batched 6-wide slab test reads
//!   (the Arches `Data[WIDTH]` + `AABB[WIDTH]` layout); a leaf is its
//!   triangle run, held in the node's 8-byte slot,
//! - [`NodeRecord`] — the 64-byte node record with the paper's treelet
//!   child bits in the previously unused bytes (Fig. 6),
//! - [`MemoryImage`] — byte-address assignment for node records and
//!   triangle data in the baseline depth-first layout, the treelet-packed
//!   layout (with optional DRAM load-balancing stride, Fig. 15), and the
//!   node-to-treelet mapping-table alternative (§4.4),
//! - [`TreeStats`] — the statistics reported in the paper's Table 2.
//!
//! # Examples
//!
//! ```
//! use rt_bvh::{MemoryImage, TreeStats, WideBvh};
//! use rt_geometry::{Ray, Triangle, Vec3};
//!
//! let tris = vec![Triangle::new(
//!     Vec3::new(-1.0, -1.0, 3.0),
//!     Vec3::new(1.0, -1.0, 3.0),
//!     Vec3::new(0.0, 1.0, 3.0),
//! )];
//! let bvh = WideBvh::build(tris);
//! let hit = bvh.intersect(&Ray::new(Vec3::ZERO, Vec3::Z));
//! assert!(hit.is_hit());
//!
//! let stats = TreeStats::of(&bvh);
//! let image = MemoryImage::depth_first(&bvh);
//! assert_eq!(image.node_count(), stats.node_count);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod binary;
#[cfg(test)]
mod build_alloc;
mod codec;
mod layout;
mod record;
mod soa;
mod stats;
mod wide;

pub use codec::{
    artifact_checksum, decode_wide_bvh, encode_artifact, encode_wide_bvh, ArtifactSection,
    BvhArtifact, BVH_ARTIFACT_MAGIC, BVH_ARTIFACT_VERSION,
};
pub use layout::{LayoutKind, MemoryImage, PackOptions, NODE_REGION_BASE};
pub use record::{NodeRecord, RECORD_BYTES};
pub use soa::{ChildHits, ChildSoa};
pub use stats::TreeStats;
pub use wide::{
    WideBvh, WideBvhBuilder, WideNode, DEFAULT_MAX_LEAF_TRIS, NODE_SIZE_BYTES, TRIANGLE_SIZE_BYTES,
    WIDE_ARITY,
};
