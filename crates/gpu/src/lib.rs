//! Cycle-level GPU memory-system substrate for the treelet-prefetching
//! reproduction.
//!
//! The paper evaluates on Vulkan-Sim, a C++ GPU simulator. This crate
//! rebuilds the pieces of that substrate the RT unit interacts with:
//!
//! - [`Cache`] — MSHR-equipped LRU caches (fully associative L1,
//!   set-associative L2) that track prefetch provenance for the paper's
//!   Fig. 12 breakdown and Fig. 20 effectiveness classification,
//! - [`Dram`] — a 4-channel DRAM with a 256-byte partition stride and
//!   serialized per-channel bursts (the Fig. 15 load-balance mechanism),
//! - [`MemorySystem`] — the composed hierarchy, advanced one core cycle
//!   at a time, with the 1365 MHz / 3500 MHz clock-domain split of the
//!   paper's Table 1.
//!
//! The RT unit itself (warp buffer, treelet prefetcher, schedulers) lives
//! in the `treelet-rt` crate and drives this memory system.
//!
//! # Examples
//!
//! ```
//! use rt_gpu_sim::{AccessKind, FillOrigin, MemConfig, MemorySystem};
//!
//! let mut mem = MemorySystem::new(MemConfig::paper_default(), 1);
//! let issue = mem.access(0, 0x1_0000, FillOrigin::Demand, AccessKind::Node);
//! let req = issue.request_id().unwrap();
//! while !mem.drain_completed(0).contains(&req) {
//!     mem.tick();
//! }
//! assert!(mem.cycle() > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod codec;
mod dram;
mod memsys;
mod table;

pub use cache::{Cache, CacheStats, FillOrigin, Organization, PrefetchEffect, ProbeOutcome};
pub use codec::{fnv1a64, ByteReader, ByteWriter, DecodeError};
pub use dram::{Dram, DramConfig};
pub use memsys::{
    AccessKind, AuditReport, FaultInjection, Issue, LatencyHistogram, MemConfig, MemStats,
    MemorySystem, RequestId,
};
pub use table::{
    check_decoded_window, CountTable, CountVec, FxBuildHasher, FxHashMap, FxHashSet, FxHasher,
    IdWindow,
};
