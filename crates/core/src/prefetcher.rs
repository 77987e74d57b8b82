//! One SM's prefetcher, as the engine drives it: the [`PrefetcherUnit`]
//! enum and the treelet address map it reads.
//!
//! The RT unit runs the paper's treelet voter (§4.1) or one of the two
//! prior-work predictors of Fig. 8, MTA and GHB. Each of the unit's
//! methods matches on the kind once and calls the concrete prefetcher; a
//! hook a kind has no use for does nothing in its arm. In cycle-loop
//! order:
//!
//! - [`PrefetcherUnit::decide`] — once per cycle; the treelet voter
//!   applies staged decisions and samples the warp buffer,
//! - [`PrefetcherUnit::observe_demand`] — the memory scheduler issued a
//!   demand line (MTA trains on every access, GHB on misses),
//! - [`PrefetcherUnit::pop_entry`] — the scheduler was idle and can
//!   issue one prefetch,
//! - [`PrefetcherUnit::next_decision_event`] /
//!   [`PrefetcherUnit::skip_decisions`] — the engine's idle skip asks when
//!   `decide` would next change more than counters, then applies the
//!   skipped calls' counters in bulk (treelet voter only),
//! - [`PrefetcherUnit::encode_state`] / [`PrefetcherUnit::restore_state`]
//!   — the RTSNAP checkpoint codec.
//!
//! The treelet arm reads the SM's warp buffer as the engine keeps it:
//! the resident-ray count, the per-treelet ray counts over the buffer
//! (`global`) and each occupied slot's counts in slot order
//! (`per_warp`).

use crate::config::{PrefetchConfig, SimConfig};
use crate::ghb::{GhbPrefetcher, GhbStats};
use crate::mta::{MtaPrefetcher, MtaStats};
use crate::prefetch::{MappingMode, PrefetchEntry, PrefetcherStats, TreeletPrefetcher};
use crate::treelet::TreeletAssignment;
use rt_bvh::{MemoryImage, WideBvh};
use rt_gpu_sim::{ByteReader, ByteWriter, CountTable, CountVec, DecodeError, FxHashSet};

/// Per-kind statistics from one prefetcher unit, used to fold per-SM
/// counters into a run total.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrefetchUnitStats {
    /// Treelet-voter counters.
    Treelet(PrefetcherStats),
    /// MTA stride-prefetcher counters.
    Mta(MtaStats),
    /// Global-history-buffer counters.
    Ghb(GhbStats),
}

impl PrefetchUnitStats {
    /// Accumulates another unit's counters into this one.
    ///
    /// # Panics
    ///
    /// Panics if the two values come from different prefetcher kinds —
    /// a run configures the same kind on every SM.
    pub fn merge(&mut self, other: &PrefetchUnitStats) {
        match (self, other) {
            (PrefetchUnitStats::Treelet(a), PrefetchUnitStats::Treelet(b)) => a.merge(b),
            (PrefetchUnitStats::Mta(a), PrefetchUnitStats::Mta(b)) => a.merge(b),
            (PrefetchUnitStats::Ghb(a), PrefetchUnitStats::Ghb(b)) => a.merge(b),
            _ => panic!("cannot merge statistics from different prefetcher kinds"),
        }
    }
}

/// How the treelet prefetcher addresses a treelet: the run's mapping
/// mode, every treelet's cache lines, front (upper levels) first, and the
/// line of its mapping-table entry. Treelet `g`'s lines are
/// `lines[start[g]..start[g + 1]]`. Empty unless the treelet prefetcher
/// runs. Static replay data, never encoded.
#[derive(Debug)]
pub(crate) struct TreeletLines {
    mapping: MappingMode,
    /// Per treelet, its first line, plus one closing entry.
    start: Vec<u32>,
    lines: Vec<u64>,
    /// Per treelet, the line of its mapping-table entry.
    meta: Vec<u64>,
}

impl TreeletLines {
    /// The lines of `treelets` laid out by `image`, if `config` runs the
    /// treelet prefetcher. With the triangle-prefetch extension, leaf
    /// members' primitive lines follow the node lines (so PARTIAL still
    /// prioritizes upper nodes).
    pub(crate) fn new(
        bvh: &WideBvh,
        config: &SimConfig,
        treelets: &TreeletAssignment,
        image: &MemoryImage,
    ) -> TreeletLines {
        let (count, mapping) = match config.prefetch {
            PrefetchConfig::Treelet { mapping, .. } => (treelets.count() as u32, mapping),
            _ => (0, MappingMode::Packed),
        };
        let line_bytes = config.mem.line_bytes;
        let mut start = Vec::with_capacity(count as usize + 1);
        start.push(0);
        let nodes = if count == 0 {
            0
        } else {
            treelets.covered_nodes()
        };
        let mut lines = Vec::with_capacity(nodes);
        let mut seen = FxHashSet::default();
        for g in 0..count {
            let first = lines.len();
            let members = treelets.members(g);
            lines.extend(
                members
                    .iter()
                    .map(|&n| image.node_addr(n) / line_bytes * line_bytes),
            );
            if config.prefetch_triangles {
                for &n in members {
                    if let Some((first, count)) = bvh.node(n).leaf() {
                        let begin = image.triangle_addr(first);
                        let end = begin + count as u64 * rt_bvh::TRIANGLE_SIZE_BYTES;
                        let mut addr = begin / line_bytes * line_bytes;
                        while addr < end {
                            lines.push(addr);
                            addr += line_bytes;
                        }
                    }
                }
            }
            // Drop repeats within the treelet, keeping first positions.
            seen.clear();
            let mut kept = first;
            for i in first..lines.len() {
                if seen.insert(lines[i]) {
                    lines[kept] = lines[i];
                    kept += 1;
                }
            }
            lines.truncate(kept);
            start.push(u32::try_from(kept).expect("treelet line offsets fit 32 bits"));
        }
        let meta = (0..count)
            .map(|g| {
                image
                    .mapping_entry_addr(treelets.members(g)[0])
                    .unwrap_or(0)
                    / line_bytes
                    * line_bytes
            })
            .collect();
        TreeletLines {
            mapping,
            start,
            lines,
            meta,
        }
    }

    /// Treelet `t`'s lines.
    fn of(&self, t: u32) -> &[u64] {
        &self.lines[self.start[t as usize] as usize..self.start[t as usize + 1] as usize]
    }

    /// The mapping-table line that gates treelet `t`'s prefetch.
    fn meta(&self, t: u32) -> u64 {
        self.meta[t as usize]
    }
}

/// One SM's prefetcher, enum-dispatched so the engine's hot loop pays a
/// predictable branch instead of a vtable call.
#[derive(Debug)]
pub(crate) enum PrefetcherUnit {
    Treelet(TreeletPrefetcher),
    Mta(MtaPrefetcher),
    Ghb(GhbPrefetcher),
}

impl PrefetcherUnit {
    /// Each kind's name, in the order of the checkpoint's presence flags
    /// (see [`PrefetcherUnit::kind`]).
    pub(crate) const KINDS: [&'static str; 3] =
        ["treelet prefetcher", "MTA prefetcher", "GHB prefetcher"];

    /// Builds the unit a configuration asks for, or `None` for the
    /// baseline RT unit.
    pub(crate) fn from_config(config: &SimConfig) -> Option<PrefetcherUnit> {
        match config.prefetch {
            PrefetchConfig::None => None,
            PrefetchConfig::Treelet {
                heuristic,
                voter,
                latency,
                ..
            } => Some(PrefetcherUnit::Treelet(TreeletPrefetcher::new(
                heuristic,
                voter,
                latency,
                config.warp_buffer_rays(),
                config.prefetch_queue_capacity,
            ))),
            PrefetchConfig::Mta => Some(PrefetcherUnit::Mta(MtaPrefetcher::paper_default(
                config.mem.line_bytes,
            ))),
            PrefetchConfig::Ghb => Some(PrefetcherUnit::Ghb(GhbPrefetcher::paper_default(
                config.mem.line_bytes,
            ))),
        }
    }

    /// The unit's index in [`PrefetcherUnit::KINDS`].
    pub(crate) fn kind(&self) -> usize {
        match self {
            PrefetcherUnit::Treelet(_) => 0,
            PrefetcherUnit::Mta(_) => 1,
            PrefetcherUnit::Ghb(_) => 2,
        }
    }

    /// Once-per-cycle decision hook. The treelet voter applies a staged
    /// decision whose latency elapsed and, when due, votes over the warp
    /// buffer (§4.1); MTA and GHB learn from demand lines only.
    pub(crate) fn decide<'a>(
        &mut self,
        now: u64,
        resident_rays: u32,
        global: &CountTable,
        per_warp: impl IntoIterator<Item = &'a CountVec>,
        lines: &TreeletLines,
    ) {
        let PrefetcherUnit::Treelet(p) = self else {
            return;
        };
        // Poll unconditionally: it also applies staged decisions whose
        // latency elapsed, which must happen even with no rays resident.
        if !p.poll(now, lines.mapping, |t| lines.of(t), |t| lines.meta(t)) {
            return;
        }
        let Some(sample) = p.sample(resident_rays, global, per_warp) else {
            return;
        };
        p.set_resident_rays(sample.resident_rays);
        p.submit(
            now,
            sample.chosen,
            sample.full,
            lines.mapping,
            |t| lines.of(t),
            |t| lines.meta(t),
        );
    }

    /// The memory scheduler issued a demand line for `warp`; `missed` is
    /// `true` when the L1 lookup did not hit.
    pub(crate) fn observe_demand(&mut self, warp: u32, line: u64, missed: bool) {
        match self {
            PrefetcherUnit::Treelet(_) => {}
            PrefetcherUnit::Mta(m) => m.observe(warp, line),
            // The GHB trains on the miss stream only (§2.3).
            PrefetcherUnit::Ghb(g) => {
                if missed {
                    g.observe(line);
                }
            }
        }
    }

    /// Pops the next prefetch to issue, if any.
    pub(crate) fn pop_entry(&mut self) -> Option<PrefetchEntry> {
        match self {
            PrefetcherUnit::Treelet(p) => p.pop(),
            PrefetcherUnit::Mta(m) => m.pop().map(PrefetchEntry::Line),
            PrefetcherUnit::Ghb(g) => g.pop().map(PrefetchEntry::Line),
        }
    }

    /// Returns gated lines to the queue front after their mapping-table
    /// line arrived (treelet mapping modes only).
    pub(crate) fn release_gated(&mut self, lines: Vec<u64>) {
        if let PrefetcherUnit::Treelet(p) = self {
            p.release_gated(lines);
        }
    }

    /// Entries waiting in the prefetch queue.
    pub(crate) fn queue_len(&self) -> usize {
        match self {
            PrefetcherUnit::Treelet(p) => p.queue_len(),
            PrefetcherUnit::Mta(m) => m.queue_len(),
            PrefetcherUnit::Ghb(g) => g.queue_len(),
        }
    }

    /// The first cycle at or after `now` at which
    /// [`PrefetcherUnit::decide`] would change more than counters, if
    /// every call sees the warp buffer as it is now — an idle-skip
    /// wake-up bound. `None` when no such cycle comes.
    pub(crate) fn next_decision_event<'a>(
        &self,
        now: u64,
        resident_rays: u32,
        global: &CountTable,
        per_warp: impl IntoIterator<Item = &'a CountVec>,
        lines: &TreeletLines,
    ) -> Option<u64> {
        let PrefetcherUnit::Treelet(p) = self else {
            return None;
        };
        let sample = p.sample(resident_rays, global, per_warp);
        p.next_enqueue_at(now, sample.as_ref(), lines.mapping, |t| lines.of(t))
    }

    /// Advances the unit as if [`PrefetcherUnit::decide`] ran with the
    /// warp buffer as it is now at every cycle in `now..until`. The
    /// engine calls it across an idle skip, only when
    /// [`PrefetcherUnit::next_decision_event`] is not before `until`, so
    /// every such call would change only counters.
    pub(crate) fn skip_decisions<'a>(
        &mut self,
        now: u64,
        until: u64,
        resident_rays: u32,
        global: &CountTable,
        per_warp: impl IntoIterator<Item = &'a CountVec>,
        lines: &TreeletLines,
    ) {
        let PrefetcherUnit::Treelet(p) = self else {
            return;
        };
        let sample = p.sample(resident_rays, global, per_warp);
        p.skip_idle(now, until, sample.as_ref(), lines.mapping, |t| lines.of(t));
    }

    /// The treelet most recently prefetched, if the unit tracks one
    /// (drives the OMR/PMR schedulers).
    pub(crate) fn last_prefetched_treelet(&self) -> Option<u32> {
        match self {
            PrefetcherUnit::Treelet(p) => p.last_prefetched(),
            PrefetcherUnit::Mta(_) | PrefetcherUnit::Ghb(_) => None,
        }
    }

    /// Counters accumulated so far.
    pub(crate) fn unit_stats(&self) -> PrefetchUnitStats {
        match self {
            PrefetcherUnit::Treelet(p) => PrefetchUnitStats::Treelet(p.stats()),
            PrefetcherUnit::Mta(m) => PrefetchUnitStats::Mta(m.stats()),
            PrefetcherUnit::Ghb(g) => PrefetchUnitStats::Ghb(g.stats()),
        }
    }

    /// Serializes the unit's dynamic state for a checkpoint.
    pub(crate) fn encode_state(&self, w: &mut ByteWriter) {
        match self {
            PrefetcherUnit::Treelet(p) => p.encode_state(w),
            PrefetcherUnit::Mta(m) => m.encode_state(w),
            PrefetcherUnit::Ghb(g) => g.encode_state(w),
        }
    }

    /// Restores state written by [`PrefetcherUnit::encode_state`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] when the bytes are malformed or exceed
    /// the unit's configured capacities.
    pub(crate) fn restore_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), DecodeError> {
        match self {
            PrefetcherUnit::Treelet(p) => p.restore_state(r),
            PrefetcherUnit::Mta(m) => m.restore_state(r),
            PrefetcherUnit::Ghb(g) => g.restore_state(r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_construction_follows_the_config() {
        let base = SimConfig::paper_baseline();
        assert!(PrefetcherUnit::from_config(&base).is_none());
        let kinds: Vec<usize> = [
            PrefetchConfig::treelet(),
            PrefetchConfig::mta(),
            PrefetchConfig::ghb(),
        ]
        .into_iter()
        .map(|p| {
            let cfg = SimConfig::paper_baseline().with_prefetcher(p);
            PrefetcherUnit::from_config(&cfg).expect("unit").kind()
        })
        .collect();
        assert_eq!(kinds, [0, 1, 2]);
    }

    #[test]
    fn default_hooks_are_inert() {
        let cfg = SimConfig::paper_baseline().with_prefetcher(PrefetchConfig::mta());
        let mut unit = PrefetcherUnit::from_config(&cfg).expect("unit");
        unit.release_gated(vec![1]);
        assert_eq!(unit.queue_len(), 0);
        let mut global = CountTable::with_key_capacity(8);
        global.add(3, 2);
        let mut warp = CountVec::with_capacity(4);
        warp.add(3, 2);
        let lines = TreeletLines {
            mapping: MappingMode::Packed,
            start: vec![0, 0, 0, 0, 2],
            lines: vec![64, 128],
            meta: vec![0; 4],
        };
        unit.decide(0, 2, &global, [&warp], &lines);
        assert_eq!(
            unit.next_decision_event(0, 2, &global, [&warp], &lines),
            None
        );
        unit.skip_decisions(0, 100, 2, &global, [&warp], &lines);
        assert_eq!(unit.queue_len(), 0);
        assert_eq!(
            unit.unit_stats(),
            PrefetchUnitStats::Mta(MtaStats::default())
        );
        assert_eq!(unit.last_prefetched_treelet(), None);
    }

    #[test]
    #[should_panic(expected = "different prefetcher kinds")]
    fn merging_mismatched_stats_panics() {
        let mut a = PrefetchUnitStats::Mta(MtaStats::default());
        a.merge(&PrefetchUnitStats::Ghb(GhbStats::default()));
    }
}
