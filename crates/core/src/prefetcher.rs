//! The unified [`Prefetcher`] trait — one dispatch surface for every
//! prefetcher the RT unit can run.
//!
//! Before this module, `sim.rs` hard-coded three per-variant paths
//! (treelet voter, MTA, GHB): every hook in the cycle loop — decision
//! sampling, demand observation, queue draining, idle-skip bounds,
//! snapshot codec, stats folding — matched on the concrete type. The
//! trait distills those hooks into one contract, and the engine drives a
//! single enum-dispatched [`PrefetcherUnit`] handle instead. Adding a
//! predictor now means implementing the trait and adding one enum arm,
//! not editing six call sites.
//!
//! The hooks, in cycle-loop order:
//!
//! - [`Prefetcher::decide`] — once per cycle with a [`WarpBufferView`]
//!   of the resident rays (the treelet voter samples and stages votes),
//! - [`Prefetcher::observe_demand`] — the memory scheduler issued a
//!   demand line (MTA trains on every access, GHB on misses),
//! - [`Prefetcher::pop_entry`] — the scheduler was idle and can issue
//!   one prefetch,
//! - [`Prefetcher::next_decision_event`] / [`Prefetcher::skip_decisions`]
//!   — the engine's idle skip asks when `decide` would next change more
//!   than counters, then applies the skipped calls' counters in bulk,
//! - [`Prefetcher::encode_state`] / [`Prefetcher::restore_state`] — the
//!   RTSNAP checkpoint codec.

use crate::config::{PrefetchConfig, SimConfig};
use crate::ghb::{GhbPrefetcher, GhbStats};
use crate::mta::{MtaPrefetcher, MtaStats};
use crate::prefetch::{
    full_vote_counts, MappingMode, PrefetchEntry, PrefetcherStats, TreeletPrefetcher, Vote,
    VoterKind, VoterSample,
};
use rt_gpu_sim::{ByteReader, ByteWriter, CountTable, CountVec, DecodeError};
use std::fmt;

/// A read-only view of one SM's warp buffer, handed to
/// [`Prefetcher::decide`] each cycle.
///
/// Exposes exactly what the paper's voter hardware can see: per-treelet
/// ray counts (global and per warp), the number of resident rays, the
/// mapping mode, and the address translation from treelet ids to cache
/// lines.
pub struct WarpBufferView<'a> {
    mapping: MappingMode,
    resident_rays: u32,
    counts_global: &'a CountTable,
    per_warp: PerWarpVisitor<'a>,
    treelet_lines: &'a dyn Fn(u32) -> &'a [u64],
    meta_line: &'a dyn Fn(u32) -> u64,
}

/// Visits each occupied warp slot's treelet counts in slot order.
pub type PerWarpVisitor<'a> = &'a dyn Fn(&mut dyn FnMut(&CountVec));

impl fmt::Debug for WarpBufferView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WarpBufferView")
            .field("mapping", &self.mapping)
            .field("resident_rays", &self.resident_rays)
            .finish_non_exhaustive()
    }
}

impl<'a> WarpBufferView<'a> {
    /// Assembles a view from the engine's per-SM state.
    ///
    /// `per_warp` visits each occupied warp slot's treelet counts in
    /// slot order; `treelet_lines` and `meta_line` translate a treelet
    /// id to its cache lines under the run's memory layout.
    pub fn new(
        mapping: MappingMode,
        resident_rays: u32,
        counts_global: &'a CountTable,
        per_warp: PerWarpVisitor<'a>,
        treelet_lines: &'a dyn Fn(u32) -> &'a [u64],
        meta_line: &'a dyn Fn(u32) -> u64,
    ) -> Self {
        WarpBufferView {
            mapping,
            resident_rays,
            counts_global,
            per_warp,
            treelet_lines,
            meta_line,
        }
    }

    /// The run's treelet-membership mapping mode.
    pub fn mapping(&self) -> MappingMode {
        self.mapping
    }

    /// Rays currently resident in the warp buffer.
    pub fn resident_rays(&self) -> u32 {
        self.resident_rays
    }

    /// `true` if any resident ray reports a next treelet.
    pub fn has_rays(&self) -> bool {
        !self.counts_global.is_empty()
    }

    /// The cache lines of a treelet's nodes (front first).
    pub fn treelet_lines(&self, treelet: u32) -> &'a [u64] {
        (self.treelet_lines)(treelet)
    }

    /// The mapping-table line that gates a treelet's prefetch.
    pub fn meta_line(&self, treelet: u32) -> u64 {
        (self.meta_line)(treelet)
    }

    /// The ideal full vote over all resident rays (§4.1).
    pub fn full_vote(&self) -> Option<Vote> {
        full_vote_counts(self.counts_global)
    }

    /// The two-level pseudo vote (Fig. 5): each warp elects its own
    /// winner, a second level accumulates the per-warp winners, and the
    /// overall winner's popularity is recomputed exactly.
    pub fn pseudo_vote(&self) -> Option<Vote> {
        let mut second: Vec<(u32, u32)> = Vec::new();
        (self.per_warp)(&mut |warp| {
            if let Some((winner, count)) = warp
                .iter()
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            {
                match second.iter_mut().find(|e| e.0 == winner) {
                    Some(e) => e.1 += count,
                    None => second.push((winner, count)),
                }
            }
        });
        let winner = second
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))?
            .0;
        Some(Vote {
            treelet: winner,
            popularity: self.counts_global.get(winner),
        })
    }
}

/// Samples the warp buffer the way the treelet voter does: `None` when no
/// resident ray reports a treelet, else the resident-ray count, the
/// configured voter's vote and the full vote.
fn voter_sample(voter: VoterKind, view: &WarpBufferView<'_>) -> Option<VoterSample> {
    if !view.has_rays() {
        return None;
    }
    let full = view.full_vote();
    let chosen = match voter {
        VoterKind::Full => full,
        VoterKind::PseudoTwoLevel => view.pseudo_vote(),
    };
    Some(VoterSample {
        resident_rays: view.resident_rays(),
        chosen,
        full,
    })
}

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

/// The contract every RT-unit prefetcher implements.
///
/// Hooks with default no-op bodies are optional: a predictor only
/// overrides the signals it learns from. See the module docs for the
/// cycle-loop order in which the engine calls each hook.
pub trait Prefetcher {
    /// Short lowercase kind name ("treelet", "mta", "ghb").
    fn name(&self) -> &'static str;

    /// Once-per-cycle decision hook with the SM's warp-buffer view.
    fn decide(&mut self, _now: u64, _view: &WarpBufferView<'_>) {}

    /// The memory scheduler issued a demand line for `warp`; `missed`
    /// is `true` when the L1 lookup did not hit.
    fn observe_demand(&mut self, _warp: u32, _line: u64, _missed: bool) {}

    /// Pops the next prefetch to issue, if any.
    fn pop_entry(&mut self) -> Option<PrefetchEntry>;

    /// Returns gated lines to the queue front after their mapping-table
    /// line arrived (treelet mapping modes only).
    fn release_gated(&mut self, _lines: Vec<u64>) {}

    /// Entries waiting in the prefetch queue.
    fn queue_len(&self) -> usize;

    /// The first cycle at or after `now` at which [`Prefetcher::decide`]
    /// would change more than counters, if every call sees the warp
    /// buffer as `view` shows it — an idle-skip wake-up bound. `None`
    /// when no such cycle comes.
    fn next_decision_event(&self, _now: u64, _view: &WarpBufferView<'_>) -> Option<u64> {
        None
    }

    /// Advances the unit as if [`Prefetcher::decide`] ran with `view` at
    /// every cycle in `now..until`. The engine calls it across an idle
    /// skip, only when [`Prefetcher::next_decision_event`] is not before
    /// `until`, so every such call would change only counters.
    fn skip_decisions(&mut self, _now: u64, _until: u64, _view: &WarpBufferView<'_>) {}

    /// The treelet most recently prefetched, if the predictor tracks
    /// one (drives the OMR/PMR schedulers).
    fn last_prefetched_treelet(&self) -> Option<u32> {
        None
    }

    /// Counters accumulated so far.
    fn unit_stats(&self) -> PrefetchUnitStats;

    /// Serializes the predictor's dynamic state for a checkpoint.
    fn encode_state(&self, w: &mut ByteWriter);

    /// Restores state written by [`Prefetcher::encode_state`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] when the bytes are malformed or exceed
    /// the predictor's configured capacities.
    fn restore_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), DecodeError>;
}

impl Prefetcher for TreeletPrefetcher {
    fn name(&self) -> &'static str {
        "treelet"
    }

    fn decide(&mut self, now: u64, view: &WarpBufferView<'_>) {
        let lines = |t: u32| view.treelet_lines(t);
        let meta = |t: u32| view.meta_line(t);
        // Poll unconditionally: it also applies staged decisions whose
        // latency elapsed, which must happen even with no rays resident.
        if !self.poll(now, view.mapping(), lines, meta) {
            return;
        }
        let Some(sample) = voter_sample(self.voter(), view) else {
            return;
        };
        self.set_resident_rays(sample.resident_rays);
        self.submit(now, sample.chosen, sample.full, view.mapping(), lines, meta);
    }

    fn next_decision_event(&self, now: u64, view: &WarpBufferView<'_>) -> Option<u64> {
        let sample = voter_sample(self.voter(), view);
        self.next_enqueue_at(now, sample.as_ref(), view.mapping(), |t| {
            view.treelet_lines(t)
        })
    }

    fn skip_decisions(&mut self, now: u64, until: u64, view: &WarpBufferView<'_>) {
        let sample = voter_sample(self.voter(), view);
        self.skip_idle(now, until, sample.as_ref(), view.mapping(), |t| {
            view.treelet_lines(t)
        });
    }

    fn pop_entry(&mut self) -> Option<PrefetchEntry> {
        self.pop()
    }

    fn release_gated(&mut self, lines: Vec<u64>) {
        TreeletPrefetcher::release_gated(self, lines);
    }

    fn queue_len(&self) -> usize {
        TreeletPrefetcher::queue_len(self)
    }

    fn last_prefetched_treelet(&self) -> Option<u32> {
        self.last_prefetched()
    }

    fn unit_stats(&self) -> PrefetchUnitStats {
        PrefetchUnitStats::Treelet(self.stats())
    }

    fn encode_state(&self, w: &mut ByteWriter) {
        TreeletPrefetcher::encode_state(self, w);
    }

    fn restore_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), DecodeError> {
        TreeletPrefetcher::restore_state(self, r)
    }
}

impl Prefetcher for MtaPrefetcher {
    fn name(&self) -> &'static str {
        "mta"
    }

    fn observe_demand(&mut self, warp: u32, line: u64, _missed: bool) {
        self.observe(warp, line);
    }

    fn pop_entry(&mut self) -> Option<PrefetchEntry> {
        self.pop().map(PrefetchEntry::Line)
    }

    fn queue_len(&self) -> usize {
        MtaPrefetcher::queue_len(self)
    }

    fn unit_stats(&self) -> PrefetchUnitStats {
        PrefetchUnitStats::Mta(self.stats())
    }

    fn encode_state(&self, w: &mut ByteWriter) {
        MtaPrefetcher::encode_state(self, w);
    }

    fn restore_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), DecodeError> {
        MtaPrefetcher::restore_state(self, r)
    }
}

impl Prefetcher for GhbPrefetcher {
    fn name(&self) -> &'static str {
        "ghb"
    }

    fn observe_demand(&mut self, _warp: u32, line: u64, missed: bool) {
        // The GHB trains on the miss stream only (§2.3).
        if missed {
            self.observe(line);
        }
    }

    fn pop_entry(&mut self) -> Option<PrefetchEntry> {
        self.pop().map(PrefetchEntry::Line)
    }

    fn queue_len(&self) -> usize {
        GhbPrefetcher::queue_len(self)
    }

    fn unit_stats(&self) -> PrefetchUnitStats {
        PrefetchUnitStats::Ghb(self.stats())
    }

    fn encode_state(&self, w: &mut ByteWriter) {
        GhbPrefetcher::encode_state(self, w);
    }

    fn restore_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), DecodeError> {
        GhbPrefetcher::restore_state(self, r)
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

macro_rules! delegate {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            PrefetcherUnit::Treelet($p) => $body,
            PrefetcherUnit::Mta($p) => $body,
            PrefetcherUnit::Ghb($p) => $body,
        }
    };
}

impl PrefetcherUnit {
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
}

impl Prefetcher for PrefetcherUnit {
    fn name(&self) -> &'static str {
        delegate!(self, p => p.name())
    }

    fn decide(&mut self, now: u64, view: &WarpBufferView<'_>) {
        delegate!(self, p => p.decide(now, view))
    }

    fn observe_demand(&mut self, warp: u32, line: u64, missed: bool) {
        delegate!(self, p => p.observe_demand(warp, line, missed))
    }

    fn pop_entry(&mut self) -> Option<PrefetchEntry> {
        delegate!(self, p => p.pop_entry())
    }

    fn release_gated(&mut self, lines: Vec<u64>) {
        delegate!(self, p => Prefetcher::release_gated(p, lines))
    }

    fn queue_len(&self) -> usize {
        delegate!(self, p => Prefetcher::queue_len(p))
    }

    fn next_decision_event(&self, now: u64, view: &WarpBufferView<'_>) -> Option<u64> {
        delegate!(self, p => p.next_decision_event(now, view))
    }

    fn skip_decisions(&mut self, now: u64, until: u64, view: &WarpBufferView<'_>) {
        delegate!(self, p => p.skip_decisions(now, until, view))
    }

    fn last_prefetched_treelet(&self) -> Option<u32> {
        delegate!(self, p => p.last_prefetched_treelet())
    }

    fn unit_stats(&self) -> PrefetchUnitStats {
        delegate!(self, p => p.unit_stats())
    }

    fn encode_state(&self, w: &mut ByteWriter) {
        delegate!(self, p => Prefetcher::encode_state(p, w))
    }

    fn restore_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), DecodeError> {
        delegate!(self, p => Prefetcher::restore_state(p, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view_fixture<'a>(
        counts: &'a CountTable,
        per_warp: PerWarpVisitor<'a>,
        lines: &'a dyn Fn(u32) -> &'a [u64],
        meta: &'a dyn Fn(u32) -> u64,
    ) -> WarpBufferView<'a> {
        WarpBufferView::new(MappingMode::Packed, 8, counts, per_warp, lines, meta)
    }

    #[test]
    fn pseudo_vote_matches_the_free_function() {
        let mut a = CountVec::with_capacity(4);
        a.add(1, 3);
        a.add(2, 1);
        let mut b = CountVec::with_capacity(4);
        b.add(2, 2);
        let mut global = CountTable::with_key_capacity(8);
        global.add(1, 3);
        global.add(2, 3);
        let warps = [a, b];
        let per_warp = |f: &mut dyn FnMut(&CountVec)| {
            for w in &warps {
                f(w);
            }
        };
        static NO_LINES: [u64; 0] = [];
        let lines = |_t: u32| NO_LINES.as_slice();
        let meta = |_t: u32| 0u64;
        let view = view_fixture(&global, &per_warp, &lines, &meta);
        let expected = crate::prefetch::pseudo_vote_counts(warps.iter(), &global);
        assert_eq!(view.pseudo_vote(), expected);
        assert_eq!(view.full_vote(), full_vote_counts(&global));
    }

    #[test]
    fn unit_construction_follows_the_config() {
        let base = SimConfig::paper_baseline();
        assert!(PrefetcherUnit::from_config(&base).is_none());
        let names: Vec<&str> = [
            PrefetchConfig::treelet(),
            PrefetchConfig::mta(),
            PrefetchConfig::ghb(),
        ]
        .into_iter()
        .map(|p| {
            let cfg = SimConfig::paper_baseline().with_prefetcher(p);
            PrefetcherUnit::from_config(&cfg).expect("unit").name()
        })
        .collect();
        assert_eq!(names, ["treelet", "mta", "ghb"]);
    }

    #[test]
    fn default_hooks_are_inert() {
        let cfg = SimConfig::paper_baseline().with_prefetcher(PrefetchConfig::mta());
        let mut unit = PrefetcherUnit::from_config(&cfg).expect("unit");
        Prefetcher::release_gated(&mut unit, vec![1]);
        assert_eq!(Prefetcher::queue_len(&unit), 0);
        let mut global = CountTable::with_key_capacity(8);
        global.add(3, 2);
        let mut warp = CountVec::with_capacity(4);
        warp.add(3, 2);
        let per_warp = |f: &mut dyn FnMut(&CountVec)| f(&warp);
        static LINES: [u64; 2] = [64, 128];
        let lines = |_t: u32| LINES.as_slice();
        let meta = |_t: u32| 0u64;
        let view = view_fixture(&global, &per_warp, &lines, &meta);
        assert_eq!(unit.next_decision_event(0, &view), None);
        unit.skip_decisions(0, 100, &view);
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
