//! The hardware treelet prefetcher (paper §4.1–§4.2, §6.5).
//!
//! The prefetcher watches the warp buffer, finds the most popular
//! *next treelet* among resident rays with a majority voter, applies a
//! prefetch heuristic, and pushes the treelet's cache lines into a
//! prefetch queue that drains when the RT unit's memory scheduler is idle.

use rt_gpu_sim::{ByteReader, ByteWriter, CountTable, CountVec, DecodeError};
use std::collections::VecDeque;

/// Majority voter implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VoterKind {
    /// An idealized single-cycle voter over all rays in the warp buffer.
    Full,
    /// The paper's practical two-level pseudo voter: a per-warp first
    /// level followed by a second level over per-warp winners. May
    /// disagree with [`VoterKind::Full`] when no clear majority exists
    /// (Fig. 17).
    PseudoTwoLevel,
}

/// The most popular treelet and how many warp-buffer rays will visit it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vote {
    /// Winning treelet id.
    pub treelet: u32,
    /// Exact number of rays in the buffer whose next treelet matches
    /// (computed by the address comparator + ones counter, Fig. 4).
    pub popularity: u32,
}

/// Computes the full vote from per-treelet ray counts (the simulator's
/// incrementally maintained form of the warp-buffer view).
///
/// The winner is the table's cached maximum (count, then lower treelet
/// id), so this is O(1) on every cycle the leader was not decremented.
pub fn full_vote_counts(global: &CountTable) -> Option<Vote> {
    global.max().map(|(treelet, popularity)| Vote {
        treelet,
        popularity,
    })
}

/// Computes the two-level pseudo vote (Fig. 5) from per-warp treelet
/// counts: each warp elects its own most popular treelet, a second
/// level accumulates the per-warp winners (weighted by their in-warp
/// counts) and picks the overall winner, and the winner's exact
/// popularity comes from the `global` counts (the address comparator).
pub fn pseudo_vote_counts<'a, I>(per_warp: I, global: &CountTable) -> Option<Vote>
where
    I: IntoIterator<Item = &'a CountVec>,
{
    // Per-SM warp counts are tiny (at most one entry per resident warp),
    // so the second level is a linear scan rather than a hashed table.
    let mut second: Vec<(u32, u32)> = Vec::new();
    for warp in per_warp {
        if let Some((winner, count)) = warp.iter().max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        {
            match second.iter_mut().find(|e| e.0 == winner) {
                Some(e) => e.1 += count,
                None => second.push((winner, count)),
            }
        }
    }
    let winner = second
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))?
        .0;
    Some(Vote {
        treelet: winner,
        popularity: global.get(winner),
    })
}

/// Prefetch heuristic (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrefetchHeuristic {
    /// Always prefetch the most popular treelet (unless it equals the
    /// previously prefetched one).
    Always,
    /// Prefetch only when the winner's popularity ratio exceeds the
    /// threshold in `[0, 1]`.
    Popularity(f32),
    /// Prefetch a popularity-proportional prefix of the treelet (upper
    /// levels first — treelets are formed breadth-first).
    Partial,
}

impl std::fmt::Display for PrefetchHeuristic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrefetchHeuristic::Always => write!(f, "ALWAYS"),
            PrefetchHeuristic::Popularity(t) => write!(f, "POPULARITY:{t}"),
            PrefetchHeuristic::Partial => write!(f, "PARTIAL"),
        }
    }
}

/// How the prefetcher learns treelet membership and node addresses
/// (paper §4.4, Fig. 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappingMode {
    /// The BVH is repacked into the treelet layout: treelet identity and
    /// extent come straight from the address bits. No metadata loads.
    Packed,
    /// Unmodified BVH with a node-to-treelet mapping table; the mapping
    /// load is inserted into the prefetch queue ahead of the prefetches
    /// (the paper's optimistic *Loose Wait*).
    LooseWait,
    /// Unmodified BVH with a mapping table; prefetches may only enter the
    /// queue after the mapping load returns (the paper's pessimistic
    /// *Strict Wait*).
    StrictWait,
}

/// One entry of the prefetch queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefetchEntry {
    /// Prefetch one cache line of treelet data.
    Line(u64),
    /// Load a mapping-table entry; under [`MappingMode::StrictWait`] the
    /// dependent lines are released only when this load completes.
    Meta {
        /// Address of the 4-byte mapping-table entry (its cache line).
        addr: u64,
        /// Treelet lines gated on this load (empty under Loose Wait,
        /// where lines are enqueued immediately after the meta entry).
        gated_lines: Vec<u64>,
    },
}

/// One warp-buffer sample of the voter: what [`TreeletPrefetcher::submit`]
/// receives, plus the resident-ray count it sets first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct VoterSample {
    /// Rays resident in the warp buffer.
    pub(crate) resident_rays: u32,
    /// The configured voter's vote.
    pub(crate) chosen: Option<Vote>,
    /// The full vote, for pseudo-voter accuracy.
    pub(crate) full: Option<Vote>,
}

/// What applying a vote does to the prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// The duplicate-treelet register matched (§4.1).
    Duplicate,
    /// The popularity ratio is below the heuristic's threshold.
    BelowThreshold,
    /// The treelet has no lines to fetch.
    NoLines,
    /// The queue cannot hold the treelet's entries.
    QueueFull,
    /// The treelet's first `n` lines enter the queue.
    Enqueue(usize),
}

/// Prefetcher activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetcherStats {
    /// Votes computed.
    pub decisions: u64,
    /// Decisions that passed the heuristic and enqueued a treelet.
    pub treelets_enqueued: u64,
    /// Lines pushed into the prefetch queue.
    pub lines_enqueued: u64,
    /// Decisions suppressed by the duplicate-treelet register.
    pub duplicate_suppressed: u64,
    /// Decisions suppressed by the heuristic threshold.
    pub threshold_suppressed: u64,
    /// Decisions dropped because the queue was full.
    pub queue_full_drops: u64,
    /// Sampling rounds where the pseudo voter agreed with the full voter
    /// (Fig. 17 numerator; only counted when both voters produce a vote).
    pub pseudo_agreements: u64,
    /// Sampling rounds where both voters produced a vote.
    pub pseudo_comparisons: u64,
}

impl PrefetcherStats {
    pub(crate) fn merge(&mut self, other: &PrefetcherStats) {
        self.decisions += other.decisions;
        self.treelets_enqueued += other.treelets_enqueued;
        self.lines_enqueued += other.lines_enqueued;
        self.duplicate_suppressed += other.duplicate_suppressed;
        self.threshold_suppressed += other.threshold_suppressed;
        self.queue_full_drops += other.queue_full_drops;
        self.pseudo_agreements += other.pseudo_agreements;
        self.pseudo_comparisons += other.pseudo_comparisons;
    }

    /// Pseudo-voter decision accuracy (Fig. 17).
    pub fn voter_accuracy(&self) -> f64 {
        if self.pseudo_comparisons == 0 {
            1.0
        } else {
            self.pseudo_agreements as f64 / self.pseudo_comparisons as f64
        }
    }
}

/// The treelet prefetcher attached to one RT unit.
///
/// Each cycle, call [`TreeletPrefetcher::poll`] and, when it asks for a
/// sample, vote over the warp buffer and pass the vote to
/// [`TreeletPrefetcher::submit`]. Pop entries with
/// [`TreeletPrefetcher::pop`] on cycles where the memory scheduler is
/// idle.
#[derive(Debug)]
pub struct TreeletPrefetcher {
    heuristic: PrefetchHeuristic,
    voter: VoterKind,
    /// Cycles per decision and decision staleness (Fig. 16 sweep).
    latency: u64,
    /// Warp-buffer ray capacity (upper bound of the popularity-ratio
    /// denominator).
    max_rays: u32,
    /// Rays currently resident in the warp buffer. The paper divides the
    /// popularity by the buffer's maximum ray count; with the 32×32
    /// workload only a few warps are ever resident, which would make
    /// every threshold unreachable, so the ratio uses the resident count
    /// (clamped to the capacity) — the fraction of present rays that
    /// benefit, which is what the heuristic throttles on.
    resident_rays: u32,
    queue: VecDeque<PrefetchEntry>,
    queue_capacity: usize,
    last_prefetched: Option<u32>,
    /// A decision computed at sample time, applied `latency` cycles later.
    staged: Option<(u64, Vote)>,
    next_sample_at: u64,
    stats: PrefetcherStats,
}

impl TreeletPrefetcher {
    /// Creates a prefetcher.
    ///
    /// `latency` is the majority-voter delay in cycles: decisions are
    /// sampled every `max(latency, 1)` cycles and take effect `latency`
    /// cycles after sampling (0 = idealized single-cycle voter).
    ///
    /// # Panics
    ///
    /// Panics if `max_rays` or `queue_capacity` is zero, or a popularity
    /// threshold is outside `[0, 1]`.
    pub fn new(
        heuristic: PrefetchHeuristic,
        voter: VoterKind,
        latency: u64,
        max_rays: u32,
        queue_capacity: usize,
    ) -> TreeletPrefetcher {
        assert!(max_rays > 0, "warp buffer must hold at least one ray");
        assert!(queue_capacity > 0, "prefetch queue needs capacity");
        if let PrefetchHeuristic::Popularity(t) = heuristic {
            assert!((0.0..=1.0).contains(&t), "threshold must be in [0, 1]");
        }
        TreeletPrefetcher {
            heuristic,
            voter,
            latency,
            max_rays,
            resident_rays: max_rays,
            queue: VecDeque::new(),
            queue_capacity,
            last_prefetched: None,
            staged: None,
            next_sample_at: 0,
            stats: PrefetcherStats::default(),
        }
    }

    /// The treelet most recently enqueued for prefetch (what the OMR/PMR
    /// schedulers match against).
    pub fn last_prefetched(&self) -> Option<u32> {
        self.last_prefetched
    }

    /// Updates the number of rays currently resident in the warp buffer
    /// (the popularity-ratio denominator).
    pub fn set_resident_rays(&mut self, rays: u32) {
        self.resident_rays = rays.max(1);
    }

    /// Samples one SM's warp buffer the way the configured voter reads
    /// it: `None` when no resident ray reports a next treelet, else the
    /// resident-ray count, the voter's vote and the full vote. `global`
    /// counts every resident ray's next treelet; `per_warp` yields each
    /// occupied warp slot's counts in slot order.
    pub(crate) fn sample<'a>(
        &self,
        resident_rays: u32,
        global: &CountTable,
        per_warp: impl IntoIterator<Item = &'a CountVec>,
    ) -> Option<VoterSample> {
        if global.is_empty() {
            return None;
        }
        let full = full_vote_counts(global);
        let chosen = match self.voter {
            VoterKind::Full => full,
            VoterKind::PseudoTwoLevel => pseudo_vote_counts(per_warp, global),
        };
        Some(VoterSample {
            resident_rays,
            chosen,
            full,
        })
    }

    /// Releases any staged decision whose latency has elapsed, and reports
    /// whether the prefetcher wants a fresh warp-buffer sample this cycle.
    ///
    /// When this returns `true`, compute the vote (with
    /// [`full_vote_counts`] / [`pseudo_vote_counts`]) and pass it to
    /// [`TreeletPrefetcher::submit`].
    pub fn poll<F, M, L>(
        &mut self,
        now: u64,
        mapping: MappingMode,
        treelet_lines: F,
        meta_line: M,
    ) -> bool
    where
        F: Fn(u32) -> L,
        M: Fn(u32) -> u64,
        L: AsRef<[u64]>,
    {
        if let Some((ready_at, vote)) = self.staged {
            if now >= ready_at {
                self.staged = None;
                self.apply(vote, mapping, &treelet_lines, &meta_line);
            }
        }
        now >= self.next_sample_at && self.staged.is_none()
    }

    /// Submits a sampled vote at cycle `now`.
    ///
    /// `chosen` is the vote of the configured voter; `full` is the
    /// idealized full vote, supplied (when cheap to compute) to account
    /// pseudo-voter accuracy (Fig. 17).
    pub fn submit<F, M, L>(
        &mut self,
        now: u64,
        chosen: Option<Vote>,
        full: Option<Vote>,
        mapping: MappingMode,
        treelet_lines: F,
        meta_line: M,
    ) where
        F: Fn(u32) -> L,
        M: Fn(u32) -> u64,
        L: AsRef<[u64]>,
    {
        self.next_sample_at = now + self.latency.max(1);
        if self.voter == VoterKind::PseudoTwoLevel {
            if let (Some(p), Some(f)) = (chosen, full) {
                self.stats.pseudo_comparisons += 1;
                if p.treelet == f.treelet {
                    self.stats.pseudo_agreements += 1;
                }
            }
        }
        let Some(vote) = chosen else { return };
        self.stats.decisions += 1;
        if self.latency == 0 {
            self.apply(vote, mapping, &treelet_lines, &meta_line);
        } else {
            self.staged = Some((now + self.latency, vote));
        }
    }

    /// What applying `vote` would do with `resident_rays` rays resident
    /// and a treelet of `line_count` lines.
    fn outcome(
        &self,
        vote: Vote,
        resident_rays: u32,
        line_count: usize,
        mapping: MappingMode,
    ) -> Outcome {
        // Duplicate-treelet register (§4.1): never prefetch the same
        // treelet twice in a row.
        if self.last_prefetched == Some(vote.treelet) {
            return Outcome::Duplicate;
        }
        let denominator = resident_rays.clamp(1, self.max_rays);
        let ratio = vote.popularity as f32 / denominator as f32;
        let take = match self.heuristic {
            PrefetchHeuristic::Always => line_count,
            PrefetchHeuristic::Popularity(threshold) => {
                if ratio < threshold {
                    return Outcome::BelowThreshold;
                }
                line_count
            }
            PrefetchHeuristic::Partial => {
                if line_count == 0 {
                    0
                } else {
                    ((line_count as f32 * ratio).ceil() as usize).clamp(1, line_count)
                }
            }
        };
        if take == 0 {
            return Outcome::NoLines;
        }
        let entries_needed = match mapping {
            MappingMode::Packed => take,
            _ => take + 1,
        };
        if self.queue.len() + entries_needed > self.queue_capacity {
            return Outcome::QueueFull;
        }
        Outcome::Enqueue(take)
    }

    /// Adds `times` occurrences of a counter-only outcome to the stats.
    ///
    /// # Panics
    ///
    /// Panics on [`Outcome::Enqueue`] with `times > 0`: an enqueue
    /// changes the queue, so it is never applied in bulk.
    fn count(&mut self, outcome: Outcome, times: u64) {
        if times == 0 {
            return;
        }
        match outcome {
            Outcome::Duplicate => self.stats.duplicate_suppressed += times,
            Outcome::BelowThreshold => self.stats.threshold_suppressed += times,
            Outcome::QueueFull => self.stats.queue_full_drops += times,
            Outcome::NoLines => {}
            Outcome::Enqueue(_) => unreachable!("an enqueue is an idle-skip event"),
        }
    }

    fn apply<F, M, L>(&mut self, vote: Vote, mapping: MappingMode, treelet_lines: &F, meta_line: &M)
    where
        F: Fn(u32) -> L,
        M: Fn(u32) -> u64,
        L: AsRef<[u64]>,
    {
        let fetched = treelet_lines(vote.treelet);
        let all = fetched.as_ref();
        let take = match self.outcome(vote, self.resident_rays, all.len(), mapping) {
            Outcome::Enqueue(take) => take,
            other => {
                self.count(other, 1);
                return;
            }
        };
        let lines = &all[..take];
        self.stats.treelets_enqueued += 1;
        self.stats.lines_enqueued += lines.len() as u64;
        self.last_prefetched = Some(vote.treelet);
        match mapping {
            MappingMode::Packed => {
                for &l in lines {
                    self.queue.push_back(PrefetchEntry::Line(l));
                }
            }
            MappingMode::LooseWait => {
                // Mapping load rides the queue ahead of the prefetches but
                // nothing waits for it (best case).
                self.queue.push_back(PrefetchEntry::Meta {
                    addr: meta_line(vote.treelet),
                    gated_lines: Vec::new(),
                });
                for &l in lines {
                    self.queue.push_back(PrefetchEntry::Line(l));
                }
            }
            MappingMode::StrictWait => {
                // Prefetches enter the queue only after the mapping load
                // returns (worst case): gate them on the meta entry.
                self.queue.push_back(PrefetchEntry::Meta {
                    addr: meta_line(vote.treelet),
                    gated_lines: lines.to_vec(),
                });
            }
        }
    }

    /// Pops the next prefetch entry (call when the memory scheduler is
    /// idle, per §4.1).
    pub fn pop(&mut self) -> Option<PrefetchEntry> {
        self.queue.pop_front()
    }

    /// Re-inserts lines released by a completed Strict-Wait mapping load,
    /// at the front of the queue.
    pub fn release_gated(&mut self, lines: Vec<u64>) {
        for l in lines.into_iter().rev() {
            self.queue.push_front(PrefetchEntry::Line(l));
        }
    }

    /// Current queue depth.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The first cycle at or after `now` at which polling and sampling
    /// every cycle would enqueue a treelet, if the warp buffer keeps
    /// yielding `sample` (`None` when no rays are resident) — the
    /// idle-skip wake-up bound. `None` when no such cycle comes.
    ///
    /// While the warp buffer is frozen every sample yields the same vote,
    /// and applying it changes only counters until one enqueues: the
    /// duplicate register and the queue change only on an enqueue.
    pub(crate) fn next_enqueue_at<F, L>(
        &self,
        now: u64,
        sample: Option<&VoterSample>,
        mapping: MappingMode,
        treelet_lines: F,
    ) -> Option<u64>
    where
        F: Fn(u32) -> L,
        L: AsRef<[u64]>,
    {
        let enqueues = |vote: Vote, resident_rays: u32| {
            let lines = treelet_lines(vote.treelet).as_ref().len();
            matches!(
                self.outcome(vote, resident_rays, lines, mapping),
                Outcome::Enqueue(_)
            )
        };
        let mut start = now;
        if let Some((ready_at, vote)) = self.staged {
            // The staged vote applies first, before any new sample.
            start = ready_at.max(now);
            if enqueues(vote, self.resident_rays) {
                return Some(start);
            }
        }
        let sample = sample?;
        let vote = sample.chosen?;
        let first = start.max(self.next_sample_at);
        enqueues(vote, sample.resident_rays.max(1)).then_some(first + self.latency)
    }

    /// Advances the prefetcher as if it polled and sampled `sample` at
    /// every cycle in `now..until`, in closed form: the counters,
    /// `next_sample_at`, the resident-ray count and the staged vote end
    /// as the cycle-by-cycle calls leave them.
    ///
    /// # Panics
    ///
    /// Panics if a decision in the range would enqueue, i.e. if `until`
    /// is past [`TreeletPrefetcher::next_enqueue_at`].
    pub(crate) fn skip_idle<F, L>(
        &mut self,
        now: u64,
        until: u64,
        sample: Option<&VoterSample>,
        mapping: MappingMode,
        treelet_lines: F,
    ) where
        F: Fn(u32) -> L,
        L: AsRef<[u64]>,
    {
        let line_count = |t: u32| treelet_lines(t).as_ref().len();
        let mut start = now;
        if let Some((ready_at, vote)) = self.staged {
            start = ready_at.max(now);
            if start >= until {
                // The staged vote blocks sampling until it applies.
                return;
            }
            let outcome = self.outcome(vote, self.resident_rays, line_count(vote.treelet), mapping);
            self.count(outcome, 1);
            self.staged = None;
        }
        let Some(sample) = sample else { return };
        let first = start.max(self.next_sample_at);
        if first >= until {
            return;
        }
        // Samples at first, first + step, ... below `until`; with a
        // latency, each sample after the first applies the previous one.
        let step = self.latency.max(1);
        let samples = (until - first).div_ceil(step);
        let last = first + (samples - 1) * step;
        self.set_resident_rays(sample.resident_rays);
        self.next_sample_at = last + step;
        if self.voter == VoterKind::PseudoTwoLevel {
            if let (Some(p), Some(f)) = (sample.chosen, sample.full) {
                self.stats.pseudo_comparisons += samples;
                if p.treelet == f.treelet {
                    self.stats.pseudo_agreements += samples;
                }
            }
        }
        let Some(vote) = sample.chosen else { return };
        self.stats.decisions += samples;
        let outcome = self.outcome(vote, self.resident_rays, line_count(vote.treelet), mapping);
        if self.latency == 0 {
            self.count(outcome, samples);
        } else {
            self.count(outcome, samples - 1);
            self.staged = Some((last + self.latency, vote));
        }
    }

    /// Activity counters.
    pub fn stats(&self) -> PrefetcherStats {
        self.stats
    }

    /// Serializes the dynamic prefetcher state (the configuration fields
    /// are rebuilt from [`SimConfig`](crate::SimConfig) at resume).
    pub(crate) fn encode_state(&self, w: &mut ByteWriter) {
        w.put_u32(self.resident_rays);
        w.put_len(self.queue.len());
        for entry in &self.queue {
            encode_prefetch_entry(entry, w);
        }
        match self.last_prefetched {
            None => w.put_bool(false),
            Some(t) => {
                w.put_bool(true);
                w.put_u32(t);
            }
        }
        match self.staged {
            None => w.put_bool(false),
            Some((ready_at, vote)) => {
                w.put_bool(true);
                w.put_u64(ready_at);
                w.put_u32(vote.treelet);
                w.put_u32(vote.popularity);
            }
        }
        w.put_u64(self.next_sample_at);
        for v in [
            self.stats.decisions,
            self.stats.treelets_enqueued,
            self.stats.lines_enqueued,
            self.stats.duplicate_suppressed,
            self.stats.threshold_suppressed,
            self.stats.queue_full_drops,
            self.stats.pseudo_agreements,
            self.stats.pseudo_comparisons,
        ] {
            w.put_u64(v);
        }
    }

    /// Restores dynamic state captured by
    /// [`TreeletPrefetcher::encode_state`] onto a freshly constructed
    /// prefetcher (same configuration).
    pub(crate) fn restore_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), DecodeError> {
        self.resident_rays = r.take_u32()?;
        let n = r.take_len(9)?;
        self.queue = VecDeque::with_capacity(n);
        for _ in 0..n {
            let entry = decode_prefetch_entry(r)?;
            self.queue.push_back(entry);
        }
        self.last_prefetched = if r.take_bool()? {
            Some(r.take_u32()?)
        } else {
            None
        };
        self.staged = if r.take_bool()? {
            let ready_at = r.take_u64()?;
            let treelet = r.take_u32()?;
            let popularity = r.take_u32()?;
            Some((
                ready_at,
                Vote {
                    treelet,
                    popularity,
                },
            ))
        } else {
            None
        };
        self.next_sample_at = r.take_u64()?;
        self.stats = PrefetcherStats {
            decisions: r.take_u64()?,
            treelets_enqueued: r.take_u64()?,
            lines_enqueued: r.take_u64()?,
            duplicate_suppressed: r.take_u64()?,
            threshold_suppressed: r.take_u64()?,
            queue_full_drops: r.take_u64()?,
            pseudo_agreements: r.take_u64()?,
            pseudo_comparisons: r.take_u64()?,
        };
        Ok(())
    }
}

fn encode_prefetch_entry(entry: &PrefetchEntry, w: &mut ByteWriter) {
    match entry {
        PrefetchEntry::Line(addr) => {
            w.put_u8(0);
            w.put_u64(*addr);
        }
        PrefetchEntry::Meta { addr, gated_lines } => {
            w.put_u8(1);
            w.put_u64(*addr);
            w.put_len(gated_lines.len());
            for &line in gated_lines {
                w.put_u64(line);
            }
        }
    }
}

fn decode_prefetch_entry(r: &mut ByteReader<'_>) -> Result<PrefetchEntry, DecodeError> {
    match r.take_u8()? {
        0 => Ok(PrefetchEntry::Line(r.take_u64()?)),
        1 => {
            let addr = r.take_u64()?;
            let n = r.take_len(8)?;
            let mut gated_lines = Vec::with_capacity(n);
            for _ in 0..n {
                gated_lines.push(r.take_u64()?);
            }
            Ok(PrefetchEntry::Meta { addr, gated_lines })
        }
        t => Err(DecodeError::malformed(format!(
            "unknown prefetch entry tag {t}"
        ))),
    }
}

/// Storage/area arithmetic of the two-level pseudo majority voter
/// (paper §6.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoterAreaModel {
    /// First-level entries (one per thread of a warp).
    pub first_level_entries: u32,
    /// Second-level entries (one per warp-buffer slot).
    pub second_level_entries: u32,
    /// Treelet address bits (512-byte-aligned roots need 23 bits).
    pub address_bits: u32,
}

impl VoterAreaModel {
    /// The paper's parameters: 32-entry first level, 16-entry second
    /// level, 23-bit treelet addresses.
    pub fn paper_default() -> Self {
        VoterAreaModel {
            first_level_entries: 32,
            second_level_entries: 16,
            address_bits: 23,
        }
    }

    /// Count-field bits of a table: enough to count its entries, with the
    /// early-majority optimization (a count over half the table size
    /// immediately wins, so `ceil(log2(entries)) - 1` bits suffice... the
    /// paper uses 4 bits for 32 entries and 3 for 16).
    fn count_bits(entries: u32) -> u32 {
        32 - (entries - 1).leading_zeros() - 1
    }

    /// First-level table storage in bytes (the paper's 108 B).
    pub fn first_level_table_bytes(&self) -> u32 {
        let bits = self.first_level_entries
            * (self.address_bits + Self::count_bits(self.first_level_entries));
        bits.div_ceil(8)
    }

    /// Second-level table storage in bytes (the paper's 52 B).
    pub fn second_level_table_bytes(&self) -> u32 {
        let bits = self.second_level_entries
            * (self.address_bits + Self::count_bits(self.second_level_entries));
        bits.div_ceil(8)
    }

    /// Synthesized area of the voter's sequential logic in µm²
    /// (FreePDK45, the paper's 461 µm²).
    pub fn sequential_area_um2(&self) -> f64 {
        461.0
    }

    /// Voter latency in cycles for a given number of replicated
    /// first-level tables: with one table the voter counts one thread per
    /// cycle over the whole buffer (512 cycles); replication divides it.
    ///
    /// # Panics
    ///
    /// Panics if `first_level_tables` is zero.
    pub fn latency_cycles(&self, first_level_tables: u32) -> u64 {
        assert!(first_level_tables > 0, "need at least one table");
        let total_threads = self.first_level_entries * self.second_level_entries;
        (total_threads / first_level_tables.min(self.second_level_entries)) as u64
    }
}

/// Per-prefetch usefulness in the paper's timeliness taxonomy (Fig. 10):
/// *useful* prefetches land before the demand access, *late* ones are
/// still in flight when the demand arrives (the demand sees at best a
/// partial latency saving), and *useless* ones are evicted — or the run
/// ends — without ever being touched by a demand access.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchUsefulness {
    /// Prefetches that completed before their first demand access.
    pub useful: u64,
    /// Prefetches whose demand access arrived while the fill was still
    /// in flight.
    pub late: u64,
    /// Prefetches evicted (or left behind at end of run) untouched.
    pub useless: u64,
}

impl PrefetchUsefulness {
    /// Folds the cache model's five-way timeliness counters
    /// ([`PrefetchEffect`](rt_gpu_sim::PrefetchEffect)) into the paper's
    /// three-way taxonomy: `timely` fills are useful; `late` and
    /// `too_late` fills both mean the demand arrived first; `early`
    /// (evicted before use) and `unused` fills are useless.
    pub fn from_effect(e: &rt_gpu_sim::PrefetchEffect) -> PrefetchUsefulness {
        PrefetchUsefulness {
            useful: e.timely,
            late: e.late + e.too_late,
            useless: e.early + e.unused,
        }
    }

    /// Total classified prefetches.
    pub fn total(&self) -> u64 {
        self.useful + self.late + self.useless
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The list-based voters: the reference the engine's counts-based
    // voters (`full_vote_counts`, `pseudo_vote_counts`) are checked
    // against.

    /// Computes the idealized full vote: the exact mode over every ray's next
    /// treelet. Returns `None` when no ray is resident.
    fn full_vote(warps: &[Vec<u32>]) -> Option<Vote> {
        let mut counts = std::collections::HashMap::new();
        for w in warps {
            for &t in w {
                *counts.entry(t).or_insert(0u32) += 1;
            }
        }
        // Deterministic tie-break: lowest treelet id.
        counts
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(treelet, popularity)| Vote {
                treelet,
                popularity,
            })
    }

    /// Computes the two-level pseudo vote (Fig. 5): each warp elects its own
    /// most popular treelet with a 32-entry table, then a 16-entry second
    /// level accumulates the per-warp winners (weighted by their in-warp
    /// counts) and picks the overall winner. The exact popularity of the
    /// winner is then recomputed by the address comparator.
    fn pseudo_vote(warps: &[Vec<u32>]) -> Option<Vote> {
        let mut second = std::collections::HashMap::new();
        for w in warps {
            let mut first = std::collections::HashMap::new();
            for &t in w {
                *first.entry(t).or_insert(0u32) += 1;
            }
            if let Some((winner, count)) = first
                .into_iter()
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            {
                *second.entry(winner).or_insert(0u32) += count;
            }
        }
        let winner = second
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))?
            .0;
        // The popularity tracker compares the winner to every ray (exact).
        let popularity = warps
            .iter()
            .flat_map(|w| w.iter())
            .filter(|&&t| t == winner)
            .count() as u32;
        Some(Vote {
            treelet: winner,
            popularity,
        })
    }

    impl TreeletPrefetcher {
        /// Runs the complete sample-vote-apply pipeline for cycle `now` from a
        /// warp-buffer view (the list-based convenience form of
        /// [`TreeletPrefetcher::poll`] + [`TreeletPrefetcher::submit`]).
        ///
        /// `warp_treelets[w]` lists the next treelet of each active ray of
        /// warp-buffer entry `w`. `treelet_lines(t)` returns treelet `t`'s
        /// cache lines front-to-back, and `meta_line(t)` the line of its
        /// mapping-table entry (consulted for the Loose/Strict Wait modes).
        fn maybe_decide<F, M, L>(
            &mut self,
            now: u64,
            warp_treelets: &[Vec<u32>],
            mapping: MappingMode,
            treelet_lines: F,
            meta_line: M,
        ) where
            F: Fn(u32) -> L,
            M: Fn(u32) -> u64,
            L: AsRef<[u64]>,
        {
            if !self.poll(now, mapping, &treelet_lines, &meta_line) {
                return;
            }
            let full = full_vote(warp_treelets);
            let chosen = match self.voter {
                VoterKind::Full => full,
                VoterKind::PseudoTwoLevel => pseudo_vote(warp_treelets),
            };
            self.submit(now, chosen, full, mapping, treelet_lines, meta_line);
        }
    }

    fn lines_of(t: u32) -> Vec<u64> {
        (0..8).map(|i| (t as u64) * 512 + i * 64).collect()
    }

    fn meta_of(t: u32) -> u64 {
        0x9000_0000 + (t as u64) * 4 / 64 * 64
    }

    #[test]
    fn full_vote_finds_mode() {
        let warps = vec![vec![1, 1, 2], vec![2, 2, 2]];
        let v = full_vote(&warps).unwrap();
        assert_eq!(v.treelet, 2);
        assert_eq!(v.popularity, 4);
    }

    #[test]
    fn full_vote_empty_is_none() {
        assert_eq!(full_vote(&[]), None);
        assert_eq!(full_vote(&[vec![], vec![]]), None);
    }

    #[test]
    fn full_vote_tie_breaks_to_lower_id() {
        let warps = vec![vec![3, 3, 7, 7]];
        assert_eq!(full_vote(&warps).unwrap().treelet, 3);
    }

    #[test]
    fn pseudo_vote_matches_full_on_clear_majority() {
        let warps = vec![vec![5; 10], vec![5; 8], vec![1, 2, 3]];
        let p = pseudo_vote(&warps).unwrap();
        let f = full_vote(&warps).unwrap();
        assert_eq!(p.treelet, f.treelet);
        assert_eq!(p.popularity, 18);
    }

    #[test]
    fn counts_based_votes_match_list_based() {
        use rt_rng::prop::forall;
        use rt_rng::Rng;
        forall("counts_based_votes_match_list_based", 512, |rng| {
            // Few treelet ids, so ties are common, both within a warp and
            // between the per-warp winners.
            let keys = rng.gen_range(1..6u32);
            let warps: Vec<Vec<u32>> = (0..rng.gen_range(0..6usize))
                .map(|_| {
                    (0..rng.gen_range(0..10usize))
                        .map(|_| rng.gen_range(0..keys))
                        .collect()
                })
                .collect();
            // Build the counts the way the engine keeps them: rays arrive
            // in any order across warps, and transient rays arrive and
            // leave again, so some keys are decremented back to zero.
            let mut arrivals: Vec<(usize, u32, bool)> = Vec::new();
            for (w, list) in warps.iter().enumerate() {
                arrivals.extend(list.iter().map(|&t| (w, t, false)));
                for _ in 0..rng.gen_range(0..4usize) {
                    arrivals.push((w, rng.gen_range(0..keys), true));
                }
            }
            let mut departures: Vec<(usize, u32)> = Vec::new();
            let mut global = CountTable::default();
            let mut per_warp = vec![CountVec::default(); warps.len()];
            while !arrivals.is_empty() || !departures.is_empty() {
                let leave = !departures.is_empty() && (arrivals.is_empty() || rng.gen_bool(0.3));
                if leave {
                    let (w, t) = departures.swap_remove(rng.gen_range(0..departures.len()));
                    per_warp[w].decrement(t);
                    global.decrement(t);
                } else {
                    let (w, t, transient) = arrivals.swap_remove(rng.gen_range(0..arrivals.len()));
                    per_warp[w].increment(t);
                    global.increment(t);
                    if transient {
                        departures.push((w, t));
                    }
                }
                // Query mid-history too: the table caches its leader.
                if rng.gen_bool(0.25) {
                    full_vote_counts(&global);
                }
            }
            assert_eq!(full_vote(&warps), full_vote_counts(&global));
            assert_eq!(
                pseudo_vote(&warps),
                pseudo_vote_counts(per_warp.iter(), &global)
            );
        });
    }

    #[test]
    fn counts_votes_ignore_zero_entries() {
        // A key whose count returned to zero must not win a vote.
        let mut global = CountTable::default();
        global.increment(5);
        global.decrement(5);
        assert_eq!(full_vote_counts(&global), None);
        let mut warp = CountVec::default();
        warp.increment(5);
        warp.decrement(5);
        assert_eq!(pseudo_vote_counts([&warp], &global), None);
    }

    #[test]
    fn pseudo_vote_can_disagree_without_majority() {
        // Treelet 9 is globally most common (6 rays) but never wins a
        // warp; each warp's winner is unique. The pseudo voter picks one
        // of the per-warp winners.
        let warps = vec![
            vec![1, 1, 1, 9, 9],
            vec![2, 2, 2, 9, 9],
            vec![3, 3, 3, 9, 9],
        ];
        let f = full_vote(&warps).unwrap();
        assert_eq!(f.treelet, 9);
        let p = pseudo_vote(&warps).unwrap();
        assert_ne!(p.treelet, 9);
    }

    fn prefetcher(h: PrefetchHeuristic) -> TreeletPrefetcher {
        TreeletPrefetcher::new(h, VoterKind::Full, 0, 512, 64)
    }

    #[test]
    fn always_enqueues_winning_treelet_lines() {
        let mut p = prefetcher(PrefetchHeuristic::Always);
        let warps = vec![vec![4, 4, 4]];
        p.maybe_decide(0, &warps, MappingMode::Packed, lines_of, meta_of);
        assert_eq!(p.queue_len(), 8);
        assert_eq!(p.pop(), Some(PrefetchEntry::Line(4 * 512)));
        assert_eq!(p.last_prefetched(), Some(4));
        assert_eq!(p.stats().treelets_enqueued, 1);
    }

    #[test]
    fn duplicate_treelet_suppressed() {
        let mut p = prefetcher(PrefetchHeuristic::Always);
        let warps = vec![vec![4, 4]];
        p.maybe_decide(0, &warps, MappingMode::Packed, lines_of, meta_of);
        p.maybe_decide(1, &warps, MappingMode::Packed, lines_of, meta_of);
        assert_eq!(p.stats().duplicate_suppressed, 1);
        assert_eq!(p.queue_len(), 8); // only one treelet's worth
    }

    #[test]
    fn popularity_threshold_gates() {
        let mut p = TreeletPrefetcher::new(
            PrefetchHeuristic::Popularity(0.5),
            VoterKind::Full,
            0,
            8, // max rays
            64,
        );
        // 3 of 8 rays -> ratio 0.375 < 0.5: suppressed.
        p.maybe_decide(0, &[vec![4, 4, 4]], MappingMode::Packed, lines_of, meta_of);
        assert_eq!(p.queue_len(), 0);
        assert_eq!(p.stats().threshold_suppressed, 1);
        // 5 of 8 -> passes.
        p.maybe_decide(1, &[vec![4; 5]], MappingMode::Packed, lines_of, meta_of);
        assert_eq!(p.queue_len(), 8);
    }

    #[test]
    fn partial_prefetches_popularity_fraction_from_front() {
        let mut p = TreeletPrefetcher::new(PrefetchHeuristic::Partial, VoterKind::Full, 0, 16, 64);
        // 8 of 16 rays -> half the treelet (4 of 8 lines), front first.
        p.maybe_decide(0, &[vec![4; 8]], MappingMode::Packed, lines_of, meta_of);
        assert_eq!(p.queue_len(), 4);
        assert_eq!(p.pop(), Some(PrefetchEntry::Line(4 * 512)));
    }

    #[test]
    fn loose_wait_prepends_meta_load() {
        let mut p = prefetcher(PrefetchHeuristic::Always);
        p.maybe_decide(0, &[vec![4, 4]], MappingMode::LooseWait, lines_of, meta_of);
        assert_eq!(p.queue_len(), 9);
        match p.pop().unwrap() {
            PrefetchEntry::Meta { gated_lines, .. } => assert!(gated_lines.is_empty()),
            other => panic!("expected meta first, got {other:?}"),
        }
    }

    #[test]
    fn strict_wait_gates_lines_on_meta() {
        let mut p = prefetcher(PrefetchHeuristic::Always);
        p.maybe_decide(0, &[vec![4, 4]], MappingMode::StrictWait, lines_of, meta_of);
        assert_eq!(p.queue_len(), 1);
        let entry = p.pop().unwrap();
        match entry {
            PrefetchEntry::Meta { gated_lines, .. } => {
                assert_eq!(gated_lines.len(), 8);
                p.release_gated(gated_lines);
                assert_eq!(p.queue_len(), 8);
                assert_eq!(p.pop(), Some(PrefetchEntry::Line(4 * 512)));
            }
            other => panic!("expected gated meta, got {other:?}"),
        }
    }

    #[test]
    fn latency_stages_decisions() {
        let mut p = TreeletPrefetcher::new(PrefetchHeuristic::Always, VoterKind::Full, 32, 512, 64);
        let warps = vec![vec![4, 4]];
        p.maybe_decide(0, &warps, MappingMode::Packed, lines_of, meta_of);
        assert_eq!(p.queue_len(), 0, "decision must not apply before latency");
        for t in 1..32 {
            p.maybe_decide(t, &warps, MappingMode::Packed, lines_of, meta_of);
        }
        assert_eq!(p.queue_len(), 0);
        p.maybe_decide(32, &warps, MappingMode::Packed, lines_of, meta_of);
        assert_eq!(p.queue_len(), 8);
    }

    #[test]
    fn queue_capacity_drops_decisions() {
        let mut p = TreeletPrefetcher::new(
            PrefetchHeuristic::Always,
            VoterKind::Full,
            0,
            512,
            10, // fits one treelet (8 lines) but not two
        );
        p.maybe_decide(0, &[vec![4, 4]], MappingMode::Packed, lines_of, meta_of);
        p.maybe_decide(1, &[vec![5, 5]], MappingMode::Packed, lines_of, meta_of);
        assert_eq!(p.stats().queue_full_drops, 1);
        assert_eq!(p.queue_len(), 8);
    }

    #[test]
    fn pseudo_accuracy_tracked() {
        let mut p = TreeletPrefetcher::new(
            PrefetchHeuristic::Always,
            VoterKind::PseudoTwoLevel,
            0,
            512,
            64,
        );
        p.maybe_decide(0, &[vec![4, 4]], MappingMode::Packed, lines_of, meta_of);
        let s = p.stats();
        assert_eq!(s.pseudo_comparisons, 1);
        assert_eq!(s.pseudo_agreements, 1);
        assert!((s.voter_accuracy() - 1.0).abs() < 1e-9);
    }

    /// Treelet 3 has no lines; the rest have 8.
    fn lines_or_none(t: u32) -> Vec<u64> {
        if t == 3 {
            Vec::new()
        } else {
            lines_of(t)
        }
    }

    /// One cycle of `decide` with a fixed warp-buffer sample.
    fn step(
        p: &mut TreeletPrefetcher,
        now: u64,
        sample: Option<&VoterSample>,
        mapping: MappingMode,
    ) {
        if p.poll(now, mapping, lines_or_none, meta_of) {
            if let Some(s) = sample {
                p.set_resident_rays(s.resident_rays);
                p.submit(now, s.chosen, s.full, mapping, lines_or_none, meta_of);
            }
        }
    }

    #[test]
    fn idle_skip_matches_cycle_by_cycle_decisions() {
        use rt_rng::prop::forall;
        use rt_rng::Rng;
        let vote = |rng: &mut rt_rng::SmallRng| Vote {
            treelet: rng.gen_range(0..4u32),
            popularity: rng.gen_range(1..17u32),
        };
        forall("idle_skip_matches_cycle_by_cycle_decisions", 512, |rng| {
            let heuristic = match rng.gen_range(0..3u32) {
                0 => PrefetchHeuristic::Always,
                1 => PrefetchHeuristic::Popularity(0.5),
                _ => PrefetchHeuristic::Partial,
            };
            let voter = if rng.gen_bool(0.5) {
                VoterKind::Full
            } else {
                VoterKind::PseudoTwoLevel
            };
            let latency = [0, 1, 3, 7][rng.gen_range(0..4usize)];
            let capacity = [8, 12, 64][rng.gen_range(0..3usize)];
            let mapping = [
                MappingMode::Packed,
                MappingMode::LooseWait,
                MappingMode::StrictWait,
            ][rng.gen_range(0..3usize)];
            // A random history before the idle stretch, so the stretch may
            // start with a staged vote, a duplicate register and any
            // resident-ray count; the queue then drains, as idle requires.
            let history: Vec<(u32, Vote, Vote)> = (0..rng.gen_range(0..6usize))
                .map(|_| (rng.gen_range(1..17u32), vote(rng), vote(rng)))
                .collect();
            let fresh = || {
                let mut p = TreeletPrefetcher::new(heuristic, voter, latency, 16, capacity);
                for (c, &(rays, chosen, full)) in history.iter().enumerate() {
                    let sample = VoterSample {
                        resident_rays: rays,
                        chosen: Some(chosen),
                        full: Some(full),
                    };
                    step(&mut p, c as u64, Some(&sample), mapping);
                }
                while p.pop().is_some() {}
                p
            };
            let now = history.len() as u64;
            let sample = rng.gen_bool(0.8).then(|| {
                let full = vote(rng);
                VoterSample {
                    resident_rays: rng.gen_range(1..17u32),
                    chosen: Some(if rng.gen_bool(0.5) { full } else { vote(rng) }),
                    full: Some(full),
                }
            });
            let horizon = now + 40;

            // The first enqueue, cycle by cycle, against the prediction.
            let mut reference = fresh();
            let event = (now..horizon).find(|&c| {
                step(&mut reference, c, sample.as_ref(), mapping);
                reference.queue_len() > 0
            });
            let skipper = fresh();
            let predicted = skipper.next_enqueue_at(now, sample.as_ref(), mapping, lines_or_none);
            assert_eq!(predicted.filter(|&c| c < horizon), event);

            // Any skip up to the event leaves the same state as stepping.
            let until = rng.gen_range(now..event.unwrap_or(horizon) + 1);
            let mut reference = fresh();
            for c in now..until {
                step(&mut reference, c, sample.as_ref(), mapping);
            }
            let mut skipper = fresh();
            skipper.skip_idle(now, until, sample.as_ref(), mapping, lines_or_none);
            assert_eq!(skipper.stats(), reference.stats());
            assert_eq!(skipper.staged, reference.staged);
            assert_eq!(skipper.next_sample_at, reference.next_sample_at);
            assert_eq!(skipper.resident_rays, reference.resident_rays);
            assert_eq!(skipper.last_prefetched, reference.last_prefetched);
            assert_eq!(skipper.queue_len(), 0);
            assert_eq!(reference.queue_len(), 0);
        });
    }

    #[test]
    fn area_model_matches_paper_numbers() {
        let m = VoterAreaModel::paper_default();
        assert_eq!(m.first_level_table_bytes(), 108);
        assert_eq!(m.second_level_table_bytes(), 52);
        assert_eq!(m.sequential_area_um2(), 461.0);
        // 1 first-level table -> 512-cycle voter; 16 tables -> 32 cycles;
        // 4 tables -> 128 cycles (all from §6.5).
        assert_eq!(m.latency_cycles(1), 512);
        assert_eq!(m.latency_cycles(4), 128);
        assert_eq!(m.latency_cycles(16), 32);
    }

    #[test]
    #[should_panic(expected = "threshold must be in")]
    fn invalid_threshold_panics() {
        let _ = TreeletPrefetcher::new(
            PrefetchHeuristic::Popularity(1.5),
            VoterKind::Full,
            0,
            512,
            64,
        );
    }

    #[test]
    fn taxonomy_folds_the_cache_effect_counters() {
        let e = rt_gpu_sim::PrefetchEffect {
            too_late: 2,
            late: 3,
            timely: 5,
            early: 7,
            unused: 11,
        };
        let u = PrefetchUsefulness::from_effect(&e);
        assert_eq!(u.useful, 5);
        assert_eq!(u.late, 5);
        assert_eq!(u.useless, 18);
        assert_eq!(u.total(), e.total());
    }
}
