//! Cycle-level cache model with MSHRs, LRU replacement, and
//! prefetch-provenance tracking.
//!
//! The cache distinguishes lines brought in by demand loads from lines
//! brought in by prefetches so the simulator can reproduce the paper's
//! L1 breakdown (Fig. 12) and prefetch-effectiveness classification
//! (Fig. 20).
//!
//! Storage is organization-specific (see [`Storage`]): the fully
//! associative L1 keeps its resident lines in a slot arena linked in
//! `last_use` order, so a touch, a fill and an eviction are O(1), while
//! the set-associative L2 holds its lines directly in per-set way
//! arrays — a probe is a set-index computation plus a ≤`ways`-entry
//! scan, with no hashing at all.

use crate::codec::{ByteReader, ByteWriter, DecodeError};
use crate::table::{FxHashMap, FxHashSet};
use std::collections::hash_map::Entry;

/// Who caused a line to be (or be being) fetched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FillOrigin {
    /// An ordinary demand load.
    Demand,
    /// The treelet (or comparison) prefetcher.
    Prefetch,
}

pub(crate) fn encode_origin(origin: FillOrigin, w: &mut ByteWriter) {
    w.put_u8(match origin {
        FillOrigin::Demand => 0,
        FillOrigin::Prefetch => 1,
    });
}

pub(crate) fn decode_origin(r: &mut ByteReader<'_>) -> Result<FillOrigin, DecodeError> {
    match r.take_u8()? {
        0 => Ok(FillOrigin::Demand),
        1 => Ok(FillOrigin::Prefetch),
        t => Err(DecodeError::malformed(format!(
            "unknown fill origin tag {t}"
        ))),
    }
}

/// Outcome of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// The line is resident; `filled_by_prefetch` reports its provenance
    /// at the time of the hit.
    Hit {
        /// `true` if the line was brought in by a prefetch and this is a
        /// demand read of prefetched data.
        filled_by_prefetch: bool,
    },
    /// The line is being fetched already; the access is merged into the
    /// existing MSHR entry.
    PendingHit,
    /// The line is absent; a new MSHR entry was allocated and the caller
    /// must forward the request upstream.
    Miss,
    /// The line is absent and no MSHR entry is available; the caller must
    /// retry later.
    NoMshr,
}

/// Replacement organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Organization {
    /// One set holding `lines` ways (the paper's fully associative L1).
    FullyAssociative,
    /// `sets` sets of `ways` lines each (the paper's 16-way L2).
    SetAssociative {
        /// Number of sets; the set index is `(addr / line) % sets`.
        sets: u64,
    },
}

/// Classification counters for prefetch effectiveness (paper Fig. 20).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchEffect {
    /// Prefetch found the line already present or pending from a demand
    /// load.
    pub too_late: u64,
    /// A demand load merged with an in-flight prefetch (pending hit on a
    /// prefetch).
    pub late: u64,
    /// A demand load hit a resident line brought in by a prefetch.
    pub timely: u64,
    /// The prefetched line was evicted unread and later demanded again.
    pub early: u64,
    /// Prefetched lines never read by any demand load.
    pub unused: u64,
}

impl PrefetchEffect {
    /// Total classified prefetches.
    pub fn total(&self) -> u64 {
        self.too_late + self.late + self.timely + self.early + self.unused
    }
}

/// Demand access counters (paper Fig. 12 breakdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand hits on lines brought in by prefetches.
    pub demand_hits_on_prefetch: u64,
    /// Demand hits on lines brought in by demand loads.
    pub demand_hits_on_demand: u64,
    /// Demand accesses merged into an in-flight fetch.
    pub demand_pending_hits: u64,
    /// Demand misses that allocated an MSHR.
    pub demand_misses: u64,
    /// Prefetch probes issued to this cache.
    pub prefetch_probes: u64,
    /// Prefetch probes that allocated an MSHR (actual prefetch fills
    /// requested upstream).
    pub prefetch_misses: u64,
    /// Accesses rejected because the MSHR file was full.
    pub mshr_rejections: u64,
    /// Lines evicted.
    pub evictions: u64,
}

impl CacheStats {
    /// All demand accesses that probed the cache.
    pub fn demand_accesses(&self) -> u64 {
        self.demand_hits_on_prefetch
            + self.demand_hits_on_demand
            + self.demand_pending_hits
            + self.demand_misses
    }

    /// Demand hit rate (hits / accesses), zero when idle.
    pub fn demand_hit_rate(&self) -> f64 {
        let total = self.demand_accesses();
        if total == 0 {
            return 0.0;
        }
        (self.demand_hits_on_prefetch + self.demand_hits_on_demand) as f64 / total as f64
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    last_use: u64,
    origin: FillOrigin,
    /// For prefetched lines: has any demand load read it yet?
    read_by_demand: bool,
}

#[derive(Debug)]
struct MshrEntry {
    origin: FillOrigin,
    /// Set when a demand access merged with an in-flight prefetch (used to
    /// classify the prefetch as Late on fill).
    demand_merged: bool,
    /// The fetch went upstream (the L2's DRAM send); set by the memory
    /// system.
    sent: bool,
    /// Who waits for the line, in arrival order: request ids at an L1,
    /// SM indices at the L2. The memory system records them and the fill
    /// hands them back.
    waiters: Vec<u64>,
}

/// The MSHR file: a slab of entries and a line → slot index.
///
/// A slot freed by a fill is reused by a later miss, and its waiter list
/// keeps its capacity, so a miss allocates nothing once as many lines
/// have been pending at once as ever will be. A probe hands out the slot
/// of the entry it found or allocated, so the caller records a waiter
/// without a second lookup.
#[derive(Debug, Default)]
struct Mshrs {
    index: FxHashMap<u64, usize>,
    entries: Vec<MshrEntry>,
    free: Vec<usize>,
}

impl Mshrs {
    fn len(&self) -> usize {
        self.index.len()
    }

    fn slot(&self, line: u64) -> Option<usize> {
        self.index.get(&line).copied()
    }

    /// Allocates an entry for `line`, which must have none, and returns
    /// its slot.
    fn insert(&mut self, line: u64, origin: FillOrigin) -> usize {
        let slot = Mshrs::alloc(&mut self.entries, &mut self.free, origin);
        let previous = self.index.insert(line, slot);
        debug_assert!(previous.is_none(), "two MSHRs for line {line:#x}");
        slot
    }

    /// Takes a free slot for a new entry of `origin`, not yet indexed.
    fn alloc(entries: &mut Vec<MshrEntry>, free: &mut Vec<usize>, origin: FillOrigin) -> usize {
        match free.pop() {
            Some(slot) => {
                let entry = &mut entries[slot];
                debug_assert!(entry.waiters.is_empty(), "a freed MSHR kept its waiters");
                entry.origin = origin;
                entry.demand_merged = false;
                entry.sent = false;
                slot
            }
            None => {
                entries.push(MshrEntry {
                    origin,
                    demand_merged: false,
                    sent: false,
                    waiters: Vec::new(),
                });
                entries.len() - 1
            }
        }
    }

    /// Frees `line`'s entry and returns its slot, whose fields (waiters
    /// included) stay readable until the next insert.
    fn remove(&mut self, line: u64) -> Option<usize> {
        let slot = self.index.remove(&line)?;
        self.free.push(slot);
        Some(slot)
    }

    /// Live `(line, entry)` pairs, in no particular order.
    fn iter(&self) -> impl Iterator<Item = (u64, &MshrEntry)> + '_ {
        self.index
            .iter()
            .map(|(&line, &slot)| (line, &self.entries[slot]))
    }
}

/// "No slot" in [`FaLines`]' links.
const NIL: usize = usize::MAX;

/// A resident line of [`FaLines`], linked into its `last_use` order.
#[derive(Debug)]
struct FaSlot {
    line: u64,
    state: Line,
    prev: usize,
    next: usize,
}

/// Fully associative line storage: an arena of slots (one per resident
/// line, reused after eviction), a doubly linked list through them in
/// non-decreasing `last_use` order (head oldest), and a line → slot
/// index.
///
/// A touch relinks its slot by walking back from the tail past the
/// slots used later, so the order holds for any `now`; under a monotone
/// clock the walk stops at once. The victim is the smallest line in the
/// head run of equal `last_use` — exactly `argmin (last_use, line)`.
/// The order is derived from the lines' `last_use`, so it is never
/// encoded and decode rebuilds it.
#[derive(Debug)]
struct FaLines {
    slots: Vec<FaSlot>,
    free: Vec<usize>,
    index: FxHashMap<u64, usize>,
    head: usize,
    tail: usize,
}

impl FaLines {
    fn with_capacity(lines: usize) -> FaLines {
        FaLines {
            slots: Vec::with_capacity(lines),
            free: Vec::new(),
            index: FxHashMap::with_capacity_and_hasher(lines, Default::default()),
            head: NIL,
            tail: NIL,
        }
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn get(&self, line: u64) -> Option<&Line> {
        self.index.get(&line).map(|&i| &self.slots[i].state)
    }

    /// Marks `line` used at `now` and returns its state, if resident.
    fn touch(&mut self, line: u64, now: u64) -> Option<&mut Line> {
        let i = *self.index.get(&line)?;
        self.unlink(i);
        self.slots[i].state.last_use = now;
        self.link_by_age(i);
        Some(&mut self.slots[i].state)
    }

    /// Adds `line`, which must not be resident.
    fn insert(&mut self, line: u64, state: Line) {
        let slot = FaSlot {
            line,
            state,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        let previous = self.index.insert(line, i);
        debug_assert!(previous.is_none(), "line {line:#x} inserted twice");
        self.link_by_age(i);
    }

    /// Removes and returns the resident line minimizing `(last_use, line)`.
    fn evict_lru(&mut self) -> Option<(u64, Line)> {
        let mut victim = self.head;
        let oldest = self.slots.get(victim)?.state.last_use;
        let mut i = self.slots[victim].next;
        while i != NIL && self.slots[i].state.last_use == oldest {
            if self.slots[i].line < self.slots[victim].line {
                victim = i;
            }
            i = self.slots[i].next;
        }
        self.unlink(victim);
        self.free.push(victim);
        let FaSlot { line, state, .. } = self.slots[victim];
        self.index.remove(&line);
        Some((line, state))
    }

    fn unlink(&mut self, i: usize) {
        let FaSlot { prev, next, .. } = self.slots[i];
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    /// Links unlinked slot `i` after the last slot used no later than it.
    fn link_by_age(&mut self, i: usize) {
        let t = self.slots[i].state.last_use;
        let mut prev = self.tail;
        while prev != NIL && self.slots[prev].state.last_use > t {
            prev = self.slots[prev].prev;
        }
        let next = match prev {
            NIL => std::mem::replace(&mut self.head, i),
            p => std::mem::replace(&mut self.slots[p].next, i),
        };
        match next {
            NIL => self.tail = i,
            n => self.slots[n].prev = i,
        }
        self.slots[i].prev = prev;
        self.slots[i].next = next;
    }

    /// Resident `(line, state)` pairs, least recently used first.
    fn iter(&self) -> impl Iterator<Item = (u64, &Line)> + '_ {
        std::iter::successors((self.head != NIL).then_some(self.head), |&i| {
            let next = self.slots[i].next;
            (next != NIL).then_some(next)
        })
        .map(|i| (self.slots[i].line, &self.slots[i].state))
    }
}

/// Organization-specific line storage.
#[derive(Debug)]
enum Storage {
    /// Fully associative: see [`FaLines`].
    Fa(FaLines),
    /// Set associative: see [`SaLines`].
    Sa(SaLines),
}

/// Set-associative line storage in one flat block: set `s` holds its
/// `len[s]` resident `(line, state)` pairs at `ways[s * assoc..]`, in
/// insertion order. Victim selection scans the ≤`assoc` entries for the
/// minimum `last_use` (first minimum wins) and swap-removes it, so way
/// order is architecturally significant state.
#[derive(Debug)]
struct SaLines {
    assoc: usize,
    ways: Vec<(u64, Line)>,
    len: Vec<u32>,
}

impl SaLines {
    fn new(sets: usize, assoc: usize) -> SaLines {
        let empty = Line {
            last_use: 0,
            origin: FillOrigin::Demand,
            read_by_demand: false,
        };
        SaLines {
            assoc,
            ways: vec![(0, empty); sets * assoc],
            len: vec![0; sets],
        }
    }

    fn sets(&self) -> usize {
        self.len.len()
    }

    /// Set `set`'s resident lines, in way order.
    fn set(&self, set: usize) -> &[(u64, Line)] {
        let base = set * self.assoc;
        &self.ways[base..base + self.len[set] as usize]
    }

    fn set_mut(&mut self, set: usize) -> &mut [(u64, Line)] {
        let base = set * self.assoc;
        &mut self.ways[base..base + self.len[set] as usize]
    }

    /// Appends a line to `set`, which must not be full.
    fn push(&mut self, set: usize, entry: (u64, Line)) {
        let len = self.len[set] as usize;
        // A full set would spill into the next set's ways.
        assert!(len < self.assoc, "push into a full set");
        self.ways[set * self.assoc + len] = entry;
        self.len[set] += 1;
    }

    /// Removes way `pos` of `set`, moving the set's last way into it.
    fn swap_remove(&mut self, set: usize, pos: usize) -> (u64, Line) {
        let base = set * self.assoc;
        let last = base + self.len[set] as usize - 1;
        self.ways.swap(base + pos, last);
        self.len[set] -= 1;
        self.ways[last]
    }

    /// Every set's resident lines, set by set in way order.
    fn iter(&self) -> impl Iterator<Item = (u64, &Line)> + '_ {
        (0..self.sets()).flat_map(move |s| self.set(s).iter().map(|(l, e)| (*l, e)))
    }
}

/// A cycle-level cache with MSHRs.
///
/// The cache stores *presence* only — data movement is modeled by the
/// surrounding memory system. Probes and fills are driven by the caller.
///
/// # Examples
///
/// ```
/// use rt_gpu_sim::{Cache, FillOrigin, Organization, ProbeOutcome};
///
/// let mut cache = Cache::new(4, Organization::FullyAssociative, 8, 64);
/// assert_eq!(cache.probe(0x1000, FillOrigin::Demand, 1), ProbeOutcome::Miss);
/// cache.fill(0x1000, 2);
/// assert!(matches!(
///     cache.probe(0x1000, FillOrigin::Demand, 3),
///     ProbeOutcome::Hit { .. }
/// ));
/// ```
#[derive(Debug)]
pub struct Cache {
    storage: Storage,
    resident: usize,
    capacity_lines: usize,
    organization: Organization,
    ways: usize,
    line_bytes: u64,
    mshrs: Mshrs,
    mshr_capacity: usize,
    /// Prefetched lines evicted before any demand read; a later demand
    /// miss on one of these reclassifies the prefetch as Early.
    evicted_unread: FxHashSet<u64>,
    stats: CacheStats,
    effect: PrefetchEffect,
}

impl Cache {
    /// Creates a cache of `capacity_lines` lines.
    ///
    /// For [`Organization::SetAssociative`], `capacity_lines` must be a
    /// multiple of `sets`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_lines` or `mshr_capacity` is zero, or the
    /// set-associative shape does not divide evenly.
    pub fn new(
        capacity_lines: usize,
        organization: Organization,
        mshr_capacity: usize,
        line_bytes: u64,
    ) -> Cache {
        assert!(capacity_lines > 0, "cache must hold at least one line");
        assert!(mshr_capacity > 0, "cache needs at least one MSHR");
        let (ways, storage) = match organization {
            Organization::FullyAssociative => (
                capacity_lines,
                Storage::Fa(FaLines::with_capacity(capacity_lines)),
            ),
            Organization::SetAssociative { sets } => {
                assert!(
                    sets > 0 && (capacity_lines as u64).is_multiple_of(sets),
                    "capacity must divide evenly into sets"
                );
                let ways = (capacity_lines as u64 / sets) as usize;
                (ways, Storage::Sa(SaLines::new(sets as usize, ways)))
            }
        };
        Cache {
            storage,
            resident: 0,
            capacity_lines,
            organization,
            ways,
            line_bytes,
            mshrs: Mshrs::default(),
            mshr_capacity,
            evicted_unread: FxHashSet::default(),
            stats: CacheStats::default(),
            effect: PrefetchEffect::default(),
        }
    }

    /// Line-aligned address of `addr`.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr / self.line_bytes * self.line_bytes
    }

    fn set_of(&self, line: u64) -> usize {
        match self.organization {
            Organization::FullyAssociative => 0,
            Organization::SetAssociative { sets } => ((line / self.line_bytes) % sets) as usize,
        }
    }

    /// Probes the cache for the line containing `addr` at time `now`.
    ///
    /// On [`ProbeOutcome::Miss`] an MSHR entry is allocated and the caller
    /// must send the fetch upstream, then call [`Cache::fill`] when data
    /// returns. Prefetch probes that find the line present or pending are
    /// dropped (classified *too late*) — the caller should not forward
    /// them.
    pub fn probe(&mut self, addr: u64, origin: FillOrigin, now: u64) -> ProbeOutcome {
        self.probe_mshr(addr, origin, now).0
    }

    /// [`Cache::probe`], also returning the MSHR slot a
    /// [`ProbeOutcome::PendingHit`] merged into or a [`ProbeOutcome::Miss`]
    /// allocated, for [`Cache::add_waiter`].
    pub(crate) fn probe_mshr(
        &mut self,
        addr: u64,
        origin: FillOrigin,
        now: u64,
    ) -> (ProbeOutcome, Option<usize>) {
        let line = self.line_of(addr);
        if origin == FillOrigin::Prefetch {
            self.stats.prefetch_probes += 1;
        }
        let set = self.set_of(line);
        let entry = match &mut self.storage {
            Storage::Fa(fa) => fa.touch(line, now),
            Storage::Sa(sa) => {
                sa.set_mut(set)
                    .iter_mut()
                    .find(|(l, _)| *l == line)
                    .map(|(_, e)| {
                        e.last_use = now;
                        e
                    })
            }
        };
        if let Some(entry) = entry {
            let outcome = match origin {
                FillOrigin::Demand => {
                    let on_prefetch = entry.origin == FillOrigin::Prefetch;
                    if on_prefetch && !entry.read_by_demand {
                        entry.read_by_demand = true;
                        self.effect.timely += 1;
                    }
                    if on_prefetch {
                        self.stats.demand_hits_on_prefetch += 1;
                    } else {
                        self.stats.demand_hits_on_demand += 1;
                    }
                    ProbeOutcome::Hit {
                        filled_by_prefetch: on_prefetch,
                    }
                }
                FillOrigin::Prefetch => {
                    self.effect.too_late += 1;
                    ProbeOutcome::Hit {
                        filled_by_prefetch: entry.origin == FillOrigin::Prefetch,
                    }
                }
            };
            return (outcome, None);
        }
        // One hash finds the line's MSHR or the place for a new one.
        let pending = self.mshrs.len();
        let Mshrs {
            index,
            entries,
            free,
        } = &mut self.mshrs;
        match index.entry(line) {
            Entry::Occupied(e) => {
                let slot = *e.get();
                let mshr = &mut entries[slot];
                match origin {
                    FillOrigin::Demand => {
                        self.stats.demand_pending_hits += 1;
                        if mshr.origin == FillOrigin::Prefetch && !mshr.demand_merged {
                            mshr.demand_merged = true;
                            self.effect.late += 1;
                        }
                    }
                    FillOrigin::Prefetch => {
                        self.effect.too_late += 1;
                    }
                }
                (ProbeOutcome::PendingHit, Some(slot))
            }
            Entry::Vacant(v) => {
                if pending >= self.mshr_capacity {
                    self.stats.mshr_rejections += 1;
                    return (ProbeOutcome::NoMshr, None);
                }
                match origin {
                    FillOrigin::Demand => {
                        self.stats.demand_misses += 1;
                        // A demand miss on a line whose prefetched copy
                        // was evicted unread: the prefetch was Early.
                        if !self.evicted_unread.is_empty() && self.evicted_unread.remove(&line) {
                            self.effect.early += 1;
                        }
                    }
                    FillOrigin::Prefetch => self.stats.prefetch_misses += 1,
                }
                let slot = Mshrs::alloc(entries, free, origin);
                v.insert(slot);
                (ProbeOutcome::Miss, Some(slot))
            }
        }
    }

    /// Appends `waiter` to the waiters of the MSHR in `slot`, which a
    /// probe just returned.
    pub(crate) fn add_waiter(&mut self, slot: usize, waiter: u64) {
        self.mshrs.entries[slot].waiters.push(waiter);
    }

    /// [`Cache::add_waiter`], unless `waiter` already waits there.
    pub(crate) fn add_waiter_once(&mut self, slot: usize, waiter: u64) {
        let waiters = &mut self.mshrs.entries[slot].waiters;
        if !waiters.contains(&waiter) {
            waiters.push(waiter);
        }
    }

    /// Marks the fetch of pending `line` as sent upstream. `false` when
    /// it was sent already, or no MSHR waits for the line.
    pub(crate) fn mark_sent(&mut self, line: u64) -> bool {
        match self.mshrs.slot(line) {
            Some(slot) => !std::mem::replace(&mut self.mshrs.entries[slot].sent, true),
            None => false,
        }
    }

    /// Pending lines with at least one waiter, with their waiters in
    /// arrival order; in no particular line order.
    pub(crate) fn waiting_lines(&self) -> impl Iterator<Item = (u64, &[u64])> + '_ {
        self.mshrs
            .iter()
            .filter(|(_, m)| !m.waiters.is_empty())
            .map(|(line, m)| (line, m.waiters.as_slice()))
    }

    /// Pending lines whose fetch was sent upstream, in no particular
    /// order.
    pub(crate) fn sent_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.mshrs
            .iter()
            .filter(|(_, m)| m.sent)
            .map(|(line, _)| line)
    }

    /// The MSHR slot of pending `line`, if any (for restoring waiters).
    pub(crate) fn mshr_slot(&self, line: u64) -> Option<usize> {
        self.mshrs.slot(line)
    }

    /// The waiters of the MSHR in `slot`, in arrival order.
    pub(crate) fn waiters(&self, slot: usize) -> &[u64] {
        &self.mshrs.entries[slot].waiters
    }

    /// Counts the MSHR rejection of a demand probe of `addr` that is known
    /// to miss with every MSHR in use, without probing.
    pub(crate) fn repeat_rejection(&mut self, addr: u64) {
        debug_assert!(
            !self.contains(addr) && !self.is_pending(addr),
            "repeated rejection of line {:#x}, which is resident or pending",
            self.line_of(addr)
        );
        debug_assert!(
            self.mshrs.len() >= self.mshr_capacity,
            "repeated rejection with a free MSHR"
        );
        self.stats.mshr_rejections += 1;
    }

    /// Installs the line containing `addr`, completing its MSHR entry
    /// and dropping its waiters. Evicts an LRU victim if the cache (or
    /// set) is full. Returns the evicted line, if any.
    pub fn fill(&mut self, addr: u64, now: u64) -> Option<u64> {
        let (victim, freed) = self.install(addr, now);
        if let Some(slot) = freed {
            self.mshrs.entries[slot].waiters.clear();
        }
        victim
    }

    /// [`Cache::fill`], appending the MSHR's waiters to `woken` in
    /// arrival order.
    pub(crate) fn fill_waking(&mut self, addr: u64, now: u64, woken: &mut Vec<u64>) -> Option<u64> {
        let (victim, freed) = self.install(addr, now);
        if let Some(slot) = freed {
            woken.append(&mut self.mshrs.entries[slot].waiters);
        }
        victim
    }

    /// Installs the line containing `addr` and frees its MSHR. Returns the
    /// evicted line and the freed MSHR's slot.
    fn install(&mut self, addr: u64, now: u64) -> (Option<u64>, Option<usize>) {
        let line = self.line_of(addr);
        let freed = self.mshrs.remove(line);
        let (origin, read_by_demand) = match freed {
            Some(slot) => {
                // A probe allocates an MSHR only for an absent line, and
                // only a fill, which frees it, makes the line resident.
                debug_assert!(!self.contains(line), "pending line {line:#x} is resident");
                let m = &self.mshrs.entries[slot];
                // A prefetch whose in-flight window absorbed a demand load
                // counts as read the moment it lands (the demand consumes
                // it).
                (m.origin, m.demand_merged)
            }
            // Already resident (e.g. racing fills).
            None if self.contains(line) => return (None, None),
            None => (FillOrigin::Demand, false),
        };
        let victim = self.evict_if_needed(line);
        let set = self.set_of(line);
        let entry = Line {
            last_use: now,
            origin,
            read_by_demand,
        };
        match &mut self.storage {
            Storage::Fa(fa) => fa.insert(line, entry),
            Storage::Sa(sa) => sa.push(set, (line, entry)),
        }
        self.resident += 1;
        (victim, freed)
    }

    fn evict_if_needed(&mut self, incoming: u64) -> Option<u64> {
        let set = self.set_of(incoming);
        let capacity_lines = self.capacity_lines;
        let ways = self.ways;
        let (victim, entry) = match &mut self.storage {
            Storage::Fa(fa) => {
                if fa.len() < capacity_lines {
                    return None;
                }
                fa.evict_lru().expect("a full cache holds a line")
            }
            Storage::Sa(sa) => {
                let members = sa.set(set);
                if members.len() < ways {
                    return None;
                }
                let pos = members
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (_, e))| e.last_use)
                    .map(|(pos, _)| pos)
                    .expect("set unexpectedly empty");
                sa.swap_remove(set, pos)
            }
        };
        self.resident -= 1;
        self.stats.evictions += 1;
        if entry.origin == FillOrigin::Prefetch && !entry.read_by_demand {
            self.evicted_unread.insert(victim);
        }
        Some(victim)
    }

    fn line_entry(&self, line: u64) -> Option<&Line> {
        match &self.storage {
            Storage::Fa(fa) => fa.get(line),
            Storage::Sa(sa) => sa
                .set(self.set_of(line))
                .iter()
                .find(|(l, _)| *l == line)
                .map(|(_, e)| e),
        }
    }

    /// Whether the line containing `addr` is resident.
    pub fn contains(&self, addr: u64) -> bool {
        self.line_entry(self.line_of(addr)).is_some()
    }

    /// Whether the line containing `addr` has an in-flight MSHR entry.
    pub fn is_pending(&self, addr: u64) -> bool {
        self.mshrs.slot(self.line_of(addr)).is_some()
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.resident
    }

    /// Number of allocated MSHR entries.
    pub fn mshrs_in_use(&self) -> usize {
        self.mshrs.len()
    }

    /// Demand/prefetch access counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Prefetch effectiveness counters. Call [`Cache::finalize_effect`]
    /// at end of simulation to classify still-unread prefetched lines as
    /// unused.
    pub fn effect(&self) -> PrefetchEffect {
        self.effect
    }

    /// Iterates resident `(line, state)` pairs in storage order.
    fn iter_lines(&self) -> Box<dyn Iterator<Item = (u64, &Line)> + '_> {
        match &self.storage {
            Storage::Fa(fa) => Box::new(fa.iter()),
            Storage::Sa(sa) => Box::new(sa.iter()),
        }
    }

    /// Classifies remaining unread prefetched lines (resident or evicted)
    /// as *unused* and returns the final effectiveness counters.
    pub fn finalize_effect(&mut self) -> PrefetchEffect {
        let resident_unread = self
            .iter_lines()
            .filter(|(_, l)| l.origin == FillOrigin::Prefetch && !l.read_by_demand)
            .count() as u64;
        // In-flight prefetches with no merged demand are also unused.
        let inflight_unread = self
            .mshrs
            .iter()
            .filter(|(_, m)| m.origin == FillOrigin::Prefetch && !m.demand_merged)
            .count() as u64;
        self.effect.unused += resident_unread + inflight_unread + self.evicted_unread.len() as u64;
        self.evicted_unread.clear();
        self.effect
    }

    /// Serializes the complete cache state into `w`.
    ///
    /// Encoding is canonical (deterministic): hash maps and sets are
    /// written in sorted key order, and per-set membership **verbatim**
    /// in way order — set-associative victim selection tie-breaks on
    /// position (`min_by_key` returns the first minimum, then
    /// `swap_remove` reshuffles), so order is architecturally significant
    /// state. The fully associative LRU list is *not* encoded: it is the
    /// resident lines ordered by `last_use`, and decode rebuilds it from
    /// them.
    pub(crate) fn encode_state(&self, w: &mut ByteWriter) {
        w.put_usize(self.capacity_lines);
        match self.organization {
            Organization::FullyAssociative => w.put_u8(0),
            Organization::SetAssociative { sets } => {
                w.put_u8(1);
                w.put_u64(sets);
            }
        }
        w.put_usize(self.ways);
        w.put_u64(self.line_bytes);
        w.put_usize(self.mshr_capacity);

        let mut entries: Vec<(u64, &Line)> = self.iter_lines().collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        w.put_len(entries.len());
        for (k, line) in entries {
            w.put_u64(k);
            w.put_u64(line.last_use);
            encode_origin(line.origin, w);
            w.put_bool(line.read_by_demand);
        }

        // Waiters and the sent flag belong to the memory system's
        // sections, which it writes from these entries.
        let mut mshrs: Vec<(u64, &MshrEntry)> = self.mshrs.iter().collect();
        mshrs.sort_unstable_by_key(|&(k, _)| k);
        w.put_len(mshrs.len());
        for (k, entry) in mshrs {
            w.put_u64(k);
            encode_origin(entry.origin, w);
            w.put_bool(entry.demand_merged);
        }

        match &self.storage {
            Storage::Fa(_) => {
                // One organization-defined set with no explicit member
                // list (membership is the line map itself).
                w.put_len(1);
                w.put_len(0);
            }
            Storage::Sa(sa) => {
                w.put_len(sa.sets());
                for s in 0..sa.sets() {
                    let set = sa.set(s);
                    w.put_len(set.len());
                    for (line, _) in set {
                        w.put_u64(*line);
                    }
                }
            }
        }

        let mut evicted: Vec<u64> = self.evicted_unread.iter().copied().collect();
        evicted.sort_unstable();
        w.put_len(evicted.len());
        for line in evicted {
            w.put_u64(line);
        }

        for v in [
            self.stats.demand_hits_on_prefetch,
            self.stats.demand_hits_on_demand,
            self.stats.demand_pending_hits,
            self.stats.demand_misses,
            self.stats.prefetch_probes,
            self.stats.prefetch_misses,
            self.stats.mshr_rejections,
            self.stats.evictions,
        ] {
            w.put_u64(v);
        }
        for v in [
            self.effect.too_late,
            self.effect.late,
            self.effect.timely,
            self.effect.early,
            self.effect.unused,
        ] {
            w.put_u64(v);
        }
    }

    /// Rebuilds a cache from bytes produced by [`Cache::encode_state`].
    /// All reads are bounds-checked; structural inconsistencies (set
    /// members naming non-resident lines, resident lines missing from
    /// their set, impossible shapes) are rejected as
    /// [`DecodeError::Malformed`] rather than trusted. The encoded
    /// capacity and organization must be the `expected` ones (the
    /// resuming configuration's), checked before the line storage is
    /// allocated.
    pub(crate) fn decode_state(
        r: &mut ByteReader<'_>,
        expected: (usize, Organization),
    ) -> Result<Cache, DecodeError> {
        let capacity_lines = r.take_usize()?;
        let organization = match r.take_u8()? {
            0 => Organization::FullyAssociative,
            1 => Organization::SetAssociative {
                sets: r.take_u64()?,
            },
            t => {
                return Err(DecodeError::malformed(format!(
                    "unknown cache organization tag {t}"
                )))
            }
        };
        let ways = r.take_usize()?;
        let line_bytes = r.take_u64()?;
        let mshr_capacity = r.take_usize()?;
        if capacity_lines == 0 || ways == 0 || line_bytes == 0 || mshr_capacity == 0 {
            return Err(DecodeError::malformed("cache shape fields must be nonzero"));
        }
        if (capacity_lines, organization) != expected {
            return Err(DecodeError::malformed(format!(
                "cache of {capacity_lines} lines ({organization:?}) where the configuration \
                 has {} lines ({:?})",
                expected.0, expected.1
            )));
        }

        let n = r.take_len(11)?;
        let mut lines: FxHashMap<u64, Line> =
            FxHashMap::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            let k = r.take_u64()?;
            let last_use = r.take_u64()?;
            let origin = decode_origin(r)?;
            let read_by_demand = r.take_bool()?;
            lines.insert(
                k,
                Line {
                    last_use,
                    origin,
                    read_by_demand,
                },
            );
        }
        let resident = lines.len();

        let n = r.take_len(10)?;
        let mut mshrs = Mshrs::default();
        for _ in 0..n {
            let k = r.take_u64()?;
            let origin = decode_origin(r)?;
            let demand_merged = r.take_bool()?;
            if mshrs.slot(k).is_some() {
                return Err(DecodeError::malformed(format!("two MSHRs for line {k:#x}")));
            }
            let slot = mshrs.insert(k, origin);
            mshrs.entries[slot].demand_merged = demand_merged;
        }

        let set_count = r.take_len(8)?;
        let expected_sets = match organization {
            Organization::FullyAssociative => 1,
            Organization::SetAssociative { sets } => sets as usize,
        };
        if set_count != expected_sets {
            return Err(DecodeError::malformed(format!(
                "set count {set_count} does not match organization ({expected_sets} sets)"
            )));
        }
        let storage = match organization {
            Organization::FullyAssociative => {
                let members = r.take_len(8)?;
                if members != 0 {
                    return Err(DecodeError::malformed(
                        "fully associative caches carry no explicit set members",
                    ));
                }
                // Link the resident lines in `(last_use, line)` order.
                let mut sorted: Vec<(u64, Line)> = lines.into_iter().collect();
                sorted.sort_unstable_by_key(|&(l, e)| (e.last_use, l));
                let mut fa = FaLines::with_capacity(sorted.len());
                for (l, e) in sorted {
                    fa.insert(l, e);
                }
                Storage::Fa(fa)
            }
            Organization::SetAssociative { .. } => {
                if set_count.checked_mul(ways) != Some(capacity_lines) {
                    return Err(DecodeError::malformed(format!(
                        "{set_count} sets of {ways} ways do not hold {capacity_lines} lines"
                    )));
                }
                let mut sa = SaLines::new(set_count, ways);
                for set in 0..set_count {
                    let members = r.take_len(8)?;
                    if members > ways {
                        return Err(DecodeError::malformed(format!(
                            "set {set} holds {members} lines, over its {ways} ways"
                        )));
                    }
                    for _ in 0..members {
                        let line = r.take_u64()?;
                        let Some(entry) = lines.remove(&line) else {
                            return Err(DecodeError::malformed(format!(
                                "set member {line:#x} is not a resident line"
                            )));
                        };
                        sa.push(set, (line, entry));
                    }
                }
                if !lines.is_empty() {
                    return Err(DecodeError::malformed(
                        "resident line missing from its set-member list",
                    ));
                }
                Storage::Sa(sa)
            }
        };

        let n = r.take_len(8)?;
        let mut evicted_unread: FxHashSet<u64> =
            FxHashSet::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            evicted_unread.insert(r.take_u64()?);
        }

        let stats = CacheStats {
            demand_hits_on_prefetch: r.take_u64()?,
            demand_hits_on_demand: r.take_u64()?,
            demand_pending_hits: r.take_u64()?,
            demand_misses: r.take_u64()?,
            prefetch_probes: r.take_u64()?,
            prefetch_misses: r.take_u64()?,
            mshr_rejections: r.take_u64()?,
            evictions: r.take_u64()?,
        };
        let effect = PrefetchEffect {
            too_late: r.take_u64()?,
            late: r.take_u64()?,
            timely: r.take_u64()?,
            early: r.take_u64()?,
            unused: r.take_u64()?,
        };

        Ok(Cache {
            storage,
            resident,
            capacity_lines,
            organization,
            ways,
            line_bytes,
            mshrs,
            mshr_capacity,
            evicted_unread,
            stats,
            effect,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        Cache::new(4, Organization::FullyAssociative, 8, 64)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small_cache();
        assert_eq!(c.probe(0x100, FillOrigin::Demand, 1), ProbeOutcome::Miss);
        assert!(c.is_pending(0x100));
        c.fill(0x100, 2);
        assert!(!c.is_pending(0x100));
        assert_eq!(
            c.probe(0x13f, FillOrigin::Demand, 3), // same line as 0x100
            ProbeOutcome::Hit {
                filled_by_prefetch: false
            }
        );
        let s = c.stats();
        assert_eq!(s.demand_misses, 1);
        assert_eq!(s.demand_hits_on_demand, 1);
    }

    #[test]
    fn fill_hands_back_waiters_in_arrival_order() {
        let mut c = small_cache();
        let (outcome, slot) = c.probe_mshr(0x100, FillOrigin::Demand, 1);
        assert_eq!(outcome, ProbeOutcome::Miss);
        c.add_waiter(slot.unwrap(), 7);
        for (now, waiter) in [(2, 3u64), (3, 9)] {
            let (outcome, slot) = c.probe_mshr(0x100, FillOrigin::Demand, now);
            assert_eq!(outcome, ProbeOutcome::PendingHit);
            c.add_waiter(slot.unwrap(), waiter);
        }
        // Another line's MSHR keeps its own waiters, deduplicated on
        // request.
        let (_, other) = c.probe_mshr(0x200, FillOrigin::Prefetch, 4);
        for waiter in [5, 5, 2] {
            c.add_waiter_once(other.unwrap(), waiter);
        }
        let mut woken = vec![1];
        c.fill_waking(0x100, 5, &mut woken);
        assert_eq!(woken, [1, 7, 3, 9], "appended, in arrival order");
        woken.clear();
        c.fill_waking(0x200, 6, &mut woken);
        assert_eq!(woken, [5, 2]);
        // A later miss reuses a freed entry, with no waiters.
        let (outcome, slot) = c.probe_mshr(0x300, FillOrigin::Demand, 7);
        assert_eq!(outcome, ProbeOutcome::Miss);
        assert!(c.waiters(slot.unwrap()).is_empty());
        assert_eq!(c.mshrs.entries.len(), 2);
    }

    #[test]
    fn pending_hit_merges() {
        let mut c = small_cache();
        assert_eq!(c.probe(0x100, FillOrigin::Demand, 1), ProbeOutcome::Miss);
        assert_eq!(
            c.probe(0x100, FillOrigin::Demand, 2),
            ProbeOutcome::PendingHit
        );
        assert_eq!(c.stats().demand_pending_hits, 1);
        assert_eq!(c.mshrs_in_use(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small_cache();
        for (i, addr) in [0x000u64, 0x040, 0x080, 0x0c0].iter().enumerate() {
            c.probe(*addr, FillOrigin::Demand, i as u64);
            c.fill(*addr, i as u64);
        }
        // Touch 0x000 to refresh it.
        c.probe(0x000, FillOrigin::Demand, 10);
        // New line evicts 0x040 (oldest untouched).
        c.probe(0x100, FillOrigin::Demand, 11);
        let victim = c.fill(0x100, 12);
        assert_eq!(victim, Some(0x040));
        assert!(c.contains(0x000));
        assert!(!c.contains(0x040));
    }

    #[test]
    fn set_associative_evicts_within_set() {
        // 4 lines, 2 sets => 2 ways per set. Lines 0x00,0x80 map to set 0;
        // 0x40,0xc0 to set 1 (64-byte lines).
        let mut c = Cache::new(4, Organization::SetAssociative { sets: 2 }, 8, 64);
        for (i, addr) in [0x000u64, 0x080, 0x100].iter().enumerate() {
            c.probe(*addr, FillOrigin::Demand, i as u64);
            let v = c.fill(*addr, i as u64);
            if *addr == 0x100 {
                // Third line in set 0 evicts the set-0 LRU (0x000) even
                // though set 1 is empty.
                assert_eq!(v, Some(0x000));
            } else {
                assert_eq!(v, None);
            }
        }
    }

    #[test]
    fn mshr_capacity_rejects() {
        let mut c = Cache::new(4, Organization::FullyAssociative, 2, 64);
        assert_eq!(c.probe(0x000, FillOrigin::Demand, 1), ProbeOutcome::Miss);
        assert_eq!(c.probe(0x040, FillOrigin::Demand, 1), ProbeOutcome::Miss);
        assert_eq!(c.probe(0x080, FillOrigin::Demand, 1), ProbeOutcome::NoMshr);
        assert_eq!(c.stats().mshr_rejections, 1);
    }

    #[test]
    fn timely_prefetch_classification() {
        let mut c = small_cache();
        assert_eq!(c.probe(0x100, FillOrigin::Prefetch, 1), ProbeOutcome::Miss);
        c.fill(0x100, 5);
        assert_eq!(
            c.probe(0x100, FillOrigin::Demand, 6),
            ProbeOutcome::Hit {
                filled_by_prefetch: true
            }
        );
        assert_eq!(c.effect().timely, 1);
        assert_eq!(c.stats().demand_hits_on_prefetch, 1);
        // Second demand hit does not double-count timeliness.
        c.probe(0x100, FillOrigin::Demand, 7);
        assert_eq!(c.effect().timely, 1);
    }

    #[test]
    fn late_prefetch_classification() {
        let mut c = small_cache();
        c.probe(0x100, FillOrigin::Prefetch, 1);
        assert_eq!(
            c.probe(0x100, FillOrigin::Demand, 2),
            ProbeOutcome::PendingHit
        );
        assert_eq!(c.effect().late, 1);
        // On fill, the line counts as consumed; finalize adds no unused.
        c.fill(0x100, 3);
        let eff = c.finalize_effect();
        assert_eq!(eff.unused, 0);
    }

    #[test]
    fn too_late_prefetch_classification() {
        let mut c = small_cache();
        c.probe(0x100, FillOrigin::Demand, 1);
        c.fill(0x100, 2);
        // Prefetch probing a demand-resident line: too late.
        c.probe(0x100, FillOrigin::Prefetch, 3);
        assert_eq!(c.effect().too_late, 1);
        // Prefetch probing a demand-pending line: also too late.
        c.probe(0x200, FillOrigin::Demand, 4);
        c.probe(0x200, FillOrigin::Prefetch, 5);
        assert_eq!(c.effect().too_late, 2);
    }

    #[test]
    fn early_prefetch_classification() {
        let mut c = small_cache();
        // Prefetch a line, never read it, force it out, then demand it.
        c.probe(0x100, FillOrigin::Prefetch, 1);
        c.fill(0x100, 1);
        for (i, addr) in [0x200u64, 0x240, 0x280, 0x2c0].iter().enumerate() {
            c.probe(*addr, FillOrigin::Demand, 2 + i as u64);
            c.fill(*addr, 2 + i as u64);
        }
        assert!(!c.contains(0x100), "prefetched line should be evicted");
        c.probe(0x100, FillOrigin::Demand, 100);
        assert_eq!(c.effect().early, 1);
    }

    #[test]
    fn unused_prefetch_classification() {
        let mut c = small_cache();
        c.probe(0x100, FillOrigin::Prefetch, 1);
        c.fill(0x100, 1);
        c.probe(0x140, FillOrigin::Prefetch, 2);
        c.fill(0x140, 2);
        let eff = c.finalize_effect();
        assert_eq!(eff.unused, 2);
        assert_eq!(eff.total(), 2);
    }

    #[test]
    fn evicted_unread_without_later_demand_is_unused() {
        let mut c = small_cache();
        c.probe(0x100, FillOrigin::Prefetch, 1);
        c.fill(0x100, 1);
        for (i, addr) in [0x200u64, 0x240, 0x280, 0x2c0].iter().enumerate() {
            c.probe(*addr, FillOrigin::Demand, 2 + i as u64);
            c.fill(*addr, 2 + i as u64);
        }
        assert!(!c.contains(0x100));
        assert_eq!(c.finalize_effect().unused, 1);
    }

    #[test]
    fn hit_rate_accounts_all_demand_flavors() {
        let mut c = small_cache();
        c.probe(0x100, FillOrigin::Demand, 1); // miss
        c.fill(0x100, 2);
        c.probe(0x100, FillOrigin::Demand, 3); // hit
        let s = c.stats();
        assert_eq!(s.demand_accesses(), 2);
        assert!((s.demand_hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn prefetch_counters() {
        let mut c = small_cache();
        c.probe(0x100, FillOrigin::Prefetch, 1);
        c.probe(0x140, FillOrigin::Prefetch, 1);
        let s = c.stats();
        assert_eq!(s.prefetch_probes, 2);
        assert_eq!(s.prefetch_misses, 2);
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn zero_capacity_panics() {
        let _ = Cache::new(0, Organization::FullyAssociative, 1, 64);
    }

    #[test]
    fn fa_lru_arena_stays_bounded_under_hit_storms() {
        let mut c = small_cache();
        for (i, addr) in [0x000u64, 0x040, 0x080, 0x0c0].iter().enumerate() {
            c.probe(*addr, FillOrigin::Demand, i as u64);
            c.fill(*addr, i as u64);
        }
        // Hammer the same lines with hits: a touch relinks a slot, it
        // never adds one.
        for t in 0..100_000u64 {
            c.probe((t % 4) * 0x40, FillOrigin::Demand, 10 + t);
        }
        let Storage::Fa(fa) = &c.storage else {
            panic!("expected fully associative storage");
        };
        assert_eq!(fa.slots.len(), c.capacity_lines);
        assert_eq!(fa.len(), c.capacity_lines);
    }

    #[test]
    fn fa_eviction_matches_naive_argmin_model() {
        // Drive the cache with a deterministic pseudo-random mix of demand
        // and prefetch accesses at a clock that mostly ticks but also
        // repeats and steps back, and check every eviction against a
        // brute-force reference model: the victim is always the resident
        // line minimizing (last_use, line). Halfway through, the cache is
        // encoded and decoded, and the copy must evict the same lines.
        let mut caches = vec![Cache::new(8, Organization::FullyAssociative, 16, 64)];
        let mut model: Vec<(u64, u64)> = Vec::new(); // (line, last_use)
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut now = 1u64;
        for t in 1..40_000u64 {
            if t == 20_000 {
                let mut w = ByteWriter::new();
                caches[0].encode_state(&mut w);
                let bytes = w.into_bytes();
                let back = Cache::decode_state(
                    &mut ByteReader::new(&bytes),
                    (8, Organization::FullyAssociative),
                )
                .unwrap();
                caches.push(back);
            }
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let line = ((state >> 33) % 24) * 64;
            now = match (state >> 20) % 8 {
                0 => now,
                1 => now.saturating_sub((state >> 40) % 6),
                _ => now + 1,
            };
            let origin = if (state >> 10).is_multiple_of(4) {
                FillOrigin::Prefetch
            } else {
                FillOrigin::Demand
            };
            let resident = model.iter().position(|&(l, _)| l == line);
            let expect = if let Some(pos) = resident {
                model[pos].1 = now;
                None
            } else {
                let victim = (model.len() == 8).then(|| {
                    let &(l, _) = model.iter().min_by_key(|&&(l, ts)| (ts, l)).unwrap();
                    model.retain(|&(m, _)| m != l);
                    l
                });
                model.push((line, now));
                victim
            };
            for c in &mut caches {
                match c.probe(line, origin, now) {
                    ProbeOutcome::Hit { .. } => assert!(resident.is_some(), "hit at t={t}"),
                    ProbeOutcome::Miss => {
                        assert!(resident.is_none(), "miss at t={t}");
                        assert_eq!(c.fill(line, now), expect, "divergence at t={t}");
                    }
                    other => panic!("unexpected outcome {other:?}"),
                }
            }
        }
        assert_eq!(caches.len(), 2);
    }

    #[test]
    fn state_round_trips_through_the_codec() {
        for org in [
            Organization::FullyAssociative,
            Organization::SetAssociative { sets: 2 },
        ] {
            let mut c = Cache::new(4, org, 4, 64);
            // Leave behind resident lines, a pending MSHR, an eviction,
            // and nonzero stats/effect counters.
            for (i, addr) in [0x000u64, 0x040, 0x080, 0x0c0, 0x100].iter().enumerate() {
                c.probe(*addr, FillOrigin::Demand, i as u64);
                c.fill(*addr, i as u64);
            }
            c.probe(0x200, FillOrigin::Prefetch, 9);
            c.probe(0x000, FillOrigin::Demand, 10);

            let mut w = ByteWriter::new();
            c.encode_state(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let back = Cache::decode_state(&mut r, (4, org)).expect("own encoding must decode");
            r.expect_end().unwrap();

            // Canonical encoding: re-encoding the decoded cache is
            // byte-identical (this is what the state digest hashes).
            let mut w2 = ByteWriter::new();
            back.encode_state(&mut w2);
            assert_eq!(w2.into_bytes(), bytes);
            assert_eq!(back.stats(), c.stats());
            assert_eq!(back.effect(), c.effect());
            assert_eq!(back.resident_lines(), c.resident_lines());
            assert_eq!(back.mshrs_in_use(), c.mshrs_in_use());
        }
    }

    #[test]
    fn decode_then_run_behaves_like_the_original() {
        // Beyond byte-level round-tripping: a decoded cache must make the
        // same eviction decisions as the original it was captured from
        // (the rebuilt FA heap holds exactly one fresh entry per line).
        let mut c = Cache::new(4, Organization::FullyAssociative, 8, 64);
        for (i, addr) in [0x000u64, 0x040, 0x080, 0x0c0].iter().enumerate() {
            c.probe(*addr, FillOrigin::Demand, i as u64);
            c.fill(*addr, i as u64);
        }
        c.probe(0x040, FillOrigin::Demand, 50); // refresh 0x040
        let mut w = ByteWriter::new();
        c.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut back = Cache::decode_state(
            &mut ByteReader::new(&bytes),
            (4, Organization::FullyAssociative),
        )
        .unwrap();
        for t in 60..70u64 {
            let line = (t - 60) * 64 + 0x400;
            let a = {
                c.probe(line, FillOrigin::Demand, t);
                c.fill(line, t)
            };
            let b = {
                back.probe(line, FillOrigin::Demand, t);
                back.fill(line, t)
            };
            assert_eq!(a, b, "victim divergence at t={t}");
        }
    }

    #[test]
    fn decode_rejects_inconsistent_set_membership() {
        let mut c = Cache::new(4, Organization::SetAssociative { sets: 2 }, 4, 64);
        c.probe(0x000, FillOrigin::Demand, 1);
        c.fill(0x000, 1);
        let mut w = ByteWriter::new();
        c.encode_state(&mut w);
        let mut bytes = w.into_bytes();
        let len = bytes.len();
        // Layout tail: ..., set-member addr (8), evicted-unread len (8),
        // stats+effect (13×8). Flip a byte of the set-member address so it
        // no longer names a resident line: decoding must fail typed, not
        // panic.
        let member_pos = len - 13 * 8 - 8 - 8;
        bytes[member_pos] ^= 0xff;
        let mut r = ByteReader::new(&bytes);
        match Cache::decode_state(&mut r, (4, Organization::SetAssociative { sets: 2 })) {
            Err(DecodeError::Malformed { .. }) => {}
            other => panic!("expected malformed rejection, got {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_a_foreign_shape_and_an_overfull_set() {
        let org = Organization::SetAssociative { sets: 2 };
        let mut c = Cache::new(4, org, 4, 64);
        // Lines 0x000 and 0x080 share set 0 and fill its two ways.
        for (t, addr) in [0x000u64, 0x080].into_iter().enumerate() {
            c.probe(addr, FillOrigin::Demand, t as u64);
            c.fill(addr, t as u64);
        }
        let mut w = ByteWriter::new();
        c.encode_state(&mut w);
        let bytes = w.into_bytes();
        let decode =
            |bytes: &[u8], expected| Cache::decode_state(&mut ByteReader::new(bytes), expected);
        assert!(decode(&bytes, (4, org)).is_ok());
        // The configuration's shape is checked before storage is sized.
        for expected in [(8, org), (4, Organization::FullyAssociative)] {
            assert!(matches!(
                decode(&bytes, expected),
                Err(DecodeError::Malformed { .. })
            ));
        }
        // Halving the ways (header: capacity 8 B, tag 1, sets 8 B, then
        // ways) leaves set 0 with more lines than ways.
        let mut narrow = bytes.clone();
        narrow[17..25].copy_from_slice(&1u64.to_le_bytes());
        narrow[..8].copy_from_slice(&2u64.to_le_bytes());
        match decode(&narrow, (2, org)) {
            Err(DecodeError::Malformed { what }) => {
                assert!(what.contains("over its 1 ways"), "{what}")
            }
            other => panic!("expected an overfull-set rejection, got {other:?}"),
        }
    }
}
