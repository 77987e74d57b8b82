//! Dense keyed tables and a fast non-cryptographic hasher for the
//! simulator hot path.
//!
//! The cycle loop keys almost everything by values that are either
//! *dense* (monotonically allocated [`RequestId`](crate::RequestId)s,
//! small treelet ids) or cache-line addresses. `std`'s default SipHash
//! spends more time hashing such keys than the table operation itself
//! costs, so this module provides:
//!
//! - [`FxHasher`] — a hand-rolled rotate-xor-multiply hasher (the
//!   firefox/rustc "FxHash" construction) with [`FxHashMap`] /
//!   [`FxHashSet`] aliases for the residual true-hash cases. Hand-rolled
//!   rather than imported, per the crate's zero-dependency policy. Line
//!   addresses are 64-byte aligned, so a bare multiply leaves their low
//!   six hash bits zero; `finish` rotates the well-mixed high bits down
//!   to where `HashMap` takes its bucket index.
//! - [`IdWindow`] — a sliding window over monotonically allocated ids:
//!   O(1) insert/lookup/remove by direct indexing, iteration in id
//!   order for free (canonical encode order without sorting).
//! - [`CountTable`] — dense per-key counters with a sparse set of the
//!   nonzero keys and a cached maximum, so the majority vote is O(1).
//! - [`CountVec`] — a tiny linear-probe counter multiset for per-slot
//!   treelet counts (a warp holds at most 32 rays, so linear scans win).
//!
//! None of these structures define the simulator's architectural state
//! encoding: callers encode their *contents* in the same canonical
//! (sorted or id-ordered) form the previous `HashMap`-based code used,
//! so state digests are unaffected by the representation swap.

use crate::DecodeError;
use std::cell::Cell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of the FxHash rotate-xor-multiply round (the golden-ratio
/// constant used by rustc's hasher).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, non-cryptographic streaming hasher for in-memory tables.
///
/// Not DoS-resistant — only use for keys the simulator itself allocates
/// (request ids, line addresses, treelet ids), never attacker-controlled
/// input.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail) | (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    /// The hash with its high bits rotated down: `HashMap` indexes
    /// buckets by the low bits, which the multiply mixes least (and, for
    /// aligned keys, leaves zero). The rotation is rustc-hash 2's.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

/// A sliding-window table keyed by monotonically allocated `u64` ids.
///
/// Ids are allocated in increasing order and removed once completed, so
/// live ids cluster in a window `[base, base + slots.len())`. Lookups
/// index directly into that window; removal compacts the window head so
/// memory tracks the span of *live* ids, not the total ever allocated.
/// Iteration yields entries in ascending id order, which is exactly the
/// canonical order the state codec wants.
#[derive(Debug, Clone, Default)]
pub struct IdWindow<V> {
    base: u64,
    slots: VecDeque<Option<V>>,
    live: usize,
}

impl<V> IdWindow<V> {
    /// An empty window.
    pub fn new() -> IdWindow<V> {
        IdWindow {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Inserts `id → value`, returning the previous value if `id` was
    /// already present.
    ///
    /// # Panics
    ///
    /// Panics if `id` precedes an id already compacted away (ids must be
    /// allocated monotonically; re-inserting an old id after later ids
    /// were removed past it would corrupt the window).
    pub fn insert(&mut self, id: u64, value: V) -> Option<V> {
        if self.slots.is_empty() {
            self.base = id;
        }
        assert!(id >= self.base, "IdWindow ids must not move backwards");
        let idx = (id - self.base) as usize;
        while self.slots.len() <= idx {
            self.slots.push_back(None);
        }
        let prev = self.slots[idx].replace(value);
        if prev.is_none() {
            self.live += 1;
        }
        prev
    }

    /// Looks up `id`.
    pub fn get(&self, id: u64) -> Option<&V> {
        let idx = id.checked_sub(self.base)? as usize;
        self.slots.get(idx)?.as_ref()
    }

    /// Removes and returns the value under `id`.
    pub fn remove(&mut self, id: u64) -> Option<V> {
        let idx = id.checked_sub(self.base)? as usize;
        let taken = self.slots.get_mut(idx)?.take();
        if taken.is_some() {
            self.live -= 1;
            while let Some(None) = self.slots.front() {
                self.slots.pop_front();
                self.base += 1;
            }
        }
        taken
    }

    /// True if `id` is live.
    pub fn contains(&self, id: u64) -> bool {
        self.get(id).is_some()
    }

    /// Iterates live entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        let base = self.base;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, slot)| slot.as_ref().map(|v| (base + i as u64, v)))
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.base = 0;
        self.live = 0;
    }
}

/// Ids a decoded [`IdWindow`] may span beyond one per live entry.
///
/// A window holds one slot per id from its oldest live id to its newest,
/// so decoding ids from a file sizes memory by the file's word: two ids
/// 2^40 apart would pad terabytes. A run's window spans the ids issued
/// while its oldest request is in flight, a few hundred cycles' worth;
/// a million ids more than the entries the file pays for is far beyond
/// that and at most a few tens of MB of padding.
const DECODED_WINDOW_SLACK: u64 = 1 << 20;

/// Refuses decoded live ids running from `first` to `last`, `live` of
/// them, whose [`IdWindow`] would span more than `live` plus 2^20 ids:
/// nothing the file holds justifies the padding. Checked before any insert, so a crafted checkpoint is a
/// typed error, not an allocation failure.
///
/// # Errors
///
/// [`DecodeError::Malformed`] naming the span.
pub fn check_decoded_window(first: u64, last: u64, live: usize) -> Result<(), DecodeError> {
    let span = last.saturating_sub(first).saturating_add(1);
    if span > (live as u64).saturating_add(DECODED_WINDOW_SLACK) {
        return Err(DecodeError::malformed(format!(
            "request ids {first}..={last} span {span} ids for {live} live entries"
        )));
    }
    Ok(())
}

/// Dense per-key counters (keys are small `u32`s, e.g. treelet ids) with
/// a sparse set of the nonzero keys and a cached maximum.
///
/// `increment`/`decrement` are O(1); iteration visits only nonzero keys,
/// so scans cost O(live treelets), not O(all treelets) and not a hash
/// walk. Decrementing to zero removes the key from the sparse set —
/// mirroring the old `HashMap` code, which removed zero entries — so the
/// canonical sorted encoding of the nonzero pairs is byte-for-byte what
/// `encode_counts` produced before.
///
/// [`CountTable::max`] answers the majority vote. Once queried, the table
/// keeps its leader current: increments update it in O(1), and
/// decrementing the leader only marks it stale, so the next query
/// rescans. The leader starts stale, so a table nobody queries (a run
/// without a voter) neither tracks it nor ever rescans.
#[derive(Debug, Clone)]
pub struct CountTable {
    counts: Vec<u32>,
    /// Nonzero keys in arbitrary order.
    nonzero: Vec<u32>,
    /// `pos[key]` = index of `key` in `nonzero` (valid only while
    /// `counts[key] > 0`).
    pos: Vec<u32>,
    /// The `(key, count)` maximum, unless `leader_stale` is set.
    leader: Cell<Option<(u32, u32)>>,
    /// Set until the first query and whenever the leader is decremented;
    /// [`CountTable::max`] then rescans.
    leader_stale: Cell<bool>,
}

impl Default for CountTable {
    fn default() -> CountTable {
        CountTable::with_key_capacity(0)
    }
}

/// `true` when `(key, count)` ranks above `other` in the vote order:
/// higher count first, then lower key.
fn outranks((key, count): (u32, u32), other: Option<(u32, u32)>) -> bool {
    other.is_none_or(|(k, c)| count > c || (count == c && key < k))
}

impl CountTable {
    /// An empty table sized for keys `< keys` without reallocation.
    pub fn with_key_capacity(keys: usize) -> CountTable {
        CountTable {
            counts: vec![0; keys],
            nonzero: Vec::new(),
            pos: vec![0; keys],
            leader: Cell::new(None),
            leader_stale: Cell::new(true),
        }
    }

    /// Records that `key` now holds `count` after an increase.
    fn raise(&mut self, key: u32, count: u32) {
        if !self.leader_stale.get() && outranks((key, count), self.leader.get()) {
            self.leader.set(Some((key, count)));
        }
    }

    fn ensure_key(&mut self, key: u32) {
        let needed = key as usize + 1;
        if self.counts.len() < needed {
            self.counts.resize(needed, 0);
            self.pos.resize(needed, 0);
        }
    }

    /// Adds one to `key`'s count.
    pub fn increment(&mut self, key: u32) {
        self.ensure_key(key);
        let k = key as usize;
        if self.counts[k] == 0 {
            self.pos[k] = self.nonzero.len() as u32;
            self.nonzero.push(key);
        }
        self.counts[k] += 1;
        self.raise(key, self.counts[k]);
    }

    /// Adds `n` to `key`'s count (no-op for `n == 0`) — the bulk form
    /// the state decoder uses to rebuild a table from encoded pairs.
    pub fn add(&mut self, key: u32, n: u32) {
        if n == 0 {
            return;
        }
        self.ensure_key(key);
        let k = key as usize;
        if self.counts[k] == 0 {
            self.pos[k] = self.nonzero.len() as u32;
            self.nonzero.push(key);
        }
        self.counts[k] += n;
        self.raise(key, self.counts[k]);
    }

    /// Subtracts one from `key`'s count.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the count is already zero (the caller
    /// tracks residency; a mismatch is a simulator bug).
    pub fn decrement(&mut self, key: u32) {
        let k = key as usize;
        debug_assert!(k < self.counts.len() && self.counts[k] > 0);
        self.counts[k] -= 1;
        if self.leader.get().is_some_and(|(leader, _)| leader == key) {
            self.leader_stale.set(true);
        }
        if self.counts[k] == 0 {
            let at = self.pos[k] as usize;
            self.nonzero.swap_remove(at);
            if let Some(&moved) = self.nonzero.get(at) {
                self.pos[moved as usize] = at as u32;
            }
        }
    }

    /// `key`'s count (zero for never-seen keys).
    pub fn get(&self, key: u32) -> u32 {
        self.counts.get(key as usize).copied().unwrap_or(0)
    }

    /// Number of keys with a nonzero count.
    pub fn len_nonzero(&self) -> usize {
        self.nonzero.len()
    }

    /// True when every count is zero.
    pub fn is_empty(&self) -> bool {
        self.nonzero.is_empty()
    }

    /// Iterates `(key, count)` over nonzero keys in arbitrary order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.nonzero
            .iter()
            .map(move |&k| (k, self.counts[k as usize]))
    }

    /// The `(key, count)` pair with the highest count, the lowest key
    /// among equal counts; `None` when every count is zero.
    ///
    /// O(1) unless this is the first query or the leader was
    /// decremented since the last one, in which case this rescans the
    /// nonzero keys once.
    pub fn max(&self) -> Option<(u32, u32)> {
        if self.leader_stale.replace(false) {
            let mut best = None;
            for pair in self.iter_nonzero() {
                if outranks(pair, best) {
                    best = Some(pair);
                }
            }
            self.leader.set(best);
        }
        self.leader.get()
    }

    /// Nonzero `(key, count)` pairs sorted by key — the canonical
    /// encoding order.
    pub fn sorted_pairs(&self) -> Vec<(u32, u32)> {
        let mut pairs: Vec<(u32, u32)> = self.iter_nonzero().collect();
        pairs.sort_unstable();
        pairs
    }

    /// Resets every count to zero, keeping capacity.
    pub fn clear(&mut self) {
        for &k in &self.nonzero {
            self.counts[k as usize] = 0;
        }
        self.nonzero.clear();
        self.leader.set(None);
    }
}

/// A tiny counter multiset held in a linear vector — for per-warp-slot
/// treelet counts, where at most a warp's worth of distinct keys are
/// ever live and a linear scan beats any hash.
#[derive(Debug, Clone, Default)]
pub struct CountVec {
    entries: Vec<(u32, u32)>,
}

impl CountVec {
    /// An empty multiset with room for `cap` distinct keys.
    pub fn with_capacity(cap: usize) -> CountVec {
        CountVec {
            entries: Vec::with_capacity(cap),
        }
    }

    /// Adds one to `key`'s count.
    pub fn increment(&mut self, key: u32) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == key) {
            e.1 += 1;
        } else {
            self.entries.push((key, 1));
        }
    }

    /// Adds `n` to `key`'s count (no-op for `n == 0`) — the bulk form
    /// the state decoder uses to rebuild a multiset from encoded pairs.
    pub fn add(&mut self, key: u32, n: u32) {
        if n == 0 {
            return;
        }
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == key) {
            e.1 += n;
        } else {
            self.entries.push((key, n));
        }
    }

    /// Subtracts one from `key`'s count, dropping the entry at zero.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `key` has no count.
    pub fn decrement(&mut self, key: u32) {
        let at = self.entries.iter().position(|e| e.0 == key);
        debug_assert!(at.is_some(), "decrement of absent key {key}");
        if let Some(at) = at {
            self.entries[at].1 -= 1;
            if self.entries[at].1 == 0 {
                self.entries.swap_remove(at);
            }
        }
    }

    /// `key`'s count (zero when absent).
    pub fn get(&self, key: u32) -> u32 {
        self.entries.iter().find(|e| e.0 == key).map_or(0, |e| e.1)
    }

    /// True when every count is zero.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(key, count)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.entries.iter().copied()
    }

    /// Nonzero `(key, count)` pairs sorted by key — the canonical
    /// encoding order.
    pub fn sorted_pairs(&self) -> Vec<(u32, u32)> {
        let mut pairs = self.entries.clone();
        pairs.sort_unstable();
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn fx_hasher_is_deterministic_and_spreads_keys() {
        let build = FxBuildHasher::default();
        let a = build.hash_one(0x1234_5678_9abc_def0u64);
        let b = build.hash_one(0x1234_5678_9abc_def0u64);
        assert_eq!(a, b);
        let h1 = build.hash_one(0x1_0000u64);
        let h2 = build.hash_one(0x1_0040u64);
        assert_ne!(h1, h2);
        // Byte-stream hashing covers the non-word tail.
        let h3 = build.hash_one("abc");
        let h4 = build.hash_one("abd");
        assert_ne!(h3, h4);
    }

    #[test]
    fn fx_hash_spreads_line_aligned_keys() {
        // `HashMap` picks the bucket from the hash's low bits: 1,024
        // consecutive 64-byte lines must reach at least half of 2,048
        // buckets, not one in 64 of them.
        let build = FxBuildHasher::default();
        let buckets: HashSet<u64> = (0..1024u64)
            .map(|i| build.hash_one(0x4000_0000 + i * 64) & 2047)
            .collect();
        assert!(buckets.len() >= 512, "{} distinct buckets", buckets.len());
    }

    #[test]
    fn fx_map_behaves_like_a_map() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i * 64, i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(500 * 64)), Some(&500));
        assert_eq!(m.remove(&(500 * 64)), Some(500));
        assert_eq!(m.len(), 999);
    }

    #[test]
    fn id_window_inserts_and_compacts() {
        let mut w: IdWindow<&'static str> = IdWindow::new();
        assert!(w.is_empty());
        assert_eq!(w.insert(10, "a"), None);
        assert_eq!(w.insert(12, "b"), None);
        assert_eq!(w.insert(11, "c"), None);
        assert_eq!(w.len(), 3);
        assert_eq!(w.get(11), Some(&"c"));
        assert_eq!(w.get(9), None);
        assert_eq!(w.get(13), None);
        // Removing the head compacts the window base forward.
        assert_eq!(w.remove(10), Some("a"));
        assert_eq!(w.remove(10), None);
        assert_eq!(w.len(), 2);
        assert_eq!(w.get(11), Some(&"c"));
        // Out-of-order removal leaves holes that compact later.
        assert_eq!(w.remove(12), Some("b"));
        assert_eq!(w.remove(11), Some("c"));
        assert!(w.is_empty());
        // After full drain, a fresh (larger) id restarts the window.
        assert_eq!(w.insert(100, "d"), None);
        assert_eq!(w.get(100), Some(&"d"));
    }

    #[test]
    fn id_window_iterates_in_id_order() {
        let mut w = IdWindow::new();
        for id in [3u64, 4, 7, 9] {
            w.insert(id, id * 2);
        }
        w.remove(4);
        let got: Vec<(u64, u64)> = w.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(got, vec![(3, 6), (7, 14), (9, 18)]);
    }

    #[test]
    fn id_window_replace_returns_previous() {
        let mut w = IdWindow::new();
        assert_eq!(w.insert(5, 1), None);
        assert_eq!(w.insert(5, 2), Some(1));
        assert_eq!(w.len(), 1);
        assert_eq!(w.remove(5), Some(2));
    }

    #[test]
    #[should_panic(expected = "move backwards")]
    fn id_window_rejects_backwards_ids() {
        let mut w = IdWindow::new();
        w.insert(10, ());
        w.remove(10);
        w.insert(20, ());
        w.insert(5, ());
    }

    #[test]
    fn count_table_counts_and_tracks_nonzero() {
        let mut t = CountTable::with_key_capacity(4);
        t.increment(2);
        t.increment(2);
        t.increment(7); // beyond initial capacity: grows
        assert_eq!(t.get(2), 2);
        assert_eq!(t.get(7), 1);
        assert_eq!(t.get(0), 0);
        assert_eq!(t.len_nonzero(), 2);
        t.decrement(2);
        t.decrement(2);
        assert_eq!(t.get(2), 0);
        assert_eq!(t.sorted_pairs(), vec![(7, 1)]);
        t.decrement(7);
        assert!(t.is_empty());
    }

    #[test]
    fn count_table_sorted_pairs_match_hashmap_encoding_order() {
        let mut t = CountTable::default();
        let mut reference = std::collections::HashMap::new();
        for key in [9u32, 1, 5, 9, 5, 5] {
            t.increment(key);
            *reference.entry(key).or_insert(0u32) += 1;
        }
        let mut expect: Vec<(u32, u32)> = reference.into_iter().collect();
        expect.sort_unstable();
        assert_eq!(t.sorted_pairs(), expect);
    }

    #[test]
    fn count_vec_mirrors_count_table() {
        let mut v = CountVec::with_capacity(8);
        let mut t = CountTable::default();
        for key in [3u32, 3, 1, 8, 8, 8] {
            v.increment(key);
            t.increment(key);
        }
        assert_eq!(v.sorted_pairs(), t.sorted_pairs());
        v.decrement(8);
        t.decrement(8);
        v.decrement(1);
        t.decrement(1);
        assert_eq!(v.get(1), 0);
        assert_eq!(v.sorted_pairs(), t.sorted_pairs());
    }
}
