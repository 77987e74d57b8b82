//! The full memory hierarchy: per-SM L1 caches, a shared L2, and
//! multi-channel DRAM, advanced cycle by cycle in the core clock domain.
//!
//! Matches the paper's Table 1 configuration by default: 64 KB fully
//! associative LRU L1 at 20 cycles, 3 MB 16-way LRU L2 at 160 cycles,
//! 1365 MHz core / 3500 MHz memory clocks, 4 DRAM channels with a 256-byte
//! partition stride.

use crate::cache::{
    decode_origin, encode_origin, Cache, CacheStats, FillOrigin, Organization, PrefetchEffect,
    ProbeOutcome,
};
use crate::codec::{ByteReader, ByteWriter, DecodeError};
use crate::dram::{Dram, DramConfig};
use crate::table::{check_decoded_window, IdWindow};
use rt_rng::{Rng, SmallRng};
use std::collections::VecDeque;

/// Unique identifier of an accepted memory access.
pub type RequestId = u64;

/// What kind of data a request fetches (for latency accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A BVH node record.
    Node,
    /// Triangle (primitive) data.
    Triangle,
    /// Prefetcher metadata (the node-to-treelet mapping table).
    Meta,
    /// A prefetch of any data.
    Prefetch,
}

impl AccessKind {
    /// Canonical snapshot tag byte (also the sort key for encoding the
    /// per-kind latency map deterministically).
    pub fn tag(self) -> u8 {
        match self {
            AccessKind::Node => 0,
            AccessKind::Triangle => 1,
            AccessKind::Meta => 2,
            AccessKind::Prefetch => 3,
        }
    }

    /// Inverse of [`AccessKind::tag`]; unknown tags are a typed decode
    /// error, never a panic.
    pub fn from_tag(t: u8) -> Result<AccessKind, DecodeError> {
        match t {
            0 => Ok(AccessKind::Node),
            1 => Ok(AccessKind::Triangle),
            2 => Ok(AccessKind::Meta),
            3 => Ok(AccessKind::Prefetch),
            t => Err(DecodeError::malformed(format!(
                "unknown access kind tag {t}"
            ))),
        }
    }
}

/// Result of issuing an access this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Issue {
    /// L1 hit; the completion will be delivered after the L1 latency.
    Hit(RequestId),
    /// Miss or merged with an in-flight fetch; completion delivered when
    /// the line arrives.
    Pending(RequestId),
    /// A prefetch that found its line already present or in flight and
    /// was dropped.
    PrefetchDropped,
    /// Resources (MSHRs) are exhausted; retry on a later cycle.
    Retry,
}

impl Issue {
    /// The request id, if the access was accepted.
    pub fn request_id(&self) -> Option<RequestId> {
        match self {
            Issue::Hit(id) | Issue::Pending(id) => Some(*id),
            _ => None,
        }
    }
}

/// Deterministic, seeded fault injection for robustness testing.
///
/// Faults perturb *timing only*: latency spikes on the L1→L2 hop, delayed
/// DRAM sends, and (for livelock testing) a swallowed DRAM response. The
/// functional result of a simulation — which lines are fetched, what the
/// traversal computes — is unchanged; only cycle counts move. All faults
/// draw from one RNG seeded with `seed`, so a faulty run is exactly
/// reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjection {
    /// Seed for the fault RNG.
    pub seed: u64,
    /// Probability that an L1-miss hop to the L2 suffers an extra delay.
    pub spike_probability: f64,
    /// Extra core cycles added when a spike fires.
    pub spike_cycles: u64,
    /// Probability that a DRAM send is deferred.
    pub dram_delay_probability: f64,
    /// Extra core cycles a deferred DRAM send waits before issuing.
    pub dram_delay_cycles: u64,
    /// Swallow the Nth (0-based) new DRAM send entirely: the line is
    /// marked in flight but DRAM never answers, wedging every waiter —
    /// a deterministic livelock for exercising the watchdog.
    pub drop_dram_response: Option<u64>,
}

impl FaultInjection {
    /// A storm of latency faults (no dropped responses): 20% of L2 hops
    /// spike by 200 cycles, 10% of DRAM sends stall 400 cycles.
    pub fn latency_storm(seed: u64) -> Self {
        FaultInjection {
            seed,
            spike_probability: 0.2,
            spike_cycles: 200,
            dram_delay_probability: 0.1,
            dram_delay_cycles: 400,
            drop_dram_response: None,
        }
    }

    /// No latency faults, but the `n`th new DRAM send is swallowed —
    /// a guaranteed livelock once any ray needs that line.
    pub fn drop_nth_dram_send(seed: u64, n: u64) -> Self {
        FaultInjection {
            seed,
            spike_probability: 0.0,
            spike_cycles: 0,
            dram_delay_probability: 0.0,
            dram_delay_cycles: 0,
            drop_dram_response: Some(n),
        }
    }
}

/// Request-conservation audit of a [`MemorySystem`].
///
/// Every request id handed out by [`MemorySystem::access`] must receive
/// exactly one completion. The system counts issues and completions as it
/// runs (always, in every build); this report exposes the tallies so
/// MSHR leaks (a request issued but never answered) and double responses
/// show up as arithmetic instead of silent hangs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Request ids allocated.
    pub issued: u64,
    /// Completions delivered (including silently-completed L2 prefetches).
    pub completed: u64,
    /// Requests still in flight.
    pub outstanding: usize,
    /// Completions for a request that was already completed — always a
    /// bug in the hierarchy.
    pub double_completions: u64,
    /// DRAM responses swallowed by fault injection.
    pub dropped_responses: u64,
}

impl AuditReport {
    /// `true` when the books balance: no double completions, no faulted
    /// drops, and every issued request either completed or is still
    /// legitimately in flight.
    pub fn is_clean(&self) -> bool {
        self.double_completions == 0
            && self.dropped_responses == 0
            && self.issued == self.completed + self.outstanding as u64
    }
}

/// Memory hierarchy configuration (paper Table 1 defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemConfig {
    /// Cache line size in bytes.
    pub line_bytes: u64,
    /// L1 capacity in lines (per SM).
    pub l1_lines: usize,
    /// L1 MSHR entries (per SM).
    pub l1_mshrs: usize,
    /// L1 hit latency in core cycles.
    pub l1_latency: u64,
    /// L2 capacity in lines (shared).
    pub l2_lines: usize,
    /// L2 sets (ways = lines / sets).
    pub l2_sets: u64,
    /// L2 MSHR entries.
    pub l2_mshrs: usize,
    /// L2 access latency in core cycles (includes interconnect).
    pub l2_latency: u64,
    /// Number of L2 memory partitions (the paper's L2 is "divided into
    /// multiple memory partitions"); each partition services probes
    /// independently.
    pub l2_partitions: usize,
    /// Address interleave between partitions, bytes.
    pub l2_partition_stride: u64,
    /// L2 probes serviced per partition per core cycle.
    pub l2_ports: usize,
    /// Core / interconnect / L2 clock in MHz.
    pub core_clock_mhz: u64,
    /// Memory clock in MHz.
    pub mem_clock_mhz: u64,
    /// DRAM parameters.
    pub dram: DramConfig,
    /// Optional deterministic fault injection (None = faithful timing).
    pub fault_injection: Option<FaultInjection>,
}

impl MemConfig {
    /// The paper's Table 1 configuration.
    pub fn paper_default() -> Self {
        MemConfig {
            line_bytes: 64,
            l1_lines: 1024, // 64 KB
            l1_mshrs: 64,
            l1_latency: 20,
            l2_lines: 49_152, // 3 MB
            l2_sets: 3_072,   // 16-way
            l2_mshrs: 1_024,
            l2_latency: 160,
            l2_partitions: 4,
            l2_partition_stride: 256,
            l2_ports: 1,
            core_clock_mhz: 1_365,
            mem_clock_mhz: 3_500,
            dram: DramConfig::paper_default(),
            fault_injection: None,
        }
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig::paper_default()
    }
}

/// Latency histogram with fixed-width bins (plus an overflow bin),
/// supporting mean and percentile queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Bin width in cycles.
    bin_cycles: u64,
    /// Counts per bin; the last bin collects overflows.
    bins: Vec<u64>,
    count: u64,
    total: u64,
}

impl LatencyHistogram {
    /// 64 bins of 64 cycles each covers the 0–4096-cycle range the RT
    /// unit's loads land in; slower completions go to the overflow bin.
    fn new() -> Self {
        LatencyHistogram {
            bin_cycles: 64,
            bins: vec![0; 65],
            count: 0,
            total: 0,
        }
    }

    fn record(&mut self, latency: u64) {
        let bin = ((latency / self.bin_cycles) as usize).min(self.bins.len() - 1);
        self.bins[bin] += 1;
        self.count += 1;
        self.total += latency;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in cycles (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Latency at percentile `p`, reported as the upper bound of the
    /// containing bin (0.0 when empty).
    ///
    /// `p` is clamped to `[0, 100]` — library code stays panic-free, so a
    /// caller asking for `p101` gets the maximum and `p-5` the minimum.
    pub fn percentile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 100.0);
        if self.count == 0 {
            return 0.0;
        }
        let target = (self.count as f64 * p / 100.0).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= target {
                return ((i + 1) as u64 * self.bin_cycles) as f64;
            }
        }
        (self.bins.len() as u64 * self.bin_cycles) as f64
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// Aggregate latency / traffic statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemStats {
    /// Completion latency histograms, indexed by [`AccessKind::tag`].
    latency: [Option<LatencyHistogram>; 4],
    /// Lines transferred from L2 toward an L1 (hits and miss fills).
    pub l2_to_l1_lines: u64,
    /// Lines transferred from DRAM into L2.
    pub dram_to_l2_lines: u64,
}

impl MemStats {
    /// Mean completion latency of requests of `kind`, in core cycles.
    pub fn mean_latency(&self, kind: AccessKind) -> f64 {
        self.latency[kind.tag() as usize]
            .as_ref()
            .map_or(0.0, LatencyHistogram::mean)
    }

    /// Number of completed requests of `kind`.
    pub fn completed(&self, kind: AccessKind) -> u64 {
        self.latency[kind.tag() as usize]
            .as_ref()
            .map_or(0, LatencyHistogram::count)
    }

    /// The latency histogram of `kind`, if any request of that kind
    /// completed.
    pub fn latency_histogram(&self, kind: AccessKind) -> Option<&LatencyHistogram> {
        self.latency[kind.tag() as usize].as_ref()
    }

    fn record(&mut self, kind: AccessKind, latency: u64) {
        self.latency[kind.tag() as usize]
            .get_or_insert_with(LatencyHistogram::new)
            .record(latency);
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// Deliver an L1-hit completion.
    L1HitDone { sm: usize, req: RequestId },
    /// An L1 miss (or direct L2 prefetch) reaches the L2 probe queue.
    L2Arrive {
        who: L2Requester,
        line: u64,
        origin: FillOrigin,
    },
    /// An L2 hit (or DRAM fill) delivers the line into an L1.
    L1Fill { sm: usize, line: u64 },
    /// An L2 miss issues to DRAM.
    DramSend { line: u64 },
}

/// An event due at core cycle `at`; `seq` orders events due together.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    at: u64,
    seq: u64,
    event: Event,
}

/// Upper bound on the event ring's span in cycles. A configuration with
/// longer delays still works: those events wait in the overflow list.
const MAX_WHEEL_CYCLES: u64 = 1 << 14;

/// End of an event chain.
const NIL: u32 = u32::MAX;

/// A scheduled event and the next node of its bucket's chain.
#[derive(Debug, Clone, Copy)]
struct Node {
    s: Scheduled,
    next: u32,
}

/// One bucket's chain of nodes; `tail` is meaningful only when `head`
/// is not [`NIL`].
#[derive(Debug, Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
}

const EMPTY_CHAIN: Chain = Chain {
    head: NIL,
    tail: NIL,
};

/// Scheduled events, bucketed by the cycle they fire at.
///
/// A ring of per-cycle buckets covers cycles `now..now + len`. Each
/// bucket chains its events in `seq` order, so firing bucket by bucket
/// yields `(at, seq)` order. The bucket of `now`, the last cycle fired,
/// stays open: an event scheduled for the current cycle after it fired
/// goes first on the next tick. The chains run through one node slab
/// with a free list, so scheduling allocates only when more events are
/// pending than ever before.
///
/// Events beyond the ring wait in `far`, sorted by `(at, seq)`, and move
/// into their bucket as soon as the ring reaches them, before anything
/// else can be scheduled there. The ring spans the longest delay the
/// configuration schedules (up to [`MAX_WHEEL_CYCLES`]), so only decoded
/// events ever use `far`.
#[derive(Debug)]
struct EventWheel {
    /// Power-of-two ring; cycle `t`'s bucket is `t & (len - 1)`.
    buckets: Vec<Chain>,
    nodes: Vec<Node>,
    /// Head of the free-node list.
    free: u32,
    /// The open bucket's cycle. Ring events are due in `now..now + len`;
    /// decoded events already overdue sit, in order, in the open bucket.
    now: u64,
    /// Events in the ring.
    pending: usize,
    /// Events due at `now + len` or later, sorted by `(at, seq)`.
    far: Vec<Scheduled>,
}

impl EventWheel {
    /// An empty wheel at cycle `now` whose ring covers delays up to
    /// `horizon` cycles, counted from the open bucket's cycle or the one
    /// after it (events fired from a leftover open bucket schedule from
    /// the next cycle).
    fn new(now: u64, horizon: u64) -> EventWheel {
        let len = (horizon.min(MAX_WHEEL_CYCLES) + 2).next_power_of_two();
        EventWheel {
            buckets: vec![EMPTY_CHAIN; len as usize],
            nodes: Vec::new(),
            free: NIL,
            now,
            pending: 0,
            far: Vec::new(),
        }
    }

    /// A wheel at cycle `now` holding `events`, in any order (a stable
    /// sort by `(at, seq)` puts each cycle's events in `seq` order).
    fn from_events(now: u64, horizon: u64, mut events: Vec<Scheduled>) -> EventWheel {
        events.sort_by_key(|s| (s.at, s.seq));
        let mut wheel = EventWheel::new(now, horizon);
        for s in events {
            wheel.push(s);
        }
        wheel
    }

    fn mask(&self) -> u64 {
        self.buckets.len() as u64 - 1
    }

    fn len(&self) -> usize {
        self.pending + self.far.len()
    }

    /// Adds `s`. Events due in one cycle must arrive in `seq` order: live
    /// scheduling allocates increasing `seq`s, and decode sorts first.
    fn push(&mut self, s: Scheduled) {
        if s.at.max(self.now) - self.now < self.buckets.len() as u64 {
            self.link(s);
        } else {
            let i = self.far.partition_point(|e| (e.at, e.seq) <= (s.at, s.seq));
            self.far.insert(i, s);
        }
    }

    /// Appends `s` to its bucket's chain (overdue events to the open
    /// bucket's).
    fn link(&mut self, s: Scheduled) {
        let bucket = (s.at.max(self.now) & self.mask()) as usize;
        let node = Node { s, next: NIL };
        let i = if self.free == NIL {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1).expect("fewer than 2^32 pending events")
        } else {
            let i = self.free;
            self.free = self.nodes[i as usize].next;
            self.nodes[i as usize] = node;
            i
        };
        let chain = &mut self.buckets[bucket];
        if chain.head == NIL {
            chain.head = i;
        } else {
            self.nodes[chain.tail as usize].next = i;
        }
        chain.tail = i;
        self.pending += 1;
    }

    /// Removes and returns the next event due at or before cycle `to`.
    fn pop_due(&mut self, to: u64) -> Option<Event> {
        loop {
            let bucket = (self.now & self.mask()) as usize;
            let head = self.buckets[bucket].head;
            if head != NIL {
                let node = self.nodes[head as usize];
                self.buckets[bucket].head = node.next;
                self.nodes[head as usize].next = self.free;
                self.free = head;
                self.pending -= 1;
                return Some(node.s.event);
            }
            if self.now >= to {
                return None;
            }
            let next = if self.pending > 0 {
                self.now + 1
            } else {
                self.far.first().map_or(to, |s| s.at.min(to))
            };
            self.move_to(next);
        }
    }

    /// Moves the open bucket forward to cycle `to`, or to the first
    /// pending event's cycle if that comes first, without firing anything.
    fn advance(&mut self, to: u64) {
        let next = self.next_at().map_or(to, |t| t.min(to));
        if next > self.now {
            self.move_to(next);
        }
    }

    /// Opens the bucket of cycle `now`, which no pending event precedes,
    /// and moves in the overflow events the ring now reaches.
    fn move_to(&mut self, now: u64) {
        self.now = now;
        if !self.far.is_empty() {
            let reach = now.saturating_add(self.buckets.len() as u64);
            let n = self.far.partition_point(|s| s.at < reach);
            let reached: Vec<Scheduled> = self.far.drain(..n).collect();
            for s in reached {
                self.link(s);
            }
        }
    }

    /// The earliest cycle any event is due at.
    fn next_at(&self) -> Option<u64> {
        if self.pending > 0 {
            let mask = self.mask();
            for d in 0..self.buckets.len() as u64 {
                let head = self.buckets[(self.now.wrapping_add(d) & mask) as usize].head;
                if head != NIL {
                    return Some(self.nodes[head as usize].s.at);
                }
            }
        }
        self.far.first().map(|s| s.at)
    }

    /// Every pending event, in `(at, seq)` order.
    fn sorted(&self) -> Vec<Scheduled> {
        let mut all = Vec::with_capacity(self.len());
        for chain in &self.buckets {
            let mut i = chain.head;
            while i != NIL {
                let node = &self.nodes[i as usize];
                all.push(node.s);
                i = node.next;
            }
        }
        all.extend_from_slice(&self.far);
        all.sort_by_key(|s| (s.at, s.seq));
        all
    }
}

/// The longest delay, in core cycles, `config` can schedule an event at.
fn event_horizon(config: &MemConfig) -> u64 {
    let (spike, dram_delay) = config
        .fault_injection
        .map_or((0, 0), |f| (f.spike_cycles, f.dram_delay_cycles));
    config
        .l1_latency
        .saturating_add(spike)
        .max(config.l2_latency)
        .max(dram_delay)
}

/// Who is waiting on an L2 line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum L2Requester {
    /// An L1 miss from this SM: the line is forwarded into its L1.
    Sm(usize),
    /// A prefetch targeting the L2 itself (no L1 fill).
    L2Prefetch,
}

/// The memory hierarchy. One instance serves all SMs.
///
/// Drive it by calling [`MemorySystem::access`] at most a few times per
/// SM per cycle, then [`MemorySystem::tick`] once per core cycle, then
/// draining completions with [`MemorySystem::drain_completed`].
#[derive(Debug)]
pub struct MemorySystem {
    config: MemConfig,
    cycle: u64,
    next_req: RequestId,
    next_seq: u64,
    /// Who waits for a pending line lives in its MSHR: an L1's MSHRs
    /// hold the request ids waiting for the line, the L2's the SMs
    /// waiting for it and whether the line went to DRAM.
    l1: Vec<Cache>,
    l2: Cache,
    dram: Dram,
    events: EventWheel,
    /// Per-partition L2 probe queues.
    l2_queues: Vec<VecDeque<(L2Requester, u64, FillOrigin)>>,
    /// Lines DRAM completed this tick (a buffer kept across ticks).
    dram_done: Vec<u64>,
    /// The waiters a fill hands back (a buffer kept across fills).
    woken: Vec<u64>,
    /// L1 fills delivered per SM. Derived state: not encoded, and zero
    /// after a decode.
    l1_fills: Vec<u64>,
    /// Issue metadata per live request, keyed by the monotonically
    /// allocated request id.
    meta: IdWindow<(AccessKind, u64)>,
    completed_out: Vec<Vec<RequestId>>,
    stats: MemStats,
    /// Fault-injection RNG (present iff faults are configured).
    fault_rng: Option<SmallRng>,
    /// New DRAM sends so far (the drop fault's index space).
    dram_sends: u64,
    /// Completions delivered (audit).
    audit_completed: u64,
    /// Completions for already-completed requests (audit; always a bug).
    audit_double_completions: u64,
    /// DRAM responses swallowed by fault injection (audit).
    audit_dropped: u64,
}

impl MemorySystem {
    /// Creates the hierarchy for `num_sms` streaming multiprocessors.
    ///
    /// # Panics
    ///
    /// Panics if `num_sms` is zero or the configuration is inconsistent.
    pub fn new(config: MemConfig, num_sms: usize) -> MemorySystem {
        assert!(num_sms > 0, "need at least one SM");
        let l1 = (0..num_sms)
            .map(|_| {
                Cache::new(
                    config.l1_lines,
                    Organization::FullyAssociative,
                    config.l1_mshrs,
                    config.line_bytes,
                )
            })
            .collect();
        let l2 = Cache::new(
            config.l2_lines,
            Organization::SetAssociative {
                sets: config.l2_sets,
            },
            config.l2_mshrs,
            config.line_bytes,
        );
        MemorySystem {
            l1,
            l2,
            dram: Dram::new(config.dram),
            config,
            cycle: 0,
            next_req: 0,
            next_seq: 0,
            events: EventWheel::new(0, event_horizon(&config)),
            l2_queues: (0..config.l2_partitions)
                .map(|_| VecDeque::with_capacity(64))
                .collect(),
            dram_done: Vec::new(),
            woken: Vec::new(),
            l1_fills: vec![0; num_sms],
            meta: IdWindow::new(),
            completed_out: vec![Vec::new(); num_sms],
            stats: MemStats::default(),
            fault_rng: config
                .fault_injection
                .map(|f| SmallRng::seed_from_u64(f.seed)),
            dram_sends: 0,
            audit_completed: 0,
            audit_double_completions: 0,
            audit_dropped: 0,
        }
    }

    /// Current core cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Cache line size.
    pub fn line_bytes(&self) -> u64 {
        self.config.line_bytes
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    fn schedule(&mut self, at: u64, event: Event) {
        self.events.push(Scheduled {
            at,
            seq: self.next_seq,
            event,
        });
        self.next_seq += 1;
    }

    /// Issues an access from `sm` for the line containing `addr`.
    ///
    /// `origin` distinguishes demand loads from prefetches (which may be
    /// dropped); `kind` labels the request for latency statistics.
    ///
    /// # Panics
    ///
    /// Panics if `sm` is out of range.
    pub fn access(&mut self, sm: usize, addr: u64, origin: FillOrigin, kind: AccessKind) -> Issue {
        let line = self.l1[sm].line_of(addr);
        let (outcome, mshr) = self.l1[sm].probe_mshr(addr, origin, self.cycle);
        match outcome {
            ProbeOutcome::Hit { .. } => {
                if origin == FillOrigin::Prefetch {
                    return Issue::PrefetchDropped;
                }
                let req = self.alloc_req(kind);
                self.schedule(
                    self.cycle + self.config.l1_latency,
                    Event::L1HitDone { sm, req },
                );
                Issue::Hit(req)
            }
            ProbeOutcome::PendingHit => {
                if origin == FillOrigin::Prefetch {
                    return Issue::PrefetchDropped;
                }
                let req = self.alloc_req(kind);
                self.l1[sm].add_waiter(mshr.expect("a pending hit names its MSHR"), req);
                Issue::Pending(req)
            }
            ProbeOutcome::Miss => {
                let req = self.alloc_req(kind);
                self.l1[sm].add_waiter(mshr.expect("a miss names its MSHR"), req);
                let spike = self.fault_spike();
                self.schedule(
                    self.cycle + self.config.l1_latency + spike,
                    Event::L2Arrive {
                        who: L2Requester::Sm(sm),
                        line,
                        origin,
                    },
                );
                Issue::Pending(req)
            }
            ProbeOutcome::NoMshr => Issue::Retry,
        }
    }

    /// L1 fills delivered to `sm` so far.
    ///
    /// Only a fill frees an L1 MSHR or makes a line resident, so a demand
    /// access that returned [`Issue::Retry`] keeps returning it until this
    /// count moves; see [`MemorySystem::repeat_retry`].
    pub fn l1_fills(&self, sm: usize) -> u64 {
        self.l1_fills[sm]
    }

    /// Repeats a demand access from `sm` to `addr` that returned
    /// [`Issue::Retry`], with no L1 fill to `sm` since (the
    /// [`MemorySystem::l1_fills`] count unchanged): counts the MSHR
    /// rejection the probe would count, without probing.
    ///
    /// # Panics
    ///
    /// Panics if `sm` is out of range.
    pub fn repeat_retry(&mut self, sm: usize, addr: u64) {
        self.l1[sm].repeat_rejection(addr);
    }

    fn alloc_req(&mut self, kind: AccessKind) -> RequestId {
        let req = self.next_req;
        self.next_req += 1;
        self.meta.insert(req, (kind, self.cycle));
        req
    }

    /// Issues a prefetch of the line containing `addr` directly into the
    /// shared L2, bypassing the L1s (an alternative prefetch destination
    /// that avoids L1 pollution). The line is installed when DRAM
    /// responds. No request id is allocated and no completion is
    /// delivered: nothing waits on an L2 prefetch.
    ///
    /// Returns whether the prefetch was issued: `false` if the line is
    /// already resident or in flight at the L2, in which case it is
    /// dropped (and the dropped probe counted).
    pub fn prefetch_l2(&mut self, addr: u64) -> bool {
        let line = self.l2.line_of(addr);
        if self.l2.contains(line) || self.l2.is_pending(line) {
            // Count the dropped probe for effectiveness accounting.
            let _ = self.l2.probe(line, FillOrigin::Prefetch, self.cycle);
            return false;
        }
        self.schedule(
            self.cycle,
            Event::L2Arrive {
                who: L2Requester::L2Prefetch,
                line,
                origin: FillOrigin::Prefetch,
            },
        );
        true
    }

    /// Rolls the fault RNG for an L1→L2 latency spike.
    fn fault_spike(&mut self) -> u64 {
        let Some(f) = self.config.fault_injection else {
            return 0;
        };
        if f.spike_probability <= 0.0 || f.spike_cycles == 0 {
            return 0;
        }
        let rng = self.fault_rng.as_mut().expect("fault rng present");
        if rng.gen_bool(f.spike_probability) {
            f.spike_cycles
        } else {
            0
        }
    }

    /// Rolls the fault RNG for a deferred DRAM send.
    fn fault_dram_delay(&mut self) -> u64 {
        let Some(f) = self.config.fault_injection else {
            return 0;
        };
        if f.dram_delay_probability <= 0.0 || f.dram_delay_cycles == 0 {
            return 0;
        }
        let rng = self.fault_rng.as_mut().expect("fault rng present");
        if rng.gen_bool(f.dram_delay_probability) {
            f.dram_delay_cycles
        } else {
            0
        }
    }

    /// Advances the hierarchy by one core cycle.
    pub fn tick(&mut self) {
        self.cycle += 1;
        // 1. Fire due events.
        while let Some(event) = self.events.pop_due(self.cycle) {
            self.handle_event(event);
        }
        // 2. Service each L2 partition's probe queue (bounded ports per
        // partition per cycle).
        for partition in 0..self.l2_queues.len() {
            'ports: for _ in 0..self.config.l2_ports {
                let Some(&(who, line, origin)) = self.l2_queues[partition].front() else {
                    break;
                };
                let (outcome, mshr) = self.l2.probe_mshr(line, origin, self.cycle);
                match outcome {
                    ProbeOutcome::Hit { .. } => {
                        self.l2_queues[partition].pop_front();
                        if let L2Requester::Sm(sm) = who {
                            self.stats.l2_to_l1_lines += 1;
                            self.schedule(
                                self.cycle + self.config.l2_latency,
                                Event::L1Fill { sm, line },
                            );
                        }
                    }
                    ProbeOutcome::PendingHit | ProbeOutcome::Miss => {
                        self.l2_queues[partition].pop_front();
                        if let L2Requester::Sm(sm) = who {
                            let mshr = mshr.expect("a pending hit or miss names its MSHR");
                            self.l2.add_waiter_once(mshr, sm as u64);
                        }
                        if outcome == ProbeOutcome::Miss {
                            self.schedule(
                                self.cycle + self.config.l2_latency,
                                Event::DramSend { line },
                            );
                        }
                    }
                    // Head-of-line stall in this partition; retry next
                    // cycle.
                    ProbeOutcome::NoMshr => break 'ports,
                }
            }
        }
        // 3. Drain DRAM completions.
        let mem_now = self.mem_cycles(self.cycle);
        let mut done = std::mem::take(&mut self.dram_done);
        self.dram.drain_completed_into(mem_now, &mut done);
        let mut woken = std::mem::take(&mut self.woken);
        for &line in &done {
            self.stats.dram_to_l2_lines += 1;
            woken.clear();
            self.l2.fill_waking(line, self.cycle, &mut woken);
            for &sm in &woken {
                self.stats.l2_to_l1_lines += 1;
                self.schedule(
                    self.cycle,
                    Event::L1Fill {
                        sm: sm as usize,
                        line,
                    },
                );
            }
        }
        self.woken = woken;
        self.dram_done = done;
    }

    fn handle_event(&mut self, event: Event) {
        match event {
            Event::L1HitDone { sm, req } => self.complete(sm, req),
            Event::L2Arrive { who, line, origin } => {
                let p = self.l2_partition_of(line);
                self.l2_queues[p].push_back((who, line, origin));
            }
            Event::L1Fill { sm, line } => {
                let mut woken = std::mem::take(&mut self.woken);
                woken.clear();
                self.l1[sm].fill_waking(line, self.cycle, &mut woken);
                self.l1_fills[sm] += 1;
                for &req in &woken {
                    self.complete(sm, req);
                }
                self.woken = woken;
            }
            Event::DramSend { line } => {
                let delay = self.fault_dram_delay();
                if delay > 0 {
                    self.schedule(self.cycle + delay, Event::DramSend { line });
                } else if self.l2.mark_sent(line) {
                    let send_index = self.dram_sends;
                    self.dram_sends += 1;
                    let dropped = self
                        .config
                        .fault_injection
                        .and_then(|f| f.drop_dram_response)
                        .is_some_and(|n| n == send_index);
                    if dropped {
                        // The line stays marked in flight but DRAM never
                        // answers: every waiter is wedged.
                        self.audit_dropped += 1;
                    } else {
                        let mem_now = self.mem_cycles(self.cycle);
                        self.dram.enqueue(line, line, mem_now);
                    }
                }
            }
        }
    }

    fn complete(&mut self, sm: usize, req: RequestId) {
        if let Some((kind, issued)) = self.meta.remove(req) {
            self.stats.record(kind, self.cycle - issued);
            self.audit_completed += 1;
        } else {
            // A completion for a request with no live metadata is a
            // second response — an MSHR/waiter-list bookkeeping bug.
            self.audit_double_completions += 1;
            debug_assert!(false, "double completion of request {req}");
        }
        self.completed_out[sm].push(req);
    }

    /// L2 partition servicing `line`.
    fn l2_partition_of(&self, line: u64) -> usize {
        ((line / self.config.l2_partition_stride) % self.l2_queues.len() as u64) as usize
    }

    /// Converts a core-cycle count into memory-clock cycles.
    pub fn mem_cycles(&self, core_cycles: u64) -> u64 {
        (core_cycles as u128 * self.config.mem_clock_mhz as u128
            / self.config.core_clock_mhz as u128) as u64
    }

    /// Requests completed for `sm` since the last drain.
    pub fn drain_completed(&mut self, sm: usize) -> Vec<RequestId> {
        std::mem::take(&mut self.completed_out[sm])
    }

    /// Moves the requests completed for `sm` since the last drain into
    /// `out` (cleared first). Both buffers keep their capacity, so a
    /// caller draining every cycle allocates nothing in steady state.
    pub fn drain_completed_into(&mut self, sm: usize, out: &mut Vec<RequestId>) {
        out.clear();
        std::mem::swap(out, &mut self.completed_out[sm]);
    }

    /// Smallest core cycle whose memory-clock conversion reaches
    /// `mem_cycle`.
    fn core_cycle_for_mem(&self, mem_cycle: u64) -> u64 {
        (mem_cycle as u128 * self.config.core_clock_mhz as u128)
            .div_ceil(self.config.mem_clock_mhz as u128) as u64
    }

    /// The earliest core cycle at which the hierarchy has internal work
    /// to do — a scheduled event firing or a DRAM completion becoming
    /// drainable — or `None` when nothing is scheduled at all.
    ///
    /// A tick that advances the clock *to* the returned cycle performs
    /// that work, so idle-skipping callers may jump at most to the cycle
    /// before it.
    pub fn next_event_cycle(&self) -> Option<u64> {
        let mut next = self.events.next_at();
        if let Some(mem_t) = self.dram.next_completion() {
            let core_t = self.core_cycle_for_mem(mem_t);
            next = Some(next.map_or(core_t, |n| n.min(core_t)));
        }
        next
    }

    /// `true` when ticking the hierarchy before [`Self::next_event_cycle`]
    /// would be a no-op: no queued L2 probes to service and no
    /// undelivered completions.
    pub fn can_skip_idle(&self) -> bool {
        self.l2_queues.iter().all(VecDeque::is_empty)
            && self.completed_out.iter().all(Vec::is_empty)
    }

    /// Advances the core clock directly to `cycle` without simulating the
    /// intervening cycles.
    ///
    /// The caller must ensure the skipped cycles are genuinely idle:
    /// [`can_skip_idle`](MemorySystem::can_skip_idle) holds and `cycle`
    /// is strictly before [`next_event_cycle`](MemorySystem::next_event_cycle).
    pub fn skip_idle_to(&mut self, cycle: u64) {
        debug_assert!(cycle >= self.cycle, "idle skip cannot rewind the clock");
        debug_assert!(self.can_skip_idle(), "idle skip with serviceable work");
        debug_assert!(
            self.next_event_cycle().is_none_or(|t| t > cycle),
            "idle skip past a scheduled event"
        );
        self.cycle = cycle;
        // Keep the ring aligned with the clock, so events scheduled from
        // here on land in it.
        self.events.advance(cycle);
    }

    /// `true` while any request is in flight anywhere in the hierarchy.
    pub fn busy(&self) -> bool {
        !self.meta.is_empty()
            || self.l2_queues.iter().any(|q| !q.is_empty())
            || self.dram.in_flight() > 0
            || self.events.len() > 0
    }

    /// Latency / traffic statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Request-conservation audit: issues vs completions vs in-flight.
    pub fn audit(&self) -> AuditReport {
        AuditReport {
            issued: self.next_req,
            completed: self.audit_completed,
            outstanding: self.meta.len(),
            double_completions: self.audit_double_completions,
            dropped_responses: self.audit_dropped,
        }
    }

    /// Number of requests in flight anywhere in the hierarchy.
    pub fn outstanding_requests(&self) -> usize {
        self.meta.len()
    }

    /// Ids of the in-flight requests, oldest first.
    pub fn outstanding_request_ids(&self) -> Vec<RequestId> {
        self.meta.iter().map(|(id, _)| id).collect()
    }

    /// Total entries queued across the L2 partitions.
    pub fn l2_queue_depth(&self) -> usize {
        self.l2_queues.iter().map(VecDeque::len).sum()
    }

    /// Requests waiting on an L1 fill, per SM.
    pub fn l1_waiter_counts(&self) -> Vec<usize> {
        self.l1
            .iter()
            .map(|cache| cache.waiting_lines().map(|(_, w)| w.len()).sum())
            .collect()
    }

    /// Demand/prefetch counters of one L1.
    pub fn l1_stats(&self, sm: usize) -> CacheStats {
        self.l1[sm].stats()
    }

    /// Summed L1 counters across SMs.
    pub fn l1_stats_total(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for c in &self.l1 {
            let s = c.stats();
            total.demand_hits_on_prefetch += s.demand_hits_on_prefetch;
            total.demand_hits_on_demand += s.demand_hits_on_demand;
            total.demand_pending_hits += s.demand_pending_hits;
            total.demand_misses += s.demand_misses;
            total.prefetch_probes += s.prefetch_probes;
            total.prefetch_misses += s.prefetch_misses;
            total.mshr_rejections += s.mshr_rejections;
            total.evictions += s.evictions;
        }
        total
    }

    /// L2 counters.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// MSHRs currently allocated across all L1s (MSHR pressure).
    pub fn l1_mshrs_in_use(&self) -> usize {
        self.l1.iter().map(Cache::mshrs_in_use).sum()
    }

    /// MSHRs currently allocated at the L2.
    pub fn l2_mshrs_in_use(&self) -> usize {
        self.l2.mshrs_in_use()
    }

    /// Sums the prefetch-effectiveness counters across all L1s *without*
    /// finalizing (still-unread prefetched lines are not yet classified
    /// as unused) — for mid-session snapshots.
    pub fn prefetch_effect_snapshot(&self) -> PrefetchEffect {
        let mut total = PrefetchEffect::default();
        for c in &self.l1 {
            let e = c.effect();
            total.too_late += e.too_late;
            total.late += e.late;
            total.timely += e.timely;
            total.early += e.early;
            total.unused += e.unused;
        }
        total
    }

    /// Finalizes and sums the prefetch-effectiveness classification across
    /// all L1s (call once, at end of simulation).
    pub fn finalize_prefetch_effect(&mut self) -> PrefetchEffect {
        let mut total = PrefetchEffect::default();
        for c in &mut self.l1 {
            let e = c.finalize_effect();
            total.too_late += e.too_late;
            total.late += e.late;
            total.timely += e.timely;
            total.early += e.early;
            total.unused += e.unused;
        }
        total
    }

    /// Finalizes the L2's prefetch-effectiveness classification (for runs
    /// that prefetch into the L2).
    pub fn finalize_l2_prefetch_effect(&mut self) -> PrefetchEffect {
        self.l2.finalize_effect()
    }

    /// DRAM device (utilization, per-channel counters).
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Mean DRAM data-bus utilization so far (Fig. 1a metric).
    pub fn dram_utilization(&self) -> f64 {
        let mem_now = self.mem_cycles(self.cycle);
        if mem_now == 0 {
            0.0
        } else {
            self.dram.utilization(mem_now)
        }
    }

    /// Serializes the complete hierarchy state — caches, MSHRs, event
    /// queue, DRAM queues, in-flight request metadata, statistics, audit
    /// counters, and the fault-injection RNG — into `w`.
    ///
    /// The encoding is canonical: hash maps are written in sorted key
    /// order and heaps as sorted entry lists, so identical architectural
    /// state always produces identical bytes (the property the per-epoch
    /// state digests rely on). Queues and waiter lists are written
    /// verbatim because their order is architecturally meaningful.
    pub fn encode_state(&self, w: &mut ByteWriter) {
        self.encode_head(w);
        self.encode_l1_waiters(w);
        self.encode_l2_waiters(w);
        self.encode_dram_pending(w);
        self.encode_tail(w);
    }

    /// The clock, caches, DRAM, events and L2 probe queues.
    fn encode_head(&self, w: &mut ByteWriter) {
        w.put_u64(self.cycle);
        w.put_u64(self.next_req);
        w.put_u64(self.next_seq);

        w.put_len(self.l1.len());
        for cache in &self.l1 {
            cache.encode_state(w);
        }
        self.l2.encode_state(w);
        self.dram.encode_state(w);

        // Live events as (at, seq, event) triples in (at, seq) order;
        // `seq` values are preserved so future events keep ordering
        // against `next_seq`.
        let live = self.events.sorted();
        w.put_len(live.len());
        for s in live {
            w.put_u64(s.at);
            w.put_u64(s.seq);
            encode_event(s.event, w);
        }

        w.put_len(self.l2_queues.len());
        for queue in &self.l2_queues {
            w.put_len(queue.len());
            for &(who, line, origin) in queue {
                encode_requester(who, w);
                w.put_u64(line);
                encode_origin(origin, w);
            }
        }
    }

    /// Every L1 MSHR with waiters, in (sm, line) order, with its request
    /// ids in arrival order.
    fn encode_l1_waiters(&self, w: &mut ByteWriter) {
        let total: usize = self.l1.iter().map(|c| c.waiting_lines().count()).sum();
        w.put_len(total);
        let mut lines: Vec<(u64, &[u64])> = Vec::new();
        for (sm, cache) in self.l1.iter().enumerate() {
            lines.clear();
            lines.extend(cache.waiting_lines());
            lines.sort_unstable_by_key(|&(line, _)| line);
            for &(line, reqs) in &lines {
                w.put_usize(sm);
                w.put_u64(line);
                w.put_len(reqs.len());
                for &req in reqs {
                    w.put_u64(req);
                }
            }
        }
    }

    /// Every L2 MSHR with waiting SMs, in line order.
    fn encode_l2_waiters(&self, w: &mut ByteWriter) {
        let mut lines: Vec<(u64, &[u64])> = self.l2.waiting_lines().collect();
        lines.sort_unstable_by_key(|&(line, _)| line);
        w.put_len(lines.len());
        for (line, sms) in lines {
            w.put_u64(line);
            w.put_len(sms.len());
            for &sm in sms {
                w.put_u64(sm);
            }
        }
    }

    /// The L2 MSHRs whose line went to DRAM, in line order.
    fn encode_dram_pending(&self, w: &mut ByteWriter) {
        let mut pending: Vec<u64> = self.l2.sent_lines().collect();
        pending.sort_unstable();
        w.put_len(pending.len());
        for line in pending {
            w.put_u64(line);
        }
    }

    /// Request metadata, completions, statistics, the fault RNG and the
    /// audit counters.
    fn encode_tail(&self, w: &mut ByteWriter) {
        // IdWindow iterates in ascending id order — already canonical.
        w.put_len(self.meta.len());
        for (req, &(kind, issued)) in self.meta.iter() {
            w.put_u64(req);
            w.put_u8(kind.tag());
            w.put_u64(issued);
        }

        w.put_len(self.completed_out.len());
        for out in &self.completed_out {
            w.put_len(out.len());
            for &req in out {
                w.put_u64(req);
            }
        }

        encode_mem_stats(&self.stats, w);

        match &self.fault_rng {
            None => w.put_bool(false),
            Some(rng) => {
                w.put_bool(true);
                for word in rng.state() {
                    w.put_u64(word);
                }
            }
        }
        w.put_u64(self.dram_sends);
        w.put_u64(self.audit_completed);
        w.put_u64(self.audit_double_completions);
        w.put_u64(self.audit_dropped);
    }

    /// Rebuilds a hierarchy from bytes produced by
    /// [`MemorySystem::encode_state`].
    ///
    /// `config` and `num_sms` come from the resuming run's configuration;
    /// the decoded shape must agree with them (L1 count, partition count,
    /// fault-RNG presence) or a typed [`DecodeError`] is returned. All
    /// reads are bounds-checked — corrupted input cannot panic.
    pub fn decode_state(
        r: &mut ByteReader<'_>,
        config: MemConfig,
        num_sms: usize,
    ) -> Result<MemorySystem, DecodeError> {
        let cycle = r.take_u64()?;
        let next_req = r.take_u64()?;
        let next_seq = r.take_u64()?;

        let n = r.take_len(1)?;
        if n != num_sms || num_sms == 0 {
            return Err(DecodeError::malformed(format!(
                "snapshot has {n} L1 caches but the configuration expects {num_sms}"
            )));
        }
        let mut l1 = Vec::with_capacity(n);
        for _ in 0..n {
            l1.push(Cache::decode_state(
                r,
                (config.l1_lines, Organization::FullyAssociative),
            )?);
        }
        let mut l2 = Cache::decode_state(
            r,
            (
                config.l2_lines,
                Organization::SetAssociative {
                    sets: config.l2_sets,
                },
            ),
        )?;
        let dram = Dram::decode_state(r)?;

        let n = r.take_len(17)?;
        let mut live = Vec::with_capacity(n);
        for _ in 0..n {
            let at = r.take_u64()?;
            let seq = r.take_u64()?;
            if seq >= next_seq {
                return Err(DecodeError::malformed(format!(
                    "event sequence {seq} not below next_seq {next_seq}"
                )));
            }
            let event = decode_event(r)?;
            live.push(Scheduled { at, seq, event });
        }
        let events = EventWheel::from_events(cycle, event_horizon(&config), live);

        let n = r.take_len(8)?;
        if n != config.l2_partitions {
            return Err(DecodeError::malformed(format!(
                "snapshot has {n} L2 partitions but the configuration expects {}",
                config.l2_partitions
            )));
        }
        let mut l2_queues = Vec::with_capacity(n);
        for _ in 0..n {
            let entries = r.take_len(10)?;
            let mut queue = VecDeque::with_capacity(entries);
            for _ in 0..entries {
                let who = decode_requester(r)?;
                let line = r.take_u64()?;
                let origin = decode_origin(r)?;
                queue.push_back((who, line, origin));
            }
            l2_queues.push(queue);
        }

        // Waiters and DRAM sends attach to the MSHRs the caches decoded.
        let n = r.take_len(24)?;
        for _ in 0..n {
            let sm = r.take_usize()?;
            if sm >= num_sms {
                return Err(DecodeError::malformed(format!(
                    "L1 waiter names SM {sm} of {num_sms}"
                )));
            }
            let line = r.take_u64()?;
            let reqs = r.take_len(8)?;
            let slot = waiter_slot(&l1[sm], line, reqs, "L1")?;
            for _ in 0..reqs {
                l1[sm].add_waiter(slot, r.take_u64()?);
            }
        }

        let n = r.take_len(16)?;
        for _ in 0..n {
            let line = r.take_u64()?;
            let sms = r.take_len(8)?;
            let slot = waiter_slot(&l2, line, sms, "L2")?;
            for _ in 0..sms {
                let sm = r.take_usize()?;
                if sm >= num_sms {
                    return Err(DecodeError::malformed(format!(
                        "L2 waiter names SM {sm} of {num_sms}"
                    )));
                }
                l2.add_waiter(slot, sm as u64);
            }
        }

        let n = r.take_len(8)?;
        for _ in 0..n {
            let line = r.take_u64()?;
            if !l2.mark_sent(line) {
                return Err(DecodeError::malformed(format!(
                    "DRAM-pending line {line:#x} has no L2 MSHR or is listed twice"
                )));
            }
        }

        let n = r.take_len(17)?;
        let mut meta: IdWindow<(AccessKind, u64)> = IdWindow::new();
        let mut prev_req: Option<RequestId> = None;
        let mut first_req = None;
        for _ in 0..n {
            let req = r.take_u64()?;
            if req >= next_req {
                return Err(DecodeError::malformed(format!(
                    "request id {req} not below next_req {next_req}"
                )));
            }
            // The id-window insert contract (and the canonical encoding)
            // require strictly increasing ids.
            if prev_req.is_some_and(|p| req <= p) {
                return Err(DecodeError::malformed(
                    "request metadata ids must be strictly increasing",
                ));
            }
            prev_req = Some(req);
            check_decoded_window(*first_req.get_or_insert(req), req, n)?;
            let kind = AccessKind::from_tag(r.take_u8()?)?;
            let issued = r.take_u64()?;
            meta.insert(req, (kind, issued));
        }

        let n = r.take_len(8)?;
        if n != num_sms {
            return Err(DecodeError::malformed(format!(
                "snapshot has {n} completion queues but the configuration expects {num_sms}"
            )));
        }
        let mut completed_out = Vec::with_capacity(n);
        for _ in 0..n {
            let reqs = r.take_len(8)?;
            let mut out = Vec::with_capacity(reqs);
            for _ in 0..reqs {
                out.push(r.take_u64()?);
            }
            completed_out.push(out);
        }

        let stats = decode_mem_stats(r)?;

        let fault_rng = if r.take_bool()? {
            let mut s = [0u64; 4];
            for word in &mut s {
                *word = r.take_u64()?;
            }
            Some(SmallRng::from_state(s))
        } else {
            None
        };
        if fault_rng.is_some() != config.fault_injection.is_some() {
            return Err(DecodeError::malformed(
                "fault-RNG presence does not match the configuration",
            ));
        }
        let dram_sends = r.take_u64()?;
        let audit_completed = r.take_u64()?;
        let audit_double_completions = r.take_u64()?;
        let audit_dropped = r.take_u64()?;

        Ok(MemorySystem {
            config,
            cycle,
            next_req,
            next_seq,
            l1,
            l2,
            dram,
            events,
            l2_queues,
            dram_done: Vec::new(),
            woken: Vec::new(),
            l1_fills: vec![0; num_sms],
            meta,
            completed_out,
            stats,
            fault_rng,
            dram_sends,
            audit_completed,
            audit_double_completions,
            audit_dropped,
        })
    }
}

/// The MSHR slot of `cache` a decoded list of `count` waiters of `line`
/// attaches to: the line must be pending, and listed once with at least
/// one waiter (the encoder writes no empty list).
fn waiter_slot(cache: &Cache, line: u64, count: usize, level: &str) -> Result<usize, DecodeError> {
    if count == 0 {
        return Err(DecodeError::malformed(format!(
            "{level} waiter list of line {line:#x} is empty"
        )));
    }
    match cache.mshr_slot(line) {
        None => Err(DecodeError::malformed(format!(
            "{level} waiters of line {line:#x} have no MSHR"
        ))),
        Some(slot) if !cache.waiters(slot).is_empty() => Err(DecodeError::malformed(format!(
            "{level} waiters of line {line:#x} are listed twice"
        ))),
        Some(slot) => Ok(slot),
    }
}

fn encode_event(event: Event, w: &mut ByteWriter) {
    match event {
        Event::L1HitDone { sm, req } => {
            w.put_u8(0);
            w.put_usize(sm);
            w.put_u64(req);
        }
        Event::L2Arrive { who, line, origin } => {
            w.put_u8(1);
            encode_requester(who, w);
            w.put_u64(line);
            encode_origin(origin, w);
        }
        Event::L1Fill { sm, line } => {
            w.put_u8(2);
            w.put_usize(sm);
            w.put_u64(line);
        }
        Event::DramSend { line } => {
            w.put_u8(3);
            w.put_u64(line);
        }
    }
}

fn decode_event(r: &mut ByteReader<'_>) -> Result<Event, DecodeError> {
    match r.take_u8()? {
        0 => Ok(Event::L1HitDone {
            sm: r.take_usize()?,
            req: r.take_u64()?,
        }),
        1 => Ok(Event::L2Arrive {
            who: decode_requester(r)?,
            line: r.take_u64()?,
            origin: decode_origin(r)?,
        }),
        2 => Ok(Event::L1Fill {
            sm: r.take_usize()?,
            line: r.take_u64()?,
        }),
        3 => Ok(Event::DramSend {
            line: r.take_u64()?,
        }),
        t => Err(DecodeError::malformed(format!("unknown event tag {t}"))),
    }
}

fn encode_requester(who: L2Requester, w: &mut ByteWriter) {
    match who {
        L2Requester::Sm(sm) => {
            w.put_u8(0);
            w.put_usize(sm);
        }
        L2Requester::L2Prefetch => w.put_u8(1),
    }
}

fn decode_requester(r: &mut ByteReader<'_>) -> Result<L2Requester, DecodeError> {
    match r.take_u8()? {
        0 => Ok(L2Requester::Sm(r.take_usize()?)),
        1 => Ok(L2Requester::L2Prefetch),
        t => Err(DecodeError::malformed(format!(
            "unknown L2 requester tag {t}"
        ))),
    }
}

fn encode_histogram(h: &LatencyHistogram, w: &mut ByteWriter) {
    w.put_u64(h.bin_cycles);
    w.put_len(h.bins.len());
    for &count in &h.bins {
        w.put_u64(count);
    }
    w.put_u64(h.count);
    w.put_u64(h.total);
}

fn decode_histogram(r: &mut ByteReader<'_>) -> Result<LatencyHistogram, DecodeError> {
    let bin_cycles = r.take_u64()?;
    if bin_cycles == 0 {
        return Err(DecodeError::malformed(
            "histogram bin width must be nonzero",
        ));
    }
    let n = r.take_len(8)?;
    if n == 0 {
        return Err(DecodeError::malformed("histogram needs at least one bin"));
    }
    let mut bins = Vec::with_capacity(n);
    for _ in 0..n {
        bins.push(r.take_u64()?);
    }
    let count = r.take_u64()?;
    let total = r.take_u64()?;
    Ok(LatencyHistogram {
        bin_cycles,
        bins,
        count,
        total,
    })
}

fn encode_mem_stats(stats: &MemStats, w: &mut ByteWriter) {
    // The array is indexed by tag, so iteration order IS sorted-tag
    // order — the same bytes the old sorted-key map encoding produced.
    let present = stats.latency.iter().flatten().count();
    w.put_len(present);
    for (tag, histogram) in stats.latency.iter().enumerate() {
        if let Some(h) = histogram {
            w.put_u8(tag as u8);
            encode_histogram(h, w);
        }
    }
    w.put_u64(stats.l2_to_l1_lines);
    w.put_u64(stats.dram_to_l2_lines);
}

fn decode_mem_stats(r: &mut ByteReader<'_>) -> Result<MemStats, DecodeError> {
    let n = r.take_len(25)?;
    let mut latency: [Option<LatencyHistogram>; 4] = Default::default();
    for _ in 0..n {
        let kind = AccessKind::from_tag(r.take_u8()?)?;
        let histogram = decode_histogram(r)?;
        if latency[kind.tag() as usize].replace(histogram).is_some() {
            return Err(DecodeError::malformed("duplicate latency histogram kind"));
        }
    }
    Ok(MemStats {
        latency,
        l2_to_l1_lines: r.take_u64()?,
        dram_to_l2_lines: r.take_u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemorySystem {
        MemorySystem::new(MemConfig::paper_default(), 2)
    }

    fn run_until_complete(ms: &mut MemorySystem, sm: usize, req: RequestId, limit: u64) -> u64 {
        for _ in 0..limit {
            ms.tick();
            if ms.drain_completed(sm).contains(&req) {
                return ms.cycle();
            }
        }
        panic!("request {req} did not complete within {limit} cycles");
    }

    #[test]
    fn l1_hit_completes_after_l1_latency() {
        let mut ms = sys();
        // Warm the line.
        let issue = ms.access(0, 0x2_0000, FillOrigin::Demand, AccessKind::Node);
        let req = issue.request_id().unwrap();
        run_until_complete(&mut ms, 0, req, 2_000);
        let start = ms.cycle();
        let issue = ms.access(0, 0x2_0000, FillOrigin::Demand, AccessKind::Node);
        assert!(matches!(issue, Issue::Hit(_)));
        let done = run_until_complete(&mut ms, 0, issue.request_id().unwrap(), 100);
        assert_eq!(done - start, 20);
    }

    #[test]
    fn cold_miss_goes_through_l2_and_dram() {
        let mut ms = sys();
        let issue = ms.access(0, 0x4_0000, FillOrigin::Demand, AccessKind::Node);
        assert!(matches!(issue, Issue::Pending(_)));
        let done = run_until_complete(&mut ms, 0, issue.request_id().unwrap(), 5_000);
        // Must include L1 + L2 + DRAM latency: strictly more than L1+L2.
        assert!(done > 180, "completed suspiciously fast: {done}");
        assert_eq!(ms.stats().dram_to_l2_lines, 1);
        assert!(ms.stats().mean_latency(AccessKind::Node) > 180.0);
    }

    #[test]
    fn second_sm_hits_in_l2_after_first_fills_it() {
        let mut ms = sys();
        let a = ms.access(0, 0x8_0000, FillOrigin::Demand, AccessKind::Node);
        run_until_complete(&mut ms, 0, a.request_id().unwrap(), 5_000);
        let dram_before = ms.stats().dram_to_l2_lines;
        let b = ms.access(1, 0x8_0000, FillOrigin::Demand, AccessKind::Node);
        run_until_complete(&mut ms, 1, b.request_id().unwrap(), 5_000);
        // No extra DRAM traffic: the L2 served SM 1.
        assert_eq!(ms.stats().dram_to_l2_lines, dram_before);
    }

    #[test]
    fn same_line_requests_merge_in_l1_mshr() {
        let mut ms = sys();
        let a = ms.access(0, 0x10_0000, FillOrigin::Demand, AccessKind::Node);
        let b = ms.access(0, 0x10_0020, FillOrigin::Demand, AccessKind::Node); // same 64B line
        assert!(matches!(a, Issue::Pending(_)));
        assert!(matches!(b, Issue::Pending(_)));
        let ra = a.request_id().unwrap();
        let rb = b.request_id().unwrap();
        let mut got = Vec::new();
        for _ in 0..5_000 {
            ms.tick();
            got.extend(ms.drain_completed(0));
            if got.len() == 2 {
                break;
            }
        }
        assert!(got.contains(&ra) && got.contains(&rb));
        assert_eq!(ms.stats().dram_to_l2_lines, 1);
        assert_eq!(ms.l1_stats(0).demand_pending_hits, 1);
    }

    #[test]
    fn prefetch_then_demand_is_timely_hit() {
        let mut ms = sys();
        let p = ms.access(0, 0x20_0000, FillOrigin::Prefetch, AccessKind::Prefetch);
        let rp = p.request_id().unwrap();
        run_until_complete(&mut ms, 0, rp, 5_000);
        let d = ms.access(0, 0x20_0000, FillOrigin::Demand, AccessKind::Node);
        assert!(matches!(d, Issue::Hit(_)));
        assert_eq!(ms.l1_stats(0).demand_hits_on_prefetch, 1);
        let eff = ms.finalize_prefetch_effect();
        assert_eq!(eff.timely, 1);
        assert_eq!(eff.unused, 0);
    }

    #[test]
    fn duplicate_prefetch_is_dropped() {
        let mut ms = sys();
        let p1 = ms.access(0, 0x30_0000, FillOrigin::Prefetch, AccessKind::Prefetch);
        assert!(matches!(p1, Issue::Pending(_)));
        let p2 = ms.access(0, 0x30_0000, FillOrigin::Prefetch, AccessKind::Prefetch);
        assert_eq!(p2, Issue::PrefetchDropped);
    }

    #[test]
    fn mshr_exhaustion_returns_retry() {
        let mut cfg = MemConfig::paper_default();
        cfg.l1_mshrs = 2;
        let mut ms = MemorySystem::new(cfg, 1);
        assert!(ms
            .access(0, 0x0, FillOrigin::Demand, AccessKind::Node)
            .request_id()
            .is_some());
        assert!(ms
            .access(0, 0x40, FillOrigin::Demand, AccessKind::Node)
            .request_id()
            .is_some());
        assert_eq!(
            ms.access(0, 0x80, FillOrigin::Demand, AccessKind::Node),
            Issue::Retry
        );
    }

    #[test]
    fn busy_goes_false_after_drain() {
        let mut ms = sys();
        let a = ms.access(0, 0x123_4560, FillOrigin::Demand, AccessKind::Triangle);
        assert!(ms.busy());
        run_until_complete(&mut ms, 0, a.request_id().unwrap(), 5_000);
        // A few extra ticks to let bookkeeping settle.
        for _ in 0..4 {
            ms.tick();
        }
        assert!(!ms.busy());
    }

    #[test]
    fn l2_prefetch_installs_into_l2_only() {
        let mut ms = sys();
        assert!(ms.prefetch_l2(0x77_0000));
        for _ in 0..3_000 {
            ms.tick();
        }
        // The line now hits in L2 (the next L1 miss is served without
        // DRAM), but the L1 itself was never filled.
        let dram_before = ms.stats().dram_to_l2_lines;
        assert_eq!(dram_before, 1);
        let d = ms.access(0, 0x77_0000, FillOrigin::Demand, AccessKind::Node);
        assert!(matches!(d, Issue::Pending(_)), "L1 must miss");
        let req = d.request_id().unwrap();
        run_until_complete(&mut ms, 0, req, 2_000);
        assert_eq!(ms.stats().dram_to_l2_lines, dram_before, "L2 must serve it");
    }

    #[test]
    fn duplicate_l2_prefetch_is_dropped() {
        let mut ms = sys();
        assert!(ms.prefetch_l2(0x88_0000));
        for _ in 0..3_000 {
            ms.tick();
        }
        assert!(!ms.prefetch_l2(0x88_0000));
    }

    #[test]
    fn l2_prefetch_effect_classifies_timely() {
        let mut ms = sys();
        ms.prefetch_l2(0x99_0000);
        for _ in 0..3_000 {
            ms.tick();
        }
        let d = ms.access(0, 0x99_0000, FillOrigin::Demand, AccessKind::Node);
        run_until_complete(&mut ms, 0, d.request_id().unwrap(), 2_000);
        let eff = ms.finalize_l2_prefetch_effect();
        assert_eq!(eff.timely, 1);
    }

    #[test]
    fn l2_partitions_serve_in_parallel() {
        // Two misses on different partitions complete in the same window;
        // with one partition port each, two misses on the SAME partition
        // still both complete (queued), just not dropped.
        let mut ms = sys();
        let a = ms.access(0, 0x40_0000, FillOrigin::Demand, AccessKind::Node); // partition 0
        let b = ms.access(0, 0x40_0100, FillOrigin::Demand, AccessKind::Node); // partition 1
        let c = ms.access(1, 0x41_0000, FillOrigin::Demand, AccessKind::Node); // partition 0
        let mut want: Vec<_> = [a, b, c].iter().filter_map(|i| i.request_id()).collect();
        assert_eq!(want.len(), 3);
        for _ in 0..5_000 {
            ms.tick();
            for sm in 0..2 {
                for done in ms.drain_completed(sm) {
                    if let Some(pos) = want.iter().position(|&r| r == done) {
                        want.swap_remove(pos);
                    }
                }
            }
            if want.is_empty() {
                break;
            }
        }
        assert!(want.is_empty(), "requests stuck: {want:?}");
    }

    #[test]
    fn latency_histogram_mean_and_percentiles() {
        let mut h = LatencyHistogram::default();
        for lat in [10u64, 20, 30, 40, 5000] {
            h.record(lat);
        }
        assert_eq!(h.count(), 5);
        assert!((h.mean() - 1020.0).abs() < 1e-9);
        // 4 of 5 samples are in the first bin (0..64): p50/p80 -> 64.
        assert_eq!(h.percentile(50.0), 64.0);
        assert_eq!(h.percentile(80.0), 64.0);
        // The overflow sample dominates the tail.
        assert!(h.percentile(99.0) >= 4096.0);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(99.0), 0.0);
    }

    #[test]
    fn out_of_range_percentile_clamps_instead_of_panicking() {
        let mut h = LatencyHistogram::default();
        for lat in [10u64, 20, 30, 5000] {
            h.record(lat);
        }
        assert_eq!(h.percentile(101.0), h.percentile(100.0));
        assert_eq!(h.percentile(1e9), h.percentile(100.0));
        assert_eq!(h.percentile(-5.0), h.percentile(0.0));
        // Empty histograms answer 0.0 for any p, in or out of range.
        let empty = LatencyHistogram::default();
        assert_eq!(empty.percentile(250.0), 0.0);
        assert_eq!(empty.percentile(-1.0), 0.0);
    }

    #[test]
    fn system_exposes_node_latency_histogram() {
        let mut ms = sys();
        let a = ms.access(0, 0xabc_0000, FillOrigin::Demand, AccessKind::Node);
        run_until_complete(&mut ms, 0, a.request_id().unwrap(), 5_000);
        let hist = ms.stats().latency_histogram(AccessKind::Node).unwrap();
        assert_eq!(hist.count(), 1);
        assert!(hist.percentile(100.0) >= hist.mean());
    }

    #[test]
    fn mem_cycle_conversion_uses_clock_ratio() {
        let ms = sys();
        // 3500/1365 ≈ 2.564 memory cycles per core cycle.
        assert_eq!(ms.mem_cycles(1365), 3500);
        assert_eq!(ms.mem_cycles(0), 0);
    }

    #[test]
    fn latency_stats_track_kinds_separately() {
        let mut ms = sys();
        let a = ms.access(0, 0x50_0000, FillOrigin::Demand, AccessKind::Node);
        run_until_complete(&mut ms, 0, a.request_id().unwrap(), 5_000);
        assert_eq!(ms.stats().completed(AccessKind::Node), 1);
        assert_eq!(ms.stats().completed(AccessKind::Triangle), 0);
    }

    #[test]
    fn audit_balances_after_mixed_traffic() {
        let mut ms = sys();
        let reqs: Vec<RequestId> = (0..6u64)
            .map(|i| {
                ms.access(
                    (i % 2) as usize,
                    0x90_0000 + i * 4096,
                    FillOrigin::Demand,
                    AccessKind::Node,
                )
                .request_id()
                .unwrap()
            })
            .collect();
        ms.prefetch_l2(0xB0_0000);
        for _ in 0..5_000 {
            ms.tick();
            ms.drain_completed(0);
            ms.drain_completed(1);
        }
        let audit = ms.audit();
        assert!(audit.is_clean(), "audit not clean: {audit:?}");
        // The L2 prefetch allocates no request id, so only the demands
        // count as issued.
        assert_eq!(audit.issued, reqs.len() as u64);
        assert_eq!(audit.outstanding, 0);
        assert_eq!(audit.double_completions, 0);
    }

    #[test]
    fn latency_faults_slow_but_complete_everything() {
        let addr = |i: u64| 0xC0_0000 + i * 4096;
        let run = |fault: Option<FaultInjection>| -> (u64, AuditReport) {
            let mut cfg = MemConfig::paper_default();
            cfg.fault_injection = fault;
            let mut ms = MemorySystem::new(cfg, 1);
            let mut want: Vec<RequestId> = (0..16u64)
                .map(|i| {
                    ms.access(0, addr(i), FillOrigin::Demand, AccessKind::Node)
                        .request_id()
                        .unwrap()
                })
                .collect();
            let mut last_done = 0;
            for _ in 0..50_000 {
                ms.tick();
                for done in ms.drain_completed(0) {
                    if let Some(pos) = want.iter().position(|&r| r == done) {
                        want.swap_remove(pos);
                    }
                    last_done = ms.cycle();
                }
                if want.is_empty() {
                    break;
                }
            }
            assert!(want.is_empty(), "requests stuck under faults: {want:?}");
            (last_done, ms.audit())
        };
        let (clean_done, clean_audit) = run(None);
        let (faulty_done, faulty_audit) = run(Some(FaultInjection::latency_storm(7)));
        assert!(clean_audit.is_clean());
        // Latency faults perturb timing only: every request still
        // completes exactly once, just later.
        assert!(faulty_audit.is_clean());
        assert!(
            faulty_done > clean_done,
            "storm did not slow the run: {faulty_done} vs {clean_done}"
        );
        // Same seed, same schedule: faulty runs are reproducible.
        let (again_done, _) = run(Some(FaultInjection::latency_storm(7)));
        assert_eq!(faulty_done, again_done);
    }

    #[test]
    fn dropped_dram_response_wedges_its_waiter() {
        let mut cfg = MemConfig::paper_default();
        cfg.fault_injection = Some(FaultInjection::drop_nth_dram_send(1, 0));
        let mut ms = MemorySystem::new(cfg, 1);
        let req = ms
            .access(0, 0xD0_0000, FillOrigin::Demand, AccessKind::Node)
            .request_id()
            .unwrap();
        for _ in 0..20_000 {
            ms.tick();
            assert!(
                !ms.drain_completed(0).contains(&req),
                "dropped response must never complete"
            );
        }
        let audit = ms.audit();
        assert_eq!(audit.dropped_responses, 1);
        assert_eq!(audit.outstanding, 1);
        assert!(!audit.is_clean());
        assert_eq!(ms.outstanding_request_ids(), vec![req]);
        assert!(ms.busy(), "the wedged request keeps the system busy");
    }

    #[test]
    fn introspection_reports_queue_shapes() {
        let mut ms = sys();
        ms.access(0, 0xE0_0000, FillOrigin::Demand, AccessKind::Node);
        ms.access(1, 0xE1_0000, FillOrigin::Demand, AccessKind::Triangle);
        assert_eq!(ms.outstanding_requests(), 2);
        assert_eq!(ms.l1_waiter_counts(), vec![1, 1]);
        assert_eq!(ms.l2_queue_depth(), 0, "L2 hop has not fired yet");
        for _ in 0..5_000 {
            ms.tick();
            ms.drain_completed(0);
            ms.drain_completed(1);
        }
        assert_eq!(ms.outstanding_requests(), 0);
        assert_eq!(ms.l1_waiter_counts(), vec![0, 0]);
    }

    fn encoded(ms: &MemorySystem) -> Vec<u8> {
        let mut w = ByteWriter::new();
        ms.encode_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn state_round_trips_and_continues_identically() {
        let mut cfg = MemConfig::paper_default();
        cfg.fault_injection = Some(FaultInjection::latency_storm(11));
        let mut ms = MemorySystem::new(cfg, 2);
        // Put traffic everywhere: L1 pending, L2 queues, DRAM in flight,
        // an L2 prefetch, completed stats.
        for i in 0..12u64 {
            ms.access(
                (i % 2) as usize,
                0x50_0000 + i * 4096,
                FillOrigin::Demand,
                AccessKind::Node,
            );
        }
        ms.prefetch_l2(0x90_0000);
        for _ in 0..150 {
            ms.tick();
        }

        let bytes = encoded(&ms);
        let mut r = ByteReader::new(&bytes);
        let mut back =
            MemorySystem::decode_state(&mut r, cfg, 2).expect("own encoding must decode");
        r.expect_end().unwrap();

        // Canonical encoding: the decoded system re-encodes to the same
        // bytes (the state-digest property).
        assert_eq!(encoded(&back), bytes);

        // And it *behaves* identically: tick both in lockstep, issuing
        // the same new traffic, and the states stay byte-identical.
        for i in 0..4u64 {
            let a = ms.access(
                0,
                0x70_0000 + i * 4096,
                FillOrigin::Demand,
                AccessKind::Triangle,
            );
            let b = back.access(
                0,
                0x70_0000 + i * 4096,
                FillOrigin::Demand,
                AccessKind::Triangle,
            );
            assert_eq!(a, b);
        }
        for _ in 0..2_000 {
            ms.tick();
            back.tick();
            assert_eq!(ms.drain_completed(0), back.drain_completed(0));
            assert_eq!(ms.drain_completed(1), back.drain_completed(1));
        }
        assert_eq!(encoded(&back), encoded(&ms));
        assert_eq!(back.audit(), ms.audit());
    }

    #[test]
    fn decode_refuses_waiters_and_dram_sends_without_an_mshr() {
        // `with` holds an L1 waiter, an L2 waiter and a line at DRAM;
        // `bare` holds no MSHR. Each of `with`'s three sections, spliced
        // into `bare`'s state, names a line no MSHR waits for.
        let mut with = sys();
        with.access(0, 0x12_0000, FillOrigin::Demand, AccessKind::Node);
        for _ in 0..1_000 {
            if with.l2.sent_lines().next().is_some() {
                break;
            }
            with.tick();
        }
        assert_eq!(with.l1_waiter_counts(), vec![1, 0]);
        assert_eq!(with.l2.waiting_lines().count(), 1);
        assert_eq!(with.l2.sent_lines().count(), 1);
        let bare = sys();
        let part = |encode: fn(&MemorySystem, &mut ByteWriter), ms: &MemorySystem| {
            let mut w = ByteWriter::new();
            encode(ms, &mut w);
            w.into_bytes()
        };
        let sections: [fn(&MemorySystem, &mut ByteWriter); 3] = [
            MemorySystem::encode_l1_waiters,
            MemorySystem::encode_l2_waiters,
            MemorySystem::encode_dram_pending,
        ];
        for forged in 0..3 {
            let mut bytes = part(MemorySystem::encode_head, &bare);
            for (i, &section) in sections.iter().enumerate() {
                bytes.extend(part(section, if i == forged { &with } else { &bare }));
            }
            bytes.extend(part(MemorySystem::encode_tail, &bare));
            let decoded = MemorySystem::decode_state(
                &mut ByteReader::new(&bytes),
                MemConfig::paper_default(),
                2,
            );
            match decoded {
                Err(DecodeError::Malformed { what }) => {
                    assert!(what.contains("MSHR"), "{what}")
                }
                other => panic!("section {forged}: expected a malformed state, got {other:?}"),
            }
        }
        // Unforged, the splice is `bare`'s own encoding.
        let mut bytes = part(MemorySystem::encode_head, &bare);
        for section in sections {
            bytes.extend(part(section, &bare));
        }
        bytes.extend(part(MemorySystem::encode_tail, &bare));
        assert_eq!(bytes, encoded(&bare));
    }

    #[test]
    fn request_ids_far_apart_are_refused_before_any_padding() {
        // The checksum stops corruption, not a crafted file: metadata
        // for two requests 2^40 ids apart would pad the decoded window
        // with 2^40 slots. The span is refused first, and the same
        // splice with ids one apart decodes.
        let bare = sys();
        let part = |encode: fn(&MemorySystem, &mut ByteWriter)| {
            let mut w = ByteWriter::new();
            encode(&bare, &mut w);
            w.into_bytes()
        };
        let splice = |ids: [u64; 2]| {
            let mut bytes = part(MemorySystem::encode_head);
            // `next_req`, after the clock, must exceed every id.
            bytes[8..16].copy_from_slice(&(1u64 << 41).to_le_bytes());
            bytes.extend(part(MemorySystem::encode_l1_waiters));
            bytes.extend(part(MemorySystem::encode_l2_waiters));
            bytes.extend(part(MemorySystem::encode_dram_pending));
            let mut meta = ByteWriter::new();
            meta.put_len(2);
            for id in ids {
                meta.put_u64(id);
                meta.put_u8(AccessKind::Node.tag());
                meta.put_u64(0);
            }
            bytes.extend(meta.into_bytes());
            // The bare tail without its empty metadata count.
            bytes.extend(&part(MemorySystem::encode_tail)[8..]);
            bytes
        };
        let decode = |bytes: &[u8]| {
            MemorySystem::decode_state(&mut ByteReader::new(bytes), MemConfig::paper_default(), 2)
        };
        match decode(&splice([3, 1 << 40])) {
            Err(DecodeError::Malformed { what }) => assert!(what.contains("span"), "{what}"),
            other => panic!("expected a refused span, got {other:?}"),
        }
        let near = decode(&splice([3, 4])).expect("adjacent ids decode");
        assert_eq!(near.meta.len(), 2);
    }

    #[test]
    fn truncated_state_decodes_to_typed_errors() {
        let ms = sys();
        let bytes = encoded(&ms);
        for cut in [0, 1, 8, bytes.len() / 2, bytes.len() - 1] {
            let mut r = ByteReader::new(&bytes[..cut]);
            match MemorySystem::decode_state(&mut r, MemConfig::paper_default(), 2) {
                Err(_) => {}
                Ok(_) => panic!("truncation at {cut} bytes must not decode"),
            }
        }
    }

    #[test]
    fn idle_skip_reaches_the_same_state_as_single_stepping() {
        // Two systems, same traffic. One ticks every cycle; the other
        // fast-forwards through provably idle stretches. Their encoded
        // states must stay byte-identical at every completion.
        let mut slow = sys();
        let mut fast = sys();
        for ms in [&mut slow, &mut fast] {
            ms.access(0, 0xF0_0000, FillOrigin::Demand, AccessKind::Node);
            ms.access(1, 0xF1_0000, FillOrigin::Demand, AccessKind::Triangle);
        }
        for _ in 0..3_000 {
            slow.tick();
            slow.drain_completed(0);
            slow.drain_completed(1);
        }
        while fast.busy() {
            if fast.can_skip_idle() {
                if let Some(t) = fast.next_event_cycle() {
                    if t > fast.cycle() + 1 {
                        fast.skip_idle_to(t - 1);
                    }
                }
            }
            fast.tick();
            fast.drain_completed(0);
            fast.drain_completed(1);
        }
        // Align the clocks (the slow run overshot) and compare.
        assert!(fast.cycle() <= slow.cycle());
        while fast.cycle() < slow.cycle() {
            fast.tick();
        }
        assert_eq!(encoded(&fast), encoded(&slow));
        assert!(fast.audit().is_clean());
    }

    #[test]
    fn next_event_cycle_sees_dram_completions() {
        let mut ms = sys();
        ms.access(0, 0xF5_0000, FillOrigin::Demand, AccessKind::Node);
        // Run until the only remaining work is the in-flight DRAM burst.
        for _ in 0..1_000 {
            ms.tick();
            if ms.dram().in_flight() > 0 && ms.next_event_cycle().is_some() {
                break;
            }
        }
        assert!(ms.dram().in_flight() > 0, "request never reached DRAM");
        let t = ms.next_event_cycle().expect("DRAM completion pending");
        // The conversion must be exact: the predicted core cycle reaches
        // the completion's memory time, the one before it does not.
        let mem_t = ms.dram().next_completion().unwrap();
        assert!(ms.mem_cycles(t) >= mem_t);
        assert!(t == 0 || ms.mem_cycles(t - 1) < mem_t);
    }

    #[test]
    fn drain_completed_into_reuses_the_buffer() {
        let mut ms = sys();
        let req = ms
            .access(0, 0xF7_0000, FillOrigin::Demand, AccessKind::Node)
            .request_id()
            .unwrap();
        let mut buf: Vec<RequestId> = Vec::with_capacity(8);
        let cap = buf.capacity();
        let mut seen = false;
        for _ in 0..5_000 {
            ms.tick();
            ms.drain_completed_into(0, &mut buf);
            if buf.contains(&req) {
                seen = true;
                break;
            }
        }
        assert!(seen, "request never completed");
        assert!(buf.capacity() >= cap);
        ms.drain_completed_into(0, &mut buf);
        assert!(buf.is_empty(), "second drain must be empty");
    }

    #[test]
    fn dram_utilization_nonzero_after_misses() {
        let mut ms = sys();
        for i in 0..8u64 {
            ms.access(
                0,
                0x60_0000 + i * 4096,
                FillOrigin::Demand,
                AccessKind::Node,
            );
        }
        for _ in 0..3_000 {
            ms.tick();
        }
        assert!(ms.dram_utilization() > 0.0);
    }

    /// An event that carries its own `(at, seq)` in its line.
    fn tagged(at: u64, seq: u64) -> Scheduled {
        let event = Event::DramSend {
            line: (at << 32) | seq,
        };
        Scheduled { at, seq, event }
    }

    /// Fires every event due by `to`, recording `(at, seq)`.
    fn fire(wheel: &mut EventWheel, to: u64, out: &mut Vec<(u64, u64)>) {
        while let Some(Event::DramSend { line }) = wheel.pop_due(to) {
            out.push((line >> 32, line & 0xffff_ffff));
        }
    }

    #[test]
    fn event_wheel_fires_in_at_seq_order_like_a_heap() {
        // Random delays around and past the ring's span, overdue decoded
        // events, skips and cycle-by-cycle ticks, against a sorted model.
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        for case in 0..200 {
            let horizon = rng.gen_range(0..40u64);
            let start = rng.gen_range(0..100u64);
            let mut seq = 0u64;
            let mut model: Vec<(u64, u64)> = Vec::new();
            let mut decoded = Vec::new();
            for _ in 0..rng.gen_range(0..20usize) {
                // Decoded events may be overdue or far out.
                let at = rng.gen_range(0..start + 3 * horizon + 10);
                decoded.push(tagged(at, seq));
                model.push((at, seq));
                seq += 1;
            }
            decoded.reverse();
            let mut wheel = EventWheel::from_events(start, horizon, decoded);
            let mut now = start;
            let mut fired = Vec::new();
            for _ in 0..60 {
                for _ in 0..rng.gen_range(0..4usize) {
                    let at = now + rng.gen_range(0..2 * horizon + 3);
                    wheel.push(tagged(at, seq));
                    model.push((at, seq));
                    seq += 1;
                }
                model.sort_unstable();
                assert_eq!(wheel.next_at(), model.first().map(|e| e.0), "case {case}");
                assert_eq!(wheel.len(), model.len(), "case {case}");
                let due = model.iter().take_while(|e| e.0 <= now + 1).count();
                if due == 0 && rng.gen_bool(0.3) {
                    // An idle skip to just before the next event.
                    let to = model.first().map_or(now + 50, |e| e.0 - 1);
                    wheel.advance(to);
                    now = to;
                    continue;
                }
                now += 1;
                fire(&mut wheel, now, &mut fired);
                let want: Vec<(u64, u64)> = model.drain(..due).collect();
                assert_eq!(fired, want, "case {case} at cycle {now}");
                fired.clear();
            }
        }
    }
}
