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
use crate::table::{FxHashMap, FxHashSet, IdWindow};
use rt_rng::{Rng, SmallRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

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
    l1: Vec<Cache>,
    l2: Cache,
    dram: Dram,
    events: BinaryHeap<Reverse<(u64, u64, usize)>>,
    event_pool: Vec<Event>,
    /// Reusable `event_pool` slots of already-fired events.
    free_events: Vec<usize>,
    /// Per-partition L2 probe queues.
    l2_queues: Vec<VecDeque<(L2Requester, u64, FillOrigin)>>,
    /// Requests waiting for an L1 line, per SM: line -> request ids.
    l1_waiters: Vec<FxHashMap<u64, Vec<RequestId>>>,
    /// SMs waiting for an L2 line.
    l2_waiters: FxHashMap<u64, Vec<usize>>,
    /// DRAM in-flight lines (avoids duplicate sends).
    dram_pending: FxHashSet<u64>,
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
            events: BinaryHeap::with_capacity(256),
            event_pool: Vec::with_capacity(256),
            free_events: Vec::with_capacity(256),
            l2_queues: (0..config.l2_partitions)
                .map(|_| VecDeque::with_capacity(64))
                .collect(),
            l1_waiters: (0..num_sms).map(|_| FxHashMap::default()).collect(),
            l2_waiters: FxHashMap::default(),
            dram_pending: FxHashSet::default(),
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
        let idx = match self.free_events.pop() {
            Some(idx) => {
                self.event_pool[idx] = event;
                idx
            }
            None => {
                self.event_pool.push(event);
                self.event_pool.len() - 1
            }
        };
        self.events.push(Reverse((at, self.next_seq, idx)));
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
        match self.l1[sm].probe(addr, origin, self.cycle) {
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
                self.l1_waiters[sm].entry(line).or_default().push(req);
                Issue::Pending(req)
            }
            ProbeOutcome::Miss => {
                let req = self.alloc_req(kind);
                self.l1_waiters[sm].entry(line).or_default().push(req);
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

    fn alloc_req(&mut self, kind: AccessKind) -> RequestId {
        let req = self.next_req;
        self.next_req += 1;
        self.meta.insert(req, (kind, self.cycle));
        req
    }

    /// Issues a prefetch of the line containing `addr` directly into the
    /// shared L2, bypassing the L1s (an alternative prefetch destination
    /// that avoids L1 pollution). The line is installed when DRAM
    /// responds; no completion is delivered.
    ///
    /// Returns [`Issue::PrefetchDropped`] if the line is already resident
    /// or in flight at the L2.
    pub fn prefetch_l2(&mut self, addr: u64) -> Issue {
        let line = self.l2.line_of(addr);
        if self.l2.contains(line) || self.l2.is_pending(line) {
            // Count the dropped probe for effectiveness accounting.
            let _ = self.l2.probe(line, FillOrigin::Prefetch, self.cycle);
            return Issue::PrefetchDropped;
        }
        self.schedule(
            self.cycle,
            Event::L2Arrive {
                who: L2Requester::L2Prefetch,
                line,
                origin: FillOrigin::Prefetch,
            },
        );
        let req = self.alloc_req(AccessKind::Prefetch);
        // L2 prefetches complete silently; drop the metadata now so the
        // request is not counted as outstanding (for the audit, it
        // completes the moment it is issued).
        self.meta.remove(req);
        self.audit_completed += 1;
        Issue::Pending(req)
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
        while let Some(&Reverse((t, _, idx))) = self.events.peek() {
            if t > self.cycle {
                break;
            }
            self.events.pop();
            let event = self.event_pool[idx];
            self.free_events.push(idx);
            self.handle_event(event);
        }
        // 2. Service each L2 partition's probe queue (bounded ports per
        // partition per cycle).
        for partition in 0..self.l2_queues.len() {
            'ports: for _ in 0..self.config.l2_ports {
                let Some(&(who, line, origin)) = self.l2_queues[partition].front() else {
                    break;
                };
                match self.l2.probe(line, origin, self.cycle) {
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
                    ProbeOutcome::PendingHit => {
                        self.l2_queues[partition].pop_front();
                        if let L2Requester::Sm(sm) = who {
                            self.add_l2_waiter(line, sm);
                        }
                    }
                    ProbeOutcome::Miss => {
                        self.l2_queues[partition].pop_front();
                        if let L2Requester::Sm(sm) = who {
                            self.add_l2_waiter(line, sm);
                        }
                        self.schedule(
                            self.cycle + self.config.l2_latency,
                            Event::DramSend { line },
                        );
                    }
                    // Head-of-line stall in this partition; retry next
                    // cycle.
                    ProbeOutcome::NoMshr => break 'ports,
                }
            }
        }
        // 3. Drain DRAM completions.
        let mem_now = self.mem_cycles(self.cycle);
        for line in self.dram.drain_completed(mem_now) {
            self.dram_pending.remove(&line);
            self.stats.dram_to_l2_lines += 1;
            self.l2.fill(line, self.cycle);
            if let Some(sms) = self.l2_waiters.remove(&line) {
                for sm in sms {
                    self.stats.l2_to_l1_lines += 1;
                    self.schedule(self.cycle, Event::L1Fill { sm, line });
                }
            }
        }
    }

    fn add_l2_waiter(&mut self, line: u64, sm: usize) {
        let waiters = self.l2_waiters.entry(line).or_default();
        if !waiters.contains(&sm) {
            waiters.push(sm);
        }
    }

    fn handle_event(&mut self, event: Event) {
        match event {
            Event::L1HitDone { sm, req } => self.complete(sm, req),
            Event::L2Arrive { who, line, origin } => {
                let p = self.l2_partition_of(line);
                self.l2_queues[p].push_back((who, line, origin));
            }
            Event::L1Fill { sm, line } => {
                self.l1[sm].fill(line, self.cycle);
                if let Some(reqs) = self.l1_waiters[sm].remove(&line) {
                    for req in reqs {
                        self.complete(sm, req);
                    }
                }
            }
            Event::DramSend { line } => {
                let delay = self.fault_dram_delay();
                if delay > 0 {
                    self.schedule(self.cycle + delay, Event::DramSend { line });
                } else if self.dram_pending.insert(line) {
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
        let mut next = self.events.peek().map(|&Reverse((t, _, _))| t);
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
    }

    /// `true` while any request is in flight anywhere in the hierarchy.
    pub fn busy(&self) -> bool {
        !self.meta.is_empty()
            || self.l2_queues.iter().any(|q| !q.is_empty())
            || self.dram.in_flight() > 0
            || !self.events.is_empty()
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
        self.l1_waiters
            .iter()
            .map(|waiters| waiters.values().map(Vec::len).sum())
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
        w.put_u64(self.cycle);
        w.put_u64(self.next_req);
        w.put_u64(self.next_seq);

        w.put_len(self.l1.len());
        for cache in &self.l1 {
            cache.encode_state(w);
        }
        self.l2.encode_state(w);
        self.dram.encode_state(w);

        // Live events as (at, seq, event) triples, sorted. Pool indices
        // are compacted on decode; `seq` values are preserved so future
        // events keep ordering against `next_seq`.
        let mut live: Vec<(u64, u64, usize)> = self.events.iter().map(|Reverse(t)| *t).collect();
        live.sort_unstable();
        w.put_len(live.len());
        for (at, seq, idx) in live {
            w.put_u64(at);
            w.put_u64(seq);
            encode_event(self.event_pool[idx], w);
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

        // Per-SM maps, flattened in (sm, line) order — the same bytes the
        // old flat sorted map produced.
        let total: usize = self.l1_waiters.iter().map(FxHashMap::len).sum();
        w.put_len(total);
        let mut lines: Vec<u64> = Vec::new();
        for (sm, waiters) in self.l1_waiters.iter().enumerate() {
            lines.clear();
            lines.extend(waiters.keys().copied());
            lines.sort_unstable();
            for &line in &lines {
                w.put_usize(sm);
                w.put_u64(line);
                let reqs = &waiters[&line];
                w.put_len(reqs.len());
                for &req in reqs {
                    w.put_u64(req);
                }
            }
        }

        let mut keys: Vec<u64> = self.l2_waiters.keys().copied().collect();
        keys.sort_unstable();
        w.put_len(keys.len());
        for line in keys {
            w.put_u64(line);
            let sms = &self.l2_waiters[&line];
            w.put_len(sms.len());
            for &sm in sms {
                w.put_usize(sm);
            }
        }

        let mut pending: Vec<u64> = self.dram_pending.iter().copied().collect();
        pending.sort_unstable();
        w.put_len(pending.len());
        for line in pending {
            w.put_u64(line);
        }

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
            l1.push(Cache::decode_state(r)?);
        }
        let l2 = Cache::decode_state(r)?;
        let dram = Dram::decode_state(r)?;

        let n = r.take_len(17)?;
        let mut events = BinaryHeap::with_capacity(n);
        let mut event_pool = Vec::with_capacity(n);
        for _ in 0..n {
            let at = r.take_u64()?;
            let seq = r.take_u64()?;
            if seq >= next_seq {
                return Err(DecodeError::malformed(format!(
                    "event sequence {seq} not below next_seq {next_seq}"
                )));
            }
            let event = decode_event(r)?;
            let idx = event_pool.len();
            event_pool.push(event);
            events.push(Reverse((at, seq, idx)));
        }

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

        let n = r.take_len(24)?;
        let mut l1_waiters: Vec<FxHashMap<u64, Vec<RequestId>>> =
            (0..num_sms).map(|_| FxHashMap::default()).collect();
        for _ in 0..n {
            let sm = r.take_usize()?;
            if sm >= num_sms {
                return Err(DecodeError::malformed(format!(
                    "L1 waiter names SM {sm} of {num_sms}"
                )));
            }
            let line = r.take_u64()?;
            let reqs = r.take_len(8)?;
            let mut ids = Vec::with_capacity(reqs);
            for _ in 0..reqs {
                ids.push(r.take_u64()?);
            }
            l1_waiters[sm].insert(line, ids);
        }

        let n = r.take_len(16)?;
        let mut l2_waiters: FxHashMap<u64, Vec<usize>> =
            FxHashMap::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            let line = r.take_u64()?;
            let sms = r.take_len(8)?;
            let mut waiting = Vec::with_capacity(sms);
            for _ in 0..sms {
                let sm = r.take_usize()?;
                if sm >= num_sms {
                    return Err(DecodeError::malformed(format!(
                        "L2 waiter names SM {sm} of {num_sms}"
                    )));
                }
                waiting.push(sm);
            }
            l2_waiters.insert(line, waiting);
        }

        let n = r.take_len(8)?;
        let mut dram_pending: FxHashSet<u64> =
            FxHashSet::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            dram_pending.insert(r.take_u64()?);
        }

        let n = r.take_len(17)?;
        let mut meta: IdWindow<(AccessKind, u64)> = IdWindow::new();
        let mut prev_req: Option<RequestId> = None;
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
            event_pool,
            free_events: Vec::new(),
            l2_queues,
            l1_waiters,
            l2_waiters,
            dram_pending,
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
        3 => Ok(Event::DramSend { line: r.take_u64()? }),
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
        return Err(DecodeError::malformed("histogram bin width must be nonzero"));
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
        let issue = ms.prefetch_l2(0x77_0000);
        assert!(matches!(issue, Issue::Pending(_)));
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
        assert!(matches!(ms.prefetch_l2(0x88_0000), Issue::Pending(_)));
        for _ in 0..3_000 {
            ms.tick();
        }
        assert_eq!(ms.prefetch_l2(0x88_0000), Issue::PrefetchDropped);
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
        assert_eq!(audit.issued, reqs.len() as u64 + 1);
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
            let a = ms.access(0, 0x70_0000 + i * 4096, FillOrigin::Demand, AccessKind::Triangle);
            let b = back.access(0, 0x70_0000 + i * 4096, FillOrigin::Demand, AccessKind::Triangle);
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
}
