//! Multi-channel DRAM model with address-interleaved partitions.
//!
//! The paper's configuration has 4 DRAM chips with a 256-byte partition
//! stride; Fig. 15 shows that treelet-packed layouts whose roots are 512
//! bytes apart overload channels 0 and 2. This model reproduces that
//! effect: the channel of an access is `(addr / stride) % channels`, each
//! channel's data bus serializes line bursts, and per-channel traffic
//! counters expose the imbalance.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::codec::{ByteReader, ByteWriter, DecodeError};

/// DRAM timing and topology parameters (in *memory-clock* cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of channels (the paper's 4 DRAM chips).
    pub channels: usize,
    /// Address partition stride in bytes (the paper's 256 B).
    pub partition_stride: u64,
    /// Fixed access latency per request (row activate + CAS), in memory
    /// cycles.
    pub service_latency: u64,
    /// Data-bus cycles one line transfer occupies.
    pub burst_cycles: u64,
}

impl DramConfig {
    /// The paper's configuration: 4 channels, 256-byte stride, and timing
    /// representative of GDDR-class memory.
    pub fn paper_default() -> Self {
        DramConfig {
            channels: 4,
            partition_stride: 256,
            service_latency: 280,
            burst_cycles: 2,
        }
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig::paper_default()
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct Channel {
    bus_free_at: u64,
    busy_cycles: u64,
    accesses: u64,
}

/// The DRAM device: accepts line requests and completes them after
/// queueing + service delay. All times are memory-clock cycles; the
/// memory system converts to and from core cycles.
///
/// # Examples
///
/// ```
/// use rt_gpu_sim::{Dram, DramConfig};
///
/// let mut dram = Dram::new(DramConfig::paper_default());
/// dram.enqueue(7, 0x1000, 0);
/// let done = dram.drain_completed(10_000);
/// assert_eq!(done, vec![7]);
/// ```
#[derive(Debug)]
pub struct Dram {
    config: DramConfig,
    channels: Vec<Channel>,
    completions: BinaryHeap<Reverse<(u64, u64)>>,
}

impl Dram {
    /// Creates a DRAM device.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero channels, stride, or burst.
    pub fn new(config: DramConfig) -> Dram {
        assert!(config.channels > 0, "DRAM needs at least one channel");
        assert!(
            config.partition_stride > 0,
            "partition stride must be nonzero"
        );
        assert!(
            config.burst_cycles > 0,
            "burst must take at least one cycle"
        );
        Dram {
            channels: vec![Channel::default(); config.channels],
            config,
            completions: BinaryHeap::new(),
        }
    }

    /// Channel index servicing `addr`.
    pub fn channel_of(&self, addr: u64) -> usize {
        ((addr / self.config.partition_stride) % self.config.channels as u64) as usize
    }

    /// Enqueues line request `id` for `addr` at memory-cycle `now`.
    /// The request completes after queueing behind earlier bursts on its
    /// channel plus the fixed service latency.
    pub fn enqueue(&mut self, id: u64, addr: u64, now: u64) {
        let ch = self.channel_of(addr);
        let channel = &mut self.channels[ch];
        let start = channel.bus_free_at.max(now);
        channel.bus_free_at = start + self.config.burst_cycles;
        channel.busy_cycles += self.config.burst_cycles;
        channel.accesses += 1;
        let done = start + self.config.service_latency;
        self.completions.push(Reverse((done, id)));
    }

    /// Returns the ids of all requests completed by memory-cycle `now`,
    /// in completion order.
    pub fn drain_completed(&mut self, now: u64) -> Vec<u64> {
        let mut done = Vec::new();
        self.drain_completed_into(now, &mut done);
        done
    }

    /// [`Dram::drain_completed`] into `out` (cleared first), which keeps
    /// its capacity across calls.
    pub(crate) fn drain_completed_into(&mut self, now: u64, out: &mut Vec<u64>) {
        out.clear();
        while let Some(&Reverse((t, id))) = self.completions.peek() {
            if t > now {
                break;
            }
            self.completions.pop();
            out.push(id);
        }
    }

    /// Number of requests still in flight.
    pub fn in_flight(&self) -> usize {
        self.completions.len()
    }

    /// Memory cycle at which the earliest in-flight request completes,
    /// or `None` when nothing is in flight.
    pub fn next_completion(&self) -> Option<u64> {
        self.completions.peek().map(|&Reverse((t, _))| t)
    }

    /// Per-channel access counts (Fig. 15 load-balance evidence).
    pub fn channel_accesses(&self) -> Vec<u64> {
        self.channels.iter().map(|c| c.accesses).collect()
    }

    /// Per-channel in-flight request counts.
    ///
    /// Completion ids are line addresses (see `encode`), so each pending
    /// completion maps back to the channel that is servicing it.
    pub fn channel_in_flight(&self) -> Vec<usize> {
        let mut per = vec![0usize; self.config.channels];
        for &Reverse((_, id)) in self.completions.iter() {
            per[self.channel_of(id)] += 1;
        }
        per
    }

    /// Mean data-bus utilization across channels over `elapsed` memory
    /// cycles (Fig. 1a's DRAM utilization metric).
    ///
    /// # Panics
    ///
    /// Panics if `elapsed` is zero.
    pub fn utilization(&self, elapsed: u64) -> f64 {
        assert!(elapsed > 0, "cannot compute utilization over zero cycles");
        let busy: u64 = self.channels.iter().map(|c| c.busy_cycles).sum();
        busy as f64 / (elapsed as f64 * self.channels.len() as f64)
    }

    /// Total serviced accesses.
    pub fn total_accesses(&self) -> u64 {
        self.channels.iter().map(|c| c.accesses).sum()
    }

    /// Serializes the DRAM state (channels verbatim, completion heap as a
    /// sorted list — completion ids are line addresses, so equal entries
    /// are indistinguishable and pop order is value-determined).
    pub(crate) fn encode_state(&self, w: &mut ByteWriter) {
        w.put_usize(self.config.channels);
        w.put_u64(self.config.partition_stride);
        w.put_u64(self.config.service_latency);
        w.put_u64(self.config.burst_cycles);
        w.put_len(self.channels.len());
        for ch in &self.channels {
            w.put_u64(ch.bus_free_at);
            w.put_u64(ch.busy_cycles);
            w.put_u64(ch.accesses);
        }
        let mut completions: Vec<(u64, u64)> =
            self.completions.iter().map(|Reverse(p)| *p).collect();
        completions.sort_unstable();
        w.put_len(completions.len());
        for (t, id) in completions {
            w.put_u64(t);
            w.put_u64(id);
        }
    }

    /// Rebuilds a DRAM device from bytes produced by
    /// [`Dram::encode_state`].
    pub(crate) fn decode_state(r: &mut ByteReader<'_>) -> Result<Dram, DecodeError> {
        let channels = r.take_usize()?;
        let partition_stride = r.take_u64()?;
        let service_latency = r.take_u64()?;
        let burst_cycles = r.take_u64()?;
        if channels == 0 || partition_stride == 0 || burst_cycles == 0 {
            return Err(DecodeError::malformed("DRAM shape fields must be nonzero"));
        }
        let config = DramConfig {
            channels,
            partition_stride,
            service_latency,
            burst_cycles,
        };
        let n = r.take_len(24)?;
        if n != channels {
            return Err(DecodeError::malformed(format!(
                "channel state count {n} does not match {channels} channels"
            )));
        }
        let mut chans = Vec::with_capacity(n);
        for _ in 0..n {
            chans.push(Channel {
                bus_free_at: r.take_u64()?,
                busy_cycles: r.take_u64()?,
                accesses: r.take_u64()?,
            });
        }
        let n = r.take_len(16)?;
        let mut completions = BinaryHeap::with_capacity(n);
        for _ in 0..n {
            let t = r.take_u64()?;
            let id = r.take_u64()?;
            completions.push(Reverse((t, id)));
        }
        Ok(Dram {
            config,
            channels: chans,
            completions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig::paper_default())
    }

    #[test]
    fn channel_mapping_follows_partition_stride() {
        let d = dram();
        assert_eq!(d.channel_of(0), 0);
        assert_eq!(d.channel_of(256), 1);
        assert_eq!(d.channel_of(512), 2);
        assert_eq!(d.channel_of(768), 3);
        assert_eq!(d.channel_of(1024), 0);
        assert_eq!(d.channel_of(255), 0);
    }

    #[test]
    fn fixed_latency_when_uncontended() {
        let mut d = dram();
        d.enqueue(1, 0x0, 100);
        assert!(d.drain_completed(100 + 279).is_empty());
        assert_eq!(d.drain_completed(100 + 280), vec![1]);
    }

    #[test]
    fn same_channel_requests_serialize_on_the_bus() {
        let mut d = dram();
        d.enqueue(1, 0x0, 0);
        d.enqueue(2, 0x400, 0); // 1024 -> also channel 0
                                // First completes at 280, second starts its burst at 2 -> 2 + 280.
        assert_eq!(d.drain_completed(280), vec![1]);
        assert_eq!(d.drain_completed(282), vec![2]);
    }

    #[test]
    fn different_channels_proceed_in_parallel() {
        let mut d = dram();
        d.enqueue(1, 0x000, 0); // ch 0
        d.enqueue(2, 0x100, 0); // ch 1
        let done = d.drain_completed(280);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn stride_512_addresses_load_only_even_channels() {
        // The Fig. 15 effect: treelet roots 512 B apart hit channels 0 and
        // 2 only.
        let mut d = dram();
        for i in 0..64u64 {
            d.enqueue(i, i * 512, 0);
        }
        let per = d.channel_accesses();
        assert_eq!(per[1], 0);
        assert_eq!(per[3], 0);
        assert_eq!(per[0] + per[2], 64);
    }

    #[test]
    fn stride_768_addresses_balance_all_channels() {
        // Adding the 256 B inter-treelet stride (roots 768 B apart)
        // spreads accesses across all four channels.
        let mut d = dram();
        for i in 0..64u64 {
            d.enqueue(i, i * 768, 0);
        }
        let per = d.channel_accesses();
        assert!(per.iter().all(|&c| c > 0), "channels: {per:?}");
    }

    #[test]
    fn utilization_counts_bus_busy_cycles() {
        let mut d = dram();
        for i in 0..10u64 {
            d.enqueue(i, i * 64, 0);
        }
        // 10 bursts × 2 cycles spread over 4 channels in 100 cycles.
        let u = d.utilization(100);
        assert!((u - 20.0 / 400.0).abs() < 1e-9);
    }

    #[test]
    fn in_flight_tracks_outstanding() {
        let mut d = dram();
        d.enqueue(1, 0, 0);
        d.enqueue(2, 64, 0);
        assert_eq!(d.in_flight(), 2);
        d.drain_completed(1_000);
        assert_eq!(d.in_flight(), 0);
    }

    #[test]
    fn channel_in_flight_buckets_by_servicing_channel() {
        let mut d = dram();
        d.enqueue(0, 0, 0); // ch 0
        d.enqueue(256, 256, 0); // ch 1
        d.enqueue(320, 320, 0); // ch 1
        assert_eq!(d.channel_in_flight(), vec![1, 2, 0, 0]);
        assert_eq!(d.channel_in_flight().iter().sum::<usize>(), d.in_flight());
        d.drain_completed(10_000);
        assert_eq!(d.channel_in_flight(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn state_round_trips_through_the_codec() {
        let mut d = dram();
        for i in 0..10u64 {
            d.enqueue(i, i * 192, i);
        }
        d.drain_completed(300);
        let mut w = ByteWriter::new();
        d.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = Dram::decode_state(&mut r).expect("own encoding must decode");
        r.expect_end().unwrap();
        let mut w2 = ByteWriter::new();
        back.encode_state(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
        assert_eq!(back.in_flight(), d.in_flight());
        assert_eq!(back.channel_accesses(), d.channel_accesses());
    }
}
