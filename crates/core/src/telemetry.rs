//! Opt-in runtime telemetry: a zero-perturbation time-series of
//! microarchitectural counters sampled every N cycles.
//!
//! The paper's core evidence is time-resolved — prefetch timeliness
//! (Fig. 10), L2→L1 bandwidth (Fig. 11), per-channel DRAM load
//! imbalance (Fig. 15) — but [`SimResult`](crate::SimResult) only
//! reports end-of-run aggregates. The [`Telemetry`] sink collects one
//! [`TelemetrySample`] per epoch by reading the engine's and memory
//! hierarchy's counters through `&self` accessors only: nothing the
//! state digest covers is touched, so a run's
//! [`state_digest`](crate::SimResult::state_digest) is bit-identical
//! with telemetry on or off. The sink is one of the engine's probes: it
//! samples on the cycles its interval divides, under the epoch rule every
//! probe shares, and a run without it pays one `Option` check per cycle.
//!
//! Samples accumulate in memory; CSV/JSON export happens after the run
//! so the simulation itself never performs I/O.

use std::io::Write;
use std::path::Path;

/// Default sampling interval in core cycles.
pub const DEFAULT_TELEMETRY_EVERY: u64 = 1000;

/// One telemetry epoch: every counter is the value *at* `cycle`
/// (cumulative counters are running totals, depths are instantaneous).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySample {
    /// Core cycle the sample was taken at.
    pub cycle: u64,
    /// Rays not yet retired.
    pub rays_remaining: u64,
    /// Occupied warp-buffer slots across all SMs.
    pub warp_buffer_occupancy: usize,
    /// Warps waiting for a buffer slot across all SMs.
    pub warp_queue_depth: usize,
    /// Entries in the RT-unit scheduler's test heaps across all SMs.
    pub test_heap_depth: usize,
    /// Lines waiting in the treelet prefetch queues across all SMs.
    pub prefetch_queue_depth: usize,
    /// Requests in flight anywhere in the memory hierarchy.
    pub outstanding_requests: usize,
    /// Cumulative L1 demand hit rate across all SMs.
    pub l1_hit_rate: f64,
    /// MSHRs currently allocated across all L1s.
    pub l1_mshrs_in_use: usize,
    /// Cumulative demand accesses rejected by full L1 MSHRs.
    pub l1_mshr_rejections: u64,
    /// Cumulative L2 demand hit rate.
    pub l2_hit_rate: f64,
    /// MSHRs currently allocated at the L2.
    pub l2_mshrs_in_use: usize,
    /// Entries queued at the L2 partitions.
    pub l2_queue_depth: usize,
    /// Cumulative lines returned from L2 to the L1s (Fig. 11).
    pub l2_to_l1_lines: u64,
    /// Cumulative lines filled from DRAM into the L2.
    pub dram_to_l2_lines: u64,
    /// Cumulative useful prefetches (fill landed before the demand).
    pub prefetch_useful: u64,
    /// Cumulative late prefetches (demand arrived first).
    pub prefetch_late: u64,
    /// Cumulative useless prefetches (evicted or stranded untouched).
    pub prefetch_useless: u64,
    /// Instantaneous in-flight request count per DRAM channel.
    pub dram_channel_queue: Vec<usize>,
    /// Cumulative accesses per DRAM channel (Fig. 15).
    pub dram_channel_accesses: Vec<u64>,
    /// Cumulative bytes serviced per DRAM channel.
    pub dram_channel_bytes: Vec<u64>,
}

impl TelemetrySample {
    /// The fixed scalar columns, in CSV order.
    const SCALAR_COLUMNS: &'static [&'static str] = &[
        "cycle",
        "rays_remaining",
        "warp_buffer_occupancy",
        "warp_queue_depth",
        "test_heap_depth",
        "prefetch_queue_depth",
        "outstanding_requests",
        "l1_hit_rate",
        "l1_mshrs_in_use",
        "l1_mshr_rejections",
        "l2_hit_rate",
        "l2_mshrs_in_use",
        "l2_queue_depth",
        "l2_to_l1_lines",
        "dram_to_l2_lines",
        "prefetch_useful",
        "prefetch_late",
        "prefetch_useless",
    ];

    fn scalar_values(&self) -> Vec<String> {
        vec![
            self.cycle.to_string(),
            self.rays_remaining.to_string(),
            self.warp_buffer_occupancy.to_string(),
            self.warp_queue_depth.to_string(),
            self.test_heap_depth.to_string(),
            self.prefetch_queue_depth.to_string(),
            self.outstanding_requests.to_string(),
            format!("{:.6}", self.l1_hit_rate),
            self.l1_mshrs_in_use.to_string(),
            self.l1_mshr_rejections.to_string(),
            format!("{:.6}", self.l2_hit_rate),
            self.l2_mshrs_in_use.to_string(),
            self.l2_queue_depth.to_string(),
            self.l2_to_l1_lines.to_string(),
            self.dram_to_l2_lines.to_string(),
            self.prefetch_useful.to_string(),
            self.prefetch_late.to_string(),
            self.prefetch_useless.to_string(),
        ]
    }
}

/// In-memory telemetry sink: one sample per epoch, exported to CSV or
/// JSON after the run.
#[derive(Debug, Clone)]
pub struct Telemetry {
    every: u64,
    samples: Vec<TelemetrySample>,
}

impl Telemetry {
    /// An empty sink sampling every `every` core cycles. A run handed a
    /// sink with a zero interval refuses it with
    /// [`ConfigError::ZeroTelemetryInterval`](crate::ConfigError::ZeroTelemetryInterval)
    /// before the engine starts.
    pub fn new(every: u64) -> Telemetry {
        Telemetry {
            every,
            samples: Vec::new(),
        }
    }

    /// The sampling interval in core cycles.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Appends one epoch.
    pub(crate) fn record(&mut self, sample: TelemetrySample) {
        self.samples.push(sample);
    }

    /// The collected time-series, oldest first.
    pub fn samples(&self) -> &[TelemetrySample] {
        &self.samples
    }

    /// Number of epochs collected.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no epoch was collected.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn channels(&self) -> usize {
        self.samples
            .first()
            .map_or(0, |s| s.dram_channel_accesses.len())
    }

    /// The CSV header row for this sink's channel count.
    pub fn csv_header(&self) -> String {
        let mut cols: Vec<String> = TelemetrySample::SCALAR_COLUMNS
            .iter()
            .map(|c| c.to_string())
            .collect();
        for ch in 0..self.channels() {
            cols.push(format!("ch{ch}_queue_depth"));
            cols.push(format!("ch{ch}_accesses"));
            cols.push(format!("ch{ch}_bytes"));
        }
        cols.join(",")
    }

    /// Renders the time-series as CSV: a header row, then one row per
    /// epoch with per-channel `ch{i}_queue_depth`/`ch{i}_accesses`/
    /// `ch{i}_bytes` triples after the scalar columns.
    pub fn to_csv(&self) -> String {
        let mut out = self.csv_header();
        out.push('\n');
        for s in &self.samples {
            let mut cells = s.scalar_values();
            for ch in 0..self.channels() {
                cells.push(
                    s.dram_channel_queue
                        .get(ch)
                        .copied()
                        .unwrap_or(0)
                        .to_string(),
                );
                cells.push(
                    s.dram_channel_accesses
                        .get(ch)
                        .copied()
                        .unwrap_or(0)
                        .to_string(),
                );
                cells.push(
                    s.dram_channel_bytes
                        .get(ch)
                        .copied()
                        .unwrap_or(0)
                        .to_string(),
                );
            }
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Renders the time-series as a JSON array of objects; the scalar
    /// columns become numeric fields and the per-channel series become
    /// arrays (`dram_channel_queue`, `dram_channel_accesses`,
    /// `dram_channel_bytes`).
    pub fn to_json(&self) -> String {
        fn json_u64s(values: &[u64]) -> String {
            let items: Vec<String> = values.iter().map(u64::to_string).collect();
            format!("[{}]", items.join(","))
        }
        let mut out = String::from("[");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let queues: Vec<String> = s.dram_channel_queue.iter().map(usize::to_string).collect();
            out.push_str(&format!(
                "{{\"cycle\":{},\"rays_remaining\":{},\"warp_buffer_occupancy\":{},\
                 \"warp_queue_depth\":{},\"test_heap_depth\":{},\"prefetch_queue_depth\":{},\
                 \"outstanding_requests\":{},\"l1_hit_rate\":{:.6},\"l1_mshrs_in_use\":{},\
                 \"l1_mshr_rejections\":{},\"l2_hit_rate\":{:.6},\"l2_mshrs_in_use\":{},\
                 \"l2_queue_depth\":{},\"l2_to_l1_lines\":{},\"dram_to_l2_lines\":{},\
                 \"prefetch_useful\":{},\"prefetch_late\":{},\"prefetch_useless\":{},\
                 \"dram_channel_queue\":[{}],\"dram_channel_accesses\":{},\
                 \"dram_channel_bytes\":{}}}",
                s.cycle,
                s.rays_remaining,
                s.warp_buffer_occupancy,
                s.warp_queue_depth,
                s.test_heap_depth,
                s.prefetch_queue_depth,
                s.outstanding_requests,
                s.l1_hit_rate,
                s.l1_mshrs_in_use,
                s.l1_mshr_rejections,
                s.l2_hit_rate,
                s.l2_mshrs_in_use,
                s.l2_queue_depth,
                s.l2_to_l1_lines,
                s.dram_to_l2_lines,
                s.prefetch_useful,
                s.prefetch_late,
                s.prefetch_useless,
                queues.join(","),
                json_u64s(&s.dram_channel_accesses),
                json_u64s(&s.dram_channel_bytes),
            ));
        }
        out.push(']');
        out
    }

    /// Writes the CSV rendering to `path`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_csv().as_bytes())?;
        f.flush()
    }

    /// Writes the JSON rendering to `path`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(cycle: u64) -> TelemetrySample {
        TelemetrySample {
            cycle,
            rays_remaining: 10,
            warp_buffer_occupancy: 3,
            warp_queue_depth: 2,
            test_heap_depth: 5,
            prefetch_queue_depth: 1,
            outstanding_requests: 4,
            l1_hit_rate: 0.5,
            l1_mshrs_in_use: 2,
            l1_mshr_rejections: 0,
            l2_hit_rate: 0.25,
            l2_mshrs_in_use: 1,
            l2_queue_depth: 0,
            l2_to_l1_lines: 100,
            dram_to_l2_lines: 40,
            prefetch_useful: 7,
            prefetch_late: 2,
            prefetch_useless: 1,
            dram_channel_queue: vec![1, 0, 2, 0],
            dram_channel_accesses: vec![10, 11, 12, 13],
            dram_channel_bytes: vec![640, 704, 768, 832],
        }
    }

    #[test]
    fn csv_has_header_plus_one_row_per_epoch() {
        let mut t = Telemetry::new(100);
        assert!(t.is_empty());
        t.record(sample(100));
        t.record(sample(200));
        assert_eq!(t.len(), 2);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        let header: Vec<&str> = lines[0].split(',').collect();
        assert!(header.contains(&"cycle"));
        assert!(header.contains(&"prefetch_useful"));
        assert!(header.contains(&"ch0_queue_depth"));
        assert!(header.contains(&"ch3_bytes"));
        // Every row has exactly as many cells as the header has columns.
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), header.len());
        }
        // Per-channel triples land in header order.
        let row: Vec<&str> = lines[1].split(',').collect();
        let ch2_accesses = header.iter().position(|&c| c == "ch2_accesses").unwrap();
        assert_eq!(row[ch2_accesses], "12");
    }

    #[test]
    fn json_is_an_array_of_epoch_objects() {
        let mut t = Telemetry::new(100);
        t.record(sample(100));
        let json = t.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"cycle\":100"));
        assert!(json.contains("\"dram_channel_accesses\":[10,11,12,13]"));
        assert!(json.contains("\"prefetch_late\":2"));
        // Balanced braces: one object, no trailing comma.
        assert_eq!(json.matches('{').count(), 1);
        assert_eq!(json.matches('}').count(), 1);
    }

    #[test]
    fn empty_sink_renders_header_only_csv_and_empty_json() {
        let t = Telemetry::new(DEFAULT_TELEMETRY_EVERY);
        assert_eq!(t.to_csv().lines().count(), 1);
        assert_eq!(t.to_json(), "[]");
    }
}
