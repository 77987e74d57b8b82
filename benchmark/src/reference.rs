//! The host-speed reference: a fixed kernel timed next to every timed
//! item, so that timings can be reported at the reference host's speed.
//!
//! On a shared host the speed at which the simulator runs drifts by up
//! to 1.5× within seconds and minutes (other tenants' load on the same
//! cores and caches; the process's own CPU time drifts with its wall
//! time). No statistic inside one run removes a slowdown that lasts the
//! whole run. The kernel below does the simulator's hottest kind of
//! work, random lookups in a 2 MiB FxHash table, and is timed right
//! before every cell or scene, so it sees the same drift at the same
//! moments. A pass's timings (or a preparation's) are multiplied by
//! [`REFERENCE_MS`] / (mean kernel time during it), which gives them in
//! milliseconds at the reference host's calm speed. The kernel is this
//! crate's own code, and each timed call follows an untimed one that
//! refills the caches with its table, so what the previous cell left in
//! the caches does not move it. On a multi-worker pass the other
//! workers' cells run beside it, so there a change to the program's
//! memory traffic can move it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::hint::black_box;
use std::time::Instant;
use treelet_rt::{plan_schedule, run_weighted};

/// The kernel's time per call on the reference host (2 vCPUs of an
/// Intel Xeon, Sapphire Rapids) in a calm stretch, milliseconds. Fixed
/// forever: it only sets the scale of the reported timings.
pub const REFERENCE_MS: f64 = 0.5;

/// Keys in the table.
const ENTRIES: u64 = 100_000;

/// Keys are drawn from `0..KEY_SPACE`, so about a tenth of lookups hit.
const KEY_SPACE: u64 = 1 << 20;

/// Lookups per call.
const LOOKUPS: u32 = 50_000;

/// The FxHash step (rustc's and Firefox's), the hasher the simulator's
/// tables use; copied so the kernel does not depend on the program.
#[derive(Default)]
struct Fx(u64);

impl Hasher for Fx {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// The reference kernel and its table.
#[derive(Debug)]
pub struct Reference {
    table: HashMap<u64, u64, BuildHasherDefault<Fx>>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    /// Builds the table (the same on every run).
    pub fn new() -> Reference {
        let mut s = 0x9e37_79b9_7f4a_7c15;
        let mut table = HashMap::default();
        while (table.len() as u64) < ENTRIES {
            let k = xorshift(&mut s);
            table.insert(k % KEY_SPACE, k);
        }
        Reference { table }
    }

    /// The kernel's lookups.
    fn lookups(&self) {
        let mut s = 0x2545_f491_4f6c_dd1d;
        let mut acc = 0u64;
        for _ in 0..LOOKUPS {
            if let Some(v) = self.table.get(&(xorshift(&mut s) % KEY_SPACE)) {
                acc ^= v;
            }
        }
        black_box(acc);
    }

    /// One timed call of the kernel, in milliseconds. An untimed call
    /// first brings the table back into the caches, so the time reflects
    /// the host's speed rather than what the previous cell left in the
    /// caches (which a change to the program could move).
    pub fn time(&self) -> f64 {
        self.lookups();
        let t = Instant::now();
        self.lookups();
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// What [`run_weighted_timed`] measured.
#[derive(Debug)]
pub struct Timed<T> {
    /// Each item's result, in item order.
    pub results: Vec<T>,
    /// Each item's milliseconds, at reference speed.
    pub item_ms: Vec<f64>,
    /// Wall milliseconds of the whole call without the kernel calls, at
    /// reference speed.
    pub wall_ms: f64,
    /// Wall milliseconds without the kernel calls, as measured.
    pub raw_wall_ms: f64,
    /// Mean kernel milliseconds per timed call during the run.
    pub kernel_ms: f64,
}

/// `run_weighted(jobs, costs, f)` with the kernel timed on the worker
/// right before each item and each item timed. The kernel's share of the
/// wall time (its total, warm-up calls included, over the worker count)
/// is taken out of the wall time.
pub fn run_weighted_timed<T: Send>(
    reference: &Reference,
    jobs: usize,
    costs: &[u64],
    f: impl Fn(usize) -> T + Sync,
) -> Timed<T> {
    let workers = plan_schedule(jobs, costs).workers().max(1) as f64;
    let start = Instant::now();
    let out = run_weighted(jobs, costs, |i| {
        let k = Instant::now();
        let kernel_ms = reference.time();
        let t = Instant::now();
        let r = f(i);
        let item_ms = t.elapsed().as_secs_f64() * 1e3;
        (r, item_ms, kernel_ms, (t - k).as_secs_f64() * 1e3)
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let n = out.len().max(1) as f64;
    let kernel_ms = out.iter().map(|o| o.2).sum::<f64>() / n;
    let overhead_ms: f64 = out.iter().map(|o| o.3).sum();
    let scale = REFERENCE_MS / kernel_ms;
    let raw_wall_ms = wall_ms - overhead_ms / workers;
    let (results, item_ms) = out.into_iter().map(|(r, ms, _, _)| (r, ms * scale)).unzip();
    Timed {
        results,
        item_ms,
        wall_ms: raw_wall_ms * scale,
        raw_wall_ms,
        kernel_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_fixed_work() {
        let r = Reference::new();
        assert_eq!(r.table.len() as u64, ENTRIES);
        assert!(r.table.keys().all(|&k| k < KEY_SPACE));
        assert!(r.time() > 0.0);
    }

    #[test]
    fn timed_run_scales_items_and_wall() {
        let r = Reference::new();
        let timed = run_weighted_timed(&r, 1, &[1, 1, 1], |i| i * 2);
        assert_eq!(timed.results, vec![0, 2, 4]);
        assert_eq!(timed.item_ms.len(), 3);
        assert!(timed.kernel_ms > 0.0);
        let scale = REFERENCE_MS / timed.kernel_ms;
        assert!((timed.wall_ms - timed.raw_wall_ms * scale).abs() < 1e-9);
        // The wall time without the kernel calls still covers the items.
        let items: f64 = timed.item_ms.iter().sum::<f64>() / scale;
        assert!(timed.raw_wall_ms >= items * 0.99, "{timed:?}");
    }
}
