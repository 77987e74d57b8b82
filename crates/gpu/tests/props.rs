//! Property-based tests for the cache and DRAM models.

use rt_gpu_sim::{
    AccessKind, Cache, CountTable, Dram, DramConfig, FillOrigin, MemConfig, MemorySystem,
    Organization, ProbeOutcome,
};
use rt_rng::prop::forall;
use rt_rng::{Rng, SmallRng};

/// A random access script: (line index, is_prefetch).
fn script(rng: &mut SmallRng) -> Vec<(u8, bool)> {
    let n = rng.gen_range(1..200usize);
    (0..n)
        .map(|_| (rng.gen_range(0..32u32) as u8, rng.gen_bool(0.5)))
        .collect()
}

#[test]
fn cache_occupancy_never_exceeds_capacity() {
    forall("cache_occupancy_never_exceeds_capacity", 128, |rng| {
        let ops = script(rng);
        let mut cache = Cache::new(8, Organization::FullyAssociative, 64, 64);
        for (i, (line, prefetch)) in ops.iter().enumerate() {
            let addr = *line as u64 * 64;
            let origin = if *prefetch { FillOrigin::Prefetch } else { FillOrigin::Demand };
            if cache.probe(addr, origin, i as u64) == ProbeOutcome::Miss {
                cache.fill(addr, i as u64);
            }
            assert!(cache.resident_lines() <= 8);
        }
    });
}

#[test]
fn fill_then_probe_always_hits() {
    forall("fill_then_probe_always_hits", 128, |rng| {
        let ops = script(rng);
        let mut cache = Cache::new(16, Organization::SetAssociative { sets: 4 }, 64, 64);
        for (i, (line, _)) in ops.iter().enumerate() {
            let addr = *line as u64 * 64;
            if cache.probe(addr, FillOrigin::Demand, i as u64) == ProbeOutcome::Miss {
                cache.fill(addr, i as u64);
                let hits = matches!(
                    cache.probe(addr, FillOrigin::Demand, i as u64),
                    ProbeOutcome::Hit { .. }
                );
                assert!(hits);
            }
        }
    });
}

#[test]
fn mshr_count_is_bounded() {
    forall("mshr_count_is_bounded", 128, |rng| {
        let ops = script(rng);
        let mut cache = Cache::new(64, Organization::FullyAssociative, 4, 64);
        for (i, (line, _)) in ops.iter().enumerate() {
            let addr = *line as u64 * 64;
            let _ = cache.probe(addr, FillOrigin::Demand, i as u64);
            assert!(cache.mshrs_in_use() <= 4);
        }
    });
}

#[test]
fn effectiveness_classification_is_complete() {
    forall("effectiveness_classification_is_complete", 128, |rng| {
        // Every prefetch probe ends up in exactly one class once the run
        // is finalized: too_late (dropped) or one of the fill classes.
        let ops = script(rng);
        let mut cache = Cache::new(8, Organization::FullyAssociative, 64, 64);
        for (i, (line, prefetch)) in ops.iter().enumerate() {
            let addr = *line as u64 * 64;
            let origin = if *prefetch { FillOrigin::Prefetch } else { FillOrigin::Demand };
            if cache.probe(addr, origin, i as u64) == ProbeOutcome::Miss {
                cache.fill(addr, i as u64);
            }
        }
        let stats = cache.stats();
        let effect = cache.finalize_effect();
        // timely + late + early + unused counts distinct prefetch *fills*;
        // too_late counts dropped probes. Together they never exceed the
        // number of prefetch probes, and dropped + actually-fetched probes
        // cover them all.
        assert_eq!(effect.too_late + stats.prefetch_misses, stats.prefetch_probes);
        assert!(
            effect.timely + effect.late + effect.early + effect.unused
                <= stats.prefetch_misses + effect.early
        );
    });
}

#[test]
fn memory_system_never_loses_requests() {
    forall("memory_system_never_loses_requests", 128, |rng| {
        // Fuzz the full hierarchy with interleaved demand loads and
        // prefetches from two SMs: every accepted demand request must
        // complete, even under MSHR backpressure (Retry).
        let n = rng.gen_range(1..150usize);
        let pattern: Vec<(u64, usize, bool)> = (0..n)
            .map(|_| (rng.gen_range(0..256u64), rng.gen_range(0..2usize), rng.gen_bool(0.5)))
            .collect();
        let mut cfg = MemConfig::paper_default();
        cfg.l1_mshrs = 4; // force backpressure
        cfg.l2_mshrs = 8;
        let mut ms = MemorySystem::new(cfg, 2);
        let mut outstanding: Vec<(usize, u64)> = Vec::new();
        let mut issued = 0u64;
        let mut retries = 0u64;
        for &(block, sm, prefetch) in &pattern {
            let addr = block * 64;
            let origin = if prefetch { FillOrigin::Prefetch } else { FillOrigin::Demand };
            match ms.access(sm, addr, origin, AccessKind::Node) {
                rt_gpu_sim::Issue::Hit(req) | rt_gpu_sim::Issue::Pending(req) => {
                    if origin == FillOrigin::Demand {
                        outstanding.push((sm, req));
                        issued += 1;
                    }
                }
                rt_gpu_sim::Issue::Retry => retries += 1,
                rt_gpu_sim::Issue::PrefetchDropped => {}
            }
            ms.tick();
            for sm in 0..2 {
                for done in ms.drain_completed(sm) {
                    outstanding.retain(|&(s, r)| !(s == sm && r == done));
                }
            }
        }
        // Drain everything.
        for _ in 0..20_000 {
            if outstanding.is_empty() {
                break;
            }
            ms.tick();
            for sm in 0..2 {
                for done in ms.drain_completed(sm) {
                    outstanding.retain(|&(s, r)| !(s == sm && r == done));
                }
            }
        }
        assert!(
            outstanding.is_empty(),
            "{} of {} demand requests never completed ({} retries)",
            outstanding.len(),
            issued,
            retries
        );
    });
}

#[test]
fn dram_completion_respects_service_latency() {
    forall("dram_completion_respects_service_latency", 128, |rng| {
        let n = rng.gen_range(1..64usize);
        let addrs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..4096u64)).collect();
        let config = DramConfig::paper_default();
        let mut dram = Dram::new(config);
        for (i, a) in addrs.iter().enumerate() {
            dram.enqueue(i as u64, a * 64, 0);
        }
        // Nothing can complete before the fixed service latency.
        assert!(dram.drain_completed(config.service_latency - 1).is_empty());
        // Everything completes eventually.
        let horizon = config.service_latency + addrs.len() as u64 * config.burst_cycles;
        let done = dram.drain_completed(horizon);
        assert_eq!(done.len(), addrs.len());
        assert_eq!(dram.in_flight(), 0);
    });
}

#[test]
fn dram_channel_counts_conserve_requests() {
    forall("dram_channel_counts_conserve_requests", 128, |rng| {
        let n = rng.gen_range(1..100usize);
        let addrs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..100_000u64)).collect();
        let mut dram = Dram::new(DramConfig::paper_default());
        for (i, a) in addrs.iter().enumerate() {
            dram.enqueue(i as u64, *a, 0);
        }
        let per: u64 = dram.channel_accesses().iter().sum();
        assert_eq!(per, addrs.len() as u64);
        assert_eq!(dram.total_accesses(), addrs.len() as u64);
    });
}

#[test]
fn count_table_max_matches_a_full_scan() {
    // Few keys and small counts make ties common, so the lowest-key
    // tie-break is exercised as often as the count order.
    forall("count_table_max_matches_a_full_scan", 256, |rng| {
        let mut table = CountTable::default();
        let mut reference = [0u32; 12];
        for _ in 0..rng.gen_range(1..300usize) {
            let key = rng.gen_range(0..12u32);
            match rng.gen_range(0..10u32) {
                0..=3 => {
                    table.increment(key);
                    reference[key as usize] += 1;
                }
                4..=7 => {
                    if reference[key as usize] > 0 {
                        table.decrement(key);
                        reference[key as usize] -= 1;
                    }
                }
                8 => {
                    let n = rng.gen_range(0..4u32);
                    table.add(key, n);
                    reference[key as usize] += n;
                }
                _ => {
                    if rng.gen_bool(0.2) {
                        table.clear();
                        reference = [0; 12];
                    }
                }
            }
            // Query only some steps, so stale leaders meet later updates.
            if rng.gen_bool(0.5) {
                let expected = (0..12u32)
                    .map(|k| (k, reference[k as usize]))
                    .filter(|&(_, c)| c > 0)
                    .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)));
                assert_eq!(table.max(), expected);
            }
        }
    });
}
