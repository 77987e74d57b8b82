//! Ablation: microarchitectural sweeps around the Table 1 configuration —
//! warp-buffer depth, RT-unit issue width, and L1 capacity — showing how
//! sensitive the treelet-prefetching gain is to each.

use rt_bench::{pct, run_grid, suite_detail};
use rt_scene::{SceneId, Workload};
use treelet_rt::{Bench, SimConfig, Sweep};

/// One swept knob: its heading, its values, each value's row label, and
/// how a value is applied to a config.
type Section = (
    &'static str,
    [usize; 4],
    fn(usize) -> String,
    fn(&mut SimConfig, usize),
);

const SECTIONS: [Section; 5] = [
    (
        "warp buffer size (Table 1: 16)",
        [4, 8, 16, 32],
        |v| format!("{v:>3} entries:"),
        |c, v| c.warp_buffer_size = v,
    ),
    (
        "RT-unit issue width",
        [1, 2, 4, 8],
        |v| format!("{v:>3}/cycle:  "),
        |c, v| c.issue_width = v,
    ),
    (
        "L1 capacity (Table 1: 64 KB)",
        [16, 32, 64, 128],
        |v| format!("{v:>3} KB:     "),
        |c, v| c.mem.l1_lines = v * 1024 / 64,
    ),
    (
        "raygen shader stagger (cycles between warp launches)",
        [0, 100, 400, 1600],
        |v| format!("{v:>4} cyc:   "),
        |c, v| c.raygen_interval = v as u64,
    ),
    (
        "prefetch queue capacity",
        [16, 32, 64, 128],
        |v| format!("{v:>3} entries:"),
        |c, v| c.prefetch_queue_capacity = v,
    ),
];

fn main() {
    let bench = Bench::prepare(SceneId::Car, suite_detail(), Workload::paper_default());
    // One baseline and one prefetch column per swept value.
    let mut sweep = Sweep::new(vec![bench]);
    for (_, values, label, apply) in SECTIONS {
        for v in values {
            for mut config in [
                SimConfig::paper_baseline(),
                SimConfig::paper_treelet_prefetch(),
            ] {
                apply(&mut config, v);
                sweep = sweep.with_config(label(v), config);
            }
        }
    }
    let results = run_grid(&sweep);
    let mut pairs = results.chunks(2).zip(sweep.configs().iter().step_by(2));

    println!("== Ablation 4: microarchitecture sweeps (CAR) ==");
    for (heading, values, _, _) in SECTIONS {
        println!("\n-- {heading} --");
        for (pair, (label, _)) in pairs.by_ref().take(values.len()) {
            let (b, p) = (&pair[0][0], &pair[1][0]);
            println!(
                "{label} base {:>8} pf {:>8} speedup {}",
                b.cycles,
                p.cycles,
                pct(p.speedup_over(b))
            );
        }
    }
}
