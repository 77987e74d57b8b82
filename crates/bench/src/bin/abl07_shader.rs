//! Ablation: the SM shader pipeline around the RT unit (paper Fig. 2).
//! Warps run ray-generation and shading code on the SM's issue port
//! between `traceRay` calls; bounce generations mask dead lanes off
//! SIMT-style. This sweeps the shading-to-traversal ratio to see how
//! much of the treelet-prefetching benefit survives when the workload is
//! no longer pure traversal.

use rt_bench::{pct, run_grid, suite_detail};
use rt_scene::{SceneId, Workload};
use treelet_rt::{Bench, BounceKind, ShaderProgram, SimConfig, Sweep};

fn main() {
    let bench = Bench::prepare(SceneId::Crnvl, suite_detail(), Workload::paper_default());
    let programs: Vec<(&str, Option<ShaderProgram>)> = vec![
        ("trace replay (paper §5)", None),
        (
            "raygen only",
            Some(ShaderProgram {
                raygen_ops: 64,
                shade_ops: 0,
                bounces: 0,
                bounce_kind: BounceKind::Diffuse,
                seed: 7,
            }),
        ),
        ("path tracer (1 bounce)", Some(ShaderProgram::path_tracer())),
        (
            "heavy shading (1 bounce)",
            Some(ShaderProgram {
                raygen_ops: 256,
                shade_ops: 1024,
                bounces: 1,
                bounce_kind: BounceKind::Diffuse,
                seed: 7,
            }),
        ),
        (
            "2 diffuse bounces",
            Some(ShaderProgram {
                raygen_ops: 32,
                shade_ops: 64,
                bounces: 2,
                bounce_kind: BounceKind::Diffuse,
                seed: 7,
            }),
        ),
        (
            "2 specular bounces",
            Some(ShaderProgram {
                raygen_ops: 32,
                shade_ops: 64,
                bounces: 2,
                bounce_kind: BounceKind::Specular,
                seed: 7,
            }),
        ),
    ];
    // One baseline and one prefetch column per program.
    let mut sweep = Sweep::new(vec![bench]);
    for (name, shader) in programs {
        for mut config in [
            SimConfig::paper_baseline(),
            SimConfig::paper_treelet_prefetch(),
        ] {
            config.shader = shader;
            sweep = sweep.with_config(name, config);
        }
    }
    let results = run_grid(&sweep);

    println!("== Ablation 7: shader pipeline around the RT unit (CRNVL) ==");
    println!(
        "{:<26} {:>10} {:>10} {:>9} {:>7}",
        "program", "base cyc", "pf cyc", "speedup", "SIMT"
    );
    for (pair, (name, _)) in results.chunks(2).zip(sweep.configs().iter().step_by(2)) {
        let (base, pf) = (&pair[0][0], &pair[1][0]);
        println!(
            "{:<26} {:>10} {:>10} {:>9} {:>6.1}%",
            name,
            base.cycles,
            pf.cycles,
            pct(pf.speedup_over(base)),
            pf.simt_efficiency * 100.0
        );
    }
    println!("\n(SIMT = mean live-lane fraction of warps entering the RT unit)");
}
