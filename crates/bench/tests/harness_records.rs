//! The recorded harness outputs stay current: every `### \`name\``
//! block under EXPERIMENTS.md's "Full harness outputs" must be exactly
//! what the `name` binary prints on stdout at the default (full)
//! detail. Any change to the simulator or to a binary that moves a
//! printed number fails here until the block is regenerated.
//!
//! Ignored by default because it runs every harness binary at full
//! detail (about 20 s in release on 2 vCPUs). Run it with
//!
//! ```sh
//! cargo test --release -p rt-bench --test harness_records -- --ignored
//! ```

use std::process::Command;

/// `(name, executable)` for each listed harness binary.
macro_rules! bins {
    ($($name:ident),* $(,)?) => {
        &[$((stringify!($name), env!(concat!("CARGO_BIN_EXE_", stringify!($name))))),*]
    };
}

/// Every binary with a recorded block, in document order.
const BINS: &[(&str, &str)] = bins![
    tab01_config,
    tab02_scene_stats,
    fig01_memory_stats,
    fig07_overall,
    fig08_prior_work,
    fig09_breakdown,
    tab03_nodes_per_ray,
    fig10_heuristics,
    fig11_l2_bw,
    fig12_l1_stats,
    fig13_schedulers,
    fig14_repacking,
    fig15_load_balance,
    fig16_latency,
    fig17_voter_accuracy,
    fig18_voter_perf,
    fig19_treelet_sizes,
    fig20_effectiveness,
    sec65_area,
    abl01_formation,
    abl02_traversal,
    abl03_workloads,
    abl04_sweeps,
    abl05_prefetch_scope,
    abl06_animation,
    abl07_shader,
];

/// The `(name, fenced text)` blocks under "Full harness outputs", in
/// document order. A block's prose, if any, sits between its heading and
/// its ```` ```text ```` fence and is skipped.
fn recorded_blocks(doc: &str) -> Vec<(String, String)> {
    let (_, outputs) = doc
        .split_once("\n## Full harness outputs\n")
        .expect("EXPERIMENTS.md has a \"Full harness outputs\" section");
    outputs
        .split("\n### `")
        .skip(1)
        .map(|section| {
            let (name, rest) = section.split_once("`\n").expect("block heading");
            let (_, fenced) = rest.split_once("```text\n").expect("text fence");
            let (text, _) = fenced.split_once("```\n").expect("closing fence");
            (name.to_string(), text.to_string())
        })
        .collect()
}

#[test]
#[ignore = "runs every harness binary at full detail"]
fn every_binary_prints_its_recorded_block() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).expect("read EXPERIMENTS.md");
    let blocks = recorded_blocks(&doc);
    let names: Vec<&str> = blocks.iter().map(|(n, _)| n.as_str()).collect();
    let bins: Vec<&str> = BINS.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, bins, "recorded blocks and checked binaries differ");
    let mut stale = Vec::new();
    for ((name, recorded), (_, exe)) in blocks.iter().zip(BINS) {
        let out = Command::new(exe)
            .env_remove("TREELET_DETAIL")
            .env_remove("TREELET_CSV_DIR")
            .output()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(out.status.success(), "{name} exited with {}", out.status);
        let printed = String::from_utf8(out.stdout).expect("utf-8 stdout");
        if printed != *recorded {
            eprintln!("--- {name}: recorded\n{recorded}--- {name}: printed\n{printed}");
            stale.push(name.as_str());
        }
    }
    assert!(
        stale.is_empty(),
        "stale EXPERIMENTS.md blocks (regenerate from the binaries): {stale:?}"
    );
}
