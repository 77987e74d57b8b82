//! End-to-end CLI contract tests: bad input must exit promptly with
//! code 2 and a clean `error:` line — never a panic backtrace — and
//! telemetry must not perturb the simulated run's state digest.

use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_treelet-prefetching");

fn run_cli(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        // Force backtraces on so a panicking binary cannot pass the
        // "no backtrace in stderr" assertion by accident.
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("failed to spawn CLI")
}

#[test]
fn bad_input_exits_with_code_2_and_no_panic() {
    struct Case {
        name: &'static str,
        args: &'static [&'static str],
        needle: &'static str,
    }
    let cases = [
        Case {
            name: "zero treelet budget (used to assert in treelet.rs)",
            args: &["run", "--scene", "WKND", "--treelet-bytes", "0"],
            needle: "--treelet-bytes",
        },
        Case {
            name: "sub-node treelet budget",
            args: &["run", "--scene", "WKND", "--treelet-bytes", "63"],
            needle: "--treelet-bytes",
        },
        Case {
            name: "zero treelet budget via stats",
            args: &["stats", "--scene", "WKND", "--treelet-bytes", "0"],
            needle: "--treelet-bytes",
        },
        Case {
            name: "infinite detail (used to panic in scenes.rs)",
            args: &["run", "--scene", "WKND", "--detail", "inf"],
            needle: "--detail",
        },
        Case {
            name: "negative-infinite detail",
            args: &["run", "--scene", "WKND", "--detail", "-inf"],
            needle: "--detail",
        },
        Case {
            name: "NaN detail",
            args: &["run", "--scene", "WKND", "--detail", "NaN"],
            needle: "--detail",
        },
        Case {
            name: "zero detail",
            args: &["run", "--scene", "WKND", "--detail", "0"],
            needle: "--detail",
        },
        Case {
            name: "negative detail",
            args: &["stats", "--scene", "WKND", "--detail", "-1"],
            needle: "--detail",
        },
        Case {
            name: "huge detail (used to hang generating triangles)",
            args: &["run", "--scene", "LANDS", "--detail", "1e30"],
            needle: "triangles",
        },
        Case {
            // WKND is the first scene of the suite, so its error is the
            // one reported.
            name: "huge suite detail names the scene that refused",
            args: &["suite", "--detail", "1e30"],
            needle: "scene WKND",
        },
        Case {
            name: "unknown flag",
            args: &["run", "--frobnicate"],
            needle: "--frobnicate",
        },
        Case {
            name: "unknown scene",
            args: &["run", "--scene", "NOPE"],
            needle: "NOPE",
        },
        Case {
            name: "missing flag value",
            args: &["run", "--detail"],
            needle: "--detail",
        },
        Case {
            name: "zero telemetry interval",
            args: &["run", "--telemetry", "--telemetry-every", "0"],
            needle: "--telemetry-every",
        },
        Case {
            name: "telemetry interval without telemetry",
            args: &["run", "--scene", "WKND", "--telemetry-every", "5"],
            needle: "--telemetry-every",
        },
        Case {
            name: "zero jobs",
            args: &["suite", "--jobs", "0"],
            needle: "--jobs",
        },
        Case {
            name: "non-numeric jobs",
            args: &["sweep", "--jobs", "lots"],
            needle: "--jobs",
        },
        Case {
            name: "unknown scene in the suite scene list",
            args: &["suite", "--scenes", "CAR,NOPE"],
            needle: "NOPE",
        },
        Case {
            name: "grid-only flag under suite",
            args: &["suite", "--configs", "baseline,prefetch"],
            needle: "--configs",
        },
        Case {
            name: "suite-only flag under sweep",
            args: &["sweep", "--config", "baseline"],
            needle: "--config",
        },
        Case {
            name: "sub-node treelet budget in the sweep grid",
            args: &["sweep", "--treelet-bytes-list", "256,0"],
            needle: "treelet budget",
        },
        Case {
            name: "serve without a store",
            args: &["serve", "--addr", "127.0.0.1:0"],
            needle: "--store",
        },
        Case {
            name: "serve without an address",
            args: &["serve", "--store", "/tmp/nowhere"],
            needle: "--addr",
        },
        Case {
            name: "serve with zero workers",
            args: &[
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--store",
                "s",
                "--workers",
                "0",
            ],
            needle: "--workers",
        },
        Case {
            name: "serve with zero backoff",
            args: &[
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--store",
                "s",
                "--backoff-ms",
                "0",
            ],
            needle: "--backoff-ms",
        },
        Case {
            name: "client without an action",
            args: &["client"],
            needle: "action",
        },
        Case {
            name: "client ping without an address",
            args: &["client", "ping"],
            needle: "--addr",
        },
        Case {
            name: "client status with a decimal job id",
            args: &["client", "status", "--addr", "127.0.0.1:1", "--job", "123"],
            needle: "--job",
        },
        Case {
            name: "client submit with zero detail",
            args: &["client", "submit", "--addr", "127.0.0.1:1", "--detail", "0"],
            needle: "--detail",
        },
        Case {
            name: "client submit with an unknown scene",
            args: &[
                "client",
                "submit",
                "--addr",
                "127.0.0.1:1",
                "--scenes",
                "NOPE",
            ],
            needle: "NOPE",
        },
        Case {
            name: "client submit with a sub-node treelet budget",
            args: &[
                "client",
                "submit",
                "--addr",
                "127.0.0.1:1",
                "--treelet-bytes",
                "1",
            ],
            needle: "--treelet-bytes",
        },
        Case {
            name: "unknown prefetch selector",
            args: &["run", "--scene", "WKND", "--prefetch", "stride"],
            needle: "--prefetch",
        },
        Case {
            name: "removed hash prefetcher",
            args: &["run", "--scene", "WKND", "--prefetch", "hash"],
            needle: "--prefetch \"hash\" (none | treelet | mta | ghb)",
        },
        Case {
            name: "removed hash prefetcher knob",
            args: &["run", "--scene", "WKND", "--hash-quant", "2"],
            needle: "unknown flag \"--hash-quant\"",
        },
        Case {
            name: "serve with a garbage chaos seed",
            args: &[
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--store",
                "s",
                "--chaos",
                "entropy",
            ],
            needle: "--chaos",
        },
    ];
    for case in &cases {
        let out = run_cli(case.args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{}: expected exit code 2, got {:?}\nstderr: {stderr}",
            case.name,
            out.status.code()
        );
        assert!(
            stderr.contains("error:"),
            "{}: stderr missing `error:` line: {stderr}",
            case.name
        );
        assert!(
            stderr.contains(case.needle),
            "{}: stderr does not name the cause ({:?}): {stderr}",
            case.name,
            case.needle
        );
        for forbidden in ["panicked", "RUST_BACKTRACE", "stack backtrace"] {
            assert!(
                !stderr.contains(forbidden),
                "{}: stderr leaked a panic ({forbidden}): {stderr}",
                case.name
            );
        }
    }
}

#[test]
fn non_finite_obj_vertex_is_a_typed_exit_2() {
    // `v nan 0 0` used to parse, and the run simulated the mesh.
    let path = std::env::temp_dir().join(format!("rt-nan-vertex-{}.obj", std::process::id()));
    std::fs::write(&path, "v 0 0 0\nv nan 0 0\nv 0 1 0\nf 1 2 3\n").unwrap();
    let out = run_cli(&["run", "--obj", path.to_str().unwrap(), "--res", "4"]);
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("error:"), "{stderr}");
    assert!(stderr.contains("line 2"), "{stderr}");
    assert!(stderr.contains("non-finite x coordinate"), "{stderr}");
    for forbidden in ["panicked", "RUST_BACKTRACE", "stack backtrace"] {
        assert!(!stderr.contains(forbidden), "{stderr}");
    }
}

#[test]
fn garbage_rt_chaos_env_is_a_typed_exit_2() {
    // The env path must match the flag's contract: exit 2, clean
    // `error:` line naming RT_CHAOS, no backtrace.
    let out = Command::new(BIN)
        .args(["serve", "--addr", "127.0.0.1:0", "--store", "/tmp/nowhere"])
        .env("RUST_BACKTRACE", "1")
        .env("RT_CHAOS", "entropy")
        .output()
        .expect("failed to spawn CLI");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("error:"), "{stderr}");
    assert!(stderr.contains("RT_CHAOS"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

fn digest_line(stdout: &str) -> &str {
    stdout
        .lines()
        .find(|l| l.starts_with("state digest:"))
        .expect("run output has a state digest line")
}

#[test]
fn telemetry_does_not_change_the_state_digest() {
    let dir = std::env::temp_dir().join(format!("treelet-cli-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv_path = dir.join("telemetry.csv");
    let base_args = [
        "run", "--scene", "WKND", "--detail", "0.2", "--res", "8", "--config", "prefetch",
    ];
    let plain = run_cli(&base_args);
    assert!(plain.status.success(), "plain run failed");
    let mut telemetry_args = base_args.to_vec();
    let csv = csv_path.to_str().unwrap();
    telemetry_args.extend(["--telemetry", csv, "--telemetry-every", "64"]);
    let sampled = run_cli(&telemetry_args);
    let sampled_stdout = String::from_utf8_lossy(&sampled.stdout);
    assert!(
        sampled.status.success(),
        "telemetry run failed: {}",
        String::from_utf8_lossy(&sampled.stderr)
    );
    let plain_stdout = String::from_utf8_lossy(&plain.stdout);
    assert_eq!(
        digest_line(&plain_stdout),
        digest_line(&sampled_stdout),
        "telemetry perturbed the simulation"
    );
    assert!(sampled_stdout.contains("telemetry:"));
    // The exported CSV has the schema the figures consume: a header
    // plus at least one epoch row.
    let csv_text = std::fs::read_to_string(&csv_path).unwrap();
    let mut lines = csv_text.lines();
    let header = lines.next().expect("csv header");
    for column in [
        "cycle",
        "l1_hit_rate",
        "prefetch_useful",
        "prefetch_late",
        "prefetch_useless",
        "ch0_queue_depth",
        "ch0_bytes",
    ] {
        assert!(
            header.contains(column),
            "csv header missing {column}: {header}"
        );
    }
    assert!(lines.count() >= 1, "csv has no epoch rows");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn telemetry_composes_with_checkpointing() {
    // The session owns both features now; the old CLI rejection is gone,
    // and sampling must stay read-only across checkpoint epochs.
    let dir = std::env::temp_dir().join(format!("treelet-cli-telem-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("run.rtsnap");
    let base_args = [
        "run", "--scene", "WKND", "--detail", "0.2", "--res", "8", "--config", "prefetch",
    ];
    let plain = run_cli(&base_args);
    assert!(plain.status.success(), "plain run failed");
    let mut combo_args = base_args.to_vec();
    combo_args.extend([
        "--telemetry",
        "--checkpoint-every",
        "500",
        "--checkpoint-path",
        ckpt.to_str().unwrap(),
    ]);
    let combo = run_cli(&combo_args);
    assert!(
        combo.status.success(),
        "telemetry+checkpoint run failed: {}",
        String::from_utf8_lossy(&combo.stderr)
    );
    let plain_stdout = String::from_utf8_lossy(&plain.stdout);
    let combo_stdout = String::from_utf8_lossy(&combo.stdout);
    assert_eq!(
        digest_line(&plain_stdout),
        digest_line(&combo_stdout),
        "telemetry+checkpointing perturbed the simulation"
    );
    assert!(combo_stdout.contains("telemetry:"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_under_another_checkpoint_interval_exits_5() {
    // A checkpoint numbers its epoch under the interval it was written
    // with; resuming it under another would log one epoch number for two
    // cycles, so the CLI refuses it as a checkpoint failure.
    let dir = std::env::temp_dir().join(format!("treelet-cli-interval-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (ckpt, log) = (dir.join("run.rtsnap"), dir.join("run.digests"));
    let (ckpt_arg, log_arg) = (ckpt.to_str().unwrap(), log.to_str().unwrap());
    let args = |every: &str, extra: &[&str]| {
        let mut args = vec![
            "run",
            "--scene",
            "WKND",
            "--detail",
            "0.2",
            "--res",
            "8",
            "--config",
            "prefetch",
            "--checkpoint-every",
            every,
            "--checkpoint-path",
            ckpt_arg,
            "--digest-log",
            log_arg,
        ];
        args.extend_from_slice(extra);
        run_cli(&args)
    };
    let stopped = args("200", &["--max-cycles", "500"]);
    assert_eq!(stopped.status.code(), Some(3), "the budget stops the run");
    let written = std::fs::read(&log).unwrap();
    let moved = args("300", &["--resume"]);
    assert_eq!(moved.status.code(), Some(5));
    let stderr = String::from_utf8_lossy(&moved.stderr);
    assert!(stderr.contains("not written every 300 cycles"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(std::fs::read(&log).unwrap(), written, "log left as written");
    let resumed = args("200", &["--resume"]);
    assert!(resumed.status.success(), "its own interval resumes");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn suite_digest_logs_are_identical_across_job_counts() {
    // The CLI-level determinism contract: the per-scene digest logs a
    // parallel suite writes are byte-identical to a serial run's.
    let dir = std::env::temp_dir().join(format!("treelet-cli-suite-{}", std::process::id()));
    let (j1, j4) = (dir.join("j1"), dir.join("j4"));
    std::fs::create_dir_all(&dir).unwrap();
    for (jobs, out) in [("1", &j1), ("4", &j4)] {
        let run = run_cli(&[
            "suite",
            "--scenes",
            "WKND,CAR",
            "--detail",
            "0.1",
            "--res",
            "8",
            "--config",
            "prefetch",
            "--jobs",
            jobs,
            "--digest-dir",
            out.to_str().unwrap(),
        ]);
        assert!(
            run.status.success(),
            "suite --jobs {jobs} failed: {}",
            String::from_utf8_lossy(&run.stderr)
        );
    }
    for scene in ["wknd", "car"] {
        let a = std::fs::read(j1.join(format!("{scene}.digests"))).unwrap();
        let b = std::fs::read(j4.join(format!("{scene}.digests"))).unwrap();
        assert!(!a.is_empty(), "{scene}: empty digest log");
        assert_eq!(a, b, "{scene}: digest logs diverge between job counts");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn daemon_bind_failure_exits_7() {
    // Occupy a port, then ask the daemon to bind it.
    let holder = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = holder.local_addr().unwrap().to_string();
    let dir = std::env::temp_dir().join(format!("treelet-cli-bind7-{}", std::process::id()));
    let out = run_cli(&["serve", "--addr", &addr, "--store", dir.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(7),
        "expected exit 7 on bind failure, got {:?}\nstderr: {stderr}",
        out.status.code()
    );
    assert!(stderr.contains("error:"), "stderr: {stderr}");
    assert!(
        stderr.contains(&addr),
        "stderr does not name the address: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn daemon_store_corruption_exits_8() {
    let dir = std::env::temp_dir().join(format!("treelet-cli-store8-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // A store root that is a file, not a directory.
    let blocker = dir.join("not-a-dir");
    std::fs::write(&blocker, b"occupied").unwrap();
    let out = run_cli(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--store",
        blocker.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(8),
        "store-is-a-file: expected exit 8\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A garbage job journal: refusing to guess beats resurrecting a
    // half-written queue, so startup is a hard typed failure.
    let store = dir.join("store");
    std::fs::create_dir_all(store.join("jobs")).unwrap();
    std::fs::write(store.join("jobs/0x0000000000000001.json"), b"garbage{").unwrap();
    let out = run_cli(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--store",
        store.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(8),
        "corrupt journal: expected exit 8\nstderr: {stderr}"
    );
    assert!(
        stderr.contains("error:") && stderr.contains("corruption"),
        "stderr does not describe the corruption: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(unix)]
#[test]
fn daemon_sigterm_drains_and_exits_9() {
    use std::io::BufRead;
    let dir = std::env::temp_dir().join(format!("treelet-cli-sig9-{}", std::process::id()));
    let mut child = Command::new(BIN)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--store",
            dir.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn daemon");

    // Wait until the daemon reports its listening address before
    // signalling, so we test the running accept loop, not startup.
    let stdout = child.stdout.take().expect("daemon stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("daemon printed a banner")
        .expect("read banner");
    assert!(banner.contains("rt-served listening"), "banner: {banner}");

    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(kill.success());

    let status = child.wait().expect("daemon exit");
    assert_eq!(
        status.code(),
        Some(9),
        "expected exit 9 after SIGTERM, got {status:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn telemetry_json_export_is_an_array() {
    let dir = std::env::temp_dir().join(format!("treelet-cli-telem-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json_path = dir.join("telemetry.json");
    let out = run_cli(&[
        "run",
        "--scene",
        "WKND",
        "--detail",
        "0.2",
        "--res",
        "8",
        "--telemetry",
        json_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "json telemetry run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&json_path).unwrap();
    let trimmed = text.trim();
    assert!(trimmed.starts_with('[') && trimmed.ends_with(']'));
    assert!(trimmed.contains("\"prefetch_useful\""));
    std::fs::remove_dir_all(&dir).ok();
}
