//! Facts about the machine and the build a result is recorded with.

use std::path::PathBuf;

/// The benchmark package directory (`benchmark/` in the repository).
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where runs with `seed` write their results, traces and scratch files.
pub fn out_dir(seed: u64) -> PathBuf {
    package_dir().join("out").join(seed.to_string())
}

/// Available hardware threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// This process's peak resident set size in MiB (`VmHWM`), or 0 where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `rustc --version`, or `unknown`.
pub fn rustc_version() -> String {
    std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The commit the repository is checked out at, read from `.git`, or
/// `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let git = package_dir().join("..").join(".git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(git.join("HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(git.join(r)).unwrap_or_else(|| "unknown".to_string()),
            None => head,
        },
        None => "unknown".to_string(),
    }
}
