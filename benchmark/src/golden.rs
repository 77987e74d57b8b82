//! Pinned per-cell `(cycles, state digest)` results.
//!
//! `golden/<workload>.txt` holds one line per cell, `KEY cycles digest`,
//! where a key names the cell (`CAR prefetch`).
//! The files are written with `--bless` from a run with the default
//! seed; a change to the simulator that is meant to move results
//! re-blesses them in the same commit.

use crate::metrics::Outcome;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The seed the golden files are pinned for.
pub const DEFAULT_SEED: u64 = 1;

/// One simulated cell's identity and result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellDigest {
    /// Names the cell, e.g. `CAR prefetch`; no whitespace but the one space.
    pub key: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// The engine's final state digest.
    pub digest: u64,
}

fn path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{workload}.txt"))
}

fn parse(text: &str) -> Result<BTreeMap<String, (u64, u64)>, String> {
    let mut cells = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let bad = || format!("golden line {}: {line:?}", n + 1);
        let [scene, config, cycles, digest] = fields[..] else {
            return Err(bad());
        };
        let cycles = cycles.parse().map_err(|_| bad())?;
        let digest = digest
            .strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(bad)?;
        cells.insert(format!("{scene} {config}"), (cycles, digest));
    }
    Ok(cells)
}

/// Checks `cells` against `golden/<workload>.txt`, one check per cell;
/// a cell missing from the file is a failure, since a workload runs the
/// same grid every time.
pub fn check(workload: &str, cells: &[CellDigest], outcome: &mut Outcome) {
    let golden = match std::fs::read_to_string(path(workload))
        .map_err(|e| format!("{}: {e}", path(workload).display()))
        .and_then(|text| parse(&text))
    {
        Ok(golden) => golden,
        Err(e) => return outcome.fail(format!("golden file unusable: {e}")),
    };
    for cell in cells {
        match golden.get(&cell.key) {
            Some(&(cycles, digest)) => {
                outcome.check((cycles, digest) == (cell.cycles, cell.digest), || {
                    format!(
                        "{}: {} cycles {:#018x}, golden {cycles} cycles {digest:#018x}",
                        cell.key, cell.cycles, cell.digest
                    )
                })
            }
            None => outcome.fail(format!("{}: not in the golden file", cell.key)),
        }
    }
}

/// Writes `cells` as the golden file for `workload`.
pub fn bless(workload: &str, seed: u64, cells: &[CellDigest]) -> std::io::Result<()> {
    let mut text = format!("# {workload}: per-cell cycles and state digest, seed {seed}\n");
    let mut sorted = cells.to_vec();
    sorted.sort_by(|a, b| a.key.cmp(&b.key));
    sorted.dedup_by(|a, b| a.key == b.key);
    for c in &sorted {
        text.push_str(&format!("{} {} {:#018x}\n", c.key, c.cycles, c.digest));
    }
    let path = path(workload);
    std::fs::create_dir_all(path.parent().expect("golden dir"))?;
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_lines_and_rejects_garbage() {
        let cells = parse("# header\n\nCAR prefetch 12 0x00000000000000ff\n").unwrap();
        assert_eq!(cells["CAR prefetch"], (12, 255));
        assert!(parse("CAR prefetch 12\n").is_err());
        assert!(parse("CAR prefetch x 0x1\n").is_err());
        assert!(parse("CAR prefetch 1 ff\n").is_err());
    }
}
