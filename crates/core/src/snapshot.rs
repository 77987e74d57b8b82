//! Crash-safe checkpoint containers and replay-digest logs.
//!
//! Long sweeps die — machines reboot, schedulers kill jobs, fault
//! injection wedges runs. This module gives the simulator a durable
//! restart point: the engine's complete dynamic state, serialized with
//! a hand-rolled zero-dependency codec, wrapped in
//! a versioned, checksummed, self-describing container that is written
//! atomically (temp file + rename) so a crash mid-write can never leave
//! a half-checkpoint behind.
//!
//! # Container format (version 3)
//!
//! Version 2 switched the payload to the dense-table engine encoding
//! (the fully-associative cache's LRU heap is rebuilt at restore instead
//! of being serialized, and warp-buffer pending lines are encoded from a
//! cursor into the rebuilt trace). Version 3 dropped the owners of
//! L2-destination prefetches from the payload: they complete silently in
//! the memory system, so the engine no longer records them. Older
//! checkpoints are refused with a typed error. All integers
//! little-endian, laid out by `rt_gpu_sim`'s `ByteWriter`:
//!
//! | field            | bytes | meaning                                   |
//! |------------------|-------|-------------------------------------------|
//! | magic            | 8     | `RTSNAP02`                                |
//! | version          | 4     | container version (3)                     |
//! | identity         | 8     | FNV-1a digest of the run's inputs         |
//! | epoch            | 8     | checkpoint epoch (`cycle / every`)        |
//! | start_cycle      | 8     | memory-system cycle when the run began    |
//! | cycle            | 8     | memory-system cycle at the checkpoint     |
//! | rays_remaining   | 8     | unretired rays (diagnostic)               |
//! | payload length   | 8     | engine-state byte count                   |
//! | payload          | n     | canonical engine + memory-system state    |
//! | checksum         | 8     | FNV-1a over every preceding byte          |
//!
//! The *identity* pins a checkpoint to the exact scene, ray set, and
//! configuration that produced it (cycle budgets excluded, so an
//! exhausted run can resume under a larger budget); resuming against
//! different inputs is a typed error, not silent garbage. So is resuming
//! under another checkpoint interval: `cycle == epoch * every` must hold
//! for the resuming run's `every`. The payload's
//! FNV-1a digest doubles as the run's per-epoch *state digest*: two runs
//! are bit-identical exactly when their digest sequences match, which is
//! what [`first_divergence`] bisects.

use rt_gpu_sim::{fnv1a64, ByteReader, ByteWriter, DecodeError};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Leading bytes of every checkpoint file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"RTSNAP02";
/// Current container version.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Why a checkpoint could not be written, read, or applied.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem I/O failed (`what` names the operation).
    Io {
        /// The failing operation, e.g. "write checkpoint".
        what: &'static str,
        /// The file involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The checkpoint bytes are corrupt, truncated, or from an
    /// unsupported format version.
    Decode(DecodeError),
    /// The checkpoint was produced by a different scene, ray set, or
    /// configuration than the one being resumed.
    IdentityMismatch {
        /// Identity digest recorded in the checkpoint.
        expected: u64,
        /// Identity digest of the run attempting to resume.
        found: u64,
    },
    /// The checkpoint was written under a different checkpoint interval
    /// than the one resuming it; its epoch and cycle disagree with
    /// `every`, and continuing would number the digest log's epochs
    /// under two intervals.
    IntervalMismatch {
        /// The checkpoint's epoch.
        epoch: u64,
        /// The checkpoint's cycle.
        cycle: u64,
        /// The interval the resuming run asked for.
        every: u64,
    },
    /// A digest-log line did not parse (`line` is 1-based).
    MalformedDigestLog {
        /// The offending line number.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { what, path, source } => {
                write!(f, "could not {what} {}: {source}", path.display())
            }
            SnapshotError::Decode(e) => write!(f, "invalid checkpoint: {e}"),
            SnapshotError::IdentityMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different run \
                 (identity {expected:#018x}, this run is {found:#018x})"
            ),
            SnapshotError::IntervalMismatch {
                epoch,
                cycle,
                every,
            } => write!(
                f,
                "checkpoint epoch {epoch} at cycle {cycle} was not written every \
                 {every} cycles; resume with the interval it was written under"
            ),
            SnapshotError::MalformedDigestLog { line, message } => {
                write!(f, "digest log line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io { source, .. } => Some(source),
            SnapshotError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> Self {
        SnapshotError::Decode(e)
    }
}

/// A decoded checkpoint: header fields plus the opaque engine payload.
///
/// The payload's canonical bytes are produced and consumed by the
/// simulation engine; this container neither interprets nor re-orders
/// them, so `fnv1a64(&payload)` is the run's state digest at `cycle`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Input-identity digest (scene + rays + canonicalized config).
    pub identity: u64,
    /// Checkpoint epoch (`cycle / checkpoint interval`).
    pub epoch: u64,
    /// Memory-system cycle when the interrupted run originally began.
    pub start_cycle: u64,
    /// Memory-system cycle at which the state was captured.
    pub cycle: u64,
    /// Rays not yet retired at capture time.
    pub rays_remaining: u64,
    /// Canonical engine + memory-system state bytes.
    pub payload: Vec<u8>,
}

impl Checkpoint {
    /// The FNV-1a digest of the payload — the per-epoch state digest.
    pub fn state_digest(&self) -> u64 {
        fnv1a64(&self.payload)
    }

    /// Serializes the checkpoint into its container bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(&SNAPSHOT_MAGIC);
        w.put_u32(SNAPSHOT_VERSION);
        w.put_u64(self.identity);
        w.put_u64(self.epoch);
        w.put_u64(self.start_cycle);
        w.put_u64(self.cycle);
        w.put_u64(self.rays_remaining);
        w.put_len(self.payload.len());
        w.put_bytes(&self.payload);
        let checksum = fnv1a64(w.bytes());
        w.put_u64(checksum);
        w.into_bytes()
    }

    /// Decodes a checkpoint container, verifying magic, version, and
    /// checksum.
    ///
    /// # Errors
    ///
    /// Any corruption is a typed [`DecodeError`]: wrong magic, an
    /// unsupported version, truncation, trailing bytes, or a checksum
    /// mismatch (bit flips anywhere in the file).
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, DecodeError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.take_bytes(SNAPSHOT_MAGIC.len())?;
        if magic != SNAPSHOT_MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = r.take_u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(DecodeError::UnsupportedVersion { found: version });
        }
        let identity = r.take_u64()?;
        let epoch = r.take_u64()?;
        let start_cycle = r.take_u64()?;
        let cycle = r.take_u64()?;
        let rays_remaining = r.take_u64()?;
        let n = r.take_len(1)?;
        let payload = r.take_bytes(n)?.to_vec();
        let body_len = r.position();
        let found = r.take_u64()?;
        r.expect_end()?;
        let expected = fnv1a64(&bytes[..body_len]);
        if found != expected {
            return Err(DecodeError::ChecksumMismatch { expected, found });
        }
        Ok(Checkpoint {
            identity,
            epoch,
            start_cycle,
            cycle,
            rays_remaining,
            payload,
        })
    }
}

/// Writes `bytes` to `path` atomically: the data lands in a sibling temp
/// file, is fsynced, and is renamed over the destination, so readers see
/// either the old checkpoint or the new one — never a torn write.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    fn io_err(what: &'static str, path: PathBuf) -> impl FnOnce(std::io::Error) -> SnapshotError {
        move |source| SnapshotError::Io { what, path, source }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f =
            fs::File::create(&tmp).map_err(io_err("create temp checkpoint", tmp.clone()))?;
        f.write_all(bytes)
            .map_err(io_err("write checkpoint", tmp.clone()))?;
        f.sync_all()
            .map_err(io_err("sync checkpoint", tmp.clone()))?;
    }
    fs::rename(&tmp, path).map_err(io_err("commit checkpoint", path.to_path_buf()))
}

/// Reads and decodes a checkpoint file.
///
/// # Errors
///
/// [`SnapshotError::Io`] if the file cannot be read,
/// [`SnapshotError::Decode`] if its contents are not a valid checkpoint.
pub fn read_checkpoint(path: &Path) -> Result<Checkpoint, SnapshotError> {
    let bytes = fs::read(path).map_err(|source| SnapshotError::Io {
        what: "read checkpoint",
        path: path.to_path_buf(),
        source,
    })?;
    Ok(Checkpoint::from_bytes(&bytes)?)
}

/// One digest-log entry: the engine's state digest at an epoch boundary.
///
/// Logs are plain text, one record per line, so they survive partial
/// writes (a torn final line is rejected with a line number) and diff
/// cleanly:
///
/// ```text
/// epoch=3 cycle=3000 digest=0x04c11db700000000 rays_remaining=42
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestRecord {
    /// Checkpoint epoch.
    pub epoch: u64,
    /// Memory-system cycle at the epoch boundary.
    pub cycle: u64,
    /// FNV-1a state digest of the engine payload at that cycle.
    pub digest: u64,
    /// Rays not yet retired.
    pub rays_remaining: u64,
}

impl fmt::Display for DigestRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "epoch={} cycle={} digest={:#018x} rays_remaining={}",
            self.epoch, self.cycle, self.digest, self.rays_remaining
        )
    }
}

impl DigestRecord {
    /// Parses one `key=value`-formatted log line.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::MalformedDigestLog`] (with `line` as the
    /// reported line number) on missing keys or unparsable values.
    pub fn parse(text: &str, line: usize) -> Result<DigestRecord, SnapshotError> {
        let bad = |message: String| SnapshotError::MalformedDigestLog { line, message };
        let mut epoch = None;
        let mut cycle = None;
        let mut digest = None;
        let mut rays_remaining = None;
        for field in text.split_whitespace() {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| bad(format!("field `{field}` is not key=value")))?;
            let slot = match key {
                "epoch" => &mut epoch,
                "cycle" => &mut cycle,
                "digest" => &mut digest,
                "rays_remaining" => &mut rays_remaining,
                other => return Err(bad(format!("unknown field `{other}`"))),
            };
            let parsed = if let Some(hex) = value.strip_prefix("0x") {
                u64::from_str_radix(hex, 16)
            } else {
                value.parse()
            }
            .map_err(|e| bad(format!("bad value for `{key}`: {e}")))?;
            if slot.replace(parsed).is_some() {
                return Err(bad(format!("duplicate field `{key}`")));
            }
        }
        Ok(DigestRecord {
            epoch: epoch.ok_or_else(|| bad("missing field `epoch`".into()))?,
            cycle: cycle.ok_or_else(|| bad("missing field `cycle`".into()))?,
            digest: digest.ok_or_else(|| bad("missing field `digest`".into()))?,
            rays_remaining: rays_remaining
                .ok_or_else(|| bad("missing field `rays_remaining`".into()))?,
        })
    }
}

/// Parses a whole digest log (blank lines skipped).
///
/// # Errors
///
/// [`SnapshotError::MalformedDigestLog`] naming the first bad line.
pub fn parse_digest_log(text: &str) -> Result<Vec<DigestRecord>, SnapshotError> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| DigestRecord::parse(l, i + 1))
        .collect()
}

/// Reads and parses a digest-log file.
///
/// # Errors
///
/// [`SnapshotError::Io`] on read failure, else as [`parse_digest_log`].
pub fn read_digest_log(path: &Path) -> Result<Vec<DigestRecord>, SnapshotError> {
    let text = fs::read_to_string(path).map_err(|source| SnapshotError::Io {
        what: "read digest log",
        path: path.to_path_buf(),
        source,
    })?;
    parse_digest_log(&text)
}

/// Finds the first epoch at which two digest logs disagree.
///
/// Because the simulator is deterministic, two runs of the same inputs
/// agree on every epoch up to their first divergence and (in practice)
/// disagree from there on — the agreement prefix is monotone. That lets
/// a binary search over the aligned records find the first divergent
/// epoch in `O(log n)` comparisons; `bisect-divergence` then prints the
/// two records at that epoch as the smallest reproducer of the drift.
///
/// Records are aligned by position after both logs are sorted by epoch.
/// Returns `None` when the logs agree on their entire common prefix
/// (including when one log is merely shorter — a truncated run is not a
/// divergence). Otherwise returns the pair of records at the first
/// divergent epoch.
pub fn first_divergence(
    a: &[DigestRecord],
    b: &[DigestRecord],
) -> Option<(DigestRecord, DigestRecord)> {
    let mut a: Vec<DigestRecord> = a.to_vec();
    let mut b: Vec<DigestRecord> = b.to_vec();
    a.sort_by_key(|r| r.epoch);
    b.sort_by_key(|r| r.epoch);
    let common = a.len().min(b.len());
    let diverged = |i: usize| {
        a[i].epoch != b[i].epoch || a[i].cycle != b[i].cycle || a[i].digest != b[i].digest
    };
    if common == 0 || !diverged(common - 1) {
        return None;
    }
    // Invariant: everything before `lo` agrees, `hi` diverges.
    let (mut lo, mut hi) = (0usize, common - 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if diverged(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some((a[hi], b[hi]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            identity: 0xdead_beef_cafe_f00d,
            epoch: 7,
            start_cycle: 0,
            cycle: 7000,
            rays_remaining: 42,
            payload: (0..=255u8).cycle().take(1000).collect(),
        }
    }

    #[test]
    fn container_round_trips() {
        let ck = sample();
        let bytes = ck.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).expect("own encoding must decode");
        assert_eq!(back, ck);
        assert_eq!(back.state_digest(), fnv1a64(&ck.payload));
    }

    #[test]
    fn wrong_magic_and_version_are_typed_errors() {
        let mut bytes = sample().to_bytes();
        bytes[0] ^= 0xff;
        assert_eq!(Checkpoint::from_bytes(&bytes), Err(DecodeError::BadMagic));
        let mut bytes = sample().to_bytes();
        bytes[8] = 99; // version field
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(DecodeError::UnsupportedVersion { found: 99 })
        ));
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let good = sample().to_bytes();
        // Flip a payload byte and a header byte; both must be caught.
        for idx in [good.len() / 2, 20] {
            let mut bytes = good.clone();
            bytes[idx] ^= 0x01;
            match Checkpoint::from_bytes(&bytes) {
                Err(
                    DecodeError::ChecksumMismatch { .. }
                    | DecodeError::Malformed { .. }
                    | DecodeError::UnexpectedEof { .. },
                ) => {}
                other => panic!("corruption at {idx} not caught: {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let good = sample().to_bytes();
        for cut in [0, 1, 7, 8, 12, good.len() / 2, good.len() - 1] {
            assert!(
                Checkpoint::from_bytes(&good[..cut]).is_err(),
                "truncation to {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(Checkpoint::from_bytes(&bytes).is_err());
    }

    #[test]
    fn atomic_write_then_read_round_trips() {
        let dir = std::env::temp_dir().join(format!("rtsnap-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.rtsnap");
        let ck = sample();
        write_atomic(&path, &ck.to_bytes()).unwrap();
        // Overwrite with a newer epoch: rename replaces in place.
        let mut newer = ck.clone();
        newer.epoch = 8;
        write_atomic(&path, &newer.to_bytes()).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap(), newer);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn digest_records_round_trip_through_text() {
        let rec = DigestRecord {
            epoch: 3,
            cycle: 3000,
            digest: 0x04c1_1db7_0000_00ff,
            rays_remaining: 42,
        };
        let text = rec.to_string();
        assert_eq!(DigestRecord::parse(&text, 1).unwrap(), rec);
        let log = format!("{text}\n\n{text}\n");
        assert_eq!(parse_digest_log(&log).unwrap(), vec![rec, rec]);
    }

    #[test]
    fn malformed_digest_lines_name_the_line() {
        let log = "epoch=1 cycle=10 digest=0x1 rays_remaining=5\nepoch=2 nope\n";
        match parse_digest_log(log) {
            Err(SnapshotError::MalformedDigestLog { line: 2, .. }) => {}
            other => panic!("expected line-2 error, got {other:?}"),
        }
        assert!(DigestRecord::parse("epoch=1 epoch=2", 1).is_err());
        assert!(DigestRecord::parse("epoch=1 cycle=1 digest=zz rays_remaining=0", 1).is_err());
    }

    fn rec(epoch: u64, digest: u64) -> DigestRecord {
        DigestRecord {
            epoch,
            cycle: epoch * 1000,
            digest,
            rays_remaining: 0,
        }
    }

    #[test]
    fn bisection_finds_the_first_divergent_epoch() {
        let a: Vec<DigestRecord> = (0..100).map(|e| rec(e, e)).collect();
        let mut b = a.clone();
        for r in &mut b[37..] {
            r.digest ^= 0xbad;
        }
        let (ra, rb) = first_divergence(&a, &b).expect("divergence must be found");
        assert_eq!(ra.epoch, 37);
        assert_eq!(ra.digest, 37);
        assert_eq!(rb.digest, 37 ^ 0xbad);
    }

    #[test]
    fn identical_and_prefix_logs_do_not_diverge() {
        let a: Vec<DigestRecord> = (0..50).map(|e| rec(e, e * 3)).collect();
        assert_eq!(first_divergence(&a, &a), None);
        // A truncated run that agrees on its whole prefix is not a
        // divergence.
        assert_eq!(first_divergence(&a, &a[..20]), None);
        assert_eq!(first_divergence(&a[..20], &a), None);
        assert_eq!(first_divergence(&a, &[]), None);
    }

    #[test]
    fn divergence_at_the_first_and_last_epoch() {
        let a: Vec<DigestRecord> = (0..10).map(|e| rec(e, 1)).collect();
        let mut b = a.clone();
        for r in &mut b {
            r.digest = 2;
        }
        assert_eq!(first_divergence(&a, &b).unwrap().0.epoch, 0);
        let mut c = a.clone();
        c[9].digest = 9;
        assert_eq!(first_divergence(&a, &c).unwrap().0.epoch, 9);
    }
}
