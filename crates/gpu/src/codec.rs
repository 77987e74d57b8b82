//! Minimal little-endian binary codec for simulator snapshots.
//!
//! The checkpoint/resume subsystem serializes the complete architectural
//! state of the simulator (caches, MSHRs, DRAM queues, prefetchers, warp
//! buffer) into a versioned, checksummed byte stream. Like `trace_io` in
//! the core crate, this is hand-rolled: the workspace builds with zero
//! external dependencies, so there is no serde to lean on.
//!
//! Two invariants matter more than speed here:
//!
//! - **Determinism** — the same architectural state must always encode to
//!   the same bytes, because the per-epoch *state digest* (FNV-1a over the
//!   encoded payload) is how a resumed run proves itself bit-identical to
//!   an uninterrupted one. Callers are responsible for iterating hash maps
//!   in sorted key order; the codec itself is a plain byte pipe.
//! - **No panic paths on decode** — checkpoints may be truncated or
//!   corrupted by the very crash they exist to survive. Every read is
//!   bounds-checked and every failure is a typed [`DecodeError`].
//!
//! # Examples
//!
//! ```
//! use rt_gpu_sim::{ByteReader, ByteWriter};
//!
//! let mut w = ByteWriter::new();
//! w.put_u64(0xdead_beef);
//! w.put_bool(true);
//! let bytes = w.into_bytes();
//!
//! let mut r = ByteReader::new(&bytes);
//! assert_eq!(r.take_u64().unwrap(), 0xdead_beef);
//! assert!(r.take_bool().unwrap());
//! assert_eq!(r.remaining(), 0);
//! ```

use std::fmt;

/// FNV-1a 64-bit hash of a byte slice.
///
/// Used both as the snapshot checksum and as the per-epoch state digest
/// (hashing the canonical encoded state gives digest/serialization
/// consistency from a single code path).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_fold(FNV_OFFSET, bytes)
}

/// The FNV-1a 64-bit offset basis: the hash of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues FNV-1a hash state `h` over `bytes`.
fn fnv1a64_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A typed decode failure. Every malformed, truncated, or corrupted
/// snapshot maps to one of these variants — the codec has no panic paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before a field could be read in full.
    UnexpectedEof {
        /// Byte offset at which the read started.
        offset: usize,
        /// Bytes the field needed.
        needed: usize,
    },
    /// The file does not start with the snapshot magic bytes.
    BadMagic,
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion {
        /// The version number found in the header.
        found: u32,
    },
    /// The payload checksum does not match the stored checksum.
    ChecksumMismatch {
        /// Checksum stored in the file.
        expected: u64,
        /// Checksum recomputed over the payload.
        found: u64,
    },
    /// A field decoded to a value no encoder produces (bad enum tag,
    /// non-0/1 bool, impossible length, trailing bytes).
    Malformed {
        /// What was wrong.
        what: String,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof { offset, needed } => write!(
                f,
                "unexpected end of snapshot: needed {needed} byte(s) at offset {offset}"
            ),
            DecodeError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            DecodeError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot version {found}")
            }
            DecodeError::ChecksumMismatch { expected, found } => write!(
                f,
                "snapshot checksum mismatch: stored {expected:#018x}, computed {found:#018x}"
            ),
            DecodeError::Malformed { what } => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl DecodeError {
    /// Convenience constructor for [`DecodeError::Malformed`].
    pub fn malformed(what: impl Into<String>) -> DecodeError {
        DecodeError::Malformed { what: what.into() }
    }
}

/// An append-only little-endian byte sink.
///
/// A writer made by [`ByteWriter::hashing`] keeps no encoding: it folds
/// FNV-1a over a small buffer whenever the buffer fills, so hashing an
/// encoding of any size holds a few kilobytes. [`ByteWriter::digest`]
/// reads the same hash in either mode.
#[derive(Debug)]
pub struct ByteWriter {
    buf: Vec<u8>,
    /// The buffer length at which a hashing writer folds it: `usize::MAX`
    /// for a writer that keeps its bytes.
    spill_at: usize,
    /// FNV-1a state over the bytes already folded out of `buf`.
    folded_hash: u64,
    /// How many bytes were folded out of `buf`.
    folded: usize,
}

impl Default for ByteWriter {
    fn default() -> ByteWriter {
        ByteWriter::with_capacity(0)
    }
}

/// The buffer a hashing [`ByteWriter`] folds at.
const SPILL_BYTES: usize = 4096;

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// An empty writer with room for `capacity` bytes, so an encoder
    /// that knows its output size writes it with one allocation.
    pub fn with_capacity(capacity: usize) -> ByteWriter {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
            spill_at: usize::MAX,
            folded_hash: FNV_OFFSET,
            folded: 0,
        }
    }

    /// An empty writer that only hashes what is written: see
    /// [`ByteWriter::digest`]. It keeps no encoding, so
    /// [`bytes`](ByteWriter::bytes) and
    /// [`into_bytes`](ByteWriter::into_bytes) panic on it.
    pub fn hashing() -> ByteWriter {
        ByteWriter {
            spill_at: SPILL_BYTES,
            ..ByteWriter::with_capacity(SPILL_BYTES + 64)
        }
    }

    /// The FNV-1a digest of every byte written so far: [`fnv1a64`] of
    /// the encoding, whether or not the writer kept it.
    pub fn digest(&self) -> u64 {
        fnv1a64_fold(self.folded_hash, &self.buf)
    }

    /// The bytes written so far.
    ///
    /// # Panics
    ///
    /// Panics on a [`hashing`](ByteWriter::hashing) writer, which keeps
    /// no encoding.
    pub fn bytes(&self) -> &[u8] {
        self.assert_keeps_bytes();
        &self.buf
    }

    /// Consumes the writer, returning the encoded bytes.
    ///
    /// # Panics
    ///
    /// Panics on a [`hashing`](ByteWriter::hashing) writer, which keeps
    /// no encoding.
    pub fn into_bytes(self) -> Vec<u8> {
        self.assert_keeps_bytes();
        self.buf
    }

    fn assert_keeps_bytes(&self) {
        assert!(
            self.spill_at == usize::MAX,
            "a hashing ByteWriter keeps no encoding: read its digest()"
        );
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.folded + self.buf.len()
    }

    /// True if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `b`, folding a hashing writer's full buffer.
    fn extend(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
        if self.buf.len() >= self.spill_at {
            self.folded_hash = fnv1a64_fold(self.folded_hash, &self.buf);
            self.folded += self.buf.len();
            self.buf.clear();
        }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.extend(&[v]);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.extend(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.extend(&v.to_le_bytes());
    }

    /// Appends an `f32` as its IEEE-754 bit pattern, little-endian.
    /// Bit-exact round-trip for every value, NaN payloads included.
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends an `i64`, little-endian two's complement.
    pub fn put_i64(&mut self, v: i64) {
        self.extend(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (snapshots are portable across
    /// pointer widths).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.extend(&[u8::from(v)]);
    }

    /// Appends a sequence length prefix (as `u64`).
    pub fn put_len(&mut self, n: usize) {
        self.put_u64(n as u64);
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.extend(b);
    }
}

/// A bounds-checked little-endian byte source over a borrowed slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current byte offset from the start of the input.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof {
                offset: self.pos,
                needed: n,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian `i64`.
    pub fn take_i64(&mut self) -> Result<i64, DecodeError> {
        Ok(self.take_u64()? as i64)
    }

    /// Reads an `f32` stored as its IEEE-754 bit pattern.
    pub fn take_f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_bits(self.take_u32()?))
    }

    /// Reads a `usize` encoded as `u64`, rejecting values that do not fit
    /// the host's pointer width.
    pub fn take_usize(&mut self) -> Result<usize, DecodeError> {
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| DecodeError::malformed("usize value out of range"))
    }

    /// Reads a bool byte; anything but 0 or 1 is malformed.
    pub fn take_bool(&mut self) -> Result<bool, DecodeError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(DecodeError::malformed(format!("bad bool byte {v}"))),
        }
    }

    /// Reads a sequence length prefix. `min_elem_bytes` is the smallest
    /// possible encoding of one element; a length whose elements could
    /// not all fit in the remaining input is rejected immediately, so a
    /// corrupted length field cannot drive a huge allocation.
    pub fn take_len(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.take_usize()?;
        let need = n.checked_mul(min_elem_bytes.max(1));
        match need {
            Some(need) if need <= self.remaining() => Ok(n),
            _ => Err(DecodeError::malformed(format!(
                "sequence length {n} exceeds remaining input"
            ))),
        }
    }

    /// Reads exactly `n` raw bytes.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take(n)
    }

    /// Fails with a typed error if any input remains unread.
    pub fn expect_end(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::malformed(format!(
                "{} trailing byte(s) after decoded state",
                self.remaining()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_primitives() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0x1234_5678);
        w.put_u64(u64::MAX);
        w.put_i64(-42);
        w.put_usize(99);
        w.put_bool(true);
        w.put_bool(false);
        w.put_len(3);
        w.put_bytes(b"abc");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 0x1234_5678);
        assert_eq!(r.take_u64().unwrap(), u64::MAX);
        assert_eq!(r.take_i64().unwrap(), -42);
        assert_eq!(r.take_usize().unwrap(), 99);
        assert!(r.take_bool().unwrap());
        assert!(!r.take_bool().unwrap());
        assert_eq!(r.take_len(1).unwrap(), 3);
        assert_eq!(r.take_bytes(3).unwrap(), b"abc");
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_reads_are_typed_eof() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        match r.take_u64() {
            Err(DecodeError::UnexpectedEof {
                offset: 0,
                needed: 8,
            }) => {}
            other => panic!("expected EOF error, got {other:?}"),
        }
    }

    #[test]
    fn bad_bool_and_oversized_length_are_malformed() {
        let mut r = ByteReader::new(&[9]);
        assert!(matches!(r.take_bool(), Err(DecodeError::Malformed { .. })));

        // A length prefix claiming more elements than bytes remain.
        let mut w = ByteWriter::new();
        w.put_len(1_000_000);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.take_len(8), Err(DecodeError::Malformed { .. })));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut r = ByteReader::new(&[0]);
        assert!(r.expect_end().is_err());
        r.take_u8().unwrap();
        r.expect_end().unwrap();
    }

    #[test]
    fn a_hashing_writer_digests_what_a_plain_one_keeps() {
        let write = |w: &mut ByteWriter| {
            for i in 0..3_000u64 {
                w.put_u64(i * 0x9e37_79b9);
                w.put_u8(i as u8);
                w.put_bool(i % 3 == 0);
            }
            w.put_bytes(&[7; 10_000]);
            w.put_u32(5);
        };
        let mut plain = ByteWriter::new();
        write(&mut plain);
        let mut hashing = ByteWriter::hashing();
        write(&mut hashing);
        assert_eq!(hashing.len(), plain.len());
        assert_eq!(hashing.digest(), fnv1a64(plain.bytes()));
        assert_eq!(plain.digest(), fnv1a64(plain.bytes()));
        assert!(hashing.buf.len() < SPILL_BYTES);
        assert_eq!(ByteWriter::hashing().digest(), fnv1a64(b""));
    }

    #[test]
    #[should_panic(expected = "keeps no encoding")]
    fn a_hashing_writer_refuses_to_hand_out_bytes() {
        let mut w = ByteWriter::hashing();
        w.put_u64(1);
        let _ = w.bytes();
    }

    #[test]
    fn fnv_is_stable_and_order_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
        assert_eq!(fnv1a64(b"treelet"), fnv1a64(b"treelet"));
    }
}
