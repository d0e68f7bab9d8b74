//! Chunk and chunk-hash types shared by every layer of the system.

use crate::sha256::Sha256;
use bytes::Bytes;
use std::fmt;
use std::str::FromStr;

/// A 32-byte content hash identifying a chunk.
///
/// The full SHA-256 digest is kept so collision probability is negligible
/// (the dedup correctness argument of the paper assumes hash equality ⇒
/// content equality); a 64-bit prefix is exposed for cheap sharding and
/// ring placement.
///
/// # Example
///
/// ```
/// use ef_chunking::ChunkHash;
///
/// let h = ChunkHash::of(b"some chunk bytes");
/// assert_eq!(h, ChunkHash::of(b"some chunk bytes"));
/// assert_ne!(h, ChunkHash::of(b"other bytes"));
/// let parsed: ChunkHash = h.to_string().parse().unwrap();
/// assert_eq!(parsed, h);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkHash([u8; 32]);

impl ChunkHash {
    /// Hashes `data` with SHA-256.
    pub fn of(data: &[u8]) -> Self {
        ChunkHash(Sha256::digest(data))
    }

    /// Constructs a hash from a raw digest.
    pub const fn from_bytes(bytes: [u8; 32]) -> Self {
        ChunkHash(bytes)
    }

    /// The raw 32-byte digest.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// The first 8 bytes of the digest as a big-endian integer.
    ///
    /// Used as the ring-placement token by the distributed key-value store;
    /// because SHA-256 output is uniform, so is this prefix.
    pub fn prefix64(&self) -> u64 {
        // Destructuring the fixed-size digest is infallible — no slice
        // conversion, nothing to panic.
        let [b0, b1, b2, b3, b4, b5, b6, b7, ..] = self.0;
        u64::from_be_bytes([b0, b1, b2, b3, b4, b5, b6, b7])
    }
}

impl fmt::Debug for ChunkHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ChunkHash({self})")
    }
}

impl fmt::Display for ChunkHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// Error returned when parsing a [`ChunkHash`] from a hex string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseChunkHashError {
    kind: ParseErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ParseErrorKind {
    BadLength(usize),
    BadDigit(char),
}

impl fmt::Display for ParseChunkHashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ParseErrorKind::BadLength(n) => {
                write!(f, "expected 64 hex digits, found {n}")
            }
            ParseErrorKind::BadDigit(c) => write!(f, "invalid hex digit {c:?}"),
        }
    }
}

impl std::error::Error for ParseChunkHashError {}

impl FromStr for ChunkHash {
    type Err = ParseChunkHashError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 64 {
            return Err(ParseChunkHashError {
                kind: ParseErrorKind::BadLength(s.len()),
            });
        }
        let mut out = [0u8; 32];
        let bytes = s.as_bytes();
        for (i, slot) in out.iter_mut().enumerate() {
            let hi = hex_val(bytes[i * 2])?;
            let lo = hex_val(bytes[i * 2 + 1])?;
            *slot = hi << 4 | lo;
        }
        Ok(ChunkHash(out))
    }
}

fn hex_val(b: u8) -> Result<u8, ParseChunkHashError> {
    match b {
        b'0'..=b'9' => Ok(b - b'0'),
        b'a'..=b'f' => Ok(b - b'a' + 10),
        b'A'..=b'F' => Ok(b - b'A' + 10),
        other => Err(ParseChunkHashError {
            kind: ParseErrorKind::BadDigit(other as char),
        }),
    }
}

/// A chunk of data produced by a [`Chunker`]: the content plus its hash and
/// position in the original stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Byte offset of the chunk within the source buffer/stream.
    pub offset: u64,
    /// The chunk payload. `Bytes` keeps slicing zero-copy.
    pub data: Bytes,
    /// SHA-256 of `data`.
    pub hash: ChunkHash,
}

impl Chunk {
    /// Builds a chunk from a payload at the given offset, hashing it.
    pub fn new(offset: u64, data: Bytes) -> Self {
        let hash = ChunkHash::of(&data);
        Chunk { offset, data, hash }
    }

    /// Builds a chunk whose hash was already computed — by
    /// [`fingerprint_batch`] on the ingest hot path. The caller guarantees
    /// `hash == ChunkHash::of(&data)`; debug builds verify it.
    pub fn with_hash(offset: u64, data: Bytes, hash: ChunkHash) -> Self {
        debug_assert_eq!(hash, ChunkHash::of(&data), "precomputed hash mismatch");
        Chunk { offset, data, hash }
    }

    /// Chunk length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the chunk carries no bytes (never produced by chunkers).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Fingerprints a batch of chunk payloads with the block-parallel SHA-256
/// engine ([`Sha256::digest_batch`]).
///
/// This is the one hashing entry point of the ingest hot path: both
/// chunking engines cut boundaries first, then fingerprint every payload of
/// a buffer in a single batch so independent chunks share the compression
/// rounds. Digests are bit-identical to per-payload [`ChunkHash::of`].
pub fn fingerprint_batch(payloads: &[&[u8]]) -> Vec<ChunkHash> {
    Sha256::digest_batch(payloads)
        .into_iter()
        .map(ChunkHash::from_bytes)
        .collect()
}

/// Splits byte buffers into [`Chunk`]s.
///
/// Implementations must satisfy two invariants, checked by property tests:
///
/// 1. **Reassembly**: concatenating the chunk payloads in order reproduces
///    the input exactly.
/// 2. **No empty chunks**: every produced chunk has at least one byte.
pub trait Chunker {
    /// Splits `data` into chunks. An empty input produces no chunks.
    fn chunk(&self, data: &[u8]) -> Vec<Chunk>;

    /// The average/target chunk size in bytes, used by cost models.
    fn target_chunk_size(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_roundtrips_through_hex() {
        let h = ChunkHash::of(b"roundtrip");
        let s = h.to_string();
        assert_eq!(s.len(), 64);
        assert_eq!(s.parse::<ChunkHash>().unwrap(), h);
    }

    #[test]
    fn parse_rejects_bad_length() {
        let err = "abcd".parse::<ChunkHash>().unwrap_err();
        assert!(err.to_string().contains("64 hex digits"));
    }

    #[test]
    fn parse_rejects_bad_digit() {
        let s = "zz".repeat(32);
        let err = s.parse::<ChunkHash>().unwrap_err();
        assert!(err.to_string().contains("invalid hex digit"));
    }

    #[test]
    fn parse_accepts_uppercase() {
        let h = ChunkHash::of(b"case");
        let upper = h.to_string().to_uppercase();
        assert_eq!(upper.parse::<ChunkHash>().unwrap(), h);
    }

    #[test]
    fn prefix64_matches_digest() {
        let h = ChunkHash::from_bytes([
            0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ]);
        assert_eq!(h.prefix64(), 0x0102_0304_0506_0708);
    }

    #[test]
    fn chunk_new_hashes_payload() {
        let c = Chunk::new(10, Bytes::from_static(b"payload"));
        assert_eq!(c.hash, ChunkHash::of(b"payload"));
        assert_eq!(c.offset, 10);
        assert_eq!(c.len(), 7);
        assert!(!c.is_empty());
    }

    #[test]
    fn with_hash_keeps_fields() {
        let c = Chunk::with_hash(3, Bytes::from_static(b"xyz"), ChunkHash::of(b"xyz"));
        assert_eq!(c, Chunk::new(3, Bytes::from_static(b"xyz")));
    }

    #[test]
    fn fingerprint_batch_matches_of() {
        let payloads: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 100 * i as usize]).collect();
        let slices: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        let hashes = fingerprint_batch(&slices);
        for (i, p) in slices.iter().enumerate() {
            assert_eq!(hashes[i], ChunkHash::of(p));
        }
    }

    #[test]
    fn debug_is_nonempty() {
        let h = ChunkHash::of(b"x");
        assert!(!format!("{h:?}").is_empty());
    }
}
