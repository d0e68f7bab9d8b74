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

/// Input bytes each part of a split hot-path call has at least, so a
/// scoped thread's spawn and join stay small beside its share of the work
/// (256 KiB is ~0.17 ms of gear scan at 1.5 GB/s).
const PART_BYTES: usize = 256 * 1024;

/// How many parts a hot-path call over `bytes` of input runs in: one per
/// core the process may use, one per [`PART_BYTES`] of input, at least 1.
/// Outputs never depend on it.
pub(crate) fn parts_for(bytes: usize) -> usize {
    match bytes / PART_BYTES {
        0 | 1 => 1,
        most => cores().min(most),
    }
}

/// The cores the process may use, read once: each read of the affinity
/// mask and cgroup quota costs tens of microseconds, and a process pinned
/// before it starts (`taskset`) reads its one core here all the same.
fn cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |cores| cores.get()))
}

/// Fingerprints a batch of chunk payloads with [`Sha256::digest_batch`].
///
/// This is the one hashing entry point of the ingest hot path: both
/// chunking engines cut boundaries first, then fingerprint every payload of
/// a buffer in one call. A batch of 512 KiB or more is split into
/// contiguous groups of roughly equal bytes, one per core, each hashed as
/// its own `digest_batch` on a scoped thread and the digests concatenated
/// in order. Digests are bit-identical to per-payload [`ChunkHash::of`],
/// in order, on any number of cores.
pub fn fingerprint_batch(payloads: &[&[u8]]) -> Vec<ChunkHash> {
    let bytes = payloads.iter().map(|p| p.len()).sum();
    fingerprint_in_parts(payloads, parts_for(bytes))
}

/// [`fingerprint_batch`] with the part count given: the caller's thread
/// hashes the first group, a scoped thread each later one.
fn fingerprint_in_parts(payloads: &[&[u8]], parts: usize) -> Vec<ChunkHash> {
    let mut groups = split_by_bytes(payloads, parts).into_iter();
    let first = groups.next().unwrap_or_default();
    let digests = std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .map(|group| scope.spawn(move || Sha256::digest_batch(group)))
            .collect();
        let mut digests = Sha256::digest_batch(first);
        for handle in handles {
            let group = handle
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p));
            digests.extend(group);
        }
        digests
    });
    digests.into_iter().map(ChunkHash::from_bytes).collect()
}

/// Cuts `payloads` into `parts` contiguous groups (some possibly empty)
/// of roughly equal bytes: group `g` ends at the first payload that takes
/// the running total to `g / parts` of all bytes.
fn split_by_bytes<'a, 'p>(payloads: &'p [&'a [u8]], parts: usize) -> Vec<&'p [&'a [u8]]> {
    let total: usize = payloads.iter().map(|p| p.len()).sum();
    let share = total / parts.max(1);
    let mut groups = Vec::with_capacity(parts);
    let mut rest = payloads;
    let mut seen = 0usize;
    for g in 1..parts {
        let goal = share.saturating_mul(g);
        let mut take = 0;
        while seen < goal {
            let Some(p) = rest.get(take) else { break };
            seen += p.len();
            take += 1;
        }
        let (group, tail) = rest.split_at(take);
        groups.push(group);
        rest = tail;
    }
    groups.push(rest);
    groups
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

    /// `fingerprint_batch`'s own split, forced to every part count from 1
    /// to 8, gives per-payload `ChunkHash::of` in order — on batches with
    /// empty payloads, fewer payloads than parts, and one payload larger
    /// than all the others together.
    #[test]
    fn any_part_count_gives_per_payload_digests() {
        use ef_simcore::prop::{any, check, vec};
        let fill = |len: usize, seed: u8| -> Vec<u8> {
            (0..len).map(|i| seed.wrapping_add(i as u8)).collect()
        };
        check(
            "any_part_count_gives_per_payload_digests",
            64,
            (
                vec((any::<bool>(), 1usize..3000, any::<u8>()), 0..12),
                any::<bool>(),
                0usize..12,
            ),
            |(shapes, giant, at)| {
                let mut payloads: Vec<Vec<u8>> = shapes
                    .iter()
                    .map(|&(empty, len, seed)| fill(if empty { 0 } else { len }, seed))
                    .collect();
                if giant {
                    let rest: usize = payloads.iter().map(Vec::len).sum();
                    payloads.insert(at.min(payloads.len()), fill(rest + 1, 7));
                }
                let slices: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
                let want: Vec<ChunkHash> = slices.iter().map(|p| ChunkHash::of(p)).collect();
                for parts in 1..=8 {
                    assert_eq!(fingerprint_in_parts(&slices, parts), want, "{parts} parts");
                }
            },
        );
    }

    #[test]
    fn debug_is_nonempty() {
        let h = ChunkHash::of(b"x");
        assert!(!format!("{h:?}").is_empty());
    }
}
