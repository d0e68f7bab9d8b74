//! Content-defined chunking (FastCDC-style gear hashing).
//!
//! The paper lists variable-size chunking as future work for improving the
//! edge deduplication ratio (Sec. VII). This module implements it as an
//! extension: a gear-hash rolling fingerprint with FastCDC's normalized
//! chunking (a stricter mask before the normal point, a looser mask after),
//! which keeps chunk sizes concentrated around the target while still
//! aligning boundaries to content so that insertions do not shift every
//! subsequent chunk.

// A module on the dedup hot path (DESIGN.md §13): besides unwrap, expect
// and panic!, every index and every integer operation must be checked.
#![warn(clippy::indexing_slicing, clippy::arithmetic_side_effects)]

use crate::chunk::{Chunk, Chunker};
use bytes::Bytes;
use std::fmt;

/// 256 pseudo-random 64-bit gear values, generated once from a fixed seed
/// with SplitMix64 so the table is identical on every platform/build.
fn gear_table() -> [u64; 256] {
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut table = [0u64; 256];
    for slot in &mut table {
        // SplitMix64 step.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        *slot = z ^ (z >> 31);
    }
    table
}

/// Error returned by [`GearChunkerBuilder::build`] for inconsistent sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidCdcConfigError {
    message: &'static str,
}

impl fmt::Display for InvalidCdcConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for InvalidCdcConfigError {}

/// Builder for [`GearChunker`].
///
/// # Example
///
/// ```
/// use ef_chunking::GearChunkerBuilder;
///
/// let chunker = GearChunkerBuilder::new()
///     .min_size(2 * 1024)
///     .target_size(8 * 1024)
///     .max_size(64 * 1024)
///     .build()?;
/// assert_eq!(chunker.target_size(), 8 * 1024);
/// # Ok::<(), ef_chunking::InvalidCdcConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GearChunkerBuilder {
    min_size: usize,
    target_size: usize,
    max_size: usize,
}

impl Default for GearChunkerBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl GearChunkerBuilder {
    /// Starts from the default 2 KiB / 8 KiB / 64 KiB configuration.
    pub fn new() -> Self {
        GearChunkerBuilder {
            min_size: 2 * 1024,
            target_size: 8 * 1024,
            max_size: 64 * 1024,
        }
    }

    /// Sets the minimum chunk size (boundaries are never placed earlier).
    pub fn min_size(mut self, bytes: usize) -> Self {
        self.min_size = bytes;
        self
    }

    /// Sets the target (expected average) chunk size. Must be a power of two
    /// for the mask construction.
    pub fn target_size(mut self, bytes: usize) -> Self {
        self.target_size = bytes;
        self
    }

    /// Sets the maximum chunk size (a boundary is forced at this length).
    pub fn max_size(mut self, bytes: usize) -> Self {
        self.max_size = bytes;
        self
    }

    /// Builds the chunker.
    ///
    /// # Errors
    ///
    /// Returns an error when `min >= target`, `target >= max`, `min == 0`,
    /// or `target` is not a power of two.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "target_size is a power of two below usize::MAX, so bits + 1 <= 64"
    )]
    pub fn build(self) -> Result<GearChunker, InvalidCdcConfigError> {
        if self.min_size == 0 {
            return Err(InvalidCdcConfigError {
                message: "minimum chunk size must be positive",
            });
        }
        if self.min_size >= self.target_size {
            return Err(InvalidCdcConfigError {
                message: "minimum chunk size must be below the target size",
            });
        }
        if self.target_size >= self.max_size {
            return Err(InvalidCdcConfigError {
                message: "target chunk size must be below the maximum size",
            });
        }
        if !self.target_size.is_power_of_two() {
            return Err(InvalidCdcConfigError {
                message: "target chunk size must be a power of two",
            });
        }
        let bits = self.target_size.trailing_zeros();
        // FastCDC normalization level 1: 1 extra bit before the target
        // point, 1 fewer after.
        let mask_strict = mask_with_bits(bits + 1);
        let mask_loose = mask_with_bits(bits.saturating_sub(1).max(1));
        Ok(GearChunker {
            min_size: self.min_size,
            target_size: self.target_size,
            max_size: self.max_size,
            mask_strict,
            mask_loose,
            gear: gear_table(),
        })
    }
}

/// Spread `bits` ones over the upper half of a 64-bit mask (FastCDC uses
/// spread masks rather than low-order masks to involve more gear bits).
#[expect(
    clippy::arithmetic_side_effects,
    reason = "every operand is reduced modulo 64 and i < bits <= 64"
)]
fn mask_with_bits(bits: u32) -> u64 {
    assert!(bits <= 64, "mask cannot have more than 64 bits");
    let mut mask = 0u64;
    for i in 0..u64::from(bits) {
        // Positions (63 - 7i) mod 64 are pairwise distinct because
        // gcd(7, 64) = 1, so exactly `bits` ones are placed.
        let pos = (63 + 64 - (7 * i) % 64) % 64;
        mask |= 1u64.wrapping_shl(pos as u32);
    }
    mask
}

/// FastCDC-style content-defined chunker.
///
/// # Example
///
/// ```
/// use ef_chunking::{Chunker, GearChunker};
///
/// let chunker = GearChunker::default();
/// let data = vec![0x5au8; 100_000];
/// let chunks = chunker.chunk(&data);
/// let total: usize = chunks.iter().map(|c| c.len()).sum();
/// assert_eq!(total, data.len());
/// ```
#[derive(Debug, Clone)]
pub struct GearChunker {
    min_size: usize,
    target_size: usize,
    max_size: usize,
    mask_strict: u64,
    mask_loose: u64,
    gear: [u64; 256],
}

impl Default for GearChunker {
    /// The 2 KiB / 8 KiB / 64 KiB configuration.
    #[expect(
        clippy::expect_used,
        reason = "the default 2K/8K/64K config satisfies every builder invariant"
    )]
    fn default() -> Self {
        GearChunkerBuilder::new()
            .build()
            .expect("default config is valid")
    }
}

impl GearChunker {
    /// Minimum chunk size in bytes.
    pub fn min_size(&self) -> usize {
        self.min_size
    }

    /// Target (expected average) chunk size in bytes.
    pub fn target_size(&self) -> usize {
        self.target_size
    }

    /// Maximum chunk size in bytes.
    pub fn max_size(&self) -> usize {
        self.max_size
    }

    /// Finds the length of the next chunk starting at `data[0]`: nothing
    /// before `min_size`, the strict mask up to `target_size`, the loose
    /// mask up to `max_size`, then a forced cut.
    ///
    /// One byte per step on purpose: with hashing excluded this loop
    /// out-scans a four-bytes-per-step unrolling of the same recurrence
    /// (DESIGN.md §11), so it is the only scan — every thread
    /// [`GearChunker::boundaries`] runs calls it on a full tail of the
    /// input.
    #[expect(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        reason = "min_size < len on entry and i < cap <= len in both loops; a gear index is a byte"
    )]
    fn next_boundary(&self, data: &[u8]) -> usize {
        let len = data.len();
        if len <= self.min_size {
            return len;
        }
        let normal_point = self.target_size.min(len);
        let cap = self.max_size.min(len);
        let mut fp: u64 = 0;
        let mut i = self.min_size;
        // Warm the fingerprint over the skipped prefix's tail (one gear
        // window ≈ 64 bytes) so the boundary decision still depends on
        // content just before `min_size`.
        let warm_start = self.min_size.saturating_sub(64);
        for &b in &data[warm_start..self.min_size] {
            fp = (fp << 1).wrapping_add(self.gear[b as usize]);
        }
        while i < normal_point {
            fp = (fp << 1).wrapping_add(self.gear[data[i] as usize]);
            if fp & self.mask_strict == 0 {
                return i + 1;
            }
            i += 1;
        }
        while i < cap {
            fp = (fp << 1).wrapping_add(self.gear[data[i] as usize]);
            if fp & self.mask_loose == 0 {
                return i + 1;
            }
            i += 1;
        }
        cap
    }

    /// Returns the cut points of `data` as exclusive end offsets, one per
    /// chunk, in order (the last is always `data.len()`; empty input yields
    /// no cut points). This is the boundary half of the hot path — no
    /// copying, no hashing.
    ///
    /// Input of 512 KiB or more is scanned on several cores: one equal
    /// segment per core (at most one per 256 KiB), each later segment
    /// speculatively from its own start, then stitched onto the serial
    /// chain where the two first share a cut. The list is the one a
    /// single serial scan gives, on any number of cores (DESIGN.md §11).
    pub fn boundaries(&self, data: &[u8]) -> Vec<usize> {
        self.cuts_in_parts(data, crate::chunk::parts_for(data.len()))
    }

    /// [`GearChunker::boundaries`] with the part count given. The
    /// caller's thread scans segment 0, a scoped thread each later
    /// segment; a cut depends only on the bytes from its chunk's start,
    /// so once the serial chain lands on a cut of a speculative chain the
    /// rest of that chain is serial too.
    #[expect(clippy::arithmetic_side_effects, reason = "parts >= 2 here")]
    fn cuts_in_parts(&self, data: &[u8], parts: usize) -> Vec<usize> {
        let len = data.len();
        if parts < 2 || len < parts {
            return self.chain(data, 0, len);
        }
        let seg = len / parts;
        // Segment k starts at k·seg; the last one runs to the end.
        let starts: Vec<usize> = (1..parts).map(|k| seg.saturating_mul(k)).collect();
        let ends = starts.iter().skip(1).copied().chain([len]);
        std::thread::scope(|scope| {
            let speculative: Vec<_> = starts
                .iter()
                .zip(ends)
                .map(|(&from, until)| scope.spawn(move || self.chain(data, from, until)))
                .collect();
            let mut cuts = self.chain(data, 0, seg);
            for handle in speculative {
                let spec = handle
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p));
                self.stitch(data, &mut cuts, &spec);
            }
            cuts
        })
    }

    /// The cut chain from `from` (taken as a chunk start) up to and
    /// including its first cut at or past `until`.
    #[expect(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        reason = "offset < until <= data.len(), and target_size is non-zero"
    )]
    fn chain(&self, data: &[u8], from: usize, until: usize) -> Vec<usize> {
        let mut cuts = Vec::with_capacity(until.saturating_sub(from) / self.target_size + 1);
        let mut offset = from;
        while offset < until {
            let len = self.next_boundary(&data[offset..]);
            debug_assert!(len > 0);
            offset = offset.saturating_add(len);
            cuts.push(offset);
        }
        cuts
    }

    /// Extends the serial chain `cuts` through one speculative chain:
    /// step serially until the last cut is one of `spec`'s, then adopt
    /// `spec`'s tail after it. A serial chain that steps past `spec`'s
    /// last cut without landing on one has rescanned the segment itself.
    #[expect(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        reason = "at < spec.len() on a hit, and last < spec[at] <= data.len() on a miss"
    )]
    fn stitch(&self, data: &[u8], cuts: &mut Vec<usize>, spec: &[usize]) {
        while let Some(&last) = cuts.last() {
            match spec.binary_search(&last) {
                Ok(at) => return cuts.extend_from_slice(&spec[at + 1..]),
                // `spec[at] > last`, so `data[last..]` is not empty.
                Err(at) if at < spec.len() => {
                    let len = self.next_boundary(&data[last..]);
                    cuts.push(last.saturating_add(len));
                }
                Err(_) => return,
            }
        }
    }
}

impl Chunker for GearChunker {
    /// Hot-path chunking: cut all boundaries first
    /// ([`GearChunker::boundaries`]), then fingerprint every payload in
    /// one [`crate::fingerprint_batch`] call. Both halves split large inputs
    /// across the host's cores; chunks and hashes are the ones a single
    /// core gives. Each chunk's payload is a buffer of its own, so a
    /// stored chunk keeps only its own bytes alive, not the whole input.
    #[expect(clippy::indexing_slicing, reason = "cuts rise strictly to data.len()")]
    fn chunk(&self, data: &[u8]) -> Vec<Chunk> {
        let cuts = self.boundaries(data);
        let mut payloads = Vec::with_capacity(cuts.len());
        let mut start = 0usize;
        for &end in &cuts {
            payloads.push(&data[start..end]);
            start = end;
        }
        let hashes = crate::chunk::fingerprint_batch(&payloads);
        let mut out = Vec::with_capacity(cuts.len());
        let mut start = 0usize;
        for (&end, hash) in cuts.iter().zip(hashes) {
            let payload = Bytes::copy_from_slice(&data[start..end]);
            out.push(Chunk::with_hash(start as u64, payload, hash));
            start = end;
        }
        out
    }

    fn target_chunk_size(&self) -> usize {
        self.target_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        // SplitMix64-based filler; deterministic test data.
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                (z >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn builder_validates() {
        assert!(GearChunkerBuilder::new().min_size(0).build().is_err());
        assert!(GearChunkerBuilder::new()
            .min_size(8192)
            .target_size(8192)
            .build()
            .is_err());
        assert!(GearChunkerBuilder::new()
            .target_size(8192)
            .max_size(8192)
            .build()
            .is_err());
        assert!(GearChunkerBuilder::new().target_size(5000).build().is_err());
        assert!(GearChunkerBuilder::new().build().is_ok());
    }

    #[test]
    fn each_chunk_is_a_buffer_of_its_own() {
        // Slices of one copy of the input sit end to end in memory;
        // separate allocations never do. Over the parallel cut path too.
        for len in [100_000, 1 << 20] {
            let chunks = GearChunker::default().chunk(&pseudo_random(len, 17));
            assert!(chunks.len() > 5);
            for pair in chunks.windows(2) {
                let end = pair[0].data.as_ptr().wrapping_add(pair[0].len());
                assert_ne!(
                    end,
                    pair[1].data.as_ptr(),
                    "chunk at {} shares",
                    pair[1].offset
                );
            }
        }
    }

    #[test]
    fn reassembly_and_size_bounds() {
        let chunker = GearChunker::default();
        let data = pseudo_random(500_000, 42);
        let chunks = chunker.chunk(&data);
        let mut rebuilt = Vec::new();
        for c in &chunks {
            rebuilt.extend_from_slice(&c.data);
        }
        assert_eq!(rebuilt, data);
        for (i, c) in chunks.iter().enumerate() {
            assert!(c.len() <= chunker.max_size(), "chunk {i} too big");
            if i + 1 != chunks.len() {
                assert!(c.len() >= chunker.min_size(), "chunk {i} too small");
            }
        }
    }

    #[test]
    fn average_size_near_target() {
        let chunker = GearChunker::default();
        let data = pseudo_random(4_000_000, 7);
        let chunks = chunker.chunk(&data);
        let avg = data.len() as f64 / chunks.len() as f64;
        let target = chunker.target_size() as f64;
        assert!(
            avg > target * 0.4 && avg < target * 2.5,
            "average {avg} vs target {target}"
        );
    }

    #[test]
    fn boundaries_resist_insertion_shift() {
        // Content-defined chunking should resynchronize after an insertion:
        // most chunk hashes of the shifted stream match the original.
        let chunker = GearChunker::default();
        let original = pseudo_random(300_000, 99);
        let mut edited = original.clone();
        edited.splice(1000..1000, [0xAAu8; 17]); // insert 17 bytes near the front
        let hashes_a: std::collections::HashSet<_> =
            chunker.chunk(&original).iter().map(|c| c.hash).collect();
        let chunks_b = chunker.chunk(&edited);
        let shared = chunks_b
            .iter()
            .filter(|c| hashes_a.contains(&c.hash))
            .count();
        let frac = shared as f64 / chunks_b.len() as f64;
        assert!(frac > 0.8, "only {frac} of chunks resynchronized");
    }

    #[test]
    fn fixed_vs_cdc_on_insertion() {
        // The classic motivation: with fixed chunking an insertion shifts
        // every later boundary, destroying dedup; CDC keeps it.
        use crate::fixed::FixedChunker;
        let original = pseudo_random(300_000, 123);
        let mut edited = original.clone();
        edited.splice(10..10, [1u8; 3]);

        let fixed = FixedChunker::new(8192).unwrap();
        let hashes: std::collections::HashSet<_> =
            fixed.chunk(&original).iter().map(|c| c.hash).collect();
        let fixed_shared = fixed
            .chunk(&edited)
            .iter()
            .filter(|c| hashes.contains(&c.hash))
            .count();
        assert_eq!(fixed_shared, 0, "fixed chunking should lose alignment");
    }

    #[test]
    fn short_input_single_chunk() {
        let chunker = GearChunker::default();
        let data = pseudo_random(100, 5);
        let chunks = chunker.chunk(&data);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].len(), 100);
    }

    #[test]
    fn empty_input_no_chunks() {
        assert!(GearChunker::default().chunk(b"").is_empty());
    }

    #[test]
    fn deterministic_across_instances() {
        let a = GearChunker::default();
        let b = GearChunker::default();
        let data = pseudo_random(100_000, 3);
        assert_eq!(a.chunk(&data), b.chunk(&data));
    }

    #[test]
    fn mask_bit_counts() {
        assert_eq!(mask_with_bits(13).count_ones(), 13);
        assert_eq!(mask_with_bits(1).count_ones(), 1);
    }

    #[test]
    fn boundaries_are_cut_points_of_chunk() {
        let chunker = GearChunker::default();
        let data = pseudo_random(150_000, 11);
        let cuts = chunker.boundaries(&data);
        let chunks = chunker.chunk(&data);
        assert_eq!(cuts.len(), chunks.len());
        assert_eq!(*cuts.last().unwrap(), data.len());
        let mut start = 0usize;
        for (cut, chunk) in cuts.iter().zip(&chunks) {
            assert_eq!(chunk.offset as usize, start);
            assert_eq!(chunk.len(), cut - start);
            start = *cut;
        }
        assert!(chunker.boundaries(b"").is_empty());
    }

    /// `boundaries`' own split, forced to 2, 3, 4 and 8 parts, gives the
    /// one-part list on the `cut_points.rs` input families and ladders:
    /// where a segment is shorter than `max_size`, where constant input's
    /// forced cuts miss every segment start (no sync, so a serial
    /// rescan), and where segment 1 starts exactly on a serial cut.
    #[test]
    fn any_part_count_gives_the_serial_cuts() {
        let odd = GearChunkerBuilder::new()
            .min_size(61)
            .target_size(128)
            .max_size(1023)
            .build()
            .unwrap();
        for chunker in [GearChunker::default(), odd] {
            let max = chunker.max_size();
            let n = 24 * max;
            let inputs = [
                ("Rand(42)", pseudo_random(n, 42)),
                ("Const(0xA5)", vec![0xA5; n]),
                ("Mod7", (0..n).map(|i| (i % 7) as u8).collect()),
            ];
            for (name, long) in inputs {
                let serial = chunker.cuts_in_parts(&long, 1);
                let mut lengths = vec![1, max / 2, 3 * max, 3 * max + 7, 17 * max + 3];
                for parts in [2, 3, 4, 8] {
                    // len / parts is then the serial cut itself.
                    let on_cut = serial[1] * parts;
                    lengths.extend([on_cut, on_cut + parts - 1]);
                }
                for len in lengths {
                    let data = &long[..len];
                    let one = chunker.cuts_in_parts(data, 1);
                    for parts in [2, 3, 4, 8] {
                        assert_eq!(
                            chunker.cuts_in_parts(data, parts),
                            one,
                            "max {max}, {name}, len {len}, {parts} parts"
                        );
                    }
                }
            }
        }
    }
}
