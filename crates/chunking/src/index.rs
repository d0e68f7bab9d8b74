//! Ground-truth dedup ratios.
//!
//! In EF-dedup the index of a D2-ring lives in a distributed key-value
//! store spread over the ring's edge nodes (`ef-kvstore`); for local
//! measurement (ground truth in Algorithm 1, unit tests) an ordered set
//! of the hashes seen so far suffices.

use crate::chunk::ChunkHash;
use std::collections::BTreeSet;

/// Measures the deduplication ratio of `data` under `chunker`: original
/// size divided by the total size of unique chunks.
///
/// This is the "ground truth" measurement Algorithm 1 compares the
/// analytical model against (the paper uses duperemove for this step).
///
/// Returns 1.0 for empty input.
///
/// # Example
///
/// ```
/// use ef_chunking::{FixedChunker, dedup_ratio};
///
/// let chunker = FixedChunker::new(4).unwrap();
/// // Two identical 4-byte blocks + one unique: 12 bytes stored as 8.
/// let ratio = dedup_ratio(&chunker, &[b"aaaa".as_slice(), b"aaaa", b"bbbb"].concat());
/// assert!((ratio - 1.5).abs() < 1e-9);
/// ```
pub fn dedup_ratio<C: crate::chunk::Chunker>(chunker: &C, data: &[u8]) -> f64 {
    joint_dedup_ratio(chunker, &[data])
}

/// Measures the joint dedup ratio of several byte streams chunked
/// independently but deduplicated against a shared index — exactly how a
/// D2-ring deduplicates the flows of its member nodes.
///
/// Returns 1.0 when all inputs are empty.
pub fn joint_dedup_ratio<C: crate::chunk::Chunker>(chunker: &C, sources: &[&[u8]]) -> f64 {
    let total: usize = sources.iter().map(|s| s.len()).sum();
    if total == 0 {
        return 1.0;
    }
    let mut seen: BTreeSet<ChunkHash> = BTreeSet::new();
    let mut unique_bytes = 0usize;
    for src in sources {
        for chunk in chunker.chunk(src) {
            if seen.insert(chunk.hash) {
                unique_bytes += chunk.len();
            }
        }
    }
    total as f64 / unique_bytes as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::FixedChunker;

    #[test]
    fn dedup_ratio_all_unique_is_one() {
        let chunker = FixedChunker::new(4).unwrap();
        let data: Vec<u8> = (0..64u8).collect();
        assert!((dedup_ratio(&chunker, &data) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dedup_ratio_all_same() {
        let chunker = FixedChunker::new(4).unwrap();
        let data = vec![5u8; 40]; // 10 identical chunks
        assert!((dedup_ratio(&chunker, &data) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn dedup_ratio_empty_is_one() {
        let chunker = FixedChunker::new(4).unwrap();
        assert_eq!(dedup_ratio(&chunker, b""), 1.0);
        assert_eq!(joint_dedup_ratio(&chunker, &[]), 1.0);
    }

    #[test]
    fn joint_ratio_exceeds_individual_for_correlated_sources() {
        let chunker = FixedChunker::new(4).unwrap();
        let a = vec![1u8; 40];
        let b = vec![1u8; 40]; // identical to a
        let individual = dedup_ratio(&chunker, &a);
        let joint = joint_dedup_ratio(&chunker, &[&a, &b]);
        assert!(joint > individual);
        assert!((joint - 20.0).abs() < 1e-9);
    }

    #[test]
    fn joint_ratio_uncorrelated_sources() {
        let chunker = FixedChunker::new(1).unwrap();
        let a = [1u8, 2, 3];
        let b = [4u8, 5, 6];
        let joint = joint_dedup_ratio(&chunker, &[&a, &b]);
        assert!((joint - 1.0).abs() < 1e-9);
    }
}
