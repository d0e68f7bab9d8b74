//! MinHash/LSH similarity estimation — the paper's future-work direction
//! ("we wish to improve the performance of our source estimation
//! algorithm through techniques like locality sensitive hashing").
//!
//! Algorithm 1 measures ground-truth dedup ratios by *jointly chunking*
//! every probe subset — `O(|subset| · chunks)` work per subset. MinHash
//! replaces the pairwise measurements with constant-size signatures:
//! each source is summarized once, pairwise Jaccard similarity follows
//! from signature agreement, and the pair dedup ratio derives from the
//! inclusion–exclusion identity
//! `|A ∪ B| = (|A| + |B|) / (1 + J)` for Jaccard `J = |A∩B| / |A∪B|`.
//! LSH banding then finds high-similarity source pairs without comparing
//! all `O(N²)` signatures.

use crate::estimator::GroundTruth;
use ef_chunking::ChunkHash;
use std::collections::{BTreeMap, BTreeSet};

/// A MinHash signature: for each of `h` hash permutations, the minimum
/// permuted value over the source's chunk-hash set.
///
/// # Example
///
/// ```
/// use efdedup::similarity::MinHashSignature;
/// use ef_chunking::ChunkHash;
///
/// let a: Vec<ChunkHash> = (0..100u32).map(|i| ChunkHash::of(&i.to_be_bytes())).collect();
/// let sig_a = MinHashSignature::from_hashes(a.iter().copied(), 128);
/// let sig_a2 = MinHashSignature::from_hashes(a.iter().copied(), 128);
/// assert_eq!(sig_a.jaccard(&sig_a2), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinHashSignature {
    mins: Vec<u64>,
    /// Number of distinct chunks summarized (exact, tracked alongside).
    distinct: usize,
}

/// Mixes a chunk hash with permutation seed `p` (SplitMix64 over the
/// 64-bit prefix xor a per-permutation constant).
fn permute(h: &ChunkHash, p: u64) -> u64 {
    let mut z = h.prefix64() ^ p.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl MinHashSignature {
    /// Builds a signature with `permutations` hash functions over the
    /// *set* of chunk hashes (duplicates are deduplicated first).
    ///
    /// # Panics
    ///
    /// Panics when `permutations` is zero or the hash stream is empty.
    pub fn from_hashes<I: IntoIterator<Item = ChunkHash>>(hashes: I, permutations: usize) -> Self {
        assert!(permutations > 0, "need at least one permutation");
        let set: BTreeSet<ChunkHash> = hashes.into_iter().collect();
        assert!(!set.is_empty(), "cannot summarize an empty source");
        let mut mins = vec![u64::MAX; permutations];
        for h in &set {
            for (p, slot) in mins.iter_mut().enumerate() {
                let v = permute(h, p as u64 + 1);
                if v < *slot {
                    *slot = v;
                }
            }
        }
        MinHashSignature {
            mins,
            distinct: set.len(),
        }
    }

    /// Number of permutations.
    pub fn len(&self) -> usize {
        self.mins.len()
    }

    /// Always false (construction forbids empty signatures).
    pub fn is_empty(&self) -> bool {
        self.mins.is_empty()
    }

    /// Exact number of distinct chunks this signature summarizes.
    pub fn distinct_chunks(&self) -> usize {
        self.distinct
    }

    /// Estimates Jaccard similarity as the fraction of agreeing
    /// signature slots.
    ///
    /// # Panics
    ///
    /// Panics when the signatures use different permutation counts.
    pub fn jaccard(&self, other: &MinHashSignature) -> f64 {
        assert_eq!(self.len(), other.len(), "signature length mismatch");
        let agree = self
            .mins
            .iter()
            .zip(&other.mins)
            .filter(|(a, b)| a == b)
            .count();
        agree as f64 / self.mins.len() as f64
    }

    /// Estimates the size of the union `|A ∪ B|` via inclusion–exclusion
    /// on the Jaccard estimate.
    pub fn union_estimate(&self, other: &MinHashSignature) -> f64 {
        let j = self.jaccard(other);
        (self.distinct + other.distinct) as f64 / (1.0 + j)
    }

    /// The LSH band keys of this signature for `(bands, rows)` banding:
    /// two sources sharing any band key are candidate similars.
    ///
    /// # Panics
    ///
    /// Panics when `bands * rows` exceeds the signature length or either
    /// is zero.
    pub fn band_keys(&self, bands: usize, rows: usize) -> Vec<u64> {
        assert!(bands > 0 && rows > 0, "need positive banding");
        assert!(
            bands * rows <= self.mins.len(),
            "banding exceeds signature length"
        );
        (0..bands)
            .map(|b| {
                let mut acc: u64 = 0xcbf2_9ce4_8422_2325 ^ (b as u64);
                for r in 0..rows {
                    acc ^= self.mins[b * rows + r];
                    acc = acc.wrapping_mul(0x0000_0100_0000_01b3);
                }
                acc
            })
            .collect()
    }
}

/// Finds candidate similar source pairs by LSH banding: pairs whose
/// signatures collide in at least one band.
///
/// Returns pairs `(i, j)` with `i < j`, sorted.
///
/// # Panics
///
/// Panics on inconsistent signature lengths or infeasible banding.
pub fn lsh_candidate_pairs(
    signatures: &[MinHashSignature],
    bands: usize,
    rows: usize,
) -> Vec<(usize, usize)> {
    let mut buckets: BTreeMap<(usize, u64), Vec<usize>> = BTreeMap::new();
    for (i, sig) in signatures.iter().enumerate() {
        for (band, key) in sig.band_keys(bands, rows).into_iter().enumerate() {
            buckets.entry((band, key)).or_default().push(i);
        }
    }
    let mut pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
    for members in buckets.values() {
        for (x, &i) in members.iter().enumerate() {
            for &j in &members[x + 1..] {
                pairs.insert((i.min(j), i.max(j)));
            }
        }
    }
    pairs.into_iter().collect()
}

/// Builds Algorithm 1 ground truth from MinHash signatures instead of
/// joint chunking: singleton ratios are exact (distinct counts are
/// tracked), pair ratios come from the union estimate. Subsets larger
/// than two are omitted — pairs are what the SNOD2 fit needs most, and
/// higher-order unions are not estimable from pairwise Jaccard alone.
///
/// `streams[i]` is source `i`'s chunk-hash stream (with duplicates —
/// the stream length is the sample's `R_i T`).
///
/// # Panics
///
/// Panics when `streams` is empty or any stream is empty.
pub fn minhash_ground_truth(streams: &[Vec<ChunkHash>], permutations: usize) -> GroundTruth {
    assert!(!streams.is_empty(), "need at least one source");
    let signatures: Vec<MinHashSignature> = streams
        .iter()
        .map(|s| MinHashSignature::from_hashes(s.iter().copied(), permutations))
        .collect();
    let n = streams.len();
    let mut subsets = Vec::new();
    let mut measured = Vec::new();
    for i in 0..n {
        subsets.push(vec![i]);
        measured.push(streams[i].len() as f64 / signatures[i].distinct_chunks() as f64);
    }
    for i in 0..n {
        for j in (i + 1)..n {
            subsets.push(vec![i, j]);
            let total = (streams[i].len() + streams[j].len()) as f64;
            let union = signatures[i].union_estimate(&signatures[j]);
            measured.push(total / union.max(1.0));
        }
    }
    GroundTruth {
        subsets,
        measured,
        sample_chunks: streams.iter().map(|s| s.len() as f64).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ef_chunking::{Chunker, FixedChunker};
    use ef_datagen::datasets;

    fn hashes_of(bytes: &[u8], chunk: usize) -> Vec<ChunkHash> {
        FixedChunker::new(chunk)
            .unwrap()
            .chunk(bytes)
            .into_iter()
            .map(|c| c.hash)
            .collect()
    }

    #[test]
    fn identical_sets_have_jaccard_one() {
        let hs: Vec<ChunkHash> = (0..50u32)
            .map(|i| ChunkHash::of(&i.to_be_bytes()))
            .collect();
        let a = MinHashSignature::from_hashes(hs.iter().copied(), 64);
        let b = MinHashSignature::from_hashes(hs.iter().copied(), 64);
        assert_eq!(a.jaccard(&b), 1.0);
        assert_eq!(a.distinct_chunks(), 50);
        assert!(!a.is_empty());
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn disjoint_sets_have_jaccard_near_zero() {
        let a: Vec<ChunkHash> = (0..200u32)
            .map(|i| ChunkHash::of(&i.to_be_bytes()))
            .collect();
        let b: Vec<ChunkHash> = (1000..1200u32)
            .map(|i| ChunkHash::of(&i.to_be_bytes()))
            .collect();
        let sa = MinHashSignature::from_hashes(a, 256);
        let sb = MinHashSignature::from_hashes(b, 256);
        assert!(sa.jaccard(&sb) < 0.05, "jaccard {}", sa.jaccard(&sb));
    }

    #[test]
    fn jaccard_estimate_tracks_true_overlap() {
        // A: 0..300, B: 150..450 → |A∩B| = 150, |A∪B| = 450, J = 1/3.
        let a: Vec<ChunkHash> = (0..300u32)
            .map(|i| ChunkHash::of(&i.to_be_bytes()))
            .collect();
        let b: Vec<ChunkHash> = (150..450u32)
            .map(|i| ChunkHash::of(&i.to_be_bytes()))
            .collect();
        let sa = MinHashSignature::from_hashes(a, 512);
        let sb = MinHashSignature::from_hashes(b, 512);
        let j = sa.jaccard(&sb);
        assert!((j - 1.0 / 3.0).abs() < 0.08, "estimated {j}");
        let union = sa.union_estimate(&sb);
        assert!((union - 450.0).abs() < 50.0, "union estimate {union}");
    }

    #[test]
    fn lsh_finds_the_similar_pair() {
        // Sources 0 and 1 heavily overlap; 2 is unrelated.
        let a: Vec<ChunkHash> = (0..400u32)
            .map(|i| ChunkHash::of(&i.to_be_bytes()))
            .collect();
        let b: Vec<ChunkHash> = (20..420u32)
            .map(|i| ChunkHash::of(&i.to_be_bytes()))
            .collect();
        let c: Vec<ChunkHash> = (9000..9400u32)
            .map(|i| ChunkHash::of(&i.to_be_bytes()))
            .collect();
        let sigs: Vec<MinHashSignature> = [a, b, c]
            .into_iter()
            .map(|h| MinHashSignature::from_hashes(h, 128))
            .collect();
        let pairs = lsh_candidate_pairs(&sigs, 32, 4);
        assert!(
            pairs.contains(&(0, 1)),
            "missed the similar pair: {pairs:?}"
        );
        assert!(!pairs.contains(&(0, 2)), "false positive: {pairs:?}");
        assert!(!pairs.contains(&(1, 2)), "false positive: {pairs:?}");
    }

    #[test]
    fn minhash_ground_truth_close_to_exact() {
        // Compare the MinHash-estimated ground truth against exact joint
        // measurement on real dataset bytes.
        let ds = datasets::accelerometer(3, 31);
        let chunk = ds.model().chunk_size();
        let files: Vec<Vec<u8>> = (0..3).map(|s| ds.file(s, 0, 0, 300)).collect();
        let streams: Vec<Vec<ChunkHash>> = files.iter().map(|f| hashes_of(f, chunk)).collect();

        let approx = minhash_ground_truth(&streams, 256);
        let exact =
            crate::estimator::GroundTruth::measure(&FixedChunker::new(chunk).unwrap(), &files);

        // Compare on the shared subsets (singletons + pairs).
        for (subset, &a) in approx.subsets.iter().zip(&approx.measured) {
            let e = exact
                .subsets
                .iter()
                .position(|s| s == subset)
                .map(|i| exact.measured[i])
                .expect("subset measured exactly");
            let rel = ((a - e) / e).abs();
            assert!(
                rel < 0.05,
                "subset {subset:?}: minhash {a} vs exact {e} (rel {rel})"
            );
        }
    }

    #[test]
    fn minhash_ground_truth_feeds_the_estimator() {
        // The estimator reaches its error bound on MinHash-estimated
        // ground truth too — the whole future-work pipeline works.
        let ds = datasets::accelerometer(2, 77);
        let chunk = ds.model().chunk_size();
        let files: Vec<Vec<u8>> = (0..2).map(|s| ds.file(s, 0, 0, 400)).collect();
        let streams: Vec<Vec<ChunkHash>> = files.iter().map(|f| hashes_of(f, chunk)).collect();
        let truth = minhash_ground_truth(&streams, 256);
        let fitted = crate::estimator::Estimator::default().fit(&truth);
        assert!(
            fitted.mean_rel_error < 0.05,
            "fit error {} on minhash truth",
            fitted.mean_rel_error
        );
    }

    #[test]
    #[should_panic(expected = "banding exceeds signature length")]
    fn banding_validation() {
        let s = MinHashSignature::from_hashes(std::iter::once(ChunkHash::of(b"x")), 8);
        s.band_keys(4, 4);
    }

    #[test]
    #[should_panic(expected = "empty source")]
    fn empty_source_rejected() {
        MinHashSignature::from_hashes(std::iter::empty(), 8);
    }
}
