//! The chunk-pool generative model (paper Sec. II).

use crate::vector::CharacteristicVector;
use ef_simcore::DetRng;
use std::fmt;

/// A reference to one chunk of the universe: `(pool, index within pool)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkRef {
    /// The chunk pool (`C_k` in the paper).
    pub pool: u32,
    /// Index of the chunk within the pool, `0..pool_size`.
    pub index: u64,
}

/// A data source: its chunk rate `R_i` (chunks per second) and its
/// characteristic vector `P_i`.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceSpec {
    /// Chunks generated per second.
    pub rate: f64,
    /// Pool-selection probabilities.
    pub probs: CharacteristicVector,
}

impl SourceSpec {
    /// Creates a source spec.
    ///
    /// # Panics
    ///
    /// Panics when `rate` is not positive and finite.
    pub fn new(rate: f64, probs: CharacteristicVector) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "invalid rate {rate}");
        SourceSpec { rate, probs }
    }
}

/// Error constructing a [`GenerativeModel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// No pools given.
    NoPools,
    /// A pool has zero size.
    EmptyPool(usize),
    /// No sources given.
    NoSources,
    /// A source's vector length does not match the pool count.
    VectorLengthMismatch {
        /// The offending source.
        source: usize,
        /// Its vector length.
        len: usize,
        /// The pool count.
        pools: usize,
    },
    /// Chunk size of zero.
    ZeroChunkSize,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::NoPools => write!(f, "model needs at least one chunk pool"),
            ModelError::EmptyPool(k) => write!(f, "chunk pool {k} has zero size"),
            ModelError::NoSources => write!(f, "model needs at least one source"),
            ModelError::VectorLengthMismatch { source, len, pools } => write!(
                f,
                "source {source} has a {len}-pool vector but the model has {pools} pools"
            ),
            ModelError::ZeroChunkSize => write!(f, "chunk size must be positive"),
        }
    }
}

impl std::error::Error for ModelError {}

/// The complete generative model: `K` pools with sizes `s_k`, a fixed
/// chunk size, and `N` sources with rates and characteristic vectors.
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, PartialEq)]
pub struct GenerativeModel {
    pool_sizes: Vec<u64>,
    chunk_size: usize,
    sources: Vec<SourceSpec>,
}

impl GenerativeModel {
    /// Creates a model.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] when the configuration is inconsistent.
    pub fn new(
        pool_sizes: Vec<u64>,
        chunk_size: usize,
        sources: Vec<SourceSpec>,
    ) -> Result<Self, ModelError> {
        if pool_sizes.is_empty() {
            return Err(ModelError::NoPools);
        }
        if let Some(k) = pool_sizes.iter().position(|&s| s == 0) {
            return Err(ModelError::EmptyPool(k));
        }
        if chunk_size == 0 {
            return Err(ModelError::ZeroChunkSize);
        }
        if sources.is_empty() {
            return Err(ModelError::NoSources);
        }
        for (i, s) in sources.iter().enumerate() {
            if s.probs.pool_count() != pool_sizes.len() {
                return Err(ModelError::VectorLengthMismatch {
                    source: i,
                    len: s.probs.pool_count(),
                    pools: pool_sizes.len(),
                });
            }
        }
        Ok(GenerativeModel {
            pool_sizes,
            chunk_size,
            sources,
        })
    }

    /// Number of pools `K`.
    pub fn pool_count(&self) -> usize {
        self.pool_sizes.len()
    }

    /// Pool sizes `s_k`.
    pub fn pool_sizes(&self) -> &[u64] {
        &self.pool_sizes
    }

    /// Bytes per chunk.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Number of sources `N`.
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// The source specifications.
    pub fn sources(&self) -> &[SourceSpec] {
        &self.sources
    }

    /// Draws `n` chunk references for `source` per the model: pool by the
    /// characteristic vector, index uniform within the pool.
    ///
    /// # Panics
    ///
    /// Panics when `source` is out of range.
    pub fn draw_refs(&self, source: usize, n: usize, rng: &mut DetRng) -> Vec<ChunkRef> {
        let spec = &self.sources[source];
        (0..n)
            .map(|_| {
                let pool = rng.categorical(spec.probs.as_slice());
                let index = rng.range_u64(0, self.pool_sizes[pool]);
                ChunkRef {
                    pool: pool as u32,
                    index,
                }
            })
            .collect()
    }

    /// Materializes the deterministic bytes of a chunk reference.
    ///
    /// The same reference always yields the same bytes; different
    /// references yield different bytes (a `(pool, index)` header is
    /// embedded, and the body is a keyed pseudo-random fill).
    pub fn materialize(&self, chunk: ChunkRef) -> Vec<u8> {
        materialize_chunk(chunk, self.chunk_size)
    }

    /// Generates `n_chunks` chunks of byte content for `source`.
    ///
    /// # Panics
    ///
    /// Panics when `source` is out of range.
    pub fn generate_stream(&self, source: usize, n_chunks: usize, rng: &mut DetRng) -> Vec<u8> {
        let refs = self.draw_refs(source, n_chunks, rng);
        let mut out = Vec::with_capacity(n_chunks * self.chunk_size);
        for r in refs {
            out.extend_from_slice(&self.materialize(r));
        }
        out
    }

    /// Counts distinct references in a set of draws — the model-level
    /// (exact) unique-chunk count, used to cross-check Theorem 1 against
    /// byte-level measurement.
    pub fn distinct_refs(draws: &[Vec<ChunkRef>]) -> usize {
        let mut set = std::collections::HashSet::new();
        for d in draws {
            set.extend(d.iter().copied());
        }
        set.len()
    }
}

/// Deterministic chunk-byte materialization shared by all generators:
/// an 16-byte `(pool, index)` header followed by SplitMix64 filler keyed by
/// the reference.
pub(crate) fn materialize_chunk(chunk: ChunkRef, chunk_size: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(chunk_size);
    out.extend_from_slice(&u64::from(chunk.pool).to_be_bytes());
    out.extend_from_slice(&chunk.index.to_be_bytes());
    let mut state = (u64::from(chunk.pool) << 48) ^ chunk.index ^ 0x00c0_ffee_0b07_5caa;
    while out.len() < chunk_size {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let bytes = z.to_le_bytes();
        let take = (chunk_size - out.len()).min(8);
        out.extend_from_slice(&bytes[..take]);
    }
    out.truncate(chunk_size);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::CharacteristicVector;

    fn two_source_model() -> GenerativeModel {
        GenerativeModel::new(
            vec![500, 2_000],
            256,
            vec![
                SourceSpec::new(100.0, CharacteristicVector::new(vec![0.9, 0.1]).unwrap()),
                SourceSpec::new(100.0, CharacteristicVector::new(vec![0.9, 0.1]).unwrap()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn validation_errors() {
        let v = CharacteristicVector::uniform(2);
        assert_eq!(
            GenerativeModel::new(vec![], 10, vec![]).unwrap_err(),
            ModelError::NoPools
        );
        assert_eq!(
            GenerativeModel::new(vec![10, 0], 10, vec![]).unwrap_err(),
            ModelError::EmptyPool(1)
        );
        assert_eq!(
            GenerativeModel::new(vec![10], 0, vec![]).unwrap_err(),
            ModelError::ZeroChunkSize
        );
        assert_eq!(
            GenerativeModel::new(vec![10], 10, vec![]).unwrap_err(),
            ModelError::NoSources
        );
        let err = GenerativeModel::new(vec![10], 10, vec![SourceSpec::new(1.0, v)]).unwrap_err();
        assert!(matches!(err, ModelError::VectorLengthMismatch { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn draws_respect_pool_bounds() {
        let m = two_source_model();
        let mut rng = ef_simcore::DetRng::new(1);
        for r in m.draw_refs(0, 5_000, &mut rng) {
            assert!(r.index < m.pool_sizes()[r.pool as usize]);
            assert!((r.pool as usize) < m.pool_count());
        }
    }

    #[test]
    fn draws_follow_characteristic_vector() {
        let m = two_source_model();
        let mut rng = ef_simcore::DetRng::new(2);
        let refs = m.draw_refs(0, 20_000, &mut rng);
        let pool0 = refs.iter().filter(|r| r.pool == 0).count() as f64 / refs.len() as f64;
        assert!((pool0 - 0.9).abs() < 0.01, "pool0 fraction {pool0}");
    }

    #[test]
    fn materialization_is_deterministic_and_injective() {
        let m = two_source_model();
        let a = m.materialize(ChunkRef { pool: 0, index: 42 });
        let b = m.materialize(ChunkRef { pool: 0, index: 42 });
        let c = m.materialize(ChunkRef { pool: 1, index: 42 });
        let d = m.materialize(ChunkRef { pool: 0, index: 43 });
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a.len(), 256);
    }

    #[test]
    fn byte_level_dedup_matches_ref_level() {
        // The crucial bridge: chunking the generated stream with the same
        // chunk size recovers exactly the distinct-reference count.
        let m = two_source_model();
        let mut rng = ef_simcore::DetRng::new(3);
        let refs_a = m.draw_refs(0, 400, &mut rng);
        let refs_b = m.draw_refs(1, 400, &mut rng);
        let distinct = GenerativeModel::distinct_refs(&[refs_a.clone(), refs_b.clone()]);

        let mut bytes = Vec::new();
        for r in refs_a.iter().chain(&refs_b) {
            bytes.extend_from_slice(&m.materialize(*r));
        }
        let chunker = ef_chunking::FixedChunker::new(256).unwrap();
        use ef_chunking::Chunker;
        let unique: std::collections::BTreeSet<_> =
            chunker.chunk(&bytes).iter().map(|c| c.hash).collect();
        assert_eq!(unique.len(), distinct);
    }

    #[test]
    fn correlated_sources_share_many_chunks() {
        let m = two_source_model();
        let mut rng = ef_simcore::DetRng::new(4);
        let a: std::collections::HashSet<ChunkRef> =
            m.draw_refs(0, 2_000, &mut rng).into_iter().collect();
        let b: std::collections::HashSet<ChunkRef> =
            m.draw_refs(1, 2_000, &mut rng).into_iter().collect();
        let shared = a.intersection(&b).count();
        assert!(shared > 200, "only {shared} shared chunks");
    }

    #[test]
    fn generate_stream_length() {
        let m = two_source_model();
        let mut rng = ef_simcore::DetRng::new(5);
        assert_eq!(m.generate_stream(1, 33, &mut rng).len(), 33 * 256);
    }

    #[test]
    fn materialize_small_chunk_sizes() {
        // Chunks smaller than the 16-byte header still work (truncated).
        let bytes = materialize_chunk(ChunkRef { pool: 1, index: 2 }, 10);
        assert_eq!(bytes.len(), 10);
    }

    #[test]
    #[should_panic(expected = "invalid rate")]
    fn source_spec_rejects_bad_rate() {
        SourceSpec::new(0.0, CharacteristicVector::uniform(1));
    }
}
