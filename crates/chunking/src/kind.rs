//! One switchable handle over both chunking engines.
//!
//! The simulation and test layers need to run the same pipeline under
//! either chunker without generic plumbing everywhere; `ChunkerKind` is
//! the enum they parameterize over, and its [`Chunker`] impl delegates to
//! the wrapped engine so results stay directly comparable.

use crate::cdc::{GearChunker, GearChunkerBuilder, InvalidCdcConfigError};
use crate::chunk::{Chunk, Chunker};
use crate::fixed::{FixedChunker, InvalidChunkSizeError};

/// A chunking engine selected at runtime: the paper's equal-size chunker
/// or the gear-CDC extension.
///
/// # Example
///
/// ```
/// use ef_chunking::{Chunker, ChunkerKind};
///
/// let data = vec![7u8; 50_000];
/// for kind in ChunkerKind::both(4096).unwrap() {
///     let total: usize = kind.chunk(&data).iter().map(|c| c.len()).sum();
///     assert_eq!(total, data.len(), "{}", kind.label());
/// }
/// ```
#[derive(Debug, Clone)]
#[expect(
    clippy::large_enum_variant,
    reason = "the gear variant carries its 2 kB gear table inline; a handful of \
              short-lived instances exist per run, and boxing would cost a deref \
              on every chunk() dispatch"
)]
pub enum ChunkerKind {
    /// Equal-size chunking (the paper's system model).
    Fixed(FixedChunker),
    /// FastCDC-style gear content-defined chunking.
    Gear(GearChunker),
}

impl ChunkerKind {
    /// An equal-size chunker with the given chunk size.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidChunkSizeError`] when `chunk_size` is zero.
    pub fn fixed(chunk_size: usize) -> Result<Self, InvalidChunkSizeError> {
        Ok(ChunkerKind::Fixed(FixedChunker::new(chunk_size)?))
    }

    /// The default gear-CDC configuration (2 KiB / 8 KiB / 64 KiB).
    pub fn gear() -> Self {
        ChunkerKind::Gear(GearChunker::default())
    }

    /// A gear-CDC chunker tuned so the *expected* chunk size matches
    /// `target`: min = target/4, max = target×8, target rounded up to a
    /// power of two. This is how simulation code maps a model chunk size
    /// onto the CDC engine for apples-to-apples dedup comparisons.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidCdcConfigError`] when `target` is below 4 bytes
    /// (the min/target/max ladder cannot be built).
    pub fn gear_sized(target: usize) -> Result<Self, InvalidCdcConfigError> {
        let target = target.max(1).next_power_of_two();
        let chunker = GearChunkerBuilder::new()
            .min_size(target / 4)
            .target_size(target)
            .max_size(target * 8)
            .build()?;
        Ok(ChunkerKind::Gear(chunker))
    }

    /// Both engines at a comparable chunk size, for parameterized tests:
    /// the fixed chunker at exactly `chunk_size` and the gear chunker
    /// targeting it via [`ChunkerKind::gear_sized`].
    #[expect(
        clippy::expect_used,
        reason = "a zero target size fails the CDC ladder by definition"
    )]
    pub fn both(chunk_size: usize) -> Result<Vec<Self>, InvalidCdcConfigError> {
        let fixed = Self::fixed(chunk_size).map_err(|_| {
            // A zero size fails the CDC ladder too; surface one error type.
            Self::gear_sized(0).expect_err("zero target is invalid")
        })?;
        Ok(vec![fixed, Self::gear_sized(chunk_size)?])
    }

    /// A short stable label for logs, metrics, and golden files.
    pub fn label(&self) -> &'static str {
        match self {
            ChunkerKind::Fixed(_) => "fixed",
            ChunkerKind::Gear(_) => "gear-cdc",
        }
    }
}

impl Chunker for ChunkerKind {
    fn chunk(&self, data: &[u8]) -> Vec<Chunk> {
        match self {
            ChunkerKind::Fixed(c) => c.chunk(data),
            ChunkerKind::Gear(c) => c.chunk(data),
        }
    }

    fn target_chunk_size(&self) -> usize {
        match self {
            ChunkerKind::Fixed(c) => c.target_chunk_size(),
            ChunkerKind::Gear(c) => c.target_chunk_size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(ChunkerKind::fixed(4096).unwrap().label(), "fixed");
        assert_eq!(ChunkerKind::gear().label(), "gear-cdc");
    }

    #[test]
    fn gear_sized_rounds_to_power_of_two() {
        let kind = ChunkerKind::gear_sized(5000).unwrap();
        assert_eq!(kind.target_chunk_size(), 8192);
        let kind = ChunkerKind::gear_sized(64).unwrap();
        assert_eq!(kind.target_chunk_size(), 64);
    }

    #[test]
    fn gear_sized_rejects_tiny_targets() {
        assert!(ChunkerKind::gear_sized(0).is_err());
        assert!(ChunkerKind::gear_sized(2).is_err());
        assert!(ChunkerKind::gear_sized(4).is_ok());
    }

    #[test]
    fn both_yields_fixed_then_gear() {
        let kinds = ChunkerKind::both(4096).unwrap();
        assert_eq!(kinds.len(), 2);
        assert_eq!(kinds[0].label(), "fixed");
        assert_eq!(kinds[0].target_chunk_size(), 4096);
        assert_eq!(kinds[1].label(), "gear-cdc");
        assert!(ChunkerKind::both(0).is_err());
    }

    #[test]
    fn delegates_chunking() {
        let data: Vec<u8> = (0..60_000usize).map(|i| (i * 31 % 251) as u8).collect();
        for kind in ChunkerKind::both(1024).unwrap() {
            let chunks = kind.chunk(&data);
            let total: usize = chunks.iter().map(|c| c.len()).sum();
            assert_eq!(total, data.len(), "{}", kind.label());
            assert!(chunks.iter().all(|c| !c.is_empty()));
        }
    }
}
