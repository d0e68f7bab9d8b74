//! File manifests.
//!
//! Deduplicated storage keeps one copy of every chunk plus, per file, a
//! *manifest* — the ordered list of chunk hashes that reconstitutes the
//! file. [`DurableStore::store_file`](crate::DurableStore::store_file)
//! writes one, [`DurableStore::restore`](crate::DurableStore::restore)
//! reads the file back from it byte-exact.

use ef_chunking::ChunkHash;

/// A file recipe: ordered chunk references and the original length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Ordered chunk hashes with their lengths.
    pub chunks: Vec<(ChunkHash, u32)>,
    /// Original file length in bytes.
    pub total_len: u64,
}

impl Manifest {
    /// Number of chunks in the recipe.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }
}
