//! File manifests and the restore path.
//!
//! Deduplicated storage keeps one copy of every chunk plus, per file, a
//! *manifest* — the ordered list of chunk hashes that reconstitutes the
//! file. The catalog is what makes the dedup system a storage system: a
//! stored file must come back byte-exact, and deleting a file must free
//! exactly the chunks no other file references.

use crate::store::{ChunkStore, IntegrityError};
use ef_chunking::{fingerprint_batch, ChunkHash, Chunker};
use std::collections::HashMap;
use std::fmt;

/// Identifies a stored file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file-{}", self.0)
    }
}

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

/// Error restoring a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// No manifest under this id.
    UnknownFile(FileId),
    /// A referenced chunk is missing from the store (corruption).
    MissingChunk(ChunkHash),
    /// A referenced chunk is present but its payload no longer hashes
    /// to its address (at-rest bit rot caught at the read boundary).
    CorruptChunk(ChunkHash),
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::UnknownFile(id) => write!(f, "unknown file {id}"),
            RestoreError::MissingChunk(h) => write!(f, "missing chunk {h}"),
            RestoreError::CorruptChunk(h) => write!(f, "chunk {h} failed checksum verification"),
        }
    }
}

impl std::error::Error for RestoreError {}

/// A deduplicating file catalog over a [`ChunkStore`].
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, Default)]
pub struct FileCatalog {
    store: ChunkStore,
    manifests: HashMap<FileId, Manifest>,
    next_id: u64,
}

impl FileCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Chunks `data` with `chunker`, stores the unique chunks, and
    /// records a manifest. Returns the new file's id.
    pub fn store_file<C: Chunker>(&mut self, chunker: &C, data: &[u8]) -> FileId {
        let mut manifest = Manifest {
            chunks: Vec::new(),
            total_len: data.len() as u64,
        };
        for chunk in chunker.chunk(data) {
            manifest.chunks.push((chunk.hash, chunk.len() as u32));
            self.store
                .put(chunk.hash, chunk.data)
                // simlint::allow(D003): the chunker computed `hash` from these bytes
                .expect("chunker hash matches payload");
        }
        let id = FileId(self.next_id);
        self.next_id += 1;
        self.manifests.insert(id, manifest);
        id
    }

    /// Stores a file from externally produced chunk hashes + payloads
    /// (the upload path from the edge: the ring ships unique chunks, the
    /// manifest references all of them).
    ///
    /// # Errors
    ///
    /// [`IntegrityError`] when any payload does not hash to its claimed
    /// address — the upload was damaged in flight. The catalog is left
    /// unchanged: no chunk is referenced and no manifest is recorded, so
    /// a corrupt batch cannot leak dangling references.
    pub fn store_manifest(
        &mut self,
        chunks: Vec<(ChunkHash, bytes::Bytes)>,
    ) -> Result<FileId, IntegrityError> {
        // Validate the whole batch before referencing anything — one
        // batched digest per payload, the only one this call computes.
        let payloads: Vec<&[u8]> = chunks.iter().map(|(_, data)| &data[..]).collect();
        let actuals = fingerprint_batch(&payloads);
        if let Some(((claimed, _), actual)) = chunks
            .iter()
            .zip(actuals)
            .find(|((claimed, _), actual)| claimed != actual)
        {
            return Err(IntegrityError {
                claimed: *claimed,
                actual,
            });
        }
        let mut manifest = Manifest {
            chunks: Vec::with_capacity(chunks.len()),
            total_len: chunks.iter().map(|(_, b)| b.len() as u64).sum(),
        };
        for (hash, data) in chunks {
            manifest.chunks.push((hash, data.len() as u32));
            self.store.put_verified(hash, data);
        }
        let id = FileId(self.next_id);
        self.next_id += 1;
        self.manifests.insert(id, manifest);
        Ok(id)
    }

    /// Reassembles a file byte-exact.
    ///
    /// # Errors
    ///
    /// [`RestoreError::UnknownFile`], [`RestoreError::MissingChunk`], or
    /// [`RestoreError::CorruptChunk`] when a stored payload no longer
    /// hashes to its address (the verify-on-read boundary: rot is
    /// reported, never silently reassembled into a file).
    pub fn restore_file(&self, id: FileId) -> Result<Vec<u8>, RestoreError> {
        let manifest = self
            .manifests
            .get(&id)
            .ok_or(RestoreError::UnknownFile(id))?;
        let mut out = Vec::with_capacity(manifest.total_len as usize);
        for (hash, _) in &manifest.chunks {
            let data = self
                .store
                .get(hash)
                .ok_or(RestoreError::MissingChunk(*hash))?;
            if ChunkHash::of(&data) != *hash {
                return Err(RestoreError::CorruptChunk(*hash));
            }
            out.extend_from_slice(&data);
        }
        Ok(out)
    }

    /// Deletes a file, releasing its chunk references (space shared with
    /// other files survives). Returns `true` when the file existed.
    pub fn delete_file(&mut self, id: FileId) -> bool {
        let Some(manifest) = self.manifests.remove(&id) else {
            return false;
        };
        for (hash, _) in &manifest.chunks {
            let released = self.store.release(hash);
            debug_assert!(released.is_some(), "manifest chunk missing from store");
        }
        true
    }

    /// The manifest of a file.
    pub fn manifest(&self, id: FileId) -> Option<&Manifest> {
        self.manifests.get(&id)
    }

    /// Number of stored files.
    pub fn file_count(&self) -> usize {
        self.manifests.len()
    }

    /// The underlying chunk store (statistics, durability integration).
    pub fn store(&self) -> &ChunkStore {
        &self.store
    }

    /// Mutable access to the chunk store (fault injection, scrub
    /// integration).
    pub fn store_mut(&mut self) -> &mut ChunkStore {
        &mut self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ef_chunking::FixedChunker;

    #[test]
    fn store_restore_roundtrip() {
        let chunker = FixedChunker::new(16).unwrap();
        let mut catalog = FileCatalog::new();
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let id = catalog.store_file(&chunker, &data);
        assert_eq!(catalog.restore_file(id).unwrap(), data);
        assert_eq!(catalog.file_count(), 1);
        assert_eq!(
            catalog.manifest(id).unwrap().chunk_count(),
            data.len().div_ceil(16)
        );
    }

    #[test]
    fn duplicate_files_share_chunks() {
        let chunker = FixedChunker::new(8).unwrap();
        let mut catalog = FileCatalog::new();
        let data = vec![7u8; 800];
        let a = catalog.store_file(&chunker, &data);
        let b = catalog.store_file(&chunker, &data);
        // 100 identical chunks, stored once.
        assert_eq!(catalog.store().stats().unique_chunks, 1);
        assert_eq!(catalog.restore_file(a).unwrap(), data);
        assert_eq!(catalog.restore_file(b).unwrap(), data);
    }

    #[test]
    fn delete_frees_only_unshared_space() {
        let chunker = FixedChunker::new(8).unwrap();
        let mut catalog = FileCatalog::new();
        let shared = vec![1u8; 80];
        let mut mixed = shared.clone();
        mixed.extend_from_slice(&[2u8; 80]);
        let a = catalog.store_file(&chunker, &shared);
        let b = catalog.store_file(&chunker, &mixed);
        let before = catalog.store().stats().physical_bytes;
        assert!(catalog.delete_file(b));
        let after = catalog.store().stats().physical_bytes;
        // Only the unshared 8-byte [2;8] chunk is freed.
        assert_eq!(before - after, 8);
        assert_eq!(catalog.restore_file(a).unwrap(), shared);
        assert!(!catalog.delete_file(b), "double delete");
    }

    #[test]
    fn restore_unknown_file_errors() {
        let catalog = FileCatalog::new();
        assert!(matches!(
            catalog.restore_file(FileId(9)).unwrap_err(),
            RestoreError::UnknownFile(FileId(9))
        ));
    }

    #[test]
    fn store_manifest_path() {
        let mut catalog = FileCatalog::new();
        let payloads: Vec<bytes::Bytes> =
            (0..5u8).map(|i| bytes::Bytes::from(vec![i; 32])).collect();
        let chunks: Vec<(ChunkHash, bytes::Bytes)> = payloads
            .iter()
            .map(|b| (ChunkHash::of(b), b.clone()))
            .collect();
        let id = catalog.store_manifest(chunks).unwrap();
        let restored = catalog.restore_file(id).unwrap();
        let expected: Vec<u8> = payloads.iter().flat_map(|b| b.to_vec()).collect();
        assert_eq!(restored, expected);
    }

    #[test]
    fn store_manifest_rejects_corrupt_upload_atomically() {
        let mut catalog = FileCatalog::new();
        let good = bytes::Bytes::from_static(b"good chunk");
        let bad = bytes::Bytes::from_static(b"tampered in flight");
        let chunks = vec![
            (ChunkHash::of(&good), good),
            (ChunkHash::of(b"what the edge hashed"), bad.clone()),
        ];
        let err = catalog.store_manifest(chunks).unwrap_err();
        assert_eq!(err.actual, ChunkHash::of(&bad));
        // Atomic: the good chunk was not referenced either.
        assert_eq!(catalog.file_count(), 0);
        assert_eq!(catalog.store().stats().unique_chunks, 0);
    }

    #[test]
    fn store_manifest_names_a_tampered_middle_element_and_references_nothing() {
        // A batch long enough to take the batched-digest path, with the
        // damage in the middle: the error carries that element's claimed
        // and actual addresses, and neither the clean elements before it
        // nor the ones after it were referenced.
        let mut catalog = FileCatalog::new();
        let mut chunks: Vec<(ChunkHash, bytes::Bytes)> = (0..21u8)
            .map(|i| {
                let data = bytes::Bytes::from(vec![i; 100 + usize::from(i) * 37]);
                (ChunkHash::of(&data), data)
            })
            .collect();
        let claimed = chunks[10].0;
        let tampered = bytes::Bytes::from(vec![0xee; 470]);
        chunks[10].1 = tampered.clone();
        let err = catalog.store_manifest(chunks.clone()).unwrap_err();
        assert_eq!(
            err,
            IntegrityError {
                claimed,
                actual: ChunkHash::of(&tampered),
            }
        );
        assert_eq!(catalog.file_count(), 0);
        assert_eq!(catalog.store().stats(), Default::default());
        // The same batch with the element restored goes in whole, every
        // chunk referenced exactly once.
        chunks[10].1 = bytes::Bytes::from(vec![10u8; 470]);
        let id = catalog.store_manifest(chunks.clone()).unwrap();
        assert_eq!(catalog.store().stats().references, 21);
        let expected: Vec<u8> = chunks.iter().flat_map(|(_, b)| b.to_vec()).collect();
        assert_eq!(catalog.restore_file(id).unwrap(), expected);
    }

    #[test]
    fn restore_detects_bit_rot_under_a_valid_manifest() {
        let chunker = FixedChunker::new(16).unwrap();
        let mut catalog = FileCatalog::new();
        let data: Vec<u8> = (0..256u32).map(|i| (i * 7 % 251) as u8).collect();
        let id = catalog.store_file(&chunker, &data);
        let victim = catalog.manifest(id).unwrap().chunks[2].0;
        assert!(catalog.store_mut().corrupt_chunk(&victim, 5));
        assert_eq!(
            catalog.restore_file(id).unwrap_err(),
            RestoreError::CorruptChunk(victim)
        );
    }

    #[test]
    fn empty_file_roundtrip() {
        let chunker = FixedChunker::new(8).unwrap();
        let mut catalog = FileCatalog::new();
        let id = catalog.store_file(&chunker, b"");
        assert_eq!(catalog.restore_file(id).unwrap(), Vec::<u8>::new());
        assert!(catalog.delete_file(id));
    }
}
