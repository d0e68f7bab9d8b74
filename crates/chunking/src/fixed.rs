//! Fixed-size (equal-size) chunking.
//!
//! The paper's analytical model assumes equal-size chunks (Sec. II: "each
//! edge node `i` generates equal-size data chunks at a rate of `R_i` chunks
//! per second"), and its prototype uses duperemove's fixed block size. This
//! chunker is therefore the default throughout the reproduction.

use crate::chunk::{Chunk, Chunker};
use bytes::Bytes;
use std::fmt;

/// Error returned by [`FixedChunker::new`] for a zero chunk size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidChunkSizeError(());

impl fmt::Display for InvalidChunkSizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chunk size must be at least 1 byte")
    }
}

impl std::error::Error for InvalidChunkSizeError {}

/// Splits data into equal-size chunks (the final chunk may be shorter).
///
/// # Example
///
/// ```
/// use ef_chunking::{Chunker, FixedChunker};
///
/// let chunker = FixedChunker::new(4).unwrap();
/// let chunks = chunker.chunk(b"abcdefghij");
/// let sizes: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
/// assert_eq!(sizes, vec![4, 4, 2]);
/// assert_eq!(chunks[1].offset, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedChunker {
    chunk_size: usize,
}

impl FixedChunker {
    /// The 128 KiB default duperemove block size.
    pub const DEFAULT_CHUNK_SIZE: usize = 128 * 1024;

    /// Creates a chunker with the given chunk size in bytes.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidChunkSizeError`] when `chunk_size` is zero.
    pub fn new(chunk_size: usize) -> Result<Self, InvalidChunkSizeError> {
        if chunk_size == 0 {
            return Err(InvalidChunkSizeError(()));
        }
        Ok(FixedChunker { chunk_size })
    }

    /// The configured chunk size.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }
}

impl Default for FixedChunker {
    /// A chunker with [`FixedChunker::DEFAULT_CHUNK_SIZE`].
    fn default() -> Self {
        FixedChunker {
            chunk_size: Self::DEFAULT_CHUNK_SIZE,
        }
    }
}

impl Chunker for FixedChunker {
    /// Cuts equal-size chunks, then fingerprints all payloads in one
    /// [`crate::fingerprint_batch`] call, which spreads a large batch
    /// across the host's cores with the same digests. Each chunk's
    /// payload is a buffer of its own.
    fn chunk(&self, data: &[u8]) -> Vec<Chunk> {
        let payloads: Vec<&[u8]> = data.chunks(self.chunk_size).collect();
        let hashes = crate::chunk::fingerprint_batch(&payloads);
        let mut offset = 0u64;
        payloads
            .iter()
            .zip(hashes)
            .map(|(payload, hash)| {
                let chunk = Chunk::with_hash(offset, Bytes::copy_from_slice(payload), hash);
                offset += payload.len() as u64;
                chunk
            })
            .collect()
    }

    fn target_chunk_size(&self) -> usize {
        self.chunk_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_size() {
        assert!(FixedChunker::new(0).is_err());
        assert_eq!(
            FixedChunker::new(0).unwrap_err().to_string(),
            "chunk size must be at least 1 byte"
        );
    }

    #[test]
    fn empty_input_no_chunks() {
        let c = FixedChunker::new(8).unwrap();
        assert!(c.chunk(b"").is_empty());
    }

    #[test]
    fn exact_multiple() {
        let c = FixedChunker::new(4).unwrap();
        let chunks = c.chunk(b"abcdefgh");
        assert_eq!(chunks.len(), 2);
        assert!(chunks.iter().all(|c| c.len() == 4));
    }

    #[test]
    fn reassembly_reproduces_input() {
        let c = FixedChunker::new(7).unwrap();
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 256) as u8).collect();
        let chunks = c.chunk(&data);
        let mut rebuilt = Vec::new();
        for ch in &chunks {
            assert_eq!(ch.offset as usize, rebuilt.len());
            rebuilt.extend_from_slice(&ch.data);
        }
        assert_eq!(rebuilt, data);
    }

    #[test]
    fn each_chunk_is_a_buffer_of_its_own() {
        // Slices of one copy of the input sit end to end in memory;
        // separate allocations never do.
        let c = FixedChunker::new(4096).unwrap();
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let chunks = c.chunk(&data);
        assert_eq!(chunks.len(), 25);
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

    #[test]
    fn identical_blocks_share_hashes() {
        let c = FixedChunker::new(16).unwrap();
        let mut data = vec![0u8; 64];
        data[16..32].copy_from_slice(&[9u8; 16]);
        let chunks = c.chunk(&data);
        assert_eq!(chunks[0].hash, chunks[2].hash);
        assert_eq!(chunks[0].hash, chunks[3].hash);
        assert_ne!(chunks[0].hash, chunks[1].hash);
    }

    #[test]
    fn default_is_128k() {
        assert_eq!(FixedChunker::default().chunk_size(), 128 * 1024);
        assert_eq!(FixedChunker::default().target_chunk_size(), 128 * 1024);
    }
}
