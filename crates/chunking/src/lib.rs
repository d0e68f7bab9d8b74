//! # ef-chunking — chunking and hashing substrate
//!
//! EF-dedup's Dedup Agent (paper Sec. IV) is a modified `duperemove`: it
//! splits incoming files into chunks, hashes each chunk, and looks the hash
//! up in a distributed index. This crate reimplements that substrate from
//! scratch:
//!
//! * [`FixedChunker`] — equal-size chunking, matching the paper's system
//!   model ("each edge node generates equal-size data chunks"),
//! * [`GearChunker`] — FastCDC-style content-defined chunking (the paper
//!   lists variable-size chunking as future work; we provide it as an
//!   extension),
//! * [`Sha256`] / [`sha256`] — FIPS 180-4 SHA-256 implemented in-repo (the
//!   workspace takes no third-party crate),
//! * [`ChunkHash`] — a 32-byte content fingerprint with a cheap 64-bit
//!   prefix for sharding,
//! * [`dedup_ratio`] / [`joint_dedup_ratio`] — the ground-truth dedup
//!   measurement Algorithm 1 compares the analytical model against.
//!
//! # Example
//!
//! ```
//! use ef_chunking::{Chunker, FixedChunker, ChunkHash};
//!
//! let data = vec![7u8; 10_000];
//! let chunker = FixedChunker::new(4096).unwrap();
//! let chunks = chunker.chunk(&data);
//! assert_eq!(chunks.len(), 3); // 4096 + 4096 + 1808
//! // Identical content hashes identically — the basis of deduplication.
//! assert_eq!(chunks[0].hash, ChunkHash::of(&data[..4096]));
//! ```

#![warn(missing_docs)]

mod cdc;
mod chunk;
mod fixed;
mod index;
mod kind;
pub mod sha256;

pub use cdc::{GearChunker, GearChunkerBuilder, InvalidCdcConfigError};
pub use chunk::{fingerprint_batch, Chunk, ChunkHash, Chunker, ParseChunkHashError};
pub use fixed::{FixedChunker, InvalidChunkSizeError};
pub use index::{dedup_ratio, joint_dedup_ratio};
pub use kind::ChunkerKind;
pub use sha256::{Sha256, BATCH_LANES};
