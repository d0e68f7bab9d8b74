//! # ef-cloudstore — the central cloud's storage endpoint
//!
//! In EF-dedup the edge rings suppress duplicates and forward unique
//! chunks to the central cloud "for further storage and processing"
//! (paper Sec. I/IV). This crate implements that endpoint as a real
//! storage system rather than a byte counter:
//!
//! * [`DurableStore`] — content-addressed chunk placement across cloud
//!   storage nodes under either γ-way [`Durability::Replicated`] or
//!   Reed–Solomon [`Durability::ErasureCoded`] (the paper's future-work
//!   extension), surviving node failures within the configured
//!   tolerance,
//! * [`Manifest`] — a file recipe (ordered chunk list):
//!   [`DurableStore::store_file`] writes one and
//!   [`DurableStore::restore`] **reads the file back byte-exact**,
//! * [`ContainerLayout`] / [`RestoreStats`] ([`restore`] module) —
//!   container placement and restore-path accounting (fragmentation,
//!   locality, capped-rewrite defrag), per arXiv 2411.01407.
//!
//! Every boundary verifies content addresses: an upload whose payload
//! does not hash to the claimed address is refused, and reads skip
//! rotted replicas or rebuild a rotted shard from parity before giving
//! up — both with [`DurableError::Corrupt`] naming the chunk.
//!
//! # Example
//!
//! ```
//! use ef_cloudstore::{Durability, DurableStore};
//! use ef_chunking::{Chunker, FixedChunker};
//!
//! let chunker = FixedChunker::new(8).unwrap();
//! let mut cloud = DurableStore::new(6, Durability::ErasureCoded { k: 4, m: 2 })?;
//! let data = b"chunk 1|chunk 2|chunk 1|".to_vec();
//! let manifest = cloud.store_file(&chunker.chunk(&data))?;
//! assert_eq!(cloud.chunk_count(), 2); // the repeated chunk is kept once
//! cloud.fail_node(0);
//! cloud.fail_node(3);
//! assert_eq!(cloud.restore(&manifest)?, data);
//! # Ok::<(), ef_cloudstore::DurableError>(())
//! ```

#![warn(missing_docs)]

mod catalog;
mod durable;
pub mod restore;

pub use catalog::Manifest;
pub use durable::{Durability, DurableError, DurableStore};
pub use restore::{
    restore_profile, ContainerLayout, DefragPolicy, RestoreAccountant, RestoreProfile, RestoreStats,
};
