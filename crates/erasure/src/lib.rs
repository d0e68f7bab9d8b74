//! # ef-erasure — Reed–Solomon erasure coding over GF(2⁸)
//!
//! The paper lists erasure-coded replica storage as future work ("to make
//! the data more reliable and save more storage space, we intend to apply
//! erasure code to store data replicas"). This crate implements that
//! extension from scratch:
//!
//! * [`gf256`] — the finite field GF(2⁸) with log/antilog tables,
//! * [`ReedSolomon`] — a systematic `(k, m)` code: `k` data shards plus
//!   `m` parity shards; any `k` of the `k + m` shards reconstruct the
//!   original data.
//!
//! Compared to γ-way replication, a `(k, m)` code stores `1 + m/k`× the
//! data while tolerating `m` losses — e.g. RS(4, 2) tolerates two lost
//! shards at 1.5× storage where 3-way replication needs 3×. The
//! `ef-cloudstore` crate uses this for chunk durability, and an ablation
//! bench compares the two (DESIGN.md §3).
//!
//! # Example
//!
//! ```
//! use ef_erasure::ReedSolomon;
//!
//! let rs = ReedSolomon::new(4, 2)?;
//! let shards = rs.encode(b"the quick brown fox jumps over the lazy dog")?;
//! assert_eq!(shards.len(), 6);
//!
//! // Lose any two shards...
//! let mut received: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
//! received[0] = None;
//! received[5] = None;
//! // ...and still reconstruct the original bytes.
//! let restored = rs.reconstruct(&received, 43)?;
//! assert_eq!(&restored, b"the quick brown fox jumps over the lazy dog");
//! # Ok::<(), ef_erasure::CodeError>(())
//! ```

#![warn(missing_docs)]

pub mod gf256;
mod matrix;
mod rs;

pub use rs::{CodeError, ReedSolomon};
