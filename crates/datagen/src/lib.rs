//! # ef-datagen — workload substrate
//!
//! The paper models data similarity with *chunk pools*: every source draws
//! each chunk from one of `K` disjoint pools, picking the pool according
//! to its per-source *characteristic vector* and the chunk uniformly
//! within the pool (Sec. II). This crate implements that generative model
//! so it produces **actual bytes** whose measured, chunk-level dedup
//! behaviour matches the analytical model:
//!
//! * identical `(pool, index)` draws materialize identical chunk bytes,
//! * distinct draws materialize distinct bytes,
//!
//! which is what makes Theorem 1 testable against ground truth.
//!
//! The paper evaluates on two real IoT datasets that are not publicly
//! redistributable here: (1) 200 hours of accelerometer traces from five
//! participants (dominant walking frequency 1.92–2.8 Hz, files of
//! 80–187 MB) and (2) frame sequences from stationary traffic cameras. The
//! [`datasets`] module synthesizes stand-ins that preserve the properties
//! the evaluation depends on — cross-source redundancy structure for (1),
//! high inter-frame redundancy for (2) — as documented in `DESIGN.md` §6.
//!
//! Pool-model corpora are *byte-aligned*: they never exercise the
//! insert/delete shift redundancy content-defined chunking exists for.
//! The [`workload`] module adds seed-deterministic shift-redundant
//! generators (versioned backups, layered images, rotated logs) behind
//! [`WorkloadKind`], with closed-form expected dedup ratios for
//! validation; see `DESIGN.md` §16.
//!
//! # Example
//!
//! ```
//! use ef_datagen::{CharacteristicVector, GenerativeModel, SourceSpec};
//! use ef_simcore::DetRng;
//!
//! // Two pools; two strongly correlated sources.
//! let model = GenerativeModel::new(
//!     vec![1_000, 1_000],
//!     512, // bytes per chunk
//!     vec![
//!         SourceSpec::new(100.0, CharacteristicVector::new(vec![0.8, 0.2]).unwrap()),
//!         SourceSpec::new(100.0, CharacteristicVector::new(vec![0.8, 0.2]).unwrap()),
//!     ],
//! ).unwrap();
//! let mut rng = DetRng::new(1);
//! let stream = model.generate_stream(0, 100, &mut rng);
//! assert_eq!(stream.len(), 100 * 512);
//! ```

#![warn(missing_docs)]

pub mod datasets;
mod model;
mod vector;
pub mod workload;

pub use model::{ChunkRef, GenerativeModel, ModelError, SourceSpec};
pub use vector::{CharacteristicVector, VectorError};
pub use workload::{
    ByteAlignedConfig, LayeredImagesConfig, LogAppendConfig, VersionedBackupConfig, WorkloadKind,
};
