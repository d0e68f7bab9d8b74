//! # efdedup-repro — umbrella crate
//!
//! This crate hosts the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`) of the EF-dedup
//! reproduction. The library itself only re-exports the workspace crates
//! under one roof so examples and tests can use a single dependency.
//!
//! Start with `examples/quickstart.rs`:
//!
//! ```bash
//! cargo run --example quickstart
//! ```

#![warn(missing_docs)]

pub use ef_chunking as chunking;
pub use ef_cloudstore as cloudstore;
pub use ef_datagen as datagen;
pub use ef_erasure as erasure;
pub use ef_kvstore as kvstore;
pub use ef_netsim as netsim;
pub use ef_simcore as simcore;
pub use efdedup as core;

/// Commonly used items for examples and integration tests.
pub mod prelude {
    pub use ef_chunking::{ChunkHash, Chunker, ChunkerKind, FixedChunker, GearChunker};
    pub use ef_cloudstore::{Durability, DurableStore, Manifest};
    pub use ef_datagen::datasets;
    pub use ef_datagen::{CharacteristicVector, GenerativeModel, SourceSpec};
    pub use ef_erasure::ReedSolomon;
    pub use ef_kvstore::{ClusterConfig, Consistency, LocalCluster};
    pub use ef_netsim::{Network, NetworkConfig, NodeId, TopologyBuilder};
    pub use ef_simcore::{DetRng, SimDuration, SimTime};
    pub use efdedup::estimator::{Estimator, EstimatorConfig, GroundTruth};
    pub use efdedup::model::Snod2Instance;
    pub use efdedup::partition::{DedupOnly, NetworkOnly, Partition, Partitioner, SmartGreedy};
    pub use efdedup::system::{run_system, Strategy, SystemConfig, Workload};
}
