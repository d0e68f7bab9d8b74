//! # ef-kvstore — a Cassandra-like distributed key-value store
//!
//! EF-dedup (paper Sec. IV) keeps each D2-ring's deduplication index in
//! Cassandra, "deployed across all the nodes in a ring", because it
//! spreads the index over the resource-constrained edge nodes, replicates
//! hashes for availability, tolerates node disconnection, and makes node
//! add/remove seamless. This crate is a from-scratch reimplementation of
//! the slice of Cassandra the paper relies on:
//!
//! * [`HashRing`] — consistent hashing with virtual nodes ("random
//!   partitioning strategy"),
//! * replication factor γ with per-operation [`Consistency`] levels,
//! * [`NodeState`] — a deterministic, transport-agnostic message-passing
//!   state machine per node (coordinator + replica roles),
//! * [`LocalCluster`] — an in-process, fault-free cluster with instant
//!   message delivery for functional use (the D2-ring index) and tests,
//! * [`SimCluster`] — the same state machines driven through
//!   `ef-simcore`/`ef-netsim`, yielding per-operation latencies,
//! * [`sweep`] — the one fault-sweep harness and oracle over [`SimCluster`],
//! * hinted handoff, node crash/revival and departure (on [`SimCluster`]),
//! * [`StorageEngine`] — a node's in-memory index entries, one ordered
//!   map, made durable by its [`WriteAheadLog`].
//!
//! # Example
//!
//! ```
//! use ef_kvstore::{ClusterConfig, Consistency, LocalCluster};
//! use ef_netsim::NodeId;
//! use bytes::Bytes;
//!
//! let mut cluster = LocalCluster::new(
//!     vec![NodeId(0), NodeId(1), NodeId(2)],
//!     ClusterConfig { replication_factor: 2, ..ClusterConfig::default() },
//! );
//! let coord = NodeId(0);
//! assert!(cluster.get(coord, b"hash-1").unwrap().is_none());
//! cluster.put(coord, b"hash-1", Bytes::from_static(b"1")).unwrap();
//! assert!(cluster.get(coord, b"hash-1").unwrap().is_some());
//! ```

#![warn(missing_docs)]

mod antientropy;
mod cache;
mod chaos;
mod cluster;
mod counters;
mod engine;
mod failure;
mod gray;
mod integrity;
mod msg;
mod node;
mod retry;
mod ring;
mod sim;
mod spool;
mod storage;
pub mod sweep;
mod trust;

pub use antientropy::MerkleTree;
pub use cache::FingerprintCache;
pub use chaos::{nth_op_id, ChaosEvent, ChaosScenario, ChaosScenarioConfig, ClusterFault};
pub use cluster::{ClusterConfig, ClusterError, LocalCluster, VNODES};
pub use counters::{
    ByzantineStats, CacheStats, CoordinatorStats, DisasterStats, GrayFailureStats, IntegrityStats,
    NodeStats, RecoveryStats,
};
pub use engine::{ScrubChunk, StorageEngine, StorageStats};
pub use failure::{HeartbeatDetector, Liveness, Sweep};
pub use gray::{AdaptiveTimeouts, RttEstimator};
pub use integrity::{checksum64, Checksum64, IntegrityError, Summed};
pub use msg::{ClientOp, Completion, Message, OpId, OpResult, Outbound};
pub use node::{Consistency, NodeState};
pub use retry::RetryPolicy;
pub use ring::HashRing;
pub use sim::{CloudUplink, OpLatency, SimCluster};
pub use spool::{SpoolClass, SpoolDest, SpoolEntry, SpoolLog, UploadSpool};
pub use storage::{ReplayNotes, WalError, WalRecord, WriteAheadLog};
pub use trust::TrustLedger;

/// Hashes a key to its position ("token") on the ring.
///
/// FNV-1a over the key bytes; chunk hashes are already uniform, and FNV
/// spreads arbitrary test keys well enough for placement purposes.
pub fn key_token(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Final avalanche (splitmix tail) so short sequential keys spread.
    let mut z = h;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod token_tests {
    use super::key_token;

    #[test]
    fn deterministic() {
        assert_eq!(key_token(b"abc"), key_token(b"abc"));
        assert_ne!(key_token(b"abc"), key_token(b"abd"));
    }

    #[test]
    fn sequential_keys_spread() {
        // Tokens of sequential keys should not cluster in one half.
        let mut low = 0;
        for i in 0..1000u32 {
            if key_token(&i.to_be_bytes()) < u64::MAX / 2 {
                low += 1;
            }
        }
        assert!((350..=650).contains(&low), "low half count {low}");
    }
}
