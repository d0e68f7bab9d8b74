//! `LocalCluster`: an in-process cluster with instant message delivery.
//!
//! This driver runs the node state machines over a fault-free, in-order,
//! zero-latency queue. It is the *functional* face of the store — the
//! D2-ring dedup index uses it to decide chunk uniqueness — while
//! `SimCluster` prices the same operations in simulated time. It has no
//! fault, membership or repair edge: crashes, revivals, hint replay,
//! departures and anti-entropy exist only on `SimCluster`, which takes
//! them as `ClusterFault`s and periodic rounds.

use crate::msg::{ClientOp, OpId, OpResult, Outbound};
use crate::node::{Consistency, NodeState};
use crate::ring::HashRing;
use bytes::Bytes;
use ef_netsim::NodeId;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::fmt;

/// Virtual nodes per physical node on every driver's ring.
pub const VNODES: usize = 64;

/// Configuration shared by every cluster driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Chunk-hash replication factor γ (the paper's testbed uses 2).
    pub replication_factor: usize,
    /// Coordinator consistency level (Cassandra's default is ONE).
    pub consistency: Consistency,
    /// Not read: the storage engine keeps no memtable to flush. Kept
    /// for readers that still name it.
    pub memtable_flush_bytes: usize,
    /// Write-ahead-log tail records between snapshot compactions
    /// (`0` disables snapshotting; see
    /// [`WriteAheadLog`](crate::WriteAheadLog)).
    pub wal_snapshot_every: u64,
}

impl Default for ClusterConfig {
    /// The paper's deployment: γ=2, consistency ONE.
    fn default() -> Self {
        ClusterConfig {
            replication_factor: 2,
            consistency: Consistency::One,
            memtable_flush_bytes: 4 << 20,
            wal_snapshot_every: 128,
        }
    }
}

/// Errors surfaced by cluster client operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The consistency level could not be met.
    Unavailable {
        /// Acks received.
        acks: usize,
        /// Acks required.
        required: usize,
    },
    /// The chosen coordinator is not a cluster member.
    NoSuchCoordinator(NodeId),
    /// The coordinator's per-op timeout and retry budget were exhausted;
    /// the outcome at the replicas is unknown.
    TimedOut {
        /// Acks received before the final timeout.
        acks: usize,
        /// Acks required.
        required: usize,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Unavailable { acks, required } => {
                write!(f, "unavailable: {acks} of {required} required acks")
            }
            ClusterError::NoSuchCoordinator(n) => {
                write!(f, "coordinator {n} is not a cluster member")
            }
            ClusterError::TimedOut { acks, required } => {
                write!(f, "timed out: {acks} of {required} required acks")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

#[expect(
    clippy::wildcard_enum_match_arm,
    reason = "each conversion names the outcome its op kind resolves to; any other is passed on or is a driver bug"
)]
impl OpResult {
    /// Splits off the two failure outcomes every client call reports the
    /// same way; any other outcome passes through for the per-shape
    /// conversions below.
    fn ok(self) -> Result<OpResult, ClusterError> {
        match self {
            OpResult::Unavailable { acks, required } => {
                Err(ClusterError::Unavailable { acks, required })
            }
            OpResult::TimedOut { acks, required } => Err(ClusterError::TimedOut { acks, required }),
            resolved => Ok(resolved),
        }
    }

    /// A read's outcome as [`LocalCluster::get`] reports it.
    pub(crate) fn into_value(self) -> Result<Option<Bytes>, ClusterError> {
        match self.ok()? {
            OpResult::Value(v) => Ok(v),
            other => unreachable!("read resolved as {other:?}"),
        }
    }

    /// A put's or delete's outcome as [`LocalCluster::put`] and
    /// [`LocalCluster::delete`] report it.
    pub(crate) fn into_written(self) -> Result<(), ClusterError> {
        match self.ok()? {
            OpResult::Written => Ok(()),
            other => unreachable!("write resolved as {other:?}"),
        }
    }

    /// A check-and-insert's verdict (`true` = unique) as
    /// [`LocalCluster::check_and_insert`] reports it.
    pub(crate) fn into_unique(self) -> Result<bool, ClusterError> {
        match self.ok()? {
            OpResult::Dedup { unique, .. } => Ok(unique),
            other => unreachable!("check-and-insert resolved as {other:?}"),
        }
    }
}

/// Validates a driver's member list and builds its ring of [`VNODES`]
/// tokens a node — the one constructor prologue both drivers share.
///
/// # Panics
///
/// Panics when `members` is empty or contains duplicates.
pub(crate) fn member_ring(members: &[NodeId]) -> HashRing {
    assert!(!members.is_empty(), "cluster needs at least one node");
    let ring = HashRing::with_nodes(members.iter().copied(), VNODES);
    assert_eq!(ring.len(), members.len(), "duplicate member node");
    ring
}

/// An in-process store cluster with instant message delivery.
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct LocalCluster {
    pub(crate) nodes: BTreeMap<NodeId, NodeState>,
    config: ClusterConfig,
    pub(crate) ring: HashRing,
    /// Messages delivered (diagnostics; remote hops only).
    messages_delivered: u64,
}

impl LocalCluster {
    /// Creates a cluster over the given member nodes.
    ///
    /// # Panics
    ///
    /// Panics when `members` is empty or contains duplicates.
    pub fn new(members: Vec<NodeId>, config: ClusterConfig) -> Self {
        let ring = member_ring(&members);
        let nodes = members
            .into_iter()
            .map(|id| (id, NodeState::new(id, ring.clone(), &config)))
            .collect();
        LocalCluster {
            nodes,
            config,
            ring,
            messages_delivered: 0,
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The shared ring view.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Member ids in order.
    pub fn members(&self) -> Vec<NodeId> {
        self.nodes.keys().copied().collect()
    }

    /// Remote (node-to-node) messages delivered so far.
    pub fn messages_delivered(&self) -> u64 {
        self.messages_delivered
    }

    /// Access a member's state (diagnostics/tests).
    pub fn node(&self, id: NodeId) -> Option<&NodeState> {
        self.nodes.get(&id)
    }

    /// Mutable access to a member's state (diagnostics/tests).
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut NodeState> {
        self.nodes.get_mut(&id)
    }

    /// Reads `key` through `coordinator`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoSuchCoordinator`] when the coordinator is not a
    /// member; [`ClusterError::Unavailable`] when too few replicas
    /// answered.
    pub fn get(&mut self, coordinator: NodeId, key: &[u8]) -> Result<Option<Bytes>, ClusterError> {
        self.run_op(coordinator, ClientOp::Get(Bytes::copy_from_slice(key)))?
            .into_value()
    }

    /// Writes `key = value` through `coordinator`.
    ///
    /// # Errors
    ///
    /// See [`LocalCluster::get`].
    pub fn put(
        &mut self,
        coordinator: NodeId,
        key: &[u8],
        value: Bytes,
    ) -> Result<(), ClusterError> {
        self.run_op(
            coordinator,
            ClientOp::Put(Bytes::copy_from_slice(key), value),
        )?
        .into_written()
    }

    /// Deletes `key` through `coordinator`.
    ///
    /// # Errors
    ///
    /// See [`LocalCluster::get`].
    pub fn delete(&mut self, coordinator: NodeId, key: &[u8]) -> Result<(), ClusterError> {
        self.run_op(coordinator, ClientOp::Delete(Bytes::copy_from_slice(key)))?
            .into_written()
    }

    /// The dedup primitive as one coordinated operation: returns `true`
    /// (unique) and records the key when absent; returns `false`
    /// (duplicate) when a replica returned the recorded value.
    ///
    /// Every replica answers under fault-free instant delivery, so the
    /// degraded ("assume unique") verdict never arises here.
    ///
    /// # Errors
    ///
    /// See [`LocalCluster::get`].
    pub fn check_and_insert(
        &mut self,
        coordinator: NodeId,
        key: &[u8],
        value: Bytes,
    ) -> Result<bool, ClusterError> {
        self.run_op(
            coordinator,
            ClientOp::CheckAndInsert(Bytes::copy_from_slice(key), value),
        )?
        .into_unique()
    }

    #[expect(
        clippy::expect_used,
        reason = "the queue is pumped to quiescence, so the coordinator's own op must have completed"
    )]
    fn run_op(&mut self, coordinator: NodeId, op: ClientOp) -> Result<OpResult, ClusterError> {
        let Some(node) = self.nodes.get_mut(&coordinator) else {
            return Err(ClusterError::NoSuchCoordinator(coordinator));
        };
        let (op_id, outbound, completion) = node.begin(op);
        let queue = outbound.into_iter().map(|ob| (coordinator, ob)).collect();
        // Pump even when the op completed at once, so replication finishes
        // after the client-visible completion (Cassandra's async replica
        // writes).
        let pumped = self.pump(queue, op_id);
        let result = completion.map(|c| c.result).or(pumped);
        Ok(result.expect("instant delivery always resolves the op"))
    }

    /// Delivers `queue` to quiescence — receiving a message can emit more
    /// — and returns the first completion of `watch` seen on the way.
    fn pump(&mut self, mut queue: VecDeque<(NodeId, Outbound)>, watch: OpId) -> Option<OpResult> {
        let mut result = None;
        while let Some((from, ob)) = queue.pop_front() {
            let Some(dest) = self.nodes.get_mut(&ob.to) else {
                continue;
            };
            self.messages_delivered += 1;
            let (outs, comps) = dest.on_message(from, ob.msg);
            queue.extend(outs.into_iter().map(|o| (ob.to, o)));
            if result.is_none() {
                result = comps
                    .into_iter()
                    .find(|c| c.op_id == watch)
                    .map(|c| c.result);
            }
        }
        result
    }

    /// Total live keys across all members (counting replicas).
    pub fn total_replica_entries(&self) -> usize {
        self.nodes
            .values()
            .map(|s| s.storage().stats().live_keys)
            .sum()
    }

    /// Number of distinct live keys in the cluster.
    pub fn distinct_keys(&self) -> usize {
        let mut keys: HashSet<Bytes> = HashSet::new();
        for state in self.nodes.values() {
            for (k, _) in state.storage().iter_live() {
                keys.insert(k);
            }
        }
        keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: u32) -> LocalCluster {
        LocalCluster::new((0..n).map(NodeId).collect(), ClusterConfig::default())
    }

    #[test]
    fn put_get_any_coordinator() {
        let mut c = cluster(5);
        c.put(NodeId(0), b"k1", Bytes::from_static(b"v1")).unwrap();
        for coord in 0..5 {
            assert_eq!(
                c.get(NodeId(coord), b"k1").unwrap(),
                Some(Bytes::from_static(b"v1")),
                "coordinator {coord}"
            );
        }
    }

    #[test]
    fn replication_factor_respected() {
        let mut c = cluster(5);
        for i in 0..200u32 {
            c.put(NodeId(i % 5), &i.to_be_bytes(), Bytes::from_static(b"x"))
                .unwrap();
        }
        assert_eq!(c.distinct_keys(), 200);
        // Every key on exactly rf=2 replicas.
        assert_eq!(c.total_replica_entries(), 400);
    }

    #[test]
    fn delete_propagates() {
        let mut c = cluster(3);
        c.put(NodeId(0), b"k", Bytes::from_static(b"v")).unwrap();
        c.delete(NodeId(1), b"k").unwrap();
        assert_eq!(c.get(NodeId(2), b"k").unwrap(), None);
    }

    #[test]
    fn check_and_insert_semantics() {
        let mut c = cluster(3);
        assert!(c
            .check_and_insert(NodeId(0), b"h", Bytes::from_static(b"1"))
            .unwrap());
        assert!(!c
            .check_and_insert(NodeId(1), b"h", Bytes::from_static(b"1"))
            .unwrap());
        assert!(!c
            .check_and_insert(NodeId(2), b"h", Bytes::from_static(b"1"))
            .unwrap());
    }

    #[test]
    fn down_coordinator_rejected() {
        let mut c = cluster(3);
        let err = c.get(NodeId(9), b"k").unwrap_err();
        assert!(matches!(err, ClusterError::NoSuchCoordinator(n) if n == NodeId(9)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn single_node_cluster_works() {
        let mut c = LocalCluster::new(
            vec![NodeId(7)],
            ClusterConfig {
                replication_factor: 2, // capped at member count
                ..ClusterConfig::default()
            },
        );
        c.put(NodeId(7), b"k", Bytes::from_static(b"v")).unwrap();
        assert_eq!(
            c.get(NodeId(7), b"k").unwrap(),
            Some(Bytes::from_static(b"v"))
        );
    }

    #[test]
    fn write_message_count_matches_remote_replicas() {
        // Every write sends one ReplicaWrite + one WriteAck per remote
        // replica, independent of the consistency level (replication is
        // always full; consistency only changes when the client unblocks).
        let mut c = LocalCluster::new(
            (0..5).map(NodeId).collect(),
            ClusterConfig {
                replication_factor: 3,
                consistency: Consistency::All,
                ..ClusterConfig::default()
            },
        );
        let mut expected = 0u64;
        for i in 0..50u32 {
            let key = i.to_be_bytes();
            let remote = c
                .ring()
                .replicas(&key, 3)
                .iter()
                .filter(|r| **r != NodeId(0))
                .count() as u64;
            expected += remote * 2;
            c.put(NodeId(0), &key, Bytes::from_static(b"v")).unwrap();
        }
        assert_eq!(c.messages_delivered(), expected);
    }

    #[test]
    #[should_panic(expected = "duplicate member")]
    fn duplicate_members_rejected() {
        LocalCluster::new(vec![NodeId(0), NodeId(0)], ClusterConfig::default());
    }
}
