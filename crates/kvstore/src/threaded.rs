//! `ThreadedCluster`: one OS thread per store node, `std::sync::mpsc`
//! channels as the transport.
//!
//! This driver exercises the same state machines under real concurrency —
//! interleaved coordinators, out-of-order delivery between pairs — which
//! the instant and simulated drivers cannot. Integration tests use it to
//! check that dedup correctness does not depend on the serialized delivery
//! the other drivers happen to provide.

use crate::cluster::{member_ring, ClusterConfig, ClusterError};
use crate::msg::{ClientOp, Message, OpId, OpResult, Outbound};
use crate::node::NodeState;
use bytes::Bytes;
use ef_netsim::NodeId;
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;

enum Input {
    /// A client operation; the completion is sent to `reply`.
    Client {
        op: ClientOp,
        reply: Sender<OpResult>,
    },
    /// A peer message.
    Peer { from: NodeId, msg: Message },
    /// Stop the node thread.
    Shutdown,
}

/// A running cluster with one thread per node.
///
/// Operations may be issued from any thread through [`ThreadedCluster::get`]
/// / [`ThreadedCluster::put`] / [`ThreadedCluster::check_and_insert`]; they
/// block until the coordinator reports completion. Dropping the cluster
/// shuts the node threads down.
///
/// # Example
///
/// ```
/// use ef_kvstore::{ClusterConfig, ThreadedCluster};
/// use ef_netsim::NodeId;
/// use bytes::Bytes;
///
/// let cluster = ThreadedCluster::start(
///     (0..3).map(NodeId).collect(),
///     ClusterConfig::default(),
/// );
/// cluster.put(NodeId(0), b"k", Bytes::from_static(b"v")).unwrap();
/// assert_eq!(cluster.get(NodeId(1), b"k").unwrap(), Some(Bytes::from_static(b"v")));
/// cluster.shutdown();
/// ```
#[derive(Debug)]
pub struct ThreadedCluster {
    inputs: BTreeMap<NodeId, Sender<Input>>,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadedCluster {
    /// Spawns the node threads.
    ///
    /// # Panics
    ///
    /// Panics when `members` is empty or contains duplicates.
    #[expect(
        clippy::expect_used,
        reason = "OS thread-spawn failure at construction leaves no cluster to run"
    )]
    pub fn start(members: Vec<NodeId>, config: ClusterConfig) -> Self {
        let ring = member_ring(&members, config.vnodes);

        let (inputs, receivers): (BTreeMap<NodeId, Sender<Input>>, Vec<_>) = members
            .iter()
            .map(|&m| {
                let (tx, rx) = channel();
                ((m, tx), (m, rx))
            })
            .unzip();

        let mut handles = Vec::new();
        for (m, rx) in receivers {
            let peers = inputs.clone();
            let mut state = NodeState::new(m, ring.clone(), &config);
            let handle = std::thread::Builder::new()
                .name(format!("kv-node-{m}"))
                .spawn(move || {
                    // In-flight client ops awaiting completion.
                    let mut waiting: BTreeMap<OpId, Sender<OpResult>> = BTreeMap::new();
                    let forward = |outbound: Vec<Outbound>| {
                        for ob in outbound {
                            if let Some(tx) = peers.get(&ob.to) {
                                let _ = tx.send(Input::Peer {
                                    from: m,
                                    msg: ob.msg,
                                });
                            }
                        }
                    };
                    while let Ok(input) = rx.recv() {
                        match input {
                            Input::Shutdown => break,
                            Input::Client { op, reply } => {
                                let (op_id, outbound, completion) = state.begin(op);
                                if let Some(c) = completion {
                                    let _ = reply.send(c.result);
                                } else {
                                    waiting.insert(op_id, reply);
                                }
                                forward(outbound);
                            }
                            Input::Peer { from, msg } => {
                                let (outbound, completions) = state.on_message(from, msg);
                                forward(outbound);
                                for c in completions {
                                    if let Some(reply) = waiting.remove(&c.op_id) {
                                        let _ = reply.send(c.result);
                                    }
                                }
                            }
                        }
                    }
                })
                .expect("spawn node thread");
            handles.push(handle);
        }
        ThreadedCluster { inputs, handles }
    }

    fn request(&self, coordinator: NodeId, op: ClientOp) -> Result<OpResult, ClusterError> {
        let tx = self
            .inputs
            .get(&coordinator)
            .ok_or(ClusterError::NoSuchCoordinator(coordinator))?;
        let (reply_tx, reply_rx) = channel();
        tx.send(Input::Client {
            op,
            reply: reply_tx,
        })
        .map_err(|_| ClusterError::NoSuchCoordinator(coordinator))?;
        reply_rx
            .recv()
            .map_err(|_| ClusterError::NoSuchCoordinator(coordinator))
    }

    /// Reads `key` through `coordinator`, blocking for the completion.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Unavailable`] when too few replicas answered;
    /// [`ClusterError::NoSuchCoordinator`] for an unknown coordinator.
    pub fn get(&self, coordinator: NodeId, key: &[u8]) -> Result<Option<Bytes>, ClusterError> {
        self.request(coordinator, ClientOp::Get(Bytes::copy_from_slice(key)))?
            .into_value()
    }

    /// Writes `key = value` through `coordinator`, blocking.
    ///
    /// # Errors
    ///
    /// See [`ThreadedCluster::get`].
    pub fn put(&self, coordinator: NodeId, key: &[u8], value: Bytes) -> Result<(), ClusterError> {
        self.request(
            coordinator,
            ClientOp::Put(Bytes::copy_from_slice(key), value),
        )?
        .into_written()
    }

    /// The dedup primitive: `true` when `key` was absent and is now
    /// recorded.
    ///
    /// The read and write phases run under one coordinated op, but with
    /// consistency ONE two agents inserting the same key concurrently
    /// through different coordinators can still both see "unique",
    /// exactly like the paper's Cassandra-based prototype. Deduplication
    /// stays correct — the chunk is merely uploaded twice; a "duplicate"
    /// verdict always means a replica held the recorded value.
    ///
    /// # Errors
    ///
    /// See [`ThreadedCluster::get`].
    pub fn check_and_insert(
        &self,
        coordinator: NodeId,
        key: &[u8],
        value: Bytes,
    ) -> Result<bool, ClusterError> {
        self.request(
            coordinator,
            ClientOp::CheckAndInsert(Bytes::copy_from_slice(key), value),
        )?
        .into_unique()
    }

    /// Member node ids.
    pub fn members(&self) -> Vec<NodeId> {
        let mut m: Vec<NodeId> = self.inputs.keys().copied().collect();
        m.sort();
        m
    }

    /// Stops all node threads and waits for them.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        for tx in self.inputs.values() {
            let _ = tx.send(Input::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ThreadedCluster {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_put_get_across_threads() {
        let cluster =
            ThreadedCluster::start((0..4).map(NodeId).collect(), ClusterConfig::default());
        cluster
            .put(NodeId(0), b"k", Bytes::from_static(b"v"))
            .unwrap();
        for m in cluster.members() {
            assert_eq!(
                cluster.get(m, b"k").unwrap(),
                Some(Bytes::from_static(b"v"))
            );
        }
        cluster.shutdown();
    }

    #[test]
    fn concurrent_clients_from_many_threads() {
        let cluster = Arc::new(ThreadedCluster::start(
            (0..4).map(NodeId).collect(),
            ClusterConfig::default(),
        ));
        let mut joins = Vec::new();
        for t in 0..4u32 {
            let c = Arc::clone(&cluster);
            joins.push(std::thread::spawn(move || {
                for i in 0..100u32 {
                    let key = format!("t{t}-k{i}");
                    c.put(NodeId(t), key.as_bytes(), Bytes::from_static(b"v"))
                        .unwrap();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        for t in 0..4u32 {
            for i in 0..100u32 {
                let key = format!("t{t}-k{i}");
                assert_eq!(
                    cluster.get(NodeId((t + 1) % 4), key.as_bytes()).unwrap(),
                    Some(Bytes::from_static(b"v")),
                    "lost {key}"
                );
            }
        }
    }

    #[test]
    fn check_and_insert_counts_uniques() {
        let cluster =
            ThreadedCluster::start((0..3).map(NodeId).collect(), ClusterConfig::default());
        let mut first_unique = 0;
        let mut second_unique = 0;
        for i in 0..50u32 {
            // Each key inserted twice from different coordinators.
            if cluster
                .check_and_insert(NodeId(0), &i.to_be_bytes(), Bytes::from_static(b"1"))
                .unwrap()
            {
                first_unique += 1;
            }
            if cluster
                .check_and_insert(NodeId(1), &i.to_be_bytes(), Bytes::from_static(b"1"))
                .unwrap()
            {
                second_unique += 1;
            }
        }
        // Soundness: the first insert of a key is always unique. The
        // second may race the first's async replication under ONE (both
        // see "unique" → harmless double upload), but a "duplicate"
        // verdict is never wrong, so second_unique is bounded, not exact.
        assert_eq!(first_unique, 50, "first insert must always be unique");
        assert!(
            second_unique <= 50,
            "false duplicates are impossible, got {second_unique}"
        );
        cluster.shutdown();
    }

    #[test]
    fn unknown_coordinator_errors() {
        let cluster =
            ThreadedCluster::start((0..2).map(NodeId).collect(), ClusterConfig::default());
        assert!(matches!(
            cluster.get(NodeId(9), b"k"),
            Err(ClusterError::NoSuchCoordinator(_))
        ));
    }
}
