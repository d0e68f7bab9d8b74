//! The per-node state machine, laid out by role.
//!
//! Each store node plays three roles, as in Cassandra:
//!
//! * **Replica** (this file) — applies `ReplicaWrite`/`ReplicaRead`
//!   messages against its local [`StorageEngine`] and answers the
//!   coordinator.
//! * **Coordinator** (`coordinator.rs`) — any node can accept a client
//!   operation for any key (the paper's Dedup Agent always talks to *its
//!   own* local store node); it fans the operation out to the key's
//!   replica set and completes it once the consistency level is met.
//! * **Handoff** (`handoff.rs`) — replicas known to be down are skipped
//!   and a *hint* is parked for them; when the peer comes back the hints
//!   are replayed (`HintReplay`), restoring replication.
//!
//! DESIGN.md §17 ("Node anatomy") lists each role's state variables,
//! frames and counters.

mod coordinator;
mod handoff;

use crate::antientropy::NodeSummary;
use crate::cluster::ClusterConfig;
use crate::counters::{IntegrityStats, NodeStats};
use crate::engine::StorageEngine;
use crate::integrity::Summed;
use crate::msg::{Completion, Message, OpId, OpResult, Outbound};
use crate::ring::HashRing;
use crate::storage::{WalError, WalRecord, WriteAheadLog};
use bytes::Bytes;
use coordinator::{Answer, Op, Quorum, Seen};
use ef_netsim::NodeId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// How many replica acknowledgements a coordinator waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Consistency {
    /// One replica suffices (fast, weakest).
    One,
    /// A majority of the replica set (⌊rf/2⌋+1).
    Quorum,
    /// Every replica.
    All,
}

/// One store node's complete state.
#[derive(Debug)]
pub struct NodeState {
    id: NodeId,
    ring: HashRing,
    storage: StorageEngine,
    /// Anti-entropy's last summary of `storage`, kept here so that it
    /// cannot outlive the store it describes: the next one is folded
    /// forward from it by the changes `storage` journalled since
    /// ([`NodeSummary::of`]).
    summary: Option<Arc<NodeSummary>>,
    replication_factor: usize,
    consistency: Consistency,
    next_seq: u64,
    /// Coordinator: operations awaiting replica responses.
    pending: BTreeMap<OpId, Op>,
    /// Coordinator: completed reads still collecting late responses for
    /// read repair.
    repairing: BTreeMap<OpId, (Quorum, Seen)>,
    /// Peers currently believed down.
    down: BTreeSet<NodeId>,
    /// Handoff: writes parked for down peers, per peer in arrival order.
    hints: BTreeMap<NodeId, Vec<(Bytes, Option<Summed>)>>,
    /// Everything this node counts, in one place: whoever tears the node
    /// down takes the lot.
    stats: NodeStats,
    /// The node's durable write-ahead log (survives crash-stops).
    wal: WriteAheadLog,
    /// Proof of possession armed; unarmed, a remote positive sighting is
    /// taken at its word.
    pop_armed: bool,
    /// Peers whose positive sighting returned bytes other than the
    /// payload, awaiting driver-side trust-ledger strikes.
    pop_strikes: Vec<NodeId>,
    /// (op, prover) pairs behind completed proven duplicate verdicts,
    /// drained by the driver to attribute fingerprint-cache entries to
    /// their source peer (for later invalidation on quarantine).
    dedup_sources: Vec<(OpId, NodeId)>,
}

impl NodeState {
    /// Creates a node participating in `ring`.
    ///
    /// # Panics
    ///
    /// Panics when `config.replication_factor` is zero or the node is not
    /// a ring member.
    pub fn new(id: NodeId, ring: HashRing, config: &ClusterConfig) -> Self {
        assert!(
            config.replication_factor > 0,
            "replication factor must be positive"
        );
        assert!(ring.contains(id), "node must be a ring member");
        NodeState {
            id,
            ring,
            storage: StorageEngine::default(),
            summary: None,
            replication_factor: config.replication_factor,
            consistency: config.consistency,
            next_seq: 0,
            pending: BTreeMap::new(),
            repairing: BTreeMap::new(),
            down: BTreeSet::new(),
            hints: BTreeMap::new(),
            stats: NodeStats::default(),
            wal: WriteAheadLog::new(config.wal_snapshot_every),
            pop_armed: false,
            pop_strikes: Vec::new(),
            dedup_sources: Vec::new(),
        }
    }

    /// Rebuilds a node from its durable write-ahead log after a
    /// crash-stop: replays the log into a fresh storage engine and
    /// resumes op sequence numbers at the persisted floor, so op ids
    /// issued after the restart never collide with pre-crash ones.
    /// Volatile state (pending ops, hints, peer suspicions) is lost by
    /// design — hint replay from peers and anti-entropy repair catch the
    /// node up.
    ///
    /// # Errors
    ///
    /// [`WalError`] when the log is torn or corrupt.
    ///
    /// # Panics
    ///
    /// As [`NodeState::new`].
    pub fn recover(
        id: NodeId,
        ring: HashRing,
        config: &ClusterConfig,
        wal: WriteAheadLog,
    ) -> Result<Self, WalError> {
        let records = wal.replay()?;
        let mut node = NodeState::new(id, ring, config);
        node.stats.recovery.wal_records_replayed = records.len() as u64;
        for record in records {
            match record {
                WalRecord::Put(k, v) => {
                    node.storage.put(k, v);
                }
                WalRecord::Delete(k) => node.storage.delete(k),
            }
        }
        node.next_seq = wal.seq_floor();
        node.wal = wal;
        Ok(node)
    }

    /// Crash-stops the node: consumes the volatile state, returning the
    /// durable WAL (the "disk", for a later [`NodeState::recover`]) and
    /// a completion for every in-flight coordinated op, resolved as
    /// [`OpResult::TimedOut`] (the outcome at the replicas is unknown —
    /// a check-and-insert crash-stopped mid-flight yields no dedup
    /// verdict, so the client never skips an upload on its account).
    pub fn crash(self) -> (WriteAheadLog, Vec<Completion>) {
        let timed_out = |(op_id, op): (OpId, Op)| Completion {
            op_id,
            result: OpResult::TimedOut {
                acks: op.quorum.acks,
                required: op.quorum.required,
            },
        };
        (self.wal, self.pending.into_iter().map(timed_out).collect())
    }

    /// Everything this node has counted so far (diagnostics).
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// The node's write-ahead log (diagnostics).
    pub fn wal(&self) -> &WriteAheadLog {
        &self.wal
    }

    /// Arms proof-of-possession: from now on a remote positive dedup
    /// sighting only completes a duplicate verdict when the value the
    /// replica returned is, byte for byte, the payload being
    /// deduplicated. The check reads what the lookup already carried: no
    /// extra frame, no RNG draw.
    pub fn arm_pop(&mut self) {
        self.pop_armed = true;
    }

    /// True when proof-of-possession gating is armed.
    pub fn pop_armed(&self) -> bool {
        self.pop_armed
    }

    /// Drains the peers whose positive sighting failed the possession
    /// check since the last call; the driver charges them trust strikes.
    pub(crate) fn take_pop_strikes(&mut self) -> Vec<NodeId> {
        std::mem::take(&mut self.pop_strikes)
    }

    /// Drains the (op, prover) attribution of proven duplicate
    /// verdicts since the last call; the driver uses it to tie
    /// fingerprint-cache admissions to their source peer.
    pub(crate) fn take_dedup_sources(&mut self) -> Vec<(OpId, NodeId)> {
        std::mem::take(&mut self.dedup_sources)
    }

    /// Mutable access to the node's integrity counters, for the driver
    /// to attribute scrub and read-repair work.
    pub(crate) fn integrity_mut(&mut self) -> &mut IntegrityStats {
        &mut self.stats.integrity
    }

    /// Mutable access to the durable WAL, for the chaos layer's
    /// storage-rot injection.
    pub(crate) fn wal_mut(&mut self) -> &mut WriteAheadLog {
        &mut self.wal
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Immutable access to the local storage engine.
    pub fn storage(&self) -> &StorageEngine {
        &self.storage
    }

    /// Mutable access to the local storage engine (tests, fault injection).
    pub fn storage_mut(&mut self) -> &mut StorageEngine {
        &mut self.storage
    }

    /// Where [`NodeSummary::of`] keeps its last answer for this node,
    /// and the store whose journal folds it forward.
    pub(crate) fn summary_and_storage(
        &mut self,
    ) -> (&mut Option<Arc<NodeSummary>>, &mut StorageEngine) {
        (&mut self.summary, &mut self.storage)
    }

    /// The ring view this node uses for placement.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Handles the permanent departure of `dead`: drops its parked
    /// hints, removes it from this node's ring view, and re-replicates
    /// every locally held key that lost a replica. For each such key
    /// exactly one surviving replica — the lowest surviving id in the
    /// old replica set — streams the copy to each new owner, so the
    /// cluster sends one copy per (key, new owner) pair. Returns the
    /// re-replication messages. Idempotent: a ring view already lacking
    /// `dead` re-replicates nothing.
    pub fn handle_departure(&mut self, dead: NodeId) -> Vec<Outbound> {
        self.drop_hints_for(dead);
        self.down.remove(&dead);
        if !self.ring.contains(dead) {
            return Vec::new();
        }
        let mut new_ring = self.ring.clone();
        new_ring.remove_node(dead);
        let mut out = Vec::new();
        for (key, value, sum) in self.storage.iter_summed() {
            let old_reps = self.ring.replicas(key, self.replication_factor);
            if !old_reps.contains(&dead) {
                continue;
            }
            let sender = old_reps.iter().filter(|r| **r != dead).min().copied();
            if sender != Some(self.id) {
                continue;
            }
            for target in new_ring.replicas(key, self.replication_factor) {
                if old_reps.contains(&target) {
                    continue;
                }
                let value = Summed::with_sum(value.clone(), sum);
                out.push(Outbound::hint_replay(target, key.clone(), Some(value)));
            }
        }
        self.stats.recovery.rereplicated_entries += out.len() as u64;
        self.ring = new_ring;
        out
    }

    /// The next sequence number this coordinator would issue. The
    /// disaster driver snapshots this before burning a node's disk so a
    /// rebuilt node can resume above it — the WAL-persisted floor that
    /// normally guarantees uniqueness does not survive a ring wipe.
    pub(crate) fn seq_watermark(&self) -> u64 {
        self.next_seq
    }

    /// Resumes op sequence numbers at or above `floor`, persisting the
    /// raised floor. Used when a node rebuilds with no surviving WAL:
    /// op ids must stay unique across the wipe or post-heal completions
    /// would alias pre-wipe ones.
    pub(crate) fn resume_seq_from(&mut self, floor: u64) {
        self.next_seq = self.next_seq.max(floor);
        self.wal.set_seq_floor(self.next_seq);
    }

    /// Allocates the next operation id without starting an operation.
    ///
    /// The coordinator's fingerprint-cache fast path resolves an op
    /// locally but must still consume one sequence number, so cached and
    /// uncached runs assign identical op ids to identical submissions.
    pub fn next_op_id(&mut self) -> OpId {
        let op_id = OpId {
            coordinator: self.id,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        // Persist the floor so op ids stay unique across a crash-restart.
        self.wal.set_seq_floor(self.next_seq);
        op_id
    }

    // ---- replica role -----------------------------------------------------

    /// Reads a key through checksum verification. A corrupt entry is
    /// counted, dropped from the volatile engine (the WAL still holds
    /// the clean bytes), and reported as absent — so read repair, hint
    /// replay, and anti-entropy back-fill it from a healthy copy instead
    /// of a rotted value ever being served or compared.
    pub(crate) fn verified_get(&mut self, key: &Bytes) -> Option<Summed> {
        match self.storage.get_verified(key) {
            Ok(v) => v,
            Err(_) => {
                self.stats.integrity.mismatches_found += 1;
                self.storage.delete(key.clone());
                None
            }
        }
    }

    /// Logs a put (or, for `None`, a tombstone) to the WAL, then applies
    /// it to the storage engine. Both keep the one `Bytes` the message
    /// carried — the payload is never copied on its way to disk — and
    /// both take the sum it carries: taken at submission or on arrival,
    /// it is the log record's stamp and the engine's write-time checksum,
    /// and the payload is not read again.
    fn apply(&mut self, key: Bytes, value: Option<Summed>) {
        match value {
            Some(value) => {
                self.wal.append_summed(&key, Some(&value));
                self.storage.put_summed(key, value);
            }
            None => {
                self.wal.append_delete(&key);
                self.storage.delete(key);
            }
        }
    }

    /// Handles a message from `from`. Returns messages to send and any
    /// operation completions this message triggered.
    ///
    /// Any message from a peer we are *not* holding down is proof of
    /// reachability, so hints parked for it (e.g. by a timeout while the
    /// network was partitioned) are replayed opportunistically, ahead of
    /// the handler's own frames.
    pub fn on_message(&mut self, from: NodeId, msg: Message) -> (Vec<Outbound>, Vec<Completion>) {
        let replays = if self.hints.is_empty() || self.down.contains(&from) {
            Vec::new()
        } else {
            self.drain_hints_for(from)
        };
        let reply = |msg| vec![Outbound { to: from, msg }];
        let id = self.id;
        let (mut outbound, completion) = match msg {
            Message::ReplicaWrite { op_id, key, value } => {
                self.apply(key, value);
                (reply(Message::WriteAck { op_id, from: id }), None)
            }
            Message::ReplicaRead { op_id, key } => {
                let (from, value) = (id, self.verified_get(&key));
                (reply(Message::ReadResp { op_id, from, value }), None)
            }
            Message::HintReplay { key, value } => {
                self.apply(key, value);
                (Vec::new(), None)
            }
            Message::RepairRequest { key } => {
                // Mesh repair: a wiped neighbor is rebuilding. Answer
                // only with a verified read — a rotted copy must never
                // enter the healing ring — and stay silent otherwise (the
                // requester falls back to the cloud or anti-entropy).
                let found = self.verified_get(&key);
                let copy = found.map(|v| Outbound::hint_replay(from, key, Some(v)));
                (copy.into_iter().collect(), None)
            }
            Message::WriteAck { op_id, from } => self.on_ack(op_id, from, Answer::Applied),
            Message::ReadResp { op_id, from, value } => {
                self.on_ack(op_id, from, Answer::Read(value))
            }
            // Cloud uploads and their acks terminate at the cluster
            // driver (the cloud catalog is not a ring member); one
            // reaching a node state machine is a misrouted frame and is
            // ignored.
            Message::CloudUpload { .. } | Message::CloudUploadAck { .. } => (Vec::new(), None),
        };
        if !replays.is_empty() {
            outbound = replays.into_iter().chain(outbound).collect();
        }
        (outbound, completion.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::ClientOp;

    fn ring() -> HashRing {
        HashRing::with_nodes([NodeId(0), NodeId(1), NodeId(2)], 32)
    }

    fn node(id: u32, consistency: Consistency) -> NodeState {
        let config = ClusterConfig {
            consistency,
            ..ClusterConfig::default()
        };
        NodeState::new(NodeId(id), ring(), &config)
    }

    /// A key whose replica set satisfies `want`.
    fn key_where(want: impl Fn(&[NodeId]) -> bool) -> Bytes {
        let mut keys = (0..2000u32).map(|i| Bytes::from(i.to_be_bytes().to_vec()));
        let found = keys.find(|k| want(&ring().replicas(k, 2)));
        found.expect("some key has such a replica set")
    }

    #[test]
    fn consistency_required_counts() {
        assert_eq!(Consistency::One.required(3), 1);
        assert_eq!(Consistency::Quorum.required(3), 2);
        assert_eq!(Consistency::Quorum.required(2), 2);
        assert_eq!(Consistency::All.required(3), 3);
    }

    #[test]
    fn local_only_op_completes_immediately_with_one() {
        let mut n = node(0, Consistency::One);
        let key = key_where(|replicas| replicas.contains(&NodeId(0)));
        let (_, outbound, completion) =
            n.begin(ClientOp::Put(key.clone(), Bytes::from_static(b"v")));
        let c = completion.expect("ONE with local replica completes at once");
        assert_eq!(c.result, OpResult::Written);
        // One remote replica still gets the write (async repair path).
        assert_eq!(outbound.len(), 1);
    }

    #[test]
    fn replica_role_applies_logs_and_acks() {
        let mut replica = node(1, Consistency::One);
        let op_id = OpId {
            coordinator: NodeId(0),
            seq: 0,
        };
        let (out, comps) = replica.on_message(
            NodeId(0),
            Message::ReplicaWrite {
                op_id,
                key: Bytes::from_static(b"k"),
                value: Some(Summed::digest(Bytes::from_static(b"v"))),
            },
        );
        assert!(comps.is_empty());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, NodeId(0));
        assert!(matches!(out[0].msg, Message::WriteAck { .. }));
        assert!(replica.storage().contains(b"k"));
        // Every local mutation, replayed hints included, hits the WAL.
        let hint = Message::HintReplay {
            key: Bytes::from_static(b"h"),
            value: Some(Summed::digest(Bytes::from_static(b"w"))),
        };
        replica.on_message(NodeId(0), hint);
        assert_eq!(replica.wal().appended(), 2);
    }

    /// A replica holds a written payload once: the sender's `Bytes`, the
    /// WAL frame's payload and the engine's value are one allocation,
    /// through a compaction too. Rot in the logged payload is the log's
    /// alone, and recovery routes it as the contiguous byte log does.
    #[test]
    fn a_replica_write_holds_its_payload_once() {
        use crate::storage::reference::ByteLog;
        let config = ClusterConfig {
            wal_snapshot_every: 2,
            ..ClusterConfig::default()
        };
        let mut replica = NodeState::new(NodeId(1), ring(), &config);
        let mut reference = ByteLog::new(config.wal_snapshot_every);
        let mut sent = Vec::new();
        for i in 0..3u8 {
            let key = Bytes::from(vec![b'k', i]);
            let payload = Bytes::from(
                (0..4096u32)
                    .map(|j| (j % 251) as u8 ^ i)
                    .collect::<Vec<_>>(),
            );
            let op_id = OpId {
                coordinator: NodeId(0),
                seq: u64::from(i),
            };
            let write = Message::ReplicaWrite {
                op_id,
                key: key.clone(),
                value: Some(Summed::digest(payload.clone())),
            };
            replica.on_message(NodeId(0), write);
            reference.append(&key, Some(&payload));
            sent.push((key, payload));
        }
        // Two frames compacted into the snapshot, one in the tail.
        assert_eq!(replica.wal().snapshots_taken(), 1);
        let logged = replica.wal().payloads();
        for ((key, payload), logged) in sent.iter().zip(&logged) {
            let stored = replica.storage().get(key).unwrap();
            assert_eq!(
                logged.as_ptr(),
                payload.as_ptr(),
                "the WAL copied the payload"
            );
            assert_eq!(
                stored.as_ptr(),
                payload.as_ptr(),
                "the engine copied the payload"
            );
        }
        assert_eq!(replica.wal().image(), reference);

        // Rot lands in the first snapshot frame's payload: past its
        // 12-byte header (tag, key_len, 2-byte key, val_len).
        let clean = sent[0].1.to_vec();
        assert!(replica.wal_mut().flip_bit(12 + 1000, 5));
        assert!(reference.flip_bit(12 + 1000, 5));
        assert_eq!(replica.wal().image(), reference);
        assert_ne!(replica.wal().payloads()[0], sent[0].1, "the flip missed");
        assert_eq!(
            &sent[0].1[..],
            &clean[..],
            "the sender's bytes saw the flip"
        );
        let verified = replica.storage().get_verified(&sent[0].0);
        assert_eq!(
            verified.map(|v| v.map(Summed::into_bytes)),
            Ok(Some(sent[0].1.clone())),
            "the engine saw the flip"
        );

        // The snapshot's block checksum catches it and recovery falls
        // back to the stashed log, whose frames still share the clean
        // payload — exactly as the byte log recovers.
        let mut disk = replica.wal().clone();
        let recovered = disk.recover_replay();
        assert_eq!(recovered, reference.recover_replay());
        assert!(recovered.unwrap().1.snapshot_fallback);
        assert_eq!(disk.image(), reference);
        assert_eq!(disk.payloads()[0].as_ptr(), sent[0].1.as_ptr());
    }

    #[test]
    fn read_roundtrip_via_messages() {
        // A read of a key node 0 does not replicate goes remote; node 1
        // answers it, the other replica never does, and ONE is satisfied.
        let key = key_where(|replicas| replicas == [NodeId(1), NodeId(2)]);
        let mut coord = node(0, Consistency::One);
        let mut replica = node(1, Consistency::One);
        replica
            .storage_mut()
            .put(key.clone(), Bytes::from_static(b"v"));
        let (op_id, outbound, completion) = coord.begin(ClientOp::Get(key));
        assert!(completion.is_none());
        assert_eq!(outbound[0].to, NodeId(1));
        let (resp, _) = replica.on_message(NodeId(0), outbound[0].msg.clone());
        let (_, completions) = coord.on_message(NodeId(1), resp[0].msg.clone());
        let value = OpResult::Value(Some(Bytes::from_static(b"v")));
        assert_eq!(
            completions,
            [Completion {
                op_id,
                result: value
            }]
        );
    }

    #[test]
    fn down_peer_generates_hint_and_replay() {
        // Node 0 is a replica; the remote one is down: the write still
        // succeeds, nothing is sent, and one hint waits for node 1.
        let key =
            key_where(|replicas| replicas.contains(&NodeId(0)) && replicas.contains(&NodeId(1)));
        let mut coord = node(0, Consistency::One);
        coord.mark_down(NodeId(1));
        coord.mark_down(NodeId(2));
        let (_, outbound, completion) = coord.begin(ClientOp::Put(key, Bytes::from_static(b"v")));
        assert!(outbound.is_empty(), "down peers receive nothing");
        assert_eq!(
            completion.expect("resolves at once").result,
            OpResult::Written
        );
        assert_eq!(coord.hint_count(), 1);
        // Recovery: hints replay to the right peer.
        assert!(coord.mark_up(NodeId(2)).is_empty());
        let up = coord.mark_up(NodeId(1));
        assert_eq!(up.len(), 1);
        assert_eq!(up[0].to, NodeId(1));
        assert!(matches!(up[0].msg, Message::HintReplay { .. }));
    }

    #[test]
    #[should_panic(expected = "ring member")]
    fn node_must_be_member() {
        NodeState::new(NodeId(9), ring(), &ClusterConfig::default());
    }

    #[test]
    fn crash_recover_restores_state_and_seq_floor() {
        let mut n = node(0, Consistency::One);
        let mut issued = Vec::new();
        for i in 0..20u32 {
            let key = Bytes::from(i.to_be_bytes().to_vec());
            let (op_id, _, _) = n.begin(ClientOp::Put(key, Bytes::from_static(b"v")));
            issued.push(op_id);
        }
        let live_before: Vec<_> = n.storage().iter_live().collect();
        let (wal, completions) = n.crash();
        // Puts of keys this node replicates resolve at begin; the rest
        // were awaiting a remote ack and must resolve as timeouts, never
        // vanish.
        for c in &completions {
            assert!(matches!(c.result, OpResult::TimedOut { .. }));
        }
        let recovered = NodeState::recover(NodeId(0), ring(), &ClusterConfig::default(), wal)
            .expect("wal replays");
        let live_after: Vec<_> = recovered.storage().iter_live().collect();
        assert_eq!(live_before, live_after, "recovered shard differs");
        assert!(recovered.stats().recovery.wal_records_replayed > 0);
        // The next op id must not collide with any pre-crash id.
        let mut fresh = recovered;
        let (op_id, _, _) = fresh.begin(ClientOp::Get(Bytes::from_static(b"x")));
        assert!(
            !issued.contains(&op_id),
            "post-recovery op id {op_id:?} reuses a pre-crash id"
        );
    }

    #[test]
    fn crash_resolves_inflight_ops_as_timed_out() {
        let mut coord = node(0, Consistency::All);
        let key = key_where(|replicas| !replicas.contains(&NodeId(0)));
        let (op_id, _, completion) = coord.begin(ClientOp::Put(key, Bytes::from_static(b"v")));
        assert!(completion.is_none());
        let (_, completions) = coord.crash();
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].op_id, op_id);
        assert!(matches!(completions[0].result, OpResult::TimedOut { .. }));
    }

    #[test]
    fn drop_hints_for_departed_peer() {
        let mut coord = node(0, Consistency::One);
        coord.mark_down(NodeId(1));
        coord.mark_down(NodeId(2));
        for i in 0..50u32 {
            let key = Bytes::from(i.to_be_bytes().to_vec());
            coord.begin(ClientOp::Put(key, Bytes::from_static(b"v")));
        }
        assert!(coord.hint_count() > 0, "no hints parked");
        let for_1 = coord.hints.get(&NodeId(1)).map_or(0, Vec::len);
        let dropped = coord.drop_hints_for(NodeId(1));
        assert_eq!(dropped, for_1);
        assert_eq!(coord.stats().recovery.hints_dropped, for_1 as u64);
        assert_eq!(coord.drop_hints_for(NodeId(1)), 0, "double drop");
        // Replaying node 1 now yields nothing.
        assert!(coord.mark_up(NodeId(1)).is_empty());
    }

    #[test]
    fn handle_departure_rereplicates_lost_tokens() {
        // Build all three nodes with data fully replicated.
        let mut nodes: BTreeMap<NodeId, NodeState> = (0..3)
            .map(|i| (NodeId(i), node(i, Consistency::One)))
            .collect();
        let full_ring = ring();
        let mut keys = Vec::new();
        for i in 0..120u32 {
            let key = Bytes::from(i.to_be_bytes().to_vec());
            for rep in full_ring.replicas(&key, 2) {
                if let Some(n) = nodes.get_mut(&rep) {
                    n.storage_mut().put(key.clone(), Bytes::from_static(b"v"));
                }
            }
            keys.push(key);
        }
        // Node 2 departs permanently; survivors re-replicate.
        let dead = NodeId(2);
        let mut transfers: Vec<(NodeId, Outbound)> = Vec::new();
        for id in [NodeId(0), NodeId(1)] {
            let n = nodes.get_mut(&id).expect("member");
            let out = n.handle_departure(dead);
            assert_eq!(out.len() as u64, n.stats().recovery.rereplicated_entries);
            assert!(!n.ring().contains(dead));
            transfers.extend(out.into_iter().map(|ob| (id, ob)));
        }
        nodes.remove(&dead);
        for (from, ob) in transfers {
            assert_ne!(ob.to, dead, "re-replication aimed at the dead node");
            let target = nodes.get_mut(&ob.to).expect("live target");
            target.on_message(from, ob.msg);
        }
        // Every key is back on exactly rf live replicas of the new ring.
        let mut new_ring = full_ring.clone();
        new_ring.remove_node(dead);
        for key in &keys {
            for rep in new_ring.replicas(key, 2) {
                assert!(
                    nodes.get(&rep).expect("member").storage().contains(key),
                    "replica {rep} missing a re-replicated key"
                );
            }
        }
    }
}
