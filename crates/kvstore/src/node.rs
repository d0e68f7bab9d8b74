//! The per-node state machine: coordinator and replica roles.
//!
//! Each store node plays two roles, exactly as in Cassandra:
//!
//! * **Replica** — applies `ReplicaWrite`/`ReplicaRead` messages against
//!   its local [`StorageEngine`] and answers the coordinator.
//! * **Coordinator** — any node can accept a client operation for any key
//!   (the paper's Dedup Agent always talks to *its own* local store node);
//!   it fans the operation out to the key's replica set and completes the
//!   operation once the consistency level is satisfied.
//!
//! Failure handling mirrors Cassandra's: replicas known to be down are
//! skipped and a *hint* is parked at the coordinator; when the peer comes
//! back the hints are replayed (`HintReplay`), restoring replication.

use crate::cluster::ClusterConfig;
use crate::counters::{IntegrityStats, NodeStats};
use crate::msg::{ClientOp, Completion, Message, OpId, OpResult, Outbound};
use crate::ring::HashRing;
use crate::storage::{StorageEngine, WalError, WalRecord, WriteAheadLog};
use crate::trust::{derive_challenge, pop_digest, PopChallenge};
use bytes::Bytes;
use ef_netsim::NodeId;
use std::collections::{BTreeMap, BTreeSet};

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

impl Consistency {
    /// Acks required for a replica set of `rf` nodes.
    ///
    /// # Panics
    ///
    /// Panics when `rf` is zero.
    pub fn required(self, rf: usize) -> usize {
        assert!(rf > 0, "replica set cannot be empty");
        match self {
            Consistency::One => 1,
            Consistency::Quorum => rf / 2 + 1,
            Consistency::All => rf,
        }
    }
}

/// What a pending coordinated operation is doing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    /// A plain read.
    Read,
    /// A plain write (put or delete).
    Write,
    /// The read phase of a check-and-insert.
    CaiRead,
    /// The write phase of a check-and-insert.
    CaiWrite,
    /// A check-and-insert whose remote positive sighting is awaiting a
    /// proof of possession: the claiming replica must answer a
    /// [`Message::PopChallenge`] before the duplicate verdict can
    /// complete. Entered only when proofs are armed
    /// ([`NodeState::arm_pop`]).
    PopWait,
}

impl OpKind {
    fn is_write(self) -> bool {
        matches!(self, OpKind::Write | OpKind::CaiWrite)
    }
}

/// A pending coordinated operation.
#[derive(Debug)]
struct Pending {
    required: usize,
    acks: usize,
    kind: OpKind,
    /// First non-None value seen (reads).
    value: Option<Bytes>,
    /// Replicas we are still waiting for.
    outstanding: BTreeSet<NodeId>,
    /// The key (kept for read repair).
    key: Bytes,
    /// Replicas that answered a read with "not found".
    answered_none: Vec<NodeId>,
    /// Write payload (`Some(None)` is a tombstone), kept for retransmits
    /// and hint-on-timeout; `None` for plain reads.
    payload: Option<Option<Bytes>>,
    /// Set once the op lost its read phase to unavailability or timeout
    /// and fell back to "assume unique".
    degraded: bool,
    /// The backup replica a speculative hedge read was sent to, if one
    /// fired. Hedge responses are handled out of band: a `Some` value
    /// soundly completes the read phase early; a "not found" teaches
    /// nothing (the backup may simply not hold the key) and is ignored.
    hedge: Option<NodeId>,
    /// The replica that supplied the first positive sighting
    /// (`pending.value`). `None` for a local read: the coordinator's
    /// own copy is possession itself and is never challenged.
    value_from: Option<NodeId>,
    /// The replica a proof-of-possession challenge is outstanding to
    /// (`OpKind::PopWait` only).
    pop_peer: Option<NodeId>,
}

/// Post-completion read-repair bookkeeping: late responses still arrive
/// and stale replicas get back-filled.
#[derive(Debug)]
struct Repairing {
    key: Bytes,
    /// The value the read resolved to (if any) — immutable entries, so
    /// any `Some` is authoritative.
    value: Option<Bytes>,
    answered_none: Vec<NodeId>,
    outstanding: BTreeSet<NodeId>,
}

/// One store node's complete state.
#[derive(Debug)]
pub struct NodeState {
    id: NodeId,
    ring: HashRing,
    storage: StorageEngine,
    replication_factor: usize,
    consistency: Consistency,
    next_seq: u64,
    pending: BTreeMap<OpId, Pending>,
    /// Completed reads still collecting late responses for read repair.
    repairing: BTreeMap<OpId, Repairing>,
    /// Peers currently believed down.
    down: BTreeSet<NodeId>,
    /// Hints parked for down peers: (peer, key, value).
    hints: Vec<(NodeId, Bytes, Option<Bytes>)>,
    /// Everything this node counts, in one place: whoever tears the node
    /// down takes the lot.
    stats: NodeStats,
    /// The node's durable write-ahead log (survives crash-stops).
    wal: WriteAheadLog,
    /// Proof-of-possession seed; `None` keeps every legacy code path
    /// bit-identical (no challenges, no gating).
    pop_seed: Option<u64>,
    /// Proven-possession cache: (prover, key) pairs whose possession
    /// proof verified, amortizing repeat challenges for hot chunks.
    pop_proven: BTreeSet<(NodeId, Bytes)>,
    /// Peers that answered a challenge with a provably wrong digest or
    /// retracted a claim, awaiting driver-side trust-ledger strikes.
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
            storage: StorageEngine::new(config.memtable_flush_bytes),
            replication_factor: config.replication_factor,
            consistency: config.consistency,
            next_seq: 0,
            pending: BTreeMap::new(),
            repairing: BTreeMap::new(),
            down: BTreeSet::new(),
            hints: Vec::new(),
            stats: NodeStats::default(),
            wal: WriteAheadLog::new(config.wal_snapshot_every),
            pop_seed: None,
            pop_proven: BTreeSet::new(),
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
    pub fn crash(mut self) -> (WriteAheadLog, Vec<Completion>) {
        let mut completions = Vec::new();
        let op_ids: Vec<OpId> = self.pending.keys().copied().collect();
        for op_id in op_ids {
            if let Some(p) = self.pending.remove(&op_id) {
                completions.push(Completion {
                    op_id,
                    result: OpResult::TimedOut {
                        acks: p.acks,
                        required: p.required,
                    },
                });
            }
        }
        (self.wal, completions)
    }

    /// Everything this node has counted so far (diagnostics).
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// The peers a pending op is still waiting on, in id order. Empty
    /// for unknown/completed ops.
    pub fn outstanding_peers(&self, op_id: OpId) -> Vec<NodeId> {
        self.pending
            .get(&op_id)
            .map(|p| p.outstanding.iter().copied().collect())
            .unwrap_or_default()
    }

    /// The node's write-ahead log (diagnostics).
    pub fn wal(&self) -> &WriteAheadLog {
        &self.wal
    }

    /// Arms proof-of-possession: from now on a remote positive dedup
    /// sighting only completes after the claiming replica proves it
    /// holds the chunk. Challenge parameters derive purely from
    /// `seed`, the op id, the key token, and the prover — the service
    /// path draws no RNG, so replays stay bit-identical.
    pub fn arm_pop(&mut self, seed: u64) {
        self.pop_seed = Some(seed);
    }

    /// True when proof-of-possession gating is armed.
    pub fn pop_armed(&self) -> bool {
        self.pop_seed.is_some()
    }

    /// Drains the peers that provably lied on a possession challenge
    /// since the last call; the driver charges them trust strikes.
    pub(crate) fn take_pop_strikes(&mut self) -> Vec<NodeId> {
        std::mem::take(&mut self.pop_strikes)
    }

    /// Drains the (op, prover) attribution of proven duplicate
    /// verdicts since the last call; the driver uses it to tie
    /// fingerprint-cache admissions to their source peer.
    pub(crate) fn take_dedup_sources(&mut self) -> Vec<(OpId, NodeId)> {
        std::mem::take(&mut self.dedup_sources)
    }

    /// Forgets every proven-possession cache entry attributed to
    /// `peer` (it was quarantined for lying: its past proofs no longer
    /// vouch for anything).
    pub(crate) fn forget_proven(&mut self, peer: NodeId) {
        self.pop_proven.retain(|(p, _)| *p != peer);
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

    /// Reads a key through checksum verification. A corrupt entry is
    /// counted, dropped from the volatile engine (the WAL still holds
    /// the clean bytes), and reported as absent — so read repair, hint
    /// replay, and anti-entropy back-fill it from a healthy copy instead
    /// of a rotted value ever being served or compared.
    pub(crate) fn verified_get(&mut self, key: &Bytes) -> Option<Bytes> {
        match self.storage.get_verified(key) {
            Ok(v) => v,
            Err(_) => {
                self.stats.integrity.mismatches_found += 1;
                self.storage.delete(key.clone());
                None
            }
        }
    }

    /// Logs a put to the WAL, then applies it to the storage engine.
    fn durable_put(&mut self, key: Bytes, value: Bytes) -> bool {
        self.wal.append_put(&key, &value);
        self.storage.put(key, value)
    }

    /// Logs a tombstone to the WAL, then applies it.
    fn durable_delete(&mut self, key: Bytes) {
        self.wal.append_delete(&key);
        self.storage.delete(key);
    }

    /// Number of operations still awaiting replica responses.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// True while `op_id` awaits replica responses at this coordinator.
    pub fn is_pending(&self, op_id: OpId) -> bool {
        self.pending.contains_key(&op_id)
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Immutable access to the local storage engine.
    pub fn storage(&self) -> &StorageEngine {
        &self.storage
    }

    /// Mutable access to the local storage engine (tests, rebalancing).
    pub fn storage_mut(&mut self) -> &mut StorageEngine {
        &mut self.storage
    }

    /// The ring view this node uses for placement.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Number of parked hints (diagnostics).
    pub fn hint_count(&self) -> usize {
        self.hints.len()
    }

    /// The distinct peers this node is currently holding hints for
    /// (diagnostics): after a permanent departure none of them may be the
    /// departed node.
    pub fn hinted_peers(&self) -> Vec<NodeId> {
        let mut peers: Vec<NodeId> = self.hints.iter().map(|(to, _, _)| *to).collect();
        peers.sort_unstable();
        peers.dedup();
        peers
    }

    /// Marks a peer down: future operations skip it and hint instead.
    pub fn mark_down(&mut self, peer: NodeId) {
        self.down.insert(peer);
    }

    /// Marks a peer up again and returns the hint-replay messages to send
    /// to it.
    pub fn mark_up(&mut self, peer: NodeId) -> Vec<Outbound> {
        self.down.remove(&peer);
        self.drain_hints_for(peer)
    }

    /// Drains every hint parked for `peer` into `HintReplay` outbounds.
    fn drain_hints_for(&mut self, peer: NodeId) -> Vec<Outbound> {
        let mut out = Vec::new();
        self.hints.retain(|(to, key, value)| {
            if *to == peer {
                out.push(Outbound::hint_replay(peer, key.clone(), value.clone()));
                false
            } else {
                true
            }
        });
        out
    }

    /// Removes and returns the hints parked for `peer` without sending
    /// or counting them dropped: the sim driver moves them into a
    /// durable spool when `peer`'s whole ring is inside a disaster
    /// window, so a later crash of *this* node cannot lose them.
    pub(crate) fn take_hints_for(&mut self, peer: NodeId) -> Vec<(Bytes, Option<Bytes>)> {
        let mut taken = Vec::new();
        self.hints.retain(|(to, key, value)| {
            if *to == peer {
                taken.push((key.clone(), value.clone()));
                false
            } else {
                true
            }
        });
        taken
    }

    /// Drops every hint parked for `peer` (permanent departure:
    /// replaying them would misdirect writes meant for the departed
    /// node's tokens, whose new owners are re-replicated explicitly).
    /// Returns the number dropped.
    pub fn drop_hints_for(&mut self, peer: NodeId) -> usize {
        let before = self.hints.len();
        self.hints.retain(|(to, _, _)| *to != peer);
        let dropped = before - self.hints.len();
        self.stats.recovery.hints_dropped += dropped as u64;
        dropped
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
        for (key, value) in self.storage.iter_live() {
            let old_reps = self.ring.replicas(&key, self.replication_factor);
            if !old_reps.contains(&dead) {
                continue;
            }
            let sender = old_reps.iter().filter(|r| **r != dead).min().copied();
            if sender != Some(self.id) {
                continue;
            }
            for target in new_ring.replicas(&key, self.replication_factor) {
                if old_reps.contains(&target) {
                    continue;
                }
                out.push(Outbound::hint_replay(
                    target,
                    key.clone(),
                    Some(value.clone()),
                ));
            }
        }
        self.stats.recovery.rereplicated_entries += out.len() as u64;
        self.ring = new_ring;
        out
    }

    /// Replaces this node's ring view (membership change). The caller is
    /// responsible for streaming data that changed ownership (see
    /// `LocalCluster::rebalance`).
    pub fn update_ring(&mut self, ring: HashRing) {
        assert!(
            ring.contains(self.id),
            "node removed from its own ring view"
        );
        self.ring = ring;
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

    /// Starts coordinating a client operation. Returns the assigned op id,
    /// messages to send, and — when the operation completes locally (e.g.
    /// rf=1 and this node is the replica) — its completion.
    pub fn begin(&mut self, op: ClientOp) -> (OpId, Vec<Outbound>, Option<Completion>) {
        let op_id = self.next_op_id();

        let replicas = self.ring.replicas(op.key(), self.replication_factor);
        let rf = replicas.len();
        let required = self.consistency.required(rf).min(rf);

        // A check-and-insert starts in its read phase; the write phase
        // reuses the same op id (see `start_cai_write`).
        let (kind, payload) = match &op {
            ClientOp::Get(_) => (OpKind::Read, None),
            ClientOp::Put(_, v) => (OpKind::Write, Some(Some(v.clone()))),
            ClientOp::Delete(_) => (OpKind::Write, Some(None)),
            ClientOp::CheckAndInsert(_, v) => (OpKind::CaiRead, Some(Some(v.clone()))),
        };

        let mut pending = Pending {
            required,
            acks: 0,
            kind,
            value: None,
            outstanding: BTreeSet::new(),
            key: op.key().clone(),
            answered_none: Vec::new(),
            payload,
            degraded: false,
            hedge: None,
            value_from: None,
            pop_peer: None,
        };
        let mut outbound = Vec::new();

        for replica in replicas {
            if replica == self.id {
                // Local replica: apply immediately.
                match &op {
                    ClientOp::Get(key) | ClientOp::CheckAndInsert(key, _) => {
                        let v = self.verified_get(key);
                        if v.is_none() {
                            pending.answered_none.push(self.id);
                        }
                        if pending.value.is_none() {
                            pending.value = v;
                        }
                    }
                    ClientOp::Put(key, value) => {
                        self.durable_put(key.clone(), value.clone());
                    }
                    ClientOp::Delete(key) => {
                        self.durable_delete(key.clone());
                    }
                }
                pending.acks += 1;
            } else if self.down.contains(&replica) {
                // Skip and hint on plain writes; reads (including the
                // check-and-insert read phase) just have one fewer
                // potential responder — the CAI write phase hints itself.
                if kind == OpKind::Write {
                    self.hints.push((
                        replica,
                        pending.key.clone(),
                        // simlint::allow(D003): begin() stores a payload for every write kind
                        pending.payload.clone().expect("writes keep a payload"),
                    ));
                }
            } else {
                pending.outstanding.insert(replica);
                let msg = match kind {
                    // begin() never starts in PopWait; reads cover it.
                    OpKind::Read | OpKind::CaiRead | OpKind::PopWait => Message::ReplicaRead {
                        op_id,
                        key: pending.key.clone(),
                    },
                    OpKind::Write | OpKind::CaiWrite => Message::ReplicaWrite {
                        op_id,
                        key: pending.key.clone(),
                        // simlint::allow(D003): begin() stores a payload for every write kind
                        value: pending.payload.clone().expect("writes keep a payload"),
                    },
                };
                outbound.push(Outbound { to: replica, msg });
            }
        }

        let (repairs, completion) = self.check_done(op_id, pending);
        outbound.extend(repairs);
        (op_id, outbound, completion)
    }

    /// Evaluates a pending op: completes it (transitioning reads into
    /// read-repair mode and check-and-insert reads into their write
    /// phase), stores it, or fails it. Returns repair writes to send
    /// alongside the optional completion.
    fn check_done(&mut self, op_id: OpId, pending: Pending) -> (Vec<Outbound>, Option<Completion>) {
        if pending.acks >= pending.required {
            // Proof-of-possession gate: when armed, a duplicate verdict
            // built on a *remote* sighting must not complete until the
            // claiming replica proves it holds the chunk. A local
            // sighting (value_from == None) is possession itself.
            if pending.kind == OpKind::CaiRead && pending.value.is_some() {
                if let (Some(prover), Some(_)) = (pending.value_from, self.pop_seed) {
                    if prover != self.id {
                        if self.pop_proven.contains(&(prover, pending.key.clone())) {
                            // Already proven for this (peer, chunk):
                            // complete below without a fresh round-trip.
                            if pending.pop_peer.is_none() {
                                self.stats.byzantine.pop_cache_hits += 1;
                            }
                            self.dedup_sources.push((op_id, prover));
                        } else {
                            return self.start_pop(op_id, pending, prover);
                        }
                    }
                }
            }
            if pending.kind == OpKind::PopWait {
                // Nothing but the proof (or its timeout) resolves a
                // gated op: park it and keep waiting.
                self.pending.insert(op_id, pending);
                return (Vec::new(), None);
            }
            return match pending.kind {
                OpKind::Write => (
                    Vec::new(),
                    Some(Completion {
                        op_id,
                        result: OpResult::Written,
                    }),
                ),
                OpKind::CaiWrite => {
                    if pending.degraded {
                        self.stats.coordinator.degraded_ops += 1;
                    }
                    (
                        Vec::new(),
                        Some(Completion {
                            op_id,
                            result: OpResult::Dedup {
                                unique: true,
                                degraded: pending.degraded,
                            },
                        }),
                    )
                }
                OpKind::CaiRead if pending.value.is_none() => {
                    // Key absent everywhere we asked: insert it.
                    self.start_cai_write(op_id, pending)
                }
                OpKind::Read | OpKind::CaiRead => {
                    let completion = Completion {
                        op_id,
                        result: match pending.kind {
                            OpKind::Read => OpResult::Value(pending.value.clone()),
                            // value is Some here: a replica truly holds
                            // the key, so "duplicate" is sound.
                            _ => OpResult::Dedup {
                                unique: false,
                                degraded: false,
                            },
                        },
                    };
                    // Enter read-repair mode: back-fill replicas that
                    // answered "not found" and keep listening for
                    // stragglers.
                    let mut repairing = Repairing {
                        key: pending.key,
                        value: pending.value,
                        answered_none: pending.answered_none,
                        outstanding: pending.outstanding,
                    };
                    let outbound = self.issue_repairs(op_id, &mut repairing);
                    if !repairing.outstanding.is_empty() {
                        self.repairing.insert(op_id, repairing);
                    }
                    (outbound, Some(completion))
                }
                // Parked by the gate above before the match; kept for
                // exhaustiveness.
                OpKind::PopWait => (Vec::new(), None),
            };
        }
        if pending.outstanding.is_empty() {
            // No more responders can arrive.
            return match pending.kind {
                OpKind::CaiRead | OpKind::PopWait => {
                    // Graceful degradation: the read quorum is
                    // unreachable, so *assume unique* and insert. Worst
                    // case is a redundant upload — never a false
                    // duplicate, which would lose data.
                    let mut p = pending;
                    p.degraded = true;
                    self.start_cai_write(op_id, p)
                }
                OpKind::CaiWrite => {
                    self.stats.coordinator.degraded_ops += 1;
                    (
                        Vec::new(),
                        Some(Completion {
                            op_id,
                            result: OpResult::Dedup {
                                unique: true,
                                degraded: true,
                            },
                        }),
                    )
                }
                OpKind::Read | OpKind::Write => (
                    Vec::new(),
                    Some(Completion {
                        op_id,
                        result: OpResult::Unavailable {
                            acks: pending.acks,
                            required: pending.required,
                        },
                    }),
                ),
            };
        }
        self.pending.insert(op_id, pending);
        (Vec::new(), None)
    }

    /// Flips a check-and-insert from its read phase into its write phase
    /// under the same op id: apply locally if this node is a replica, hint
    /// down peers, fan the write out to the rest.
    fn start_cai_write(
        &mut self,
        op_id: OpId,
        mut pending: Pending,
    ) -> (Vec<Outbound>, Option<Completion>) {
        let value = pending
            .payload
            .clone()
            .expect("check-and-insert keeps its payload") // simlint::allow(D003): begin() stores a payload for every write kind
            .expect("payload is a value, not a tombstone"); // simlint::allow(D003): CAI ops always write a concrete value
        pending.kind = OpKind::CaiWrite;
        pending.acks = 0;
        pending.value = None;
        pending.answered_none.clear();
        pending.outstanding.clear();
        // The read phase is over: a straggling hedge response must not
        // complete the write phase (it would flip an already-degraded
        // "assume unique" into a late duplicate verdict mid-write), and
        // any rejected sighting is fully forgotten.
        pending.hedge = None;
        pending.value_from = None;
        pending.pop_peer = None;
        let replicas = self.ring.replicas(&pending.key, self.replication_factor);
        pending.required = self
            .consistency
            .required(replicas.len())
            .min(replicas.len());
        let mut outbound = Vec::new();
        for replica in replicas {
            if replica == self.id {
                self.durable_put(pending.key.clone(), value.clone());
                pending.acks += 1;
            } else if self.down.contains(&replica) {
                self.hints
                    .push((replica, pending.key.clone(), Some(value.clone())));
            } else {
                pending.outstanding.insert(replica);
                outbound.push(Outbound {
                    to: replica,
                    msg: Message::ReplicaWrite {
                        op_id,
                        key: pending.key.clone(),
                        value: Some(value.clone()),
                    },
                });
            }
        }
        let (more, completion) = self.check_done(op_id, pending);
        outbound.extend(more);
        (outbound, completion)
    }

    /// Sends the resolved value to every replica that answered "not
    /// found" (values are immutable, so any `Some` is authoritative).
    fn issue_repairs(&mut self, op_id: OpId, repairing: &mut Repairing) -> Vec<Outbound> {
        let Some(value) = repairing.value.clone() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for peer in repairing.answered_none.drain(..) {
            self.stats.coordinator.repairs_sent += 1;
            if peer == self.id {
                self.durable_put(repairing.key.clone(), value.clone());
            } else if !self.down.contains(&peer) {
                out.push(Outbound {
                    to: peer,
                    msg: Message::ReplicaWrite {
                        op_id,
                        key: repairing.key.clone(),
                        value: Some(value.clone()),
                    },
                });
            }
        }
        out
    }

    /// Gates a remote positive sighting behind a possession proof:
    /// parks the op as [`OpKind::PopWait`] and challenges `prover` to
    /// digest a challenge-chosen slice of the chunk it claims to hold.
    fn start_pop(
        &mut self,
        op_id: OpId,
        mut pending: Pending,
        prover: NodeId,
    ) -> (Vec<Outbound>, Option<Completion>) {
        // simlint::allow(D003): the gate only fires when proofs are armed
        let seed = self.pop_seed.expect("gated ops require an armed pop seed");
        let challenge = derive_challenge(seed, op_id, crate::key_token(&pending.key), prover);
        self.stats.byzantine.challenges_issued += 1;
        pending.kind = OpKind::PopWait;
        pending.pop_peer = Some(prover);
        let out = vec![Outbound {
            to: prover,
            msg: Message::PopChallenge {
                op_id,
                key: pending.key.clone(),
                nonce: challenge.nonce,
                offset: challenge.offset,
                len: challenge.len,
            },
        }];
        self.pending.insert(op_id, pending);
        (out, None)
    }

    /// Resolves a possession proof. A verifying digest — checked
    /// against the digest of the coordinator's *own* payload bytes
    /// (the store is content-addressed: same key ⇒ same bytes) —
    /// admits the duplicate verdict and caches the proof. A wrong
    /// digest or a retracted claim reverts the sighting and falls back
    /// to inserting: at worst a redundant upload, never data loss.
    fn on_pop_response(
        &mut self,
        op_id: OpId,
        prover: NodeId,
        held: bool,
        digest: [u8; 32],
    ) -> (Vec<Outbound>, Option<Completion>) {
        let Some(mut pending) = self.pending.remove(&op_id) else {
            return (Vec::new(), None);
        };
        if pending.kind != OpKind::PopWait || pending.pop_peer != Some(prover) {
            // Stray or duplicate proof; put the op back untouched.
            self.pending.insert(op_id, pending);
            return (Vec::new(), None);
        }
        // simlint::allow(D003): PopWait is only entered with pop armed
        let seed = self.pop_seed.expect("gated ops require an armed pop seed");
        let challenge = derive_challenge(seed, op_id, crate::key_token(&pending.key), prover);
        let own = pending
            .payload
            .clone()
            .flatten()
            // simlint::allow(D003): CAI ops always carry a concrete value
            .expect("check-and-insert keeps its payload");
        if held && digest == pop_digest(challenge, &own) {
            self.stats.byzantine.challenges_passed += 1;
            self.pop_proven.insert((prover, pending.key.clone()));
            if pending.acks >= pending.required {
                // Quorum path: re-enter check_done, whose gate now sees
                // the proven entry and completes the verdict normally
                // (read repair included).
                pending.kind = OpKind::CaiRead;
                return self.check_done(op_id, pending);
            }
            // Hedged-sighting path: the proof confirms a backup's claim
            // before the quorum resolved — complete directly, exactly
            // as an unproven hedge win used to.
            self.dedup_sources.push((op_id, prover));
            return (
                Vec::new(),
                Some(Completion {
                    op_id,
                    result: OpResult::Dedup {
                        unique: false,
                        degraded: false,
                    },
                }),
            );
        }
        // The claim was positive moments ago; a wrong digest is proof
        // of fabrication and a retraction is self-contradiction. Both
        // strike — timeouts and drops never reach this path, so lossy
        // links cannot frame an honest peer.
        self.stats.byzantine.challenges_failed += 1;
        if held {
            self.stats.byzantine.false_claims_rejected += 1;
        }
        self.pop_strikes.push(prover);
        pending.kind = OpKind::CaiRead;
        pending.value = None;
        pending.value_from = None;
        pending.pop_peer = None;
        if pending.acks >= pending.required || pending.outstanding.is_empty() {
            // The rejected sighting was the verdict's only basis:
            // treat the key as absent and insert it (sound — at worst
            // redundant).
            return self.check_done(op_id, pending);
        }
        // A hedged sighting failed its proof mid-quorum: keep waiting
        // for the real responders.
        self.pending.insert(op_id, pending);
        (Vec::new(), None)
    }

    /// Re-sends the pending op's outstanding requests (retry after an
    /// RTO). Replicas apply retransmitted writes idempotently and
    /// duplicate acks are already ignored, so spurious retries are safe.
    /// Returns an empty vec for unknown/completed ops.
    pub fn retry_outstanding(&mut self, op_id: OpId) -> Vec<Outbound> {
        let Some(p) = self.pending.get(&op_id) else {
            return Vec::new();
        };
        if p.kind == OpKind::PopWait {
            // Re-challenge the prover (the challenge re-derives
            // identically, so a duplicate answer verifies the same).
            let Some(prover) = p.pop_peer else {
                return Vec::new();
            };
            if self.down.contains(&prover) || self.pop_seed.is_none() {
                return Vec::new();
            }
            // simlint::allow(D003): checked is_none() just above
            let seed = self.pop_seed.expect("checked above");
            let challenge = derive_challenge(seed, op_id, crate::key_token(&p.key), prover);
            self.stats.coordinator.retries += 1;
            return vec![Outbound {
                to: prover,
                msg: Message::PopChallenge {
                    op_id,
                    key: p.key.clone(),
                    nonce: challenge.nonce,
                    offset: challenge.offset,
                    len: challenge.len,
                },
            }];
        }
        let mut out = Vec::new();
        for &peer in &p.outstanding {
            if self.down.contains(&peer) {
                // A detected failure resolves the op via
                // `on_peer_failure`; don't shout at the dead.
                continue;
            }
            let msg = match p.kind {
                OpKind::Read | OpKind::CaiRead | OpKind::PopWait => Message::ReplicaRead {
                    op_id,
                    key: p.key.clone(),
                },
                OpKind::Write | OpKind::CaiWrite => Message::ReplicaWrite {
                    op_id,
                    key: p.key.clone(),
                    // simlint::allow(D003): begin() stores a payload for every write kind
                    value: p.payload.clone().expect("writes keep a payload"),
                },
            };
            out.push(Outbound { to: peer, msg });
        }
        if !out.is_empty() {
            self.stats.coordinator.retries += 1;
        }
        out
    }

    /// Fires a speculative hedged read for a pending read-phase op: pick
    /// the next ring successor *beyond* the primary replica set (the node
    /// anti-entropy and re-replication would promote first) and send it
    /// the same `ReplicaRead`, without adding it to the outstanding set —
    /// its answer never counts toward the consistency quorum. A `Some`
    /// response proves the key is durably stored and soundly completes
    /// the op as a duplicate/value; a "not found" from the backup (which
    /// may simply not hold the key) is discarded, so hedging can never
    /// manufacture a false unique, let alone a false duplicate.
    ///
    /// At most one hedge fires per op. Peers in `avoid` (down, slow/gray,
    /// or already-contacted nodes) are skipped. Returns the hedge request
    /// to send, or `None` when the op is unknown, not in a read phase,
    /// already hedged, or no eligible backup exists.
    pub fn hedge(&mut self, op_id: OpId, avoid: &BTreeSet<NodeId>) -> Option<Outbound> {
        let p = self.pending.get_mut(&op_id)?;
        if !matches!(p.kind, OpKind::Read | OpKind::CaiRead) || p.hedge.is_some() {
            return None;
        }
        let primaries: BTreeSet<NodeId> = self
            .ring
            .replicas(&p.key, self.replication_factor)
            .into_iter()
            .collect();
        let target = self
            .ring
            .replicas(&p.key, self.replication_factor + 2)
            .into_iter()
            .find(|n| {
                !primaries.contains(n)
                    && *n != self.id
                    && !self.down.contains(n)
                    && !avoid.contains(n)
                    && !p.outstanding.contains(n)
            })?;
        p.hedge = Some(target);
        Some(Outbound {
            to: target,
            msg: Message::ReplicaRead {
                op_id,
                key: p.key.clone(),
            },
        })
    }

    /// Gives up on a pending op after its retry budget is exhausted.
    ///
    /// Writes (including the check-and-insert write phase) park a hint
    /// for every silent replica — hinted handoff on *timeout*, not only
    /// on detected failure — so replication heals once the peer proves
    /// reachable again. The op then resolves:
    ///
    /// * plain read/write → [`OpResult::TimedOut`],
    /// * check-and-insert read phase → degrade to "assume unique" and
    ///   start the write phase (no completion yet; the caller should
    ///   re-arm its timer while [`NodeState::is_pending`]),
    /// * check-and-insert write phase → [`OpResult::Dedup`] with
    ///   `unique: true, degraded: true`.
    ///
    /// Unknown/completed ops return `(empty, None)`.
    pub fn timeout_op(&mut self, op_id: OpId) -> (Vec<Outbound>, Option<Completion>) {
        let Some(mut p) = self.pending.remove(&op_id) else {
            return (Vec::new(), None);
        };
        self.stats.coordinator.timeouts += 1;
        if p.kind.is_write() {
            // simlint::allow(D003): begin() stores a payload for every write kind
            let payload = p.payload.clone().expect("writes keep a payload");
            for &peer in &p.outstanding {
                self.hints.push((peer, p.key.clone(), payload.clone()));
            }
        }
        p.outstanding.clear();
        match p.kind {
            OpKind::CaiRead | OpKind::PopWait => {
                // An unanswered possession challenge degrades exactly
                // like an unreachable read quorum: assume unique and
                // insert. Silence is never a strike — only a provably
                // wrong proof is.
                p.degraded = true;
                self.start_cai_write(op_id, p)
            }
            OpKind::CaiWrite => {
                self.stats.coordinator.degraded_ops += 1;
                (
                    Vec::new(),
                    Some(Completion {
                        op_id,
                        result: OpResult::Dedup {
                            unique: true,
                            degraded: true,
                        },
                    }),
                )
            }
            OpKind::Read | OpKind::Write => (
                Vec::new(),
                Some(Completion {
                    op_id,
                    result: OpResult::TimedOut {
                        acks: p.acks,
                        required: p.required,
                    },
                }),
            ),
        }
    }

    /// Handles a message from `from`. Returns messages to send and any
    /// operation completions this message triggered.
    ///
    /// Any message from a peer we are *not* holding down is proof of
    /// reachability, so hints parked for it (e.g. by a timeout while the
    /// network was partitioned) are replayed opportunistically.
    pub fn on_message(&mut self, from: NodeId, msg: Message) -> (Vec<Outbound>, Vec<Completion>) {
        let mut replays = if self.down.contains(&from) {
            Vec::new()
        } else {
            self.drain_hints_for(from)
        };
        let (outbound, completions) = self.handle_message(from, msg);
        replays.extend(outbound);
        (replays, completions)
    }

    fn handle_message(&mut self, from: NodeId, msg: Message) -> (Vec<Outbound>, Vec<Completion>) {
        match msg {
            Message::ReplicaWrite { op_id, key, value } => {
                match value {
                    Some(v) => {
                        self.durable_put(key, v);
                    }
                    None => self.durable_delete(key),
                }
                (
                    vec![Outbound {
                        to: from,
                        msg: Message::WriteAck {
                            op_id,
                            from: self.id,
                        },
                    }],
                    Vec::new(),
                )
            }
            Message::ReplicaRead { op_id, key } => {
                let value = self.verified_get(&key);
                (
                    vec![Outbound {
                        to: from,
                        msg: Message::ReadResp {
                            op_id,
                            from: self.id,
                            value,
                        },
                    }],
                    Vec::new(),
                )
            }
            Message::WriteAck { op_id, from } => {
                let (out, completion) = self.record_ack(op_id, from, None);
                (out, completion.into_iter().collect())
            }
            Message::ReadResp { op_id, from, value } => {
                let (out, completion) = self.record_ack(op_id, from, Some(value));
                (out, completion.into_iter().collect())
            }
            Message::HintReplay { key, value } => {
                match value {
                    Some(v) => {
                        self.durable_put(key, v);
                    }
                    None => self.durable_delete(key),
                }
                (Vec::new(), Vec::new())
            }
            Message::RepairRequest { key } => {
                // Mesh repair: a wiped neighbor is rebuilding and asked
                // for this chunk. Answer only with a verified read — a
                // rotted local copy must never be propagated into the
                // healing ring — and stay silent otherwise (the
                // requester falls back to the cloud catalog or
                // anti-entropy).
                let out = match self.verified_get(&key) {
                    Some(v) => vec![Outbound::hint_replay(from, key, Some(v))],
                    None => Vec::new(),
                };
                (out, Vec::new())
            }
            Message::PopChallenge {
                op_id,
                key,
                nonce,
                offset,
                len,
            } => {
                // Prover role: digest the challenged slice of the
                // *stored* bytes. A missing or rot-quarantined copy is
                // answered honestly with a retraction.
                let challenge = PopChallenge { nonce, offset, len };
                let (held, digest) = match self.verified_get(&key) {
                    Some(v) => (true, pop_digest(challenge, &v)),
                    None => (false, [0u8; 32]),
                };
                (
                    vec![Outbound {
                        to: from,
                        msg: Message::PopResponse {
                            op_id,
                            from: self.id,
                            held,
                            digest,
                        },
                    }],
                    Vec::new(),
                )
            }
            Message::PopResponse {
                op_id,
                from,
                held,
                digest,
            } => {
                let (out, completion) = self.on_pop_response(op_id, from, held, digest);
                (out, completion.into_iter().collect())
            }
            // Cloud uploads and their acks terminate at the cluster
            // driver (the cloud catalog is not a ring member); one
            // reaching a node state machine is a misrouted frame and is
            // ignored.
            Message::CloudUpload { .. } | Message::CloudUploadAck { .. } => {
                (Vec::new(), Vec::new())
            }
        }
    }

    fn record_ack(
        &mut self,
        op_id: OpId,
        from: NodeId,
        read_value: Option<Option<Bytes>>,
    ) -> (Vec<Outbound>, Option<Completion>) {
        if let Some(mut pending) = self.pending.remove(&op_id) {
            if pending.hedge == Some(from) && !pending.outstanding.contains(&from) {
                // Response from the hedge backup, which never joins the
                // quorum. Only a positive sighting completes the op: the
                // backup proving it holds the key is sound evidence of a
                // duplicate, while "not found" teaches nothing (the
                // backup may simply never have been written).
                if matches!(pending.kind, OpKind::Read | OpKind::CaiRead) {
                    if let Some(Some(value)) = read_value {
                        self.stats.gray.hedges_won += 1;
                        if pending.kind == OpKind::CaiRead
                            && self.pop_seed.is_some()
                            && from != self.id
                        {
                            // A hedged positive sighting must not
                            // short-circuit proof of possession: park
                            // the sighting and challenge the backup
                            // (or admit it from the proven cache).
                            pending.value = Some(value.clone());
                            pending.value_from = Some(from);
                            if self.pop_proven.contains(&(from, pending.key.clone())) {
                                self.stats.byzantine.pop_cache_hits += 1;
                                self.dedup_sources.push((op_id, from));
                            } else {
                                return self.start_pop(op_id, pending, from);
                            }
                        }
                        let result = match pending.kind {
                            OpKind::Read => OpResult::Value(Some(value)),
                            _ => OpResult::Dedup {
                                unique: false,
                                degraded: false,
                            },
                        };
                        return (Vec::new(), Some(Completion { op_id, result }));
                    }
                }
                self.pending.insert(op_id, pending);
                return (Vec::new(), None);
            }
            if !pending.outstanding.remove(&from) {
                // Duplicate or stray ack; put the op back untouched.
                self.pending.insert(op_id, pending);
                return (Vec::new(), None);
            }
            pending.acks += 1;
            if let Some(v) = read_value {
                if v.is_none() {
                    pending.answered_none.push(from);
                }
                if pending.value.is_none() {
                    if v.is_some() {
                        pending.value_from = Some(from);
                    }
                    pending.value = v;
                }
            }
            return self.check_done(op_id, pending);
        }
        // A straggler response to an already-completed read: feed the
        // read-repair state.
        if let Some(mut repairing) = self.repairing.remove(&op_id) {
            if repairing.outstanding.remove(&from) {
                if let Some(v) = read_value {
                    match (&repairing.value, v) {
                        (_, Some(value)) if repairing.value.is_none() => {
                            // A later replica knew the value: repair all
                            // earlier "not found" responders.
                            repairing.value = Some(value);
                        }
                        (Some(_), None) => repairing.answered_none.push(from),
                        _ => {}
                    }
                }
            }
            let out = self.issue_repairs(op_id, &mut repairing);
            if !repairing.outstanding.is_empty() {
                self.repairing.insert(op_id, repairing);
            }
            return (out, None);
        }
        (Vec::new(), None)
    }

    /// Fails a peer mid-operation: drops it from every pending op's
    /// outstanding set (as a timeout would) and returns the completions
    /// (possibly `Unavailable`) that this resolves.
    pub fn on_peer_failure(&mut self, peer: NodeId) -> Vec<Completion> {
        self.mark_down(peer);
        let op_ids: Vec<OpId> = self.pending.keys().copied().collect();
        let mut completions = Vec::new();
        for op_id in op_ids {
            if let Some(mut pending) = self.pending.remove(&op_id) {
                if pending.kind == OpKind::PopWait && pending.pop_peer == Some(peer) {
                    // The prover died mid-challenge: the sighting is
                    // unproven, so forget it and fall back to insert
                    // (no strike — death is not a lie).
                    pending.kind = OpKind::CaiRead;
                    pending.value = None;
                    pending.value_from = None;
                    pending.pop_peer = None;
                }
                pending.outstanding.remove(&peer);
                // Repairs to a just-failed peer would be dropped anyway.
                let (_, completion) = self.check_done(op_id, pending);
                completions.extend(completion);
            }
        }
        // Stop waiting for straggler reads from the failed peer.
        self.repairing.retain(|_, r| {
            r.outstanding.remove(&peer);
            !r.outstanding.is_empty()
        });
        completions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> HashRing {
        HashRing::with_nodes([NodeId(0), NodeId(1), NodeId(2)], 32)
    }

    fn node(id: u32, consistency: Consistency) -> NodeState {
        let config = ClusterConfig {
            consistency,
            memtable_flush_bytes: 1 << 20,
            ..ClusterConfig::default()
        };
        NodeState::new(NodeId(id), ring(), &config)
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
        // Find a key whose primary replica set includes node 0.
        let mut key = None;
        for i in 0..1000u32 {
            let k = Bytes::from(i.to_be_bytes().to_vec());
            if n.ring().replicas(&k, 2).contains(&NodeId(0)) {
                key = Some(k);
                break;
            }
        }
        let key = key.expect("some key maps to node 0");
        let (_, outbound, completion) =
            n.begin(ClientOp::Put(key.clone(), Bytes::from_static(b"v")));
        let c = completion.expect("ONE with local replica completes at once");
        assert_eq!(c.result, OpResult::Written);
        // One remote replica still gets the write (async repair path).
        assert_eq!(outbound.len(), 1);
    }

    #[test]
    fn write_then_ack_completes_quorum() {
        let mut coord = node(0, Consistency::All);
        let key = Bytes::from_static(b"some-key");
        let (op_id, outbound, completion) =
            coord.begin(ClientOp::Put(key.clone(), Bytes::from_static(b"v")));
        // With rf=2 and ALL, we need both replicas.
        let replicas = coord.ring().replicas(&key, 2);
        if replicas.contains(&NodeId(0)) {
            // One local ack already; one outbound remains.
            assert!(completion.is_none());
            assert_eq!(outbound.len(), 1);
        } else {
            assert!(completion.is_none());
            assert_eq!(outbound.len(), 2);
        }
        // Simulate remote replicas acking.
        let mut done = None;
        for ob in outbound {
            let (_, completions) =
                coord.on_message(ob.to, Message::WriteAck { op_id, from: ob.to });
            if let Some(c) = completions.into_iter().next() {
                done = Some(c);
            }
        }
        assert_eq!(done.expect("completes").result, OpResult::Written);
    }

    #[test]
    fn replica_role_applies_and_acks() {
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
                value: Some(Bytes::from_static(b"v")),
            },
        );
        assert!(comps.is_empty());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, NodeId(0));
        assert!(matches!(out[0].msg, Message::WriteAck { .. }));
        assert!(replica.storage_mut().contains(b"k"));
    }

    #[test]
    fn read_roundtrip_via_messages() {
        let mut coord = node(0, Consistency::One);
        let mut replica = node(1, Consistency::One);
        replica
            .storage_mut()
            .put(Bytes::from_static(b"k"), Bytes::from_static(b"v"));

        // Force a read that goes remote: pick a key owned only by node 1.
        let key = Bytes::from_static(b"k");
        let (op_id, outbound, completion) = coord.begin(ClientOp::Get(key));
        if let Some(c) = completion {
            // Key had a local replica on node 0; the local read resolved it.
            assert!(matches!(c.result, OpResult::Value(_)));
            return;
        }
        // Deliver the read to the replica and the response back.
        let mut final_completion = None;
        for ob in outbound {
            if ob.to == NodeId(1) {
                let (resp, _) = replica.on_message(NodeId(0), ob.msg);
                for r in resp {
                    let (_, comps) = coord.on_message(NodeId(1), r.msg);
                    final_completion = comps.into_iter().next();
                }
            } else {
                // Other replica never answers; ONE is satisfied by node 1.
            }
        }
        let c = final_completion.expect("read completes");
        assert_eq!(c.op_id, op_id);
        assert_eq!(c.result, OpResult::Value(Some(Bytes::from_static(b"v"))));
    }

    #[test]
    fn down_peer_generates_hint_and_replay() {
        let mut coord = node(0, Consistency::One);
        coord.mark_down(NodeId(1));
        coord.mark_down(NodeId(2));
        // All remote replicas down: write still succeeds if node 0 is a
        // replica, otherwise Unavailable.
        let key = Bytes::from_static(b"hinted-key");
        let replicas = coord.ring().replicas(&key, 2);
        let (_, outbound, completion) =
            coord.begin(ClientOp::Put(key.clone(), Bytes::from_static(b"v")));
        assert!(outbound.is_empty(), "down peers receive nothing");
        let c = completion.expect("resolves immediately");
        let remote_replicas = replicas.iter().filter(|r| **r != NodeId(0)).count();
        assert_eq!(coord.hint_count(), remote_replicas);
        if replicas.contains(&NodeId(0)) {
            assert_eq!(c.result, OpResult::Written);
        } else {
            assert!(matches!(c.result, OpResult::Unavailable { .. }));
        }
        // Recovery: hints replay to the right peer.
        let up = coord.mark_up(NodeId(1));
        let expected = replicas.contains(&NodeId(1)) as usize;
        assert_eq!(up.len(), expected);
        for ob in up {
            assert_eq!(ob.to, NodeId(1));
            assert!(matches!(ob.msg, Message::HintReplay { .. }));
        }
    }

    #[test]
    #[should_panic(expected = "ring member")]
    fn node_must_be_member() {
        NodeState::new(NodeId(9), ring(), &ClusterConfig::default());
    }

    #[test]
    fn wal_records_every_local_mutation() {
        let mut n = node(1, Consistency::One);
        // Replica-role writes hit the WAL.
        let op_id = OpId {
            coordinator: NodeId(0),
            seq: 0,
        };
        n.on_message(
            NodeId(0),
            Message::ReplicaWrite {
                op_id,
                key: Bytes::from_static(b"k"),
                value: Some(Bytes::from_static(b"v")),
            },
        );
        n.on_message(
            NodeId(0),
            Message::HintReplay {
                key: Bytes::from_static(b"h"),
                value: Some(Bytes::from_static(b"w")),
            },
        );
        assert_eq!(n.wal().appended(), 2);
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
        let mut key = None;
        for i in 0..2000u32 {
            let k = Bytes::from(i.to_be_bytes().to_vec());
            if !coord.ring().replicas(&k, 2).contains(&NodeId(0)) {
                key = Some(k);
                break;
            }
        }
        let (op_id, _, completion) = coord.begin(ClientOp::Put(
            key.expect("remote key"),
            Bytes::from_static(b"v"),
        ));
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
        let for_1 = coord.hint_count()
            - coord
                .hints
                .iter()
                .filter(|(to, _, _)| *to != NodeId(1))
                .count();
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
                    nodes
                        .get_mut(&rep)
                        .expect("member")
                        .storage_mut()
                        .contains(key),
                    "replica {rep} missing a re-replicated key"
                );
            }
        }
    }
}
