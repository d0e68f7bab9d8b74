//! Wire messages exchanged between store nodes.
//!
//! The node state machines are transport-agnostic: they consume
//! [`Message`]s and emit [`Outbound`]s, and the two cluster drivers
//! (instant, simulated) only differ in how they move the outbounds.
//! Message sizes are modelled explicitly so the simulated driver can
//! charge bandwidth.

use crate::integrity::Summed;
use bytes::Bytes;
use ef_netsim::NodeId;

/// Identifies one client operation coordinated by a node.
///
/// Globally unique: the coordinating node's id is embedded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId {
    /// The coordinator that created the operation.
    pub coordinator: NodeId,
    /// Coordinator-local sequence number.
    pub seq: u64,
}

/// A client-visible operation on the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientOp {
    /// Read a key's value.
    Get(Bytes),
    /// Write a key-value pair.
    Put(Bytes, Bytes),
    /// Delete a key.
    Delete(Bytes),
    /// The dedup primitive as one coordinated operation: read the key
    /// (phase 1); when absent, insert the value (phase 2). Completes with
    /// [`OpResult::Dedup`].
    CheckAndInsert(Bytes, Bytes),
}

impl ClientOp {
    /// The key the operation addresses.
    pub fn key(&self) -> &Bytes {
        match self {
            ClientOp::Get(k) | ClientOp::Delete(k) => k,
            ClientOp::Put(k, _) | ClientOp::CheckAndInsert(k, _) => k,
        }
    }

    /// True for operations that mutate state.
    pub fn is_write(&self) -> bool {
        !matches!(self, ClientOp::Get(_))
    }

    /// The payload a put or check-and-insert submits.
    pub(crate) fn payload(&self) -> Option<&Bytes> {
        match self {
            ClientOp::Put(_, value) | ClientOp::CheckAndInsert(_, value) => Some(value),
            ClientOp::Get(_) | ClientOp::Delete(_) => None,
        }
    }
}

/// The outcome of a completed client operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpResult {
    /// A read completed; `None` means the key is absent.
    Value(Option<Bytes>),
    /// A write or delete was acknowledged by the required replicas.
    Written,
    /// The operation could not reach the required number of replicas.
    Unavailable {
        /// Acks received before the coordinator gave up.
        acks: usize,
        /// Acks required by the consistency level.
        required: usize,
    },
    /// The coordinator gave up after its per-op timeout and bounded
    /// retries; the outcome at the replicas is unknown (writes were hinted
    /// for later replay).
    TimedOut {
        /// Acks received before the final timeout.
        acks: usize,
        /// Acks required by the consistency level.
        required: usize,
    },
    /// A [`ClientOp::CheckAndInsert`] resolved.
    ///
    /// `unique == false` (duplicate) is only ever reported when a replica
    /// actually returned the recorded value — never under degradation —
    /// so a duplicate verdict is always sound. `degraded` marks ops whose
    /// read phase could not be completed (unreachable/timed-out quorum):
    /// the coordinator *assumed* unique, risking at worst a redundant
    /// upload, never data loss.
    Dedup {
        /// True when the key was treated as previously unrecorded.
        unique: bool,
        /// True when the verdict was reached without a full read phase.
        degraded: bool,
    },
}

/// A completed operation surfaced to the cluster driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// Which operation finished.
    pub op_id: OpId,
    /// Its outcome.
    pub result: OpResult,
}

/// Node-to-node messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Coordinator → replica: apply a write.
    ReplicaWrite {
        /// The coordinated operation.
        op_id: OpId,
        /// Key to write.
        key: Bytes,
        /// Value, or `None` for a delete (tombstone).
        value: Option<Summed>,
    },
    /// Replica → coordinator: write applied.
    WriteAck {
        /// The coordinated operation.
        op_id: OpId,
        /// The acking replica.
        from: NodeId,
    },
    /// Coordinator → replica: read a key.
    ReplicaRead {
        /// The coordinated operation.
        op_id: OpId,
        /// Key to read.
        key: Bytes,
    },
    /// Replica → coordinator: read result.
    ReadResp {
        /// The coordinated operation.
        op_id: OpId,
        /// The responding replica.
        from: NodeId,
        /// The replica's value for the key.
        value: Option<Summed>,
    },
    /// Hinted handoff replay: a write the recipient missed while down.
    HintReplay {
        /// Key to write.
        key: Bytes,
        /// Value, or `None` for a delete.
        value: Option<Summed>,
    },
    /// Edge → cloud: drain one spooled unique to the cloud catalog.
    /// Resent on the next drain tick until the matching
    /// [`Message::CloudUploadAck`] lands, so drains resume across
    /// outages, drops, and corrupted frames.
    CloudUpload {
        /// The unique chunk's fingerprint key.
        key: Bytes,
        /// The chunk payload.
        value: Summed,
    },
    /// Cloud → edge: the upload for `key` is durably in the catalog;
    /// the sender may retire the spool entry.
    CloudUploadAck {
        /// The acknowledged fingerprint key.
        key: Bytes,
    },
    /// Wiped node → neighbor-ring holder: mesh-repair fetch for one
    /// chunk; the holder answers with a [`Message::HintReplay`] at real
    /// wire cost.
    RepairRequest {
        /// The fingerprint key to rebuild.
        key: Bytes,
    },
}

impl Message {
    /// Approximate wire size in bytes (header + payload), charged to the
    /// sender's uplink by the simulated driver.
    pub fn wire_size(&self) -> u64 {
        // Envelope + ids + framing, including the 8-byte frame checksum
        // ([`Message::frame_checksum`]).
        const HEADER: u64 = 48;
        let payload = match self {
            Message::ReplicaWrite { key, value, .. } | Message::HintReplay { key, value } => {
                key.len() + value.as_ref().map_or(0, |v| v.len())
            }
            Message::WriteAck { .. } => 0,
            Message::ReplicaRead { key, .. } => key.len(),
            Message::ReadResp { value, .. } => value.as_ref().map_or(0, |v| v.len()),
            Message::CloudUpload { key, value } => key.len() + value.len(),
            Message::CloudUploadAck { key } | Message::RepairRequest { key } => key.len(),
        };
        HEADER + payload as u64
    }

    /// The frame checksum stamped on every wire message: a digest of the
    /// message kind and its full content, length-delimited field by
    /// field, a payload entering as its length and its sum
    /// ([`Summed::sum`]). The sender stamps it from the sums the payloads
    /// carry, reading no payload byte; the simulated driver carries it
    /// with the frame, and the receiver re-sums what arrived
    /// (`Message::received`) before comparing. Wire bit rot (which
    /// damages the payload, the checksum, or both) makes the two disagree
    /// and the frame is rejected instead of silently accepted.
    pub fn frame_checksum(&self) -> u64 {
        use crate::integrity::Checksum64;
        fn field(c: &mut Checksum64, bytes: &[u8]) {
            c.update_u64(bytes.len() as u64);
            c.update(bytes);
        }
        fn payload(c: &mut Checksum64, value: &Summed) {
            c.update_u64(value.len() as u64);
            c.update_u64(value.sum());
        }
        fn opt(c: &mut Checksum64, value: &Option<Summed>) {
            match value {
                Some(v) => {
                    c.update_u64(1);
                    payload(c, v);
                }
                None => c.update_u64(0),
            }
        }
        let mut c = Checksum64::new();
        match self {
            Message::ReplicaWrite { op_id, key, value } => {
                c.update_u64(1);
                c.update_u64(op_id.coordinator.0 as u64);
                c.update_u64(op_id.seq);
                field(&mut c, key);
                opt(&mut c, value);
            }
            Message::WriteAck { op_id, from } => {
                c.update_u64(2);
                c.update_u64(op_id.coordinator.0 as u64);
                c.update_u64(op_id.seq);
                c.update_u64(from.0 as u64);
            }
            Message::ReplicaRead { op_id, key } => {
                c.update_u64(3);
                c.update_u64(op_id.coordinator.0 as u64);
                c.update_u64(op_id.seq);
                field(&mut c, key);
            }
            Message::ReadResp { op_id, from, value } => {
                c.update_u64(4);
                c.update_u64(op_id.coordinator.0 as u64);
                c.update_u64(op_id.seq);
                c.update_u64(from.0 as u64);
                opt(&mut c, value);
            }
            Message::HintReplay { key, value } => {
                c.update_u64(5);
                field(&mut c, key);
                opt(&mut c, value);
            }
            Message::CloudUpload { key, value } => {
                c.update_u64(6);
                field(&mut c, key);
                payload(&mut c, value);
            }
            Message::CloudUploadAck { key } => {
                c.update_u64(7);
                field(&mut c, key);
            }
            Message::RepairRequest { key } => {
                c.update_u64(8);
                field(&mut c, key);
            }
        }
        c.finish()
    }

    /// The message as its receiver holds it: every payload's sum taken
    /// afresh from the bytes that arrived — the one digest a frame's
    /// payload costs its receiver, and the sum the node then logs,
    /// stores and stamps with. Frames without a payload pass unchanged.
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "frames without a payload pass unchanged"
    )]
    pub(crate) fn received(self) -> Message {
        let resum = |value: Summed| Summed::digest(value.into_bytes());
        match self {
            Message::ReplicaWrite { op_id, key, value } => Message::ReplicaWrite {
                op_id,
                key,
                value: value.map(resum),
            },
            Message::ReadResp { op_id, from, value } => Message::ReadResp {
                op_id,
                from,
                value: value.map(resum),
            },
            Message::HintReplay { key, value } => Message::HintReplay {
                key,
                value: value.map(resum),
            },
            Message::CloudUpload { key, value } => Message::CloudUpload {
                key,
                value: resum(value),
            },
            frame => frame,
        }
    }
}

/// A message addressed to a destination node, emitted by a state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outbound {
    /// Destination node.
    pub to: NodeId,
    /// The message.
    pub msg: Message,
}

impl Outbound {
    /// A [`Message::HintReplay`] of `key` addressed to `to` — the one
    /// frame every repair path (hint drain, re-replication, anti-entropy,
    /// read-repair, mesh and cloud repair) speaks.
    pub(crate) fn hint_replay(to: NodeId, key: Bytes, value: Option<Summed>) -> Self {
        let msg = Message::HintReplay { key, value };
        Outbound { to, msg }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_op_key_and_kind() {
        let k = Bytes::from_static(b"key");
        assert_eq!(ClientOp::Get(k.clone()).key(), &k);
        assert!(!ClientOp::Get(k.clone()).is_write());
        assert!(ClientOp::Put(k.clone(), Bytes::new()).is_write());
        assert!(ClientOp::CheckAndInsert(k.clone(), Bytes::new()).is_write());
        assert_eq!(ClientOp::CheckAndInsert(k.clone(), Bytes::new()).key(), &k);
        assert!(ClientOp::Delete(k).is_write());
    }

    #[test]
    fn wire_sizes_include_payload() {
        let op_id = OpId {
            coordinator: NodeId(0),
            seq: 1,
        };
        let w = Message::ReplicaWrite {
            op_id,
            key: Bytes::from_static(b"0123456789"),
            value: Some(Summed::digest(Bytes::from_static(b"0123456789"))),
        };
        assert_eq!(w.wire_size(), 48 + 20);
        let ack = Message::WriteAck {
            op_id,
            from: NodeId(1),
        };
        assert_eq!(ack.wire_size(), 48);
        let up = Message::CloudUpload {
            key: Bytes::from_static(b"0123"),
            value: Summed::digest(Bytes::from_static(b"0123456789")),
        };
        assert_eq!(up.wire_size(), 48 + 14);
        let up_ack = Message::CloudUploadAck {
            key: Bytes::from_static(b"0123"),
        };
        let repair = Message::RepairRequest {
            key: Bytes::from_static(b"0123"),
        };
        assert_eq!(up_ack.wire_size(), 48 + 4);
        assert_eq!(repair.wire_size(), 48 + 4);
        // Same key, different kind tag: the checksums must differ or a
        // rotted kind byte could alias an ack into a repair request.
        assert_ne!(up_ack.frame_checksum(), repair.frame_checksum());
    }

    #[test]
    fn frame_checksums_distinguish_kind_and_content() {
        let op_id = OpId {
            coordinator: NodeId(0),
            seq: 1,
        };
        let write = Message::ReplicaWrite {
            op_id,
            key: Bytes::from_static(b"k"),
            value: Some(Summed::digest(Bytes::from_static(b"v"))),
        };
        assert_eq!(write.frame_checksum(), write.frame_checksum());
        // Same fields, different kind.
        let hint = Message::HintReplay {
            key: Bytes::from_static(b"k"),
            value: Some(Summed::digest(Bytes::from_static(b"v"))),
        };
        assert_ne!(write.frame_checksum(), hint.frame_checksum());
        // A one-byte payload change moves the checksum.
        let write2 = Message::ReplicaWrite {
            op_id,
            key: Bytes::from_static(b"k"),
            value: Some(Summed::digest(Bytes::from_static(b"w"))),
        };
        assert_ne!(write.frame_checksum(), write2.frame_checksum());
        // Delete (None) vs empty value digest differently.
        let del = Message::ReplicaWrite {
            op_id,
            key: Bytes::from_static(b"k"),
            value: None,
        };
        let empty = Message::ReplicaWrite {
            op_id,
            key: Bytes::from_static(b"k"),
            value: Some(Summed::digest(Bytes::new())),
        };
        assert_ne!(del.frame_checksum(), empty.frame_checksum());
        // Key/value boundary is length-delimited.
        let ab = Message::HintReplay {
            key: Bytes::from_static(b"ab"),
            value: Some(Summed::digest(Bytes::from_static(b"c"))),
        };
        let a_bc = Message::HintReplay {
            key: Bytes::from_static(b"a"),
            value: Some(Summed::digest(Bytes::from_static(b"bc"))),
        };
        assert_ne!(ab.frame_checksum(), a_bc.frame_checksum());
    }

    /// Every message that carries a payload, as a sender stamps it, with
    /// every single-bit flip a wire could make to it: in its head (key,
    /// op id, sender id) or in its payload, the payload keeping the sum
    /// the sender stamped from — a receiver gets bytes, never a sum.
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "the tests hand it payload frames only"
    )]
    fn single_flips(msg: &Message) -> Vec<Message> {
        fn bits(bytes: &[u8]) -> impl Iterator<Item = Bytes> + '_ {
            (0..bytes.len() * 8).map(move |bit| {
                let mut flipped = bytes.to_vec();
                flipped[bit / 8] ^= 1 << (bit % 8);
                Bytes::from(flipped)
            })
        }
        fn stale(payload: &Summed) -> impl Iterator<Item = Summed> + '_ {
            let sum = payload.sum();
            bits(payload).map(move |bytes| Summed::with_sum(bytes, sum))
        }
        let words = |word: u64, width: u32| (0..width).map(move |bit| word ^ (1 << bit));
        let mut out = Vec::new();
        match msg.clone() {
            Message::ReplicaWrite { op_id, key, value } => {
                let write = |op_id, key, value| Message::ReplicaWrite { op_id, key, value };
                out.extend(bits(&key).map(|k| write(op_id, k, value.clone())));
                for seq in words(op_id.seq, 64) {
                    let op_id = OpId { seq, ..op_id };
                    out.push(write(op_id, key.clone(), value.clone()));
                }
                for id in words(u64::from(op_id.coordinator.0), 32) {
                    let op_id = OpId {
                        coordinator: NodeId(id as u32),
                        ..op_id
                    };
                    out.push(write(op_id, key.clone(), value.clone()));
                }
                for v in value.iter().flat_map(stale) {
                    out.push(write(op_id, key.clone(), Some(v)));
                }
            }
            Message::ReadResp { op_id, from, value } => {
                let resp = |op_id, from, value| Message::ReadResp { op_id, from, value };
                for seq in words(op_id.seq, 64) {
                    out.push(resp(OpId { seq, ..op_id }, from, value.clone()));
                }
                for id in words(u64::from(from.0), 32) {
                    out.push(resp(op_id, NodeId(id as u32), value.clone()));
                }
                for v in value.iter().flat_map(stale) {
                    out.push(resp(op_id, from, Some(v)));
                }
            }
            Message::HintReplay { key, value } => {
                let hint = |key, value| Message::HintReplay { key, value };
                out.extend(bits(&key).map(|k| hint(k, value.clone())));
                for v in value.iter().flat_map(stale) {
                    out.push(hint(key.clone(), Some(v)));
                }
            }
            Message::CloudUpload { key, value } => {
                let upload = |key, value| Message::CloudUpload { key, value };
                out.extend(bits(&key).map(|k| upload(k, value.clone())));
                out.extend(stale(&value).map(|v| upload(key.clone(), v)));
            }
            other => panic!("{other:?} carries no payload"),
        }
        out
    }

    /// The recomputing receiver rejects every single-bit flip of every
    /// payload-bearing frame: in its head, in its payload (its stamp
    /// folds the payload's sum, which the receiver takes afresh of the
    /// bytes that arrived), or in the stamped checksum word itself.
    #[test]
    fn every_single_flip_of_a_payload_frame_is_rejected() {
        use ef_simcore::prop::{any, check, vec};
        let strategy = (
            0u8..4,
            (vec(any::<u8>(), 0..24), vec(any::<u8>(), 0..96)),
            (any::<u64>(), any::<u32>(), any::<bool>()),
        );
        check(
            "every_single_flip_of_a_payload_frame_is_rejected",
            32,
            strategy,
            |(kind, (key, payload), (seq, node, some))| {
                let (key, payload) = (Bytes::from(key), Summed::digest(Bytes::from(payload)));
                let op_id = OpId {
                    coordinator: NodeId(node),
                    seq,
                };
                let value = some.then(|| payload.clone());
                let msg = match kind {
                    0 => Message::ReplicaWrite { op_id, key, value },
                    1 => Message::ReadResp {
                        op_id,
                        from: NodeId(node.rotate_left(7)),
                        value,
                    },
                    2 => Message::HintReplay { key, value },
                    _ => Message::CloudUpload {
                        key,
                        value: payload,
                    },
                };
                let stamp = msg.frame_checksum();
                let intact = msg.clone().received();
                assert_eq!(intact.frame_checksum(), stamp, "an intact frame is refused");
                for bit in 0..64 {
                    let rotted = stamp ^ (1 << bit);
                    assert_ne!(intact.frame_checksum(), rotted, "checksum bit {bit}");
                }
                for flipped in single_flips(&msg) {
                    let arrived = flipped.received();
                    assert_ne!(arrived.frame_checksum(), stamp, "{arrived:?} accepted");
                }
            },
        );
    }

    #[test]
    fn op_ids_order_by_coordinator_then_seq() {
        let a = OpId {
            coordinator: NodeId(0),
            seq: 5,
        };
        let b = OpId {
            coordinator: NodeId(1),
            seq: 0,
        };
        assert!(a < b);
    }
}
