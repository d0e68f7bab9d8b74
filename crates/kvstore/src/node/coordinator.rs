//! The coordinator role: one typed phase machine per client operation.
//!
//! An [`Op`] is the quorum bookkeeping every phase shares plus a
//! [`Phase`] that owns what only that phase uses, so a read with a
//! payload, a write with a sighting or a proof wait without a prover
//! cannot be built. Every event an op can meet is an [`Event`], and
//! every transition goes through [`NodeState::step`]; DESIGN.md §17
//! ("Node anatomy") tabulates phase × event.

use super::{Consistency, NodeState};
use crate::integrity::Summed;
use crate::msg::{ClientOp, Completion, Message, OpId, OpResult, Outbound};
use crate::trust::{derive_challenge, pop_digest, PopChallenge};
use bytes::Bytes;
use ef_netsim::NodeId;
use std::collections::BTreeSet;

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

/// What a transition hands back: frames to send, and the op's
/// completion if this transition resolved it.
pub(super) type Step = (Vec<Outbound>, Option<Completion>);

/// A coordinated operation in flight: the quorum bookkeeping every
/// phase shares, and the phase.
#[derive(Debug)]
pub(super) struct Op {
    pub(super) quorum: Quorum,
    phase: Phase,
}

#[derive(Debug)]
pub(super) struct Quorum {
    pub(super) key: Bytes,
    pub(super) required: usize,
    pub(super) acks: usize,
    /// Replicas we are still waiting for.
    pub(super) outstanding: BTreeSet<NodeId>,
}

impl Quorum {
    fn met(&self) -> bool {
        self.acks >= self.required
    }
}

/// What a pending op is doing right now.
#[derive(Debug)]
enum Phase {
    /// A plain read.
    Read(Seen),
    /// A plain write of this payload (`None` is a tombstone), kept for
    /// retransmits and hint-on-timeout.
    Write(Option<Summed>),
    /// The read phase of a check-and-insert.
    CaiRead { payload: Summed, seen: Seen },
    /// A check-and-insert whose remote positive sighting awaits a proof
    /// of possession: `prover` must answer `challenge` before the
    /// duplicate verdict can complete. Entered only when proofs are
    /// armed ([`NodeState::arm_pop`]).
    PopWait {
        payload: Summed,
        seen: Seen,
        prover: NodeId,
        challenge: PopChallenge,
    },
    /// The write phase of a check-and-insert, under the same op id.
    /// `degraded`: the read phase was lost to unavailability or timeout
    /// and the op fell back to "assume unique".
    CaiWrite { payload: Summed, degraded: bool },
}

/// What a read phase has learned so far.
#[derive(Debug, Default)]
pub(super) struct Seen {
    /// The first positive sighting and the replica that supplied it. A
    /// sighting by this node itself is possession, never challenged.
    sighting: Option<(Summed, NodeId)>,
    /// Replicas that answered "not found" (read-repair targets).
    answered_none: Vec<NodeId>,
    /// The backup a speculative hedge read went to, if one fired. It
    /// never joins the quorum.
    hedge: Option<NodeId>,
}

/// A replica's answer to a request, local or over the wire.
#[derive(Debug)]
pub(super) enum Answer {
    /// A write was applied (`WriteAck`).
    Applied,
    /// What a read found (`ReadResp`).
    Read(Option<Summed>),
}

/// Everything that can happen to a pending op.
#[derive(Debug)]
pub(super) enum Event {
    /// A replica answered.
    Ack(NodeId, Answer),
    /// A prover answered a possession challenge.
    Proof {
        from: NodeId,
        held: bool,
        digest: [u8; 32],
    },
    /// The retransmission timer fired.
    Rto,
    /// The retry budget is exhausted.
    Timeout,
    /// A peer was declared failed.
    PeerFailed(NodeId),
}

/// The request a phase has out to its replicas.
enum Request {
    Read,
    Write(Option<Summed>),
}

impl Request {
    /// The one place replica requests are framed.
    fn frame(&self, op_id: OpId, key: &Bytes, to: NodeId) -> Outbound {
        let key = key.clone();
        let msg = match self {
            Request::Read => Message::ReplicaRead { op_id, key },
            Request::Write(value) => Message::ReplicaWrite {
                op_id,
                key,
                value: value.clone(),
            },
        };
        Outbound { to, msg }
    }
}

/// The one place possession challenges are framed.
fn challenge_frame(op_id: OpId, key: &Bytes, to: NodeId, challenge: PopChallenge) -> Outbound {
    let msg = Message::PopChallenge {
        op_id,
        key: key.clone(),
        nonce: challenge.nonce,
        offset: challenge.offset,
        len: challenge.len,
    };
    Outbound { to, msg }
}

impl Phase {
    fn request(&self) -> Request {
        match self {
            Phase::Read(_) | Phase::CaiRead { .. } | Phase::PopWait { .. } => Request::Read,
            Phase::Write(payload) => Request::Write(payload.clone()),
            Phase::CaiWrite { payload, .. } => Request::Write(Some(payload.clone())),
        }
    }

    fn seen(&mut self) -> Option<&mut Seen> {
        match self {
            Phase::Read(seen) | Phase::CaiRead { seen, .. } | Phase::PopWait { seen, .. } => {
                Some(seen)
            }
            Phase::Write(_) | Phase::CaiWrite { .. } => None,
        }
    }

    /// Records a quorum member's answer. Only the first sighting is
    /// kept; to a write phase any answer is just an ack.
    fn note(&mut self, from: NodeId, answer: Answer) {
        match (self.seen(), answer) {
            (Some(seen), Answer::Read(None)) => seen.answered_none.push(from),
            (Some(seen), Answer::Read(Some(value))) if seen.sighting.is_none() => {
                seen.sighting = Some((value, from));
            }
            _ => {}
        }
    }

    /// Back to the read phase with the unproven sighting forgotten: the
    /// key counts as absent, so a quorum that rested on it inserts — at
    /// worst redundantly.
    fn reject_sighting(payload: Summed, mut seen: Seen) -> Phase {
        seen.sighting = None;
        Phase::CaiRead { payload, seen }
    }
}

/// The verdict "already stored": a replica (or a proven backup) truly
/// holds the key, so it is sound.
const DUPLICATE: OpResult = OpResult::Dedup {
    unique: false,
    degraded: false,
};

fn done(op_id: OpId, result: OpResult) -> Step {
    (Vec::new(), Some(Completion { op_id, result }))
}

/// What one fan-out did.
#[derive(Default)]
struct FanOut {
    outbound: Vec<Outbound>,
    sent: BTreeSet<NodeId>,
    /// This node's own answer, when it was among the targets.
    local: Option<Answer>,
}

impl NodeState {
    /// Number of operations still awaiting replica responses.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// True while `op_id` awaits replica responses at this coordinator.
    pub fn is_pending(&self, op_id: OpId) -> bool {
        self.pending.contains_key(&op_id)
    }

    /// The peers a pending op is still waiting on, in id order. Empty
    /// for unknown/completed ops.
    pub fn outstanding_peers(&self, op_id: OpId) -> Vec<NodeId> {
        let op = self.pending.get(&op_id).into_iter();
        op.flat_map(|op| &op.quorum.outstanding).copied().collect()
    }

    /// Re-sends the pending op's outstanding requests — or, for an op
    /// awaiting a proof, the challenge it sent — after an RTO. Returns
    /// an empty vec for unknown/completed ops.
    pub fn retry_outstanding(&mut self, op_id: OpId) -> Vec<Outbound> {
        self.step(op_id, Event::Rto).0
    }

    /// Fires a speculative hedged read for a pending read-phase op: send
    /// the next ring successor *beyond* the primary replica set (the node
    /// anti-entropy and re-replication would promote first) the same
    /// `ReplicaRead`, without adding it to the outstanding set — its
    /// answer never counts toward the quorum. A positive answer soundly
    /// completes the op as a duplicate/value; a "not found" is discarded,
    /// so hedging can never manufacture a false unique or duplicate.
    ///
    /// At most one hedge fires per op, and never at a peer in `avoid`.
    /// `None` when the op is unknown, not in a read phase, already
    /// hedged, or no eligible backup exists.
    pub fn hedge(&mut self, op_id: OpId, avoid: &BTreeSet<NodeId>) -> Option<Outbound> {
        let Op { quorum, phase } = self.pending.get_mut(&op_id)?;
        let seen = match phase {
            Phase::Read(seen) | Phase::CaiRead { seen, .. } if seen.hedge.is_none() => seen,
            Phase::Read(_)
            | Phase::Write(_)
            | Phase::CaiRead { .. }
            | Phase::PopWait { .. }
            | Phase::CaiWrite { .. } => return None,
        };
        let rf = self.replication_factor;
        let primaries = self.ring.replicas(&quorum.key, rf);
        let mut backups = self.ring.replicas(&quorum.key, rf + 2).into_iter();
        let target = backups.find(|n| {
            !primaries.contains(n)
                && *n != self.id
                && !self.down.contains(n)
                && !avoid.contains(n)
                && !quorum.outstanding.contains(n)
        })?;
        seen.hedge = Some(target);
        Some(Request::Read.frame(op_id, &quorum.key, target))
    }

    /// Gives up on a pending op after its retry budget is exhausted.
    /// Writes (including the check-and-insert write phase) park a hint
    /// for every silent replica. A plain read/write resolves
    /// [`OpResult::TimedOut`]; a check-and-insert read phase degrades to
    /// "assume unique" and starts the write phase (no completion yet: the
    /// caller re-arms its timer while [`NodeState::is_pending`]); its
    /// write phase resolves unique and degraded. Unknown/completed ops
    /// return `(empty, None)`.
    pub fn timeout_op(&mut self, op_id: OpId) -> (Vec<Outbound>, Option<Completion>) {
        self.step(op_id, Event::Timeout)
    }

    /// Fails a peer mid-operation: drops it from every pending op's
    /// outstanding set (as a timeout would). Returns the frames this
    /// makes due — a check-and-insert that lost its read quorum or its
    /// prover starts writing to the replicas still alive — and the
    /// completions (possibly `Unavailable`) it resolves.
    pub fn on_peer_failure(&mut self, peer: NodeId) -> (Vec<Outbound>, Vec<Completion>) {
        self.mark_down(peer);
        let op_ids: Vec<OpId> = self.pending.keys().copied().collect();
        let (mut outbound, mut completions) = (Vec::new(), Vec::new());
        for op_id in op_ids {
            let (out, completion) = self.step(op_id, Event::PeerFailed(peer));
            outbound.extend(out);
            completions.extend(completion);
        }
        // Stop waiting for straggler reads from the failed peer.
        self.repairing.retain(|_, (quorum, _)| {
            quorum.outstanding.remove(&peer);
            !quorum.outstanding.is_empty()
        });
        (outbound, completions)
    }

    /// Starts coordinating a client operation. Returns the assigned op id,
    /// messages to send, and — when the operation completes locally (e.g.
    /// rf=1 and this node is the replica) — its completion. A submitted
    /// payload is digested here, once: every frame, log record and
    /// stored copy the op makes of it reuses that sum.
    pub fn begin(&mut self, op: ClientOp) -> (OpId, Vec<Outbound>, Option<Completion>) {
        self.begin_summed(op, None)
    }

    /// [`NodeState::begin`] with the submit digest the caller already
    /// took of the op's payload (`checksum64` of those very bytes);
    /// `None` digests it here.
    pub(crate) fn begin_summed(
        &mut self,
        op: ClientOp,
        sum: Option<u64>,
    ) -> (OpId, Vec<Outbound>, Option<Completion>) {
        let op_id = self.next_op_id();
        let seen = Seen::default();
        let summed = |value: Bytes| match sum {
            Some(sum) => Summed::with_sum(value, sum),
            None => Summed::digest(value),
        };
        let (key, phase) = match op {
            ClientOp::Get(key) => (key, Phase::Read(seen)),
            ClientOp::Put(key, value) => (key, Phase::Write(Some(summed(value)))),
            ClientOp::Delete(key) => (key, Phase::Write(None)),
            ClientOp::CheckAndInsert(key, payload) => {
                let payload = summed(payload);
                (key, Phase::CaiRead { payload, seen })
            }
        };
        let (outbound, completion) = self.launch(op_id, key, phase);
        (op_id, outbound, completion)
    }

    /// Fans `phase`'s request out to the key's replica set (taken
    /// afresh: the ring may have changed since `begin`) and evaluates
    /// what came back at once. Serves `begin` and the write-phase flip.
    fn launch(&mut self, op_id: OpId, key: Bytes, mut phase: Phase) -> Step {
        let replicas = self.ring.replicas(&key, self.replication_factor);
        let required = self.consistency.required(replicas.len());
        let fanned = self.fan_out(op_id, &key, &phase.request(), replicas, true);
        let mut quorum = Quorum {
            key,
            required,
            acks: 0,
            outstanding: fanned.sent,
        };
        if let Some(answer) = fanned.local {
            quorum.acks = 1;
            phase.note(self.id, answer);
        }
        let mut outbound = fanned.outbound;
        let (more, completion) = self.settle(op_id, quorum, phase);
        outbound.extend(more);
        (outbound, completion)
    }

    /// The path every replica request takes, in `targets` order: served
    /// here when the target is this node, skipped when it is down (a
    /// write parks a hint if `hint_down`), framed and sent otherwise.
    fn fan_out(
        &mut self,
        op_id: OpId,
        key: &Bytes,
        request: &Request,
        targets: Vec<NodeId>,
        hint_down: bool,
    ) -> FanOut {
        let mut fanned = FanOut::default();
        for peer in targets {
            if peer == self.id {
                fanned.local = Some(match request {
                    Request::Read => Answer::Read(self.verified_get(key)),
                    Request::Write(value) => {
                        self.apply(key.clone(), value.clone());
                        Answer::Applied
                    }
                });
            } else if self.down.contains(&peer) {
                if let (Request::Write(value), true) = (request, hint_down) {
                    self.park_hint(peer, key.clone(), value.clone());
                }
            } else {
                fanned.sent.insert(peer);
                fanned.outbound.push(request.frame(op_id, key, peer));
            }
        }
        fanned
    }

    fn park(&mut self, op_id: OpId, quorum: Quorum, phase: Phase) -> Step {
        self.pending.insert(op_id, Op { quorum, phase });
        (Vec::new(), None)
    }

    /// The verdict "insert it"; a degraded one is counted.
    fn unique(&mut self, op_id: OpId, degraded: bool) -> Step {
        self.stats.coordinator.degraded_ops += u64::from(degraded);
        let unique = true;
        done(op_id, OpResult::Dedup { unique, degraded })
    }

    /// Applies `event` to a pending op: the one step every transition
    /// takes. Unknown and completed ops are a no-op.
    pub(super) fn step(&mut self, op_id: OpId, event: Event) -> Step {
        let Some(Op { mut quorum, phase }) = self.pending.remove(&op_id) else {
            return (Vec::new(), None);
        };
        let phase = match (event, phase) {
            (Event::Ack(from, answer), mut phase) => {
                let hedge = phase.seen().and_then(|seen| seen.hedge);
                if hedge == Some(from) && !quorum.outstanding.contains(&from) {
                    // The hedge backup's answer. Only a positive sighting
                    // in a read phase completes the op (the backup holding
                    // the key is sound evidence; anything else teaches
                    // nothing) — and not past the possession gate.
                    let Answer::Read(Some(value)) = answer else {
                        return self.park(op_id, quorum, phase);
                    };
                    return match phase {
                        Phase::Read(seen) => {
                            self.stats.gray.hedges_won += 1;
                            let value = OpResult::Value(Some(value.into_bytes()));
                            self.finish_read(op_id, quorum, seen, value)
                        }
                        Phase::CaiRead { payload, mut seen } => {
                            self.stats.gray.hedges_won += 1;
                            seen.sighting = Some((value, from));
                            self.judge_sighting(op_id, quorum, payload, seen)
                        }
                        phase @ (Phase::Write(_)
                        | Phase::PopWait { .. }
                        | Phase::CaiWrite { .. }) => self.park(op_id, quorum, phase),
                    };
                }
                if !quorum.outstanding.remove(&from) {
                    return self.park(op_id, quorum, phase); // duplicate or stray ack
                }
                quorum.acks += 1;
                phase.note(from, answer);
                phase
            }
            (
                Event::Proof { from, held, digest },
                Phase::PopWait {
                    payload,
                    seen,
                    prover,
                    challenge,
                },
            ) if prover == from => {
                // Checked against the digest of the coordinator's *own*
                // payload bytes: the store is content-addressed, so the
                // same key means the same bytes.
                if held && digest == pop_digest(challenge, &payload) {
                    self.stats.byzantine.challenges_passed += 1;
                    self.pop_proven.insert((from, quorum.key.clone()));
                    self.dedup_sources.push((op_id, from));
                    return self.finish_read(op_id, quorum, seen, DUPLICATE);
                }
                // The claim was positive moments ago: a wrong digest is
                // fabrication, a retraction self-contradiction. Both
                // strike — silence never reaches this arm, so a lossy
                // link cannot frame an honest peer.
                self.stats.byzantine.challenges_failed += 1;
                self.stats.byzantine.false_claims_rejected += u64::from(held);
                self.pop_strikes.push(from);
                Phase::reject_sighting(payload, seen)
            }
            // A stray or duplicate proof.
            (Event::Proof { .. }, phase) => return self.park(op_id, quorum, phase),
            (Event::Rto, phase) => {
                // Retransmitted writes apply idempotently and duplicate
                // acks are ignored, so a spurious retry is safe. The
                // dead are `PeerFailed`'s to resolve, not to shout at.
                let (key, down) = (&quorum.key, &self.down);
                let out: Vec<Outbound> = match &phase {
                    Phase::PopWait {
                        prover, challenge, ..
                    } => (!down.contains(prover))
                        .then(|| challenge_frame(op_id, key, *prover, *challenge))
                        .into_iter()
                        .collect(),
                    phase @ (Phase::Read(_)
                    | Phase::Write(_)
                    | Phase::CaiRead { .. }
                    | Phase::CaiWrite { .. }) => {
                        let request = phase.request();
                        let live = quorum.outstanding.iter().filter(|p| !down.contains(p));
                        live.map(|&peer| request.frame(op_id, key, peer)).collect()
                    }
                };
                self.stats.coordinator.retries += u64::from(!out.is_empty());
                self.pending.insert(op_id, Op { quorum, phase });
                return (out, None);
            }
            (Event::Timeout, phase) => {
                self.stats.coordinator.timeouts += 1;
                // Hinted handoff on *timeout*, not only on detected
                // failure: replication heals once the peer is reachable.
                if let Request::Write(value) = phase.request() {
                    for &peer in &quorum.outstanding {
                        self.park_hint(peer, quorum.key.clone(), value.clone());
                    }
                }
                let (acks, required) = (quorum.acks, quorum.required);
                return match phase {
                    Phase::Read(_) | Phase::Write(_) => {
                        done(op_id, OpResult::TimedOut { acks, required })
                    }
                    // An unanswered challenge degrades exactly like an
                    // unreachable read quorum. Silence is never a strike
                    // — only a provably wrong proof is.
                    Phase::CaiRead { payload, .. } | Phase::PopWait { payload, .. } => {
                        let degraded = true;
                        self.launch(op_id, quorum.key, Phase::CaiWrite { payload, degraded })
                    }
                    Phase::CaiWrite { .. } => self.unique(op_id, true),
                };
            }
            (Event::PeerFailed(peer), phase) => {
                quorum.outstanding.remove(&peer);
                match phase {
                    // A prover that died mid-challenge proved nothing
                    // (no strike — death is not a lie).
                    Phase::PopWait {
                        payload,
                        seen,
                        prover,
                        ..
                    } if prover == peer => Phase::reject_sighting(payload, seen),
                    phase @ (Phase::Read(_)
                    | Phase::Write(_)
                    | Phase::CaiRead { .. }
                    | Phase::PopWait { .. }
                    | Phase::CaiWrite { .. }) => phase,
                }
            }
        };
        self.settle(op_id, quorum, phase)
    }

    /// Evaluates an op against its quorum: completes it (a read enters
    /// read-repair mode, a check-and-insert read flips into its write
    /// phase or waits for a proof), fails it, or parks it.
    fn settle(&mut self, op_id: OpId, quorum: Quorum, phase: Phase) -> Step {
        let met = quorum.met();
        if !met && !quorum.outstanding.is_empty() {
            return self.park(op_id, quorum, phase);
        }
        // The quorum is in, or no more responders can arrive.
        let (acks, required) = (quorum.acks, quorum.required);
        match phase {
            Phase::Read(seen) if met => {
                let value = seen
                    .sighting
                    .as_ref()
                    .map(|(value, _)| value.bytes().clone());
                self.finish_read(op_id, quorum, seen, OpResult::Value(value))
            }
            Phase::Write(_) if met => done(op_id, OpResult::Written),
            Phase::Read(_) | Phase::Write(_) => {
                done(op_id, OpResult::Unavailable { acks, required })
            }
            Phase::CaiWrite { degraded, .. } => self.unique(op_id, degraded || !met),
            // Nothing but the proof (or its timeout) resolves a gated op
            // while its quorum stands.
            Phase::PopWait { .. } if met => self.park(op_id, quorum, phase),
            Phase::CaiRead { payload, seen } if met && seen.sighting.is_some() => {
                self.judge_sighting(op_id, quorum, payload, seen)
            }
            // Absent everywhere we asked: insert it. Or the read quorum
            // is unreachable: *assume* unique and insert — at worst a
            // redundant upload, never a false duplicate, which would
            // lose data.
            Phase::CaiRead { payload, .. } | Phase::PopWait { payload, .. } => {
                let degraded = !met;
                self.launch(op_id, quorum.key, Phase::CaiWrite { payload, degraded })
            }
        }
    }

    /// The proof-of-possession gate, decided in one place: when proofs
    /// are armed, a duplicate verdict built on a *remote* sighting must
    /// not complete until the claimant has proven it holds the chunk.
    /// Admitted at once when proofs are unarmed, the copy is this node's
    /// own, or the same peer already proved the same chunk; otherwise the
    /// op parks in [`Phase::PopWait`] and the peer is challenged.
    fn judge_sighting(&mut self, op_id: OpId, quorum: Quorum, payload: Summed, seen: Seen) -> Step {
        let source = seen.sighting.as_ref().map(|(_, from)| *from);
        let gate = source.filter(|from| *from != self.id).zip(self.pop_seed);
        let Some((prover, seed)) = gate else {
            return self.finish_read(op_id, quorum, seen, DUPLICATE);
        };
        if self.pop_proven.contains(&(prover, quorum.key.clone())) {
            self.stats.byzantine.pop_cache_hits += 1;
            self.dedup_sources.push((op_id, prover));
            return self.finish_read(op_id, quorum, seen, DUPLICATE);
        }
        self.stats.byzantine.challenges_issued += 1;
        let token = crate::key_token(&quorum.key);
        let challenge = derive_challenge(seed, op_id, token, prover);
        let frame = challenge_frame(op_id, &quorum.key, prover, challenge);
        let phase = Phase::PopWait {
            payload,
            seen,
            prover,
            challenge,
        };
        self.pending.insert(op_id, Op { quorum, phase });
        (vec![frame], None)
    }

    /// Completes a read phase with `result`. With the quorum in, it enters
    /// read-repair mode: back-fill the replicas that answered "not found"
    /// and listen for stragglers. A hedge win completes on its own.
    fn finish_read(&mut self, op_id: OpId, quorum: Quorum, seen: Seen, result: OpResult) -> Step {
        let repairs = quorum.met().then(|| self.repair(op_id, quorum, seen));
        (
            repairs.unwrap_or_default(),
            Some(Completion { op_id, result }),
        )
    }

    /// Sends the resolved value, once there is one (entries are
    /// immutable, so any sighting is authoritative), to every replica
    /// that answered "not found" — a down one is skipped, not hinted —
    /// and keeps the repair state while stragglers remain.
    fn repair(&mut self, op_id: OpId, quorum: Quorum, mut seen: Seen) -> Vec<Outbound> {
        let mut outbound = Vec::new();
        if let (Some((value, _)), false) = (&seen.sighting, seen.answered_none.is_empty()) {
            let stale = std::mem::take(&mut seen.answered_none);
            self.stats.coordinator.repairs_sent += stale.len() as u64;
            let request = Request::Write(Some(value.clone()));
            outbound = self
                .fan_out(op_id, &quorum.key, &request, stale, false)
                .outbound;
        }
        if !quorum.outstanding.is_empty() {
            self.repairing.insert(op_id, (quorum, seen));
        }
        outbound
    }

    /// A replica's answer arrived: a straggler feeding a completed read's
    /// repair state, or an event for the pending op.
    pub(super) fn on_ack(&mut self, op_id: OpId, from: NodeId, answer: Answer) -> Step {
        let Some((mut quorum, mut seen)) = self.repairing.remove(&op_id) else {
            return self.step(op_id, Event::Ack(from, answer));
        };
        if quorum.outstanding.remove(&from) {
            match (answer, &seen.sighting) {
                // A later replica knew the value: repair all earlier
                // "not found" responders.
                (Answer::Read(Some(value)), None) => seen.sighting = Some((value, from)),
                (Answer::Read(None), Some(_)) => seen.answered_none.push(from),
                _ => {}
            }
        }
        (self.repair(op_id, quorum, seen), None)
    }
}
