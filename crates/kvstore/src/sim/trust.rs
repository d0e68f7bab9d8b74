//! The trust machine: what a coordinator may believe without asking
//! again, and what happens to a peer caught lying.
//!
//! **State:** per-coordinator fingerprint caches, keys of in-flight
//! check-and-inserts awaiting cache population, cache provenance (which
//! prover's claim admitted which entry), whether PoP is armed, the
//! [`TrustLedger`], ground-truth content digests, the hint-flood
//! sequence, [`ByzantineStats`]. **Events:** none of its own — it vets
//! what `Start`, `Deliver` and `dispatch` carry, and speaks for a
//! compromised sender (lookup lies, garbage repair bytes, hint floods).
//! **Emits:** fabricated frames on a liar's behalf; quarantine into the
//! background machine.

use super::SimCluster;
use crate::cache::FingerprintCache;
use crate::counters::{ByzantineStats, CacheStats};
use crate::integrity::Summed;
use crate::msg::{Message, OpResult, Outbound};
use crate::node::NodeState;
use crate::trust::{splitmix, TrustLedger};
use bytes::Bytes;
use ef_netsim::{FaultPlan, NodeId};
use ef_simcore::SimTime;
use std::collections::BTreeMap;

#[derive(Debug, Default)]
pub(super) struct Trust {
    /// Per-coordinator fingerprint caches (empty until enabled). A hit
    /// answers a check-and-insert locally as a duplicate; see
    /// [`FingerprintCache`] for the one-sided soundness argument.
    caches: BTreeMap<NodeId, FingerprintCache>,
    /// Which remote prover backed each cache-admitted duplicate verdict:
    /// prover → (coordinator, key) admissions. A later quarantine of the
    /// prover invalidates exactly these entries.
    cache_sources: BTreeMap<NodeId, Vec<(NodeId, Bytes)>>,
    /// Proof of possession armed ([`SimCluster::enable_pop`]); rejoining
    /// nodes are re-armed from it.
    pub(super) pop_armed: bool,
    /// Per-peer Byzantine strike ledger: sightings that failed the
    /// possession check, poisoned repair bytes and summary equivocations
    /// accrue here until the liar crosses the quarantine threshold.
    pub(super) ledger: TrustLedger,
    /// Ground-truth content digests of every payload a client submitted
    /// while PoP is armed: the content-address check applied to every
    /// peer-served repair/restore byte.
    content_digests: BTreeMap<Bytes, u64>,
    /// Sequence number for fabricated hint-flood keys (deterministic,
    /// never collides with client fingerprints).
    flood_seq: u64,
    /// Driver-level Byzantine counters (possession checks are counted by
    /// the coordinators themselves).
    pub(super) byz: ByzantineStats,
}

impl Trust {
    /// Content-address ground truth: while PoP is armed, remember the
    /// digest of every payload a client submits — its submit digest,
    /// taken once in `start_op`. Peer-served repair bytes are later
    /// checked against it — the client-side anchor no Byzantine replica
    /// can forge.
    pub(super) fn note_submitted(&mut self, key: &Bytes, payload: Option<&Summed>) {
        if !self.pop_armed {
            return;
        }
        if let Some(payload) = payload {
            self.content_digests
                .entry(key.clone())
                .or_insert(payload.sum());
        }
    }

    /// Arms proof-of-possession on a node joining the cluster, if armed.
    pub(super) fn arm(&self, state: &mut NodeState) {
        if self.pop_armed {
            state.arm_pop();
        }
    }

    /// Fingerprint-cache fast path: true when `coordinator` has already
    /// learned `key` is durably indexed and may answer "duplicate"
    /// locally with no ring traffic. Counts the hit or miss.
    pub(super) fn cache_hit(&mut self, coordinator: NodeId, key: &Bytes) -> bool {
        self.caches
            .get_mut(&coordinator)
            .is_some_and(|cache| cache.contains(key))
    }

    /// True once a fingerprint cache is armed.
    pub(super) fn caching(&self) -> bool {
        !self.caches.is_empty()
    }

    /// Cache population at completion: only a non-degraded dedup verdict
    /// proves the fingerprint is durably present in the ring index
    /// (unique ⇒ we just wrote it with the required acks; duplicate ⇒ it
    /// was already there). Degraded assume-unique verdicts and
    /// unavailability teach the cache nothing — that is the one-sided
    /// soundness invariant.
    pub(super) fn learn_verdict(&mut self, coordinator: NodeId, key: &Bytes, result: &OpResult) {
        let OpResult::Dedup { degraded, .. } = result else {
            return;
        };
        if let Some(cache) = self.caches.get_mut(&coordinator).filter(|_| !degraded) {
            cache.insert(key.clone());
        }
    }

    /// The fingerprint cache is volatile: it dies with its node. Counters
    /// survive (they describe the run).
    pub(super) fn clear_cache(&mut self, node: NodeId) {
        if let Some(cache) = self.caches.get_mut(&node) {
            cache.clear();
        }
    }
}

/// A deterministic fabricated payload for Byzantine rewrites, summed by
/// the liar: a splitmix stream over `seed`, truncated to `len` (min 8).
fn fabricated_payload(seed: u64, len: usize) -> Summed {
    let len = len.max(8);
    let mut out = Vec::with_capacity(len + 8);
    let mut s = seed;
    while out.len() < len {
        s = splitmix(s);
        out.extend_from_slice(&s.to_le_bytes());
    }
    out.truncate(len);
    Summed::digest(Bytes::from(out))
}

/// Rewrites what a Byzantine sender *would have sent* into the lie its
/// active fault windows dictate. The network itself stays truthful —
/// rules are zero-draw oracles — so honest runs and liar runs share a
/// bit-identical fault-verdict trace.
#[expect(
    clippy::wildcard_enum_match_arm,
    reason = "a liar rewrites the two frames its fault windows name; every other frame passes through truthful"
)]
pub(super) fn byzantine_rewrite(
    plan: Option<&FaultPlan>,
    now: SimTime,
    sender: NodeId,
    mut msg: Message,
) -> Message {
    let Some(plan) = plan else {
        return msg;
    };
    let liar = sender.0 as u64;
    match &mut msg {
        // Fabricated positive dedup sighting: "I already hold this
        // fingerprint" for a chunk the liar never stored, trying to
        // suppress the client's upload and silently lose the chunk.
        Message::ReadResp { op_id, value, .. }
            if value.is_none() && plan.lies_on_lookup_at(sender, now) =>
        {
            let tag = op_id.seq ^ ((op_id.coordinator.0 as u64) << 32) ^ liar;
            *value = Some(fabricated_payload(tag, 32));
        }
        // Poisoned repair bytes: the right key, fabricated content —
        // same length, so wire-cost accounting cannot tell them apart;
        // only content-address verification can.
        Message::HintReplay {
            key,
            value: Some(v),
        } if plan.serves_garbage_at(sender, now) => {
            *v = fabricated_payload(crate::key_token(key) ^ liar, v.len());
        }
        _ => {}
    }
    msg
}

impl SimCluster {
    /// Enables the per-coordinator fingerprint cache: `shards` LRU shards
    /// of `per_shard_capacity` entries on every node. Call before
    /// submitting ops; cached and uncached runs stay op-id compatible.
    pub fn enable_fingerprint_cache(&mut self, shards: usize, per_shard_capacity: usize) {
        self.enable_caches(|| FingerprintCache::new(shards, per_shard_capacity));
    }

    /// [`SimCluster::enable_fingerprint_cache`] with the second-sight
    /// admission policy: fingerprints enter a coordinator's cache only on
    /// their second sighting, so one-hit-wonder chunks never churn the
    /// LRU. Verdicts are unchanged either way — admission only moves the
    /// hit/miss split, never the soundness of a hit.
    pub fn enable_second_sight_cache(&mut self, shards: usize, per_shard_capacity: usize) {
        self.enable_caches(|| {
            FingerprintCache::new(shards, per_shard_capacity).with_second_sight()
        });
    }

    fn enable_caches(&mut self, new_cache: impl Fn() -> FingerprintCache) {
        self.trust.caches = self.nodes.keys().map(|id| (*id, new_cache())).collect();
    }

    /// Aggregated fingerprint-cache counters across all coordinators
    /// (zeros when the cache was never enabled).
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for cache in self.trust.caches.values() {
            total.merge(&cache.stats());
        }
        total
    }

    /// Arms proof-of-possession dedup gating and the Byzantine defenses.
    /// `seed` is not read: possession is shown by the bytes the lookup
    /// carried, so nothing is derived from it.
    ///
    /// * every remote positive dedup sighting (quorum reads and hedged
    ///   probes alike) completes a duplicate verdict only if the value the
    ///   replica returned is, every byte, the payload being deduplicated
    ///   — an index-only liar cannot produce it;
    /// * every peer-served repair/restore byte (hint replays, mesh-repair
    ///   responses) is verified against the content digest the client's
    ///   original payload established; poisoned bytes are rejected and
    ///   re-fetched from the next-rarest holder or the cloud catalog;
    /// * provable lies accrue per-peer strikes in the [`TrustLedger`];
    ///   at [`TrustLedger::STRIKE_THRESHOLD`] the liar is quarantined
    ///   (heartbeats silenced, so the ordinary suspect → dead machinery
    ///   takes it out of service) and every fingerprint-cache entry its
    ///   claims admitted is invalidated.
    ///
    /// Silence is never a strike: timeouts, crashes and lost frames keep
    /// resolving exactly as without PoP, so a lossy link cannot condemn
    /// an honest peer. Call before submitting ops.
    pub fn enable_pop(&mut self, _seed: u64) {
        self.trust.pop_armed = true;
        for state in self.nodes.values_mut() {
            state.arm_pop();
        }
    }

    /// True when proof-of-possession gating is armed.
    pub fn pop_armed(&self) -> bool {
        self.trust.pop_armed
    }

    /// Byzantine-tolerance counters: possession checks and their
    /// outcomes, poisoned bytes rejected, floods suppressed,
    /// equivocations detected, strikes, quarantines, cache
    /// invalidations and re-fetches. All zeros unless
    /// [`SimCluster::enable_pop`] armed the defenses.
    pub fn byzantine_stats(&self) -> ByzantineStats {
        let mut total = self.trust.byz;
        total.merge(&self.node_stats().byzantine);
        total
    }

    /// Strikes the trust ledger currently holds against `peer`.
    pub fn trust_strikes_of(&self, peer: NodeId) -> u32 {
        self.trust.ledger.strikes_of(peer)
    }

    /// Content-address verification of a peer-served repair/restore
    /// payload arriving at `to`: with PoP armed it must match the digest
    /// the client's original upload established. A mismatch is a
    /// *provable* lie (honest replicas serve only verified reads of
    /// content-addressed chunks): the bytes are rejected before they can
    /// poison the receiver's store, the sender is struck, and a pending
    /// mesh repair re-fetches from the next holder. A key no client ever
    /// wrote is a fabricated flood hint and is suppressed the same way.
    /// CAI read responses are deliberately *not* driver-verified —
    /// defeating lookup lies is the coordinator's possession check.
    /// Verified bytes retire any pending re-fetch bookkeeping for this
    /// (key, target).
    /// `value`'s sum is the receiver's own, taken of the bytes that
    /// arrived ([`Message::received`]).
    pub(super) fn rejects_served_bytes(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        key: &Bytes,
        value: &Summed,
    ) -> bool {
        if !self.trust.pop_armed {
            return false;
        }
        let expected = self.trust.content_digests.get(key).copied();
        if expected == Some(value.sum()) {
            self.uplink.pending_repairs.remove(&(key.clone(), to));
            return false;
        }
        self.trust.byz.poisoned_bytes_rejected += value.len() as u64;
        if expected.is_none() {
            self.trust.byz.hint_floods_suppressed += 1;
        }
        self.strike_peer(from);
        self.refetch_repair(now, key.clone(), to);
        true
    }

    /// Byzantine hint flood: inside its window the compromised `node`
    /// sprays fabricated hint replays for chunks nobody ever wrote,
    /// riding the same billed links as honest repair traffic. With PoP
    /// armed the receivers' content-address check suppresses and strikes
    /// each one; without it the bogus keys pollute their indexes — the
    /// attack the defense exists for.
    pub(super) fn hint_flood(&mut self, now: SimTime, node: NodeId) {
        let plan = self.network.fault_plan();
        if !plan.is_some_and(|plan| plan.hint_floods_at(node, now)) {
            return;
        }
        let targets = self.live_nodes().into_iter().filter(|p| *p != node);
        let mut bogus = Vec::new();
        for target in targets.take(2) {
            self.trust.flood_seq += 1;
            let seq = self.trust.flood_seq;
            let who = (node.0 as u64).to_le_bytes();
            let key = [b"byz-flood-".as_slice(), &who, &seq.to_le_bytes()].concat();
            let value = fabricated_payload(seq ^ (node.0 as u64), 64);
            bogus.push(Outbound::hint_replay(target, Bytes::from(key), Some(value)));
        }
        self.dispatch(now, node, bogus);
    }

    /// An equivocating peer's Merkle summary disagrees with the
    /// per-bucket digests it later answers with. True when `a` or `b`
    /// equivocates at `now`; with the trust ledger armed the
    /// inconsistency is also *attributable* — the signed summary names
    /// its author — and charged as a provable lie.
    pub(super) fn equivocation_detected(&mut self, now: SimTime, a: NodeId, b: NodeId) -> bool {
        let plan = self.network.fault_plan();
        let equivocators: Vec<NodeId> = [a, b]
            .into_iter()
            .filter(|&n| plan.is_some_and(|plan| plan.equivocates_at(n, now)))
            .collect();
        if self.pop_armed() {
            for &e in &equivocators {
                self.trust.byz.equivocations_detected += 1;
                self.strike_peer(e);
            }
        }
        !equivocators.is_empty()
    }

    /// Drains `node`'s PoP verdicts into driver state: duplicate-verdict
    /// source attribution (so a later quarantine can invalidate exactly
    /// the cache entries the prover's claims admitted) and strikes for
    /// sightings that failed the possession check. A no-op until PoP is
    /// armed.
    pub(super) fn harvest_node_trust(&mut self, node: NodeId) {
        if !self.trust.pop_armed {
            return;
        }
        let Some(state) = self.nodes.get_mut(&node) else {
            return;
        };
        let strikes = state.take_pop_strikes();
        for (op_id, prover) in state.take_dedup_sources() {
            let op = self.ops.get(&op_id).filter(|op| op.cacheable);
            if let Some((key, _)) = op.and_then(|op| op.dedup.as_ref()) {
                let admitted = self.trust.cache_sources.entry(prover).or_default();
                admitted.push((node, key.clone()));
            }
        }
        for peer in strikes {
            self.strike_peer(peer);
        }
    }

    /// Charges one provable lie to `peer`; at the ledger threshold the
    /// liar is quarantined: its heartbeats are silenced (the existing
    /// suspect → dead lattice evicts it) and every fingerprint-cache
    /// entry its claims admitted is invalidated — the poisoned claims
    /// must not outlive the liar.
    pub(super) fn strike_peer(&mut self, peer: NodeId) {
        self.trust.byz.liar_strikes += 1;
        if !self.trust.ledger.strike(peer) {
            return;
        }
        if self.background.quarantine(peer) {
            self.trust.byz.liars_quarantined += 1;
        }
        for (coord, key) in self.trust.cache_sources.remove(&peer).unwrap_or_default() {
            let cache = self.trust.caches.get_mut(&coord);
            if cache.is_some_and(|cache| cache.remove(&key)) {
                self.trust.byz.cache_invalidations += 1;
            }
        }
    }
}
