//! The background machine: the repair work nobody waits on —
//! anti-entropy, scrub, read-repair and verify-failure quarantine.
//!
//! **State:** anti-entropy and scrub schedules, per-node scrub cursors,
//! verification-failure strikes, the quarantine set, [`IntegrityStats`].
//! **Events:** `Round(AntiEntropy)`, `Round(Scrub)`, `StorageRot`.
//! **Emits:** Merkle-summary control frames, repair streams and
//! read-repair answers as `HintReplay`s through the normal delivery path.

use super::{Event, Round, SimCluster};
use crate::antientropy::{bucket_diff, pair_diff, tree_wire_size, NodeSummary};
use crate::counters::IntegrityStats;
use crate::integrity::Summed;
use crate::msg::Outbound;
use crate::node::NodeState;
use bytes::Bytes;
use ef_netsim::NodeId;
use ef_simcore::{DetRng, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Verification-failure strikes before a node is quarantined. High
/// enough that one storage-rot strike (a handful of flips) does not
/// by itself condemn a node.
pub(super) const QUARANTINE_STRIKES: u32 = 6;

#[derive(Debug, Default)]
pub(super) struct Background {
    /// Anti-entropy schedule: (interval, Merkle depth); None until
    /// enabled.
    pub(super) antientropy: Option<(SimDuration, u32)>,
    /// Background-scrub schedule: (interval, per-node byte budget per
    /// round); None until enabled.
    pub(super) scrub: Option<(SimDuration, u64)>,
    /// Per-node scrub resume cursors (None = start of key space).
    scrub_cursors: BTreeMap<NodeId, Option<Bytes>>,
    /// Verification-failure strikes per node, feeding quarantine.
    verify_failures: BTreeMap<NodeId, u32>,
    /// Nodes quarantined for repeated verification failures or by the
    /// trust ledger: their heartbeats are suppressed so the ordinary
    /// suspect → dead machinery takes them out of service.
    pub(super) quarantined: BTreeSet<NodeId>,
    /// Driver-level integrity counters: frame rejections, scrub and
    /// repair work, recovery-lattice outcomes.
    pub(super) integrity: IntegrityStats,
}

impl Background {
    /// Quarantines `node`; true (and counted) the first time.
    pub(super) fn quarantine(&mut self, node: NodeId) -> bool {
        let newly = self.quarantined.insert(node);
        if newly {
            self.integrity.quarantines += 1;
        }
        newly
    }

    /// Records a verification failure at `node`; past the strike
    /// threshold the node is quarantined.
    pub(super) fn note_verify_failure(&mut self, node: NodeId) {
        let strikes = self.verify_failures.entry(node).or_insert(0);
        *strikes += 1;
        if *strikes >= QUARANTINE_STRIKES {
            self.quarantine(node);
        }
    }
}

impl SimCluster {
    /// Enables the scheduled anti-entropy repair: every `interval`, all
    /// live replica pairs exchange depth-`depth` Merkle trees over the
    /// simulated network (paying real transfer costs) and stream the
    /// entries of divergent buckets to each other.
    ///
    /// Call before `run`; the first round fires one `interval` from now.
    ///
    /// # Panics
    ///
    /// Panics when already enabled, `interval` is zero, or `depth > 20`.
    pub fn enable_anti_entropy(&mut self, interval: SimDuration, depth: u32) {
        assert!(
            self.background.antientropy.is_none(),
            "anti-entropy already enabled"
        );
        assert!(!interval.is_zero(), "interval must be positive");
        assert!(depth <= 20, "Merkle depth {depth} > 20");
        self.background.antientropy = Some((interval, depth));
        self.sim
            .schedule_after(interval, Event::Round(Round::AntiEntropy));
    }

    /// Enables the background scrub: every `interval`, each live node
    /// verifies the checksums of the next `byte_budget` bytes of its key
    /// space. A corrupt entry is dropped and read-repaired from a live
    /// ring replica over the (faulty, billed) network; a replica whose
    /// own copies keep failing verification is quarantined. Entries with
    /// no healthy live replica are counted lost — the system layer may
    /// later reclassify them as recovered by cloud erasure decoding via
    /// [`SimCluster::note_cloud_decode`].
    ///
    /// Call before `run`; the first round fires one `interval` from now.
    ///
    /// # Panics
    ///
    /// Panics when already enabled, `interval` is zero, or `byte_budget`
    /// is zero.
    pub fn enable_scrub(&mut self, interval: SimDuration, byte_budget: u64) {
        assert!(self.background.scrub.is_none(), "scrub already enabled");
        assert!(!interval.is_zero(), "interval must be positive");
        assert!(byte_budget > 0, "byte budget must be positive");
        self.background.scrub = Some((interval, byte_budget));
        self.sim
            .schedule_after(interval, Event::Round(Round::Scrub));
    }

    /// Integrity counters accumulated so far: the driver's own (frame
    /// rejections, scrub and repair work, recovery-lattice outcomes)
    /// merged with what every node, live or torn down, counted itself.
    pub fn integrity(&self) -> IntegrityStats {
        let mut total = self.background.integrity;
        total.merge(&self.node_stats().integrity);
        total
    }

    /// Reclassifies `n` lost records as recovered by the cloud's erasure
    /// decoding — the system layer's fallback when no edge replica held
    /// a healthy copy. Clamped to the records actually lost.
    pub fn note_cloud_decode(&mut self, n: u64) {
        let integrity = &mut self.background.integrity;
        let n = n.min(integrity.lost_records);
        integrity.lost_records -= n;
        integrity.cloud_decodes += n;
    }

    /// Nodes quarantined for repeated verification failures.
    pub fn quarantined(&self) -> Vec<NodeId> {
        self.background.quarantined.iter().copied().collect()
    }

    /// Convergence oracle: the number of divergent Merkle buckets summed
    /// over all live replica pairs, with no network charges, repairs or
    /// repair listing (`&mut` only for the summaries each node
    /// remembers). `0` means every pair of live replicas agrees on their
    /// co-replicated entries.
    pub fn replica_divergence(&mut self, depth: u32) -> u64 {
        let summaries = self.summarize_live(depth);
        let mut buckets = 0;
        for (x, a) in summaries.iter().enumerate() {
            for b in &summaries[x + 1..] {
                buckets += bucket_diff(a, b).len() as u64;
            }
        }
        buckets
    }

    /// One anti-entropy summary per live node, in id order, each folded
    /// forward from what its store journalled since the last one: a
    /// store is walked at most once, however many replica pairs the node
    /// is part of, and only when its summary must be rebuilt.
    fn summarize_live(&mut self, depth: u32) -> Vec<Arc<NodeSummary>> {
        let (ring, rf) = (&self.ring, self.config.replication_factor);
        let live = self.live_nodes();
        let states = self.nodes.values_mut();
        let states = states.filter(|state| live.contains(&state.id()));
        states
            .map(|state| NodeSummary::of(state, ring, rf, depth))
            .collect()
    }

    /// One `Round(AntiEntropy)` over the simulated network.
    ///
    /// Every live pair of replicas exchanges Merkle-tree summaries of the
    /// keys they co-replicate, charged to the network at
    /// [`tree_wire_size`] bytes each way — a lost or partitioned-away
    /// summary aborts the pair for this round (it will retry at the next
    /// tick). Divergent buckets are repaired by streaming the missing
    /// entries as `HintReplay` messages through the normal delivery
    /// path, so repair traffic pays real transfer costs and can itself
    /// be lost; convergence is only declared for a rejoined node once a
    /// round finds *all* its replica pairs clean.
    pub(super) fn anti_entropy_round(&mut self, now: SimTime) {
        let Some((_, depth)) = self.background.antientropy else {
            return;
        };
        self.membership.recovery.antientropy_rounds += 1;
        let live = self.live_nodes();
        // Nothing below writes to a store before the round ends (repairs
        // travel as `Deliver` events), so one summary per node serves
        // all of its pairs.
        let summaries = self.summarize_live(depth);
        let mut dirty: BTreeSet<NodeId> = BTreeSet::new();

        for (x, summary_a) in summaries.iter().enumerate() {
            for summary_b in &summaries[x + 1..] {
                let (a, b) = (summary_a.node, summary_b.node);
                // Tree exchange, both directions, over the faulty
                // network. A summary corrupted by wire rot fails its
                // frame checksum at the receiver and counts as rejected;
                // either way the pair aborts for this round and retries
                // at the next tick.
                let summary = tree_wire_size(depth);
                let ab = self.send_control(now, a, b, summary);
                let ba = self.send_control(now, b, a, summary);
                // An equivocating peer sends a summary that disagrees
                // with the per-bucket digests it later answers with, so
                // the exchange is internally inconsistent: the pair
                // cannot converge this round either way.
                if ab.is_none() || ba.is_none() || self.equivocation_detected(now, a, b) {
                    dirty.extend([a, b]);
                    continue;
                }
                // A completed two-way exchange is proof of mutual
                // reachability: un-suspect the pair and flush any hints
                // still parked between them (e.g. hinted-on-timeout for a
                // peer the failure detector never formally suspected).
                for (me, peer) in [(a, b), (b, a)] {
                    let replays = self
                        .nodes
                        .get_mut(&me)
                        .map(|s| s.mark_up(peer))
                        .unwrap_or_default();
                    self.dispatch(now, me, replays);
                }
                let store = |n| self.nodes.get(&n).map(NodeState::storage);
                let pair = pair_diff(&self.ring, [(summary_a, store(a)), (summary_b, store(b))]);
                if pair.buckets == 0 {
                    continue;
                }
                dirty.extend([a, b]);
                let recovery = &mut self.membership.recovery;
                recovery.buckets_repaired += pair.buckets as u64;
                recovery.entries_repaired += (pair.to_b.len() + pair.to_a.len()) as u64;
                let replay = |to, entries: Vec<(Bytes, Summed)>| -> Vec<Outbound> {
                    let hints = entries.into_iter();
                    hints
                        .map(|(key, value)| Outbound::hint_replay(to, key, Some(value)))
                        .collect()
                };
                self.dispatch(now, a, replay(b, pair.to_b));
                self.dispatch(now, b, replay(a, pair.to_a));
            }
        }

        // A rejoined node whose every replica pair came up clean this
        // round has fully caught up.
        for n in live.iter().filter(|n| !dirty.contains(n)) {
            if let Some((_, converged @ None)) = self.membership.rejoined.get_mut(n) {
                *converged = Some(now);
            }
        }
    }

    /// One `Round(Scrub)`: every live node verifies the checksums of the
    /// next slice of its key space. Corrupt entries are dropped from the
    /// volatile engine (the WAL still holds the clean bytes) and
    /// read-repaired from a live ring replica.
    pub(super) fn scrub_round(&mut self, now: SimTime) {
        let Some((_, byte_budget)) = self.background.scrub else {
            return;
        };
        for node in self.live_nodes() {
            let Some(state) = self.nodes.get(&node) else {
                continue;
            };
            let cursor = self.background.scrub_cursors.get(&node).cloned().flatten();
            // Fail-slow storage stretches every read the scrubber makes:
            // a stalled node covers proportionally fewer bytes per round.
            let stall = self.timers.stall_factor(node, now);
            let budget = if stall > 1.0 {
                ((byte_budget as f64 / stall).max(1.0)) as u64
            } else {
                byte_budget
            };
            let chunk = state.storage().scrub(cursor.as_ref(), budget);
            self.background
                .scrub_cursors
                .insert(node, chunk.next_cursor.clone());
            self.background.integrity.entries_scrubbed += chunk.entries;
            self.background.integrity.scrub_bytes += chunk.bytes;
            for key in chunk.corrupt {
                self.background.integrity.mismatches_found += 1;
                if let Some(state) = self.nodes.get_mut(&node) {
                    // Drop the poison; the repair below (or hint replay /
                    // anti-entropy) restores a verified copy.
                    state.storage_mut().delete(key.clone());
                }
                self.read_repair(now, node, key);
            }
        }
    }

    /// Read-repairs `key` at `node` after a checksum mismatch: ask each
    /// other live ring replica in turn (paying request network costs)
    /// for a verified copy, and stream the first healthy answer back as
    /// a hint replay — durably applied on arrival, and itself subject to
    /// wire faults (a lost repair is backfilled by anti-entropy).
    /// Replicas whose own copy is rotted accrue strikes toward
    /// quarantine. With no healthy live replica the record is lost at
    /// this layer.
    fn read_repair(&mut self, now: SimTime, node: NodeId, key: Bytes) {
        let replicas = self.ring.replicas(&key, self.config.replication_factor);
        for replica in replicas {
            if replica == node
                || !self.is_serving(replica)
                || self.background.quarantined.contains(&replica)
            {
                continue;
            }
            // Charge the repair request to the scrubbing node's uplink; a
            // lost request just moves on to the next replica.
            let sent = self.network.send(now, node, replica, 48 + key.len() as u64);
            if !matches!(sent, Ok(Some(_))) {
                continue;
            }
            let Some(state) = self.nodes.get_mut(&replica) else {
                continue;
            };
            match state.storage().get_verified(&key) {
                Ok(Some(value)) => {
                    let out = vec![Outbound::hint_replay(node, key, Some(value))];
                    self.dispatch(now, replica, out);
                    self.background.integrity.read_repairs += 1;
                    return;
                }
                Ok(None) => {} // the replica never held it
                Err(_) => {
                    // The replica's copy is rotted too: drop it, count
                    // it, and strike toward quarantine.
                    state.integrity_mut().mismatches_found += 1;
                    state.storage_mut().delete(key.clone());
                    self.background.note_verify_failure(replica);
                }
            }
        }
        // No live replica produced a healthy copy: lost at this layer
        // (the system layer may erasure-decode it from the cloud).
        self.background.integrity.lost_records += 1;
    }

    /// `StorageRot`: a seeded strike of a handful of bit flips at `node`,
    /// each choosing between the volatile engine's value blocks and the
    /// durable WAL bytes. A crash-stopped node's parked disk takes every
    /// flip on the WAL.
    pub(super) fn apply_storage_rot(&mut self, node: NodeId, rot_seed: u64) {
        let mut rng = DetRng::new(rot_seed).substream("storage-rot");
        const FLIPS: usize = 3;
        for _ in 0..FLIPS {
            // Three draws per flip regardless of target, so the trace
            // shape is fixed.
            let target_wal = rng.unit() < 0.5;
            let byte = (rng.unit() * 65_536.0) as usize;
            let bit = (rng.unit() * 8.0) as usize;
            if let Some(state) = self.nodes.get_mut(&node) {
                if target_wal {
                    state.wal_mut().flip_bit(byte, bit);
                } else {
                    state.storage_mut().corrupt_nth_value(byte, bit);
                }
            } else if let Some(wal) = self.membership.disks.get_mut(&node) {
                wal.flip_bit(byte, bit);
            }
        }
    }
}
