//! Durable, WAL-backed upload spool: the cloud-outage survival kit.
//!
//! The paper's topology funnels every unique chunk over one uplink to
//! the central cloud, so an uplink cut would either stall ingest or
//! silently drop durability. The [`UploadSpool`] breaks that coupling:
//! a unique accepted during an outage is appended to a local
//! write-ahead log *first* (the client's ack never waits on the cloud),
//! then drained under a bandwidth cap when the uplink heals. Transfers
//! are resumable — an entry is retired only when the matching
//! [`Message::CloudUploadAck`](crate::msg::Message) lands, so dropped
//! or corrupted frames are simply re-sent on a later drain tick — and
//! priority-classed: client [`SpoolClass::Critical`] payloads always
//! drain before [`SpoolClass::Background`] traffic, reusing the
//! ordering the admission controller already enforces for shedding.
//!
//! The same spool doubles as durable parking for hinted handoff during
//! ring disasters: hints destined for a wiped site are moved off the
//! holder's volatile heap into [`SpoolDest::Node`] entries, so a later
//! crash of the hint holder cannot lose them (see
//! `SimCluster::ring_outage_at`).
//!
//! Determinism: the spool draws no randomness and iterates only ordered
//! structures; identical enqueue/ack sequences yield identical batches.

use crate::storage::{WalRecord, WriteAheadLog};
use bytes::Bytes;
use ef_netsim::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Drain priority of a spooled transfer.
///
/// Mirrors PR 6's shedding classes: client dedup payloads are the last
/// thing shed and the first thing drained; repair/hint traffic yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SpoolClass {
    /// A client `CheckAndInsert` payload: drains before everything else.
    Critical,
    /// Hint replays and other repair traffic: drains after criticals.
    Background,
}

/// Where a spooled transfer is bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SpoolDest {
    /// The central cloud catalog, over the bandwidth-capped uplink.
    Cloud,
    /// A ring peer (a durably parked hint), sent once the peer is back.
    Node(NodeId),
}

/// One pending spooled transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpoolEntry {
    /// Drain priority.
    pub class: SpoolClass,
    /// Destination.
    pub dest: SpoolDest,
    /// The fingerprint key.
    pub key: Bytes,
    /// Payload; `None` is a parked delete hint (cloud entries always
    /// carry a payload).
    pub value: Option<Bytes>,
    /// Transmissions attempted so far (0 = never sent).
    attempts: u32,
}

impl SpoolEntry {
    /// Payload bytes this entry charges against a drain tick's cap.
    pub fn payload_len(&self) -> u64 {
        (self.key.len() + self.value.as_ref().map_or(0, Bytes::len)) as u64
    }
}

/// Disaster-tolerance counters, merged into
/// `RobustnessMetrics::disaster`.
///
/// All-zero unless a cloud uplink was enabled or a disaster was
/// injected, so clean-run quietness checks hold unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct DisasterStats {
    /// Entries accepted into upload spools.
    #[serde(default)]
    pub spool_enqueued: u64,
    /// Entries fully drained (cloud-acked or hint-delivered).
    #[serde(default)]
    pub spool_drained: u64,
    /// Re-sent entries: a transfer whose earlier frame was lost,
    /// blacked out, or corrupted (resumability in action).
    #[serde(default)]
    pub spool_retransmits: u64,
    /// Entries still pending at observation time.
    #[serde(default)]
    pub spool_depth: u64,
    /// Highest pending-entry count any spool ever reached.
    #[serde(default)]
    pub spool_high_water: u64,
    /// Payload bytes accepted into spools.
    #[serde(default)]
    pub spool_bytes_enqueued: u64,
    /// Payload bytes fully drained.
    #[serde(default)]
    pub spool_bytes_drained: u64,
    /// Hints moved off a volatile heap into a durable spool because
    /// their target sat inside a ring-outage window.
    #[serde(default)]
    pub hints_spooled: u64,
    /// Chunks rebuilt from a neighbor ring during mesh repair.
    #[serde(default)]
    pub mesh_repairs: u64,
    /// Chunks no neighbor held, rebuilt from the cloud catalog.
    #[serde(default)]
    pub cloud_repairs: u64,
    /// Payload bytes fetched from neighbor rings.
    #[serde(default)]
    pub repair_bytes_mesh: u64,
    /// Payload bytes fetched from the cloud catalog.
    #[serde(default)]
    pub repair_bytes_cloud: u64,
    /// Accumulated SNOD2 wire cost (milliseconds, rounded) of mesh
    /// repair round-trips; with [`DisasterStats::repair_cost_cloud_ms`]
    /// this prices a neighbor-ring hit below a cloud round-trip.
    #[serde(default)]
    pub repair_cost_mesh_ms: u64,
    /// Accumulated wire cost (milliseconds, rounded) of cloud-fallback
    /// repair round-trips.
    #[serde(default)]
    pub repair_cost_cloud_ms: u64,
    /// Edge sites wiped by ring outages.
    #[serde(default)]
    pub ring_wipes: u64,
    /// Cloud-outage windows registered with the cluster.
    #[serde(default)]
    pub outage_windows: u64,
    /// Worst observed heal-to-repair-delivery latency in nanoseconds
    /// (time-to-recovery for a wiped ring).
    #[serde(default)]
    pub recovery_ns_max: u64,
}

impl DisasterStats {
    /// Folds `other` into `self`: counters add (saturating), peaks and
    /// worst-case latencies take the max.
    pub fn merge(&mut self, other: &DisasterStats) {
        self.spool_enqueued = self.spool_enqueued.saturating_add(other.spool_enqueued);
        self.spool_drained = self.spool_drained.saturating_add(other.spool_drained);
        self.spool_retransmits = self
            .spool_retransmits
            .saturating_add(other.spool_retransmits);
        self.spool_depth = self.spool_depth.saturating_add(other.spool_depth);
        self.spool_high_water = self.spool_high_water.max(other.spool_high_water);
        self.spool_bytes_enqueued = self
            .spool_bytes_enqueued
            .saturating_add(other.spool_bytes_enqueued);
        self.spool_bytes_drained = self
            .spool_bytes_drained
            .saturating_add(other.spool_bytes_drained);
        self.hints_spooled = self.hints_spooled.saturating_add(other.hints_spooled);
        self.mesh_repairs = self.mesh_repairs.saturating_add(other.mesh_repairs);
        self.cloud_repairs = self.cloud_repairs.saturating_add(other.cloud_repairs);
        self.repair_bytes_mesh = self
            .repair_bytes_mesh
            .saturating_add(other.repair_bytes_mesh);
        self.repair_bytes_cloud = self
            .repair_bytes_cloud
            .saturating_add(other.repair_bytes_cloud);
        self.repair_cost_mesh_ms = self
            .repair_cost_mesh_ms
            .saturating_add(other.repair_cost_mesh_ms);
        self.repair_cost_cloud_ms = self
            .repair_cost_cloud_ms
            .saturating_add(other.repair_cost_cloud_ms);
        self.ring_wipes = self.ring_wipes.saturating_add(other.ring_wipes);
        self.outage_windows = self.outage_windows.saturating_add(other.outage_windows);
        self.recovery_ns_max = self.recovery_ns_max.max(other.recovery_ns_max);
    }

    /// True when no disaster machinery ever engaged.
    pub fn is_quiet(&self) -> bool {
        *self == DisasterStats::default()
    }
}

/// A durable spool of pending outbound transfers.
///
/// Every mutation is written through an embedded [`WriteAheadLog`]
/// before the in-memory queue changes: an enqueue appends a put, a
/// retirement appends a delete, and the WAL's self-compacting snapshot
/// keeps the on-disk footprint proportional to the *pending* set, not
/// the total ever enqueued. [`UploadSpool::recover`] rebuilds the exact
/// pending queue (priority order included) from the log alone, so a
/// crash-stopped node resumes its drain where it left off.
#[derive(Debug, Clone, Default)]
pub struct UploadSpool {
    wal: WriteAheadLog,
    /// The pending queue, keyed by enqueue sequence number: iteration is
    /// FIFO order and an entry leaves from anywhere in O(log n).
    entries: BTreeMap<u64, SpoolEntry>,
    /// Pending `(class, dest, key)` triples → their sequence number,
    /// mirroring `entries`: the idempotent-enqueue check and the
    /// ack-to-entry lookup are O(log n) instead of full-queue scans (the
    /// hot loops during and right after an outage).
    index: BTreeMap<(SpoolClass, SpoolDest, Bytes), u64>,
    next_seq: u64,
    enqueued: u64,
    drained: u64,
    bytes_enqueued: u64,
    bytes_drained: u64,
    retransmits: u64,
    high_water: u64,
}

/// Durable record key: a class byte, a dest tag and (for a node) its id,
/// then the fingerprint key. Returns the prefix and how much of it is
/// used; the WAL writes prefix and key back to back.
fn meta_prefix(class: SpoolClass, dest: SpoolDest) -> ([u8; 6], usize) {
    let class = match class {
        SpoolClass::Critical => 0,
        SpoolClass::Background => 1,
    };
    match dest {
        SpoolDest::Cloud => ([class, 0, 0, 0, 0, 0], 2),
        SpoolDest::Node(n) => {
            let id = n.0.to_be_bytes();
            ([class, 1, id[0], id[1], id[2], id[3]], 6)
        }
    }
}

fn decode_meta(encoded: &Bytes) -> Option<(SpoolClass, SpoolDest, Bytes)> {
    let class = match encoded.first()? {
        0 => SpoolClass::Critical,
        1 => SpoolClass::Background,
        _ => return None,
    };
    match encoded.get(1)? {
        0 => Some((class, SpoolDest::Cloud, encoded.slice(2..))),
        1 => {
            let id: [u8; 4] = encoded.get(2..6)?.try_into().ok()?;
            let node = NodeId(u32::from_be_bytes(id));
            Some((class, SpoolDest::Node(node), encoded.slice(6..)))
        }
        _ => None,
    }
}

/// Durable record value: a presence byte, then the payload.
fn decode_value(encoded: &Bytes) -> Option<Option<Bytes>> {
    match encoded.first()? {
        0 => Some(None),
        1 => Some(Some(encoded.slice(1..))),
        _ => None,
    }
}

impl UploadSpool {
    /// An empty spool whose WAL self-compacts every `snapshot_every`
    /// appends (0 disables compaction).
    pub fn new(snapshot_every: u64) -> Self {
        UploadSpool {
            wal: WriteAheadLog::new(snapshot_every),
            ..UploadSpool::default()
        }
    }

    /// Accepts a transfer, writing it to the WAL before the queue.
    ///
    /// Idempotent per `(class, dest, key)`: a transfer already pending
    /// is not duplicated (its payload is the same chunk) and `false` is
    /// returned.
    pub fn enqueue(
        &mut self,
        class: SpoolClass,
        dest: SpoolDest,
        key: Bytes,
        value: Option<Bytes>,
    ) -> bool {
        if self.index.contains_key(&(class, dest, key.clone())) {
            return false;
        }
        let (prefix, used) = meta_prefix(class, dest);
        let value_parts: [&[u8]; 2] = match &value {
            Some(v) => [&[1], v],
            None => [&[0], &[]],
        };
        self.wal
            .append(&[&prefix[..used], &key], Some(&value_parts));
        let entry = SpoolEntry {
            class,
            dest,
            key,
            value,
            attempts: 0,
        };
        self.enqueued += 1;
        self.bytes_enqueued += entry.payload_len();
        self.push(entry);
        self.high_water = self.high_water.max(self.entries.len() as u64);
        true
    }

    /// Appends `entry` to the queue and the index (nothing durable).
    fn push(&mut self, entry: SpoolEntry) {
        let triple = (entry.class, entry.dest, entry.key.clone());
        self.index.insert(triple, self.next_seq);
        self.entries.insert(self.next_seq, entry);
        self.next_seq += 1;
    }

    /// Removes the entry with sequence number `seq` from queue and
    /// index, durably (a WAL delete), and counts it drained.
    fn retire(&mut self, seq: u64) -> Option<SpoolEntry> {
        let entry = self.entries.remove(&seq)?;
        let (prefix, used) = meta_prefix(entry.class, entry.dest);
        self.wal.append(&[&prefix[..used], &entry.key], None);
        self.index
            .remove(&(entry.class, entry.dest, entry.key.clone()));
        self.drained += 1;
        self.bytes_drained += entry.payload_len();
        Some(entry)
    }

    /// Rebuilds a spool from a recovered WAL (crash-stop restart path).
    pub fn recover(wal: WriteAheadLog) -> Self {
        // The strict replay is safe here: the spool WAL is only ever
        // handed over intact in the simulation (torn-tail injection
        // targets storage WALs); an unreadable log yields an empty
        // spool, which anti-entropy and re-upload absorb.
        let records = wal.replay().unwrap_or_default();
        // One backward pass: a put is still pending exactly when no
        // later record retires its `(class, dest, key)`.
        let mut retired = BTreeSet::new();
        let mut pending = Vec::new();
        for record in records.iter().rev() {
            match record {
                WalRecord::Put(meta, value) => {
                    if let (Some((class, dest, key)), Some(value)) =
                        (decode_meta(meta), decode_value(value))
                    {
                        if !retired.contains(&(class, dest, key.clone())) {
                            pending.push(SpoolEntry {
                                class,
                                dest,
                                key,
                                value,
                                attempts: 0,
                            });
                        }
                    }
                }
                WalRecord::Delete(meta) => retired.extend(decode_meta(meta)),
            }
        }
        let mut spool = UploadSpool {
            wal,
            ..UploadSpool::default()
        };
        for entry in pending.into_iter().rev() {
            spool.push(entry);
        }
        spool.high_water = spool.entries.len() as u64;
        spool
    }

    /// Consumes the spool, yielding its WAL for durable parking (the
    /// inverse of [`UploadSpool::recover`]).
    pub fn into_wal(self) -> WriteAheadLog {
        self.wal
    }

    /// Plans one drain tick: pending cloud-bound entries in priority
    /// order (criticals first, FIFO within a class), up to `byte_cap`
    /// payload bytes — always at least one entry, so a chunk larger
    /// than the cap still makes progress. Each planned entry counts a
    /// transmission attempt; re-planning an entry whose earlier send
    /// was never acked counts a retransmit.
    pub fn plan_cloud_batch(&mut self, byte_cap: u64) -> Vec<(Bytes, Bytes)> {
        let mut batch = Vec::new();
        let mut budget = 0u64;
        'plan: for class in [SpoolClass::Critical, SpoolClass::Background] {
            let fifo = self.entries.values_mut();
            for entry in fifo.filter(|e| e.class == class && e.dest == SpoolDest::Cloud) {
                let len = entry.payload_len();
                if !batch.is_empty() && budget + len > byte_cap {
                    break 'plan;
                }
                if entry.attempts > 0 {
                    self.retransmits += 1;
                }
                entry.attempts += 1;
                budget += len;
                let value = entry.value.clone().unwrap_or_default();
                batch.push((entry.key.clone(), value));
                if budget >= byte_cap {
                    break 'plan;
                }
            }
        }
        batch
    }

    /// Retires the pending cloud transfer for `key` after its ack
    /// landed, durably (a WAL delete). Returns the payload length, or
    /// `None` for an unknown/already-retired key (stale ack).
    pub fn retire_cloud(&mut self, key: &[u8]) -> Option<u64> {
        // The same key may be pending under both classes: the ack
        // retires whichever was enqueued first.
        let key = Bytes::copy_from_slice(key);
        let seq = [SpoolClass::Critical, SpoolClass::Background]
            .into_iter()
            .filter_map(|class| self.index.get(&(class, SpoolDest::Cloud, key.clone())))
            .min()
            .copied()?;
        self.retire(seq).map(|entry| entry.payload_len())
    }

    /// Takes (and durably retires) every entry parked for `node`, in
    /// FIFO order. Called when the node is reachable again; delivery
    /// rides the ordinary hint-replay path, whose losses anti-entropy
    /// backfills — matching volatile hint semantics.
    pub fn take_for_node(&mut self, node: NodeId) -> Vec<SpoolEntry> {
        let parked: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, e)| e.dest == SpoolDest::Node(node))
            .map(|(&seq, _)| seq)
            .collect();
        parked
            .into_iter()
            .filter_map(|seq| self.retire(seq))
            .collect()
    }

    /// The pending entries in queue order (tests and audits; the drain
    /// planner uses [`UploadSpool::plan_cloud_batch`]).
    pub fn pending(&self) -> impl Iterator<Item = &SpoolEntry> {
        self.entries.values()
    }

    /// The distinct node destinations with pending entries, in id order
    /// (the drain loop probes each for reachability).
    pub fn node_dests(&self) -> Vec<NodeId> {
        let mut dests: Vec<NodeId> = self
            .entries
            .values()
            .filter_map(|e| match e.dest {
                SpoolDest::Node(node) => Some(node),
                SpoolDest::Cloud => None,
            })
            .collect();
        dests.sort_unstable();
        dests.dedup();
        dests
    }

    /// Pending entries (all destinations).
    pub fn depth(&self) -> u64 {
        self.entries.len() as u64
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Highest pending count this spool ever reached.
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Current durable footprint in bytes (snapshot + tail); bounded by
    /// the pending set thanks to WAL self-compaction.
    pub fn wal_bytes(&self) -> usize {
        self.wal.len_bytes()
    }

    /// Folds this spool's counters into `stats`.
    pub fn fold_into(&self, stats: &mut DisasterStats) {
        stats.merge(&DisasterStats {
            spool_enqueued: self.enqueued,
            spool_drained: self.drained,
            spool_retransmits: self.retransmits,
            spool_depth: self.depth(),
            spool_high_water: self.high_water,
            spool_bytes_enqueued: self.bytes_enqueued,
            spool_bytes_drained: self.bytes_drained,
            ..DisasterStats::default()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn criticals_drain_before_background_fifo_within_class() {
        let mut spool = UploadSpool::new(0);
        assert!(spool.enqueue(
            SpoolClass::Background,
            SpoolDest::Cloud,
            bytes("b1"),
            Some(bytes("v")),
        ));
        assert!(spool.enqueue(
            SpoolClass::Critical,
            SpoolDest::Cloud,
            bytes("c1"),
            Some(bytes("v")),
        ));
        assert!(spool.enqueue(
            SpoolClass::Critical,
            SpoolDest::Cloud,
            bytes("c2"),
            Some(bytes("v")),
        ));
        let batch = spool.plan_cloud_batch(u64::MAX);
        let keys: Vec<&[u8]> = batch.iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(keys, vec![b"c1".as_ref(), b"c2".as_ref(), b"b1".as_ref()]);
    }

    #[test]
    fn byte_cap_limits_a_batch_but_never_starves_it() {
        let mut spool = UploadSpool::new(0);
        for i in 0..4 {
            spool.enqueue(
                SpoolClass::Critical,
                SpoolDest::Cloud,
                bytes(&format!("k{i}")),
                Some(Bytes::from(vec![0u8; 100])),
            );
        }
        // Each entry is 102 payload bytes; a 150-byte cap fits one.
        assert_eq!(spool.plan_cloud_batch(150).len(), 1);
        // A cap smaller than any entry still sends one (progress).
        assert_eq!(spool.plan_cloud_batch(1).len(), 1);
    }

    #[test]
    fn unacked_entries_are_replanned_and_counted_as_retransmits() {
        let mut spool = UploadSpool::new(0);
        spool.enqueue(
            SpoolClass::Critical,
            SpoolDest::Cloud,
            bytes("k"),
            Some(bytes("v")),
        );
        assert_eq!(spool.plan_cloud_batch(u64::MAX).len(), 1);
        assert_eq!(spool.plan_cloud_batch(u64::MAX).len(), 1);
        let mut stats = DisasterStats::default();
        spool.fold_into(&mut stats);
        assert_eq!(stats.spool_retransmits, 1);
        // The ack retires it durably; a duplicate ack is a no-op.
        assert_eq!(spool.retire_cloud(b"k"), Some(2));
        assert_eq!(spool.retire_cloud(b"k"), None);
        assert!(spool.is_empty());
        assert!(spool.plan_cloud_batch(u64::MAX).is_empty());
    }

    #[test]
    fn enqueue_is_idempotent_per_pending_transfer() {
        let mut spool = UploadSpool::new(0);
        assert!(spool.enqueue(
            SpoolClass::Critical,
            SpoolDest::Cloud,
            bytes("k"),
            Some(bytes("v")),
        ));
        assert!(!spool.enqueue(
            SpoolClass::Critical,
            SpoolDest::Cloud,
            bytes("k"),
            Some(bytes("v")),
        ));
        assert_eq!(spool.depth(), 1);
        // Once drained, the same key may be spooled again.
        spool.retire_cloud(b"k");
        assert!(spool.enqueue(
            SpoolClass::Critical,
            SpoolDest::Cloud,
            bytes("k"),
            Some(bytes("v")),
        ));
    }

    #[test]
    fn recovery_rebuilds_the_exact_pending_queue() {
        let mut spool = UploadSpool::new(0);
        spool.enqueue(
            SpoolClass::Background,
            SpoolDest::Node(NodeId(7)),
            bytes("hint"),
            None,
        );
        spool.enqueue(
            SpoolClass::Critical,
            SpoolDest::Cloud,
            bytes("acked"),
            Some(bytes("x")),
        );
        spool.enqueue(
            SpoolClass::Critical,
            SpoolDest::Cloud,
            bytes("pending"),
            Some(bytes("payload")),
        );
        spool.retire_cloud(b"acked");
        let before: Vec<SpoolEntry> = spool.pending().cloned().collect();
        let recovered = UploadSpool::recover(spool.into_wal());
        let after: Vec<SpoolEntry> = recovered.pending().cloned().collect();
        assert_eq!(before, after);
        assert_eq!(recovered.depth(), 2);
    }

    #[test]
    fn recovery_of_a_long_log_is_one_pass_and_exact() {
        // An outage's worth of enqueues with retirements interleaved in
        // both ack order and out of order, across both classes and a
        // parked hint destination. Compaction is off so the log is the
        // full history (a snapshot re-orders by record key).
        const N: usize = 10_000;
        let mut spool = UploadSpool::new(0);
        for i in 0..N {
            let key = bytes(&format!("chunk-{i:05}"));
            let (class, dest, value) = match i % 7 {
                0 => (SpoolClass::Background, SpoolDest::Node(NodeId(3)), None),
                1 => (SpoolClass::Background, SpoolDest::Cloud, Some(bytes("bg"))),
                _ => (
                    SpoolClass::Critical,
                    SpoolDest::Cloud,
                    Some(Bytes::from(vec![i as u8; 16 + i % 48])),
                ),
            };
            assert!(spool.enqueue(class, dest, key, value));
            if i % 3 == 2 {
                // Ack an entry from well behind the head.
                spool.retire_cloud(format!("chunk-{:05}", i / 2).as_bytes());
            }
            if i % 1_000 == 999 {
                spool.take_for_node(NodeId(3));
            }
            if i % 500 == 250 {
                // A retired key is spooled again: the later put survives
                // the earlier delete.
                let again = bytes(&format!("chunk-{:05}", i / 2));
                spool.enqueue(SpoolClass::Critical, SpoolDest::Cloud, again, None);
            }
        }
        let before: Vec<SpoolEntry> = spool.pending().cloned().collect();
        assert!(before.len() > N / 3 && before.len() < N, "{}", before.len());
        let mut recovered = UploadSpool::recover(spool.clone().into_wal());
        let after: Vec<SpoolEntry> = recovered.pending().cloned().collect();
        assert_eq!(before, after);
        assert_eq!(recovered.high_water(), before.len() as u64);
        // The rebuilt index answers like the original: enqueue stays
        // idempotent, acks find their entry, plans agree.
        let probe = before[before.len() / 2].clone();
        assert!(!recovered.enqueue(probe.class, probe.dest, probe.key.clone(), probe.value));
        assert_eq!(
            recovered.plan_cloud_batch(64 * 1024),
            spool.plan_cloud_batch(64 * 1024)
        );
        let cloud = before.iter().rfind(|e| e.dest == SpoolDest::Cloud).unwrap();
        assert_eq!(
            recovered.retire_cloud(&cloud.key),
            Some(cloud.payload_len())
        );
        assert_eq!(recovered.depth(), before.len() as u64 - 1);
    }

    #[test]
    fn plan_order_is_criticals_then_backgrounds_fifo_under_a_byte_cap() {
        let mut spool = UploadSpool::new(0);
        let payload = |n: usize| Some(Bytes::from(vec![7u8; n]));
        // Queue order: b1, hint, c1, b2, c2, hint, c3 (key 2 bytes each).
        for (class, dest, key, len) in [
            (SpoolClass::Background, SpoolDest::Cloud, "b1", 10),
            (SpoolClass::Background, SpoolDest::Node(NodeId(9)), "h1", 10),
            (SpoolClass::Critical, SpoolDest::Cloud, "c1", 30),
            (SpoolClass::Background, SpoolDest::Cloud, "b2", 10),
            (SpoolClass::Critical, SpoolDest::Cloud, "c2", 30),
            (SpoolClass::Critical, SpoolDest::Node(NodeId(9)), "h2", 10),
            (SpoolClass::Critical, SpoolDest::Cloud, "c3", 30),
        ] {
            assert!(spool.enqueue(class, dest, bytes(key), payload(len)));
        }
        let keys = |batch: Vec<(Bytes, Bytes)>| -> Vec<String> {
            let keys = batch.into_iter();
            keys.map(|(k, _)| String::from_utf8_lossy(&k).into_owned())
                .collect()
        };
        // Uncapped: every critical in FIFO order, then every background;
        // parked hints never ride a cloud batch.
        assert_eq!(
            keys(spool.plan_cloud_batch(u64::MAX)),
            ["c1", "c2", "c3", "b1", "b2"]
        );
        // 32 B per critical: a 70-byte cap admits two and stops — it
        // does not skip ahead to a background entry that would fit.
        assert_eq!(keys(spool.plan_cloud_batch(70)), ["c1", "c2"]);
        // The cap landing exactly on an entry boundary closes the batch.
        assert_eq!(keys(spool.plan_cloud_batch(64)), ["c1", "c2"]);
        // Once the criticals are acked the backgrounds get the cap.
        for key in [b"c1", b"c2", b"c3"] {
            spool.retire_cloud(key);
        }
        assert_eq!(keys(spool.plan_cloud_batch(13)), ["b1"]);
        assert_eq!(keys(spool.plan_cloud_batch(24)), ["b1", "b2"]);
        let mut stats = DisasterStats::default();
        spool.fold_into(&mut stats);
        // c1 ×3, c2 ×3, c3 ×1, b1 ×3, b2 ×2 plans: 12 sends, 5 firsts.
        assert_eq!(stats.spool_retransmits, 7);
    }

    #[test]
    fn node_entries_are_taken_fifo_and_survive_cloud_planning() {
        let mut spool = UploadSpool::new(0);
        spool.enqueue(
            SpoolClass::Background,
            SpoolDest::Node(NodeId(3)),
            bytes("h1"),
            Some(bytes("v1")),
        );
        spool.enqueue(
            SpoolClass::Background,
            SpoolDest::Node(NodeId(4)),
            bytes("h2"),
            None,
        );
        spool.enqueue(
            SpoolClass::Background,
            SpoolDest::Node(NodeId(3)),
            bytes("h3"),
            None,
        );
        // Cloud planning never touches parked hints.
        assert!(spool.plan_cloud_batch(u64::MAX).is_empty());
        let taken = spool.take_for_node(NodeId(3));
        assert_eq!(taken.len(), 2);
        assert_eq!(taken[0].key.as_ref(), b"h1");
        assert_eq!(taken[1].key.as_ref(), b"h3");
        assert_eq!(spool.depth(), 1);
    }

    #[test]
    fn wal_compaction_bounds_the_durable_footprint() {
        let mut spool = UploadSpool::new(8);
        for i in 0..200 {
            let key = bytes(&format!("key-{i:04}"));
            spool.enqueue(
                SpoolClass::Critical,
                SpoolDest::Cloud,
                key.clone(),
                Some(Bytes::from(vec![0u8; 64])),
            );
            spool.retire_cloud(&key);
        }
        assert!(spool.is_empty());
        // 200 puts + 200 deletes flowed through, but compaction folds
        // retired entries away: the footprint stays near-empty instead
        // of growing with history.
        assert!(
            spool.wal_bytes() < 1024,
            "spool WAL grew unbounded: {} bytes",
            spool.wal_bytes()
        );
        let mut stats = DisasterStats::default();
        spool.fold_into(&mut stats);
        assert_eq!(stats.spool_enqueued, 200);
        assert_eq!(stats.spool_drained, 200);
        assert_eq!(stats.spool_depth, 0);
    }

    #[test]
    fn stats_merge_adds_counters_and_maxes_peaks() {
        let a = DisasterStats {
            spool_enqueued: 3,
            spool_high_water: 5,
            recovery_ns_max: 100,
            mesh_repairs: 2,
            ..DisasterStats::default()
        };
        let mut b = DisasterStats {
            spool_enqueued: 4,
            spool_high_water: 2,
            recovery_ns_max: 900,
            cloud_repairs: 1,
            ..DisasterStats::default()
        };
        b.merge(&a);
        assert_eq!(b.spool_enqueued, 7);
        assert_eq!(b.spool_high_water, 5);
        assert_eq!(b.recovery_ns_max, 900);
        assert_eq!(b.mesh_repairs, 2);
        assert_eq!(b.cloud_repairs, 1);
        assert!(!b.is_quiet());
        assert!(DisasterStats::default().is_quiet());
    }
}
