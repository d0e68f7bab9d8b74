//! Durable, log-backed upload spool: the cloud-outage survival kit.
//!
//! The paper's topology funnels every unique chunk over one uplink to
//! the central cloud, so an uplink cut would either stall ingest or
//! silently drop durability. The [`UploadSpool`] breaks that coupling:
//! a unique accepted during an outage is appended to a local durable
//! log *first* (the client's ack never waits on the cloud),
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
//! `ClusterFault::RingOutage`).
//!
//! The log ([`SpoolLog`]) is shaped by that workload — a queue, not a
//! key-value state: payloads enter at the tail and leave, mostly in
//! order, from the head. It is a run of segments that are dropped whole
//! once everything in them is retired, so a payload byte is written once
//! and never rewritten on its way through (DESIGN.md §14).
//!
//! Determinism: the spool draws no randomness and iterates only ordered
//! structures; identical enqueue/ack sequences yield identical batches.

use crate::counters::DisasterStats;
use crate::integrity::Summed;
use crate::storage::{encode_delete, encode_put, frame_at, Frame};
use bytes::Bytes;
use ef_netsim::NodeId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Drain priority of a spooled transfer.
///
/// Mirrors PR 6's shedding classes: client dedup payloads are the last
/// thing shed and the first thing drained; repair/hint traffic yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpoolClass {
    /// A client `CheckAndInsert` payload: drains before everything else.
    Critical,
    /// Hint replays and other repair traffic: drains after criticals.
    Background,
}

/// Where a spooled transfer is bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
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
    /// `checksum64` of the put frame's payload field: the value's bytes,
    /// or none for a parked delete. The sum the value carried in, else
    /// the one its put frame took of the copy it wrote, or the replay's.
    sum: u64,
}

impl SpoolEntry {
    /// Payload bytes this entry charges against a drain tick's cap.
    pub fn payload_len(&self) -> u64 {
        (self.key.len() + self.value.as_ref().map_or(0, Bytes::len)) as u64
    }

    /// The value with the sum the spool holds of it.
    pub(crate) fn summed(&self) -> Option<Summed> {
        let value = self.value.clone()?;
        Some(Summed::with_sum(value, self.sum))
    }
}

/// One stretch of a [`SpoolLog`]: whole frames, back to back.
#[derive(Debug, Clone, Default)]
struct Segment {
    frames: Vec<u8>,
    /// Frames in `frames` (puts, tombstones and copies alike).
    records: u64,
    /// Put frames in `frames` whose entry is still pending.
    live: u64,
}

/// The spool's durable log: checksummed frames (the write-ahead log's
/// framing and frame checksum) in an append-only run of
/// segments, oldest first. The last segment is open and takes every
/// append; once it holds `seal_every` records it is sealed and a new one
/// opens.
///
/// A put frame carries its entry's sequence number, class, whether it
/// has a value, destination and key in its key field and the value alone
/// as its payload, so the frame is stamped from the sum the value
/// carries; a tombstone carries the sequence number it retires.
/// Space comes back a segment at a time: the head segment is dropped
/// whole as soon as none of its puts is pending. Tombstones need no
/// accounting of their own — a put never outlives the segment its
/// tombstone sits in, because the tombstone was appended later.
#[derive(Debug, Clone, Default)]
pub struct SpoolLog {
    /// Sealed segments, oldest first.
    sealed: VecDeque<Segment>,
    /// The segment taking appends, behind the sealed ones.
    open: Segment,
    /// Id of the head (oldest) segment; ids count up along the run and
    /// are never reused.
    head_id: u64,
    /// Records per segment (0: the open segment never seals).
    seal_every: u64,
    /// Bytes in all segments.
    bytes: usize,
    /// Bytes in put frames whose entry is still pending.
    live_bytes: usize,
    /// Bytes ever appended, frames copied forward included.
    written: u64,
}

/// The variable-width head of a put frame's key field: sequence number,
/// class, presence of a value, destination tag and (for a node) its id;
/// the fingerprint key follows. Returns the buffer and how much of it is
/// used.
fn put_header(seq: u64, entry: &SpoolEntry) -> ([u8; 15], usize) {
    let mut header = [0u8; 15];
    header[..8].copy_from_slice(&seq.to_le_bytes());
    header[8] = match entry.class {
        SpoolClass::Critical => 0,
        SpoolClass::Background => 1,
    };
    header[9] = u8::from(entry.value.is_some());
    match entry.dest {
        SpoolDest::Cloud => (header, 11),
        SpoolDest::Node(node) => {
            header[10] = 1;
            header[11..].copy_from_slice(&node.0.to_be_bytes());
            (header, 15)
        }
    }
}

/// The inverse of [`put_header`] plus the key behind it: class,
/// destination, key, and whether the payload is a value.
fn decode_put_key(field: &[u8]) -> Option<(SpoolClass, SpoolDest, Bytes, bool)> {
    let class = match field.get(8)? {
        0 => SpoolClass::Critical,
        1 => SpoolClass::Background,
        _ => return None,
    };
    let present = match field.get(9)? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let (dest, key) = match field.get(10)? {
        0 => (SpoolDest::Cloud, &field[11..]),
        1 => {
            let id: [u8; 4] = field.get(11..15)?.try_into().ok()?;
            (
                SpoolDest::Node(NodeId(u32::from_be_bytes(id))),
                &field[15..],
            )
        }
        _ => return None,
    };
    Some((class, dest, Bytes::copy_from_slice(key), present))
}

impl SpoolLog {
    /// Appends the frame `encode` writes to the open segment, sealing it
    /// and opening a new one first if it is full. Returns that segment's
    /// id, the frame's length and what `encode` returned.
    fn append<R>(&mut self, encode: impl FnOnce(&mut Vec<u8>) -> R) -> (u64, usize, R) {
        if self.seal_every != 0 && self.open.records >= self.seal_every {
            // Segments of one spool come out alike: sizing the buffer like
            // its predecessor spares it the grow-and-copy steps.
            let next = Segment {
                frames: Vec::with_capacity(self.open.frames.len()),
                ..Segment::default()
            };
            self.sealed
                .push_back(std::mem::replace(&mut self.open, next));
        }
        let start = self.open.frames.len();
        let encoded = encode(&mut self.open.frames);
        self.open.records += 1;
        let len = self.open.frames.len() - start;
        self.bytes += len;
        self.written += len as u64;
        (self.head_id + self.sealed.len() as u64, len, encoded)
    }

    /// Appends `entry`'s put frame and counts it live in its segment. The
    /// frame is stamped from `sum` when the value carries one, else from
    /// the sum of the copy it writes; returns the segment id, the frame's
    /// length and the sum.
    fn append_put(&mut self, seq: u64, entry: &SpoolEntry, sum: Option<u64>) -> (u64, usize, u64) {
        let (header, used) = put_header(seq, entry);
        let key: [&[u8]; 2] = [&header[..used], &entry.key];
        let payload = entry.value.as_deref().unwrap_or_default();
        let at = self.append(|frames| encode_put(frames, &key, payload, sum));
        self.open.live += 1;
        at
    }

    fn segment_mut(&mut self, id: u64) -> &mut Segment {
        let at = (id - self.head_id) as usize;
        if at < self.sealed.len() {
            &mut self.sealed[at]
        } else {
            &mut self.open
        }
    }

    /// The oldest segment (the open one when nothing is sealed).
    fn head(&self) -> &Segment {
        self.sealed.front().unwrap_or(&self.open)
    }

    fn drop_head(&mut self) {
        let head = match self.sealed.pop_front() {
            Some(head) => head,
            None => std::mem::take(&mut self.open),
        };
        self.bytes -= head.frames.len();
        self.head_id += 1;
    }

    /// What the log says is pending: one backward pass over every frame,
    /// newest first, each verified against its checksum. A tombstone
    /// settles its sequence number; a put whose number nothing newer has
    /// settled is pending, and is returned with where its frame sits.
    /// `None` when a frame is torn, rotted or malformed.
    fn pending(&self) -> Option<Vec<(u64, Slot)>> {
        let mut settled = BTreeSet::new();
        let mut pending = Vec::new();
        let newest_first = std::iter::once(&self.open).chain(self.sealed.iter().rev());
        for (back, segment) in newest_first.enumerate() {
            let id = self.head_id + (self.sealed.len() - back) as u64;
            let bytes = &segment.frames[..];
            let mut frames = Vec::with_capacity(segment.records as usize);
            let mut offset = 0;
            while let Some(frame) = frame_at(bytes, offset).ok()? {
                let next = frame.end;
                frames.push((offset, frame));
                offset = next;
            }
            for (start, Frame { key, value, end }) in frames.into_iter().rev() {
                let seq: [u8; 8] = bytes[key.clone()].get(..8)?.try_into().ok()?;
                let seq = u64::from_le_bytes(seq);
                // Settled by a newer frame: a tombstone, or (had a crash
                // cut a copy-forward short of dropping the head) a copy.
                let settled = !settled.insert(seq);
                let Some((value, sum)) = value.filter(|_| !settled) else {
                    continue;
                };
                let (class, dest, key, present) = decode_put_key(&bytes[key])?;
                // The replay's own digest of the payload is its sum.
                let value = present.then(|| Bytes::copy_from_slice(&bytes[value]));
                let entry = SpoolEntry {
                    class,
                    dest,
                    key,
                    value,
                    attempts: 0,
                    sum,
                };
                let slot = Slot {
                    entry,
                    segment: id,
                    frame_len: end - start,
                };
                pending.push((seq, slot));
            }
        }
        Some(pending)
    }
}

/// A pending entry and where its put frame sits in the log.
#[derive(Debug, Clone)]
struct Slot {
    entry: SpoolEntry,
    segment: u64,
    frame_len: usize,
}

/// A durable spool of pending outbound transfers.
///
/// Every mutation is written through an embedded [`SpoolLog`] before the
/// in-memory queue changes: an enqueue appends a put frame, a retirement
/// appends a tombstone. The head segment is dropped the moment nothing
/// in it is pending, so a drain in arrival order rewrites nothing; a
/// straggler that pins the head (a parked hint, an ack lost for good) is
/// copied forward to the tail once the log outgrows twice its pending
/// bytes plus the head, which keeps the footprint proportional to the
/// *pending* set, not the total ever enqueued.
/// [`UploadSpool::recover`] rebuilds the exact pending queue (order
/// included) from the log alone, so a crash-stopped node resumes its
/// drain where it left off.
#[derive(Debug, Clone, Default)]
pub struct UploadSpool {
    log: SpoolLog,
    /// The pending queue, keyed by enqueue sequence number: iteration is
    /// FIFO order and an entry leaves from anywhere in O(log n).
    entries: BTreeMap<u64, Slot>,
    /// Pending keys → their sequence number, per `(class, dest)`,
    /// mirroring `entries`: the idempotent-enqueue check and the
    /// ack-to-entry lookup are O(log n) probes by borrowed key instead of
    /// full-queue scans (the hot loops during and right after an outage).
    index: BTreeMap<(SpoolClass, SpoolDest), BTreeMap<Bytes, u64>>,
    next_seq: u64,
    /// The `spool_*` counters this spool keeps for itself; `spool_depth`
    /// is read off the queue by [`UploadSpool::stats`].
    stats: DisasterStats,
}

impl UploadSpool {
    /// An empty spool whose log seals a segment every `snapshot_every`
    /// records (0: one segment, reclaimed only when nothing is pending).
    pub fn new(snapshot_every: u64) -> Self {
        UploadSpool {
            log: SpoolLog {
                seal_every: snapshot_every,
                ..SpoolLog::default()
            },
            ..UploadSpool::default()
        }
    }

    /// Accepts a transfer, writing it to the log before the queue.
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
        self.enqueue_with(class, dest, key, value, None)
    }

    /// [`UploadSpool::enqueue`] of a value this node has summed: its put
    /// frame is stamped from that sum, and so are the frames that later
    /// carry it.
    pub(crate) fn enqueue_summed(
        &mut self,
        class: SpoolClass,
        dest: SpoolDest,
        key: Bytes,
        value: Option<Summed>,
    ) -> bool {
        let sum = value.as_ref().map(Summed::sum);
        self.enqueue_with(class, dest, key, value.map(Summed::into_bytes), sum)
    }

    /// The one enqueue: `sum` is the value's when the caller carries it;
    /// without, the put frame sums the copy it writes.
    fn enqueue_with(
        &mut self,
        class: SpoolClass,
        dest: SpoolDest,
        key: Bytes,
        value: Option<Bytes>,
        sum: Option<u64>,
    ) -> bool {
        if self.seq_of(class, dest, &key).is_some() {
            return false;
        }
        let mut entry = SpoolEntry {
            class,
            dest,
            key,
            value,
            attempts: 0,
            sum: 0,
        };
        let seq = self.next_seq;
        let (segment, frame_len, sum) = self.log.append_put(seq, &entry, sum);
        entry.sum = sum;
        self.log.live_bytes += frame_len;
        self.stats.spool_enqueued += 1;
        self.stats.spool_bytes_enqueued += entry.payload_len();
        self.insert(
            seq,
            Slot {
                entry,
                segment,
                frame_len,
            },
        );
        self.stats.spool_high_water = self.stats.spool_high_water.max(self.depth());
        true
    }

    /// The sequence number of the pending `(class, dest, key)` transfer.
    fn seq_of(&self, class: SpoolClass, dest: SpoolDest, key: &[u8]) -> Option<u64> {
        self.index.get(&(class, dest))?.get(key).copied()
    }

    /// Puts `slot` into queue and index under `seq` (nothing durable).
    fn insert(&mut self, seq: u64, slot: Slot) {
        let SpoolEntry {
            class, dest, key, ..
        } = &slot.entry;
        let keys = self.index.entry((*class, *dest)).or_default();
        keys.insert(key.clone(), seq);
        self.entries.insert(seq, slot);
        self.next_seq = self.next_seq.max(seq + 1);
    }

    /// Removes the entry with sequence number `seq` from queue and
    /// index, durably (a tombstone), and counts it drained.
    fn retire(&mut self, seq: u64) -> Option<SpoolEntry> {
        let Slot {
            entry,
            segment,
            frame_len,
        } = self.entries.remove(&seq)?;
        if let Some(keys) = self.index.get_mut(&(entry.class, entry.dest)) {
            keys.remove(&entry.key[..]);
        }
        self.log
            .append(|frames| encode_delete(frames, &[&seq.to_le_bytes()]));
        self.log.segment_mut(segment).live -= 1;
        self.log.live_bytes -= frame_len;
        self.reclaim();
        self.stats.spool_drained += 1;
        self.stats.spool_bytes_drained += entry.payload_len();
        Some(entry)
    }

    /// Gives log space back after a retirement. Head segments with
    /// nothing pending are dropped whole. If what is left still exceeds
    /// twice the pending bytes plus the head segment — dead frames held
    /// in place by a few pending ones at the head — the head's pending
    /// entries are appended again at the tail and the head is dropped,
    /// until the log is back inside that bound.
    fn reclaim(&mut self) {
        loop {
            while self.log.head().live == 0 && self.log.bytes > 0 {
                self.log.drop_head();
            }
            let budget = 2 * self.log.live_bytes + self.log.head().frames.len();
            if self.log.sealed.is_empty() || self.log.bytes <= budget {
                return;
            }
            // Copy first, drop second: at no point is a pending entry
            // without a frame in the log.
            let head_id = self.log.head_id;
            for (&seq, slot) in &mut self.entries {
                if slot.segment == head_id {
                    let sum = Some(slot.entry.sum);
                    slot.segment = self.log.append_put(seq, &slot.entry, sum).0;
                }
            }
            self.log.drop_head();
        }
    }

    /// Rebuilds a spool from a recovered log (crash-stop restart path).
    ///
    /// One backward pass: every frame is verified against its checksum,
    /// a tombstone marks its sequence number retired, and a put is
    /// pending exactly when no later frame retired it. A log that does
    /// not parse yields an empty spool, which anti-entropy and re-upload
    /// absorb (torn-tail injection targets storage WALs, not spools).
    pub fn recover(mut log: SpoolLog) -> Self {
        let Some(pending) = log.pending() else {
            return UploadSpool::new(log.seal_every);
        };
        log.live_bytes = 0;
        for segment in log.sealed.iter_mut().chain([&mut log.open]) {
            segment.live = 0;
        }
        let mut spool = UploadSpool {
            log,
            ..UploadSpool::default()
        };
        for (seq, slot) in pending {
            spool.log.segment_mut(slot.segment).live += 1;
            spool.log.live_bytes += slot.frame_len;
            spool.insert(seq, slot);
        }
        spool.stats.spool_high_water = spool.depth();
        spool
    }

    /// Consumes the spool, yielding its log for durable parking (the
    /// inverse of [`UploadSpool::recover`]).
    pub fn into_wal(self) -> SpoolLog {
        self.log
    }

    /// Plans one drain tick: pending cloud-bound entries in priority
    /// order (criticals first, FIFO within a class), up to `byte_cap`
    /// payload bytes — always at least one entry, so a chunk larger
    /// than the cap still makes progress. Each planned entry counts a
    /// transmission attempt; re-planning an entry whose earlier send
    /// was never acked counts a retransmit.
    pub fn plan_cloud_batch(&mut self, byte_cap: u64) -> Vec<(Bytes, Bytes)> {
        let batch = self.plan_uploads(byte_cap).into_iter();
        batch
            .map(|(key, value)| (key, value.into_bytes()))
            .collect()
    }

    /// [`UploadSpool::plan_cloud_batch`], each payload with the sum the
    /// spool holds of it: what a `CloudUpload` frame is stamped from.
    pub(crate) fn plan_uploads(&mut self, byte_cap: u64) -> Vec<(Bytes, Summed)> {
        let mut batch = Vec::new();
        let mut budget = 0u64;
        let mut retransmits = 0u64;
        // Admits `entry` if the batch has room; false once it is closed.
        let mut admit = |entry: &mut SpoolEntry| {
            let len = entry.payload_len();
            if !batch.is_empty() && budget + len > byte_cap {
                return false;
            }
            retransmits += u64::from(entry.attempts > 0);
            entry.attempts += 1;
            budget += len;
            let value = entry.value.clone().unwrap_or_default();
            batch.push((entry.key.clone(), Summed::with_sum(value, entry.sum)));
            budget < byte_cap
        };
        // One walk of the queue: criticals are admitted as they are met,
        // backgrounds line up behind the last of them.
        let mut backgrounds = Vec::new();
        let mut open = true;
        let cloud_bound = self.entries.values_mut().map(|slot| &mut slot.entry);
        for entry in cloud_bound.filter(|e| e.dest == SpoolDest::Cloud) {
            match entry.class {
                SpoolClass::Critical => {
                    open = admit(entry);
                    if !open {
                        break;
                    }
                }
                SpoolClass::Background => backgrounds.push(entry),
            }
        }
        if open {
            for entry in backgrounds {
                if !admit(entry) {
                    break;
                }
            }
        }
        self.stats.spool_retransmits += retransmits;
        batch
    }

    /// Retires the pending cloud transfer for `key` after its ack
    /// landed, durably (a tombstone). Returns the payload length, or
    /// `None` for an unknown/already-retired key (stale ack).
    pub fn retire_cloud(&mut self, key: &[u8]) -> Option<u64> {
        // The same key may be pending under both classes: the ack
        // retires whichever was enqueued first.
        let seq = [SpoolClass::Critical, SpoolClass::Background]
            .into_iter()
            .filter_map(|class| self.seq_of(class, SpoolDest::Cloud, key))
            .min()?;
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
            .filter(|(_, slot)| slot.entry.dest == SpoolDest::Node(node))
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
        self.entries.values().map(|slot| &slot.entry)
    }

    /// The distinct node destinations with pending entries, in id order
    /// (the drain loop probes each for reachability).
    pub fn node_dests(&self) -> Vec<NodeId> {
        let mut dests: Vec<NodeId> = self
            .pending()
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
        self.stats.spool_high_water
    }

    /// Current durable footprint in bytes (every segment of the log);
    /// bounded by the pending set: at most twice its frames plus the head
    /// segment.
    pub fn wal_bytes(&self) -> usize {
        self.log.bytes
    }

    /// Bytes ever appended to the log, copied-forward frames included:
    /// over the bytes enqueued, the spool's write amplification.
    pub fn wal_bytes_written(&self) -> u64 {
        self.log.written
    }

    /// This spool's counters: the `spool_*` fields, every other zero.
    pub fn stats(&self) -> DisasterStats {
        DisasterStats {
            spool_depth: self.depth(),
            ..self.stats
        }
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
        let stats = spool.stats();
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
        // parked hint destination that pins segment after segment.
        const N: usize = 10_000;
        let mut spool = UploadSpool::new(64);
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
        assert_eq!(recovered.wal_bytes(), spool.wal_bytes());
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
        let stats = spool.stats();
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
        // 200 puts + 200 tombstones flowed through, but a segment with
        // nothing pending is dropped: the footprint is empty instead of
        // growing with history.
        assert_eq!(spool.wal_bytes(), 0);
        let stats = spool.stats();
        assert_eq!(stats.spool_enqueued, 200);
        assert_eq!(stats.spool_drained, 200);
        assert_eq!(stats.spool_depth, 0);
    }

    /// Bytes of the put frame `entry` occupies in the log.
    fn frame_bytes(entry: &SpoolEntry) -> usize {
        let header = match entry.dest {
            SpoolDest::Cloud => 11,
            SpoolDest::Node(_) => 15,
        };
        let payload = entry.value.as_ref().map_or(0, Bytes::len);
        1 + 4 + header + entry.key.len() + 4 + payload + 8
    }

    #[test]
    fn a_fifo_drain_writes_each_payload_byte_once() {
        let mut spool = UploadSpool::new(64);
        for i in 0..1_000u32 {
            let key = Bytes::copy_from_slice(&i.to_be_bytes());
            let payload = Bytes::from(vec![i as u8; 5 * 1024]);
            assert!(spool.enqueue(SpoolClass::Critical, SpoolDest::Cloud, key, Some(payload)));
        }
        let enqueued = spool.wal_bytes_written();
        assert_eq!(enqueued as usize, spool.wal_bytes());
        assert_eq!(
            enqueued as usize,
            spool.pending().map(frame_bytes).sum::<usize>()
        );
        let mut peak = spool.wal_bytes();
        while !spool.is_empty() {
            for (key, _) in spool.plan_cloud_batch(256 * 1024) {
                assert!(spool.retire_cloud(&key).is_some());
                peak = peak.max(spool.wal_bytes());
            }
        }
        // Heads are dropped as the drain passes them, so the log never
        // outgrows what was enqueued by more than the tombstones, and all
        // that is ever written on top of the put frames is 1 000 21-byte
        // tombstones plus the last pending entry, copied forward once
        // when the tombstones behind it outweigh it.
        assert_eq!(spool.wal_bytes(), 0);
        assert!(peak <= enqueued as usize + 1_000 * 21);
        let written = spool.wal_bytes_written();
        assert!(written - enqueued <= 1_000 * 21 + 5 * 1024 + 64);
        assert!(written as f64 <= 1.02 * enqueued as f64, "{written}");
    }

    #[test]
    fn a_straggler_at_the_head_is_copied_forward_not_left_to_pin_the_log() {
        let mut spool = UploadSpool::new(8);
        let hint = bytes("parked");
        spool.enqueue(
            SpoolClass::Background,
            SpoolDest::Node(NodeId(9)),
            hint.clone(),
            Some(bytes("hint payload")),
        );
        let pinned: Vec<SpoolEntry> = spool.pending().cloned().collect();
        let live = frame_bytes(&pinned[0]);
        for i in 0..500u32 {
            let key = Bytes::copy_from_slice(&i.to_be_bytes());
            spool.enqueue(
                SpoolClass::Critical,
                SpoolDest::Cloud,
                key.clone(),
                Some(Bytes::from(vec![7u8; 300])),
            );
            spool.retire_cloud(&key);
            // Never more than twice the hint plus the eight-record
            // segment it sits in, however much flows past it.
            assert!(
                spool.wal_bytes() <= 2 * live + 8 * 400,
                "{}",
                spool.wal_bytes()
            );
        }
        let recovered = UploadSpool::recover(spool.clone().into_wal());
        assert_eq!(recovered.pending().cloned().collect::<Vec<_>>(), pinned);
        assert_eq!(spool.take_for_node(NodeId(9)), pinned);
        assert_eq!(spool.wal_bytes(), 0);
    }

    #[test]
    fn a_copy_forward_cut_short_by_a_crash_recovers_each_entry_once() {
        let mut spool = UploadSpool::new(2);
        for key in ["a", "b", "c", "d", "e"] {
            let value = Some(bytes("payload"));
            spool.enqueue(SpoolClass::Critical, SpoolDest::Cloud, bytes(key), value);
        }
        spool.retire_cloud(b"b");
        let before: Vec<SpoolEntry> = spool.pending().cloned().collect();
        // The head's pending entry has been appended again at the tail,
        // and the crash came before the head was dropped.
        let mut log = spool.clone().into_wal();
        log.append_put(0, &before[0], None);
        let recovered = UploadSpool::recover(log);
        assert_eq!(recovered.pending().cloned().collect::<Vec<_>>(), before);
        // The newer copy is the one the entry now answers to.
        assert_eq!(recovered.entries[&0].segment, 3);
    }

    #[test]
    fn a_damaged_log_recovers_to_an_empty_spool() {
        let mut spool = UploadSpool::new(4);
        for i in 0..10u8 {
            spool.enqueue(
                SpoolClass::Critical,
                SpoolDest::Cloud,
                bytes(&format!("k{i}")),
                Some(Bytes::from(vec![i; 40])),
            );
        }
        let clean = spool.into_wal();
        assert_eq!(UploadSpool::recover(clean.clone()).depth(), 10);
        // Every frame answers to its own checksum on replay: one flipped
        // payload bit anywhere and the log is refused whole.
        assert_eq!(clean.sealed.len(), 2);
        for segment in 0..3 {
            let mut rotted = clean.clone();
            rotted.segment_mut(segment).frames[30] ^= 0x04;
            let recovered = UploadSpool::recover(rotted);
            assert!(recovered.is_empty());
            assert_eq!(recovered.wal_bytes(), 0);
        }
        let mut torn = clean;
        torn.open.frames.truncate(torn.open.frames.len() - 3);
        assert!(UploadSpool::recover(torn).is_empty());
    }

    mod properties {
        use super::*;
        use ef_simcore::prop::{any, check, vec};

        const MAX_PAYLOAD: usize = 90;
        /// Tag, two length fields, node header with its presence byte,
        /// one-byte key, payload, checksum.
        const MAX_FRAME: usize = 1 + 4 + 15 + 1 + 4 + MAX_PAYLOAD + 8;

        fn pending(spool: &UploadSpool) -> Vec<SpoolEntry> {
            spool.pending().cloned().collect()
        }

        /// Whatever the interleaving of enqueues, acks in and out of
        /// order, hint deliveries and re-enqueues of retired keys, at
        /// every step the log alone reproduces the pending queue and
        /// stays within twice its pending frames plus one segment.
        #[test]
        fn the_log_is_the_queue_and_stays_within_its_bound() {
            check(
                "the_log_is_the_queue_and_stays_within_its_bound",
                64,
                (
                    1u64..9,
                    vec((0u8..7, any::<u8>(), 0usize..MAX_PAYLOAD), 1..250),
                ),
                |(seal_every, ops)| {
                    let mut spool = UploadSpool::new(seal_every);
                    let mut last_retired: Option<SpoolEntry> = None;
                    for (op, pick, len) in ops {
                        let cloud: Vec<SpoolEntry> = pending(&spool)
                            .into_iter()
                            .filter(|e| e.dest == SpoolDest::Cloud)
                            .collect();
                        match op {
                            // Enqueue: 24 keys, so pending keys collide (refused)
                            // and retired ones come back.
                            0..=2 => {
                                let (class, dest) = match pick % 5 {
                                    0 => (
                                        SpoolClass::Background,
                                        SpoolDest::Node(NodeId(u32::from(pick % 2))),
                                    ),
                                    1 => (SpoolClass::Background, SpoolDest::Cloud),
                                    _ => (SpoolClass::Critical, SpoolDest::Cloud),
                                };
                                let value = (len > 0).then(|| Bytes::from(vec![pick; len]));
                                spool.enqueue(class, dest, Bytes::from(vec![pick % 24]), value);
                            }
                            // An ack: for the oldest cloud entry, or for one
                            // anywhere in the queue.
                            3 | 4 if !cloud.is_empty() => {
                                let at = if op == 3 {
                                    0
                                } else {
                                    usize::from(pick) % cloud.len()
                                };
                                assert!(spool.retire_cloud(&cloud[at].key).is_some());
                                last_retired = Some(cloud[at].clone());
                            }
                            // A node comes back and takes its hints.
                            5 => {
                                spool.take_for_node(NodeId(u32::from(pick % 2)));
                            }
                            // The entry retired last is spooled again.
                            6 => {
                                if let Some(e) = &last_retired {
                                    spool.enqueue(e.class, e.dest, e.key.clone(), e.value.clone());
                                }
                            }
                            _ => {}
                        }
                        let live: usize = spool.pending().map(frame_bytes).sum();
                        assert!(
                            spool.wal_bytes() <= 2 * live + seal_every as usize * MAX_FRAME,
                            "{} bytes for {live} live",
                            spool.wal_bytes()
                        );
                        let recovered = UploadSpool::recover(spool.clone().into_wal());
                        assert_eq!(pending(&recovered), pending(&spool));
                        assert_eq!(recovered.wal_bytes(), spool.wal_bytes());
                    }
                    // The recovered spool is a working spool: drained dry, its
                    // log is gone.
                    let mut recovered = UploadSpool::recover(spool.into_wal());
                    for node in recovered.node_dests() {
                        recovered.take_for_node(node);
                    }
                    while !recovered.is_empty() {
                        for (key, _) in recovered.plan_cloud_batch(u64::MAX) {
                            recovered.retire_cloud(&key);
                        }
                    }
                    assert_eq!(recovered.wal_bytes(), 0);
                },
            );
        }
    }
}
