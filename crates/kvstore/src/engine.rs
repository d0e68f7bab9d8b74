//! The per-node index engine: one ordered map from key to value.
//!
//! The paper spreads the chunk-hash index over the ring in a
//! Cassandra-like key-value store. Its entries are small chunk hashes and
//! edge nodes hold them in RAM, so a put inserts, a delete removes, and a
//! walk is one range scan. Durability is the write-ahead log's job
//! ([`WriteAheadLog`](crate::WriteAheadLog)), which a restarted node
//! replays into a fresh engine.

use crate::integrity::{checksum64, IntegrityError, Summed};
use bytes::Bytes;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound;

/// A key's first eight bytes as a big-endian word, zero-padded: two keys
/// whose heads differ are ordered as their heads are, so comparing the
/// head and then the bytes is byte order, and most compares are decided
/// by one integer. (A short key's padding sorts it before any extension
/// of itself; `b"ab"` and `b"ab\0"` share a head and their bytes decide.)
pub(crate) fn head(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    let n = bytes.len().min(8);
    word[..n].copy_from_slice(&bytes[..n]);
    u64::from_be_bytes(word)
}

/// What the engine's maps order by: a key's [`head`], then its bytes,
/// which are looked at only when the heads tie. A stored [`Key`] and a
/// borrowed [`Probe`] are both ordered this way, so a lookup by `&[u8]`
/// descends a map without building a key.
trait Ordered {
    fn head(&self) -> u64;
    fn bytes(&self) -> &[u8];
}

fn order(a: &dyn Ordered, b: &dyn Ordered) -> Ordering {
    let heads = a.head().cmp(&b.head());
    heads.then_with(|| a.bytes().cmp(b.bytes()))
}

impl PartialEq for dyn Ordered + '_ {
    fn eq(&self, other: &Self) -> bool {
        order(self, other).is_eq()
    }
}

impl Eq for dyn Ordered + '_ {}

impl PartialOrd for dyn Ordered + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn Ordered + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        order(self, other)
    }
}

/// A stored key and its [`head`]. The derived order compares the head,
/// then the bytes: [`Ordered`]'s order, as `Borrow` requires.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    head: u64,
    bytes: Bytes,
}

impl Key {
    fn new(bytes: Bytes) -> Self {
        let head = head(&bytes);
        Key { head, bytes }
    }
}

impl Ordered for Key {
    fn head(&self) -> u64 {
        self.head
    }

    fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl<'a> Borrow<dyn Ordered + 'a> for Key {
    fn borrow(&self) -> &(dyn Ordered + 'a) {
        self
    }
}

/// A lookup key: borrowed bytes and their [`head`].
struct Probe<'a> {
    head: u64,
    bytes: &'a [u8],
}

impl<'a> Probe<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Probe {
            head: head(bytes),
            bytes,
        }
    }
}

impl Ordered for Probe<'_> {
    fn head(&self) -> u64 {
        self.head
    }

    fn bytes(&self) -> &[u8] {
        self.bytes
    }
}

/// A stored value and the two sums kept beside it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Stored {
    data: Bytes,
    /// `checksum64(data)` recorded at write time: what verify-on-read
    /// and scrub — the only readers of `data`'s bytes — hold them to.
    crc: u64,
    /// `checksum64(data)` of the bytes as they stand: set with `crc` by
    /// `put` and re-summed by the rot hook, the only other writer of a
    /// byte. Anti-entropy digests this instead of reading `data`.
    sum: u64,
}

/// Counters describing engine state, used by resource accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Live key count.
    pub live_keys: usize,
    /// Bytes of live key+value payload.
    pub live_bytes: usize,
    /// Always 0: the engine keeps no segments. Kept for readers that
    /// still report it.
    pub segments: usize,
}

/// One change to a store's live set: the remembered sum of `key`'s live
/// value before and after it (`None`: no live value).
#[derive(Debug, Clone)]
pub(crate) struct Change {
    pub(crate) key: Bytes,
    pub(crate) before: Option<u64>,
    pub(crate) after: Option<u64>,
}

/// The changes to the live set since anti-entropy last summarized the
/// store ([`StorageEngine::drain_journal`]).
#[derive(Debug, Clone)]
struct Journal {
    changes: Vec<Change>,
    /// Live entries at the last summary, and the bound on `changes`.
    /// Folding a change costs what summarizing one entry on a walk
    /// costs (a token, a replica set, at most two digests), and a walk
    /// visits at most `live + changes.len()` entries; so once `changes`
    /// outgrows `live`, one walk is no dearer than the fold, and the
    /// journal never holds more records than the store held entries.
    live: usize,
}

/// An in-memory key-value engine: one ordered map from key to value.
///
/// Once anti-entropy has summarized the store it also keeps a change
/// journal — `(key, sum before, sum after)` per `put`, `delete` and rot
/// flip — which the next summary folds forward instead of walking the
/// store. A store never summarized keeps none.
///
/// # Example
///
/// ```
/// use ef_kvstore::StorageEngine;
/// use bytes::Bytes;
///
/// let mut s = StorageEngine::new(1024);
/// s.put(Bytes::from_static(b"k"), Bytes::from_static(b"v"));
/// assert_eq!(s.get(b"k"), Some(Bytes::from_static(b"v")));
/// s.delete(Bytes::from_static(b"k"));
/// assert_eq!(s.get(b"k"), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StorageEngine {
    entries: BTreeMap<Key, Stored>,
    /// Armed by the first summary; dropped past its bound.
    journal: Option<Journal>,
    /// Live-set walks anti-entropy made of this store
    /// ([`StorageEngine::count_walk`]).
    #[cfg(test)]
    walks: std::cell::Cell<u64>,
}

impl StorageEngine {
    /// Creates an empty engine. The argument is not read: it is kept for
    /// callers that still pass the flush threshold the engine once had.
    pub fn new(_flush_threshold_bytes: usize) -> Self {
        StorageEngine::default()
    }

    /// Writes a key-value pair. Returns `true` when the key was not live
    /// before (useful for dedup's unique-chunk decision).
    pub fn put(&mut self, key: Bytes, value: Bytes) -> bool {
        self.put_summed(key, Summed::digest(value))
    }

    /// [`StorageEngine::put`] of a payload this node has summed: the sum
    /// it carries is the write-time checksum that verify-on-read and
    /// scrub hold the bytes to.
    pub(crate) fn put_summed(&mut self, key: Bytes, value: Summed) -> bool {
        let crc = value.sum();
        let stored = Stored {
            data: value.into_bytes(),
            crc,
            sum: crc,
        };
        let noted = self.journal.is_some().then(|| key.clone());
        let before = self.entries.insert(Key::new(key), stored);
        let before = before.map(|shadowed| shadowed.sum);
        if let Some(key) = noted {
            self.note(&key, before, Some(crc));
        }
        before.is_none()
    }

    /// Journals one change to the live set while the journal is armed:
    /// a change that changes nothing is left out, and a journal past its
    /// bound is dropped.
    fn note(&mut self, key: &Bytes, before: Option<u64>, after: Option<u64>) {
        let Some(journal) = self.journal.as_mut() else {
            return;
        };
        if before == after {
            return;
        }
        let key = key.clone();
        journal.changes.push(Change { key, before, after });
        if journal.changes.len() > journal.live {
            self.journal = None;
        }
    }

    /// Arms the journal (again) after a summary walked the store and
    /// found `live` entries: from here on every change is recorded.
    pub(crate) fn arm_journal(&mut self, live: usize) {
        let changes = Vec::new();
        self.journal = Some(Journal { changes, live });
    }

    /// The changes since the journal was armed or last drained, in
    /// order, keeping it armed; `None` when it was never armed or was
    /// dropped past its bound — the caller walks the store and re-arms.
    pub(crate) fn drain_journal(&mut self) -> Option<std::vec::Drain<'_, Change>> {
        let journal = self.journal.as_mut()?;
        for change in &journal.changes {
            journal.live += usize::from(change.after.is_some());
            journal.live -= usize::from(change.before.is_some());
        }
        Some(journal.changes.drain(..))
    }

    /// The stored entry of `key`, if it is live.
    fn entry(&self, key: &[u8]) -> Option<&Stored> {
        self.entries.get(&Probe::new(key) as &dyn Ordered)
    }

    /// Reads the live value of `key` without verification (fast path for
    /// callers that tolerate rot, e.g. test oracles). Replica-serving
    /// reads go through [`StorageEngine::get_verified`].
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        Some(self.entry(key)?.data.clone())
    }

    /// Reads the live value of `key`, verifying the checksum recorded
    /// when it was written; the value comes with the sum the
    /// verification took of the stored bytes.
    ///
    /// # Errors
    ///
    /// [`IntegrityError::CorruptValue`] when the stored bytes no longer
    /// match their checksum (at-rest bit rot). The corrupt entry is left
    /// in place; the caller decides whether to delete and repair it.
    pub fn get_verified(&self, key: &[u8]) -> Result<Option<Summed>, IntegrityError> {
        let Some(v) = self.entry(key) else {
            return Ok(None);
        };
        let actual = checksum64(&v.data);
        if actual == v.crc {
            Ok(Some(Summed::with_sum(v.data.clone(), actual)))
        } else {
            Err(IntegrityError::CorruptValue {
                key: Bytes::copy_from_slice(key),
                expected: v.crc,
                actual,
            })
        }
    }

    /// Chaos hook: flips one bit in the `nth` live value (values counted
    /// in key order) *without* updating its write-time checksum —
    /// simulated at-rest bit rot. The sum of the bytes as they stand
    /// follows the flip. Returns the corrupted key, or `None` when no
    /// such value exists or it is empty.
    pub fn corrupt_nth_value(&mut self, nth: usize, bit: usize) -> Option<Bytes> {
        let nth = nth.checked_rem(self.entries.len())?;
        let (key, v) = self.entries.iter_mut().nth(nth)?;
        if v.data.is_empty() {
            return None;
        }
        let mut bytes = v.data.to_vec();
        let i = (bit / 8) % bytes.len();
        bytes[i] ^= 1 << (bit % 8);
        let before = v.sum;
        v.sum = checksum64(&bytes);
        let after = v.sum;
        v.data = Bytes::from(bytes);
        let key = key.bytes.clone();
        self.note(&key, Some(before), Some(after));
        Some(key)
    }

    /// True when `key` has a live value.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.entry(key).is_some()
    }

    /// Deletes `key`.
    pub fn delete(&mut self, key: Bytes) {
        let removed = self.entries.remove(&Probe::new(&key) as &dyn Ordered);
        self.note(&key, removed.map(|v| v.sum), None);
    }

    /// Live entries in key order from just past `after` (the start when
    /// `None`).
    fn live(&self, after: Option<&Bytes>) -> impl Iterator<Item = (&Bytes, &Stored)> + '_ {
        let probe = after.map(|after| Probe::new(after));
        let from = probe.as_ref().map_or(Bound::Unbounded, |probe| {
            Bound::Excluded(probe as &dyn Ordered)
        });
        let range = self
            .entries
            .range::<dyn Ordered, _>((from, Bound::Unbounded));
        range.map(|(key, stored)| (&key.bytes, stored))
    }

    /// Iterates over all live key-value pairs in key order.
    pub fn iter_live(&self) -> impl Iterator<Item = (Bytes, Bytes)> + '_ {
        self.live(None).map(|(k, v)| (k.clone(), v.data.clone()))
    }

    /// Live `(key, value, sum)` triples in key order, `sum` being the
    /// remembered checksum of the value's bytes as they stand: what
    /// anti-entropy rebuilds a summary and lists repairs from, and what
    /// a node streams to new owners, without reading a payload.
    pub(crate) fn iter_summed(&self) -> impl Iterator<Item = (&Bytes, &Bytes, u64)> + '_ {
        self.live(None).map(|(k, v)| (k, &v.data, v.sum))
    }

    /// Notes one anti-entropy walk of the live set: anti-entropy calls
    /// it beside each [`StorageEngine::iter_summed`] of its own, so tests
    /// can count its walks apart from a departing node's. A no-op
    /// outside tests.
    pub(crate) fn count_walk(&self) {
        #[cfg(test)]
        self.walks.set(self.walks.get() + 1);
    }

    /// How many times anti-entropy has walked the live set.
    #[cfg(test)]
    pub(crate) fn walks(&self) -> u64 {
        self.walks.get()
    }

    /// Verifies live entries in key order starting after `cursor`,
    /// stopping once `byte_budget` bytes of key+value payload have been
    /// checked (at least one entry is processed when any remains). This
    /// is the storage half of the background scrub pipeline: the sim
    /// driver charges the returned byte count as CPU/IO work and repairs
    /// the keys reported corrupt.
    pub fn scrub(&self, cursor: Option<&Bytes>, byte_budget: u64) -> ScrubChunk {
        let mut out = ScrubChunk::default();
        for (key, stored) in self.live(cursor) {
            out.entries += 1;
            out.bytes += (key.len() + stored.data.len()) as u64;
            if checksum64(&stored.data) != stored.crc {
                out.corrupt.push(key.clone());
            }
            if out.bytes >= byte_budget {
                out.next_cursor = Some(key.clone());
                break;
            }
        }
        out
    }

    /// Current engine statistics.
    pub fn stats(&self) -> StorageStats {
        let live_bytes = self.live(None).map(|(k, v)| k.len() + v.data.len()).sum();
        StorageStats {
            live_keys: self.entries.len(),
            live_bytes,
            segments: 0,
        }
    }
}

/// One bounded slice of a background scrub pass over a
/// [`StorageEngine`], produced by [`StorageEngine::scrub`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubChunk {
    /// Entries whose checksum was verified this slice.
    pub entries: u64,
    /// Bytes of key+value payload verified this slice.
    pub bytes: u64,
    /// Keys whose stored bytes failed verification.
    pub corrupt: Vec<Bytes>,
    /// Resume cursor: the next slice continues after this key. `None`
    /// when the pass reached the end of the store (wrap around).
    pub next_cursor: Option<Bytes>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ef_simcore::prop::{check, vec};

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn put_get_roundtrip() {
        let mut s = StorageEngine::new(1 << 20);
        assert!(s.put(b("a"), b("1")));
        assert!(!s.put(b("a"), b("2"))); // overwrite: key existed
        assert_eq!(s.get(b"a"), Some(b("2")));
        assert_eq!(s.get(b"missing"), None);
    }

    #[test]
    fn delete_hides_value() {
        let mut s = StorageEngine::new(1 << 20);
        s.put(b("a"), b("1"));
        s.delete(b("a"));
        assert_eq!(s.get(b"a"), None);
        assert!(!s.contains(b"a"));
        // Re-insert after delete counts as new.
        assert!(s.put(b("a"), b("3")));
        assert_eq!(s.get(b"a"), Some(b("3")));
    }

    #[test]
    fn iter_live_sees_each_key_once() {
        let mut s = StorageEngine::new(4);
        s.put(b("a"), b("1"));
        s.put(b("a"), b("2"));
        s.put(b("b"), b("3"));
        let live: Vec<_> = s.iter_live().collect();
        assert_eq!(live.len(), 2);
        assert!(live.contains(&(b("a"), b("2"))));
        assert!(live.contains(&(b("b"), b("3"))));
    }

    #[test]
    fn stats_live_bytes() {
        let mut s = StorageEngine::new(1 << 20);
        s.put(b("key"), b("value"));
        let st = s.stats();
        assert_eq!(st.live_keys, 1);
        assert_eq!(st.live_bytes, 8);
    }

    /// The engine is a `BTreeMap` from key to the value's bytes as they
    /// stand and their write-time sum, over random sequences of puts
    /// (fresh keys and overwrites), deletes, plain and verified reads,
    /// rot flips, scrub passes and journal arms and drains: `put`'s
    /// was-absent answer, every read, the rotted keys a verified read
    /// refuses and a scrub lists, the walk, the live counts and the
    /// journal's `(key, before, after)` stream all follow the map. Keys
    /// run to 11 bytes and several share a head word.
    #[test]
    fn engine_is_an_ordered_map() {
        type Model = BTreeMap<Bytes, (Bytes, u64)>;
        /// The journal's changes and its bound, while armed.
        type Noted = Option<(Vec<(Bytes, Option<u64>, Option<u64>)>, usize)>;
        fn note(journal: &mut Noted, key: &Bytes, before: Option<u64>, after: Option<u64>) {
            if let Some((changes, live)) = journal.as_mut().filter(|_| before != after) {
                changes.push((key.clone(), before, after));
                if changes.len() > *live {
                    *journal = None;
                }
            }
        }
        let key = |i: u8| Bytes::from(vec![i % 3; usize::from(i)]);
        let sum_in = |model: &Model, key: &Bytes| Some(checksum64(&model.get(key)?.0));
        let ops = vec((0u8..9, 0u8..12, 0usize..64), 1..96);
        check("engine_is_an_ordered_map", 256, ops, |ops| {
            let mut engine = StorageEngine::new(48);
            let mut model = Model::new();
            let mut journal: Noted = None;
            for (step, (op, k, arg)) in ops.into_iter().enumerate() {
                let key = key(k);
                match op {
                    0..=2 => {
                        let value = Bytes::from(vec![k ^ step as u8; 1 + arg]);
                        let before = sum_in(&model, &key);
                        let crc = checksum64(&value);
                        let fresh = engine.put(key.clone(), value.clone());
                        assert_eq!(fresh, before.is_none(), "step {step}: put");
                        model.insert(key.clone(), (value, crc));
                        note(&mut journal, &key, before, Some(crc));
                    }
                    3 => {
                        let before = sum_in(&model, &key);
                        engine.delete(key.clone());
                        model.remove(&key);
                        note(&mut journal, &key, before, None);
                    }
                    4 => {
                        let held = model.get(&key).map(|(value, _)| value.clone());
                        assert_eq!(engine.get(&key), held, "step {step}: get");
                        assert_eq!(engine.contains(&key), held.is_some(), "step {step}");
                    }
                    5 => {
                        let got = engine.get_verified(&key).map(|v| v.map(|v| v.to_vec()));
                        let want = match model.get(&key) {
                            None => Ok(None),
                            Some((value, crc)) if checksum64(value) == *crc => {
                                Ok(Some(value.to_vec()))
                            }
                            Some((value, crc)) => Err(IntegrityError::CorruptValue {
                                key: key.clone(),
                                expected: *crc,
                                actual: checksum64(value),
                            }),
                        };
                        assert_eq!(got, want, "step {step}: verified read");
                    }
                    6 => {
                        let bit = arg * 7 + step;
                        let nth = arg.checked_rem(model.len());
                        let hit = nth.and_then(|nth| model.keys().nth(nth)).cloned();
                        assert_eq!(engine.corrupt_nth_value(arg, bit), hit, "step {step}: rot");
                        if let Some(hit) = hit {
                            let (value, _) = model.get_mut(&hit).unwrap();
                            let before = checksum64(value);
                            let mut bytes = value.to_vec();
                            let i = (bit / 8) % bytes.len();
                            bytes[i] ^= 1 << (bit % 8);
                            *value = Bytes::from(bytes);
                            note(&mut journal, &hit, Some(before), Some(checksum64(value)));
                        }
                    }
                    7 => {
                        let (mut cursor, mut entries, mut bytes) = (None, 0, 0);
                        let mut corrupt = Vec::new();
                        loop {
                            let slice = engine.scrub(cursor.as_ref(), 1 + arg as u64);
                            (entries, bytes) = (entries + slice.entries, bytes + slice.bytes);
                            corrupt.extend(slice.corrupt);
                            cursor = slice.next_cursor;
                            if cursor.is_none() {
                                break;
                            }
                        }
                        let rotted = model.iter().filter(|(_, (v, crc))| checksum64(v) != *crc);
                        let rotted: Vec<Bytes> = rotted.map(|(key, _)| key.clone()).collect();
                        assert_eq!(corrupt, rotted, "step {step}: scrub");
                        assert_eq!(entries, model.len() as u64, "step {step}");
                        let held = model.iter().map(|(k, (v, _))| (k.len() + v.len()) as u64);
                        assert_eq!(bytes, held.sum::<u64>(), "step {step}");
                    }
                    _ if arg % 2 == 0 => {
                        engine.arm_journal(model.len());
                        journal = Some((Vec::new(), model.len()));
                    }
                    _ => {
                        let got = engine.drain_journal().map(|changes| {
                            let changes = changes.map(|c| (c.key, c.before, c.after));
                            changes.collect::<Vec<_>>()
                        });
                        let want = journal.as_mut().map(|(changes, live)| {
                            for (_, before, after) in changes.iter() {
                                *live += usize::from(after.is_some());
                                *live -= usize::from(before.is_some());
                            }
                            std::mem::take(changes)
                        });
                        assert_eq!(got, want, "step {step}: journal");
                    }
                }
                let walked: Vec<_> = engine.iter_live().collect();
                let held = model.iter().map(|(k, (v, _))| (k.clone(), v.clone()));
                assert_eq!(walked, held.collect::<Vec<_>>(), "step {step}: walk");
                let summed = engine.iter_summed().map(|(k, _, sum)| (k.clone(), sum));
                let sums = model.iter().map(|(k, (v, _))| (k.clone(), checksum64(v)));
                assert_eq!(summed.collect::<Vec<_>>(), sums.collect::<Vec<_>>());
                let stats = engine.stats();
                assert_eq!(stats.live_keys, model.len(), "step {step}");
                let held = model.iter().map(|(k, (v, _))| k.len() + v.len());
                assert_eq!(stats.live_bytes, held.sum::<usize>(), "step {step}");
            }
        });
    }

    /// Keys that compare on their head word first are in byte order:
    /// stored keys against each other, a probe against a stored key, and
    /// an engine's walk and lookups over them, across lengths 0..=40, keys
    /// sharing an 8-byte head and keys with embedded zero bytes.
    #[test]
    fn head_first_key_order_is_byte_order() {
        fn agree(a: &[u8], b: &[u8]) {
            let (ka, kb) = (
                Key::new(Bytes::copy_from_slice(a)),
                Key::new(Bytes::copy_from_slice(b)),
            );
            assert_eq!(ka.cmp(&kb), a.cmp(b), "{a:?} against {b:?}");
            let probe = Probe::new(a);
            let (probe, kb): (&dyn Ordered, &dyn Ordered) = (&probe, &kb);
            assert_eq!(probe.cmp(kb), a.cmp(b), "probe {a:?} against {b:?}");
        }
        let pinned: [&[u8]; 8] = [
            b"",
            b"\0",
            b"ab",
            b"ab\0",
            b"ab\0\0\0\0\0\0",
            b"ab\0\0\0\0\0\0\0",
            b"abcdefgh",
            b"abcdefgh\0",
        ];
        for a in pinned {
            for b in pinned {
                agree(a, b);
            }
        }
        assert!(Key::new(b("ab")) < Key::new(Bytes::from_static(b"ab\0")));
        // Keys from a three-letter alphabet (a third of bytes zero) cut
        // from one shared prefix, so most pairs share their head.
        let keys = (
            vec(0u8..3, 0..41),
            vec((0usize..41, vec(0u8..3, 0..41)), 1..24),
        );
        check(
            "head_first_key_order_is_byte_order",
            256,
            keys,
            |(prefix, cuts)| {
                let keys: Vec<Vec<u8>> = cuts
                    .into_iter()
                    .map(|(cut, suffix)| {
                        let mut key = prefix[..cut.min(prefix.len())].to_vec();
                        key.extend(suffix);
                        key.truncate(40);
                        key
                    })
                    .collect();
                for a in &keys {
                    for b in &keys {
                        agree(a, b);
                    }
                }
                let mut engine = StorageEngine::new(64);
                for key in &keys {
                    engine.put(Bytes::copy_from_slice(key), b("v"));
                }
                let mut sorted = keys.clone();
                sorted.sort();
                sorted.dedup();
                let walked: Vec<_> = engine.iter_live().map(|(k, _)| k.to_vec()).collect();
                assert_eq!(walked, sorted);
                for key in &keys {
                    assert!(engine.contains(key), "{key:?} lost");
                }
            },
        );
    }

    #[test]
    fn get_verified_rejects_rotted_value() {
        let mut s = StorageEngine::new(1 << 20);
        s.put(b("k"), b("payload"));
        let payload = Summed::digest(b("payload"));
        assert_eq!(s.get_verified(b"k"), Ok(Some(payload)));
        assert_eq!(s.get_verified(b"missing"), Ok(None));
        let key = s.corrupt_nth_value(0, 9).unwrap();
        assert_eq!(key, b("k"));
        let IntegrityError::CorruptValue {
            key,
            expected,
            actual,
        } = s.get_verified(b"k").unwrap_err();
        assert_eq!(key, b("k"));
        assert_ne!(expected, actual);
        // The unverified fast path still serves the rotted bytes.
        assert!(s.get(b"k").is_some());
    }

    #[test]
    fn scrub_finds_rot_under_byte_budget() {
        let mut s = StorageEngine::new(32);
        for i in 0..20u32 {
            s.put(Bytes::from(format!("key{i:02}").into_bytes()), b("value"));
        }
        let rotted = s.corrupt_nth_value(7, 13).unwrap();
        let mut cursor: Option<Bytes> = None;
        let mut entries = 0;
        let mut corrupt: Vec<Bytes> = Vec::new();
        let mut slices = 0;
        loop {
            let chunk = s.scrub(cursor.as_ref(), 30);
            entries += chunk.entries;
            corrupt.extend(chunk.corrupt);
            slices += 1;
            match chunk.next_cursor {
                Some(c) => cursor = Some(c),
                None => break,
            }
        }
        assert!(slices > 1, "byte budget should bound each slice");
        assert_eq!(entries, 20, "scrub must visit every live entry once");
        assert_eq!(corrupt, vec![rotted]);
    }

    #[test]
    fn scrub_of_clean_store_is_quiet() {
        let mut s = StorageEngine::new(1 << 20);
        s.put(b("a"), b("1"));
        s.put(b("b"), b("2"));
        let chunk = s.scrub(None, u64::MAX);
        assert_eq!(chunk.entries, 2);
        assert!(chunk.corrupt.is_empty());
        assert_eq!(chunk.next_cursor, None);
    }
}
