//! Content-addressed, reference-counted chunk storage.

use bytes::Bytes;
use ef_chunking::ChunkHash;
use std::collections::BTreeMap;
use std::fmt;

/// Aggregate statistics of a [`ChunkStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkStoreStats {
    /// Distinct chunks currently stored.
    pub unique_chunks: usize,
    /// Physical bytes stored (unique chunk payloads).
    pub physical_bytes: u64,
    /// Logical bytes referenced (payload bytes × references).
    pub logical_bytes: u64,
    /// Total references across chunks.
    pub references: u64,
}

impl ChunkStoreStats {
    /// The store-level dedup ratio: logical / physical bytes (1.0 when
    /// empty).
    pub fn dedup_ratio(&self) -> f64 {
        if self.physical_bytes == 0 {
            1.0
        } else {
            self.logical_bytes as f64 / self.physical_bytes as f64
        }
    }
}

/// A chunk upload whose payload does not hash to its claimed address.
///
/// Content-addressed storage is only sound when every stored payload
/// actually hashes to its key: a mismatched pair would dedup future
/// uploads against bytes they do not contain (a *false duplicate*),
/// silently corrupting every file that references the chunk. The store
/// therefore re-hashes every upload and surfaces mismatches as this
/// typed error instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityError {
    /// The address the caller claimed for the payload.
    pub claimed: ChunkHash,
    /// What the payload actually hashes to.
    pub actual: ChunkHash,
}

impl fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chunk upload corrupt: claimed {} but payload hashes to {}",
            self.claimed, self.actual
        )
    }
}

impl std::error::Error for IntegrityError {}

#[derive(Debug, Clone)]
struct Entry {
    data: Bytes,
    refs: u64,
}

/// A content-addressed chunk store with reference counting.
///
/// Each `put` of a hash increments its reference count; `release`
/// decrements and garbage-collects at zero. File deletion therefore
/// reclaims exactly the space no surviving file still needs.
///
/// # Example
///
/// ```
/// use ef_cloudstore::ChunkStore;
/// use ef_chunking::ChunkHash;
/// use bytes::Bytes;
///
/// let mut store = ChunkStore::new();
/// let payload = Bytes::from_static(b"chunk-bytes");
/// let hash = ChunkHash::of(&payload);
/// assert!(store.put(hash, payload.clone()).unwrap());  // stored
/// assert!(!store.put(hash, payload).unwrap());          // deduplicated
/// assert_eq!(store.stats().unique_chunks, 1);
/// assert_eq!(store.stats().references, 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChunkStore {
    entries: BTreeMap<ChunkHash, Entry>,
    physical_bytes: u64,
    logical_bytes: u64,
}

impl ChunkStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores (or references) a chunk. Returns `Ok(true)` when the
    /// payload was physically stored, `Ok(false)` when it deduplicated
    /// against an existing copy.
    ///
    /// # Errors
    ///
    /// [`IntegrityError`] when `hash` does not match `data` (a corrupted
    /// upload). Nothing is stored or referenced in that case.
    pub fn put(&mut self, hash: ChunkHash, data: Bytes) -> Result<bool, IntegrityError> {
        let actual = ChunkHash::of(&data);
        if actual != hash {
            return Err(IntegrityError {
                claimed: hash,
                actual,
            });
        }
        Ok(self.put_verified(hash, data))
    }

    /// [`ChunkStore::put`] for a pair the caller has already verified:
    /// `hash` must be `ChunkHash::of(&data)`. The catalog checks a whole
    /// manifest in one batch before referencing any of it, and enters
    /// here so that no payload is hashed a second time.
    pub(crate) fn put_verified(&mut self, hash: ChunkHash, data: Bytes) -> bool {
        self.logical_bytes += data.len() as u64;
        match self.entries.get_mut(&hash) {
            Some(entry) => {
                entry.refs += 1;
                false
            }
            None => {
                self.physical_bytes += data.len() as u64;
                self.entries.insert(hash, Entry { data, refs: 1 });
                true
            }
        }
    }

    /// Flips one bit of a stored payload in place — fault injection for
    /// integrity tests. The chunk keeps its (now wrong) address, exactly
    /// the shape of at-rest bit rot. Returns `false` when the hash is
    /// not stored or the payload is empty.
    pub fn corrupt_chunk(&mut self, hash: &ChunkHash, bit: usize) -> bool {
        let Some(entry) = self.entries.get_mut(hash) else {
            return false;
        };
        if entry.data.is_empty() {
            return false;
        }
        let mut raw = entry.data.to_vec();
        let b = bit % (raw.len() * 8);
        raw[b / 8] ^= 1 << (b % 8);
        entry.data = Bytes::from(raw);
        true
    }

    /// Reads a chunk's payload.
    pub fn get(&self, hash: &ChunkHash) -> Option<Bytes> {
        self.entries.get(hash).map(|e| e.data.clone())
    }

    /// True when the chunk is stored.
    pub fn contains(&self, hash: &ChunkHash) -> bool {
        self.entries.contains_key(hash)
    }

    /// Drops one reference; the chunk is garbage-collected when the
    /// count reaches zero. Returns `Some(true)` when the payload was
    /// freed, `Some(false)` when references remain, and `None` when the
    /// hash is not stored (a refcounting bug in the caller).
    pub fn release(&mut self, hash: &ChunkHash) -> Option<bool> {
        let entry = self.entries.get_mut(hash)?;
        entry.refs -= 1;
        self.logical_bytes -= entry.data.len() as u64;
        if entry.refs == 0 {
            let len = entry.data.len() as u64;
            self.entries.remove(hash);
            self.physical_bytes -= len;
            Some(true)
        } else {
            Some(false)
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> ChunkStoreStats {
        ChunkStoreStats {
            unique_chunks: self.entries.len(),
            physical_bytes: self.physical_bytes,
            logical_bytes: self.logical_bytes,
            references: self.entries.values().map(|e| e.refs).sum(),
        }
    }

    /// Iterates over stored hashes in unspecified order.
    pub fn hashes(&self) -> impl Iterator<Item = &ChunkHash> {
        self.entries.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(s: &str) -> (ChunkHash, Bytes) {
        let b = Bytes::copy_from_slice(s.as_bytes());
        (ChunkHash::of(&b), b)
    }

    #[test]
    fn put_dedups_and_counts() {
        let mut store = ChunkStore::new();
        let (h, b) = chunk("aaaa");
        assert!(store.put(h, b.clone()).unwrap());
        assert!(!store.put(h, b.clone()).unwrap());
        assert!(!store.put(h, b).unwrap());
        let s = store.stats();
        assert_eq!(s.unique_chunks, 1);
        assert_eq!(s.references, 3);
        assert_eq!(s.physical_bytes, 4);
        assert_eq!(s.logical_bytes, 12);
        assert!((s.dedup_ratio() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn release_garbage_collects_at_zero() {
        let mut store = ChunkStore::new();
        let (h, b) = chunk("bbbb");
        store.put(h, b.clone()).unwrap();
        store.put(h, b).unwrap();
        assert_eq!(store.release(&h), Some(false)); // one ref left
        assert!(store.contains(&h));
        assert_eq!(store.release(&h), Some(true)); // freed
        assert!(!store.contains(&h));
        assert_eq!(store.stats(), ChunkStoreStats::default());
    }

    #[test]
    fn get_returns_payload() {
        let mut store = ChunkStore::new();
        let (h, b) = chunk("content");
        store.put(h, b.clone()).unwrap();
        assert_eq!(store.get(&h), Some(b));
        let (other, _) = chunk("other");
        assert_eq!(store.get(&other), None);
    }

    #[test]
    fn release_unknown_reports_none() {
        let (h, _) = chunk("x");
        assert_eq!(ChunkStore::new().release(&h), None);
    }

    #[test]
    fn empty_store_ratio_is_one() {
        assert_eq!(ChunkStore::new().stats().dedup_ratio(), 1.0);
    }

    #[test]
    fn hashes_iterates_all() {
        let mut store = ChunkStore::new();
        for s in ["a", "b", "c"] {
            let (h, b) = chunk(s);
            store.put(h, b).unwrap();
        }
        assert_eq!(store.hashes().count(), 3);
    }

    #[test]
    fn mismatched_upload_is_rejected_not_stored() {
        let mut store = ChunkStore::new();
        let (h, _) = chunk("claimed");
        let payload = Bytes::from_static(b"different-bytes");
        let err = store.put(h, payload.clone()).unwrap_err();
        assert_eq!(err.claimed, h);
        assert_eq!(err.actual, ChunkHash::of(&payload));
        assert_eq!(store.stats(), ChunkStoreStats::default());
    }

    #[test]
    fn corrupt_chunk_flips_one_bit_and_breaks_the_address() {
        let mut store = ChunkStore::new();
        let (h, b) = chunk("payload");
        store.put(h, b.clone()).unwrap();
        assert!(store.corrupt_chunk(&h, 12));
        let rotten = store.get(&h).unwrap();
        assert_ne!(rotten, b);
        assert_ne!(ChunkHash::of(&rotten), h);
        let (missing, _) = chunk("absent");
        assert!(!store.corrupt_chunk(&missing, 0));
    }
}
