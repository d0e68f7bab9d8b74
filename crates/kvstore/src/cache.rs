//! Sharded, bounded LRU fingerprint cache — the local fast path in front
//! of the ring index.
//!
//! A coordinator that has already learned a fingerprint is a duplicate
//! (because one of its own check-and-insert ops resolved as such, durably)
//! can answer the next lookup for that fingerprint locally, skipping the
//! ring round-trip entirely. The cache is *one-sided by construction*:
//!
//! * It only ever answers "duplicate" — a hit short-circuits the lookup;
//!   a miss changes nothing and the op traverses the ring as before.
//! * It is only populated from non-degraded duplicate/unique verdicts,
//!   i.e. after the fingerprint is durably present in the ring index.
//! * It is volatile: a crash-stop or departure drops it with the rest of
//!   the node's in-memory state, so a restarted node re-learns from the
//!   ring rather than trusting pre-crash answers.
//!
//! A stale entry can therefore claim at worst "duplicate" for a
//! fingerprint that *is* durably indexed — never manufacture a false
//! duplicate for data that was never stored.
//!
//! Determinism: shards are `BTreeMap`s keyed by fingerprint plus a
//! monotonic recency sequence — iteration order, eviction order, and
//! shard selection (via [`key_token`]) are all independent of allocation
//! or hash-seed nondeterminism, so cached runs replay bit-identically.

// A module on the dedup hot path (DESIGN.md §13): besides unwrap, expect
// and panic!, every index and every integer operation must be checked.
#![warn(clippy::indexing_slicing, clippy::arithmetic_side_effects)]

use crate::counters::CacheStats;
use crate::key_token;
use bytes::Bytes;
use std::collections::BTreeMap;

/// The second-sight admission filter: two deterministic bitmaps over
/// [`key_token`] values.
///
/// * `seen` records fingerprints sighted once — an insert whose token is
///   not yet in `seen` just sets the bit and defers admission, so
///   one-hit-wonder fingerprints (the overwhelming majority under low
///   dedup ratios) never pay LRU bookkeeping or evict a proven-warm
///   entry.
/// * `present` is a one-sided membership filter over the admitted
///   entries: a clear bit proves the fingerprint is not cached, letting
///   [`FingerprintCache::contains`] reject the common miss with one hash
///   and one bit probe instead of a `BTreeMap` descent.
///
/// Token collisions only ever *admit early* (a `seen` false positive) or
/// *probe further* (a stale `present` bit after eviction) — the map of
/// real entries stays the sole authority on hits, so the one-sided
/// soundness argument of the cache is untouched. `seen` is wiped once a
/// quarter of its bits could be set, bounding its false-positive rate.
#[derive(Debug, Clone)]
struct SecondSight {
    seen: Vec<u64>,
    present: Vec<u64>,
    mask: u64,
    deferred_since_reset: u64,
    reset_threshold: u64,
}

impl SecondSight {
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "bits is a power of two of at least 1024, so bits - 1 cannot wrap"
    )]
    fn new(capacity: usize) -> Self {
        // 8 bits per cache slot keeps both filters sparse at full load.
        let bits = (capacity.saturating_mul(8)).next_power_of_two().max(1024);
        SecondSight {
            seen: vec![0; bits / 64],
            present: vec![0; bits / 64],
            mask: bits as u64 - 1,
            deferred_since_reset: 0,
            reset_threshold: bits as u64 / 4,
        }
    }

    fn slot(&self, token: u64) -> (usize, u64) {
        let bit = token & self.mask;
        ((bit / 64) as usize, 1u64.wrapping_shl((bit % 64) as u32))
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "word = (token & mask) / 64 < bits / 64 = len"
    )]
    fn maybe_present(&self, token: u64) -> bool {
        let (word, bit) = self.slot(token);
        self.present[word] & bit != 0
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "word = (token & mask) / 64 < bits / 64 = len"
    )]
    fn mark_present(&mut self, token: u64) {
        let (word, bit) = self.slot(token);
        self.present[word] |= bit;
    }

    /// Records a sighting; true when the token was already seen (the
    /// fingerprint has earned admission).
    #[expect(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        reason = "word = (token & mask) / 64 < bits / 64 = len; the deferral count resets at a quarter of bits"
    )]
    fn sight(&mut self, token: u64) -> bool {
        let (word, bit) = self.slot(token);
        if self.seen[word] & bit != 0 {
            return true;
        }
        if self.deferred_since_reset >= self.reset_threshold {
            // Wipe before recording so the newest sighting survives the
            // reset; bounds the filter's false-positive rate at ~25%.
            self.seen.fill(0);
            self.deferred_since_reset = 0;
        }
        self.seen[word] |= bit;
        self.deferred_since_reset += 1;
        false
    }

    fn clear(&mut self) {
        self.seen.fill(0);
        self.present.fill(0);
        self.deferred_since_reset = 0;
    }
}

/// One LRU shard: fingerprint → recency sequence, plus the inverted order
/// map the evictor pops from. Both sides are `BTreeMap`s so every
/// traversal is deterministically ordered.
#[derive(Debug, Clone, Default)]
struct CacheShard {
    entries: BTreeMap<Bytes, u64>,
    order: BTreeMap<u64, Bytes>,
}

/// A sharded, bounded, deterministic LRU set of fingerprints known to be
/// present in the ring index.
///
/// # Example
///
/// ```
/// use ef_kvstore::FingerprintCache;
/// use bytes::Bytes;
///
/// let mut cache = FingerprintCache::new(4, 2);
/// let key = Bytes::from_static(b"fp-1");
/// assert!(!cache.contains(&key)); // miss: ask the ring
/// cache.insert(key.clone());      // ring said duplicate/unique, durably
/// assert!(cache.contains(&key));  // hit: duplicate confirmed locally
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct FingerprintCache {
    shards: Vec<CacheShard>,
    per_shard_capacity: usize,
    next_seq: u64,
    stats: CacheStats,
    second_sight: Option<SecondSight>,
}

impl FingerprintCache {
    /// Creates a cache with `shards` LRU shards of `per_shard_capacity`
    /// entries each. Zero values are clamped to 1.
    pub fn new(shards: usize, per_shard_capacity: usize) -> Self {
        FingerprintCache {
            shards: vec![CacheShard::default(); shards.max(1)],
            per_shard_capacity: per_shard_capacity.max(1),
            next_seq: 0,
            stats: CacheStats::default(),
            second_sight: None,
        }
    }

    /// Enables the second-sight admission policy: a fingerprint is only
    /// admitted into the LRU on its *second* insert — the first sighting
    /// sets a bit in a deterministic filter and defers. One-hit-wonder
    /// fingerprints (most chunks, at realistic dedup ratios) then never
    /// churn the LRU or evict a proven-warm entry, and the common miss
    /// is rejected by a bit probe instead of a map descent. Off by
    /// default; hit answers remain exactly as sound either way, because
    /// only the real entry map ever answers "duplicate".
    #[must_use]
    pub fn with_second_sight(mut self) -> Self {
        self.second_sight = Some(SecondSight::new(self.capacity()));
        self
    }

    /// True when the second-sight admission policy is active.
    pub fn second_sight_enabled(&self) -> bool {
        self.second_sight.is_some()
    }

    /// Total capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.shards.len().saturating_mul(self.per_shard_capacity)
    }

    /// Number of fingerprints currently cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.entries.len()).sum()
    }

    /// True when no fingerprints are cached.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.entries.is_empty())
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    #[expect(
        clippy::arithmetic_side_effects,
        reason = "new() keeps at least one shard, so the modulus is non-zero"
    )]
    fn shard_index(&self, token: u64) -> usize {
        (token % self.shards.len() as u64) as usize
    }

    /// Looks `key` up, recording a hit or miss and refreshing recency on
    /// a hit. A `true` answer means the fingerprint was durably indexed
    /// when it was inserted — i.e. the chunk is a duplicate.
    #[expect(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        clippy::expect_used,
        reason = "shard_index reduces modulo shards.len(); order mirrors entries one-to-one by construction; u64 counters do not wrap in a run"
    )]
    pub fn contains(&mut self, key: &[u8]) -> bool {
        let token = key_token(key);
        if let Some(filter) = &self.second_sight {
            // A clear `present` bit proves the key was never admitted:
            // reject the common miss with one hash and one bit probe.
            if !filter.maybe_present(token) {
                self.stats.misses += 1;
                return false;
            }
        }
        let seq = self.bump_seq();
        let shard = self.shard_index(token);
        let shard = &mut self.shards[shard];
        match shard.entries.get_mut(key) {
            Some(slot) => {
                let old = *slot;
                *slot = seq;
                let entry = shard.order.remove(&old).expect("order tracks entries");
                shard.order.insert(seq, entry);
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Inserts `key` as a durably-indexed fingerprint, evicting the least
    /// recently used entry of its shard when the shard is full. Re-inserting
    /// an existing key only refreshes its recency.
    #[expect(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        clippy::expect_used,
        reason = "shard_index reduces modulo shards.len(); order mirrors entries one-to-one, and a full shard holds at least one entry; u64 counters do not wrap in a run"
    )]
    pub fn insert(&mut self, key: Bytes) {
        let token = key_token(&key);
        if let Some(filter) = &mut self.second_sight {
            // Tokens of already-admitted keys fall through to the
            // refresh path below; fresh tokens must earn a second
            // sighting before paying LRU bookkeeping.
            if !filter.maybe_present(token) {
                if !filter.sight(token) {
                    self.stats.deferred += 1;
                    return;
                }
                filter.mark_present(token);
            }
        }
        let seq = self.bump_seq();
        let capacity = self.per_shard_capacity;
        let shard = self.shard_index(token);
        let shard = &mut self.shards[shard];
        if let Some(slot) = shard.entries.get_mut(&key) {
            let old = *slot;
            *slot = seq;
            let entry = shard.order.remove(&old).expect("order tracks entries");
            shard.order.insert(seq, entry);
            return;
        }
        if shard.entries.len() == capacity {
            let (_, victim) = shard.order.pop_first().expect("full shard is non-empty");
            shard.entries.remove(&victim);
            self.stats.evictions += 1;
        }
        shard.entries.insert(key.clone(), seq);
        shard.order.insert(seq, key);
        self.stats.insertions += 1;
    }

    /// Invalidates one entry, returning whether it was present. Used when
    /// the admission that created the entry is retroactively distrusted —
    /// e.g. the remote peer whose possession claim backed it was
    /// quarantined for lying. A stale second-sight `present` bit after a
    /// removal only costs a map probe; the entry map stays the sole
    /// authority on hits, so one-sided soundness is untouched.
    #[expect(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        reason = "shard_index reduces modulo shards.len(); u64 counters do not wrap in a run"
    )]
    pub fn remove(&mut self, key: &[u8]) -> bool {
        let shard = self.shard_index(key_token(key));
        let shard = &mut self.shards[shard];
        match shard.entries.remove(key) {
            Some(seq) => {
                shard.order.remove(&seq);
                self.stats.invalidations += 1;
                true
            }
            None => false,
        }
    }

    /// Drops every entry — the volatile-state reset on crash-stop or
    /// departure. Counters survive (they describe the run, not the state).
    pub fn clear(&mut self) {
        for shard in &mut self.shards {
            shard.entries.clear();
            shard.order.clear();
        }
        if let Some(filter) = &mut self.second_sight {
            filter.clear();
        }
    }

    #[expect(
        clippy::arithmetic_side_effects,
        reason = "one step per lookup: a u64 sequence does not wrap in a run"
    )]
    fn bump_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> Bytes {
        Bytes::from(i.to_be_bytes().to_vec())
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let mut cache = FingerprintCache::new(4, 8);
        assert!(!cache.contains(&key(1)));
        cache.insert(key(1));
        assert!(cache.contains(&key(1)));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().insertions, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn eviction_is_lru_per_shard() {
        // One shard makes the LRU order globally observable.
        let mut cache = FingerprintCache::new(1, 2);
        cache.insert(key(1));
        cache.insert(key(2));
        assert!(cache.contains(&key(1))); // 1 becomes most recent
        cache.insert(key(3)); // evicts 2, the least recent
        assert!(cache.contains(&key(1)));
        assert!(!cache.contains(&key(2)));
        assert!(cache.contains(&key(3)));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_recency_without_growth() {
        let mut cache = FingerprintCache::new(1, 2);
        cache.insert(key(1));
        cache.insert(key(2));
        cache.insert(key(1)); // refresh, not duplicate entry
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().insertions, 2);
        cache.insert(key(3)); // evicts 2 (1 was refreshed)
        assert!(!cache.contains(&key(2)));
        assert!(cache.contains(&key(1)));
    }

    #[test]
    fn clear_drops_entries_keeps_counters() {
        let mut cache = FingerprintCache::new(2, 4);
        cache.insert(key(1));
        assert!(cache.contains(&key(1)));
        cache.clear();
        assert!(cache.is_empty());
        assert!(!cache.contains(&key(1)));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().insertions, 1);
    }

    #[test]
    fn capacity_bound_holds_under_churn() {
        let mut cache = FingerprintCache::new(4, 8);
        for i in 0..10_000u32 {
            cache.insert(key(i));
        }
        assert!(cache.len() <= cache.capacity());
        let s = cache.stats();
        assert_eq!(s.insertions - s.evictions, cache.len() as u64);
    }

    #[test]
    fn remove_invalidates_and_counts() {
        let mut cache = FingerprintCache::new(2, 4);
        cache.insert(key(1));
        cache.insert(key(2));
        assert!(cache.remove(&key(1)));
        assert!(!cache.remove(&key(1)), "double remove must be a no-op");
        assert!(!cache.remove(&key(9)), "absent key must report false");
        assert!(!cache.contains(&key(1)));
        assert!(cache.contains(&key(2)));
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.len(), 1);
        // The freed slot is reusable and eviction bookkeeping survives.
        cache.insert(key(3));
        assert!(cache.contains(&key(3)));
    }

    #[test]
    fn remove_with_second_sight_keeps_soundness() {
        let mut cache = FingerprintCache::new(1, 4).with_second_sight();
        cache.insert(key(1));
        cache.insert(key(1));
        assert!(cache.contains(&key(1)));
        assert!(cache.remove(&key(1)));
        // The stale present bit may probe the map, but can never hit.
        assert!(!cache.contains(&key(1)));
    }

    #[test]
    fn zero_dimensions_clamp() {
        let cache = FingerprintCache::new(0, 0);
        assert_eq!(cache.capacity(), 1);
    }

    #[test]
    fn second_sight_defers_first_sighting_and_admits_second() {
        let mut cache = FingerprintCache::new(1, 8).with_second_sight();
        assert!(cache.second_sight_enabled());
        assert!(!cache.contains(&key(1)));
        cache.insert(key(1)); // first sighting: deferred
        assert!(!cache.contains(&key(1)));
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().deferred, 1);
        assert_eq!(cache.stats().insertions, 0);
        cache.insert(key(1)); // second sighting: admitted
        assert!(cache.contains(&key(1)));
        assert_eq!(cache.stats().insertions, 1);
        assert_eq!(cache.stats().deferred, 1);
    }

    #[test]
    fn second_sight_shields_warm_entries_from_one_hit_wonders() {
        let mut cache = FingerprintCache::new(1, 8).with_second_sight();
        cache.insert(key(1));
        cache.insert(key(1)); // proven warm, admitted

        // A scan of single-sighted fingerprints defers instead of
        // churning the LRU (token collisions may admit a few early, but
        // a tiny cache cannot be flushed by a scan of one-hit wonders).
        for i in 100..200u32 {
            cache.insert(key(i));
        }
        assert!(cache.contains(&key(1)), "warm entry evicted by scan");
        assert_eq!(cache.stats().evictions, 0);
        assert!(cache.stats().deferred >= 90, "{:?}", cache.stats());
    }

    #[test]
    fn second_sight_never_invents_hits() {
        let mut cache = FingerprintCache::new(4, 16).with_second_sight();
        for i in 0..500u32 {
            cache.insert(key(i)); // each fingerprint sighted once
        }
        // Whatever the admission filter believes, only the real entry
        // map answers lookups: a never-inserted key can never hit.
        for i in 500..1000u32 {
            assert!(!cache.contains(&key(i)), "never-inserted key {i} hit");
        }
    }

    #[test]
    fn second_sight_clears_with_the_cache() {
        let mut cache = FingerprintCache::new(2, 8).with_second_sight();
        cache.insert(key(7));
        cache.insert(key(7));
        assert!(cache.contains(&key(7)));
        cache.clear();
        assert!(!cache.contains(&key(7)));
        // The filter reset too: re-learning starts from a deferral.
        cache.insert(key(7));
        assert!(!cache.contains(&key(7)));
        cache.insert(key(7));
        assert!(cache.contains(&key(7)));
    }

    #[test]
    fn hit_rate_math() {
        let mut cache = FingerprintCache::new(2, 8);
        assert_eq!(cache.stats().hit_rate(), 0.0);
        cache.insert(key(7));
        cache.contains(&key(7));
        cache.contains(&key(8));
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
        let mut total = CacheStats::default();
        total.merge(&cache.stats());
        total.merge(&cache.stats());
        assert_eq!(total.hits, 2);
        assert_eq!(total.misses, 2);
    }
}
