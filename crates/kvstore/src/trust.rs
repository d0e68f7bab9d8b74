//! Proof-of-possession dedup and the per-peer trust ledger.
//!
//! EF-Dedup's core transaction — a peer answering "I already hold this
//! fingerprint", which suppresses the client's upload — is an
//! unauthenticated claim: one lying index entry silently loses data.
//! Following PM-Dedup's edge ownership checks, a positive *remote*
//! sighting may only complete a dedup verdict once the claiming replica
//! has shown it holds the chunk. The lookup already shows it: a
//! replica's `ReadResp` carries its stored value, which in this
//! content-addressed store (same key ⇒ same bytes) is the chunk itself,
//! and the coordinator holds the full chunk it is deduplicating. It
//! compares the two, every byte, when the answer arrives — a liar that
//! knows only the fingerprint cannot produce the bytes, and a partial
//! holder cannot either.
//!
//! Provably wrong answers — returned bytes that are not the payload, or
//! bytes that fail content-address verification on repair and restore
//! paths — feed the per-peer [`TrustLedger`]. Strikes are only charged
//! for *proof* of lying, never for silence: a timeout on a lossy link
//! must never quarantine an honest node. At
//! [`TrustLedger::STRIKE_THRESHOLD`] strikes the peer is handed to the
//! existing quarantine → `Suspect` → `Dead` lattice, evicted, and
//! re-replicated around.

use ef_netsim::NodeId;
use std::collections::BTreeMap;

/// SplitMix64 output function: the standard finalizer used throughout
/// the repo for stateless seed-derived streams.
pub(crate) fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-peer strike ledger: counts provable lies and decides when a
/// peer graduates to quarantine.
///
/// Strikes are charged only on cryptographic proof of misbehavior —
/// a sighting whose bytes fail the possession check, peer-served bytes
/// that fail content-address verification, or an anti-entropy summary
/// contradicted by its own stream. Timeouts and drops never strike,
/// so lossy-network innocents are never quarantined.
#[derive(Debug, Clone, Default)]
pub struct TrustLedger {
    strikes: BTreeMap<NodeId, u32>,
}

impl TrustLedger {
    /// Strikes at which a peer is handed to the quarantine lattice.
    ///
    /// Three provable lies: low enough that a persistent liar is
    /// evicted well inside one scenario window, high enough that a
    /// single in-flight corruption coinciding with rot cannot evict
    /// an honest replica.
    pub const STRIKE_THRESHOLD: u32 = 3;

    /// A fresh ledger with no strikes recorded.
    pub fn new() -> Self {
        TrustLedger::default()
    }

    /// Records one provable lie by `peer`. Returns `true` exactly once
    /// — when the peer first crosses [`TrustLedger::STRIKE_THRESHOLD`]
    /// — so the caller quarantines it a single time.
    pub fn strike(&mut self, peer: NodeId) -> bool {
        let count = self.strikes.entry(peer).or_insert(0);
        *count += 1;
        *count == Self::STRIKE_THRESHOLD
    }

    /// True when `peer` has at least one strike: steering paths (hedge
    /// target choice, repair-source choice) avoid striking peers even
    /// before they reach quarantine.
    pub fn is_striking(&self, peer: NodeId) -> bool {
        self.strikes_of(peer) > 0
    }

    /// The number of strikes recorded against `peer`.
    pub fn strikes_of(&self, peer: NodeId) -> u32 {
        self.strikes.get(&peer).copied().unwrap_or(0)
    }

    /// Peers with at least one strike, in id order.
    pub fn striking_peers(&self) -> Vec<NodeId> {
        self.strikes.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_quarantines_exactly_once_at_the_threshold() {
        let mut ledger = TrustLedger::new();
        let liar = NodeId(3);
        assert!(!ledger.is_striking(liar));
        for i in 1..TrustLedger::STRIKE_THRESHOLD {
            assert!(!ledger.strike(liar), "strike {i} must not quarantine");
            assert!(ledger.is_striking(liar));
        }
        assert!(ledger.strike(liar), "threshold strike must quarantine");
        assert!(!ledger.strike(liar), "quarantine fires exactly once");
        assert_eq!(ledger.strikes_of(liar), TrustLedger::STRIKE_THRESHOLD + 1);
        assert_eq!(ledger.striking_peers(), vec![liar]);
        assert_eq!(ledger.strikes_of(NodeId(0)), 0);
    }
}
