//! Proof-of-possession dedup and the per-peer trust ledger.
//!
//! EF-Dedup's core transaction — a peer answering "I already hold this
//! fingerprint", which suppresses the client's upload — is an
//! unauthenticated claim: one lying index entry silently loses data.
//! Following PM-Dedup's edge ownership checks, a positive *remote*
//! sighting may only complete a dedup verdict after the claiming
//! replica answers a challenge–response **proof of possession**: a
//! salted SHA-256 over a challenge-chosen slice of its stored bytes.
//! The coordinator holds the full chunk it is deduplicating (the store
//! is content-addressed: same key ⇒ same bytes), so it can compute the
//! expected digest locally and compare — a liar that only copied the
//! fingerprint index cannot answer without the bytes.
//!
//! Challenge parameters are a **pure function** of the scenario's
//! proof seed, the operation id, the key token, and the prover
//! ([`derive_challenge`]): the service path draws zero RNG, so
//! replays stay bit-identical and a prover cannot predict or replay
//! challenges across ops.
//!
//! Provably wrong answers — a digest mismatch, or bytes that fail
//! content-address verification on repair and restore paths — feed the
//! per-peer [`TrustLedger`]. Strikes are only charged for *proof* of
//! lying, never for silence: a timeout on a lossy link must never
//! quarantine an honest node. At [`TrustLedger::STRIKE_THRESHOLD`]
//! strikes the peer is handed to the existing quarantine → `Suspect`
//! → `Dead` lattice, evicted, and re-replicated around.

use ef_chunking::Sha256;
use ef_netsim::NodeId;
use std::collections::BTreeMap;

use crate::msg::OpId;

/// One derived proof-of-possession challenge.
///
/// Mirrors the fields of [`crate::Message::PopChallenge`]; the prover
/// and the coordinator both feed them to [`pop_digest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopChallenge {
    /// Salt mixed into the digest so answers cannot be precomputed
    /// per key or replayed across operations.
    pub nonce: u64,
    /// Slice offset seed, wrapped modulo the chunk length.
    pub offset: u32,
    /// Slice length cap.
    pub len: u32,
}

/// Shortest challenged slice, in bytes.
const POP_SLICE_MIN: u32 = 64;
/// Longest challenged slice, in bytes.
const POP_SLICE_MAX: u32 = 512;

/// SplitMix64 output function: the standard finalizer used throughout
/// the repo for stateless seed-derived streams.
pub(crate) fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the challenge for `prover`'s claim on the op's key.
///
/// A pure function of `(pop_seed, op_id, key_token, prover)`: the
/// service path consumes no RNG draws, so enabling proofs never
/// perturbs the seeded fault schedule and replays stay bit-identical.
/// Distinct ops (and distinct provers within an op, as on hedged
/// lookups) get independent challenges, so an answer observed once
/// cannot be replayed.
pub fn derive_challenge(
    pop_seed: u64,
    op_id: OpId,
    key_token: u64,
    prover: NodeId,
) -> PopChallenge {
    let mut s = pop_seed;
    for input in [
        op_id.coordinator.0 as u64,
        op_id.seq,
        key_token,
        prover.0 as u64,
    ] {
        s = splitmix(s ^ input);
    }
    let nonce = splitmix(s);
    let offset = (splitmix(nonce) >> 32) as u32;
    let span = POP_SLICE_MAX - POP_SLICE_MIN + 1;
    let len = POP_SLICE_MIN + (splitmix(nonce ^ 0x5bd1_e995) % u64::from(span)) as u32;
    PopChallenge { nonce, offset, len }
}

/// The proof digest: SHA-256 over the challenge salt followed by the
/// challenged slice of `value`.
///
/// The offset wraps modulo the chunk length and the slice wraps around
/// the end, so every challenge is answerable for any non-empty chunk
/// while still covering seed-chosen bytes a fingerprint-only liar
/// never stored. Built on the repo's from-scratch SHA-256
/// ([`ef_chunking::Sha256`]).
pub fn pop_digest(challenge: PopChallenge, value: &[u8]) -> [u8; 32] {
    let take = (challenge.len as usize).min(value.len());
    let mut buf = Vec::with_capacity(8 + take);
    buf.extend_from_slice(&challenge.nonce.to_le_bytes());
    if !value.is_empty() {
        // `take <= value.len()`, so the wrapped slice is at most two
        // contiguous segments.
        let start = (challenge.offset as usize) % value.len();
        let first = take.min(value.len() - start);
        buf.extend_from_slice(&value[start..start + first]);
        buf.extend_from_slice(&value[..take - first]);
    }
    Sha256::digest(&buf)
}

/// Per-peer strike ledger: counts provable lies and decides when a
/// peer graduates to quarantine.
///
/// Strikes are charged only on cryptographic proof of misbehavior —
/// a possession digest that fails verification, peer-served bytes
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
    use ef_simcore::prop::{any, check, vec};

    fn op(coordinator: u32, seq: u64) -> OpId {
        OpId {
            coordinator: NodeId(coordinator),
            seq,
        }
    }

    #[test]
    fn challenges_are_deterministic_and_distinct_per_op_and_prover() {
        let a = derive_challenge(7, op(0, 1), 99, NodeId(2));
        let b = derive_challenge(7, op(0, 1), 99, NodeId(2));
        assert_eq!(a, b, "same inputs must derive the same challenge");
        // Different op, prover, key, or seed: independent challenges.
        assert_ne!(a, derive_challenge(7, op(0, 2), 99, NodeId(2)));
        assert_ne!(a, derive_challenge(7, op(0, 1), 99, NodeId(3)));
        assert_ne!(a, derive_challenge(7, op(0, 1), 98, NodeId(2)));
        assert_ne!(a, derive_challenge(8, op(0, 1), 99, NodeId(2)));
    }

    #[test]
    fn slice_lengths_stay_in_their_band() {
        for seq in 0..200u64 {
            let c = derive_challenge(42, op(1, seq), seq.wrapping_mul(31), NodeId(4));
            assert!((POP_SLICE_MIN..=POP_SLICE_MAX).contains(&c.len), "{c:?}");
        }
    }

    #[test]
    fn empty_chunks_are_still_answerable() {
        let c = derive_challenge(1, op(0, 0), 0, NodeId(1));
        // Salt-only digest: stable, and distinct from any non-empty one.
        assert_eq!(pop_digest(c, b""), pop_digest(c, b""));
        assert_ne!(pop_digest(c, b""), pop_digest(c, b"x"));
    }

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

    /// Whether `challenge`'s span over an `n`-byte chunk includes its
    /// last byte (by reaching it or by wrapping past it).
    fn span_covers_last_byte(challenge: PopChallenge, n: usize) -> bool {
        challenge.offset as usize % n + (challenge.len as usize).min(n) >= n
    }

    #[test]
    fn a_partial_holder_passes_when_the_span_misses_what_it_lacks() {
        // The case that made `garbage_and_partial_data_never_pass` fail
        // about once in two thousand draws: seed 42, seq 824 challenges
        // bytes 392..646 of a 700-byte chunk, and 3 717 212 492 is 392
        // modulo 699 as well as modulo 700 — a holder missing only the
        // last byte answers from the very same bytes. Legitimately: the
        // proof covers the span, and the span is all there.
        let value: Vec<u8> = (0..700u32).map(|i| (i * 37 + 11) as u8).collect();
        let c = derive_challenge(42, op(0, 824), 7, NodeId(1));
        assert_eq!((c.offset, c.len), (3_717_212_492, 254));
        assert!(!span_covers_last_byte(c, value.len()));
        assert_eq!(pop_digest(c, &value[..699]), pop_digest(c, &value));
        // Shift the same span over the missing byte and the holder fails.
        let over_the_end = PopChallenge { offset: 500, ..c };
        assert!(span_covers_last_byte(over_the_end, value.len()));
        assert_ne!(
            pop_digest(over_the_end, &value[..699]),
            pop_digest(over_the_end, &value)
        );
    }

    /// An honest prover — one that actually stores the chunk —
    /// always passes its own challenge.
    #[test]
    fn honest_prover_always_passes() {
        check(
            "honest_prover_always_passes",
            256,
            (
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                vec(any::<u8>(), 0..2048),
            ),
            |(seed, seq, token, value)| {
                let c = derive_challenge(seed, op(0, seq), token, NodeId(1));
                assert_eq!(pop_digest(c, &value), pop_digest(c, &value));
            },
        );
    }

    /// Garbage or truncated bytes never produce the stored chunk's
    /// digest: a liar fabricating or partially holding data fails.
    #[test]
    fn garbage_and_partial_data_never_pass() {
        check(
            "garbage_and_partial_data_never_pass",
            256,
            (
                any::<u64>(),
                any::<u64>(),
                vec(any::<u8>(), 1..1024),
                any::<u8>(),
            ),
            |(seed, seq, value, flip)| {
                let c = derive_challenge(seed, op(0, seq), 7, NodeId(1));
                let expected = pop_digest(c, &value);
                // Any single flipped byte inside the challenged span moves
                // the digest (SHA-256 second-preimage resistance stands in
                // for "garbage never passes").
                let mut garbled = value.clone();
                let start = (c.offset as usize) % garbled.len();
                garbled[start] ^= flip | 1;
                assert_ne!(pop_digest(c, &garbled), expected);
                // Truncating the chunk (a partial holder) also fails
                // whenever the byte it lacks was challenged.
                if value.len() > 1 && span_covers_last_byte(c, value.len()) {
                    let partial = &value[..value.len() - 1];
                    assert_ne!(pop_digest(c, partial), expected);
                }
            },
        );
    }

    /// Derivation is a pure function: re-deriving from the same
    /// scenario inputs yields the identical challenge, so the
    /// service path needs no RNG draws.
    #[test]
    fn derivation_is_pure() {
        check(
            "derivation_is_pure",
            256,
            (
                any::<u64>(),
                any::<u32>(),
                any::<u64>(),
                any::<u64>(),
                any::<u32>(),
            ),
            |(seed, coordinator, seq, token, prover)| {
                let a = derive_challenge(seed, op(coordinator, seq), token, NodeId(prover));
                let b = derive_challenge(seed, op(coordinator, seq), token, NodeId(prover));
                assert_eq!(a, b);
            },
        );
    }
}
