//! End-to-end integrity: checksums, typed corruption errors, and the
//! counters that account for every detected/repaired/lost byte.
//!
//! A dedup index is uniquely fragile to *silent* corruption: one flipped
//! bit in an index entry can manufacture a false duplicate — the exact
//! soundness property the D2-ring design depends on. Every durable or
//! wire-crossing byte in this crate therefore carries a checksum
//! ([`checksum64`]), every read boundary verifies it, and every verdict
//! (rejected frame, scrubbed entry, repaired or lost record) lands in
//! [`IntegrityStats`](crate::IntegrityStats) — detected corruption is a
//! typed event, never a panic and never silently-accepted data.

use bytes::Bytes;

/// Streaming 64-bit checksum: a word-parallel multiply-rotate kernel in
/// the XXH64 style with a splitmix64 avalanche finisher.
///
/// One [`Checksum64::update`] call digests its slice as 32-byte stripes
/// over four independent `u64` lanes, folds the lanes back into the
/// single state word, then takes the remaining 8-byte words and finally
/// single bytes. Words are read with `from_le_bytes` only, so values are
/// the same on every host (`checksum_values_are_pinned` runs on the
/// native and the portable build).
///
/// The four lanes are four scalar add → rotate → multiply chains that
/// the core runs side by side, one word each per stripe. They stay
/// scalar because the stripe loop is a rotating file of four registers
/// that takes one word per iteration: no iteration holds two lanes, so
/// LLVM's SLP vectorizer has no pair to pack. Written as an array of
/// lanes updated a stripe at a time, it packed lanes 0–1 into one
/// AVX-512DQ `vpmullq` (15-cycle latency), and every stripe waited on
/// that chain: 5–6 GB/s under `target-cpu=native` against 11 GB/s
/// under `x86-64-v2`. CI emits the crate's assembly under
/// `target-cpu=icelake-server` and fails on any `vpmullq` in a symbol
/// named after the kernel (`Checksum64::update`, `checksum64`):
/// a compiler that re-rolls the rotation into lanes would halve the
/// kernel again without moving one digest.
///
/// **The digest depends on `update` boundaries**: the lanes are folded at
/// the end of every call, so `update(b"ab"); update(b"c")` and
/// `update(b"abc")` differ. Nothing relies on the streaming form being
/// split-invariant — every caller either hashes one slice
/// ([`checksum64`]) or length-prefixes each field with
/// [`Checksum64::update_u64`] before hashing it whole
/// (`Message::frame_checksum`), or hashes one slice and then a
/// fixed-width word (a log frame's head, then its payload's sum) — and
/// `update(&[])` is a no-op.
///
/// Not cryptographic — it detects the random bit flips the fault model
/// injects, like the CRCs real storage engines use. It shares nothing
/// with the ring's placement hash ([`key_token`](crate::key_token)),
/// which stays byte-serial FNV-1a because its values decide where keys
/// live.
#[derive(Debug, Clone, Copy)]
pub struct Checksum64 {
    state: u64,
}

impl Default for Checksum64 {
    fn default() -> Self {
        Checksum64::new()
    }
}

const PRIME_1: u64 = 0x9e37_79b1_85eb_ca87;
const PRIME_2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const PRIME_3: u64 = 0x1656_67b1_9e37_79f9;
const PRIME_4: u64 = 0x85eb_ca77_c2b2_ae63;
const PRIME_5: u64 = 0x27d4_eb2f_1656_67c5;

/// One lane step: a bijection in `lane` for a fixed `word` and in `word`
/// for a fixed `lane`, so a changed word always changes its lane.
#[inline(always)]
fn lane_round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

/// Mixes one 8-byte word into the folded state (a bijection either way).
#[inline(always)]
fn mix_word(state: u64, word: u64) -> u64 {
    (state ^ lane_round(0, word))
        .rotate_left(27)
        .wrapping_mul(PRIME_1)
        .wrapping_add(PRIME_4)
}

/// `bytes` (exactly `N` of them) as an array, for `from_le_bytes`.
#[inline(always)]
pub(crate) fn le_array<const N: usize>(bytes: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(bytes);
    out
}

#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(le_array(bytes))
}

/// The four lane chains of a stripe run.
type Lanes = (u64, u64, u64, u64);

/// The lanes a stripe run starts from, seeded from the state word.
#[inline(always)]
fn seed_lanes(state: u64) -> Lanes {
    (
        state.wrapping_add(PRIME_1).wrapping_add(PRIME_2),
        state.wrapping_add(PRIME_2),
        state,
        state.wrapping_sub(PRIME_1),
    )
}

/// The stripe loop over whole 32-byte stripes. One lane per iteration
/// keeps the chains scalar (see [`Checksum64`]). Word i of every stripe
/// lands in lane i, and the stripe count is whole, so the file ends in
/// lane order.
#[inline(always)]
fn run_stripes((mut a, mut b, mut c, mut d): Lanes, stripes: &[u8]) -> Lanes {
    for word in stripes.chunks_exact(8) {
        (a, b, c, d) = (b, c, d, lane_round(a, le_word(word)));
    }
    (a, b, c, d)
}

/// Folds the lanes back into the single state word.
#[inline(always)]
fn fold_lanes((a, b, c, d): Lanes) -> u64 {
    let mut state = a
        .rotate_left(1)
        .wrapping_add(b.rotate_left(7))
        .wrapping_add(c.rotate_left(12))
        .wrapping_add(d.rotate_left(18));
    for lane in [a, b, c, d] {
        state = mix_word(state, lane);
    }
    state
}

/// Mixes what follows the stripes: 8-byte words, then single bytes.
#[inline(always)]
fn mix_tail(mut state: u64, tail: &[u8]) -> u64 {
    let mut words = tail.chunks_exact(8);
    for word in &mut words {
        state = mix_word(state, le_word(word));
    }
    for &byte in words.remainder() {
        state = (state ^ u64::from(byte).wrapping_mul(PRIME_5))
            .rotate_left(11)
            .wrapping_mul(PRIME_3);
    }
    state
}

impl Checksum64 {
    /// A fresh checksum state.
    pub fn new() -> Self {
        Checksum64 {
            state: 0xcbf2_9ce4_8422_2325 ^ 0x5bd1_e995,
        }
    }

    /// Mixes `bytes` into the state: 32-byte stripes over four lanes,
    /// then 8-byte words, then single bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(test)]
        note_digested(bytes.len());
        let mut state = self.state;
        let (stripes, tail) = bytes.split_at(bytes.len() - bytes.len() % 32);
        if !stripes.is_empty() {
            state = fold_lanes(run_stripes(seed_lanes(state), stripes));
        }
        self.state = mix_tail(state, tail);
    }

    /// Mixes a length-prefixed field boundary into the state, so
    /// `("ab", "c")` and `("a", "bc")` digest differently. Equal to
    /// `update(&v.to_le_bytes())`.
    pub fn update_u64(&mut self, v: u64) {
        self.state = mix_word(self.state, v);
    }

    /// Finalizes with a splitmix64 avalanche.
    pub fn finish(&self) -> u64 {
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One-shot checksum of a byte slice.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut c = Checksum64::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
thread_local! {
    /// Bytes this thread has put through the kernel.
    static DIGESTED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
fn note_digested(bytes: usize) {
    DIGESTED.with(|n| n.set(n.get() + bytes as u64));
}

/// Bytes the calling thread has put through the kernel so far
/// ([`Checksum64::update`]; an `update_u64` word is not a payload
/// byte).
#[cfg(test)]
pub(crate) fn digested() -> u64 {
    DIGESTED.with(std::cell::Cell::get)
}

/// A payload and its [`checksum64`], taken where the bytes entered the
/// node: at client submission, off the wire, or read back from rest.
///
/// The sum is an in-memory memo, not a wire field. It travels with the
/// `Bytes` to every stamp and log write inside the node — the outbound
/// frame checksum, the storage engine's write-time sum, the write-ahead
/// log's and the upload spool's record checksums — so none of them reads
/// the payload again. It is never trusted across a boundary where the
/// bytes could have changed: a receiver re-sums what arrived, and a read
/// from rest recomputes from the stored bytes (DESIGN.md §10).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summed {
    bytes: Bytes,
    sum: u64,
}

impl Summed {
    /// Digests `bytes`: the way in for a payload this node has not summed.
    pub fn digest(bytes: Bytes) -> Self {
        let sum = checksum64(&bytes);
        Summed { bytes, sum }
    }

    /// `bytes` with the sum this node already took of these very bytes.
    pub(crate) fn with_sum(bytes: Bytes, sum: u64) -> Self {
        Summed { bytes, sum }
    }

    /// The payload.
    pub fn bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// `checksum64` of the payload.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The payload, its sum dropped.
    pub fn into_bytes(self) -> Bytes {
        self.bytes
    }
}

impl std::ops::Deref for Summed {
    type Target = Bytes;

    fn deref(&self) -> &Bytes {
        &self.bytes
    }
}

/// A detected integrity violation: stored or received bytes no longer
/// match their recorded checksum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntegrityError {
    /// A stored value failed verification on read.
    CorruptValue {
        /// The key whose value failed verification.
        key: Bytes,
        /// The checksum recorded at write time.
        expected: u64,
        /// The checksum of the bytes actually read.
        actual: u64,
    },
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrityError::CorruptValue {
                key,
                expected,
                actual,
            } => write!(
                f,
                "value for key ({} bytes) failed checksum: expected {expected:#x}, got {actual:#x}",
                key.len()
            ),
        }
    }
}

impl std::error::Error for IntegrityError {}

#[cfg(test)]
mod tests {
    use super::*;
    use ef_simcore::prop::{any, check, vec};

    #[test]
    fn checksum_is_deterministic_and_input_sensitive() {
        assert_eq!(checksum64(b"hello"), checksum64(b"hello"));
        assert_ne!(checksum64(b"hello"), checksum64(b"hellp"));
        assert_ne!(checksum64(b""), checksum64(b"\0"));
    }

    /// Deterministic filler with no repeated 8-byte word.
    fn filler(len: usize) -> Vec<u8> {
        let words = (0..len.div_ceil(8) as u64).flat_map(|i| {
            i.wrapping_add(1)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .to_le_bytes()
        });
        words.take(len).collect()
    }

    /// `checksum64(filler(len))`, recorded under the four-lane stripe loop
    /// that `stripe_loop_update` keeps: every path through the kernel,
    /// one and two stripes with each kind of tail, and payload sizes.
    /// The values are the same under every build; CI runs this test on
    /// the portable (`x86-64-v2`) build as well as the native one.
    const PINNED: [(usize, u64); 16] = [
        (0, 0xefc7_70cc_c886_92bd),
        (1, 0xe01f_6b47_58ea_ff5b),
        (7, 0x6dd8_f11d_1c95_5454),
        (8, 0xd5aa_5d40_1767_7381),
        (31, 0xdd7d_590e_7bd5_156f),
        (32, 0x2ce8_fcf7_3fd5_2526),
        (33, 0x3e6d_4119_d755_4b93),
        (63, 0x89ac_b2a4_834d_41a7),
        (64, 0x5c69_7a14_689b_fb4a),
        (65, 0xcb91_dd52_d13a_fa95),
        (95, 0xfd88_f529_80bd_4cda),
        (96, 0x2e00_a7ff_0da3_bf03),
        (4_095, 0x7007_b305_5b2f_d075),
        (4_096, 0x546c_4e0f_f02f_a620),
        (4_097, 0x4403_5648_2c05_5112),
        (16_384, 0x6fa6_2b25_d21e_ec8b),
    ];

    #[test]
    fn checksum_values_are_pinned() {
        for (len, want) in PINNED {
            assert_eq!(checksum64(&filler(len)), want, "len {len}");
        }
    }

    /// `Checksum64::update` as it was before the rotating register file:
    /// an array of four lanes, one stripe per iteration. The reference
    /// the kernel is held to, bit for bit.
    fn stripe_loop_update(c: &mut Checksum64, bytes: &[u8]) {
        let mut state = c.state;
        let mut stripes = bytes.chunks_exact(32);
        if stripes.len() > 0 {
            let mut lanes = [
                state.wrapping_add(PRIME_1).wrapping_add(PRIME_2),
                state.wrapping_add(PRIME_2),
                state,
                state.wrapping_sub(PRIME_1),
            ];
            for stripe in &mut stripes {
                for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                    *lane = lane_round(*lane, le_word(word));
                }
            }
            state = lanes[0]
                .rotate_left(1)
                .wrapping_add(lanes[1].rotate_left(7))
                .wrapping_add(lanes[2].rotate_left(12))
                .wrapping_add(lanes[3].rotate_left(18));
            for lane in lanes {
                state = mix_word(state, lane);
            }
        }
        let mut words = stripes.remainder().chunks_exact(8);
        for word in &mut words {
            state = mix_word(state, le_word(word));
        }
        for &byte in words.remainder() {
            state = (state ^ u64::from(byte).wrapping_mul(PRIME_5))
                .rotate_left(11)
                .wrapping_mul(PRIME_3);
        }
        c.state = state;
    }

    #[test]
    fn kernel_matches_the_stripe_loop_reference() {
        // A call is `update_u64(x)` or `update` of the span `x`, `y`
        // pick out of the payload.
        let call = (any::<bool>(), any::<u64>(), any::<u64>());
        let strategy = (vec(any::<u8>(), 0..20 * 1024 + 1), vec(call, 0..8));
        let property = |(data, calls): (Vec<u8>, Vec<(bool, u64, u64)>)| {
            let mut reference = Checksum64::new();
            stripe_loop_update(&mut reference, &data);
            assert_eq!(checksum64(&data), reference.finish(), "one-shot");
            let (mut kernel, mut reference) = (Checksum64::new(), Checksum64::new());
            for (word, x, y) in calls {
                if word {
                    kernel.update_u64(x);
                    reference.update_u64(x);
                } else {
                    let lo = (x % (data.len() as u64 + 1)) as usize;
                    let hi = lo + (y % ((data.len() - lo) as u64 + 1)) as usize;
                    kernel.update(&data[lo..hi]);
                    stripe_loop_update(&mut reference, &data[lo..hi]);
                }
                assert_eq!(kernel.finish(), reference.finish(), "streaming");
            }
        };
        check("checksum_kernel_reference", 48, strategy, property);
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        // Every path through the kernel: empty, byte tail only, word
        // tail, one short of a stripe, exact stripes, stripes plus each
        // kind of tail, and whole payload-sized buffers.
        for len in [0, 1, 7, 8, 31, 32, 33, 63, 64, 65, 4_096, 16_384] {
            let mut buf = filler(len);
            let clean = checksum64(&buf);
            for byte in 0..len {
                for bit in 0..8 {
                    buf[byte] ^= 1 << bit;
                    assert_ne!(
                        checksum64(&buf),
                        clean,
                        "len {len}: flip {byte}:{bit} undetected"
                    );
                    buf[byte] ^= 1 << bit;
                }
            }
            assert_eq!(checksum64(&buf), clean);
        }
    }

    #[test]
    fn reordered_words_and_stripes_change_the_checksum() {
        let base = filler(4 * 32 + 8 + 3);
        let clean = checksum64(&base);
        // Words 1 and 5 feed the same lane in consecutive stripes.
        let mut same_lane = base.clone();
        same_lane.copy_within(40..48, 8);
        same_lane[40..48].copy_from_slice(&base[8..16]);
        assert_ne!(checksum64(&same_lane), clean);
        // Neighbouring words of one stripe feed different lanes.
        let mut cross_lane = base.clone();
        cross_lane.copy_within(8..16, 0);
        cross_lane[8..16].copy_from_slice(&base[0..8]);
        assert_ne!(checksum64(&cross_lane), clean);
        // Whole stripes 0 and 2 swapped.
        let mut stripes = base.clone();
        stripes.copy_within(64..96, 0);
        stripes[64..96].copy_from_slice(&base[0..32]);
        assert_ne!(checksum64(&stripes), clean);
    }

    #[test]
    fn streaming_form_matches_the_one_shot_and_empty_updates_are_noops() {
        for len in [0, 5, 8, 32, 100, 4_096] {
            let data = filler(len);
            let mut c = Checksum64::new();
            c.update(&[]);
            c.update(&data);
            c.update(&[]);
            assert_eq!(c.finish(), checksum64(&data), "len {len}");
        }
        let mut c = Checksum64::new();
        c.update(b"prefix");
        let before = c.finish();
        c.update(&[]);
        assert_eq!(c.finish(), before);
    }

    #[test]
    fn update_u64_is_the_eight_byte_update() {
        for v in [0, 1, 0xdead_beef, u64::MAX] {
            let (mut a, mut b) = (Checksum64::new(), Checksum64::new());
            a.update(b"field");
            b.update(b"field");
            a.update_u64(v);
            b.update(&v.to_le_bytes());
            assert_eq!(a.finish(), b.finish());
        }
    }

    #[test]
    fn digest_depends_on_update_boundaries() {
        // Documented, not accidental: lanes fold at the end of each
        // call. Callers hash whole slices or length-prefix their fields.
        let data = filler(96);
        let mut split = Checksum64::new();
        split.update(&data[..40]);
        split.update(&data[40..]);
        assert_ne!(split.finish(), checksum64(&data));
    }

    #[test]
    fn field_boundaries_are_length_delimited() {
        let mut a = Checksum64::new();
        a.update_u64(2);
        a.update(b"ab");
        a.update_u64(1);
        a.update(b"c");
        let mut b = Checksum64::new();
        b.update_u64(1);
        b.update(b"a");
        b.update_u64(2);
        b.update(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn checksum_differs_from_key_token() {
        // Structural independence from the ring's placement hash.
        assert_ne!(checksum64(b"chunk"), crate::key_token(b"chunk"));
    }

    #[test]
    fn error_display_names_the_checksums() {
        let e = IntegrityError::CorruptValue {
            key: Bytes::from_static(b"k"),
            expected: 0xab,
            actual: 0xcd,
        };
        let s = e.to_string();
        assert!(s.contains("0xab") && s.contains("0xcd"), "{s}");
    }
}
