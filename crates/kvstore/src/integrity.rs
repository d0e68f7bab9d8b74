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

/// Streaming 64-bit checksum: a multiply-xorshift stripe kernel over 32
/// `u32` lanes in the xxh32 style, a word tail in the XXH64 style, and a
/// splitmix64 avalanche finisher.
///
/// One [`Checksum64::update`] call runs its slice's whole 128-byte
/// stripes through 32 lanes, 4-byte word `i` of every stripe into lane
/// `i`, with the round `x = lane + word·P2; lane = (x ^ x >> 15)·P1`
/// (xxh32's round with its rotate replaced by an xorshift, below). Each
/// lane is a chain across the stripes, so stripe order matters. The
/// lanes fold into one 64-bit word, two weighted sums `Σ lane_i·K_i`
/// with odd per-lane weights (one sum per half), and that word is mixed
/// into the state. What follows the stripes is mixed in as 8-byte words,
/// then single bytes, and last the call adds its length to the state.
/// Words are read with `from_le_bytes` only, so values are the same on
/// every host (`checksum_values_are_pinned` runs on the native and the
/// portable build).
///
/// **A change confined to one lane always moves the digest.** The round
/// is a bijection in the word for a fixed lane and in the lane for a
/// fixed word (`P1`, `P2` are odd and an xorshift is invertible), so a
/// changed word changes its lane's value after every later stripe. An
/// odd weight is invertible modulo 2³², so that lane's term, and with it
/// the low sum, changes. The word mix, the length add, the tail and the
/// finisher are bijections in the state. Changes in two lanes, or in two
/// words of one lane, are caught with probability about 1 − 2⁻³², as
/// with a 32-bit CRC.
///
/// The stripe loop is plain array code with no `std::arch`, `unsafe` or
/// run-time selection: the 32 lanes are one 1024-bit state, and LLVM
/// widens each stripe into `vpmulld` under `target-cpu=native` (on four
/// 256-bit or two 512-bit registers, as it prefers for the CPU) and into
/// SSE4.1 `pmulld` on eight 128-bit registers under `x86-64-v2`. The
/// xorshift is what makes the second hold: x86 has no vector rotate
/// before AVX-512, and with xxh32's `rotl(13)` LLVM keeps the whole loop
/// scalar there, at half the old kernel's speed. CI disassembles release
/// builds for `target-cpu=icelake-server` and `x86-64-v2` and fails
/// unless `Checksum64::update` holds `vpmulld`, respectively `pmulld`,
/// and no 64-bit `vpmullq`. Inputs shorter than a stripe take the word
/// tail only. DESIGN.md §10 has the rates per input size.
///
/// **The digest depends on `update` boundaries**: each call adds its own
/// length and folds its own lanes, so `update(b"ab"); update(b"c")` and
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

const LANE_PRIME_1: u32 = 0x9e37_79b1;
const LANE_PRIME_2: u32 = 0x85eb_ca77;

/// Lanes of the stripe loop, one 4-byte word each per stripe.
const LANES: usize = 32;
/// Bytes in a stripe.
const STRIPE: usize = 4 * LANES;

/// The splitmix64 avalanche: a bijection on `u64`.
const fn avalanche(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One odd constant per lane: the low halves of the splitmix64 sequence
/// from draw `first` on, low bit set.
const fn lane_constants(first: u64) -> [u32; LANES] {
    let mut out = [0; LANES];
    let mut i = 0;
    while i < LANES {
        out[i] = avalanche((first + i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)) as u32 | 1;
        i += 1;
    }
    out
}

/// The lanes' starting values: distinct, so equal words in two lanes
/// leave them unequal.
const LANE_SEEDS: [u32; LANES] = lane_constants(0);
/// The fold's odd weights, for its low and its high half.
const FOLD_WEIGHTS: [[u32; LANES]; 2] = [
    lane_constants(LANES as u64),
    lane_constants(2 * LANES as u64),
];

/// One lane step: xxh32's round with an xorshift for its rotate
/// ([`Checksum64`] says why). A bijection in `lane` for a fixed `word`
/// and in `word` for a fixed `lane`, so a changed word always changes
/// its lane.
#[inline(always)]
fn lane_round(lane: u32, word: u32) -> u32 {
    let lane = lane.wrapping_add(word.wrapping_mul(LANE_PRIME_2));
    (lane ^ lane >> 15).wrapping_mul(LANE_PRIME_1)
}

/// Mixes one 8-byte word into the state (a bijection either way).
#[inline(always)]
fn mix_word(state: u64, word: u64) -> u64 {
    let word = word
        .wrapping_mul(PRIME_2)
        .rotate_left(31)
        .wrapping_mul(PRIME_1);
    (state ^ word)
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

/// The stripe loop: word `i` of every stripe into lane `i`, a stripe at
/// a time, so each stripe is one vector step over all 32 lanes.
#[inline(always)]
fn run_stripes(stripes: &[[u8; STRIPE]]) -> [u32; LANES] {
    let mut lanes = LANE_SEEDS;
    for stripe in stripes {
        let (words, _) = stripe.as_chunks::<4>();
        for (lane, word) in lanes.iter_mut().zip(words) {
            *lane = lane_round(*lane, u32::from_le_bytes(*word));
        }
    }
    lanes
}

/// Folds the lanes into one word: `Σ lane_i·K_i` over odd weights, one
/// sum per half, so a change in any one lane moves the low half.
#[inline(always)]
fn fold_lanes(lanes: [u32; LANES]) -> u64 {
    let (mut low, mut high) = (0u32, 0u32);
    for ((lane, low_weight), high_weight) in lanes.iter().zip(FOLD_WEIGHTS[0]).zip(FOLD_WEIGHTS[1])
    {
        low = low.wrapping_add(lane.wrapping_mul(low_weight));
        high = high.wrapping_add(lane.wrapping_mul(high_weight));
    }
    u64::from(low) | u64::from(high) << 32
}

/// Mixes what follows the stripes: 8-byte words, then single bytes.
#[inline(always)]
fn mix_tail(mut state: u64, tail: &[u8]) -> u64 {
    let (words, bytes) = tail.as_chunks::<8>();
    for word in words {
        state = mix_word(state, u64::from_le_bytes(*word));
    }
    for &byte in bytes {
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

    /// Mixes `bytes` into the state: 128-byte stripes over 32 lanes, then
    /// 8-byte words, then single bytes, then their length.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(test)]
        note_digested(bytes.len());
        if bytes.is_empty() {
            return;
        }
        let mut state = self.state;
        let (stripes, tail) = bytes.as_chunks::<STRIPE>();
        if !stripes.is_empty() {
            state = mix_word(state, fold_lanes(run_stripes(stripes)));
        }
        self.state = mix_tail(state, tail).wrapping_add(bytes.len() as u64);
    }

    /// Mixes a length-prefixed field boundary into the state, so
    /// `("ab", "c")` and `("a", "bc")` digest differently. Equal to
    /// `update(&v.to_le_bytes())`.
    pub fn update_u64(&mut self, v: u64) {
        self.state = mix_word(self.state, v).wrapping_add(8);
    }

    /// Finalizes with a splitmix64 avalanche.
    pub fn finish(&self) -> u64 {
        avalanche(self.state)
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

    /// `checksum64(filler(len))`, recorded from `lane_at_a_time_update`:
    /// the word and byte tails alone, one stripe with no tail and with
    /// each kind of tail, two stripes either side of a boundary, and
    /// payload sizes. The values are the same under every build; CI runs
    /// this test on the portable (`x86-64-v2`) build as well as the
    /// native one.
    const PINNED: [(usize, u64); 16] = [
        (0, 0xefc7_70cc_c886_92bd),
        (1, 0xba35_6ece_c5e2_488b),
        (7, 0x8be5_ecea_e33a_8b31),
        (8, 0xbd44_d90b_e2da_f066),
        (63, 0xd8cc_2bb4_aab4_9d50),
        (64, 0x1356_a782_ef59_d139),
        (127, 0xda92_85ae_adc8_abe4),
        (128, 0x47b8_a66c_8a50_81dc),
        (129, 0x67af_33f9_418b_45ae),
        (136, 0xb719_bb57_e73b_5fd8),
        (255, 0xc6e9_ba5d_aa4e_30fa),
        (256, 0x5035_1383_7195_f7ab),
        (4_095, 0xd2fa_beed_e629_fc41),
        (4_096, 0xd5d3_08a4_f228_8e7a),
        (4_097, 0xa7cf_4c5e_f10e_6b4a),
        (16_384, 0x5c7b_c755_3dc2_4f01),
    ];

    #[test]
    fn checksum_values_are_pinned() {
        for (len, want) in PINNED {
            let mut reference = Checksum64::new();
            lane_at_a_time_update(&mut reference, &filler(len));
            assert_eq!(reference.finish(), want, "reference, len {len}");
            assert_eq!(checksum64(&filler(len)), want, "len {len}");
        }
    }

    /// `Checksum64::update` with its stripe loop turned inside out: each
    /// lane runs its own words through every stripe before the next lane
    /// starts, with the round written out from its definition, and adds
    /// its weighted terms to the fold as it finishes. The reference the
    /// vector kernel is held to, bit for bit.
    fn lane_at_a_time_update(c: &mut Checksum64, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        let mut state = c.state;
        let whole = bytes.len() - bytes.len() % STRIPE;
        if whole > 0 {
            let (mut low, mut high) = (0u32, 0u32);
            for lane in 0..LANES {
                let mut value = LANE_SEEDS[lane];
                for stripe in bytes[..whole].chunks_exact(STRIPE) {
                    let word = u32::from_le_bytes(le_array(&stripe[4 * lane..4 * lane + 4]));
                    let x = value.wrapping_add(word.wrapping_mul(LANE_PRIME_2));
                    value = (x ^ (x >> 15)).wrapping_mul(LANE_PRIME_1);
                }
                low = low.wrapping_add(value.wrapping_mul(FOLD_WEIGHTS[0][lane]));
                high = high.wrapping_add(value.wrapping_mul(FOLD_WEIGHTS[1][lane]));
            }
            state = mix_word(state, u64::from(low) | u64::from(high) << 32);
        }
        c.state = mix_tail(state, &bytes[whole..]).wrapping_add(bytes.len() as u64);
    }

    #[test]
    fn kernel_matches_the_lane_at_a_time_reference() {
        // A call is `update_u64(x)` or `update` of the span `x`, `y`
        // pick out of the payload.
        let call = (any::<bool>(), any::<u64>(), any::<u64>());
        let strategy = (vec(any::<u8>(), 0..20 * 1024 + 1), vec(call, 0..8));
        let property = |(data, calls): (Vec<u8>, Vec<(bool, u64, u64)>)| {
            let mut reference = Checksum64::new();
            lane_at_a_time_update(&mut reference, &data);
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
                    lane_at_a_time_update(&mut reference, &data[lo..hi]);
                }
                assert_eq!(kernel.finish(), reference.finish(), "streaming");
            }
        };
        check("checksum_kernel_reference", 48, strategy, property);
    }

    /// XORs `mask` (little-endian) into `buf[word]`; twice undoes it.
    fn xor_word(buf: &mut [u8], word: std::ops::Range<usize>, mask: u32) {
        for (byte, m) in buf[word].iter_mut().zip(mask.to_le_bytes()) {
            *byte ^= m;
        }
    }

    /// Every length that crosses no stripe, one, and up to eight, with
    /// every kind of tail: a change confined to one aligned 4-byte word
    /// (one lane of one stripe, or a piece of the tail) must move the
    /// digest — every single-bit flip of every word, and a random nonzero
    /// XOR of each — checked for the lengths in `lens`. The RNG is drawn
    /// for every length up to 1,100 B, so each length gets the same
    /// random masks whichever part checks it.
    fn a_change_in_one_lane_moves_the_digest(lens: std::ops::RangeInclusive<usize>) {
        let mut rng = ef_simcore::DetRng::new(0x1a9e);
        for len in 0..=1_100 {
            let words = (0..len).step_by(4).map(|start| start..len.min(start + 4));
            let words: Vec<_> = words
                .map(|word| {
                    let bits = 8 * word.len() as u32;
                    (word, bits, (rng.next_u64() as u32 >> (32 - bits)).max(1))
                })
                .collect();
            if !lens.contains(&len) {
                continue;
            }
            let mut buf = filler(len);
            let clean = checksum64(&buf);
            for (word, bits, random) in words {
                let start = word.start;
                for mask in (0..bits).map(|bit| 1 << bit).chain([random]) {
                    xor_word(&mut buf, word.clone(), mask);
                    assert_ne!(
                        checksum64(&buf),
                        clean,
                        "len {len}: word at {start}, xor {mask:#x}"
                    );
                    xor_word(&mut buf, word.clone(), mask);
                }
            }
        }
    }

    // Four parts of about equal work (a length costs its square), so the
    // harness runs them side by side.
    #[test]
    fn a_change_in_one_lane_always_moves_the_digest_0_to_700_bytes() {
        a_change_in_one_lane_moves_the_digest(0..=700);
    }

    #[test]
    fn a_change_in_one_lane_always_moves_the_digest_701_to_880_bytes() {
        a_change_in_one_lane_moves_the_digest(701..=880);
    }

    #[test]
    fn a_change_in_one_lane_always_moves_the_digest_881_to_1000_bytes() {
        a_change_in_one_lane_moves_the_digest(881..=1_000);
    }

    #[test]
    fn a_change_in_one_lane_always_moves_the_digest_1001_to_1100_bytes() {
        a_change_in_one_lane_moves_the_digest(1_001..=1_100);
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        // Payload-sized buffers, 32 and 128 stripes; every length up to
        // 1,100 B is covered by the `a_change_in_one_lane_always_moves_the_digest_*`
        // parts.
        for len in [4_096, 16_384] {
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
    fn reordered_words_change_the_checksum() {
        let base = filler(2 * STRIPE + 8 + 3);
        let clean = checksum64(&base);
        // Words 1 and 33 feed lane 1 in consecutive stripes.
        let mut same_lane = base.clone();
        same_lane.copy_within(132..136, 4);
        same_lane[132..136].copy_from_slice(&base[4..8]);
        assert_ne!(checksum64(&same_lane), clean);
        // Neighbouring words of one stripe feed different lanes.
        let mut cross_lane = base.clone();
        cross_lane.copy_within(4..8, 0);
        cross_lane[4..8].copy_from_slice(&base[0..4]);
        assert_ne!(checksum64(&cross_lane), clean);
    }

    #[test]
    fn swapped_stripes_move_the_digest() {
        // The lanes chain across stripes, so the fold sees stripe order:
        // every pair of whole stripes swapped, with and without a tail.
        for len in [2 * STRIPE, 3 * STRIPE + 41, 8 * STRIPE + 5] {
            let base = filler(len);
            let clean = checksum64(&base);
            let stripes = len / STRIPE;
            for i in 0..stripes {
                for j in i + 1..stripes {
                    let mut swapped = base.clone();
                    let (a, b) = (i * STRIPE..(i + 1) * STRIPE, j * STRIPE..(j + 1) * STRIPE);
                    swapped[a.clone()].copy_from_slice(&base[b.clone()]);
                    swapped[b].copy_from_slice(&base[a]);
                    assert_ne!(
                        checksum64(&swapped),
                        clean,
                        "len {len}: stripes {i} and {j}"
                    );
                }
            }
        }
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
