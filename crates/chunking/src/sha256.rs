//! SHA-256 (FIPS 180-4) implemented from scratch.
//!
//! This reproduction builds from its own tree alone, so the chunk-content
//! hash the paper's Dedup Agent relies on is implemented here and
//! validated against the official NIST
//! test vectors. Every content-address check in the system — ingest
//! fingerprints, the cloud tier's verify-on-put and verify-on-get, PoP
//! digests — ends in one function, `compress_blocks`, so this module is
//! written for speed:
//!
//! * **Single message.** `compress_blocks` runs whole runs of 64-byte
//!   blocks with the state in registers. Which kernel it is was decided
//!   when the crate was compiled, by `cfg(target_feature)` and nothing
//!   else: with `sha` + `sse4.1` + `ssse3` in the build's target features
//!   (what `-C target-cpu=native` yields on a CPU with the SHA
//!   extensions) it is the SHA-NI kernel, ~1.2 GB/s on chunk-sized
//!   messages; otherwise it is the portable kernel, ~0.3 GB/s. There is no
//!   run-time detection, cargo feature or environment switch, and a
//!   binary built with `sha` needs `sha` where it runs.
//! * **Batch of messages.** [`Sha256::digest_batch`] hashes independent
//!   messages together. Without `sha` it advances [`BATCH_LANES`] messages
//!   through a structure-of-arrays compressor that LLVM vectorizes
//!   (~1 GB/s with AVX-512); with `sha` it loops the hardware kernel,
//!   which is faster still and needs no lane scheduling.
//!
//! The portable kernel and the lane compressor are compiled and tested on
//! every host, whichever the build selects. The hardware kernel holds the
//! workspace's only `unsafe` block: calling a `#[target_feature]`
//! function from ordinary code is unsafe even when the build enables the
//! feature, so the `cfg` that compiles the call in is also its safety
//! precondition.

// A module on the dedup hot path (DESIGN.md §13): besides unwrap, expect
// and panic!, every index and every integer operation must be checked.
#![warn(clippy::indexing_slicing, clippy::arithmetic_side_effects)]

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use ef_chunking::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(
///     hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
///
/// fn hex(bytes: &[u8]) -> String {
///     bytes.iter().map(|b| format!("{b:02x}")).collect()
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// The round constants, four to a row: the hardware kernel adds a row to
/// four schedule words per `sha256rnds2` pair, the portable kernel takes
/// two rows per unrolled iteration.
const K: [[u32; 4]; 16] = [
    [0x428a_2f98, 0x7137_4491, 0xb5c0_fbcf, 0xe9b5_dba5],
    [0x3956_c25b, 0x59f1_11f1, 0x923f_82a4, 0xab1c_5ed5],
    [0xd807_aa98, 0x1283_5b01, 0x2431_85be, 0x550c_7dc3],
    [0x72be_5d74, 0x80de_b1fe, 0x9bdc_06a7, 0xc19b_f174],
    [0xe49b_69c1, 0xefbe_4786, 0x0fc1_9dc6, 0x240c_a1cc],
    [0x2de9_2c6f, 0x4a74_84aa, 0x5cb0_a9dc, 0x76f9_88da],
    [0x983e_5152, 0xa831_c66d, 0xb003_27c8, 0xbf59_7fc7],
    [0xc6e0_0bf3, 0xd5a7_9147, 0x06ca_6351, 0x1429_2967],
    [0x27b7_0a85, 0x2e1b_2138, 0x4d2c_6dfc, 0x5338_0d13],
    [0x650a_7354, 0x766a_0abb, 0x81c2_c92e, 0x9272_2c85],
    [0xa2bf_e8a1, 0xa81a_664b, 0xc24b_8b70, 0xc76c_51a3],
    [0xd192_e819, 0xd699_0624, 0xf40e_3585, 0x106a_a070],
    [0x19a4_c116, 0x1e37_6c08, 0x2748_774c, 0x34b0_bcb5],
    [0x391c_0cb3, 0x4ed8_aa4a, 0x5b9c_ca4f, 0x682e_6ff3],
    [0x748f_82ee, 0x78a5_636f, 0x84c8_7814, 0x8cc7_0208],
    [0x90be_fffa, 0xa450_6ceb, 0xbef9_a3f7, 0xc671_78f2],
];

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, compress_blocks);
    }

    /// Consumes the hasher and returns the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        self.finish(compress_blocks)
    }

    /// [`Sha256::update`] over an explicit kernel (the tests run every
    /// compiled kernel through the same buffering).
    #[expect(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        clippy::expect_used,
        reason = "buffer_len < 64 between calls; a 2^61-byte message cannot occur, and checked_add makes the overflow policy loud"
    )]
    #[inline]
    fn absorb(&mut self, data: &[u8], kernel: impl Fn(&mut [u32; 8], &[[u8; 64]])) {
        self.total_len = self
            .total_len
            .checked_add(data.len() as u64)
            .expect("message too long");
        let mut input = data;
        // Fill a partially filled buffer first.
        if self.buffer_len > 0 {
            let take = input.len().min(64 - self.buffer_len);
            self.buffer[self.buffer_len..][..take].copy_from_slice(&input[..take]);
            self.buffer_len = self.buffer_len.saturating_add(take);
            input = &input[take..];
            if self.buffer_len < 64 {
                return;
            }
            kernel(&mut self.state, std::slice::from_ref(&self.buffer));
            self.buffer_len = 0;
        }
        // Every whole block in one run, viewed in place; stash the tail.
        let (blocks, tail) = input.as_chunks::<64>();
        if !blocks.is_empty() {
            kernel(&mut self.state, blocks);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    /// [`Sha256::finalize`] over an explicit kernel.
    #[expect(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        clippy::expect_used,
        reason = "buffer_len < 64 and blocks is 1 or 2; a 2^61-byte message cannot occur, and checked_mul makes the overflow policy loud"
    )]
    #[inline]
    fn finish(mut self, kernel: impl Fn(&mut [u32; 8], &[[u8; 64]])) -> [u8; 32] {
        let bit_len = self.total_len.checked_mul(8).expect("message too long");
        // Append 0x80, pad with zeros, append the 64-bit big-endian
        // length: one block, or two when the length does not fit behind
        // the data.
        let mut padding = [[0u8; 64]; 2];
        padding[0][..self.buffer_len].copy_from_slice(&self.buffer[..self.buffer_len]);
        padding[0][self.buffer_len] = 0x80;
        let blocks = if self.buffer_len < 56 { 1 } else { 2 };
        padding[blocks - 1][56..].copy_from_slice(&bit_len.to_be_bytes());
        kernel(&mut self.state, &padding[..blocks]);
        state_bytes(&self.state)
    }

    /// One-shot convenience: the SHA-256 digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Hashes a batch of independent messages; digests are bit-identical
    /// to calling [`Sha256::digest`] per message.
    ///
    /// SHA-256's compression function is a long serial dependency chain, so
    /// without hardware support a single message cannot be vectorized — but
    /// a *batch* of messages can, which is exactly the shape the chunking
    /// pipeline produces: a build without the SHA extensions runs the
    /// [`BATCH_LANES`]-wide compressor. A build with them loops the
    /// hardware kernel instead, which outruns the lanes one message at a
    /// time (DESIGN.md §11 records the measurement behind that choice).
    pub fn digest_batch(messages: &[&[u8]]) -> Vec<[u8; 32]> {
        if selected::HARDWARE {
            messages.iter().map(|msg| Sha256::digest(msg)).collect()
        } else {
            digest_batch_wide(messages)
        }
    }
}

/// The block-parallel batch path: up to [`BATCH_LANES`] messages advance
/// through the compression function together, laid out
/// structure-of-arrays so the per-round word operations act lanewise (and
/// autovectorize). Lanes refill from the batch as short messages finish;
/// once the batch can no longer keep every lane busy, the stragglers finish
/// on the single-message kernel from their current mid-stream state.
#[expect(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    reason = "lane indexes run below BATCH_LANES and message indexes below messages.len(); the lane index loops keep the shape LLVM vectorizes"
)]
fn digest_batch_wide(messages: &[&[u8]]) -> Vec<[u8; 32]> {
    if messages.len() < BATCH_LANES {
        return messages.iter().map(|msg| Sha256::digest(msg)).collect();
    }
    let mut out = vec![[0u8; 32]; messages.len()];

    // Transposed running states: states[r][l] is word r of lane l.
    let mut states = [[0u32; BATCH_LANES]; 8];
    // Which message each lane is hashing (usize::MAX = lane empty),
    // the next padded-block index, and the lane's total block count.
    let mut lane_msg = [usize::MAX; BATCH_LANES];
    let mut lane_block = [0usize; BATCH_LANES];
    let mut lane_total = [0usize; BATCH_LANES];
    let mut next = 0usize;

    loop {
        for l in 0..BATCH_LANES {
            if lane_msg[l] == usize::MAX && next < messages.len() {
                lane_msg[l] = next;
                lane_block[l] = 0;
                lane_total[l] = padded_blocks(messages[next].len());
                for r in 0..8 {
                    states[r][l] = H0[r];
                }
                next += 1;
            }
        }
        if lane_msg.contains(&usize::MAX) {
            break;
        }
        let mut blocks = [[0u8; 64]; BATCH_LANES];
        for l in 0..BATCH_LANES {
            blocks[l] = padded_block(messages[lane_msg[l]], lane_block[l]);
        }
        compress_wide(&mut states, &blocks);
        for l in 0..BATCH_LANES {
            lane_block[l] += 1;
            if lane_block[l] == lane_total[l] {
                out[lane_msg[l]] = state_bytes(&lane_state(&states, l));
                lane_msg[l] = usize::MAX;
            }
        }
    }

    // Drain: finish lanes stranded mid-message when the batch ran out of
    // refills, continuing from their wide-path state — the remaining
    // whole blocks of the message in one run, then its padding.
    for l in 0..BATCH_LANES {
        let m = lane_msg[l];
        if m == usize::MAX {
            continue;
        }
        let mut st = lane_state(&states, l);
        let (whole, _) = messages[m].as_chunks::<64>();
        let done = lane_block[l];
        if let Some(rest) = whole.get(done..) {
            compress_blocks(&mut st, rest);
        }
        for b in done.max(whole.len())..lane_total[l] {
            compress_blocks(&mut st, &[padded_block(messages[m], b)]);
        }
        out[m] = state_bytes(&st);
    }
    out
}

/// Lane `l` of the transposed states, as one message's chaining value.
#[expect(
    clippy::indexing_slicing,
    reason = "l < BATCH_LANES, the length of every lane array"
)]
fn lane_state(states: &[Lanes; 8], l: usize) -> [u32; 8] {
    states.map(|word: [u32; BATCH_LANES]| word[l])
}

/// The digest a final state spells: its eight words, big-endian.
fn state_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (bytes, word) in out.as_chunks_mut::<4>().0.iter_mut().zip(state) {
        *bytes = word.to_be_bytes();
    }
    out
}

/// Number of independent messages the block-parallel compressor of
/// [`Sha256::digest_batch`] advances per round.
///
/// Eight `u32` lanes fill two SSE2 vectors (or one AVX2 vector) per
/// operation when LLVM vectorizes the lanewise loops below, and give the
/// scheduler enough slack to keep lanes busy across uneven message lengths.
pub const BATCH_LANES: usize = 8;

type Lanes = [u32; BATCH_LANES];

#[inline(always)]
fn splat(x: u32) -> Lanes {
    [x; BATCH_LANES]
}

#[expect(
    clippy::indexing_slicing,
    reason = "i < BATCH_LANES, the length of every lane array"
)]
#[inline(always)]
fn add(a: Lanes, b: Lanes) -> Lanes {
    let mut r = [0u32; BATCH_LANES];
    for i in 0..BATCH_LANES {
        r[i] = a[i].wrapping_add(b[i]);
    }
    r
}

#[expect(
    clippy::indexing_slicing,
    reason = "i < BATCH_LANES, the length of every lane array"
)]
#[inline(always)]
fn xor(a: Lanes, b: Lanes) -> Lanes {
    let mut r = [0u32; BATCH_LANES];
    for i in 0..BATCH_LANES {
        r[i] = a[i] ^ b[i];
    }
    r
}

#[expect(
    clippy::indexing_slicing,
    reason = "i < BATCH_LANES, the length of every lane array"
)]
#[inline(always)]
fn and(a: Lanes, b: Lanes) -> Lanes {
    let mut r = [0u32; BATCH_LANES];
    for i in 0..BATCH_LANES {
        r[i] = a[i] & b[i];
    }
    r
}

#[expect(
    clippy::indexing_slicing,
    reason = "i < BATCH_LANES, the length of every lane array"
)]
#[inline(always)]
fn andnot(a: Lanes, b: Lanes) -> Lanes {
    let mut r = [0u32; BATCH_LANES];
    for i in 0..BATCH_LANES {
        r[i] = !a[i] & b[i];
    }
    r
}

#[expect(
    clippy::indexing_slicing,
    reason = "i < BATCH_LANES, the length of every lane array"
)]
#[inline(always)]
fn rotr(a: Lanes, n: u32) -> Lanes {
    let mut r = [0u32; BATCH_LANES];
    for i in 0..BATCH_LANES {
        r[i] = a[i].rotate_right(n);
    }
    r
}

#[expect(
    clippy::indexing_slicing,
    reason = "i < BATCH_LANES, the length of every lane array"
)]
#[inline(always)]
fn shr(a: Lanes, n: u32) -> Lanes {
    let mut r = [0u32; BATCH_LANES];
    for i in 0..BATCH_LANES {
        r[i] = a[i] >> n;
    }
    r
}

/// One SHA-256 compression round over [`BATCH_LANES`] independent blocks,
/// structure-of-arrays: `states[r][l]` is state word `r` of lane `l`.
///
/// `inline(never)` is load-bearing: as a standalone function LLVM
/// vectorizes every lanewise loop below, but inlined into the caller's
/// large body the SLP vectorizer gives up and scalarizes 8× the work.
#[expect(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    reason = "t < 64 indexes the 64-word schedule and t * 4 + 3 < 64 a block; the indexed loops are the shape LLVM vectorizes"
)]
#[inline(never)]
fn compress_wide(states: &mut [Lanes; 8], blocks: &[[u8; 64]; BATCH_LANES]) {
    let mut w = [[0u32; BATCH_LANES]; 64];
    for (t, word) in w.iter_mut().take(16).enumerate() {
        for (l, block) in blocks.iter().enumerate() {
            word[l] = u32::from_be_bytes([
                block[t * 4],
                block[t * 4 + 1],
                block[t * 4 + 2],
                block[t * 4 + 3],
            ]);
        }
    }
    for t in 16..64 {
        let s0 = xor(
            xor(rotr(w[t - 15], 7), rotr(w[t - 15], 18)),
            shr(w[t - 15], 3),
        );
        let s1 = xor(
            xor(rotr(w[t - 2], 17), rotr(w[t - 2], 19)),
            shr(w[t - 2], 10),
        );
        w[t] = add(add(w[t - 16], s0), add(w[t - 7], s1));
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *states;
    for (kt, wt) in K.as_flattened().iter().zip(w.iter()) {
        let s1 = xor(xor(rotr(e, 6), rotr(e, 11)), rotr(e, 25));
        let ch = xor(and(e, f), andnot(e, g));
        let temp1 = add(add(h, s1), add(ch, add(splat(*kt), *wt)));
        let s0 = xor(xor(rotr(a, 2), rotr(a, 13)), rotr(a, 22));
        let maj = xor(xor(and(a, b), and(a, c)), and(b, c));
        let temp2 = add(s0, maj);
        h = g;
        g = f;
        f = e;
        e = add(d, temp1);
        d = c;
        c = b;
        b = a;
        a = add(temp1, temp2);
    }

    states[0] = add(states[0], a);
    states[1] = add(states[1], b);
    states[2] = add(states[2], c);
    states[3] = add(states[3], d);
    states[4] = add(states[4], e);
    states[5] = add(states[5], f);
    states[6] = add(states[6], g);
    states[7] = add(states[7], h);
}

/// The single-message kernel: runs `blocks` through the SHA-256
/// compression function (FIPS 180-4 §6.2.2), in order, starting from and
/// leaving the chaining value in `state`.
///
/// Selected when this crate is compiled and by nothing else: the SHA-NI
/// kernel when the build's target features include `sha`, `sse4.1` and
/// `ssse3`, the portable kernel otherwise.
#[inline]
fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    selected::compress_blocks(state, blocks);
}

/// One round on renamed variables: the caller rotates the eight names by
/// one position per round instead of moving eight values.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr) => {
        let t1 = $h
            .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
            // ch(e, f, g) with one `and`: g where e is clear, f where set.
            .wrapping_add($g ^ ($e & ($f ^ $g)))
            .wrapping_add($kw);
        $d = $d.wrapping_add(t1);
        $h = t1
            .wrapping_add($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
            // maj(a, b, c): a and b agree, or c breaks the tie.
            .wrapping_add(($a & $b) | ($c & ($a | $b)));
    };
}

/// The portable kernel: eight rounds per iteration on rotating names, the
/// message schedule kept as a sixteen-word ring that is extended eight
/// words at a time just before the rounds that consume them.
///
/// `inline(never)` keeps it a standalone unit: inlined into a caller's
/// loop the vectorizer mangles the schedule into half-vector shuffles
/// that run slower than clean scalar code.
#[expect(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    reason = "ring slots are reduced modulo 16 and base + 8 <= 16; i < 8, one step per 8 of K's 64 words"
)]
#[cfg_attr(
    all(
        not(test),
        target_feature = "sha",
        target_feature = "sse4.1",
        target_feature = "ssse3"
    ),
    expect(
        dead_code,
        reason = "only the tests call it in a build that selects the hardware kernel"
    )
)]
#[inline(never)]
fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for block in blocks {
        let mut w = [0u32; 16];
        for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
            *word = u32::from_be_bytes(*bytes);
        }
        let entry = [a, b, c, d, e, f, g, h];
        for (i, k) in K.as_flattened().as_chunks::<8>().0.iter().enumerate() {
            // Rounds 8i..8i+8 read ring slots `base..base + 8`.
            let base = (i & 1) * 8;
            if i >= 2 {
                for j in base..base + 8 {
                    let (w15, w2) = (w[(j + 1) & 15], w[(j + 14) & 15]);
                    w[j] = w[j]
                        .wrapping_add(w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3))
                        .wrapping_add(w[(j + 9) & 15])
                        .wrapping_add(w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10));
                }
            }
            let mut kw = [0u32; 8];
            for ((kw, k), w) in kw.iter_mut().zip(k).zip(&w[base..base + 8]) {
                *kw = k.wrapping_add(*w);
            }
            round!(a, b, c, d, e, f, g, h, kw[0]);
            round!(h, a, b, c, d, e, f, g, kw[1]);
            round!(g, h, a, b, c, d, e, f, kw[2]);
            round!(f, g, h, a, b, c, d, e, kw[3]);
            round!(e, f, g, h, a, b, c, d, kw[4]);
            round!(d, e, f, g, h, a, b, c, kw[5]);
            round!(c, d, e, f, g, h, a, b, kw[6]);
            round!(b, c, d, e, f, g, h, a, kw[7]);
        }
        a = a.wrapping_add(entry[0]);
        b = b.wrapping_add(entry[1]);
        c = c.wrapping_add(entry[2]);
        d = d.wrapping_add(entry[3]);
        e = e.wrapping_add(entry[4]);
        f = f.wrapping_add(entry[5]);
        g = g.wrapping_add(entry[6]);
        h = h.wrapping_add(entry[7]);
    }
    *state = [a, b, c, d, e, f, g, h];
}

/// What this build selected: the portable kernel.
#[cfg(not(all(
    target_arch = "x86_64",
    target_feature = "sha",
    target_feature = "sse4.1",
    target_feature = "ssse3"
)))]
mod selected {
    pub(super) use super::compress_blocks_portable as compress_blocks;
    pub(super) const HARDWARE: bool = false;
}

/// What this build selected: the hardware kernel, on the x86 SHA
/// extensions.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "sha",
    target_feature = "sse4.1",
    target_feature = "ssse3"
))]
mod selected {
    use super::K;
    pub(super) const HARDWARE: bool = true;

    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8,
    };

    /// The safe face of the kernel.
    #[expect(
        unsafe_code,
        reason = "the one call into the target-feature kernel; see SAFETY below"
    )]
    #[inline]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // SAFETY: `compress` is a safe function whose only requirement is
        // that the CPU has the `sha`, `sse4.1` and `ssse3` features. This
        // module is compiled only when all three are in the build's target
        // features, which makes them a requirement of the whole binary,
        // not of this call alone.
        unsafe { compress(state, blocks) }
    }

    /// `inline(never)` is load-bearing: the SHA instructions have no VEX
    /// encoding, and a legacy-encoded instruction issued while the upper
    /// halves of the vector registers are dirty stalls for tens of cycles
    /// (measured: 1 100 → 14 MB/s when this body was inlined next to a
    /// 512-bit block copy). LLVM clears the upper halves before a call,
    /// not before an instruction, so the kernel has to stay a call.
    #[inline(never)]
    #[target_feature(enable = "sha,sse4.1,ssse3")]
    fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // `sha256rnds2` keeps the state as (A, B, E, F) and (C, D, G, H),
        // first-named word in the highest lane.
        let [a, b, c, d, e, f, g, h] = state.map(u32::cast_signed);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        let [k0, k1, k2, k3, k_rest @ ..] = &K;
        for block in blocks {
            let entry = (abef, cdgh);
            // Four schedule words per vector, W[4i] in the lowest lane; the
            // first sixteen are the block itself.
            let mut w = [abef; 4];
            for (words, bytes) in w.iter_mut().zip(block.as_chunks::<16>().0) {
                *words = load_be_words(bytes);
            }
            let [mut w0, mut w1, mut w2, mut w3] = w;
            four_rounds(&mut abef, &mut cdgh, w0, k0);
            four_rounds(&mut abef, &mut cdgh, w1, k1);
            four_rounds(&mut abef, &mut cdgh, w2, k2);
            four_rounds(&mut abef, &mut cdgh, w3, k3);
            for k in k_rest.as_chunks::<4>().0 {
                let [k0, k1, k2, k3] = k;
                w0 = next_words(w0, w1, w2, w3);
                four_rounds(&mut abef, &mut cdgh, w0, k0);
                w1 = next_words(w1, w2, w3, w0);
                four_rounds(&mut abef, &mut cdgh, w1, k1);
                w2 = next_words(w2, w3, w0, w1);
                four_rounds(&mut abef, &mut cdgh, w2, k2);
                w3 = next_words(w3, w0, w1, w2);
                four_rounds(&mut abef, &mut cdgh, w3, k3);
            }
            abef = _mm_add_epi32(abef, entry.0);
            cdgh = _mm_add_epi32(cdgh, entry.1);
        }
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(i32::cast_unsigned);
    }

    /// Rounds `4i..4i + 4`, given `W[4i..4i + 4]` and row `i` of `K`.
    #[inline]
    #[target_feature(enable = "sha,sse4.1,ssse3")]
    fn four_rounds(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, k: &[u32; 4]) {
        let [k0, k1, k2, k3] = k.map(u32::cast_signed);
        let kw = _mm_add_epi32(w, _mm_set_epi32(k3, k2, k1, k0));
        // Two rounds from the low half of `kw`, two from the high.
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, kw);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0e>(kw));
    }

    /// The four schedule words after the sixteen in `w0..=w3`.
    #[inline]
    #[target_feature(enable = "sha,sse4.1,ssse3")]
    fn next_words(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(partial, w3)
    }

    /// Sixteen message bytes as four big-endian words, first word lowest.
    #[inline]
    #[target_feature(enable = "sha,sse4.1,ssse3")]
    fn load_be_words(bytes: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*bytes);
        let le = _mm_set_epi64x(((v >> 64) as u64).cast_signed(), (v as u64).cast_signed());
        // Reverse the bytes of each 32-bit lane.
        _mm_shuffle_epi8(
            le,
            _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203),
        )
    }
}

/// Number of 64-byte blocks a `len`-byte message occupies once SHA-256
/// padding (0x80, zeros, 64-bit length) is appended.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "a slice length divided by 64, plus at most 2"
)]
fn padded_blocks(len: usize) -> usize {
    len / 64 + if len % 64 >= 56 { 2 } else { 1 }
}

/// Materializes padded block `index` of `msg` without buffering the whole
/// padded message: data blocks are copied straight out of `msg`, the 0x80
/// terminator lands right after the last data byte, and the final block
/// carries the big-endian bit length.
#[expect(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    reason = "index < padded_blocks(msg.len()), so start <= msg.len() + 8 and every slice is guarded by the test above it"
)]
fn padded_block(msg: &[u8], index: usize) -> [u8; 64] {
    let mut block = [0u8; 64];
    let start = index * 64;
    if start + 64 <= msg.len() {
        block.copy_from_slice(&msg[start..start + 64]);
        return block;
    }
    let len = msg.len();
    if start < len {
        block[..len - start].copy_from_slice(&msg[start..]);
    }
    if start <= len {
        block[len - start] = 0x80;
    }
    if index + 1 == padded_blocks(len) {
        let bits = (len as u64) * 8;
        block[56..].copy_from_slice(&bits.to_be_bytes());
    }
    block
}

#[cfg(test)]
mod tests {
    use super::*;
    use ef_simcore::prop::{any, check, vec};

    type Kernel = fn(&mut [u32; 8], &[[u8; 64]]);

    /// Every kernel this build compiled. `compress_blocks` is the hardware
    /// kernel where the build selects one and the portable kernel again
    /// where it does not, so each test below runs on both either way.
    const KERNELS: [(&str, Kernel); 2] = [
        ("portable", compress_blocks_portable),
        ("selected", compress_blocks),
    ];

    /// The digest of `pieces`, fed one `update` per piece, on `kernel`.
    fn digest_on(kernel: Kernel, pieces: &[&[u8]]) -> [u8; 32] {
        let mut h = Sha256::new();
        for piece in pieces {
            h.absorb(piece, kernel);
        }
        h.finish(kernel)
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// `message` hashes to `expected` on every compiled kernel and through
    /// the public one-shot entry point.
    fn assert_digest(message: &[u8], expected: &str) {
        for (name, kernel) in KERNELS {
            assert_eq!(
                hex(&digest_on(kernel, &[message])),
                expected,
                "{name} kernel, {} bytes",
                message.len()
            );
        }
        assert_eq!(hex(&Sha256::digest(message)), expected);
    }

    // Official FIPS 180-4 / NIST CAVP test vectors.
    #[test]
    fn nist_empty() {
        assert_digest(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn nist_abc() {
        assert_digest(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn nist_448_bits() {
        assert_digest(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn nist_896_bits() {
        assert_digest(
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
              hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        );
    }

    #[test]
    fn nist_million_a() {
        assert_digest(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn padding_boundaries() {
        // Lengths straddling the 55/56/63/64 padding edge cases.
        assert_digest(
            &[b'a'; 55],
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
        );
        assert_digest(
            &[b'a'; 56],
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
        );
        assert_digest(
            &[b'a'; 64],
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        for (name, kernel) in KERNELS {
            let oneshot = digest_on(kernel, &[&data]);
            assert_eq!(oneshot, Sha256::digest(&data), "{name} kernel");
            // Feed in awkward piece sizes to stress buffer management.
            for piece in [1usize, 3, 63, 64, 65, 127, 1000] {
                let pieces: Vec<&[u8]> = data.chunks(piece).collect();
                assert_eq!(
                    digest_on(kernel, &pieces),
                    oneshot,
                    "{name} kernel, piece size {piece}"
                );
            }
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        let a = Sha256::digest(b"chunk-a");
        let b = Sha256::digest(b"chunk-b");
        assert_ne!(a, b);
    }

    #[test]
    fn batch_matches_scalar_on_awkward_lengths() {
        // Every padding edge case (0, 55, 56, 63, 64, 119, 120) plus sizes
        // straddling block counts, in a batch long enough to exercise the
        // wide path, lane refill, and the drain.
        let lens = [
            0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129, 200, 1000, 4096, 5000, 3,
            64, 0, 777,
        ];
        let bufs: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &n)| (0..n).map(|j| ((i * 131 + j * 7) % 251) as u8).collect())
            .collect();
        let slices: Vec<&[u8]> = bufs.iter().map(|b| b.as_slice()).collect();
        // Both batch paths, whichever `digest_batch` is in this build.
        let batched = Sha256::digest_batch(&slices);
        let wide = digest_batch_wide(&slices);
        for (name, kernel) in KERNELS {
            for (i, s) in slices.iter().enumerate() {
                let scalar = digest_on(kernel, &[s]);
                assert_eq!(batched[i], scalar, "{name}: message {i} (len {})", s.len());
                assert_eq!(
                    wide[i],
                    scalar,
                    "{name}: wide message {i} (len {})",
                    s.len()
                );
            }
        }
    }

    #[test]
    fn batch_smaller_than_lane_count() {
        let slices: Vec<&[u8]> = vec![b"a", b"bb", b"ccc"];
        for batched in [Sha256::digest_batch(&slices), digest_batch_wide(&slices)] {
            assert_eq!(batched.len(), 3);
            for (i, s) in slices.iter().enumerate() {
                assert_eq!(batched[i], Sha256::digest(s));
            }
        }
    }

    #[test]
    fn batch_empty_input() {
        assert!(Sha256::digest_batch(&[]).is_empty());
        assert!(digest_batch_wide(&[]).is_empty());
    }

    #[test]
    fn batch_uniform_large_messages() {
        // All lanes run in lockstep with no refill churn: the pure wide path.
        let bufs: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; 8192]).collect();
        let slices: Vec<&[u8]> = bufs.iter().map(|b| b.as_slice()).collect();
        let wide = digest_batch_wide(&slices);
        for (i, s) in slices.iter().enumerate() {
            assert_eq!(wide[i], Sha256::digest(s));
        }
    }

    #[test]
    fn batch_drain_finishes_a_long_straggler() {
        // One long message among short ones: the lanes run dry while it is
        // mid-stream, so the drain takes its remaining whole blocks in one
        // run and then its padding — at every padding shape.
        for tail in [0usize, 1, 55, 56, 63] {
            let long = vec![0x5au8; 64 * 40 + tail];
            let mut slices: Vec<&[u8]> = vec![b"x"; BATCH_LANES];
            slices.push(&long);
            let wide = digest_batch_wide(&slices);
            assert_eq!(wide[BATCH_LANES], Sha256::digest(&long), "tail {tail}");
            assert_eq!(wide[0], Sha256::digest(b"x"));
        }
    }

    #[test]
    fn clone_preserves_state() {
        let mut h = Sha256::new();
        h.update(b"hello ");
        let mut h2 = h.clone();
        h.update(b"world");
        h2.update(b"world");
        assert_eq!(h.finalize(), h2.finalize());
    }

    /// The selected kernel (the hardware one where the build has it)
    /// and the portable kernel agree on random messages fed through
    /// random `update` split points.
    #[test]
    fn kernels_agree_on_random_messages_and_splits() {
        check(
            "kernels_agree_on_random_messages_and_splits",
            256,
            (vec(any::<u8>(), 0..20_000), vec(0usize..20_000, 0..8)),
            |(data, cuts)| {
                let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
                cuts.sort_unstable();
                let mut pieces: Vec<&[u8]> = Vec::new();
                let mut start = 0;
                for cut in cuts {
                    pieces.push(&data[start..cut]);
                    start = cut;
                }
                pieces.push(&data[start..]);
                let [(_, portable), (_, selected)] = KERNELS;
                let expected = digest_on(portable, &[&data]);
                assert_eq!(digest_on(portable, &pieces), expected);
                assert_eq!(digest_on(selected, &pieces), expected);
                assert_eq!(Sha256::digest(&data), expected);
            },
        );
    }

    /// One call over a run of blocks is the same chain of compressions
    /// as one call per block, from any chaining value.
    #[test]
    fn a_run_of_blocks_equals_single_block_calls() {
        check(
            "a_run_of_blocks_equals_single_block_calls",
            256,
            (vec(any::<u32>(), 8..9), vec(any::<u8>(), 192..193)),
            |(state, bytes)| {
                let state: [u32; 8] = state.try_into().unwrap();
                let blocks = bytes.as_chunks::<64>().0;
                let mut expected = state;
                for block in blocks {
                    compress_blocks_portable(&mut expected, std::slice::from_ref(block));
                }
                for (_, kernel) in KERNELS {
                    let mut run = state;
                    kernel(&mut run, blocks);
                    assert_eq!(run, expected);
                    let mut single = state;
                    for block in blocks {
                        kernel(&mut single, std::slice::from_ref(block));
                    }
                    assert_eq!(single, expected);
                }
            },
        );
    }
}
