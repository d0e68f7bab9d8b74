//! SHA-256 (FIPS 180-4) implemented from scratch.
//!
//! The offline dependency allow-list for this reproduction contains no
//! cryptographic crate, so the chunk-content hash the paper's Dedup Agent
//! relies on is implemented here and validated against the official NIST
//! test vectors. The implementation is a straightforward, safe-Rust
//! translation of the specification; it favours clarity over raw speed but
//! still processes hundreds of MB/s, far above the simulated testbed's
//! ingest rates.

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

const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
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
        self.total_len = self
            .total_len
            .checked_add(data.len() as u64)
            // simlint::allow(P003): a 2^61-byte message cannot occur; the
            // checked_add makes the overflow policy explicit and loud
            .expect("message too long");
        let mut input = data;
        // Fill a partially filled buffer first.
        if self.buffer_len > 0 {
            let take = input.len().min(64 - self.buffer_len);
            self.buffer[self.buffer_len..][..take].copy_from_slice(&input[..take]);
            self.buffer_len = self.buffer_len.saturating_add(take);
            input = &input[take..];
            if self.buffer_len == 64 {
                compress_block(&mut self.state, &self.buffer);
                self.buffer_len = 0;
            }
        }
        // Whole blocks straight from the input, viewed in place.
        while let Some((block, rest)) = input.split_first_chunk::<64>() {
            compress_block(&mut self.state, block);
            input = rest;
        }
        // Stash the tail.
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffer_len = input.len();
        }
    }

    /// Consumes the hasher and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // simlint::allow(P003): a 2^61-byte message cannot occur; the
        // checked_mul makes the overflow policy explicit and loud
        let bit_len = self.total_len.checked_mul(8).expect("message too long");
        // Append 0x80, pad with zeros, append the 64-bit big-endian
        // length — in the block buffer itself (`update` would change
        // total_len, and the padding never needs more than the buffer
        // plus one extra block).
        self.buffer[self.buffer_len] = 0x80;
        self.buffer[self.buffer_len + 1..].fill(0);
        if self.buffer_len >= 56 {
            // No room left for the length: it goes in a block of its own.
            compress_block(&mut self.state, &self.buffer);
            self.buffer = [0; 64];
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress_block(&mut self.state, &self.buffer);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot convenience: the SHA-256 digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Hashes a batch of independent messages with a block-parallel inner
    /// loop: up to [`BATCH_LANES`] messages advance through the compression
    /// function together, laid out structure-of-arrays so the per-round
    /// word operations act lanewise (and autovectorize). Digests are
    /// bit-identical to calling [`Sha256::digest`] per message.
    ///
    /// SHA-256's compression function is a long serial dependency chain, so
    /// a single message cannot be vectorized — but a *batch* of messages
    /// can, which is exactly the shape the chunking pipeline produces.
    /// Lanes refill from the batch as short messages finish; once the batch
    /// can no longer keep every lane busy, the stragglers finish on the
    /// scalar path from their current mid-stream state.
    pub fn digest_batch(messages: &[&[u8]]) -> Vec<[u8; 32]> {
        let mut out = vec![[0u8; 32]; messages.len()];
        if messages.len() < BATCH_LANES {
            for (slot, msg) in out.iter_mut().zip(messages) {
                *slot = Sha256::digest(msg);
            }
            return out;
        }

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
                    let m = lane_msg[l];
                    for r in 0..8 {
                        out[m][r * 4..r * 4 + 4].copy_from_slice(&states[r][l].to_be_bytes());
                    }
                    lane_msg[l] = usize::MAX;
                }
            }
        }

        // Scalar drain: finish lanes stranded mid-message when the batch
        // ran out of refills, continuing from their wide-path state.
        for l in 0..BATCH_LANES {
            let m = lane_msg[l];
            if m == usize::MAX {
                continue;
            }
            let mut st = [0u32; 8];
            for r in 0..8 {
                st[r] = states[r][l];
            }
            for b in lane_block[l]..lane_total[l] {
                compress_block(&mut st, &padded_block(messages[m], b));
            }
            for r in 0..8 {
                out[m][r * 4..r * 4 + 4].copy_from_slice(&st[r].to_be_bytes());
            }
        }
        out
    }
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

#[inline(always)]
fn add(a: Lanes, b: Lanes) -> Lanes {
    let mut r = [0u32; BATCH_LANES];
    for i in 0..BATCH_LANES {
        // simlint::allow(P001): i < BATCH_LANES, the length of every lane array
        r[i] = a[i].wrapping_add(b[i]);
    }
    r
}

#[inline(always)]
fn xor(a: Lanes, b: Lanes) -> Lanes {
    let mut r = [0u32; BATCH_LANES];
    for i in 0..BATCH_LANES {
        // simlint::allow(P001): i < BATCH_LANES, the length of every lane array
        r[i] = a[i] ^ b[i];
    }
    r
}

#[inline(always)]
fn and(a: Lanes, b: Lanes) -> Lanes {
    let mut r = [0u32; BATCH_LANES];
    for i in 0..BATCH_LANES {
        // simlint::allow(P001): i < BATCH_LANES, the length of every lane array
        r[i] = a[i] & b[i];
    }
    r
}

#[inline(always)]
fn andnot(a: Lanes, b: Lanes) -> Lanes {
    let mut r = [0u32; BATCH_LANES];
    for i in 0..BATCH_LANES {
        // simlint::allow(P001): i < BATCH_LANES, the length of every lane array
        r[i] = !a[i] & b[i];
    }
    r
}

#[inline(always)]
fn rotr(a: Lanes, n: u32) -> Lanes {
    let mut r = [0u32; BATCH_LANES];
    for i in 0..BATCH_LANES {
        // simlint::allow(P001): i < BATCH_LANES, the length of every lane array
        r[i] = a[i].rotate_right(n);
    }
    r
}

#[inline(always)]
fn shr(a: Lanes, n: u32) -> Lanes {
    let mut r = [0u32; BATCH_LANES];
    for i in 0..BATCH_LANES {
        // simlint::allow(P001): i < BATCH_LANES, the length of every lane array
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
#[inline(never)]
fn compress_wide(states: &mut [Lanes; 8], blocks: &[[u8; 64]; BATCH_LANES]) {
    let mut w = [[0u32; BATCH_LANES]; 64];
    for (t, word) in w.iter_mut().take(16).enumerate() {
        for (l, block) in blocks.iter().enumerate() {
            // simlint::allow(P001): l < BATCH_LANES, the width of every w row
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
    for (kt, wt) in K.iter().zip(w.iter()) {
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

/// One SHA-256 compression round (FIPS 180-4 §6.2.2) over a single block.
///
/// `inline(never)` keeps the round function a standalone unit: inlined
/// into `update`'s loop the vectorizer mangles the message schedule into
/// half-vector shuffles that run slower than clean scalar code.
#[inline(never)]
fn compress_block(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, word) in w.iter_mut().take(16).enumerate() {
        *word = u32::from_be_bytes([
            block[i * 4],
            block[i * 4 + 1],
            block[i * 4 + 2],
            block[i * 4 + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// Number of 64-byte blocks a `len`-byte message occupies once SHA-256
/// padding (0x80, zeros, 64-bit length) is appended.
fn padded_blocks(len: usize) -> usize {
    len / 64 + if len % 64 >= 56 { 2 } else { 1 }
}

/// Materializes padded block `index` of `msg` without buffering the whole
/// padded message: data blocks are copied straight out of `msg`, the 0x80
/// terminator lands right after the last data byte, and the final block
/// carries the big-endian bit length.
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

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // Official FIPS 180-4 / NIST CAVP test vectors.
    #[test]
    fn nist_empty() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_448_bits() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_896_bits() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                  hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            )),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn nist_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&Sha256::digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let oneshot = Sha256::digest(&data);
        // Feed in awkward piece sizes to stress buffer management.
        for piece in [1usize, 3, 63, 64, 65, 127, 1000] {
            let mut h = Sha256::new();
            for chunk in data.chunks(piece) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), oneshot, "piece size {piece}");
        }
    }

    #[test]
    fn padding_boundaries() {
        // Lengths straddling the 55/56/63/64 padding edge cases.
        let expected_55 = "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318";
        let expected_56 = "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a";
        let expected_64 = "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb";
        assert_eq!(hex(&Sha256::digest(&[b'a'; 55])), expected_55);
        assert_eq!(hex(&Sha256::digest(&[b'a'; 56])), expected_56);
        assert_eq!(hex(&Sha256::digest(&[b'a'; 64])), expected_64);
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
        // wide path, lane refill, and the scalar drain.
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
        let batched = Sha256::digest_batch(&slices);
        for (i, s) in slices.iter().enumerate() {
            assert_eq!(
                batched[i],
                Sha256::digest(s),
                "message {i} (len {})",
                s.len()
            );
        }
    }

    #[test]
    fn batch_smaller_than_lane_count() {
        let slices: Vec<&[u8]> = vec![b"a", b"bb", b"ccc"];
        let batched = Sha256::digest_batch(&slices);
        assert_eq!(batched.len(), 3);
        for (i, s) in slices.iter().enumerate() {
            assert_eq!(batched[i], Sha256::digest(s));
        }
    }

    #[test]
    fn batch_empty_input() {
        assert!(Sha256::digest_batch(&[]).is_empty());
    }

    #[test]
    fn batch_uniform_large_messages() {
        // All lanes run in lockstep with no refill churn: the pure wide path.
        let bufs: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; 8192]).collect();
        let slices: Vec<&[u8]> = bufs.iter().map(|b| b.as_slice()).collect();
        let batched = Sha256::digest_batch(&slices);
        for (i, s) in slices.iter().enumerate() {
            assert_eq!(batched[i], Sha256::digest(s));
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
}
