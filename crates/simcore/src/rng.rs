//! Deterministic, portable randomness.
//!
//! Every stochastic element of the reproduction (workload draws, latency
//! jitter, random partitioning baselines) flows through [`DetRng`], a
//! ChaCha8 generator that supports *named substreams*: independent
//! generators derived from a root seed and a label, so adding a new consumer
//! of randomness never perturbs the draws seen by existing consumers.
//!
//! The generator and the sampling rules live here, not in a dependency:
//! every corpus digest, golden vector and replay digest in the tree is a
//! function of this stream, so the stream is part of the determinism
//! contract (DESIGN.md §8). It is bit-for-bit the stream `rand_chacha`
//! 0.3's `ChaCha8Rng` produces under `rand` 0.8.5's `seed_from_u64`,
//! `gen::<f64>` and `gen_range` — the tests at the bottom pin that,
//! function by function.

/// Words per refill: four 64-byte ChaCha blocks.
const BUF_WORDS: usize = 64;

/// The ChaCha8 key stream: 256-bit key, 64-bit block counter from zero,
/// zero nonce, generated four blocks at a time into `buf` and consumed a
/// 32-bit word at a time from `index`.
#[derive(Debug, Clone)]
struct ChaCha8 {
    key: [u32; 8],
    counter: u64,
    buf: [u32; BUF_WORDS],
    index: usize,
}

#[inline(always)]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl ChaCha8 {
    /// Expands a 64-bit seed into the key with PCG32, one output word per
    /// key word, and starts with an exhausted buffer.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6_364_136_223_846_793_005;
        const INC: u64 = 11_634_580_027_462_260_723;
        let mut key = [0u32; 8];
        for k in &mut key {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            *k = xorshifted.rotate_right((state >> 59) as u32);
        }
        ChaCha8 {
            key,
            counter: 0,
            buf: [0; BUF_WORDS],
            index: BUF_WORDS,
        }
    }

    /// Generates the block numbered `counter` under `key` into `out` (16
    /// words).
    fn block(key: &[u32; 8], counter: u64, out: &mut [u32]) {
        let mut init = [0u32; 16];
        init[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
        init[4..12].copy_from_slice(key);
        init[12] = counter as u32;
        init[13] = (counter >> 32) as u32;
        let mut s = init;
        for _ in 0..4 {
            quarter_round(&mut s, 0, 4, 8, 12);
            quarter_round(&mut s, 1, 5, 9, 13);
            quarter_round(&mut s, 2, 6, 10, 14);
            quarter_round(&mut s, 3, 7, 11, 15);
            quarter_round(&mut s, 0, 5, 10, 15);
            quarter_round(&mut s, 1, 6, 11, 12);
            quarter_round(&mut s, 2, 7, 8, 13);
            quarter_round(&mut s, 3, 4, 9, 14);
        }
        for (o, (x, i)) in out.iter_mut().zip(s.iter().zip(init.iter())) {
            *o = x.wrapping_add(*i);
        }
    }

    /// Replaces the buffer with the next four blocks and resumes reading
    /// at word `index`.
    fn refill(&mut self, index: usize) {
        for (b, out) in self.buf.chunks_mut(16).enumerate() {
            Self::block(&self.key, self.counter.wrapping_add(b as u64), out);
        }
        self.counter = self.counter.wrapping_add(4);
        self.index = index;
    }

    /// Two consecutive words, low word first. At the last word of a
    /// buffer the value straddles the refill: low half from the old
    /// buffer, high half from the new.
    fn next_u64(&mut self) -> u64 {
        let index = self.index;
        if index < BUF_WORDS - 1 {
            self.index += 2;
            (u64::from(self.buf[index + 1]) << 32) | u64::from(self.buf[index])
        } else if index >= BUF_WORDS {
            self.refill(2);
            (u64::from(self.buf[1]) << 32) | u64::from(self.buf[0])
        } else {
            let low = u64::from(self.buf[BUF_WORDS - 1]);
            self.refill(1);
            (u64::from(self.buf[0]) << 32) | low
        }
    }

    /// Little-endian words into `dest`. A trailing partial word is
    /// consumed whole: the stream position only ever moves by words.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut filled = 0;
        while filled < dest.len() {
            if self.index >= BUF_WORDS {
                self.refill(0);
            }
            let rest = &mut dest[filled..];
            let words = &self.buf[self.index..];
            let take = rest.len().min(words.len() * 4);
            for (chunk, w) in rest[..take].chunks_mut(4).zip(words) {
                chunk.copy_from_slice(&w.to_le_bytes()[..chunk.len()]);
            }
            self.index += take.div_ceil(4);
            filled += take;
        }
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A seedable deterministic random-number generator.
///
/// # Example
///
/// ```
/// use ef_simcore::DetRng;
///
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// // Substreams with different labels are independent but reproducible.
/// let mut s1 = DetRng::new(42).substream("latency");
/// let mut s2 = DetRng::new(42).substream("latency");
/// assert_eq!(s1.next_u64(), s2.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: ChaCha8,
    seed: u64,
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        DetRng {
            inner: ChaCha8::seed_from_u64(seed),
            seed,
        }
    }

    /// The root seed this generator (or its ancestor) was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent generator keyed by `label`.
    ///
    /// The derivation is a stable FNV-1a hash of the label mixed with the
    /// root seed, so the same `(seed, label)` pair always yields the same
    /// stream on every platform.
    pub fn substream(&self, label: &str) -> DetRng {
        DetRng::new(self.seed ^ fnv1a(label.as_bytes()).rotate_left(17))
    }

    /// Derives an independent generator keyed by an index (e.g. a node id).
    pub fn substream_idx(&self, label: &str, idx: u64) -> DetRng {
        self.substream(&format!("{label}#{idx}"))
    }

    /// Uniform `f64` in `[0, 1)`: the top 53 bits of one `u64`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics when `lo > hi`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "empty range");
        if lo == hi {
            return lo;
        }
        // 52 mantissa bits under a fixed exponent give a value in [1, 2);
        // redraw in the rare case rounding lands the result on `hi`.
        let scale = hi - lo;
        loop {
            let one_to_two = f64::from_bits((self.next_u64() >> 12) | (1023u64 << 52));
            let x = (one_to_two - 1.0) * scale + lo;
            if x < hi {
                return x;
            }
        }
    }

    /// Uniform `u64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics when `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        // Widening multiply: the high half of `draw * range` is uniform
        // once draws whose low half falls in the biased zone are rejected.
        let range = hi - lo;
        let zone = (range << range.leading_zeros()).wrapping_sub(1);
        loop {
            let wide = u128::from(self.next_u64()) * u128::from(range);
            if (wide as u64) <= zone {
                return lo + (wide >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        self.range_u64(0, n as u64) as usize
    }

    /// Samples an index from a categorical distribution given by `weights`.
    ///
    /// Weights need not be normalized; zero-weight entries are never chosen.
    ///
    /// # Panics
    ///
    /// Panics when `weights` is empty, contains a negative/non-finite value,
    /// or sums to zero.
    #[expect(
        clippy::expect_used,
        reason = "the entry loop only exits early when a positive weight exists"
    )]
    pub fn categorical(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "no categories");
        let mut total = 0.0;
        for &w in weights {
            assert!(w.is_finite() && w >= 0.0, "invalid weight {w}");
            total += w;
        }
        assert!(total > 0.0, "weights sum to zero");
        let mut x = self.unit() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        // Floating-point slack: fall back to the last positive-weight entry.
        weights
            .iter()
            .rposition(|&w| w > 0.0)
            .expect("positive weight exists")
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Returns a normally distributed sample via Box–Muller.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "negative std dev");
        let u1: f64 = self.unit().max(f64::MIN_POSITIVE);
        let u2: f64 = self.unit();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// Returns an exponentially distributed sample with the given mean.
    ///
    /// # Panics
    ///
    /// Panics when `mean <= 0`.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "non-positive mean");
        let u: f64 = self.unit();
        -mean * (1.0 - u).ln()
    }

    /// Fills a byte buffer with pseudo-random data.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        self.inner.fill_bytes(buf)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Stream identity, function by function. Every value below was
    // recorded from `rand_chacha` 0.3 + `rand` 0.8.5 behind this same API
    // before the generator moved in-tree; corpus digests prove the
    // composition, these prove the parts. A change to any of them changes
    // every seeded result in the repository.

    fn filled(rng: &mut DetRng, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        rng.fill_bytes(&mut buf);
        buf
    }

    #[test]
    fn next_u64_stream_is_pinned_across_the_refill() {
        let mut rng = DetRng::new(42);
        let v: Vec<u64> = (0..34).map(|_| rng.next_u64()).collect();
        assert_eq!(
            v[..4],
            [
                12_578_764_544_318_200_737,
                17_529_487_244_874_322_312,
                7_886_285_670_807_131_020,
                11_572_758_976_476_374_866,
            ]
        );
        // Buffer words 60, 62, then 64 (the refill) and 2 of the next.
        assert_eq!(
            v[30..],
            [
                12_437_814_383_306_842_903,
                1_841_754_590_950_016_055,
                3_737_970_769_775_807_255,
                4_043_632_453_527_161_836,
            ]
        );
    }

    #[test]
    fn next_u64_straddling_two_buffers_is_pinned() {
        // One word taken by `fill_bytes` puts every later read on an odd
        // word: the 32nd `u64` takes word 63 of one buffer and word 0 of
        // the next.
        let mut rng = DetRng::new(42);
        assert_eq!(filled(&mut rng, 4), [161, 91, 93, 57]);
        let v: Vec<u64> = (0..33).map(|_| rng.next_u64()).collect();
        assert_eq!(v[0], 2_700_349_467_815_624_629);
        assert_eq!(
            v[30..],
            [
                15_926_210_663_175_421_512, // words 61, 62
                5_280_412_388_188_699_146,  // word 63 | word 0 after the refill
                15_760_993_323_791_151_260, // words 1, 2
            ]
        );
    }

    #[test]
    fn substream_derivation_is_pinned() {
        // The first `rto-jitter` draw of seed 42 is the value
        // `ef-kvstore`'s golden RTO schedule is built on.
        let first = |mut rng: DetRng| rng.next_u64();
        assert_eq!(
            first(DetRng::new(42).substream("rto-jitter")),
            8_971_498_650_846_764_737
        );
        assert_eq!(
            first(DetRng::new(7).substream("rto-jitter")),
            10_127_138_895_225_462_356
        );
        assert_eq!(
            first(DetRng::new(7).substream_idx("n", 3)),
            8_741_209_424_115_686_777
        );
    }

    #[test]
    fn fill_bytes_is_pinned_at_word_and_buffer_edges() {
        // (length, FNV-1a of the bytes, the `u64` drawn next). A partial
        // trailing word is consumed whole, so lengths 1 and 3 leave the
        // stream where length 4 would, and 255 where 256 does.
        let cases: [(usize, u64, u64); 6] = [
            (0, 0xcbf2_9ce4_8422_2325, 2_910_824_217_569_608_635),
            (1, fnv1a(&[187]), 3_358_323_276_897_407_796),
            (3, fnv1a(&[187, 67, 215]), 3_358_323_276_897_407_796),
            (255, 0xb303_0c3f_75b8_545e, 10_575_876_539_826_979_758),
            (256, 0xe682_02d5_0837_12a9, 10_575_876_539_826_979_758),
            (257, 0xe5fc_d6fc_f593_a1e5, 7_492_662_993_994_715_053),
        ];
        for (len, digest, next) in cases {
            let mut rng = DetRng::new(7);
            assert_eq!(fnv1a(&filled(&mut rng, len)), digest, "len {len}");
            assert_eq!(rng.next_u64(), next, "after len {len}");
        }
    }

    #[test]
    fn fill_bytes_is_pinned_across_refills() {
        // 250 bytes end mid-word at word 62.5; the next 20 cross into the
        // second buffer.
        let mut rng = DetRng::new(7);
        assert_eq!(fnv1a(&filled(&mut rng, 250)), 0x4cd0_7d98_de36_2bdb);
        assert_eq!(
            filled(&mut rng, 20),
            [
                242, 176, 125, 109, 174, 67, 198, 248, 173, 15, 197, 146, 75, 73, 251, 103, 41,
                178, 209, 86
            ]
        );
        assert_eq!(rng.next_u64(), 9_155_028_984_617_725_266);
        // One call spanning three refills.
        let mut rng = DetRng::new(7);
        assert_eq!(fnv1a(&filled(&mut rng, 1000)), 0x5421_9497_dd7d_9c5e);
        assert_eq!(rng.next_u64(), 11_618_639_650_063_375_668);
        // A mebibyte in odd-sized pieces, as corpus generation draws it.
        let mut rng = DetRng::new(99);
        let (mut all, mut n) = (Vec::new(), 1usize);
        while all.len() < 1 << 20 {
            all.extend(filled(&mut rng, n));
            n = (n * 7 + 3) % 4099 + 1;
        }
        assert_eq!((all.len(), fnv1a(&all)), (1_049_439, 0xb087_e9e4_01f5_7461));
        assert_eq!(rng.next_u64(), 9_866_215_688_593_311_515);
    }

    #[test]
    fn unit_and_range_f64_are_pinned_to_the_bit() {
        let mut rng = DetRng::new(11);
        let bits: Vec<u64> = (0..3).map(|_| rng.unit().to_bits()).collect();
        assert_eq!(
            bits,
            [
                0x3fd6_d390_c754_a574,
                0x3fb7_217b_88f3_04b8,
                0x3fd9_4d46_e7a1_a952
            ]
        );
        let mut rng = DetRng::new(13);
        let bits: Vec<u64> = (0..3).map(|_| rng.range_f64(-2.5, 7.5).to_bits()).collect();
        assert_eq!(
            bits,
            [
                0x3fec_24a9_5607_921c,
                0xbffb_5f2a_ce2f_d528,
                0x3fdc_1886_b122_21a0
            ]
        );
        // A degenerate range returns its bound and draws nothing.
        let mut rng = DetRng::new(13);
        assert_eq!(rng.range_f64(3.0, 3.0), 3.0);
        assert_eq!(rng.next_u64(), 6_234_031_553_773_679_537);
    }

    #[test]
    fn range_u64_and_index_are_pinned() {
        let draws = |seed, lo, hi, n| {
            let mut rng = DetRng::new(seed);
            let v: Vec<u64> = (0..n).map(|_| rng.range_u64(lo, hi)).collect();
            (v, rng.next_u64())
        };
        assert_eq!(draws(12, 10, 1_000, 4).0, [11, 777, 692, 263]);
        assert_eq!(
            draws(12, 0, u64::MAX, 4).0,
            [
                22_349_932_024_576_155,
                14_309_216_023_750_801_637,
                12_719_474_310_324_608_363,
                4_731_684_896_044_903_844,
            ]
        );
        // Just over 2^63 rejects nearly half of all draws: six values cost
        // more than six words of stream.
        assert_eq!(
            draws(12, 0, (1 << 63) + 1, 6),
            (
                vec![
                    11_174_966_012_288_078,
                    5_619_398_217_727_572_523,
                    7_802_167_414_689_513_869,
                    5_470_219_109_554_029_601,
                    739_065_413_532_577_736,
                    1_044_235_411_603_445_038,
                ],
                1_761_400_386_216_947_741
            )
        );
        // A one-value range still draws once per call.
        assert_eq!(
            draws(12, 5, 6, 4),
            (vec![5, 5, 5, 5], 2_088_470_823_206_890_076)
        );
        let mut rng = DetRng::new(14);
        let v: Vec<usize> = (0..6).map(|_| rng.index(10)).collect();
        assert_eq!(v, [0, 9, 5, 1, 3, 3]);
        let mut rng = DetRng::new(14);
        let v: Vec<usize> = (0..4).map(|_| rng.index(1_000_003)).collect();
        assert_eq!(v, [687_270, 385_993, 62_157, 953_082]);
    }

    #[test]
    fn categorical_and_shuffle_are_pinned() {
        let mut rng = DetRng::new(15);
        let v: Vec<usize> = (0..12)
            .map(|_| rng.categorical(&[1.0, 0.0, 2.5, 0.5]))
            .collect();
        assert_eq!(v, [2, 0, 2, 0, 2, 0, 2, 0, 2, 2, 2, 2]);
        let mut rng = DetRng::new(16);
        let mut v: Vec<u32> = (0..10).collect();
        rng.shuffle(&mut v);
        assert_eq!(v, [4, 3, 7, 5, 2, 8, 9, 0, 6, 1]);
        assert_eq!(rng.next_u64(), 13_732_522_997_539_391_884);
    }

    #[test]
    fn normal_and_exponential_are_pinned() {
        // Draw order and formula, to a tolerance: the last bit of `ln`
        // and `cos` belongs to the platform's libm, not to this crate.
        let close = |got: Vec<f64>, want: [f64; 3]| {
            for (g, w) in got.iter().zip(want) {
                assert!((g - w).abs() < 1e-12, "{got:?} vs {want:?}");
            }
        };
        let mut rng = DetRng::new(17);
        close(
            (0..3).map(|_| rng.normal(3.0, 2.0)).collect(),
            [2.0085879103519098, 2.706706781302907, 1.4979142330088764],
        );
        let mut rng = DetRng::new(18);
        close(
            (0..3).map(|_| rng.exponential(0.5)).collect(),
            [0.06812498583726294, 0.15720574320040787, 0.0986042810319643],
        );
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn substreams_are_independent_of_consumption() {
        let root = DetRng::new(7);
        let mut s1 = root.substream("x");
        let first = s1.next_u64();
        // Consuming from the root does not change the substream.
        let mut root2 = DetRng::new(7);
        let _ = root2.next_u64();
        let mut s1_again = root2.substream("x");
        assert_eq!(s1_again.next_u64(), first);
    }

    #[test]
    fn different_labels_differ() {
        let root = DetRng::new(7);
        assert_ne!(
            root.substream("a").next_u64(),
            root.substream("b").next_u64()
        );
        assert_ne!(
            root.substream_idx("n", 0).next_u64(),
            root.substream_idx("n", 1).next_u64()
        );
    }

    #[test]
    fn categorical_respects_zero_weights() {
        let mut rng = DetRng::new(1);
        for _ in 0..1000 {
            let k = rng.categorical(&[0.0, 1.0, 0.0]);
            assert_eq!(k, 1);
        }
    }

    #[test]
    fn categorical_is_roughly_proportional() {
        let mut rng = DetRng::new(2);
        let mut counts = [0usize; 3];
        let n = 30_000;
        for _ in 0..n {
            counts[rng.categorical(&[1.0, 2.0, 1.0])] += 1;
        }
        let f1 = counts[1] as f64 / n as f64;
        assert!((f1 - 0.5).abs() < 0.02, "got {f1}");
    }

    #[test]
    #[should_panic(expected = "weights sum to zero")]
    fn categorical_rejects_all_zero() {
        DetRng::new(1).categorical(&[0.0, 0.0]);
    }

    #[test]
    fn unit_in_range() {
        let mut rng = DetRng::new(3);
        for _ in 0..1000 {
            let x = rng.unit();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DetRng::new(4);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn normal_has_right_moments() {
        let mut rng = DetRng::new(5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = DetRng::new(6);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.exponential(0.5)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.03, "mean {mean}");
    }
}
