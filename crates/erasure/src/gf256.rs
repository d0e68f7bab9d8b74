//! Arithmetic in GF(2⁸) with the AES polynomial `x⁸+x⁴+x³+x+1` (0x11b).
//!
//! Scalar multiplication and division go through log/antilog tables built
//! once at first use from the generator element 3. Bulk work — a whole
//! shard times one coefficient — goes through `mul_acc`, which uses no
//! table at all: eight field elements ride in one `u64`, the coefficient
//! is applied by shift-and-add over its bits, and the loop is plain
//! integer code the compiler is free to widen to whatever vectors the
//! target has.

use std::sync::OnceLock;

/// The irreducible polynomial (without the x⁸ term) used for reduction.
const POLY: u16 = 0x11b;

struct Tables {
    /// exp[i] = g^i for i in 0..255 (extended to 510 to skip a modulo).
    exp: [u8; 512],
    /// log[x] = i such that g^i = x, for x in 1..=255.
    log: [u8; 256],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(255) {
            *e = x as u8;
            log[x as usize] = i as u8;
            // Multiply by the generator 3 = x + 1: x*3 = (x<<1) ^ x.
            x = (x << 1) ^ x;
            if x & 0x100 != 0 {
                x ^= POLY;
            }
        }
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Tables { exp, log }
    })
}

/// Addition in GF(2⁸) (bitwise XOR).
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiplication in GF(2⁸).
///
/// # Example
///
/// ```
/// use ef_erasure::gf256;
/// assert_eq!(gf256::mul(0, 7), 0);
/// assert_eq!(gf256::mul(1, 7), 7);
/// // 2 * 0x80 wraps through the reduction polynomial.
/// assert_eq!(gf256::mul(2, 0x80), 0x1b);
/// ```
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let t = tables();
    t.exp[t.log[a as usize] as usize + t.log[b as usize] as usize]
}

/// Multiplies eight packed field elements by `x` (the element 2): each
/// byte shifts left one bit, and a byte whose top bit fell off is reduced
/// by the polynomial's low byte 0x1b. `(hi << 8) - hi` spreads each
/// overflow flag to a full-byte mask without a multiply — a 64-bit
/// multiply has no vector form below AVX-512DQ and would keep the loop
/// scalar.
#[inline(always)]
fn xtime8(word: u64) -> u64 {
    const TOP: u64 = 0x8080_8080_8080_8080;
    let hi = (word & TOP) >> 7;
    ((word & !TOP) << 1) ^ ((hi << 8).wrapping_sub(hi) & 0x1b1b_1b1b_1b1b_1b1b)
}

/// Multiply-accumulate over a shard: `dst[i] ^= c · src[i]`, stopping at
/// the shorter of the two. This is the inner loop of Reed–Solomon
/// decoding, and of encoding when a parity row is left over.
pub(crate) fn mul_acc(dst: &mut [u8], src: &[u8], c: u8) {
    mul_acc_rows([dst], src, [c]);
}

/// Multiply-accumulate one source into `M` rows at once:
/// `dsts[r][i] ^= coeffs[r] · src[i]`, stopping at the shortest slice.
///
/// `c · s = Σ_{bit b of c} s · xᵇ`: a source word walks up through its
/// eight `xtime8` multiples once, and each row folds in the multiples
/// whose bit is set in its coefficient — so the walk, most of the work,
/// is shared by the rows. The bit tests are hoisted into masks: the loop
/// body is branch-free and the same for every word.
pub(crate) fn mul_acc_rows<const M: usize>(dsts: [&mut [u8]; M], src: &[u8], coeffs: [u8; M]) {
    if coeffs == [0; M] {
        return;
    }
    let n = dsts.iter().fold(src.len(), |n, dst| n.min(dst.len()));
    let (src_words, src_tail) = src[..n].as_chunks::<8>();
    let mut dsts = dsts.map(|dst| dst[..n].as_chunks_mut::<8>());
    let masks = coeffs
        .map(|c| -> [u64; 8] { std::array::from_fn(|bit| u64::from(c >> bit & 1).wrapping_neg()) });
    for (w, s) in src_words.iter().enumerate() {
        let mut multiple = u64::from_ne_bytes(*s);
        let mut products = [0u64; M];
        for bit in 0..8 {
            for (product, row_masks) in products.iter_mut().zip(&masks) {
                *product ^= multiple & row_masks[bit];
            }
            multiple = xtime8(multiple);
        }
        for ((dst_words, _), product) in dsts.iter_mut().zip(products) {
            let d = &mut dst_words[w];
            *d = (u64::from_ne_bytes(*d) ^ product).to_ne_bytes();
        }
    }
    for ((_, dst_tail), c) in dsts.iter_mut().zip(coeffs) {
        for (d, s) in dst_tail.iter_mut().zip(src_tail) {
            *d ^= mul(c, *s);
        }
    }
}

/// Multiplicative inverse.
///
/// # Panics
///
/// Panics for zero, which has no inverse.
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "zero has no inverse in GF(256)");
    let t = tables();
    t.exp[255 - t.log[a as usize] as usize]
}

/// Division `a / b`.
///
/// # Panics
///
/// Panics when `b` is zero.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "division by zero in GF(256)");
    if a == 0 {
        return 0;
    }
    let t = tables();
    t.exp[t.log[a as usize] as usize + 255 - t.log[b as usize] as usize]
}

/// Exponentiation `base^e` (e interpreted as an integer).
pub fn pow(base: u8, mut e: u32) -> u8 {
    if base == 0 {
        return if e == 0 { 1 } else { 0 };
    }
    let t = tables();
    e %= 255;
    t.exp[(t.log[base as usize] as u32 * e % 255) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addition_is_xor() {
        assert_eq!(add(0b1010, 0b0110), 0b1100);
        assert_eq!(add(7, 7), 0);
    }

    #[test]
    fn multiplication_identities() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(0, a), 0);
            assert_eq!(mul(1, a), a);
        }
    }

    #[test]
    fn multiplication_commutative_and_associative() {
        // Spot-check over a grid (full 256^3 is too slow in debug).
        for a in (0..=255u8).step_by(17) {
            for b in (0..=255u8).step_by(13) {
                assert_eq!(mul(a, b), mul(b, a));
                for c in (0..=255u8).step_by(29) {
                    assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
                }
            }
        }
    }

    #[test]
    fn distributive_law() {
        for a in (0..=255u8).step_by(7) {
            for b in (0..=255u8).step_by(11) {
                for c in (0..=255u8).step_by(23) {
                    assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn mul_acc_accumulates_and_stops_at_the_shorter_slice() {
        let src: Vec<u8> = (0..=255).collect();
        for c in [0u8, 1, 2, 0x53, 0xff] {
            let mut dst = vec![0xa5u8; 300];
            mul_acc(&mut dst, &src, c);
            for (i, d) in dst.iter().enumerate() {
                let expected = src.get(i).map_or(0xa5, |s| 0xa5 ^ mul(c, *s));
                assert_eq!(*d, expected, "c = {c}, i = {i}");
            }
        }
    }

    #[test]
    fn mul_acc_matches_scalar_multiplication_for_every_coefficient_and_length() {
        // Lengths 0..=67 cover the empty slice, a tail with no word, whole
        // words with no tail, and several vector widths' worth of words
        // plus every tail length after them.
        let src: Vec<u8> = (0..67u32).map(|i| (i * 151 + 13) as u8).collect();
        let fill = |len: usize, salt: u32| -> Vec<u8> {
            (0..len as u32).map(|i| (i * 29 + salt) as u8).collect()
        };
        let expect = |dst: &[u8], c: u8| -> Vec<u8> {
            let products = src.iter().map(|s| mul(c, *s));
            dst.iter().zip(products).map(|(d, p)| d ^ p).collect()
        };
        for c in 1..=255u8 {
            for len in 0..=src.len() {
                let mut dst = fill(len, 5);
                let expected = expect(&dst, c);
                mul_acc(&mut dst, &src[..len], c);
                assert_eq!(dst, expected, "c = {c}, len = {len}");
                // The same source into two rows at once, under a second
                // coefficient (zero among them) — identical to two passes.
                let (mut row0, mut row1) = (fill(len, 5), fill(len, 77));
                let expected1 = expect(&row1, !c);
                mul_acc_rows([&mut row0, &mut row1], &src[..len], [c, !c]);
                assert_eq!(row0, expected, "row 0, c = {c}, len = {len}");
                assert_eq!(row1, expected1, "row 1, c = {}, len = {len}", !c);
            }
        }
    }

    #[test]
    fn mul_acc_rows_stops_at_the_shortest_slice() {
        let src: Vec<u8> = (0..=255).collect();
        let (mut long, mut short) = (vec![0xa5u8; 300], vec![0x5au8; 41]);
        mul_acc_rows([&mut long, &mut short], &src, [0x53, 0xca]);
        for i in 0..300 {
            let touched = i < 41;
            assert_eq!(long[i], 0xa5 ^ if touched { mul(0x53, src[i]) } else { 0 });
        }
        for i in 0..41 {
            assert_eq!(short[i], 0x5a ^ mul(0xca, src[i]));
        }
    }

    #[test]
    fn xtime8_is_multiplication_by_two_in_every_lane() {
        for x in 0..=255u8 {
            // The neighbours differ so a carry or borrow across lanes shows.
            let word = [x, !x, x, 0xff, 0x80, x, 0, x];
            let doubled = xtime8(u64::from_ne_bytes(word)).to_ne_bytes();
            assert_eq!(doubled, word.map(|b| mul(2, b)), "x = {x}");
        }
    }

    #[test]
    fn inverse_roundtrip() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a = {a}");
            assert_eq!(div(1, a), inv(a));
        }
    }

    #[test]
    fn division_roundtrip() {
        for a in (0..=255u8).step_by(5) {
            for b in (1..=255u8).step_by(7) {
                assert_eq!(mul(div(a, b), b), a);
            }
        }
    }

    #[test]
    fn known_aes_field_values() {
        // From the AES specification's GF(256) examples.
        assert_eq!(mul(0x57, 0x83), 0xc1);
        assert_eq!(mul(0x57, 0x13), 0xfe);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        for base in [2u8, 3, 5, 0x1d] {
            let mut acc = 1u8;
            for e in 0..20u32 {
                assert_eq!(pow(base, e), acc, "base {base} e {e}");
                acc = mul(acc, base);
            }
        }
        assert_eq!(pow(0, 0), 1);
        assert_eq!(pow(0, 5), 0);
    }

    #[test]
    #[should_panic(expected = "zero has no inverse")]
    fn zero_inverse_panics() {
        inv(0);
    }
}
