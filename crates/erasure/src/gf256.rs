//! Arithmetic in GF(2⁸) with the AES polynomial `x⁸+x⁴+x³+x+1` (0x11b).
//!
//! Scalar multiplication and division go through log/antilog tables built
//! once at first use from the generator element 3. Bulk work — a whole
//! shard times one coefficient — goes through `mul_acc`, which walks the
//! coefficient's 256-byte row of the full product table: one lookup per
//! byte and no zero tests.

use std::sync::OnceLock;

/// The irreducible polynomial (without the x⁸ term) used for reduction.
const POLY: u16 = 0x11b;

struct Tables {
    /// exp[i] = g^i for i in 0..255 (extended to 510 to skip a modulo).
    exp: [u8; 512],
    /// log[x] = i such that g^i = x, for x in 1..=255.
    log: [u8; 256],
    /// products[c][x] = c · x.
    products: Box<[[u8; 256]; 256]>,
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
        let mut products = Box::new([[0u8; 256]; 256]);
        for (c, row) in products.iter_mut().enumerate().skip(1) {
            for (x, product) in row.iter_mut().enumerate().skip(1) {
                *product = exp[log[c] as usize + log[x] as usize];
            }
        }
        Tables { exp, log, products }
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

/// The product row of `c`: `mul_row(c)[x] == mul(c, x)` for every `x`.
#[inline]
fn mul_row(c: u8) -> &'static [u8; 256] {
    &tables().products[c as usize]
}

/// Multiply-accumulate over a shard: `dst[i] ^= c · src[i]`, stopping at
/// the shorter of the two. This is the one inner loop of Reed–Solomon
/// encoding and decoding.
pub(crate) fn mul_acc(dst: &mut [u8], src: &[u8], c: u8) {
    if c == 0 {
        return;
    }
    let row = mul_row(c);
    let n = dst.len().min(src.len());
    let (dst_words, dst_tail) = dst[..n].as_chunks_mut::<8>();
    let (src_words, src_tail) = src[..n].as_chunks::<8>();
    // Eight products gathered into one word and folded in with one xor:
    // a third of the loads and stores of the bytewise loop. Against
    // `*d ^= row[*s]` it is worth +7 % `ingest_mbps` on `fresh-images`
    // and +4.5 % on `versioned-backup` (EXPERIMENTS.md, PR 14).
    for (d, s) in dst_words.iter_mut().zip(src_words) {
        let products = s.map(|x| row[x as usize]);
        *d = (u64::from_ne_bytes(*d) ^ u64::from_ne_bytes(products)).to_ne_bytes();
    }
    for (d, s) in dst_tail.iter_mut().zip(src_tail) {
        *d ^= row[*s as usize];
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
    fn product_rows_match_scalar_multiplication_everywhere() {
        for c in 0..=255u8 {
            let row = mul_row(c);
            for x in 0..=255u8 {
                assert_eq!(row[x as usize], mul(c, x), "{c} * {x}");
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
