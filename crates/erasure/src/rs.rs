//! Systematic Reed–Solomon codes built from a Vandermonde-derived
//! encoding matrix.

use crate::gf256;
use crate::matrix::Matrix;
use std::fmt;

/// Errors from code construction, encoding, or reconstruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeError {
    /// `k` or `m` is zero, or `k + m > 255` (the field size bounds the
    /// number of distinct shard indices).
    InvalidParameters {
        /// Data shards requested.
        k: usize,
        /// Parity shards requested.
        m: usize,
    },
    /// Fewer than `k` shards were present at reconstruction.
    NotEnoughShards {
        /// Shards present.
        present: usize,
        /// Shards required.
        required: usize,
    },
    /// Present shards disagree on length.
    ShardSizeMismatch,
    /// The wrong number of shard slots was supplied.
    WrongShardCount {
        /// Slots supplied.
        got: usize,
        /// Slots expected (`k + m`).
        expected: usize,
    },
    /// The requested data length exceeds what the shards can hold.
    BadDataLength,
}

impl fmt::Display for CodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeError::InvalidParameters { k, m } => {
                write!(f, "invalid code parameters k={k}, m={m}")
            }
            CodeError::NotEnoughShards { present, required } => {
                write!(f, "only {present} shards present, {required} required")
            }
            CodeError::ShardSizeMismatch => write!(f, "shards have inconsistent sizes"),
            CodeError::WrongShardCount { got, expected } => {
                write!(f, "expected {expected} shard slots, got {got}")
            }
            CodeError::BadDataLength => write!(f, "data length exceeds shard capacity"),
        }
    }
}

impl std::error::Error for CodeError {}

/// A systematic `(k, m)` Reed–Solomon code: `k` data shards, `m` parity
/// shards, tolerating the loss of any `m` shards.
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    k: usize,
    m: usize,
    /// `(k+m) × k` encoding matrix whose top `k × k` block is identity.
    encode: Matrix,
}

impl ReedSolomon {
    /// Creates a `(k, m)` code.
    ///
    /// # Errors
    ///
    /// [`CodeError::InvalidParameters`] when `k == 0`, `m == 0`, or
    /// `k + m > 255`.
    pub fn new(k: usize, m: usize) -> Result<Self, CodeError> {
        if k == 0 || m == 0 || k + m > 255 {
            return Err(CodeError::InvalidParameters { k, m });
        }
        // Systematic construction: V is (k+m) x k Vandermonde; E = V ·
        // (top k rows of V)⁻¹ has an identity top block, and any k of its
        // rows remain invertible.
        let v = Matrix::vandermonde(k + m, k);
        let top = v.select_rows(&(0..k).collect::<Vec<_>>());
        let top_inv = top.inverted().expect("vandermonde top block is invertible");
        let encode = v.mul(&top_inv);
        Ok(ReedSolomon { k, m, encode })
    }

    /// Data shards `k`.
    pub fn data_shards(&self) -> usize {
        self.k
    }

    /// Parity shards `m`.
    pub fn parity_shards(&self) -> usize {
        self.m
    }

    /// Total shards `k + m`.
    pub fn total_shards(&self) -> usize {
        self.k + self.m
    }

    /// Storage overhead factor `1 + m/k`.
    pub fn overhead(&self) -> f64 {
        1.0 + self.m as f64 / self.k as f64
    }

    /// Length of each of the `k + m` shards of a `data_len`-byte payload:
    /// `⌈data_len / k⌉`, and at least one byte.
    pub fn shard_len(&self, data_len: usize) -> usize {
        data_len.div_ceil(self.k).max(1)
    }

    /// Encodes `data` into `k + m` equal-size shards (the first `k` carry
    /// the data itself, zero-padded).
    ///
    /// # Errors
    ///
    /// Never fails for valid codes; the `Result` keeps the signature
    /// uniform with [`ReedSolomon::reconstruct`].
    pub fn encode(&self, data: &[u8]) -> Result<Vec<Vec<u8>>, CodeError> {
        let shard_len = self.shard_len(data.len());
        let mut shards: Vec<Vec<u8>> = Vec::with_capacity(self.k + self.m);
        let mut stretches = data.chunks(shard_len);
        for _ in 0..self.k {
            let mut shard = Vec::with_capacity(shard_len);
            shard.extend_from_slice(stretches.next().unwrap_or_default());
            shard.resize(shard_len, 0);
            shards.push(shard);
        }
        let mut parity = vec![vec![0u8; shard_len]; self.m];
        self.add_parity(data, parity.iter_mut().map(Vec::as_mut_slice).collect());
        shards.extend(parity);
        Ok(shards)
    }

    /// The `m` parity shards of `data`, back to back in one buffer of
    /// `m · shard_len` bytes: parity shard `j` is shard `k + j` of
    /// [`ReedSolomon::encode`]. No payload byte is copied. The code is
    /// systematic, so the `k` data shards are `data` itself, cut into
    /// [`ReedSolomon::shard_len`]-byte stretches with the last ones
    /// zero-padded, and a caller that keeps `data` keeps them.
    pub fn parity(&self, data: &[u8]) -> Vec<u8> {
        let shard_len = self.shard_len(data.len());
        let mut parity = vec![0u8; self.m * shard_len];
        self.add_parity(data, parity.chunks_exact_mut(shard_len).collect());
        parity
    }

    /// Adds the parity rows of `data` into `parity` (`m` zeroed rows of
    /// one shard each), two rows to a pass over the data. Reads the
    /// unpadded payload: the padding is zeros, which contribute nothing,
    /// and the kernel stops at the shorter slice.
    fn add_parity(&self, data: &[u8], mut parity: Vec<&mut [u8]>) {
        let shard_len = parity[0].len();
        for (pair, rows) in parity.chunks_mut(2).enumerate() {
            let first = self.k + 2 * pair;
            for (i, stretch) in data.chunks(shard_len).enumerate() {
                let c0 = self.encode.get(first, i);
                match rows {
                    [row0, row1] => {
                        let c1 = self.encode.get(first + 1, i);
                        gf256::mul_acc_rows([row0, row1], stretch, [c0, c1]);
                    }
                    [row0] => gf256::mul_acc(row0, stretch, c0),
                    _ => {}
                }
            }
        }
    }

    /// Reconstructs the original `data_len` bytes from any `k` surviving
    /// shards (missing slots are `None`). Shards are only borrowed: pass
    /// owned buffers, slices or anything else that is `AsRef<[u8]>`.
    ///
    /// The code is systematic, so a data shard that is present *is* its
    /// stretch of the output and is copied; only missing data shards are
    /// decoded, from the first `k` present shards. With every data shard
    /// present nothing is inverted or multiplied at all.
    ///
    /// # Errors
    ///
    /// [`CodeError::WrongShardCount`], [`CodeError::NotEnoughShards`],
    /// [`CodeError::ShardSizeMismatch`], or [`CodeError::BadDataLength`].
    pub fn reconstruct<S: AsRef<[u8]>>(
        &self,
        shards: &[Option<S>],
        data_len: usize,
    ) -> Result<Vec<u8>, CodeError> {
        let shard_len = self.check_shards(shards, data_len)?;
        // Built at the first missing data shard, if there is one.
        let mut decoder: Option<(Vec<usize>, Matrix)> = None;
        let mut out = Vec::with_capacity(shard_len * self.k);
        for (r, data_shard) in shards.iter().take(self.k).enumerate() {
            if let Some(shard) = data_shard {
                out.extend_from_slice(shard.as_ref());
                continue;
            }
            let (use_rows, decode) = decoder.get_or_insert_with(|| self.decoder(shards));
            // data_shard[r] = Σ_c decode[r][c] * received[use_rows[c]]
            let start = out.len();
            out.resize(start + shard_len, 0);
            for (coeff, &row) in decode.row(r).iter().zip(use_rows.iter()) {
                let received = shards[row].as_ref().expect("row in use is present");
                gf256::mul_acc(&mut out[start..], received.as_ref(), *coeff);
            }
        }
        out.truncate(data_len);
        Ok(out)
    }

    /// Validates a shard set; returns the common shard length.
    fn check_shards<S: AsRef<[u8]>>(
        &self,
        shards: &[Option<S>],
        data_len: usize,
    ) -> Result<usize, CodeError> {
        if shards.len() != self.total_shards() {
            return Err(CodeError::WrongShardCount {
                got: shards.len(),
                expected: self.total_shards(),
            });
        }
        let mut lens = shards.iter().flatten().map(|s| s.as_ref().len());
        let present = lens.clone().count();
        if present < self.k {
            return Err(CodeError::NotEnoughShards {
                present,
                required: self.k,
            });
        }
        let shard_len = lens.next().expect("k >= 1 shards are present");
        if lens.any(|len| len != shard_len) {
            return Err(CodeError::ShardSizeMismatch);
        }
        if data_len > shard_len * self.k {
            return Err(CodeError::BadDataLength);
        }
        Ok(shard_len)
    }

    /// The rows decoding uses — the first `k` present shards of a checked
    /// set — and the inverse of their encoding rows.
    fn decoder<S>(&self, shards: &[Option<S>]) -> (Vec<usize>, Matrix) {
        let use_rows: Vec<usize> = shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i))
            .take(self.k)
            .collect();
        let decode = self
            .encode
            .select_rows(&use_rows)
            .inverted()
            .expect("any k rows of the systematic matrix are invertible");
        (use_rows, decode)
    }

    /// The decode this crate shipped before the systematic shortcut:
    /// invert the rows in use and multiply every data shard out through
    /// scalar `gf256::mul`, present or not. Kept as the reference the
    /// tests hold [`ReedSolomon::reconstruct`] to.
    #[cfg(test)]
    fn reconstruct_reference<S: AsRef<[u8]>>(
        &self,
        shards: &[Option<S>],
        data_len: usize,
    ) -> Result<Vec<u8>, CodeError> {
        let shard_len = self.check_shards(shards, data_len)?;
        let (use_rows, decode) = self.decoder(shards);
        let mut out = Vec::with_capacity(shard_len * self.k);
        for r in 0..self.k {
            let mut shard = vec![0u8; shard_len];
            for (c, &row) in use_rows.iter().enumerate() {
                let src = shards[row]
                    .as_ref()
                    .expect("row in use is present")
                    .as_ref();
                for (byte, s) in shard.iter_mut().zip(src) {
                    *byte = gf256::add(*byte, gf256::mul(decode.get(r, c), *s));
                }
            }
            out.extend_from_slice(&shard);
        }
        out.truncate(data_len);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ef_simcore::prop::{any, check, vec};

    fn sample_data(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn parameter_validation() {
        assert!(ReedSolomon::new(0, 1).is_err());
        assert!(ReedSolomon::new(1, 0).is_err());
        assert!(ReedSolomon::new(200, 56).is_err());
        assert!(ReedSolomon::new(200, 55).is_ok());
        let rs = ReedSolomon::new(4, 2).unwrap();
        assert_eq!(rs.data_shards(), 4);
        assert_eq!(rs.parity_shards(), 2);
        assert_eq!(rs.total_shards(), 6);
        assert!((rs.overhead() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn systematic_property() {
        // The first k shards are the data itself (padded).
        let rs = ReedSolomon::new(3, 2).unwrap();
        let data = sample_data(30);
        let shards = rs.encode(&data).unwrap();
        assert_eq!(shards[0], &data[0..10]);
        assert_eq!(shards[1], &data[10..20]);
        assert_eq!(shards[2], &data[20..30]);
    }

    #[test]
    fn parity_is_the_encoded_parity_shards_back_to_back() {
        for (k, m) in [(1, 1), (3, 2), (4, 2), (6, 3), (10, 4)] {
            let rs = ReedSolomon::new(k, m).unwrap();
            for len in [0usize, 1, 7, 64, 333, 4099, 5 * 1024] {
                let data = sample_data(len);
                let parity = rs.parity(&data);
                assert_eq!(parity.len(), m * rs.shard_len(len), "k {k} m {m} len {len}");
                let shards = rs.encode(&data).unwrap();
                assert_eq!(parity, shards[k..].concat(), "k {k} m {m} len {len}");
            }
        }
    }

    #[test]
    fn no_loss_roundtrip() {
        let rs = ReedSolomon::new(5, 3).unwrap();
        let data = sample_data(1000);
        let shards = rs.encode(&data).unwrap();
        let received: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        assert_eq!(rs.reconstruct(&received, 1000).unwrap(), data);
    }

    #[test]
    fn tolerates_any_m_losses() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = sample_data(333);
        let shards = rs.encode(&data).unwrap();
        // Every pair of lost shards.
        for a in 0..6 {
            for b in (a + 1)..6 {
                let mut received: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
                received[a] = None;
                received[b] = None;
                let restored = rs.reconstruct(&received, 333).unwrap();
                assert_eq!(restored, data, "losing shards {a},{b}");
            }
        }
    }

    #[test]
    fn too_many_losses_detected() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let shards = rs.encode(&sample_data(100)).unwrap();
        let mut received: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        received[0] = None;
        received[1] = None;
        received[2] = None;
        assert!(matches!(
            rs.reconstruct(&received, 100).unwrap_err(),
            CodeError::NotEnoughShards {
                present: 3,
                required: 4
            }
        ));
    }

    #[test]
    fn shard_slot_and_size_validation() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        let shards = rs.encode(b"hello world").unwrap();
        let mut received: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        assert!(matches!(
            rs.reconstruct(&received[..2], 11).unwrap_err(),
            CodeError::WrongShardCount {
                got: 2,
                expected: 3
            }
        ));
        received[1] = Some(vec![0; 99]);
        assert_eq!(
            rs.reconstruct(&received, 11).unwrap_err(),
            CodeError::ShardSizeMismatch
        );
    }

    #[test]
    fn bad_data_length_detected() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        let shards = rs.encode(b"abcd").unwrap();
        let received: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        assert!(matches!(
            rs.reconstruct(&received, 1000).unwrap_err(),
            CodeError::BadDataLength
        ));
    }

    #[test]
    fn tiny_and_empty_inputs() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        for len in [0usize, 1, 3, 4, 5] {
            let data = sample_data(len);
            let shards = rs.encode(&data).unwrap();
            assert_eq!(shards.len(), 6);
            let mut received: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
            received[1] = None;
            received[4] = None;
            assert_eq!(rs.reconstruct(&received, len).unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn parity_only_reconstruction() {
        // Reconstruct purely from parity + one data shard: k=2, m=2,
        // lose both... no: lose k-1 data shards and use parity.
        let rs = ReedSolomon::new(2, 2).unwrap();
        let data = sample_data(64);
        let shards = rs.encode(&data).unwrap();
        let mut received: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        received[0] = None;
        received[1] = None; // all data shards gone
        let restored = rs.reconstruct(&received, 64).unwrap();
        assert_eq!(restored, data);
    }

    /// Every subset of `0..n` with at most `max` members.
    fn subsets_up_to(n: usize, max: usize) -> Vec<Vec<usize>> {
        (0u32..1 << n)
            .filter(|mask| mask.count_ones() as usize <= max)
            .map(|mask| (0..n).filter(|i| mask & (1 << i) != 0).collect())
            .collect()
    }

    /// `shards` as borrowed slots, the `lost` ones empty.
    fn borrow_without<'a>(shards: &'a [Vec<u8>], lost: &[usize]) -> Vec<Option<&'a [u8]>> {
        shards
            .iter()
            .enumerate()
            .map(|(i, s)| (!lost.contains(&i)).then_some(s.as_slice()))
            .collect()
    }

    /// Over borrowed shards, every loss pattern the code tolerates
    /// gives back the input — and the same bytes as the full matrix
    /// decode, including the no-data-shard-lost patterns where
    /// `reconstruct` only concatenates.
    #[test]
    fn borrowed_reconstruct_matches_the_matrix_reference_under_every_loss_pattern() {
        check(
            "borrowed_reconstruct_matches_the_matrix_reference_under_every_loss_pattern",
            24,
            (vec(any::<u8>(), 0..20_000), 1usize..7, 1usize..4),
            |(data, k, m)| {
                let rs = ReedSolomon::new(k, m).unwrap();
                let shards = rs.encode(&data).unwrap();
                for lost in subsets_up_to(k + m, m) {
                    let received = borrow_without(&shards, &lost);
                    let restored = rs.reconstruct(&received, data.len()).unwrap();
                    assert_eq!(&restored, &data, "lost {:?}", &lost);
                    let reference = rs.reconstruct_reference(&received, data.len()).unwrap();
                    assert_eq!(&reference, &data, "reference, lost {:?}", &lost);
                }
            },
        );
    }

    #[test]
    fn a_rotted_present_shard_decodes_as_the_reference_does() {
        // Wrong bytes in, the same wrong bytes out on both paths: the
        // caller's content check sees exactly what it saw before the
        // shortcut, whichever shard rotted and whichever is missing.
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = sample_data(1000);
        let shards = rs.encode(&data).unwrap();
        for rotted in 0..6 {
            for lost in subsets_up_to(6, 2) {
                if lost.contains(&rotted) {
                    continue;
                }
                let mut damaged = shards.clone();
                damaged[rotted][7] ^= 0x10;
                let received = borrow_without(&damaged, &lost);
                assert_eq!(
                    rs.reconstruct(&received, 1000).unwrap(),
                    rs.reconstruct_reference(&received, 1000).unwrap(),
                    "rotted {rotted}, lost {lost:?}"
                );
            }
        }
    }

    /// FNV-1a over every shard of every length, each shard length-prefixed.
    fn encode_digest(k: usize, m: usize) -> u64 {
        let rs = ReedSolomon::new(k, m).unwrap();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut absorb = |bytes: &[u8]| {
            for &b in bytes {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for len in [0usize, 1, 7, 64, 333, 4099, 5 * 1024, 20_001] {
            for shard in rs.encode(&sample_data(len)).unwrap() {
                absorb(&(shard.len() as u64).to_le_bytes());
                absorb(&shard);
            }
        }
        digest
    }

    #[test]
    fn encode_output_is_pinned_across_kernels() {
        // Recorded from the table-lookup `mul_acc` this crate shipped
        // before the word-parallel kernel: parity bytes are stored and
        // must decode under any later build.
        assert_eq!(encode_digest(4, 2), 0xda26_7563_4d0e_fdc3);
        assert_eq!(encode_digest(6, 3), 0xcd99_bed2_ca67_172e);
        assert_eq!(encode_digest(10, 4), 0x0899_3c77_d0d1_07e0);
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            CodeError::InvalidParameters { k: 0, m: 0 },
            CodeError::NotEnoughShards {
                present: 1,
                required: 2,
            },
            CodeError::ShardSizeMismatch,
            CodeError::WrongShardCount {
                got: 1,
                expected: 2,
            },
            CodeError::BadDataLength,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
