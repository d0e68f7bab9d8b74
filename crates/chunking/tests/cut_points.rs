//! Where the gear chunker cuts: pinned cut lists, and the prefix property
//! a streaming caller relies on.
//!
//! The pins were recorded while a second, four-bytes-per-step scan still
//! shipped next to the byte loop and the two agreed on every input below;
//! they are what is left of that agreement now that there is one scan.

#![expect(
    clippy::unwrap_used,
    reason = "a test target: its helpers fail the test on bad input"
)]

use ef_chunking::{GearChunker, GearChunkerBuilder, Sha256};
use std::collections::BTreeSet;

/// SplitMix64-style filler (the generator the `cdc` unit tests use).
fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            (z >> 56) as u8
        })
        .collect()
}

#[derive(Clone, Copy, Debug)]
enum Input {
    Rand(u64),
    Const(u8),
    Mod7,
}
use Input::{Const, Mod7, Rand};

impl Input {
    fn bytes(self, len: usize) -> Vec<u8> {
        match self {
            Rand(seed) => pseudo_random(len, seed),
            Const(byte) => vec![byte; len],
            Mod7 => (0..len).map(|i| (i % 7) as u8).collect(),
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Sizes {
    /// The default 2 KiB / 8 KiB / 64 KiB.
    Stock,
    /// 61 / 128 / 1023: region widths that are no multiple of anything.
    Odd,
}
use Sizes::{Odd, Stock};

impl Sizes {
    fn chunker(self) -> GearChunker {
        match self {
            Stock => GearChunker::default(),
            Odd => GearChunkerBuilder::new()
                .min_size(61)
                .target_size(128)
                .max_size(1023)
                .build()
                .unwrap(),
        }
    }
}

/// First eight bytes of SHA-256 over the cuts as little-endian `u64`s.
fn cut_digest(cuts: &[usize]) -> u64 {
    let mut bytes = Vec::with_capacity(cuts.len() * 8);
    for &cut in cuts {
        bytes.extend_from_slice(&(cut as u64).to_le_bytes());
    }
    let digest = Sha256::digest(&bytes);
    u64::from_be_bytes(digest[..8].try_into().unwrap())
}

/// `(sizes, input, length, cuts, digest of the cut list)`. The last four
/// rows are past 512 KiB, so on a host with two or more cores
/// `boundaries` scans them in parts and stitches the lists (their pins
/// were recorded from the serial scan).
const PINS: [(Sizes, Input, usize, usize, u64); 40] = [
    (Stock, Rand(1), 0, 0, 0xe3b0c44298fc1c14),
    (Stock, Rand(1), 1, 1, 0x7c9fa136d4413fa6),
    (Stock, Rand(1), 100, 1, 0x26ab39150b633015),
    (Stock, Rand(1), 2048, 1, 0x8191cd68605104a2),
    (Stock, Rand(1), 2049, 1, 0x0b8e07f874eea76a),
    (Stock, Rand(1), 8192, 2, 0xd5e250f97e862eed),
    (Stock, Rand(1), 65_537, 7, 0x23eab3f47bcead78),
    (Stock, Rand(1), 300_000, 33, 0xf4d0cbdb81d65aee),
    (Stock, Rand(42), 0, 0, 0xe3b0c44298fc1c14),
    (Stock, Rand(42), 1, 1, 0x7c9fa136d4413fa6),
    (Stock, Rand(42), 100, 1, 0x26ab39150b633015),
    (Stock, Rand(42), 2048, 1, 0x8191cd68605104a2),
    (Stock, Rand(42), 2049, 1, 0x0b8e07f874eea76a),
    (Stock, Rand(42), 8192, 2, 0xbfd9b8f047f8451f),
    (Stock, Rand(42), 65_537, 7, 0xbde5548b2eb59245),
    (Stock, Rand(42), 300_000, 31, 0x169347771527dc08),
    (Stock, Rand(99), 0, 0, 0xe3b0c44298fc1c14),
    (Stock, Rand(99), 1, 1, 0x7c9fa136d4413fa6),
    (Stock, Rand(99), 100, 1, 0x26ab39150b633015),
    (Stock, Rand(99), 2048, 1, 0x8191cd68605104a2),
    (Stock, Rand(99), 2049, 1, 0x0b8e07f874eea76a),
    (Stock, Rand(99), 8192, 1, 0x4c6d7e0c6891e6a9),
    (Stock, Rand(99), 65_537, 8, 0x61c8ea1ea0432cdc),
    (Stock, Rand(99), 300_000, 32, 0x5d02205d3a9c010c),
    (Stock, Rand(1234), 0, 0, 0xe3b0c44298fc1c14),
    (Stock, Rand(1234), 1, 1, 0x7c9fa136d4413fa6),
    (Stock, Rand(1234), 100, 1, 0x26ab39150b633015),
    (Stock, Rand(1234), 2048, 1, 0x8191cd68605104a2),
    (Stock, Rand(1234), 2049, 1, 0x0b8e07f874eea76a),
    (Stock, Rand(1234), 8192, 1, 0x4c6d7e0c6891e6a9),
    (Stock, Rand(1234), 65_537, 7, 0xbbc0b59d6e97b4a6),
    (Stock, Rand(1234), 300_000, 28, 0xc9c2748ddf33d222),
    (Stock, Const(0xA5), 400_000, 7, 0x1b6df01cef52933d),
    (Stock, Mod7, 400_000, 7, 0x1b6df01cef52933d),
    (Odd, Rand(5), 50_000, 303, 0x0ddd57957421d8ab),
    (Odd, Rand(77), 50_000, 291, 0x72650fe194299029),
    (Stock, Rand(42), 4_194_304, 423, 0x9200ecd20bae1d4d),
    (Stock, Const(0xA5), 1_048_576, 16, 0xdf8f047e25674b0c),
    (Stock, Mod7, 1_000_000, 16, 0x57f217e1c8700830),
    (Odd, Rand(5), 1_048_576, 6230, 0xa7a4706664e4b6b4),
];

#[test]
fn cut_lists_match_their_pins() {
    for (sizes, input, len, count, digest) in PINS {
        let cuts = sizes.chunker().boundaries(&input.bytes(len));
        let label = format!("{sizes:?} {input:?} len {len}");
        assert_eq!(cuts.len(), count, "{label}: cut count");
        assert_eq!(cut_digest(&cuts), digest, "{label}: cut digest");
    }
}

/// A cut depends only on the bytes from its chunk's start to itself, so
/// cutting the input short can move nothing but the last cut: for every
/// `n`, `boundaries(&data[..n])` is the full cut list below `n`, then `n`.
/// Probed where end-of-input meets each region edge of each chunk (the
/// minimum, target and maximum sizes, one byte either side) and again one
/// maximum-size chunk further on.
#[test]
fn truncation_moves_only_the_last_cut() {
    let cases = [
        (Stock, Rand(42), 150_000),
        (Stock, Const(0xA5), 150_000),
        (Stock, Mod7, 150_000),
        (Odd, Rand(5), 12_000),
        (Odd, Const(0xA5), 5_000),
        (Odd, Mod7, 5_000),
    ];
    for (sizes, input, len) in cases {
        let chunker = sizes.chunker();
        let data = input.bytes(len);
        let full = chunker.boundaries(&data);
        let edges = [
            chunker.min_size(),
            chunker.target_size(),
            chunker.max_size(),
        ];
        let mut lengths = BTreeSet::new();
        for start in std::iter::once(0).chain(full.iter().copied()) {
            for edge in edges {
                for n in [start + edge - 1, start + edge, start + edge + 1] {
                    lengths.extend([n, n + chunker.max_size()]);
                }
            }
        }
        for n in lengths.into_iter().filter(|&n| n <= len) {
            let mut expected: Vec<usize> = full.iter().copied().filter(|&c| c < n).collect();
            expected.push(n);
            assert_eq!(
                chunker.boundaries(&data[..n]),
                expected,
                "{sizes:?} {input:?} truncated to {n}"
            );
        }
    }
}
