//! Golden-vector pins for both chunking engines.
//!
//! A fixed seeded corpus is chunked by each [`ChunkerKind`] and the exact
//! boundaries and SHA-256 digests are pinned. Any change to the gear
//! table, the mask ladder, the boundary scan, the batched fingerprint
//! path, or the fixed splitter shows up here as a hard diff — none of
//! them is allowed to move a single boundary or bit. The
//! digest-of-digests compresses "every chunk hash, in order" into one
//! pinnable value.

use ef_chunking::{Chunker, ChunkerKind, Sha256};

/// 100 kB of deterministic LCG bytes (seed pinned with the vectors).
fn corpus() -> Vec<u8> {
    let mut state = 0x0123_4567_89ab_cdefu64;
    (0..100_000)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 56) as u8
        })
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// SHA-256 over the concatenated chunk digests, in stream order.
fn digest_of_digests(chunks: &[ef_chunking::Chunk]) -> String {
    let mut all = Vec::with_capacity(chunks.len() * 32);
    for c in chunks {
        all.extend_from_slice(c.hash.as_bytes());
    }
    hex(&Sha256::digest(&all))
}

struct Golden {
    label: &'static str,
    count: usize,
    first_offsets: [u64; 8],
    first_lens: [usize; 8],
    first_hash: &'static str,
    last_hash: &'static str,
    digest_of_digests: &'static str,
}

const GOLDEN: [Golden; 2] = [
    Golden {
        label: "fixed",
        count: 25,
        first_offsets: [0, 4096, 8192, 12288, 16384, 20480, 24576, 28672],
        first_lens: [4096; 8],
        first_hash: "8cc2ee8840cee12721d06eedb3b050bdd148b46b853e8aa4aa011ab692943486",
        last_hash: "8d7b2eef174d8e5296bffe2644acedd99d620ea1a8e1ba61062fd1e61df27df6",
        digest_of_digests: "c19777af71852deb44b7f126af346c1f39a82460fefcad297b3d238f42748831",
    },
    Golden {
        label: "gear-cdc",
        count: 18,
        first_offsets: [0, 19139, 23884, 26348, 28215, 33992, 41339, 48590],
        first_lens: [19139, 4745, 2464, 1867, 5777, 7347, 7251, 5968],
        first_hash: "a78d929644ba1ddc84eaab123146b9dcb5c95301f0660e516904d0b2ba6c059c",
        last_hash: "a572d25d8bbf50df0e4a3db3e38ab7a376a28d35fc10d80b1a55499bd3a80575",
        digest_of_digests: "bd780cb4bc349312206d601b8d37a81195ac083a4926818387714fff67ec2f9a",
    },
];

fn check(chunks: &[ef_chunking::Chunk], golden: &Golden) {
    assert_eq!(chunks.len(), golden.count, "{}: chunk count", golden.label);
    for (i, chunk) in chunks.iter().take(8).enumerate() {
        assert_eq!(
            chunk.offset, golden.first_offsets[i],
            "{}: offset of chunk {i}",
            golden.label
        );
        assert_eq!(
            chunk.len(),
            golden.first_lens[i],
            "{}: length of chunk {i}",
            golden.label
        );
    }
    assert_eq!(
        hex(chunks[0].hash.as_bytes()),
        golden.first_hash,
        "{}: first chunk digest",
        golden.label
    );
    assert_eq!(
        hex(chunks[chunks.len() - 1].hash.as_bytes()),
        golden.last_hash,
        "{}: last chunk digest",
        golden.label
    );
    assert_eq!(
        digest_of_digests(chunks),
        golden.digest_of_digests,
        "{}: digest-of-digests",
        golden.label
    );
}

#[test]
fn both_chunker_kinds_match_their_golden_vectors() {
    let data = corpus();
    for (kind, golden) in ChunkerKind::both(4096).unwrap().iter().zip(&GOLDEN) {
        assert_eq!(kind.label(), golden.label, "vector order");
        check(&kind.chunk(&data), golden);
    }
}

#[test]
fn chunks_reassemble_the_corpus() {
    let data = corpus();
    for kind in ChunkerKind::both(4096).unwrap() {
        let mut rebuilt = Vec::new();
        for chunk in kind.chunk(&data) {
            assert_eq!(chunk.offset as usize, rebuilt.len(), "{}", kind.label());
            rebuilt.extend_from_slice(&chunk.data);
        }
        assert_eq!(rebuilt, data, "{}", kind.label());
    }
}
