//! Property-based tests for the chunking substrate.

use ef_chunking::{dedup_ratio, Chunker, FixedChunker, GearChunker, GearChunkerBuilder};
use ef_simcore::prop::{any, check, vec};

/// Invariant 1 of the `Chunker` trait: reassembly reproduces the input.
#[test]
fn fixed_chunker_reassembles() {
    check(
        "fixed_chunker_reassembles",
        256,
        (vec(any::<u8>(), 0..5000), 1usize..600),
        |(data, size)| {
            let chunker = FixedChunker::new(size).unwrap();
            let chunks = chunker.chunk(&data);
            let mut rebuilt = Vec::new();
            for c in &chunks {
                assert_eq!(c.offset as usize, rebuilt.len());
                assert!(!c.is_empty());
                rebuilt.extend_from_slice(&c.data);
            }
            assert_eq!(rebuilt, data);
        },
    );
}

/// All chunks except the last have exactly the configured size.
#[test]
fn fixed_chunker_sizes() {
    check(
        "fixed_chunker_sizes",
        256,
        (vec(any::<u8>(), 1..5000), 1usize..600),
        |(data, size)| {
            let chunker = FixedChunker::new(size).unwrap();
            let chunks = chunker.chunk(&data);
            for c in &chunks[..chunks.len() - 1] {
                assert_eq!(c.len(), size);
            }
            let last = chunks.last().unwrap();
            assert!(last.len() <= size && !last.is_empty());
        },
    );
}

/// Gear chunker: reassembly + size bounds hold for arbitrary input.
#[test]
fn gear_chunker_reassembles_with_bounds() {
    check(
        "gear_chunker_reassembles_with_bounds",
        256,
        vec(any::<u8>(), 0..40_000),
        |data| {
            let chunker = GearChunkerBuilder::new()
                .min_size(64)
                .target_size(1024)
                .max_size(4096)
                .build()
                .unwrap();
            let chunks = chunker.chunk(&data);
            let mut rebuilt = Vec::new();
            for (i, c) in chunks.iter().enumerate() {
                assert!(!c.is_empty());
                assert!(c.len() <= 4096);
                if i + 1 != chunks.len() {
                    assert!(c.len() >= 64, "non-final chunk below min size");
                }
                rebuilt.extend_from_slice(&c.data);
            }
            assert_eq!(rebuilt, data);
        },
    );
}

/// Chunking is a pure function of content.
#[test]
fn gear_chunker_deterministic() {
    check(
        "gear_chunker_deterministic",
        256,
        vec(any::<u8>(), 0..20_000),
        |data| {
            let chunker = GearChunker::default();
            assert_eq!(chunker.chunk(&data), chunker.chunk(&data));
        },
    );
}

/// Dedup ratio is at least 1 and at most input/chunk-count bound.
#[test]
fn dedup_ratio_bounds() {
    check(
        "dedup_ratio_bounds",
        256,
        (vec(any::<u8>(), 1..4000), 1usize..128),
        |(data, size)| {
            let chunker = FixedChunker::new(size).unwrap();
            let ratio = dedup_ratio(&chunker, &data);
            assert!(ratio >= 1.0 - 1e-12);
            // Cannot dedup below one unique chunk.
            let max_ratio = data.len() as f64 / 1.0;
            assert!(ratio <= max_ratio + 1e-9);
        },
    );
}

/// Duplicating the stream doubles the ratio when sizes divide evenly.
#[test]
fn doubling_data_doubles_ratio() {
    check(
        "doubling_data_doubles_ratio",
        256,
        vec(any::<u8>(), 64..512),
        |data| {
            let chunker = FixedChunker::new(data.len()).unwrap();
            let doubled: Vec<u8> = data.iter().chain(data.iter()).copied().collect();
            let r = dedup_ratio(&chunker, &doubled);
            assert!((r - 2.0).abs() < 1e-9);
        },
    );
}

/// Hash parsing round-trips for arbitrary digests.
#[test]
fn chunk_hash_roundtrip() {
    check(
        "chunk_hash_roundtrip",
        256,
        vec(any::<u8>(), 32..33),
        |bytes| {
            let h = ef_chunking::ChunkHash::from_bytes(bytes.try_into().unwrap());
            let parsed: ef_chunking::ChunkHash = h.to_string().parse().unwrap();
            assert_eq!(parsed, h);
        },
    );
}
