//! Property tests: Reed–Solomon reconstructs under arbitrary loss
//! patterns of at most `m` shards, for arbitrary data and parameters.

use ef_erasure::ReedSolomon;
use ef_simcore::prop::{any, check, vec};

#[test]
fn roundtrip_under_random_losses() {
    check(
        "roundtrip_under_random_losses",
        256,
        (
            vec(any::<u8>(), 0..2000),
            1usize..8,
            1usize..5,
            any::<u64>(),
        ),
        |(data, k, m, loss_seed)| {
            let rs = ReedSolomon::new(k, m).unwrap();
            let shards = rs.encode(&data).unwrap();
            assert_eq!(shards.len(), k + m);

            // Deterministically pick up to m slots to drop.
            let mut received: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
            let mut state = loss_seed;
            let mut dropped = 0;
            while dropped < m {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let idx = (state >> 33) as usize % (k + m);
                if received[idx].is_some() {
                    received[idx] = None;
                    dropped += 1;
                }
            }
            let restored = rs.reconstruct(&received, data.len()).unwrap();
            assert_eq!(restored, data);
        },
    );
}

#[test]
fn parity_shards_have_data_shard_length() {
    check(
        "parity_shards_have_data_shard_length",
        256,
        (vec(any::<u8>(), 1..500), 1usize..6, 1usize..4),
        |(data, k, m)| {
            let rs = ReedSolomon::new(k, m).unwrap();
            let shards = rs.encode(&data).unwrap();
            let len = shards[0].len();
            assert!(shards.iter().all(|s| s.len() == len));
            assert!(len * k >= data.len());
            assert!(len * k < data.len() + k.max(2));
        },
    );
}
