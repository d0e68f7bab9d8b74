//! Property tests for the workload substrate: the generative model's
//! byte-level behaviour must match its reference-level behaviour for
//! arbitrary configurations.

use ef_chunking::{Chunker, FixedChunker};
use ef_datagen::{CharacteristicVector, GenerativeModel, SourceSpec};
use ef_simcore::prop::{any, check, vec};
use ef_simcore::DetRng;
use std::collections::BTreeSet;

/// Byte-level unique-chunk counts equal reference-level distinct
/// counts for arbitrary pool structures.
#[test]
fn bytes_equal_refs() {
    check(
        "bytes_equal_refs",
        256,
        (
            any::<u64>(),
            5u64..200,
            50u64..2_000,
            0.05f64..1.0,
            0.05f64..1.0,
            20usize..200,
        ),
        |(seed, pool_a, pool_b, w1, w2, chunks)| {
            let probs = CharacteristicVector::from_weights(vec![w1, w2]).unwrap();
            let model = GenerativeModel::new(
                vec![pool_a, pool_b],
                96,
                vec![SourceSpec::new(chunks as f64, probs)],
            )
            .unwrap();
            let mut rng = DetRng::new(seed).substream("prop");
            let refs = model.draw_refs(0, chunks, &mut rng);
            let distinct = GenerativeModel::distinct_refs(std::slice::from_ref(&refs));

            let mut bytes = Vec::new();
            for r in &refs {
                bytes.extend_from_slice(&model.materialize(*r));
            }
            let chunker = FixedChunker::new(96).unwrap();
            let unique: BTreeSet<_> = chunker.chunk(&bytes).iter().map(|c| c.hash).collect();
            assert_eq!(unique.len(), distinct);
        },
    );
}

/// Characteristic-vector normalization is exact for arbitrary weights.
#[test]
fn weights_normalize() {
    check(
        "weights_normalize",
        256,
        vec(0.001f64..100.0, 1..10),
        |weights| {
            let v = CharacteristicVector::from_weights(weights).unwrap();
            let sum: f64 = v.as_slice().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(v.as_slice().iter().all(|p| *p > 0.0));
        },
    );
}

/// Dataset files are deterministic per (source, slot, file) and the
/// drift keeps vectors valid at every slot.
#[test]
fn dataset_reproducible_and_drift_valid() {
    check(
        "dataset_reproducible_and_drift_valid",
        256,
        (1usize..8, any::<u64>(), 0u32..6),
        |(sources, seed, slot)| {
            let ds = ef_datagen::datasets::accelerometer(sources, seed);
            let a = ds.draw_file_refs(0, slot, 0, 50);
            let b = ds.draw_file_refs(0, slot, 0, 50);
            assert_eq!(a, b);
            let model = ds.model_at(slot);
            for s in model.sources() {
                let sum: f64 = s.probs.as_slice().iter().sum();
                assert!((sum - 1.0).abs() < 1e-6, "slot {} sum {}", slot, sum);
            }
        },
    );
}
