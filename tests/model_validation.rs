//! Property-based cross-crate validation: the analytical model
//! (Theorem 1) against the actual generative process and byte-level
//! measurement, and partitioner invariants on randomized instances.

use ef_chunking::{joint_dedup_ratio, Chunker, FixedChunker, GearChunkerBuilder};
use ef_datagen::{
    ByteAlignedConfig, CharacteristicVector, GenerativeModel, LayeredImagesConfig, LogAppendConfig,
    SourceSpec, VersionedBackupConfig, WorkloadKind,
};
use ef_simcore::prop::{check, vec, Strategy};
use ef_simcore::DetRng;
use efdedup::model::Snod2Instance;
use efdedup::partition::{
    DedupOnly, EqualSizeGreedy, MatchingPartitioner, NetworkOnly, Partitioner, RandomPartitioner,
    SmartGreedy,
};

/// What a small random SNOD2 instance is built from: node count, pool
/// count, pool sizes (resized to the pool count), seed, alpha.
type InstanceParts = (usize, usize, Vec<u64>, u64, f64);

fn arb_instance_parts() -> impl Strategy<Value = InstanceParts> {
    (
        2usize..6,
        2usize..4,
        vec(10u64..5_000, 2..4),
        0u64..u64::MAX,
        0.0f64..0.1,
    )
}

fn instance((n, k, mut sizes, seed, alpha): InstanceParts) -> Snod2Instance {
    sizes.resize(k, 100);
    let mut rng = DetRng::new(seed).substream("arb-instance");
    let probs: Vec<CharacteristicVector> = (0..n)
        .map(|_| {
            let w: Vec<f64> = (0..k).map(|_| rng.range_f64(0.05, 1.0)).collect();
            CharacteristicVector::from_weights(w).unwrap()
        })
        .collect();
    let mut costs = vec![vec![0.0; n]; n];
    #[expect(
        clippy::needless_range_loop,
        reason = "symmetric fill: each draw writes (i, j) and (j, i)"
    )]
    for i in 0..n {
        for j in (i + 1)..n {
            let c = rng.range_f64(0.1, 50.0);
            costs[i][j] = c;
            costs[j][i] = c;
        }
    }
    let rates: Vec<f64> = (0..n).map(|_| rng.range_f64(10.0, 200.0)).collect();
    Snod2Instance::new(sizes, rates, probs, costs, alpha, 2, 5.0).unwrap()
}

/// Theorem 1's ratio is ≥ 1 and merging node sets never increases
/// total storage (subadditivity of unique-chunk counts).
#[test]
fn theorem1_bounds_and_subadditivity() {
    check(
        "theorem1_bounds_and_subadditivity",
        48,
        arb_instance_parts(),
        |parts| {
            let inst = instance(parts);
            let n = inst.node_count();
            let all: Vec<usize> = (0..n).collect();
            assert!(inst.dedup_ratio(&all) >= 1.0 - 1e-12);
            let joint = inst.storage_cost(&all);
            let separate: f64 = (0..n).map(|i| inst.storage_cost(&[i])).sum();
            assert!(joint <= separate + 1e-9);
        },
    );
}

/// All partitioners return valid exact-m covers and SMART never loses
/// to either ablation.
#[test]
fn partitioners_valid_and_smart_dominant() {
    check(
        "partitioners_valid_and_smart_dominant",
        48,
        (arb_instance_parts(), 1usize..5),
        |(parts, m)| {
            let inst = instance(parts);
            let n = inst.node_count();
            let algos: Vec<Box<dyn Partitioner>> = vec![
                Box::new(SmartGreedy),
                Box::new(EqualSizeGreedy),
                Box::new(MatchingPartitioner::default()),
                Box::new(NetworkOnly),
                Box::new(DedupOnly),
                Box::new(RandomPartitioner { seed: 5 }),
            ];
            for algo in &algos {
                let p = algo.partition(&inst, m);
                assert!(p.validate(n).is_ok(), "{} invalid", algo.name());
                assert!(p.ring_count() <= m.min(n).max(1));
            }
            let smart = inst.total_cost(&SmartGreedy.partition(&inst, m)).aggregate;
            let net = inst.total_cost(&NetworkOnly.partition(&inst, m)).aggregate;
            let ded = inst.total_cost(&DedupOnly.partition(&inst, m)).aggregate;
            assert!(smart <= net + 1e-9, "smart {smart} > network-only {net}");
            assert!(smart <= ded + 1e-9, "smart {smart} > dedup-only {ded}");
        },
    );
}

/// Theorem 1 against the real generative process *and* byte-level
/// chunk measurement, on random two-source models.
#[test]
fn theorem1_matches_measured_bytes() {
    check("theorem1_matches_measured_bytes", 48, 0u64..1_000, |seed| {
        let mut rng = DetRng::new(seed).substream("t1-bytes");
        let k = 3usize;
        let sizes = vec![
            rng.range_u64(50, 400),
            rng.range_u64(100, 1_000),
            rng.range_u64(5_000, 50_000),
        ];
        let probs: Vec<CharacteristicVector> = (0..2)
            .map(|_| {
                let w: Vec<f64> = (0..k).map(|_| rng.range_f64(0.1, 1.0)).collect();
                CharacteristicVector::from_weights(w).unwrap()
            })
            .collect();
        let chunk_size = 128usize;
        let draws = 400usize;
        let model = GenerativeModel::new(
            sizes.clone(),
            chunk_size,
            probs
                .iter()
                .map(|p| SourceSpec::new(draws as f64, p.clone()))
                .collect(),
        )
        .unwrap();

        // Analytic prediction with R_i T = draws.
        let inst = Snod2Instance::new(
            sizes,
            vec![draws as f64; 2],
            probs,
            vec![vec![0.0; 2]; 2],
            0.0,
            1,
            1.0,
        )
        .unwrap();
        let predicted = inst.dedup_ratio(&[0, 1]);

        // Average byte-level measurement over a few sample draws.
        let chunker = FixedChunker::new(chunk_size).unwrap();
        let mut measured_sum = 0.0;
        let trials = 5;
        for t in 0..trials {
            let mut sub = rng.substream_idx("trial", t);
            let a = model.generate_stream(0, draws, &mut sub);
            let b = model.generate_stream(1, draws, &mut sub);
            measured_sum += joint_dedup_ratio(&chunker, &[&a, &b]);
        }
        let measured = measured_sum / trials as f64;
        let rel = ((predicted - measured) / measured).abs();
        assert!(
            rel < 0.15,
            "predicted {predicted} vs measured {measured} (rel {rel})"
        );
    });
}

fn small_gear() -> ef_chunking::GearChunker {
    GearChunkerBuilder::new()
        .min_size(512)
        .target_size(2048)
        .max_size(16 * 1024)
        .build()
        .unwrap()
}

/// The mechanism behind the chunking choice, pinned as a property:
/// on every shift-redundant workload family at nonzero edit rate,
/// gear-CDC finds strictly more redundancy than equal-size chunking
/// — while the byte-aligned pool corpus still favors equal-size
/// chunking. Edit rates start
/// at 4 so at least one shifting (insert/delete) edit separates
/// consecutive versions with overwhelming probability; a run of
/// all-in-place-edit transitions would leave fixed-size alignment
/// intact and the margin near zero.
#[test]
fn cdc_strictly_beats_fixed_on_shift_redundant_corpora() {
    check(
        "cdc_strictly_beats_fixed_on_shift_redundant_corpora",
        8,
        (0u64..10_000, 4usize..10),
        |(seed, edits)| {
            let kinds = [
                WorkloadKind::VersionedBackup(VersionedBackupConfig {
                    base_len: 48 * 1024,
                    versions: 4,
                    edits_per_version: edits,
                    mean_edit_len: 48,
                }),
                WorkloadKind::LayeredImages(LayeredImagesConfig {
                    base_layers: 2,
                    layer_len: 24 * 1024,
                    images: 3,
                    delta_len: 8 * 1024,
                    edits_per_image: edits,
                    mean_edit_len: 32,
                }),
                WorkloadKind::LogAppend(LogAppendConfig {
                    initial_len: 48 * 1024,
                    snapshots: 4,
                    append_len: 8 * 1024,
                    mean_trim_len: 512 * edits,
                }),
            ];
            let fixed = FixedChunker::new(2048).unwrap();
            let gear = small_gear();
            for kind in kinds {
                assert!(kind.is_shift_redundant());
                let streams = kind.streams(seed);
                let views: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
                let r_fixed = joint_dedup_ratio(&fixed, &views);
                let r_gear = joint_dedup_ratio(&gear, &views);
                assert!(
                    r_gear > r_fixed,
                    "{}: gear {} <= fixed {} (seed {})",
                    kind.label(),
                    r_gear,
                    r_fixed,
                    seed
                );
            }
        },
    );
}

/// The control: on the legacy byte-aligned pool corpus, equal-size
/// chunking at the pool's chunk size finds every duplicate and wins.
#[test]
fn fixed_still_wins_on_the_byte_aligned_corpus() {
    check(
        "fixed_still_wins_on_the_byte_aligned_corpus",
        8,
        0u64..10_000,
        |seed| {
            let kind = WorkloadKind::ByteAligned(ByteAlignedConfig {
                chunk_size: 2048,
                pool_chunks: 100,
                sources: 2,
                chunks_per_source: 200,
            });
            assert!(!kind.is_shift_redundant());
            let streams = kind.streams(seed);
            let views: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
            let fixed = FixedChunker::new(2048).unwrap();
            let gear = small_gear();
            let r_fixed = joint_dedup_ratio(&fixed, &views);
            let r_gear = joint_dedup_ratio(&gear, &views);
            assert!(
                r_fixed > r_gear,
                "control inverted: fixed {} <= gear {} (seed {})",
                r_fixed,
                r_gear,
                seed
            );
        },
    );
}

/// Measured dedup ratios on the versioned-backup corpus against the
/// arXiv 1701.04451 closed forms, at the documented tolerances
/// ([`ef_datagen::workload::CDC_MODEL_TOLERANCE`] for gear,
/// [`ef_datagen::workload::FIXED_MODEL_TOLERANCE`] for equal-size).
/// Averaged over a few seeds so one unlucky edit layout cannot carry
/// the verdict.
#[test]
fn versioned_backup_ratios_match_the_closed_forms() {
    let cfg = VersionedBackupConfig::default();
    let kind = WorkloadKind::VersionedBackup(cfg);
    let gear = GearChunkerBuilder::new()
        .min_size(1024)
        .target_size(4096)
        .max_size(16 * 1024)
        .build()
        .unwrap();
    let fixed = FixedChunker::new(4096).unwrap();
    let seeds = [42u64, 1042, 9042];
    let mut gear_sum = 0.0;
    let mut fixed_sum = 0.0;
    let mut mean_chunk_sum = 0.0;
    for seed in seeds {
        let streams = kind.streams(seed);
        let views: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
        let total: usize = views.iter().map(|v| v.len()).sum();
        let chunks: usize = views.iter().map(|v| gear.chunk(v).len()).sum();
        mean_chunk_sum += total as f64 / chunks as f64;
        gear_sum += joint_dedup_ratio(&gear, &views);
        fixed_sum += joint_dedup_ratio(&fixed, &views);
    }
    let n = seeds.len() as f64;
    let (gear_measured, fixed_measured) = (gear_sum / n, fixed_sum / n);
    let expected_cdc = cfg.expected_ratio_cdc(mean_chunk_sum / n);
    let expected_fixed = cfg.expected_ratio_fixed();
    let cdc_rel = (gear_measured - expected_cdc).abs() / expected_cdc;
    let fixed_rel = (fixed_measured - expected_fixed).abs() / expected_fixed;
    assert!(
        cdc_rel < ef_datagen::workload::CDC_MODEL_TOLERANCE,
        "gear measured {gear_measured} vs closed form {expected_cdc} (rel {cdc_rel})"
    );
    assert!(
        fixed_rel < ef_datagen::workload::FIXED_MODEL_TOLERANCE,
        "fixed measured {fixed_measured} vs closed form {expected_fixed} (rel {fixed_rel})"
    );
    // And the measured ordering matches the modeled ordering.
    assert!(gear_measured > fixed_measured);
    assert!(expected_cdc > expected_fixed);
}
