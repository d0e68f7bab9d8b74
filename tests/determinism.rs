//! The determinism contract, end to end: the same seed must reproduce a
//! chaos experiment *exactly* — not statistically, byte for byte.
//!
//! Each run regenerates the full pipeline from scratch (topology, chaos
//! schedule, workload, index cluster) so nothing can leak between runs,
//! then the resulting ([`SystemMetrics`], [`RobustnessMetrics`]) pairs are
//! compared both field by field (`PartialEq`) and as their `Debug`
//! rendering. Any hidden HashMap iteration, wall-clock read, or unseeded
//! RNG anywhere in the stack shows up here as a diff.

use bytes::Bytes;
use efdedup_repro::core::system::{RobustnessMetrics, SystemMetrics};
use efdedup_repro::kvstore::sweep::{self, Family, Route, Stop};
use efdedup_repro::kvstore::ChaosScenarioConfig;
use efdedup_repro::prelude::*;

/// The analytic half of an experiment: a `run_system` pass on a
/// fault-free network with a seeded workload.
fn analytic_metrics(seed: u64) -> SystemMetrics {
    let net = Network::new(
        TopologyBuilder::new()
            .edge_sites(4, 2)
            .cloud_site(2)
            .build(),
        NetworkConfig::paper_testbed(),
    );
    let ds = datasets::accelerometer(4, seed);
    let workload = Workload::from_dataset(&ds, 4, 400, seed as u32);
    run_system(
        &net,
        &workload,
        &Strategy::CloudAssisted,
        &SystemConfig::paper_testbed(),
    )
}

/// The chaos half's family: the sweep harness on a 2 × 2 edge ring —
/// one seed derives the fault schedule and every RNG substream below it
/// — 60 chunks once each, run until every op has resolved, nothing armed.
fn ring_of_four(scenario: ChaosScenarioConfig) -> Family<'static> {
    Family {
        edge_sites: &[2, 2],
        scenario,
        keys: 60,
        repeats: 1,
        route: Route::Rotate,
        stop: Stop::RESOLVED,
        arm: &|_, _| {},
        ..Family::chaos()
    }
}

fn robustness(seed: u64, family: &Family) -> RobustnessMetrics {
    RobustnessMetrics::from_sim(&sweep::run(seed, family).cluster)
}

/// One complete chaos experiment: an analytic `run_system` pass for the
/// dedup/timing half, plus a chaos-rigged [`SimCluster`] driving the
/// index under crashes, partitions, and loss for the robustness half.
fn chaos_metrics(seed: u64) -> (SystemMetrics, RobustnessMetrics) {
    let scenario = ChaosScenarioConfig {
        base_loss: 0.2,
        ..ChaosScenarioConfig::default()
    };
    (
        analytic_metrics(seed),
        robustness(seed, &ring_of_four(scenario)),
    )
}

#[test]
fn same_seed_reproduces_metrics_byte_for_byte() {
    let a = chaos_metrics(42);
    let b = chaos_metrics(42);

    assert_eq!(a, b, "metrics diverged across runs");
    // A comparison that cannot fail proves nothing: another seed differs.
    assert_ne!(chaos_metrics(42), chaos_metrics(43));

    // Debug formatting covers every field bit-exactly (floats included),
    // where `==` would let a 0.0 pass for a -0.0.
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "debug rendering diverged across runs"
    );
}

#[test]
fn chaos_run_actually_exercised_faults() {
    // Guard against the determinism test passing vacuously on a quiet
    // cluster: 20% background loss must trip the fault machinery.
    let (_, robustness) = chaos_metrics(42);
    assert!(
        !robustness.is_quiet(),
        "chaos scenario produced no fault activity: {robustness:?}"
    );
}

/// One bit-rot chaos experiment: wire rot on every link, seeded at-rest
/// storage rot, and the background scrub all enabled at once.
fn bitrot_metrics(seed: u64) -> (SystemMetrics, RobustnessMetrics) {
    let scenario = ChaosScenarioConfig {
        base_loss: 0.1,
        storage_rots: 3,
        wire_rot: 0.05,
        ..ChaosScenarioConfig::default()
    };
    let family = Family {
        arm: &|cluster, _| cluster.enable_scrub(SimDuration::from_millis(150), 32 * 1024),
        ..ring_of_four(scenario)
    };
    (analytic_metrics(seed), robustness(seed, &family))
}

/// The determinism contract extends to the integrity machinery: a run
/// with wire + storage bit rot and the scrub enabled must replay
/// byte-identically — frame rejections, scrub cursors, read-repairs and
/// all — and must actually exercise the corruption paths.
#[test]
fn bitrot_scrub_run_replays_byte_for_byte() {
    let a = bitrot_metrics(42);
    let b = bitrot_metrics(42);

    assert_eq!(a, b, "bit-rot metrics diverged");
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "debug rendering diverged across bit-rot runs"
    );

    // Vacuity guards: the run must reject corrupted frames and scrub
    // real entries, or the replay proves nothing about those paths.
    let integrity = a.1.integrity;
    assert!(
        integrity.frames_rejected > 0,
        "wire rot never rejected a frame: {integrity:?}"
    );
    assert!(
        integrity.entries_scrubbed > 0,
        "the scrub never ran: {integrity:?}"
    );
}

/// A cached gear-CDC ingest: dataset bytes are chunked by gear-CDC
/// (boundary scan + batched fingerprints) and every chunk hash is
/// checked-and-inserted through a chaos-rigged cluster running the
/// per-node fingerprint cache.
fn cached_gear_metrics(seed: u64) -> RobustnessMetrics {
    let ds = datasets::accelerometer(4, seed);
    let chunker = ChunkerKind::gear_sized(4096).expect("valid");
    let chunks = chunker.chunk(&ds.file(0, 0, seed as u32, 60));
    // Three passes over the same gear-chunked stream, the first two
    // through a per-chunk-stable coordinator: the second rides the cache.
    let family = Family {
        keys: chunks.len() as u32,
        repeats: 3,
        route: Route::Sticky,
        arm: &|cluster, _| cluster.enable_fingerprint_cache(2, 8),
        chunk: &|k| {
            let key = Bytes::copy_from_slice(chunks[k as usize].hash.as_bytes());
            (key.clone(), key)
        },
        ..ring_of_four(ChaosScenarioConfig {
            base_loss: 0.1,
            ..ChaosScenarioConfig::default()
        })
    };
    robustness(seed, &family)
}

/// The determinism contract extends to the whole hot-path overhaul: a
/// gear-CDC ingest with batched fingerprints and the fingerprint cache
/// enabled replays byte-identically, and the cache actually serves hits
/// (else the replay proves nothing new).
#[test]
fn cached_gear_cdc_run_replays_byte_for_byte() {
    let a = cached_gear_metrics(42);
    let b = cached_gear_metrics(42);

    assert_eq!(a, b, "cached-gear metrics diverged");
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "debug rendering diverged across cached gear-CDC runs"
    );

    assert!(a.cache.hits > 0, "never hit the cache: {:?}", a.cache);
}

#[test]
fn different_seeds_change_the_schedule() {
    let a = chaos_metrics(7);
    let b = chaos_metrics(8);
    assert_ne!(
        format!("{a:?}"),
        format!("{b:?}"),
        "distinct seeds produced identical runs; seeding is inert"
    );
}
