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
use efdedup_repro::kvstore::{
    ChaosScenario, ChaosScenarioConfig, ClientOp, ClusterConfig, SimCluster,
};
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

/// The chaos half's cluster, not yet run: a 2 × 2 edge ring rigged with
/// the schedule `seed` draws from `config` (the same seed derives every
/// RNG substream below it), armed by `arm`, with `ops` — (coordinator
/// index, key) — check-and-inserted 40 ms apart from time zero.
fn chaos_ring(
    seed: u64,
    config: ChaosScenarioConfig,
    arm: impl FnOnce(&mut SimCluster),
    ops: impl Iterator<Item = (usize, Bytes)>,
) -> SimCluster {
    let mut net = Network::new(
        TopologyBuilder::new().edge_site(2).edge_site(2).build(),
        NetworkConfig::paper_testbed(),
    );
    let scenario = ChaosScenario::generate(seed, net.topology(), &config);
    scenario.rig(&mut net);
    let members = net.topology().edge_nodes();
    let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
    arm(&mut cluster);
    scenario.apply(&mut cluster);
    let mut t = SimTime::ZERO;
    for (i, key) in ops {
        let coordinator = members[i % members.len()];
        cluster.submit(t, coordinator, ClientOp::CheckAndInsert(key.clone(), key));
        t += SimDuration::from_millis(40);
    }
    cluster
}

/// Sixty distinct keys, key `i` through member `i`.
fn sixty_keys() -> impl Iterator<Item = (usize, Bytes)> {
    (0..60u32).map(|i| (i as usize, Bytes::from(i.to_be_bytes().to_vec())))
}

/// One complete chaos experiment: an analytic `run_system` pass for the
/// dedup/timing half, plus a chaos-rigged [`SimCluster`] driving the
/// index under crashes, partitions, and loss for the robustness half.
fn chaos_metrics(seed: u64) -> (SystemMetrics, RobustnessMetrics) {
    let config = ChaosScenarioConfig {
        base_loss: 0.2,
        ..ChaosScenarioConfig::default()
    };
    let mut cluster = chaos_ring(seed, config, |_| {}, sixty_keys());
    cluster.run();
    let robustness = RobustnessMetrics::from_sim(&cluster);
    (analytic_metrics(seed), robustness)
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
    let config = ChaosScenarioConfig {
        base_loss: 0.1,
        storage_rots: 3,
        wire_rot: 0.05,
        ..ChaosScenarioConfig::default()
    };
    let scrub = |c: &mut SimCluster| c.enable_scrub(SimDuration::from_millis(150), 32 * 1024);
    let mut cluster = chaos_ring(seed, config, scrub, sixty_keys());
    cluster.run_until(SimTime::ZERO + SimDuration::from_secs_f64(30.0));
    let robustness = RobustnessMetrics::from_sim(&cluster);
    (analytic_metrics(seed), robustness)
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
    let config = ChaosScenarioConfig {
        base_loss: 0.1,
        ..ChaosScenarioConfig::default()
    };
    // Two passes over the same gear-chunked stream, each chunk routed to
    // a per-chunk-stable coordinator: the second pass rides the cache.
    let chunker = ChunkerKind::gear_sized(4096).expect("valid");
    let chunks = chunker.chunk(&ds.file(0, 0, seed as u32, 120));
    let keys = chunks
        .iter()
        .map(|chunk| Bytes::copy_from_slice(chunk.hash.as_bytes()));
    let ops = (0..2).flat_map(|_| keys.clone().enumerate());
    let cache = |c: &mut SimCluster| c.enable_fingerprint_cache(2, 8);
    let mut cluster = chaos_ring(seed, config, cache, ops);
    cluster.run();
    RobustnessMetrics::from_sim(&cluster)
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
