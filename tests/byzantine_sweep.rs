//! The Byzantine-peer tolerance sweep: seeded `ByzantineLiar` windows
//! (each liar composes all four behaviors — `LieOnLookup` false
//! sightings, `ServeGarbage` on repair fetches, `EquivocateSummary`
//! during anti-entropy, `HintFlood`) layered on a ring-outage disaster,
//! with the full defense armed: proof-of-possession challenges before
//! any remote positive sighting completes a dedup verdict, content-
//! address verification on every peer-served repair byte, and the
//! per-peer trust ledger escalating liars into quarantine. Four
//! promises are swept over 20 seeds:
//!
//! * **soundness** — lying peers never manufacture a *false duplicate*
//!   (a chunk wrongly judged already-stored would be dropped: data
//!   loss),
//! * **zero poisoned bytes** — no unverified peer-served byte is ever
//!   acked into a replica's storage or the cloud catalog: at the
//!   horizon every stored chunk is byte-identical to what the client
//!   ingested, and no flooded junk key exists anywhere,
//! * **quarantine convergence** — every lying node is struck and
//!   quarantined by the horizon,
//! * **determinism** — every Byzantine run replays bit-identically
//!   from its seed, trust counters included.
//!
//! A companion test bounds the price of the defense: arming
//! proof-of-possession on an *honest* run must cost at most a 15%
//! ingest-throughput delta (the challenge round-trips overlap the
//! ingest pipeline, and the proven-possession cache amortizes repeat
//! challenges away).

use bytes::Bytes;
use efdedup_repro::kvstore::sweep::{self, Family};
use efdedup_repro::kvstore::{
    ByzantineStats, ChaosEvent, ClientOp, ClusterConfig, OpResult, SimCluster,
};
use efdedup_repro::prelude::*;
use std::collections::HashMap;

/// 20 seeds of the composed Byzantine mix under the shared oracle (a
/// fabricated positive sighting never survives its challenge into a
/// duplicate verdict), plus the family's own: zero poisoned bytes in any
/// replica or the cloud catalog, no flooded junk key anywhere, and every
/// liar quarantined by the horizon — while the sweep provably drives
/// each defense layer (challenges failed, false claims rejected,
/// poisoned bytes bounced, equivocators caught, floods suppressed).
#[test]
fn byzantine_sweep_no_false_duplicates_and_no_poisoned_bytes() {
    let family = Family::byzantine();
    let seeds = family.seeds;
    let mut total = ByzantineStats::default();
    for seed in 0..seeds {
        let mut run = sweep::run(seed, &family);
        sweep::check(&family, &mut run);
        let liars: Vec<NodeId> = run
            .scenario
            .events()
            .iter()
            .filter_map(|ev| match *ev {
                ChaosEvent::ByzantineLiar { node, .. } => Some(node),
                _ => None,
            })
            .collect();
        assert_eq!(liars.len(), 2, "seed {seed}: expected the full liar quota");
        let cluster = &mut run.cluster;

        // Zero poisoned bytes: every byte any replica holds for an
        // ingested chunk is exactly what the client wrote, and no
        // flooded junk key was ever acked into storage.
        let members = cluster.network().topology().edge_nodes();
        let want: HashMap<Bytes, Bytes> = (0..family.keys).map(family.chunk).collect();
        for &m in &members {
            let Some(state) = cluster.node_mut(m) else {
                continue;
            };
            for (k, v) in state.storage().iter_live().collect::<Vec<_>>() {
                assert!(
                    !k.starts_with(b"byz-flood-"),
                    "seed {seed}: flooded junk key {k:?} acked into node {m}"
                );
                if let Some(expect) = want.get(&k) {
                    assert_eq!(
                        &v, expect,
                        "seed {seed}: node {m} holds poisoned bytes for {k:?}"
                    );
                }
            }
        }
        for (k, v) in cluster.cloud_catalog() {
            assert!(
                !k.starts_with(b"byz-flood-"),
                "seed {seed}: flooded junk key {k:?} drained to the cloud"
            );
            if let Some(expect) = want.get(k) {
                assert_eq!(
                    v, expect,
                    "seed {seed}: cloud catalog holds poisoned bytes for {k:?}"
                );
            }
        }

        // Quarantine convergence: every liar was struck past the
        // threshold and quarantined by the horizon.
        let quarantined = cluster.quarantined();
        for &liar in &liars {
            assert!(
                cluster.trust_strikes_of(liar) >= 3,
                "seed {seed}: liar {liar} only has {} strikes",
                cluster.trust_strikes_of(liar)
            );
            assert!(
                quarantined.contains(&liar),
                "seed {seed}: liar {liar} escaped quarantine: {quarantined:?}"
            );
        }

        let stats = cluster.byzantine_stats();
        assert_eq!(
            stats.liars_quarantined,
            liars.len() as u64,
            "seed {seed}: {stats:?}"
        );
        total.merge(&stats);
    }
    // Nonvacuity: the sweep must drive every defense layer it claims
    // to test.
    assert!(total.challenges_issued > 0, "no challenge ever issued");
    assert!(
        total.challenges_failed > 0,
        "no fabricated claim was tested"
    );
    assert!(
        total.false_claims_rejected > 0,
        "no false positive sighting was rejected"
    );
    assert!(
        total.poisoned_bytes_rejected > 0,
        "no poisoned byte was ever bounced"
    );
    assert!(
        total.hint_floods_suppressed > 0,
        "no hint flood was suppressed"
    );
    assert!(
        total.equivocations_detected > 0,
        "no equivocator was caught in anti-entropy"
    );
    assert_eq!(
        total.liars_quarantined,
        2 * seeds,
        "both liars quarantined on every seed"
    );
    println!(
        "byzantine sweep: {seeds} seeds, challenges {} issued / {} passed / \
         {} failed / {} cache hits, false claims {}, poisoned bytes {}, \
         floods suppressed {}, equivocations {}, strikes {}, quarantined {}, \
         cache invalidations {}, refetches {}",
        total.challenges_issued,
        total.challenges_passed,
        total.challenges_failed,
        total.pop_cache_hits,
        total.false_claims_rejected,
        total.poisoned_bytes_rejected,
        total.hint_floods_suppressed,
        total.equivocations_detected,
        total.liar_strikes,
        total.liars_quarantined,
        total.cache_invalidations,
        total.refetches,
    );
}

/// Every Byzantine run replays bit-identically: same completions, same
/// trust counters, same cloud catalog bytes, same quarantine set.
#[test]
fn byzantine_sweep_replays_bit_identically() {
    let family = Family::byzantine();
    for seed in (0..family.seeds).step_by(5) {
        sweep::assert_replays(seed, &family);
    }
}

/// One honest ingest pass: the same workload shape as the sweep with no
/// fault plan at all, optionally with proof-of-possession armed.
/// Returns (ingest throughput in ops per simulated second, stats).
fn honest_throughput(pop: bool) -> (f64, ByzantineStats) {
    let family = Family::byzantine();
    let net = family.network();
    let members = net.topology().edge_nodes();
    let cloud = net.topology().cloud_nodes()[0];
    let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
    if pop {
        cluster.enable_pop(sweep::POP_SEED_SALT);
    }
    cluster.enable_heartbeats(SimDuration::from_millis(100), SimDuration::from_millis(350));
    cluster.enable_cloud_uplink(cloud, 64 * 1024, SimDuration::from_millis(50));
    cluster.enable_fingerprint_cache(4, 128);
    cluster.enable_hedged_reads(64);
    // A denser schedule than the sweep so per-op latency actually shows
    // up in the makespan rather than hiding in idle gaps.
    let mut t = SimTime::ZERO;
    for rep in 0..family.repeats {
        for k in 0..family.keys {
            let coordinator = members[(k as usize + rep as usize) % members.len()];
            let (key, payload) = (family.chunk)(k);
            cluster.submit(t, coordinator, ClientOp::CheckAndInsert(key, payload));
            t += SimDuration::from_millis(5);
        }
    }
    let done = cluster.run();
    assert_eq!(done.len(), (family.keys * family.repeats) as usize);
    for l in &done {
        assert!(
            matches!(l.result, OpResult::Dedup { .. }),
            "honest op resolved {:?}",
            l.result
        );
    }
    let start = done.iter().map(|l| l.started).min().expect("nonempty");
    let finish = done.iter().map(|l| l.finished).max().expect("nonempty");
    let secs = (finish - start).as_secs_f64();
    (done.len() as f64 / secs, cluster.byzantine_stats())
}

/// The defense is affordable: arming proof-of-possession on an honest
/// run costs at most a 15% ingest-throughput delta, while the armed run
/// provably challenged peers (and amortized repeats through the
/// proven-possession cache) without a single false strike.
#[test]
fn honest_pop_overhead_is_bounded() {
    let (base, base_stats) = honest_throughput(false);
    let (armed, armed_stats) = honest_throughput(true);
    assert_eq!(base_stats.challenges_issued, 0);
    assert!(armed_stats.challenges_issued > 0, "{armed_stats:?}");
    assert!(armed_stats.challenges_passed > 0, "{armed_stats:?}");
    assert_eq!(armed_stats.challenges_failed, 0, "{armed_stats:?}");
    assert_eq!(armed_stats.liar_strikes, 0, "{armed_stats:?}");
    let delta = (base - armed) / base;
    assert!(
        delta <= 0.15,
        "proof-of-possession cost {:.1}% ingest throughput \
         ({base:.1} → {armed:.1} ops/s)",
        delta * 100.0
    );
    println!(
        "honest PoP overhead: {base:.1} ops/s honest, {armed:.1} ops/s armed \
         ({:+.2}% delta), {} challenges / {} cache hits",
        (armed - base) / base * 100.0,
        armed_stats.challenges_issued,
        armed_stats.pop_cache_hits,
    );
}
