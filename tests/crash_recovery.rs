//! Crash-stop recovery: the full node-death lifecycle under load.
//!
//! Each seeded scenario runs a check-and-insert workload over a 6-node
//! edge ring while the chaos schedule transiently crashes two nodes,
//! partitions sites, drops messages, **crash-stops** one node (volatile
//! state lost, WAL kept) and **permanently departs** another (disk
//! destroyed). The run must end with
//!
//! * zero false duplicates — every chunk the index ever judged a
//!   duplicate is durably stored in the erasure-coded cloud tier,
//! * zero lost unique chunks — every distinct chunk submitted ends up in
//!   the cloud catalog (clients upload on `unique`, timeout, and
//!   unavailability; only a `duplicate` verdict skips the upload),
//! * a converged ring — the departed node evicted, every replica pair's
//!   Merkle trees equal, the restarted node recovered from its WAL and
//!   caught up via hint replay plus scheduled anti-entropy,
//! * byte-identical replay — the same seed reproduces the same
//!   completions and the same recovery counters, bit for bit.

use bytes::Bytes;
use efdedup_repro::kvstore::sweep::{self, recovery_payload, Family, RECOVERY_MERKLE_DEPTH};
use efdedup_repro::kvstore::{ClientOp, ClusterFault, OpResult, RecoveryStats, SimCluster};
use efdedup_repro::prelude::*;

#[test]
fn crash_recovery_sweep_soundness_and_convergence() {
    let family = Family::recovery();
    let seeds = family.seeds;
    let mut totals = RecoveryStats::default();
    let mut latencies = 0usize;
    for seed in 0..seeds {
        // The harness never routes through a crash-stopped or departed
        // coordinator (a separate test covers that) and runs on until the
        // recovery pipeline has fully played out.
        let mut run = sweep::run(seed, &family);
        sweep::check(&family, &mut run);

        // The clients' upload discipline: a chunk goes to the
        // erasure-coded cloud tier unless the index affirmatively judged
        // it a duplicate.
        let mut cloud = DurableStore::new(6, Durability::ErasureCoded { k: 4, m: 2 })
            .expect("valid cloud config");
        for c in &run.done {
            if !matches!(c.op.result, OpResult::Dedup { unique: false, .. }) {
                let payload = recovery_payload(c.key.expect("no op id goes unpredicted"));
                cloud
                    .put(ChunkHash::of(&payload), payload)
                    .expect("cloud accepts chunk");
            }
        }
        // Zero lost unique chunks: every distinct chunk the workload
        // produced is durably in the cloud catalog. A chunk could only
        // be missing if *every* op on it was judged duplicate — i.e. a
        // false duplicate, the one verdict that loses data.
        for k in 0..family.keys {
            assert!(
                cloud.contains(&ChunkHash::of(&recovery_payload(k))),
                "seed {seed}: chunk {k} missing from the cloud catalog \
                 (falsely judged duplicate — data loss)"
            );
        }

        let cluster = &mut run.cluster;
        let recovery = cluster.recovery_stats();
        // Converged ring: the departed node is evicted, the five
        // survivors agree bucket-for-bucket, the restarted node's
        // recovery latency was measured, and no hint is still parked for
        // anyone (the departed node's hints were dropped, everyone
        // else's replayed).
        assert_eq!(cluster.ring().len(), 5, "seed {seed}: ring not rebuilt");
        let divergence = cluster.replica_divergence(RECOVERY_MERKLE_DEPTH);
        assert_eq!(divergence, 0, "seed {seed}: replicas diverge");
        assert_eq!(recovery.restarts, 1, "seed {seed}");
        assert_eq!(cluster.recovery_latencies().len(), 1, "seed {seed}");
        assert_eq!(cluster.total_hints(), 0, "seed {seed}: hints still parked");
        assert!(
            recovery.dead_declared > 0,
            "seed {seed}: no dead declaration"
        );

        totals.merge(&recovery);
        latencies += cluster.recovery_latencies().len();
    }

    // The sweep must actually exercise every stage of the pipeline, or
    // the invariants above are vacuous.
    assert_eq!(totals.restarts, seeds, "every seed restarts its victim");
    assert_eq!(latencies as u64, seeds);
    assert!(totals.wal_records_replayed > 0, "no WAL was ever replayed");
    assert!(totals.antientropy_rounds > 0, "anti-entropy never ran");
    assert!(
        totals.buckets_repaired > 0 && totals.entries_repaired > 0,
        "anti-entropy never repaired anything"
    );
    assert!(
        totals.rereplicated_entries > 0,
        "departure never re-replicated anything"
    );
    assert!(totals.hints_dropped > 0, "no hint was ever dropped");
}

#[test]
fn same_seed_replays_recovery_bit_identically() {
    for seed in [0u64, 11, 23] {
        sweep::assert_replays(seed, &Family::recovery());
    }
}

#[test]
fn submission_to_departed_coordinator_resolves_unavailable() {
    let net = Family::recovery().network();
    // A fault-free network arms no retry policy; departures do not need
    // one — the dead-coordinator path resolves the op synchronously.
    let members = net.topology().edge_nodes();
    let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
    cluster.enable_heartbeats_with_dead(
        SimDuration::from_millis(50),
        SimDuration::from_millis(200),
        SimDuration::from_millis(600),
    );
    let victim = members[0];
    cluster.inject(ClusterFault::Depart {
        at: SimTime::ZERO + SimDuration::from_millis(100),
        node: victim,
    });
    cluster.submit(
        SimTime::ZERO + SimDuration::from_millis(500),
        victim,
        ClientOp::Get(Bytes::from_static(b"k")),
    );
    let done = cluster.run();
    assert_eq!(done.len(), 1);
    assert!(
        matches!(done[0].result, OpResult::Unavailable { .. }),
        "got {:?}",
        done[0].result
    );
    assert!(cluster.is_departed(victim));
}
