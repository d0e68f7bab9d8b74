//! The cloud-outage & ring-disaster sweep: seeded `CloudOutage`,
//! `RingOutage` and `UplinkDegraded` windows composed with the ordinary
//! crash/partition/loss chaos mix, with the durable upload spool, the
//! cloud uplink and inter-ring mesh repair armed. Four promises are
//! swept over 20 seeds:
//!
//! * **soundness** — disasters never manufacture a *false duplicate* (a
//!   chunk wrongly judged already-stored would be dropped: data loss),
//! * **zero lost chunks** — every chunk acked unique is durable
//!   somewhere at the horizon: the cloud catalog, a live ring replica,
//!   or a log-backed spool entry still awaiting drain,
//! * **bounded spool memory** — the spool log drops a segment once
//!   nothing in it is pending (and copies a straggler at its head
//!   forward), which keeps each spool's durable footprint proportional
//!   to its *pending* entries, not the full enqueue/retire history of
//!   the run,
//! * **determinism** — every disaster run replays bit-identically from
//!   its seed, cloud catalog included.
//!
//! A deterministic companion test forces the cloud-fallback path (a
//! wiped ring that held *every* replica of some keys) and checks the
//! SNOD2-style cost split: a neighbor-ring repair is priced below a
//! cloud round-trip. A second companion mirrors the drained catalog
//! into the erasure-coded cloud store and restores it through a node
//! failure, byte-exact.

use bytes::Bytes;
use efdedup_repro::chunking::ChunkHash;
use efdedup_repro::kvstore::sweep::{self, Family};
use efdedup_repro::kvstore::{ClientOp, ClusterConfig, DisasterStats, SimCluster};
use efdedup_repro::prelude::*;

/// 20 seeds of composed disasters under the shared oracle (zero false
/// duplicates, every unique-acked chunk still durable at the horizon),
/// plus the family's own: spool logs bounded by segment drop, backlog
/// fully drained, and the sweep actually drives the disaster machinery
/// (outage windows suspended drains, rings were wiped and mesh-repaired,
/// hints crossed into the durable spool).
#[test]
fn disaster_sweep_no_false_duplicates_and_no_lost_chunks() {
    let family = Family::disaster();
    let seeds = family.seeds;
    let mut total = DisasterStats::default();
    for seed in 0..seeds {
        let mut run = sweep::run(seed, &family);
        sweep::check(&family, &mut run);
        let cluster = &run.cluster;

        // Bounded spool memory: dropping drained segments (and copying
        // a pinned head forward) keeps each durable spool log small
        // even after a whole run of enqueue/retire churn (a log that
        // only grew would grow with history).
        for m in cluster.network().topology().edge_nodes() {
            if let Some(spool) = cluster.spool(m) {
                assert!(
                    spool.wal_bytes() < 64 * 1024,
                    "seed {seed}: node {m} spool log grew to {} bytes",
                    spool.wal_bytes()
                );
            }
        }

        let stats = cluster.disaster_stats();
        // The cloud outage always ends by mid-window and the horizon is
        // 3x the window: the cloud backlog must be fully drained.
        assert_eq!(
            stats.spool_depth, 0,
            "seed {seed}: spool never fully drained: {stats:?}"
        );
        total.merge(&stats);
    }
    // Nonvacuity: the sweep must drive the machinery it claims to test.
    assert_eq!(total.outage_windows, seeds, "one cloud outage per seed");
    assert_eq!(total.ring_wipes, seeds, "one ring wipe per seed");
    assert!(total.spool_enqueued > 0, "no unique was ever spooled");
    assert!(total.spool_drained > 0, "no spool entry ever drained");
    assert!(total.mesh_repairs > 0, "no mesh repair across the sweep");
    assert!(
        total.hints_spooled > 0,
        "no hint ever crossed into the durable spool: {total:?}"
    );
    if total.cloud_repairs > 0 {
        let mesh_avg = total.repair_cost_mesh_ms as f64 / total.mesh_repairs as f64;
        let cloud_avg = total.repair_cost_cloud_ms as f64 / total.cloud_repairs as f64;
        assert!(
            mesh_avg < cloud_avg,
            "a neighbor-ring repair ({mesh_avg:.2} ms) must be priced below \
             a cloud round-trip ({cloud_avg:.2} ms)"
        );
    }
    println!(
        "disaster sweep: {seeds} seeds, spool {} enq / {} drained / {} retx, \
         hints spooled {}, repairs {} mesh / {} cloud, \
         repair bytes {} mesh / {} cloud, repair cost {} ms mesh / {} ms cloud, \
         worst recovery {} ns",
        total.spool_enqueued,
        total.spool_drained,
        total.spool_retransmits,
        total.hints_spooled,
        total.mesh_repairs,
        total.cloud_repairs,
        total.repair_bytes_mesh,
        total.repair_bytes_cloud,
        total.repair_cost_mesh_ms,
        total.repair_cost_cloud_ms,
        total.recovery_ns_max,
    );
}

/// Every disaster run replays bit-identically: same completions, same
/// counters, same cloud catalog bytes.
#[test]
fn disaster_sweep_replays_bit_identically() {
    let family = Family::disaster();
    for seed in (0..family.seeds).step_by(5) {
        sweep::assert_replays(seed, &family);
    }
}

/// Forced cloud fallback: with RF=2 over two 2-node edge sites, some
/// keys place both replicas inside site 0. Wiping that site after the
/// spool drained leaves those keys with *no* surviving neighbor copy —
/// mesh repair must fall back to the erasure-coded cloud catalog, pay
/// the (dearer) WAN price, and still restore every byte.
#[test]
fn wiped_ring_with_no_neighbor_copy_restores_from_the_cloud() {
    let topo = TopologyBuilder::new()
        .edge_site(2)
        .edge_site(2)
        .cloud_site(1)
        .build();
    let net = Network::new(topo, NetworkConfig::paper_testbed());
    let members = net.topology().edge_nodes();
    let site0: Vec<NodeId> = net
        .topology()
        .nodes_in(efdedup_repro::netsim::SiteId(0))
        .to_vec();
    let cloud = net.topology().nodes_in(net.topology().cloud_sites()[0])[0];
    let config = ClusterConfig {
        replication_factor: 2,
        consistency: Consistency::Quorum,
        ..ClusterConfig::default()
    };
    let mut cluster = SimCluster::new(members.clone(), net, config);
    cluster.enable_heartbeats(SimDuration::from_millis(100), SimDuration::from_millis(350));
    cluster.enable_cloud_uplink(cloud, 64 * 1024, SimDuration::from_millis(20));
    // Find keys whose whole replica set lives in site 0, plus some that
    // straddle sites (mesh-repairable), and write them all.
    let mut site0_only: Vec<Bytes> = Vec::new();
    let mut t = SimTime::ZERO;
    for i in 0..200u32 {
        let key = Bytes::from(format!("disaster-chunk-{i}").into_bytes());
        let replicas = cluster.ring().replicas(&key, 2);
        if replicas.iter().all(|r| site0.contains(r)) {
            site0_only.push(key.clone());
        }
        cluster.submit(
            t,
            members[(i % 4) as usize],
            ClientOp::CheckAndInsert(
                key.clone(),
                Bytes::from(format!("payload-{i}").into_bytes()),
            ),
        );
        t += SimDuration::from_millis(2);
    }
    assert!(
        !site0_only.is_empty(),
        "hash placement never put both replicas in site 0 — pick more keys"
    );
    // Let the spool drain fully, then wipe site 0 and heal it.
    cluster.ring_outage_at(
        SimTime::from_secs_f64(2.0),
        SimTime::from_secs_f64(2.5),
        efdedup_repro::netsim::SiteId(0),
    );
    cluster.run_until(SimTime::from_secs_f64(5.0));
    let stats = cluster.disaster_stats();
    assert!(
        stats.cloud_repairs > 0,
        "no cloud-fallback repair despite site-0-only keys: {stats:?}"
    );
    assert!(stats.mesh_repairs > 0, "no mesh repair at all: {stats:?}");
    // SNOD2 cost split: the average neighbor-ring fetch is cheaper than
    // the average cloud round-trip.
    let mesh_avg = stats.repair_cost_mesh_ms as f64 / stats.mesh_repairs as f64;
    let cloud_avg = stats.repair_cost_cloud_ms as f64 / stats.cloud_repairs as f64;
    assert!(
        mesh_avg < cloud_avg,
        "neighbor-ring repair ({mesh_avg:.2} ms avg) not priced below the \
         cloud round-trip ({cloud_avg:.2} ms avg)"
    );
    // And the bytes are back: every site-0-only key is readable on its
    // healed replicas, byte for byte.
    for key in &site0_only {
        for target in cluster.ring().replicas(key, 2) {
            let got = cluster
                .node_mut(target)
                .expect("healed node rejoined")
                .storage_mut()
                .get(key);
            assert!(
                got.is_some(),
                "site-0-only key {key:?} missing on healed node {target}"
            );
        }
    }
}

/// The drained catalog is the erasure-coded cloud tier's ground truth:
/// mirror it into a Reed–Solomon `DurableStore`, fail a storage node,
/// and every chunk decodes back byte-identical.
#[test]
fn drained_catalog_survives_erasure_coded_cloud_storage() {
    let run = sweep::run(0, &Family::disaster());
    let catalog = run.cluster.cloud_catalog();
    assert!(!catalog.is_empty(), "seed 0 drained nothing to the cloud");
    let mut store =
        DurableStore::new(6, Durability::ErasureCoded { k: 4, m: 2 }).expect("valid RS layout");
    let mut hashes: Vec<(ChunkHash, Bytes)> = Vec::new();
    for value in catalog.values() {
        let hash = ChunkHash::of(value);
        store.put(hash, value.clone()).expect("upload accepted");
        hashes.push((hash, value.clone()));
    }
    // One storage node burns down — within the m=2 tolerance.
    store.fail_node(0);
    for (hash, want) in &hashes {
        let got = store.get(hash).expect("decode within tolerance");
        assert_eq!(&got, want, "erasure decode returned different bytes");
    }
}
