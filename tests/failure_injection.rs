//! Failure injection: deduplication must stay *correct* (never drop a
//! chunk that is actually needed) while nodes fail and recover under it.
//!
//! The invariant direction matters: a failed replica may cause a chunk to
//! be classified unique twice (harmless double upload — the paper accepts
//! this, as does Cassandra at consistency ONE), but a chunk must never be
//! classified duplicate unless its hash really was recorded before.

use bytes::Bytes;
use efdedup_repro::prelude::*;

/// Hints parked for a node that then *permanently departs* must be
/// dropped, never replayed toward the departed slot or its tokens' new
/// owners. The node departs mid-workload on a *fault-free* network, so
/// every parked hint for it comes from the failure machinery itself.
/// After the departure is declared dead, the hints are dropped
/// (`hints_dropped` counts them) and no live node still holds any.
#[test]
fn departure_drops_parked_hints_in_simulated_cluster() {
    use efdedup_repro::kvstore::{ClientOp, ClusterFault, RetryPolicy, SimCluster};

    let topo = TopologyBuilder::new().edge_site(2).edge_site(2).build();
    let net = Network::new(topo, NetworkConfig::paper_testbed());
    let members = net.topology().edge_nodes();
    let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
    cluster.set_retry_policy(RetryPolicy::new(7));
    cluster.enable_heartbeats_with_dead(
        SimDuration::from_millis(50),
        SimDuration::from_millis(200),
        SimDuration::from_millis(600),
    );
    cluster.enable_anti_entropy(SimDuration::from_millis(300), 5);
    let victim = members[3];
    cluster.inject(ClusterFault::Depart {
        at: SimTime::ZERO + SimDuration::from_millis(400),
        node: victim,
    });

    // Writes straddling the departure: some park hints for the victim
    // (it is silent but not yet declared dead).
    let mut t = SimTime::ZERO + SimDuration::from_millis(10);
    for i in 0..48u32 {
        let coordinator = members[(i as usize) % 3]; // never the victim
        let key = Bytes::from(format!("sim-departed-{i}"));
        cluster.submit(t, coordinator, ClientOp::Put(key.clone(), key));
        t += SimDuration::from_millis(25);
    }
    cluster.run();
    // Let the dead declaration and anti-entropy settle.
    let deadline = cluster.now() + SimDuration::from_secs_f64(5.0);
    cluster.run_until(deadline);

    assert!(cluster.is_departed(victim));
    assert!(
        cluster.recovery_stats().hints_dropped > 0,
        "no hint was ever parked for the departing node — the scenario \
         is vacuous; move the departure or widen the write window"
    );
    assert_eq!(
        cluster.total_hints(),
        0,
        "hints for the departed node survived the drop"
    );
}

/// Regression: hints destined for a ring inside a `RingOutage` window
/// are moved into the coordinator's durable upload spool, not parked in
/// volatile memory (where the old behavior lost them to a coordinator
/// crash) and not dropped like hints for a departed node. The
/// coordinator crash-stops *after* the sweep and the hints still reach
/// the wiped replicas once the ring heals.
#[test]
fn hints_for_a_wiped_ring_survive_a_coordinator_crash() {
    use efdedup_repro::kvstore::{ClientOp, ClusterFault, Consistency, SimCluster};
    use efdedup_repro::netsim::SiteId;

    let topo = TopologyBuilder::new()
        .edge_site(2)
        .edge_site(2)
        .edge_site(2)
        .cloud_site(1)
        .build();
    let net = Network::new(topo, NetworkConfig::paper_testbed());
    let members = net.topology().edge_nodes();
    let cloud = net.topology().nodes_in(SiteId(3))[0];
    let mut cluster = SimCluster::new(
        members.clone(),
        net,
        ClusterConfig {
            replication_factor: 3,
            consistency: Consistency::Quorum,
            ..ClusterConfig::default()
        },
    );
    cluster.enable_heartbeats_with_dead(
        SimDuration::from_millis(20),
        SimDuration::from_millis(100),
        SimDuration::from_millis(500),
    );
    cluster.enable_cloud_uplink(cloud, 1 << 16, SimDuration::from_millis(10));
    cluster.inject(ClusterFault::RingOutage {
        from: SimTime::from_secs_f64(0.3),
        until: SimTime::from_secs_f64(1.5),
        site: SiteId(0),
    });
    // Mid-window writes through one surviving coordinator: replicas
    // routed to wiped site-0 nodes park hints there.
    let coordinator = members[2];
    let keys: Vec<Bytes> = (0..30u32)
        .map(|i| Bytes::from(format!("ring-out-{i}").into_bytes()))
        .collect();
    let mut t = SimTime::from_secs_f64(0.6);
    for key in &keys {
        cluster.submit(
            t,
            coordinator,
            ClientOp::CheckAndInsert(key.clone(), key.clone()),
        );
        t += SimDuration::from_millis(2);
    }
    // Let the spool-drain ticks sweep the parked hints to durable
    // storage, then kill the coordinator. Volatile hints die with it;
    // spooled hints must not.
    cluster.run_until(SimTime::from_secs_f64(0.9));
    let mid = cluster.disaster_stats();
    assert!(
        mid.hints_spooled > 0,
        "no hint ever crossed into the durable spool — scenario vacuous: {mid:?}"
    );
    cluster.inject(ClusterFault::CrashStop {
        at: SimTime::from_secs_f64(0.95),
        node: coordinator,
    });
    cluster.inject(ClusterFault::Restart {
        at: SimTime::from_secs_f64(1.1),
        node: coordinator,
    });
    cluster.run_until(SimTime::from_secs_f64(4.0));

    let end = cluster.disaster_stats();
    assert_eq!(end.ring_wipes, 1, "{end:?}");
    assert_eq!(
        end.spool_depth, 0,
        "spooled hints never replayed after the heal: {end:?}"
    );
    // End to end: every key the ring routes to a wiped node is back on
    // that node, byte-identical, after heal + replay + mesh repair.
    let wiped: Vec<_> = cluster.network().topology().nodes_in(SiteId(0)).to_vec();
    let mut delivered = 0u32;
    for key in &keys {
        for replica in cluster.ring().replicas(key, 3) {
            if !wiped.contains(&replica) {
                continue;
            }
            let got = cluster
                .node_mut(replica)
                .expect("healed node rejoined")
                .storage_mut()
                .get(key);
            assert_eq!(
                got.as_ref(),
                Some(key),
                "key {key:?} missing on healed replica {replica}"
            );
            delivered += 1;
        }
    }
    assert!(
        delivered > 0,
        "no key routed to the wiped site — widen the key set"
    );
}

/// Regression: a replica suspected *mid-operation* flips a
/// check-and-insert that lost its read quorum (consistency ALL) into its
/// write phase, and the `ReplicaWrite` that phase owes the replica still
/// alive has to reach the wire. It used to be discarded at the suspect
/// edge, so with heartbeats on and no retry policy the op stayed in
/// flight forever.
#[test]
fn replica_suspected_mid_check_and_insert_still_resolves() {
    use efdedup_repro::kvstore::{ClientOp, ClusterFault, HashRing, OpResult, SimCluster};

    let topo = TopologyBuilder::new().edge_site(3).build();
    let net = Network::new(topo, NetworkConfig::paper_testbed());
    let members = net.topology().edge_nodes();
    let config = ClusterConfig {
        consistency: Consistency::All,
        ..ClusterConfig::default()
    };
    // Both replicas remote, so the write phase has a live peer to reach.
    let coordinator = members[0];
    let ring = HashRing::with_nodes(members.iter().copied(), ef_kvstore::VNODES);
    let mut keys = (0..).map(|i| Bytes::from(format!("chunk-{i}")));
    let key = keys
        .find(|k| !ring.replicas(k, 2).contains(&coordinator))
        .expect("some key avoids the coordinator");
    let victim = ring.replicas(&key, 2)[1];

    let mut cluster = SimCluster::new(members, net, config);
    cluster.enable_heartbeats(SimDuration::from_millis(100), SimDuration::from_millis(350));
    cluster.inject(ClusterFault::Crash {
        at: SimTime::ZERO + SimDuration::from_millis(900),
        node: victim,
    });
    let op = ClientOp::CheckAndInsert(key.clone(), key);
    cluster.submit(SimTime::ZERO + SimDuration::from_secs(1), coordinator, op);
    let done = cluster.run_until(SimTime::ZERO + SimDuration::from_secs(10));

    assert_eq!(cluster.inflight(), 0, "the op is still in flight");
    let (unique, degraded) = (true, true);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].result, OpResult::Dedup { unique, degraded });
}
