//! Failure injection: deduplication must stay *correct* (never drop a
//! chunk that is actually needed) while nodes fail and recover under it.
//!
//! The invariant direction matters: a failed replica may cause a chunk to
//! be classified unique twice (harmless double upload — the paper accepts
//! this, as does Cassandra at consistency ONE), but a chunk must never be
//! classified duplicate unless its hash really was recorded before.

use bytes::Bytes;
use efdedup_repro::prelude::*;
use std::collections::HashSet;

/// Streams chunks through a ring while killing/reviving nodes, tracking
/// the ground-truth seen-set alongside.
#[test]
fn dedup_stays_sound_across_failures() {
    let dataset = datasets::accelerometer(4, 17);
    let chunker = FixedChunker::new(dataset.model().chunk_size()).unwrap();
    let members: Vec<NodeId> = (0..4).map(NodeId).collect();
    let mut ring = LocalCluster::new(
        members.clone(),
        ClusterConfig {
            replication_factor: 2,
            ..ClusterConfig::default()
        },
    );

    let mut truly_seen: HashSet<ChunkHash> = HashSet::new();
    let mut false_duplicates = 0usize;
    let mut false_uniques = 0usize;
    let mut processed = 0usize;

    let mut current_victim = None;
    for round in 0..6u32 {
        // Fail a different node each even round; recover it the round
        // after (at most one node is ever down, matching rf = 2).
        if round % 2 == 0 {
            let victim = NodeId((round / 2) % 4);
            ring.set_down(victim);
            current_victim = Some(victim);
        } else if let Some(victim) = current_victim.take() {
            ring.set_up(victim);
        }

        for (node, &member) in members.iter().enumerate().take(4) {
            if ring.is_down(member) {
                continue; // this agent's coordinator is offline
            }
            let stream = dataset.file(node, round, 0, 60);
            for chunk in chunker.chunk(&stream) {
                processed += 1;
                let claimed_unique = ring
                    .check_and_insert(member, chunk.hash.as_bytes(), Bytes::from_static(&[1]))
                    .expect("coordinator is up");
                let actually_new = truly_seen.insert(chunk.hash);
                if claimed_unique && !actually_new {
                    false_uniques += 1; // tolerable: double upload
                }
                if !claimed_unique && actually_new {
                    false_duplicates += 1; // data loss: must never happen
                }
            }
        }
    }

    assert!(processed > 1000, "exercised {processed} chunks");
    assert_eq!(
        false_duplicates, 0,
        "chunks were wrongly declared duplicates (would be dropped!)"
    );
    // With rf=2 and single-failure rounds, false uniques stay rare.
    let rate = false_uniques as f64 / processed as f64;
    assert!(rate < 0.25, "false-unique rate {rate} too high");
}

#[test]
fn recovery_restores_full_replication() {
    let members: Vec<NodeId> = (0..5).map(NodeId).collect();
    let mut cluster = LocalCluster::new(members, ClusterConfig::default());
    cluster.set_down(NodeId(4));
    for i in 0..300u32 {
        cluster
            .put(NodeId(i % 4), &i.to_be_bytes(), Bytes::from_static(b"v"))
            .unwrap();
    }
    cluster.set_up(NodeId(4));
    // After hint replay every key should be on exactly rf replicas.
    assert_eq!(
        cluster.total_replica_entries(),
        2 * cluster.distinct_keys(),
        "replication not restored after recovery"
    );
}

#[test]
fn membership_change_under_load_preserves_index() {
    let members: Vec<NodeId> = (0..4).map(NodeId).collect();
    let mut cluster = LocalCluster::new(members, ClusterConfig::default());
    let mut keys = Vec::new();
    for i in 0..200u32 {
        let key = i.to_be_bytes();
        cluster
            .put(NodeId(i % 4), &key, Bytes::from_static(b"v"))
            .unwrap();
        keys.push(key);
    }
    // Scale out, then decommission a different node.
    cluster.add_node(NodeId(9));
    cluster.remove_node(NodeId(1));
    for key in &keys {
        assert_eq!(
            cluster.get(NodeId(9), key).unwrap(),
            Some(Bytes::from_static(b"v")),
            "key lost across membership changes"
        );
    }
    assert_eq!(cluster.total_replica_entries(), 2 * keys.len());
}

#[test]
fn ring_survives_failure_of_every_single_node_in_turn() {
    let dataset = datasets::traffic_video(5, 23);
    let chunker = FixedChunker::new(dataset.model().chunk_size()).unwrap();
    let members: Vec<NodeId> = (0..5).map(NodeId).collect();
    let mut ring = LocalCluster::new(members.clone(), ClusterConfig::default());

    // Seed the index.
    let stream = dataset.file(0, 0, 0, 200);
    let hashes: Vec<ChunkHash> = chunker.chunk(&stream).into_iter().map(|c| c.hash).collect();
    for h in &hashes {
        ring.put(NodeId(0), h.as_bytes(), Bytes::from_static(&[1]))
            .unwrap();
    }

    // Whichever single node fails, every recorded hash stays findable.
    for victim in 0..5u32 {
        ring.set_down(NodeId(victim));
        let coordinator = members
            .iter()
            .copied()
            .find(|&m| !ring.is_down(m))
            .expect("some node is up");
        for h in &hashes {
            assert!(
                ring.get(coordinator, h.as_bytes()).unwrap().is_some(),
                "hash lost when {victim} failed"
            );
        }
        ring.set_up(NodeId(victim));
    }
}

/// Hints parked for a node that then *permanently departs* must be
/// dropped, never replayed toward the departed slot or its tokens' new
/// owners — the rebalance pass re-establishes replication from live
/// replicas instead (hinted-handoff edge case, instant-delivery cluster).
#[test]
fn hints_for_departed_node_are_dropped_not_replayed() {
    let members: Vec<NodeId> = (0..4).map(NodeId).collect();
    let mut ring = LocalCluster::new(
        members.clone(),
        ClusterConfig {
            replication_factor: 2,
            ..ClusterConfig::default()
        },
    );
    let victim = NodeId(1);
    ring.set_down(victim);

    // Writes while the victim is down: coordinators park hints for it.
    let keys: Vec<Bytes> = (0..64u32)
        .map(|i| Bytes::from(format!("departed-hint-{i}")))
        .collect();
    for (i, key) in keys.iter().enumerate() {
        let coordinator = members[i % members.len()];
        if coordinator == victim {
            continue;
        }
        ring.put(coordinator, key, Bytes::from_static(b"v"))
            .unwrap();
    }
    let parked: usize = members
        .iter()
        .filter_map(|&m| ring.node(m))
        .map(|s| s.hint_count())
        .sum();
    assert!(parked > 0, "workload never parked a hint for the victim");

    // Permanent departure: hints must evaporate, not migrate.
    ring.remove_node(victim);
    for &m in &members {
        let Some(state) = ring.node(m) else { continue };
        assert_eq!(
            state.hint_count(),
            0,
            "node {m:?} still holds hints after the departure"
        );
        assert!(
            !state.hinted_peers().contains(&victim),
            "node {m:?} still targets the departed node"
        );
    }
    // Replication is re-established from live replicas, not from hints.
    assert_eq!(ring.total_replica_entries(), 2 * ring.distinct_keys());
}

/// The same edge case through the event-driven cluster: a node departs
/// mid-workload on a *fault-free* network, so every parked hint for it
/// comes from the failure machinery itself. After the departure is
/// declared dead, the hints are dropped (`hints_dropped` counts them)
/// and no live node still holds any.
#[test]
fn departure_drops_parked_hints_in_simulated_cluster() {
    use efdedup_repro::kvstore::{ClientOp, RetryPolicy, SimCluster};

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
    cluster.depart_at(SimTime::ZERO + SimDuration::from_millis(400), victim);

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
    use efdedup_repro::kvstore::{ClientOp, Consistency, SimCluster};
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
    cluster.ring_outage_at(
        SimTime::from_secs_f64(0.3),
        SimTime::from_secs_f64(1.5),
        SiteId(0),
    );
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
    cluster.crash_stop_at(SimTime::from_secs_f64(0.95), coordinator);
    cluster.restart_at(SimTime::from_secs_f64(1.1), coordinator);
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
    use efdedup_repro::kvstore::{ClientOp, HashRing, OpResult, SimCluster};

    let topo = TopologyBuilder::new().edge_site(3).build();
    let net = Network::new(topo, NetworkConfig::paper_testbed());
    let members = net.topology().edge_nodes();
    let config = ClusterConfig {
        consistency: Consistency::All,
        ..ClusterConfig::default()
    };
    // Both replicas remote, so the write phase has a live peer to reach.
    let coordinator = members[0];
    let ring = HashRing::with_nodes(members.iter().copied(), config.vnodes);
    let mut keys = (0..).map(|i| Bytes::from(format!("chunk-{i}")));
    let key = keys
        .find(|k| !ring.replicas(k, 2).contains(&coordinator))
        .expect("some key avoids the coordinator");
    let victim = ring.replicas(&key, 2)[1];

    let mut cluster = SimCluster::new(members, net, config);
    cluster.enable_heartbeats(SimDuration::from_millis(100), SimDuration::from_millis(350));
    cluster.crash_at(SimTime::ZERO + SimDuration::from_millis(900), victim);
    let op = ClientOp::CheckAndInsert(key.clone(), key);
    cluster.submit(SimTime::ZERO + SimDuration::from_secs(1), coordinator, op);
    let done = cluster.run_until(SimTime::ZERO + SimDuration::from_secs(10));

    assert_eq!(cluster.inflight(), 0, "the op is still in flight");
    let (unique, degraded) = (true, true);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].result, OpResult::Dedup { unique, degraded });
}
