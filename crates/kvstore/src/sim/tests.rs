//! Unit tests of the simulated driver. Moved here from the old `sim.rs`
//! as one block; bodies are unchanged apart from the spots that reached
//! into driver fields which now live in a machine (`membership.disks`,
//! `background.note_verify_failure`).

// `mod.rs` already gates this whole file on `cfg(test)`; the attribute is
// repeated on the first item so per-file tooling that looks for it (the
// code-line count in ISSUE 12) sees the file as test code.
#[cfg(test)]
use super::*;
use crate::chaos::ClusterFault;
use crate::engine::StorageEngine;
use crate::node::Consistency;
use crate::storage::WriteAheadLog;
use bytes::Bytes;
use ef_netsim::{NetworkConfig, TopologyBuilder};

fn edge_network(sites: usize, per_site: usize) -> Network {
    let mut b = TopologyBuilder::new();
    for _ in 0..sites {
        b = b.edge_site(per_site);
    }
    Network::new(b.build(), NetworkConfig::paper_testbed())
}

#[test]
fn remote_write_pays_network_latency() {
    let net = edge_network(1, 3);
    let members = net.topology().edge_nodes();
    let mut cluster = SimCluster::new(
        members.clone(),
        net,
        ClusterConfig {
            replication_factor: 2,
            consistency: Consistency::All,
            ..ClusterConfig::default()
        },
    );
    cluster.submit(
        SimTime::ZERO,
        members[0],
        ClientOp::Put(Bytes::from_static(b"key"), Bytes::from_static(b"v")),
    );
    let done = cluster.run();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].result, OpResult::Written);
    // ALL with at least one remote replica costs >= one intra-site RTT
    // (0.85ms each way).
    let lat = done[0].latency().as_millis_f64();
    assert!(lat >= 1.7, "latency {lat}ms too small for a remote ack");
}

#[test]
fn local_read_fast_remote_read_slow() {
    let net = edge_network(2, 2); // two edge clouds, inter-edge 5ms
    let members = net.topology().edge_nodes();
    let mut cluster = SimCluster::new(
        members.clone(),
        net,
        ClusterConfig {
            replication_factor: 1,
            consistency: Consistency::One,
            ..ClusterConfig::default()
        },
    );
    // Write 100 keys from node 0, then read them all from node 0:
    // keys whose single replica is node 0 answer locally (fast), keys
    // on other nodes need a network round trip.
    let mut t = SimTime::ZERO;
    for i in 0..100u32 {
        cluster.submit(
            t,
            members[0],
            ClientOp::Put(
                Bytes::from(i.to_be_bytes().to_vec()),
                Bytes::from_static(b"v"),
            ),
        );
        t += ef_simcore::SimDuration::from_millis(100);
    }
    cluster.run();
    let mut read_start = t;
    for i in 0..100u32 {
        cluster.submit(
            read_start,
            members[0],
            ClientOp::Get(Bytes::from(i.to_be_bytes().to_vec())),
        );
        read_start += ef_simcore::SimDuration::from_millis(100);
    }
    let reads = cluster.run();
    assert_eq!(reads.len(), 100);
    let mut fast = 0;
    let mut slow = 0;
    for r in &reads {
        assert!(
            matches!(r.result, OpResult::Value(Some(_))),
            "read lost a key"
        );
        let ms = r.latency().as_millis_f64();
        if ms < 0.5 {
            fast += 1;
        } else {
            slow += 1;
        }
    }
    assert!(fast > 0, "no local reads at all");
    assert!(slow > 0, "no remote reads at all");
}

#[test]
fn cross_site_lookup_slower_than_intra_site() {
    // Mirrors the paper's core trade-off: a ring spanning edge clouds
    // pays inter-cloud latency for its hash lookups.
    let run = |sites: usize, per_site: usize| {
        let net = edge_network(sites, per_site);
        let members = net.topology().edge_nodes();
        let mut cluster = SimCluster::new(
            members.clone(),
            net,
            ClusterConfig {
                replication_factor: 2,
                consistency: Consistency::All,
                ..ClusterConfig::default()
            },
        );
        let mut t = SimTime::ZERO;
        for i in 0..200u32 {
            cluster.submit(
                t,
                members[(i % members.len() as u32) as usize],
                ClientOp::Put(
                    Bytes::from(i.to_be_bytes().to_vec()),
                    Bytes::from_static(b"v"),
                ),
            );
            t += ef_simcore::SimDuration::from_millis(50);
        }
        let done = cluster.run();
        let total: f64 = done.iter().map(|l| l.latency().as_millis_f64()).sum();
        total / done.len() as f64
    };
    let single_site = run(1, 4);
    let cross_site = run(4, 1);
    assert!(
        cross_site > single_site * 2.0,
        "cross-site {cross_site}ms vs intra-site {single_site}ms"
    );
}

#[test]
fn gossip_detects_crash_and_revival() {
    use ef_simcore::SimDuration;
    let net = edge_network(1, 4);
    let members = net.topology().edge_nodes();
    let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
    cluster.enable_heartbeats(SimDuration::from_millis(100), SimDuration::from_millis(350));
    // Crash node 3 at t=1s, revive at t=3s.
    cluster.inject(ClusterFault::Crash {
        at: SimTime::from_secs_f64(1.0),
        node: members[3],
    });
    cluster.inject(ClusterFault::Revive {
        at: SimTime::from_secs_f64(3.0),
        node: members[3],
    });

    // Shortly after the crash + timeout, peers suspect node 3.
    cluster.run_until(SimTime::from_secs_f64(2.0));
    for &peer in &members[..3] {
        assert_eq!(
            cluster.suspects_of(peer),
            vec![members[3]],
            "peer {peer} did not suspect the crashed node"
        );
    }
    // After revival + a few ticks, everyone trusts node 3 again.
    cluster.run_until(SimTime::from_secs_f64(4.0));
    for &peer in &members[..3] {
        assert!(
            cluster.suspects_of(peer).is_empty(),
            "peer {peer} still suspects a revived node"
        );
    }
}

#[test]
fn writes_during_gossip_detected_outage_hint_and_replay() {
    use ef_simcore::SimDuration;
    let net = edge_network(1, 3);
    let members = net.topology().edge_nodes();
    let mut cluster = SimCluster::new(
        members.clone(),
        net,
        ClusterConfig {
            replication_factor: 2,
            consistency: Consistency::One,
            ..ClusterConfig::default()
        },
    );
    cluster.enable_heartbeats(SimDuration::from_millis(50), SimDuration::from_millis(200));
    cluster.inject(ClusterFault::Crash {
        at: SimTime::from_secs_f64(0.5),
        node: members[2],
    });
    cluster.inject(ClusterFault::Revive {
        at: SimTime::from_secs_f64(2.0),
        node: members[2],
    });
    // Writes land while node 2 is down-and-detected (t in [1.0, 1.5]).
    let mut t = SimTime::from_secs_f64(1.0);
    for i in 0..50u32 {
        cluster.submit(
            t,
            members[0],
            ClientOp::Put(
                Bytes::from(i.to_be_bytes().to_vec()),
                Bytes::from_static(b"v"),
            ),
        );
        t += SimDuration::from_millis(10);
    }
    let done = cluster.run_until(SimTime::from_secs_f64(4.0));
    // All writes completed despite the outage (ONE + hinting).
    let written = done
        .iter()
        .filter(|l| l.result == OpResult::Written)
        .count();
    assert_eq!(written, 50, "writes failed during detected outage");
    // After revival and hint replay, node 2 holds exactly the keys it
    // replicates.
    let keys_on_2 = cluster
        .nodes
        .get(&members[2])
        .unwrap()
        .storage()
        .stats()
        .live_keys;
    let expected = (0..50u32)
        .filter(|i| {
            cluster
                .ring
                .replicas(&i.to_be_bytes(), 2)
                .contains(&members[2])
        })
        .count();
    assert!(expected > 0, "node 2 replicates none of the keys");
    assert_eq!(keys_on_2, expected, "hint replay incomplete");
}

#[test]
fn wire_rot_rejects_frames_and_ops_resolve() {
    use ef_netsim::{FaultPlan, FaultScope};
    let mut net = edge_network(1, 3);
    net.set_fault_plan(FaultPlan::new(7).bitrot(FaultScope::All, 1.0));
    let members = net.topology().edge_nodes();
    let mut cluster = SimCluster::new(
        members.clone(),
        net,
        ClusterConfig {
            replication_factor: 2,
            consistency: Consistency::One,
            ..ClusterConfig::default()
        },
    );
    let mut t = SimTime::ZERO;
    for i in 0..10u32 {
        cluster.submit(
            t,
            members[0],
            ClientOp::Put(
                Bytes::from(i.to_be_bytes().to_vec()),
                Bytes::from_static(b"v"),
            ),
        );
        t += ef_simcore::SimDuration::from_millis(50);
    }
    let done = cluster.run();
    // Every op resolves (locally satisfied or timed out by the
    // auto-armed retry policy) and every rotted frame was rejected at
    // the receiver rather than silently accepted.
    assert_eq!(done.len(), 10);
    let integrity = cluster.integrity();
    assert!(
        integrity.frames_rejected > 0,
        "no frames rejected under total wire rot"
    );
    assert_eq!(
        cluster.network().messages_corrupted(),
        integrity.frames_rejected,
        "every corrupted frame must be rejected on delivery"
    );
}

#[test]
fn scrub_detects_and_read_repairs_planted_rot() {
    let net = edge_network(1, 3);
    let members = net.topology().edge_nodes();
    let mut cluster = SimCluster::new(
        members.clone(),
        net,
        ClusterConfig {
            replication_factor: 2,
            consistency: Consistency::All,
            ..ClusterConfig::default()
        },
    );
    let mut t = SimTime::ZERO;
    for i in 0..20u32 {
        cluster.submit(
            t,
            members[0],
            ClientOp::Put(
                Bytes::from(i.to_be_bytes().to_vec()),
                Bytes::from(vec![b'v'; 32]),
            ),
        );
        t += ef_simcore::SimDuration::from_millis(10);
    }
    cluster.run();
    // Rot one stored value on node 0. Consistency ALL replicated
    // every key to both of its replicas, so a healthy copy exists.
    let rotted = cluster
        .nodes
        .get_mut(&members[0])
        .unwrap()
        .storage_mut()
        .corrupt_nth_value(3, 5)
        .expect("node 0 holds at least one value");
    cluster.enable_scrub(ef_simcore::SimDuration::from_millis(100), 1 << 20);
    cluster.run_until(SimTime::from_secs_f64(2.0));
    let integrity = cluster.integrity();
    assert_eq!(integrity.mismatches_found, 1);
    assert_eq!(integrity.read_repairs, 1);
    assert_eq!(integrity.lost_records, 0);
    assert!(integrity.entries_scrubbed > 0);
    assert!(integrity.scrub_bytes > 0);
    // The rotted entry is back with verified bytes.
    let repaired = cluster
        .nodes
        .get(&members[0])
        .unwrap()
        .storage()
        .get_verified(&rotted)
        .expect("repaired entry verifies");
    assert_eq!(repaired.as_deref(), Some(&Bytes::from(vec![b'v'; 32])));
}

#[test]
fn restart_runs_the_recovery_lattice() {
    let net = edge_network(1, 3);
    let members = net.topology().edge_nodes();
    let mut cluster = SimCluster::new(
        members.clone(),
        net,
        ClusterConfig {
            replication_factor: 2,
            consistency: Consistency::All,
            wal_snapshot_every: 4,
            ..ClusterConfig::default()
        },
    );
    let mut t = SimTime::ZERO;
    for i in 0..30u32 {
        cluster.submit(
            t,
            members[0],
            ClientOp::Put(
                Bytes::from(i.to_be_bytes().to_vec()),
                Bytes::from_static(b"value"),
            ),
        );
        t += ef_simcore::SimDuration::from_millis(10);
    }
    cluster.run();
    // Rot the parked disk's snapshot: recovery falls back to the
    // stashed pre-compaction log and the node still rejoins.
    cluster.inject(ClusterFault::CrashStop {
        at: SimTime::from_secs_f64(1.0),
        node: members[1],
    });
    cluster.run_until(SimTime::from_secs_f64(1.1));
    let disk = cluster.membership.disks.get_mut(&members[1]).unwrap();
    assert!(disk.snapshots_taken() >= 1, "fixture never compacted");
    assert!(disk.flip_bit(2, 3));
    cluster.inject(ClusterFault::Restart {
        at: SimTime::from_secs_f64(1.2),
        node: members[1],
    });
    cluster.run_until(SimTime::from_secs_f64(1.3));
    assert!(
        cluster.nodes.contains_key(&members[1]),
        "snapshot fallback failed"
    );
    assert_eq!(cluster.integrity().snapshot_fallbacks, 1);
    assert_eq!(cluster.recovery_stats().restarts, 1);

    // A corrupt record *body* parks the disk and keeps the node dead.
    cluster.inject(ClusterFault::CrashStop {
        at: SimTime::from_secs_f64(2.0),
        node: members[2],
    });
    cluster.run_until(SimTime::from_secs_f64(2.1));
    let mut bad = WriteAheadLog::new(0);
    bad.append_put(b"a", &Bytes::from_static(b"value"));
    assert!(bad.flip_bit(10, 7)); // first value byte: body, not framing
    cluster.membership.disks.insert(members[2], bad);
    cluster.inject(ClusterFault::Restart {
        at: SimTime::from_secs_f64(2.2),
        node: members[2],
    });
    cluster.run_until(SimTime::from_secs_f64(2.3));
    assert!(
        !cluster.nodes.contains_key(&members[2]),
        "corrupt body must keep the node dead"
    );
    assert!(
        cluster.membership.disks.contains_key(&members[2]),
        "disk re-parked for diagnosis"
    );
    assert_eq!(cluster.integrity().wal_corrupt_bodies, 1);
    assert_eq!(cluster.recovery_stats().restarts, 1);
}

#[test]
fn repeated_verify_failures_quarantine_and_silence_a_node() {
    use ef_simcore::SimDuration;
    let net = edge_network(1, 3);
    let members = net.topology().edge_nodes();
    let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
    cluster.enable_heartbeats(SimDuration::from_millis(100), SimDuration::from_millis(350));
    for _ in 0..background::QUARANTINE_STRIKES {
        cluster.background.note_verify_failure(members[2]);
    }
    assert_eq!(cluster.quarantined(), vec![members[2]]);
    assert_eq!(cluster.integrity().quarantines, 1);
    // Its heartbeats are suppressed: peers suspect it like a crashed
    // node and the usual down/hint machinery takes over.
    cluster.run_until(SimTime::from_secs_f64(1.0));
    for &peer in &members[..2] {
        assert_eq!(
            cluster.suspects_of(peer),
            vec![members[2]],
            "peer {peer} did not suspect the quarantined node"
        );
    }
}

#[test]
fn network_counters_accumulate() {
    let net = edge_network(1, 2);
    let members = net.topology().edge_nodes();
    let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
    cluster.submit(
        SimTime::ZERO,
        members[0],
        ClientOp::Put(Bytes::from_static(b"k"), Bytes::from_static(b"v")),
    );
    cluster.run();
    assert!(cluster.network().messages_sent() > 0);
    assert!(cluster.network().bytes_sent() > 0);
}

/// Submits the same key `n` times through one coordinator, 100ms apart.
fn submit_repeats(cluster: &mut SimCluster, coordinator: NodeId, n: u32) {
    let mut t = SimTime::ZERO;
    for _ in 0..n {
        cluster.submit(
            t,
            coordinator,
            ClientOp::CheckAndInsert(Bytes::from_static(b"fp"), Bytes::from_static(b"v")),
        );
        t += SimDuration::from_millis(100);
    }
}

#[test]
fn cache_hit_skips_the_ring_round_trip() {
    let build = |cache: bool| {
        let net = edge_network(2, 2);
        let members = net.topology().edge_nodes();
        let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
        if cache {
            cluster.enable_fingerprint_cache(2, 16);
        }
        submit_repeats(&mut cluster, members[0], 3);
        let done = cluster.run();
        (done, cluster)
    };
    let (uncached, _) = build(false);
    let (cached, cluster) = build(true);

    // Verdict sequence identical: one unique, then duplicates.
    let verdicts = |done: &[OpLatency]| -> Vec<OpResult> {
        done.iter().map(|l| l.result.clone()).collect::<Vec<_>>()
    };
    assert_eq!(verdicts(&uncached), verdicts(&cached));
    // Op ids identical too: the cached fast path still consumes one
    // sequence number per op.
    assert_eq!(
        uncached.iter().map(|l| l.op_id).collect::<Vec<_>>(),
        cached.iter().map(|l| l.op_id).collect::<Vec<_>>()
    );
    // The first op misses (and populates), the second and third hit
    // and complete instantly — strictly faster than the uncached run.
    let stats = cluster.cache_stats();
    assert_eq!(stats.hits, 2, "{stats:?}");
    assert_eq!(stats.misses, 1, "{stats:?}");
    assert_eq!(stats.insertions, 1, "{stats:?}");
    assert_eq!(cached[1].latency(), SimDuration::ZERO);
    assert!(uncached[1].latency() > SimDuration::ZERO);
}

#[test]
fn crash_stop_drops_the_cache() {
    let net = edge_network(2, 2);
    let members = net.topology().edge_nodes();
    let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
    cluster.enable_fingerprint_cache(2, 16);
    let coordinator = members[0];
    let key = Bytes::from_static(b"fp");
    // Learn the fingerprint, then crash-stop and restart the
    // coordinator between two more submissions of the same key.
    cluster.submit(
        SimTime::ZERO,
        coordinator,
        ClientOp::CheckAndInsert(key.clone(), key.clone()),
    );
    cluster.inject(ClusterFault::CrashStop {
        at: SimTime::ZERO + SimDuration::from_millis(500),
        node: coordinator,
    });
    cluster.inject(ClusterFault::Restart {
        at: SimTime::ZERO + SimDuration::from_millis(800),
        node: coordinator,
    });
    cluster.submit(
        SimTime::ZERO + SimDuration::from_millis(1200),
        coordinator,
        ClientOp::CheckAndInsert(key.clone(), key.clone()),
    );
    cluster.run_until(SimTime::ZERO + SimDuration::from_secs_f64(10.0));
    // The post-restart lookup must NOT be served from pre-crash cache
    // state: it misses, traverses the ring, and only then repopulates.
    let stats = cluster.cache_stats();
    assert_eq!(stats.hits, 0, "{stats:?}");
    assert_eq!(stats.misses, 2, "{stats:?}");
}

#[test]
fn cache_disabled_reports_zero_stats() {
    let net = edge_network(1, 2);
    let members = net.topology().edge_nodes();
    let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
    submit_repeats(&mut cluster, members[0], 2);
    cluster.run();
    assert_eq!(cluster.cache_stats(), crate::CacheStats::default());
}

#[test]
fn gray_stats_quiet_without_mitigations() {
    let net = edge_network(1, 3);
    let members = net.topology().edge_nodes();
    let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
    submit_repeats(&mut cluster, members[0], 4);
    cluster.run();
    // All zeros, passive observation included — stricter than `is_quiet`.
    assert_eq!(cluster.gray_stats(), crate::GrayFailureStats::default());
}

#[test]
fn storage_stall_delays_replica_acks() {
    // Twin clusters, identical ops; one replica suffers a fail-slow
    // storage stall. The stalled run's write latency must grow by
    // roughly the stretched-fsync penalty while the data stays
    // correct — slow, not wrong.
    let run = |stall: Option<f64>| {
        let net = edge_network(1, 3);
        let members = net.topology().edge_nodes();
        let mut cluster = SimCluster::new(
            members.clone(),
            net,
            ClusterConfig {
                replication_factor: 2,
                consistency: Consistency::All,
                ..ClusterConfig::default()
            },
        );
        if let Some(factor) = stall {
            for &m in &members {
                cluster.inject(ClusterFault::StorageStall {
                    from: SimTime::ZERO,
                    until: SimTime::from_secs_f64(100.0),
                    node: m,
                    stall_factor: factor,
                });
            }
        }
        cluster.submit(
            SimTime::ZERO,
            members[0],
            ClientOp::Put(Bytes::from_static(b"key"), Bytes::from_static(b"v")),
        );
        let done = cluster.run();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].result, OpResult::Written);
        done[0].latency()
    };
    let healthy = run(None);
    let stalled = run(Some(20.0));
    // factor 20 ⇒ 19 extra nominal fsyncs ⇒ +9.5ms on the ack path.
    let penalty = stalled.saturating_sub(healthy);
    assert!(
        penalty >= SimDuration::from_millis(9),
        "stall penalty {penalty} too small"
    );
}

#[test]
fn adaptive_rto_learns_and_stays_clamped() {
    let net = edge_network(1, 3);
    let members = net.topology().edge_nodes();
    let mut cluster = SimCluster::new(
        members.clone(),
        net,
        ClusterConfig {
            replication_factor: 2,
            consistency: Consistency::All,
            ..ClusterConfig::default()
        },
    );
    cluster.set_retry_policy(RetryPolicy::new(42));
    let floor = SimDuration::from_micros(500);
    let ceiling = SimDuration::from_secs(1);
    cluster.enable_adaptive_rto(floor, ceiling);
    let mut t = SimTime::ZERO;
    for i in 0..10u32 {
        cluster.submit(
            t,
            members[0],
            ClientOp::Put(
                Bytes::from(i.to_be_bytes().to_vec()),
                Bytes::from_static(b"v"),
            ),
        );
        t += SimDuration::from_millis(50);
    }
    let done = cluster.run();
    assert!(done.iter().all(|l| l.result == OpResult::Written));
    let stats = cluster.gray_stats();
    assert!(stats.rtt_samples > 0, "no RTT samples collected");
    let mut adapted = 0;
    for &peer in &members {
        if let Some(rto) = cluster.adaptive_rto_of(members[0], peer) {
            assert!(rto >= floor && rto <= ceiling, "rto {rto} out of clamp");
            adapted += 1;
        }
    }
    assert!(adapted > 0, "no per-peer estimator got samples");
}

#[test]
fn adaptive_rto_golden_schedule_is_pinned() {
    // Repeated writes of one key over an otherwise idle, fault-free
    // network produce identical RTT samples each round, so the
    // Jacobson/Karels estimator follows a fully deterministic
    // integer trajectory: srtt locks to the first sample and rttvar
    // decays by a quarter per round until the floor clamp catches
    // the RTO. Nothing on this path consumes randomness (retry
    // jitter only shifts stale timers), so the schedule pins the
    // estimator alone; the jittered schedule is pinned in `retry.rs`.
    let net = edge_network(1, 3);
    let members = net.topology().edge_nodes();
    let mut cluster = SimCluster::new(
        members.clone(),
        net,
        ClusterConfig {
            replication_factor: 2,
            consistency: Consistency::All,
            ..ClusterConfig::default()
        },
    );
    cluster.set_retry_policy(RetryPolicy::new(42));
    let floor = SimDuration::from_millis(2);
    let ceiling = SimDuration::from_secs(1);
    cluster.enable_adaptive_rto(floor, ceiling);
    // Pick a key whose replica set contains the coordinator, so each
    // round produces exactly one remote (coordinator, peer) sample.
    let key = (0u32..)
        .map(|i| Bytes::from(i.to_be_bytes().to_vec()))
        .find(|k| cluster.ring().replicas(k, 2).contains(&members[0]))
        .unwrap();
    let peer = cluster
        .ring()
        .replicas(&key, 2)
        .into_iter()
        .find(|&n| n != members[0])
        .unwrap();
    let mut schedule = Vec::new();
    for _ in 0..5 {
        let at = cluster.now() + SimDuration::from_millis(200);
        cluster.submit(at, members[0], ClientOp::Put(key.clone(), key.clone()));
        let done = cluster.run();
        assert_eq!(done.len(), 1);
        schedule.push(
            cluster
                .adaptive_rto_of(members[0], peer)
                .expect("estimator has samples")
                .as_nanos(),
        );
    }
    // Structural invariants hold whatever the topology numbers are.
    assert!(schedule.windows(2).all(|w| w[1] <= w[0]), "{schedule:?}");
    for &rto in &schedule {
        assert!(rto >= floor.as_nanos() && rto <= ceiling.as_nanos());
    }
    assert_eq!(
        cluster.gray_stats().rto_adaptations,
        4,
        "first op is unadapted, the rest use the estimator"
    );
    // The exact trajectory for the paper-testbed topology.
    assert_eq!(
        schedule,
        vec![5_101_446, 4_251_206, 3_613_526, 3_135_266, 2_776_570],
        "adapted RTO schedule drifted"
    );
}

#[test]
fn hedged_read_wins_against_a_slow_primary() {
    use ef_netsim::FaultPlan;
    // Four nodes, RF=1: the key's only primary is made grossly slow
    // (fail-slow, not dead), and the key is planted on the backup
    // successor a hedge would probe. The hedged read must complete
    // from the backup's positive sighting long before the primary's
    // crawling response or the retry timeout.
    let mut net = edge_network(2, 2);
    let members = net.topology().edge_nodes();
    let value = Bytes::from_static(b"payload");
    // Find a key whose single primary is not the coordinator.
    let coordinator = members[0];
    let probe_net = Network::new(
        ef_netsim::TopologyBuilder::new()
            .edge_site(2)
            .edge_site(2)
            .build(),
        ef_netsim::NetworkConfig::paper_testbed(),
    );
    let ring = HashRing::with_nodes(probe_net.topology().edge_nodes(), crate::cluster::VNODES);
    let key = (0u32..)
        .map(|i| Bytes::from(i.to_be_bytes().to_vec()))
        .find(|k| ring.replicas(k, 1)[0] != coordinator)
        .unwrap();
    let primary = ring.replicas(&key, 1)[0];
    // The hedge target: first extended successor that is neither the
    // primary nor the coordinator (mirrors `NodeState::hedge`).
    let backup = ring
        .replicas(&key, 3)
        .into_iter()
        .find(|&n| n != primary && n != coordinator)
        .unwrap();
    net.set_fault_plan(FaultPlan::new(11).slow_node(
        primary,
        400.0,
        SimTime::ZERO,
        SimTime::from_secs_f64(100.0),
    ));
    let mut cluster = SimCluster::new(
        members.clone(),
        net,
        ClusterConfig {
            replication_factor: 1,
            consistency: Consistency::One,
            ..ClusterConfig::default()
        },
    );
    cluster.enable_hedged_reads(4);
    // Plant the key on primary and backup alike: hedging may change
    // *when* the answer arrives, never *what* it is.
    for &holder in &[primary, backup] {
        cluster
            .node_mut(holder)
            .unwrap()
            .storage_mut()
            .put(key.clone(), value.clone());
    }
    cluster.submit(SimTime::ZERO, coordinator, ClientOp::Get(key.clone()));
    let done = cluster.run();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].result, OpResult::Value(Some(value)));
    let stats = cluster.gray_stats();
    assert_eq!(stats.hedges_fired, 1, "{stats:?}");
    assert_eq!(stats.hedges_won, 1, "{stats:?}");
    // The win beat both the slow primary (~400x RTT) and the retry
    // timeout (100ms base + backoff).
    assert!(
        done[0].latency() < SimDuration::from_millis(100),
        "hedge did not accelerate the read: {}",
        done[0].latency()
    );
}

#[test]
fn admission_control_sheds_overload_and_keeps_op_ids() {
    let run = |limit: Option<usize>| {
        let net = edge_network(1, 3);
        let members = net.topology().edge_nodes();
        let mut cluster = SimCluster::new(
            members.clone(),
            net,
            ClusterConfig {
                replication_factor: 2,
                consistency: Consistency::All,
                ..ClusterConfig::default()
            },
        );
        cluster.set_retry_policy(RetryPolicy::new(9));
        if let Some(limit) = limit {
            cluster.enable_admission_control(limit);
        }
        // A burst: every op lands before any replica can answer.
        for i in 0..10u32 {
            cluster.submit(
                SimTime::ZERO,
                members[0],
                ClientOp::Put(
                    Bytes::from(i.to_be_bytes().to_vec()),
                    Bytes::from_static(b"v"),
                ),
            );
        }
        let mut done = cluster.run();
        done.sort_by_key(|l| l.op_id);
        (done, cluster.gray_stats())
    };
    let (unlimited, quiet) = run(None);
    let (limited, stats) = run(Some(2));
    assert_eq!(quiet, crate::GrayFailureStats::default());
    assert_eq!(limited.len(), 10, "every op resolves, shed or served");
    let sheds = limited
        .iter()
        .filter(|l| matches!(l.result, OpResult::Unavailable { .. }))
        .count() as u64;
    assert_eq!(sheds, 8, "burst of 10 at limit 2 sheds the rest");
    assert_eq!(stats.sheds_critical, sheds);
    assert_eq!(stats.queue_peak, 2, "{stats:?}");
    // Op-id compatibility: shedding never renumbers operations.
    let ids = |ls: &[OpLatency]| ls.iter().map(|l| l.op_id).collect::<Vec<_>>();
    assert_eq!(ids(&unlimited), ids(&limited));
}

#[test]
fn backpressure_yields_background_rounds_under_load() {
    let net = edge_network(1, 2);
    let members = net.topology().edge_nodes();
    let mut cluster = SimCluster::new(
        members.clone(),
        net,
        ClusterConfig {
            replication_factor: 2,
            consistency: Consistency::All,
            ..ClusterConfig::default()
        },
    );
    cluster.enable_anti_entropy(SimDuration::from_millis(5), 4);
    cluster.enable_backpressure(SimDuration::from_micros(100));
    // A burst of fat writes books the uplink solid for tens of
    // milliseconds; anti-entropy ticks landing inside the backlog
    // must yield rather than pile bulk Merkle traffic on top.
    for i in 0..20u32 {
        cluster.submit(
            SimTime::ZERO,
            members[0],
            ClientOp::Put(
                Bytes::from(i.to_be_bytes().to_vec()),
                Bytes::from(vec![b'x'; 200_000]),
            ),
        );
    }
    cluster.run_until(SimTime::from_secs_f64(2.0));
    let stats = cluster.gray_stats();
    assert!(stats.sheds_background > 0, "{stats:?}");
    // Once the backlog drains the rounds resume — shedding is a
    // yield, not a cancellation.
    assert!(
        cluster.recovery_stats().antientropy_rounds > 0,
        "anti-entropy never resumed after the backlog"
    );
}

#[test]
fn slow_detection_marks_gray_peers() {
    use ef_netsim::FaultPlan;
    let mut net = edge_network(1, 3);
    let members = net.topology().edge_nodes();
    let victim = members[1];
    net.set_fault_plan(FaultPlan::new(13).slow_node(
        victim,
        50.0,
        SimTime::ZERO,
        SimTime::from_secs_f64(100.0),
    ));
    let mut cluster = SimCluster::new(
        members.clone(),
        net,
        ClusterConfig {
            replication_factor: 2,
            consistency: Consistency::All,
            ..ClusterConfig::default()
        },
    );
    cluster.enable_adaptive_rto(SimDuration::from_micros(500), SimDuration::from_secs(2));
    cluster.enable_slow_detection(SimDuration::from_millis(5));
    let mut t = SimTime::ZERO;
    for i in 0..30u32 {
        cluster.submit(
            t,
            members[0],
            ClientOp::Put(
                Bytes::from(i.to_be_bytes().to_vec()),
                Bytes::from_static(b"v"),
            ),
        );
        t += SimDuration::from_millis(20);
    }
    cluster.run();
    let stats = cluster.gray_stats();
    assert!(stats.slow_marks >= 1, "{stats:?}");
    assert!(
        cluster.slow_of(members[0]).contains(&victim),
        "coordinator never marked the fail-slow peer gray: {:?}",
        cluster.slow_of(members[0])
    );
    // A healthy peer is not smeared.
    assert!(!cluster.slow_of(members[0]).contains(&members[2]));
}

fn edge_cloud_network(sites: usize, per_site: usize) -> Network {
    let mut b = TopologyBuilder::new();
    for _ in 0..sites {
        b = b.edge_site(per_site);
    }
    Network::new(b.cloud_site(1).build(), NetworkConfig::paper_testbed())
}

#[test]
fn spool_drains_uniques_to_the_cloud_catalog() {
    let net = edge_cloud_network(1, 3);
    let members = net.topology().edge_nodes();
    let cloud = net.topology().nodes_in(SiteId(1))[0];
    let mut cluster = SimCluster::new(
        members.clone(),
        net,
        ClusterConfig {
            replication_factor: 2,
            consistency: Consistency::Quorum,
            ..ClusterConfig::default()
        },
    );
    cluster.enable_cloud_uplink(cloud, 1 << 16, SimDuration::from_millis(10));
    let mut t = SimTime::ZERO;
    for i in 0..20u32 {
        cluster.submit(
            t,
            members[(i % 3) as usize],
            ClientOp::CheckAndInsert(
                Bytes::from(format!("chunk-{i}").into_bytes()),
                Bytes::from_static(b"payload"),
            ),
        );
        t += SimDuration::from_millis(2);
    }
    cluster.run_until(SimTime::from_secs_f64(2.0));
    let stats = cluster.disaster_stats();
    assert_eq!(stats.spool_enqueued, 20, "{stats:?}");
    assert_eq!(stats.spool_drained, 20, "{stats:?}");
    assert_eq!(stats.spool_depth, 0, "{stats:?}");
    assert!(stats.spool_high_water >= 1);
    assert_eq!(cluster.cloud_catalog().len(), 20);
    assert_eq!(
        cluster.cloud_catalog().get(&Bytes::from_static(b"chunk-7")),
        Some(&Bytes::from_static(b"payload"))
    );
}

#[test]
fn cloud_outage_defers_the_drain_without_losing_uniques() {
    let net = edge_cloud_network(1, 3);
    let members = net.topology().edge_nodes();
    let cloud = net.topology().nodes_in(SiteId(1))[0];
    let mut cluster = SimCluster::new(
        members.clone(),
        net,
        ClusterConfig {
            replication_factor: 2,
            consistency: Consistency::Quorum,
            ..ClusterConfig::default()
        },
    );
    cluster.enable_cloud_uplink(cloud, 1 << 16, SimDuration::from_millis(10));
    cluster.inject(ClusterFault::CloudOutage {
        from: SimTime::ZERO,
        until: SimTime::from_secs_f64(1.0),
        site: SiteId(1),
    });
    for i in 0..10u32 {
        cluster.submit(
            SimTime::from_nanos(u64::from(i) * 1_000_000),
            members[0],
            ClientOp::CheckAndInsert(
                Bytes::from(format!("chunk-{i}").into_bytes()),
                Bytes::from_static(b"payload"),
            ),
        );
    }
    // Mid-outage: every unique accepted and acked, nothing drained.
    cluster.run_until(SimTime::from_secs_f64(0.5));
    let mid = cluster.disaster_stats();
    assert_eq!(mid.spool_enqueued, 10, "{mid:?}");
    assert_eq!(mid.spool_drained, 0, "{mid:?}");
    assert_eq!(mid.spool_depth, 10, "{mid:?}");
    assert!(cluster.cloud_catalog().is_empty());
    // After the window closes the backlog drains completely.
    cluster.run_until(SimTime::from_secs_f64(3.0));
    let end = cluster.disaster_stats();
    assert_eq!(end.spool_drained, 10, "{end:?}");
    assert_eq!(end.spool_depth, 0, "{end:?}");
    assert_eq!(end.outage_windows, 1);
    assert_eq!(cluster.cloud_catalog().len(), 10);
}

#[test]
fn bandwidth_cap_spreads_the_drain_over_rounds() {
    let net = edge_cloud_network(1, 3);
    let members = net.topology().edge_nodes();
    let cloud = net.topology().nodes_in(SiteId(1))[0];
    let mut cluster = SimCluster::new(
        members.clone(),
        net,
        ClusterConfig {
            replication_factor: 2,
            consistency: Consistency::Quorum,
            ..ClusterConfig::default()
        },
    );
    // Cap of one payload per tick: 8 uniques at one coordinator need
    // several rounds, so mid-run the spool is still part-full.
    cluster.enable_cloud_uplink(cloud, 8, SimDuration::from_millis(10));
    for i in 0..8u32 {
        cluster.submit(
            SimTime::from_nanos(u64::from(i)),
            members[0],
            ClientOp::CheckAndInsert(
                Bytes::from(format!("chunk-{i}").into_bytes()),
                Bytes::from_static(b"payload8"),
            ),
        );
    }
    cluster.run_until(SimTime::from_secs_f64(0.035));
    let mid = cluster.disaster_stats();
    assert!(
        mid.spool_depth > 0 && mid.spool_depth < 8,
        "cap not spreading the drain: {mid:?}"
    );
    cluster.run_until(SimTime::from_secs_f64(2.0));
    assert_eq!(cluster.disaster_stats().spool_depth, 0);
    assert_eq!(cluster.cloud_catalog().len(), 8);
}

#[test]
fn ring_wipe_heals_by_mesh_repair_with_cloud_fallback() {
    let net = edge_cloud_network(3, 2);
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
    let mut t = SimTime::ZERO;
    for i in 0..40u32 {
        cluster.submit(
            t,
            members[(i % 6) as usize],
            ClientOp::CheckAndInsert(
                Bytes::from(format!("chunk-{i}").into_bytes()),
                Bytes::from(format!("payload-{i}").into_bytes()),
            ),
        );
        t += SimDuration::from_millis(1);
    }
    // Let the writes land and the spool drain, then wipe site 0.
    cluster.inject(ClusterFault::RingOutage {
        from: SimTime::from_secs_f64(0.5),
        until: SimTime::from_secs_f64(0.8),
        site: SiteId(0),
    });
    cluster.run_until(SimTime::from_secs_f64(3.0));
    let stats = cluster.disaster_stats();
    assert_eq!(stats.ring_wipes, 1, "{stats:?}");
    assert!(stats.mesh_repairs > 0, "no mesh repairs: {stats:?}");
    assert!(
        stats.repair_cost_mesh_ms > 0,
        "mesh repairs cost nothing: {stats:?}"
    );
    // Every key the ring routes to a wiped node is back on it, byte
    // for byte — zero lost chunks after heal.
    let wiped: Vec<NodeId> = cluster.network().topology().nodes_in(SiteId(0)).to_vec();
    let mut rehydrated = 0;
    for i in 0..40u32 {
        let key = Bytes::from(format!("chunk-{i}").into_bytes());
        let want = Bytes::from(format!("payload-{i}").into_bytes());
        for target in cluster.ring().replicas(&key, 3) {
            if !wiped.contains(&target) {
                continue;
            }
            let got = cluster
                .node(target)
                .expect("healed node is back")
                .storage()
                .get(&key);
            assert_eq!(got, Some(want.clone()), "chunk-{i} missing on {target}");
            rehydrated += 1;
        }
    }
    assert!(rehydrated > 0, "no key routed to the wiped site");
    assert!(stats.recovery_ns_max > 0, "{stats:?}");
}

#[test]
fn hints_for_a_wiped_ring_are_spooled_durably() {
    let net = edge_cloud_network(3, 2);
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
    // Wipe site 0 early, heal late; writes land mid-window so their
    // site-0 replicas get hinted at the surviving coordinators.
    cluster.inject(ClusterFault::RingOutage {
        from: SimTime::from_secs_f64(0.3),
        until: SimTime::from_secs_f64(1.5),
        site: SiteId(0),
    });
    let mut t = SimTime::from_secs_f64(0.6);
    for i in 0..30u32 {
        cluster.submit(
            t,
            members[2 + (i % 4) as usize], // survivors only
            ClientOp::CheckAndInsert(
                Bytes::from(format!("chunk-{i}").into_bytes()),
                Bytes::from_static(b"payload"),
            ),
        );
        t += SimDuration::from_millis(2);
    }
    cluster.run_until(SimTime::from_secs_f64(1.2));
    let mid = cluster.disaster_stats();
    assert!(
        mid.hints_spooled > 0,
        "no hints moved to the durable spool: {mid:?}"
    );
    cluster.run_until(SimTime::from_secs_f64(4.0));
    // After the heal the spooled hints replayed: nothing pending.
    let end = cluster.disaster_stats();
    assert_eq!(end.spool_depth, 0, "{end:?}");
}

// ---- Byzantine-peer tolerance (proof-of-possession + trust) ----

use ef_netsim::{ByzantineFault, FaultPlan};

/// A 1-site / 4-node cluster with one Byzantine node running `fault`
/// for the whole run.
fn byzantine_cluster(fault: ByzantineFault) -> (SimCluster, Vec<NodeId>, NodeId) {
    let mut net = edge_network(1, 4);
    let members = net.topology().edge_nodes();
    let liar = members[1];
    net.set_fault_plan(FaultPlan::new(41).byzantine(
        liar,
        fault,
        SimTime::ZERO,
        SimTime::from_secs_f64(100.0),
    ));
    let cluster = SimCluster::new(
        members.clone(),
        net,
        ClusterConfig {
            replication_factor: 2,
            consistency: Consistency::Quorum,
            ..ClusterConfig::default()
        },
    );
    (cluster, members, liar)
}

fn submit_unique_chunks(cluster: &mut SimCluster, coord: NodeId, n: u32) {
    let mut t = SimTime::ZERO;
    for i in 0..n {
        cluster.submit(
            t,
            coord,
            ClientOp::CheckAndInsert(
                Bytes::from(format!("chunk-{i}").into_bytes()),
                Bytes::from(format!("payload-{i}").into_bytes()),
            ),
        );
        t += SimDuration::from_millis(5);
    }
}

#[test]
fn lookup_liar_pollutes_dedup_without_pop() {
    // The attack baseline: with proof-of-possession off, a lying
    // replica's fabricated positive sighting turns fresh chunks into
    // "duplicates" — the client skips the upload and the chunk is
    // silently lost.
    let (mut cluster, members, liar) = byzantine_cluster(ByzantineFault::LieOnLookup);
    submit_unique_chunks(&mut cluster, members[0], 40);
    let done = cluster.run();
    assert_eq!(done.len(), 40);
    let false_dups = done
        .iter()
        .filter(|l| matches!(l.result, OpResult::Dedup { unique: false, .. }))
        .count();
    assert!(
        false_dups > 0,
        "lookup liar never polluted a verdict — attack not wired"
    );
    // No defense armed: nothing was checked, nobody struck.
    let stats = cluster.byzantine_stats();
    assert_eq!(stats.challenges_issued, 0, "{stats:?}");
    assert_eq!(cluster.trust_strikes_of(liar), 0);
}

#[test]
fn pop_defeats_lookup_liar_and_quarantines() {
    let (mut cluster, members, liar) = byzantine_cluster(ByzantineFault::LieOnLookup);
    cluster.enable_pop(0xB12A);
    submit_unique_chunks(&mut cluster, members[0], 40);
    let done = cluster.run();
    assert_eq!(done.len(), 40);
    // Every chunk is genuinely fresh; with PoP armed the liar's
    // fabricated values fail the possession check, so no verdict is
    // polluted.
    for l in &done {
        assert!(
            matches!(
                l.result,
                OpResult::Dedup { unique: true, .. } | OpResult::Written
            ),
            "false duplicate slipped through PoP: {:?}",
            l.result
        );
    }
    let stats = cluster.byzantine_stats();
    assert!(stats.challenges_issued > 0, "{stats:?}");
    assert!(stats.challenges_failed > 0, "{stats:?}");
    assert!(stats.false_claims_rejected > 0, "{stats:?}");
    assert!(
        cluster.trust_strikes_of(liar) >= 3,
        "liar strikes: {}",
        cluster.trust_strikes_of(liar)
    );
    assert_eq!(stats.liars_quarantined, 1, "{stats:?}");
}

#[expect(
    clippy::wildcard_enum_match_arm,
    reason = "only dedup verdicts are compared"
)]
#[test]
fn honest_pop_verdicts_match_pop_off() {
    // Satellite guarantee: on an honest cluster, arming PoP changes
    // nothing but the possession checks it counts.
    let verdicts = |pop: bool| {
        let net = edge_network(2, 2);
        let members = net.topology().edge_nodes();
        let mut cluster = SimCluster::new(
            members.clone(),
            net,
            ClusterConfig {
                replication_factor: 2,
                consistency: Consistency::Quorum,
                ..ClusterConfig::default()
            },
        );
        if pop {
            cluster.enable_pop(7);
        }
        let mut t = SimTime::ZERO;
        // First pass: 20 fresh chunks; second pass: the same chunks
        // from the *other* side of the ring — genuine duplicates
        // whose positive sightings must pass the possession check.
        for pass in 0..2u32 {
            for i in 0..20u32 {
                let coord = members[((i + pass) % 4) as usize];
                cluster.submit(
                    t,
                    coord,
                    ClientOp::CheckAndInsert(
                        Bytes::from(format!("chunk-{i}").into_bytes()),
                        Bytes::from(format!("payload-{i}").into_bytes()),
                    ),
                );
                t += SimDuration::from_millis(10);
            }
        }
        let mut done = cluster.run();
        done.sort_by_key(|l| (l.op_id.coordinator, l.op_id.seq));
        let stats = cluster.byzantine_stats();
        let verdicts: Vec<(OpId, bool)> = done
            .iter()
            .filter_map(|l| match l.result {
                OpResult::Dedup { unique, .. } => Some((l.op_id, unique)),
                _ => None,
            })
            .collect();
        (verdicts, stats)
    };
    let (off, off_stats) = verdicts(false);
    let (on, on_stats) = verdicts(true);
    assert_eq!(off, on, "PoP changed an honest verdict");
    assert!(off.iter().any(|(_, unique)| !unique), "no duplicates seen");
    assert_eq!(off_stats.challenges_issued, 0);
    assert!(on_stats.challenges_issued > 0, "{on_stats:?}");
    assert!(on_stats.challenges_passed > 0, "{on_stats:?}");
    assert_eq!(on_stats.challenges_failed, 0, "{on_stats:?}");
    assert_eq!(on_stats.liar_strikes, 0, "{on_stats:?}");
}

#[test]
fn hint_floods_land_without_pop_and_are_suppressed_with_it() {
    use ef_simcore::SimDuration;
    let flood_keys = |pop: bool| -> (usize, crate::ByzantineStats) {
        let (mut cluster, members, _liar) = byzantine_cluster(ByzantineFault::HintFlood);
        cluster.enable_heartbeats(SimDuration::from_millis(100), SimDuration::from_millis(350));
        if pop {
            cluster.enable_pop(9);
        }
        cluster.run_until(SimTime::from_secs_f64(1.0));
        let mut landed = 0;
        for &m in &members {
            if let Some(state) = cluster.node_mut(m) {
                landed += state
                    .storage()
                    .iter_live()
                    .filter(|(k, _)| k.starts_with(b"byz-flood-"))
                    .count();
            }
        }
        let stats = cluster.byzantine_stats();
        (landed, stats)
    };
    let (landed_off, stats_off) = flood_keys(false);
    assert!(landed_off > 0, "flood attack never landed a junk key");
    assert_eq!(stats_off.hint_floods_suppressed, 0);
    let (landed_on, stats_on) = flood_keys(true);
    assert_eq!(landed_on, 0, "flooded keys got past the armed driver");
    assert!(stats_on.hint_floods_suppressed > 0, "{stats_on:?}");
    assert!(stats_on.liars_quarantined >= 1, "{stats_on:?}");
}

#[test]
fn poisoned_repair_bytes_rejected_and_refetched() {
    // Ring wipe + heal where *every* survivor serves garbage on the
    // repair path: each mesh serve is rejected by content-address
    // verification, the re-fetch walks the remaining (equally
    // rotten) holders, and the cloud catalog finally supplies the
    // honest bytes — zero poisoned chunks acked into storage.
    let mut net = edge_cloud_network(3, 2);
    let members = net.topology().edge_nodes();
    let mut plan = FaultPlan::new(17);
    for &survivor in &members[2..6] {
        plan = plan.byzantine(
            survivor,
            ByzantineFault::ServeGarbage,
            SimTime::ZERO,
            SimTime::from_secs_f64(100.0),
        );
    }
    net.set_fault_plan(plan);
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
    cluster.enable_pop(23);
    cluster.enable_cloud_uplink(cloud, 1 << 16, SimDuration::from_millis(10));
    let mut t = SimTime::ZERO;
    for i in 0..40u32 {
        cluster.submit(
            t,
            members[(i % 6) as usize],
            ClientOp::CheckAndInsert(
                Bytes::from(format!("chunk-{i}").into_bytes()),
                Bytes::from(format!("payload-{i}").into_bytes()),
            ),
        );
        t += SimDuration::from_millis(1);
    }
    cluster.inject(ClusterFault::RingOutage {
        from: SimTime::from_secs_f64(0.5),
        until: SimTime::from_secs_f64(0.8),
        site: SiteId(0),
    });
    cluster.run_until(SimTime::from_secs_f64(3.0));
    let stats = cluster.byzantine_stats();
    assert!(stats.poisoned_bytes_rejected > 0, "{stats:?}");
    assert!(stats.refetches > 0, "{stats:?}");
    assert!(
        cluster.disaster_stats().cloud_repairs > 0,
        "no cloud fallback: {:?}",
        cluster.disaster_stats()
    );
    // Every healed replica holds the honest bytes, byte for byte.
    let wiped: Vec<NodeId> = cluster.network().topology().nodes_in(SiteId(0)).to_vec();
    let mut rehydrated = 0;
    for i in 0..40u32 {
        let key = Bytes::from(format!("chunk-{i}").into_bytes());
        let want = Bytes::from(format!("payload-{i}").into_bytes());
        for target in cluster.ring().replicas(&key, 3) {
            if !wiped.contains(&target) {
                continue;
            }
            let got = cluster
                .node(target)
                .expect("healed node is back")
                .storage()
                .get(&key);
            if got.is_some() {
                assert_eq!(got, Some(want.clone()), "chunk-{i} poisoned on {target}");
                rehydrated += 1;
            }
        }
    }
    assert!(rehydrated > 0, "no chunk repaired onto the wiped site");
}

#[test]
fn a_sighting_one_byte_off_the_payload_is_struck_and_the_op_inserts() {
    // One coordinator, one remote holder whose copy is the payload with
    // one byte flipped: the same key, the same length, a sum of its own.
    // The possession check reads every byte, so the sighting is a
    // provable lie — struck and forgotten — and the op inserts.
    let net = edge_network(1, 2);
    let members = net.topology().edge_nodes();
    let mut cluster = SimCluster::new(
        members.clone(),
        net,
        ClusterConfig {
            replication_factor: 1,
            consistency: Consistency::One,
            ..ClusterConfig::default()
        },
    );
    cluster.enable_pop(3);
    let key = (0..64u32)
        .map(|i| Bytes::from(format!("chunk-{i}").into_bytes()))
        .find(|k| cluster.ring().replicas(k, 1)[0] == members[1])
        .expect("placement starved the test");
    let payload = Bytes::from_static(b"payload");
    let mut forged = payload.to_vec();
    forged[3] ^= 1;
    let holder = cluster.node_mut(members[1]).expect("holder is up");
    holder.storage_mut().put(key.clone(), Bytes::from(forged));
    cluster.submit(
        SimTime::ZERO,
        members[0],
        ClientOp::CheckAndInsert(key.clone(), payload.clone()),
    );
    let done = cluster.run();
    let [op] = &done[..] else {
        panic!("expected one completion, got {done:?}");
    };
    let (unique, degraded) = (true, false);
    assert_eq!(op.result, OpResult::Dedup { unique, degraded });
    let stats = cluster.byzantine_stats();
    assert_eq!(stats.challenges_issued, 1, "{stats:?}");
    assert_eq!(stats.challenges_failed, 1, "{stats:?}");
    assert_eq!(stats.false_claims_rejected, 1, "{stats:?}");
    assert_eq!(cluster.trust_strikes_of(members[1]), 1);
    let holder = cluster.node(members[1]).expect("holder is up");
    assert_eq!(holder.storage().get(&key), Some(payload));
}

#[test]
fn equivocating_summary_detected_in_antientropy() {
    let (mut cluster, members, liar) = byzantine_cluster(ByzantineFault::EquivocateSummary);
    cluster.enable_pop(31);
    cluster.enable_anti_entropy(SimDuration::from_millis(100), 4);
    submit_unique_chunks(&mut cluster, members[0], 10);
    cluster.run_until(SimTime::from_secs_f64(1.0));
    let stats = cluster.byzantine_stats();
    assert!(stats.equivocations_detected > 0, "{stats:?}");
    assert!(
        cluster.trust_strikes_of(liar) >= 3,
        "equivocator strikes: {}",
        cluster.trust_strikes_of(liar)
    );
    assert_eq!(stats.liars_quarantined, 1, "{stats:?}");
}

// ---- ISSUE 21: storage rot composed with anti-entropy ----

const ROT_DEPTH: u32 = 4;

/// Four members at rf = 2 under `Consistency::All`, anti-entropy every
/// 200 ms: `victim` crash-stops at 1.0 s, restarts from its WAL at
/// 1.25 s holding everything its peers hold, and takes a seeded
/// `StorageRot` strike at 1.3 s — before the first round that could
/// have declared its rejoin converged.
fn rot_under_anti_entropy(seed: u64, scrub: bool) -> (SimCluster, NodeId) {
    let net = edge_network(1, 4);
    let members = net.topology().edge_nodes();
    let config = ClusterConfig {
        replication_factor: 2,
        consistency: Consistency::All,
        ..ClusterConfig::default()
    };
    let mut cluster = SimCluster::new(members.clone(), net, config);
    cluster.enable_anti_entropy(SimDuration::from_millis(200), ROT_DEPTH);
    if scrub {
        cluster.enable_scrub(SimDuration::from_millis(100), 1 << 20);
    }
    let mut t = SimTime::ZERO;
    for i in 0..40 + seed as u32 {
        let key = Bytes::from((i ^ (seed as u32) << 8).to_be_bytes().to_vec());
        let value = Bytes::from(vec![i as u8 ^ seed as u8; 48 + i as usize % 17]);
        let coordinator = members[i as usize % members.len()];
        cluster.submit(t, coordinator, ClientOp::Put(key, value));
        t += SimDuration::from_millis(10);
    }
    let victim = members[seed as usize % members.len()];
    cluster.inject(ClusterFault::CrashStop {
        at: SimTime::from_secs_f64(1.0),
        node: victim,
    });
    cluster.inject(ClusterFault::Restart {
        at: SimTime::from_secs_f64(1.25),
        node: victim,
    });
    cluster.inject(ClusterFault::StorageRot {
        at: SimTime::from_secs_f64(1.3),
        node: victim,
        rot_seed: seed,
    });
    (cluster, victim)
}

/// The non-zero counters of one family, `name=value` in declaration
/// order.
fn nonzero(fields: impl Iterator<Item = ef_simcore::stats::Counter>) -> String {
    let set = fields.filter(|c| c.value != 0);
    let set: Vec<String> = set.map(|c| format!("{}={}", c.name, c.value)).collect();
    set.join(" ")
}

/// Anti-entropy digests a rotted entry as its rotted bytes: the bucket
/// diverges round after round, nothing is streamed (both replicas hold
/// the key) and the rejoin is never declared converged — until scrub,
/// the detector that owns at-rest rot, drops the entry and read-repairs
/// it. Counters are the parent commit's (PR 20), captured before
/// anti-entropy stopped reading payload bytes.
#[test]
fn rot_diverges_under_anti_entropy_until_scrub_repairs_it() {
    // (seed, recovery / integrity with scrub off, then with scrub on)
    const PINNED: [(u64, [&str; 4]); 4] = [
        (
            2,
            [
                "wal_records_replayed=31 restarts=1 antientropy_rounds=30 buckets_repaired=25 entries_repaired=1",
                "",
                "wal_records_replayed=31 restarts=1 antientropy_rounds=30 buckets_repaired=1 entries_repaired=1",
                "entries_scrubbed=4816 scrub_bytes=284800 mismatches_found=2 read_repairs=2",
            ],
        ),
        (
            4,
            [
                "wal_records_replayed=18 restarts=1 antientropy_rounds=30 buckets_repaired=49 entries_repaired=1",
                "",
                "wal_records_replayed=18 restarts=1 antientropy_rounds=30 buckets_repaired=1 entries_repaired=1",
                "entries_scrubbed=5077 scrub_bytes=300564 mismatches_found=2 read_repairs=2",
            ],
        ),
        (
            7,
            [
                "wal_records_replayed=22 restarts=1 antientropy_rounds=30 buckets_repaired=48",
                "",
                "wal_records_replayed=22 restarts=1 antientropy_rounds=30",
                "entries_scrubbed=5400 scrub_bytes=320873 mismatches_found=2 read_repairs=2",
            ],
        ),
        (
            8,
            [
                "wal_records_replayed=19 restarts=1 antientropy_rounds=30 buckets_repaired=72",
                "",
                "wal_records_replayed=19 restarts=1 antientropy_rounds=30",
                "entries_scrubbed=5520 scrub_bytes=328677 mismatches_found=3 read_repairs=3",
            ],
        ),
    ];
    for (seed, [recovery_off, integrity_off, recovery_on, integrity_on]) in PINNED {
        let (mut cluster, victim) = rot_under_anti_entropy(seed, false);
        cluster.run_until(SimTime::from_secs_f64(1.29));
        let before = cluster.recovery_stats();
        assert_eq!(cluster.replica_divergence(ROT_DEPTH), 0, "seed {seed}");
        cluster.run_until(SimTime::from_secs_f64(4.0));
        let diverged = cluster.replica_divergence(ROT_DEPTH);
        assert!(diverged > 0, "seed {seed}: the strike missed every value");
        cluster.run_until(SimTime::from_secs_f64(6.0));
        assert_eq!(cluster.replica_divergence(ROT_DEPTH), diverged);
        let recovery = cluster.recovery_stats();
        assert_eq!(recovery.entries_repaired, before.entries_repaired);
        assert!(recovery.buckets_repaired > before.buckets_repaired);
        assert_eq!(cluster.recovery_latencies(), vec![], "seed {seed}");
        assert_eq!(nonzero(recovery.fields()), recovery_off, "seed {seed}");
        assert_eq!(nonzero(cluster.integrity().fields()), integrity_off);

        let (mut cluster, _) = rot_under_anti_entropy(seed, true);
        cluster.run_until(SimTime::from_secs_f64(6.0));
        assert_eq!(cluster.replica_divergence(ROT_DEPTH), 0, "seed {seed}");
        let converged: Vec<NodeId> = cluster
            .recovery_latencies()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(converged, vec![victim], "seed {seed}");
        let integrity = cluster.integrity();
        assert!(integrity.mismatches_found > 0);
        assert_eq!(integrity.read_repairs, integrity.mismatches_found);
        assert_eq!(nonzero(cluster.recovery_stats().fields()), recovery_on);
        assert_eq!(nonzero(integrity.fields()), integrity_on, "seed {seed}");
    }
}

/// Anti-entropy walks a store only to list repairs. Once the first
/// round has summarized every store, rounds over a fault-free ring fold
/// each summary from the store's journal — writes keep landing — and
/// walk nothing; after one replica loses one key, the next round walks
/// exactly the stores of the pairs whose buckets differ, once per pair,
/// and the key comes back.
#[test]
fn a_round_walks_no_store_unless_a_bucket_diverges() {
    let net = edge_network(1, 4);
    let members = net.topology().edge_nodes();
    let config = ClusterConfig {
        replication_factor: 3,
        consistency: Consistency::All,
        ..ClusterConfig::default()
    };
    let mut cluster = SimCluster::new(members.clone(), net, config);
    cluster.enable_anti_entropy(SimDuration::from_millis(100), 4);
    let key = |i: u32| Bytes::from(i.to_be_bytes().to_vec());
    // Forty writes before the first round, then one halfway between
    // each two rounds.
    let times = (0..40).map(SimDuration::from_millis);
    let times = times.chain((0..14).map(|i| SimDuration::from_millis(150 + 100 * i)));
    for (i, at) in times.enumerate() {
        let value = Bytes::from(vec![i as u8; 32]);
        let coordinator = members[i % members.len()];
        cluster.submit(
            SimTime::ZERO + at,
            coordinator,
            ClientOp::Put(key(i as u32), value),
        );
    }
    let walks = |c: &SimCluster| -> Vec<u64> {
        let stores = members.iter().map(|&n| c.node(n).unwrap().storage());
        stores.map(StorageEngine::walks).collect()
    };
    cluster.run_until(SimTime::from_secs_f64(0.15));
    assert_eq!(
        walks(&cluster),
        vec![1; 4],
        "the first round walks each store once"
    );
    cluster.run_until(SimTime::from_secs_f64(1.65));
    let recovery = cluster.recovery_stats();
    assert_eq!(recovery.antientropy_rounds, 16);
    assert_eq!(recovery.buckets_repaired, 0);
    assert_eq!(
        walks(&cluster),
        vec![1; 4],
        "a fault-free round walked a store"
    );

    // One replica silently loses one key: it diverges from each of the
    // key's two other replicas, and from nobody else.
    let lost = key(0);
    let replicas = cluster.ring().replicas(&lost, 3);
    let victim = replicas[0];
    let state = cluster.node_mut(victim).unwrap();
    state.storage_mut().delete(lost.clone());
    let before = walks(&cluster);
    cluster.run_until(SimTime::from_secs_f64(1.75));
    let walked: Vec<u64> = walks(&cluster)
        .iter()
        .zip(&before)
        .map(|(w, b)| w - b)
        .collect();
    let divergent_pairs = |n: &NodeId| u64::from(replicas.contains(n)) + u64::from(*n == victim);
    assert_eq!(
        walked,
        members.iter().map(divergent_pairs).collect::<Vec<_>>()
    );
    let recovery = cluster.recovery_stats();
    assert_eq!(
        (recovery.buckets_repaired, recovery.entries_repaired),
        (2, 2)
    );

    // Both peers streamed the key; it lands, and the rounds after fold
    // the repair without walking.
    let after = walks(&cluster);
    cluster.run_until(SimTime::from_secs_f64(2.05));
    assert!(cluster.node(victim).unwrap().storage().contains(&lost));
    assert_eq!(walks(&cluster), after);
    assert_eq!(cluster.recovery_stats().buckets_repaired, 2);
}

// ---- ISSUE 12: input validation and the unified node lifecycle ----

#[test]
#[should_panic(expected = "heartbeats already enabled")]
fn enabling_heartbeats_twice_is_rejected() {
    let net = edge_network(1, 3);
    let members = net.topology().edge_nodes();
    let mut cluster = SimCluster::new(members, net, ClusterConfig::default());
    cluster.enable_heartbeats(SimDuration::from_millis(100), SimDuration::from_millis(350));
    // A second call used to start a second tick chain per node.
    cluster.enable_heartbeats_with_dead(
        SimDuration::from_millis(100),
        SimDuration::from_millis(350),
        SimDuration::from_millis(900),
    );
}

#[test]
#[should_panic(expected = "duplicate member node")]
fn duplicate_members_are_rejected() {
    let net = edge_network(1, 3);
    let mut members = net.topology().edge_nodes();
    members.push(members[0]);
    SimCluster::new(members, net, ClusterConfig::default());
}

/// Two edge sites of two nodes plus the cloud, every machine armed, with
/// enough duplicate-heavy traffic through every coordinator that each
/// node holds counters of its own by the time a lifecycle event fires.
fn lifecycle_cluster() -> (SimCluster, Vec<NodeId>) {
    let net = edge_cloud_network(2, 2);
    let members = net.topology().edge_nodes();
    let cloud = net.topology().cloud_nodes()[0];
    let mut cluster = SimCluster::new(
        members.clone(),
        net,
        ClusterConfig {
            replication_factor: 2,
            consistency: Consistency::Quorum,
            ..ClusterConfig::default()
        },
    );
    cluster.set_retry_policy(RetryPolicy::new(7));
    cluster.enable_heartbeats_with_dead(
        SimDuration::from_millis(100),
        SimDuration::from_millis(350),
        SimDuration::from_millis(900),
    );
    cluster.enable_fingerprint_cache(2, 64);
    cluster.enable_hedged_reads(64);
    cluster.enable_pop(0xface);
    cluster.enable_cloud_uplink(cloud, 1 << 16, SimDuration::from_millis(20));
    for i in 0..80u32 {
        let key = Bytes::from(format!("chunk-{}", i % 19).into_bytes());
        cluster.submit(
            SimTime::from_nanos(u64::from(i) * 5_000_000),
            members[(i % 4) as usize],
            ClientOp::CheckAndInsert(key.clone(), key),
        );
    }
    (cluster, members)
}

#[test]
fn every_teardown_folds_the_same_counters() {
    // An instant no periodic round lands on, so the only event between
    // the two snapshots is the teardown itself.
    let at = SimTime::from_nanos(777_777_777);
    let site_of_victim = SiteId(0);
    let victim = edge_cloud_network(2, 2).topology().edge_nodes()[0];
    let table = [
        ("crash-stop", ClusterFault::CrashStop { at, node: victim }),
        ("depart", ClusterFault::Depart { at, node: victim }),
        (
            "ring wipe",
            ClusterFault::RingOutage {
                from: at,
                until: SimTime::from_secs_f64(9.0),
                site: site_of_victim,
            },
        ),
    ];
    for (name, teardown) in table {
        let (mut cluster, _) = lifecycle_cluster();
        assert!(cluster
            .network()
            .topology()
            .nodes_in(site_of_victim)
            .contains(&victim));
        cluster.inject(teardown);
        cluster.run_until(SimTime::from_nanos(at.as_nanos() - 1));
        // The fold is only exercised if the victim holds counters itself.
        let held = cluster.node(victim).expect("victim still live");
        assert!(
            held.stats().byzantine.challenges_issued > 0,
            "{name}: fixture too quiet"
        );
        // A destroyed disk moves its spool's pending entries to burned;
        // nothing the spool had counted goes with it.
        let spooled = |c: &SimCluster| {
            let d = c.disaster_stats();
            let unresolved = d.spool_depth + d.spool_burned;
            (
                d.spool_enqueued,
                d.spool_drained,
                d.spool_retransmits,
                unresolved,
            )
        };
        let counters = |c: &SimCluster| {
            (
                c.coordinator_stats(),
                c.recovery_stats(),
                c.integrity(),
                c.byzantine_stats(),
                c.gray_stats().hedges_won,
                c.cache_stats(),
                spooled(c),
            )
        };
        let before = counters(&cluster);
        assert!(spooled(&cluster).0 > 0, "{name}: fixture spooled nothing");
        cluster.run_until(at);
        assert!(
            cluster.node(victim).is_none(),
            "{name}: victim not torn down"
        );
        let after = counters(&cluster);
        assert_eq!(before, after, "{name}: teardown lost or invented counters");
        // The teardown's common effects, whatever the disk's fate.
        assert!(
            !cluster.membership.detectors.contains_key(&victim),
            "{name}"
        );
        assert_eq!(
            cluster.membership.disks.contains_key(&victim),
            name == "crash-stop"
        );
        assert_eq!(
            cluster.spool(victim).is_some(),
            name == "crash-stop",
            "{name}"
        );
    }
}

#[test]
fn coordinator_counters_survive_every_teardown() {
    // Timeouts, retries and degraded verdicts used to be summed over the
    // *live* nodes only, so a coordinator took them with it when it went
    // down: five timed-out puts read (5, 15) before a crash-stop and
    // restart and (0, 0) after.
    let down = SimTime::from_secs_f64(8.0);
    let up = SimTime::from_secs_f64(9.0);
    let coordinator = edge_network(2, 2).topology().edge_nodes()[0];
    let table: [(&str, &[ClusterFault]); 3] = [
        (
            "crash-stop + restart",
            &[
                ClusterFault::CrashStop {
                    at: down,
                    node: coordinator,
                },
                ClusterFault::Restart {
                    at: up,
                    node: coordinator,
                },
            ],
        ),
        (
            "depart",
            &[ClusterFault::Depart {
                at: down,
                node: coordinator,
            }],
        ),
        (
            "ring wipe + heal",
            &[ClusterFault::RingOutage {
                from: down,
                until: up,
                site: SiteId(0),
            }],
        ),
    ];
    for (name, lifecycle) in table {
        let net = edge_network(2, 2);
        let members = net.topology().edge_nodes();
        let config = ClusterConfig {
            replication_factor: 3,
            consistency: Consistency::Quorum,
            ..ClusterConfig::default()
        };
        let mut cluster = SimCluster::new(members.clone(), net, config);
        cluster.set_retry_policy(RetryPolicy::new(7));
        // Every peer is silent, so each check-and-insert spends its whole
        // retry budget twice — read phase, then the assume-unique write —
        // and resolves degraded.
        for &peer in &members[1..] {
            cluster.inject(ClusterFault::Crash {
                at: SimTime::ZERO,
                node: peer,
            });
        }
        submit_unique_chunks(&mut cluster, coordinator, 5);
        for &fault in lifecycle {
            cluster.inject(fault);
        }
        let read = |c: &SimCluster| (c.timeouts(), c.retries(), c.degraded_ops());
        cluster.run_until(SimTime::from_nanos(down.as_nanos() - 1));
        assert_eq!(read(&cluster), (10, 30, 5), "{name}");
        cluster.run_until(down);
        assert!(cluster.node(coordinator).is_none(), "{name}: still up");
        assert_eq!(read(&cluster), (10, 30, 5), "{name}: teardown");
        cluster.run_until(SimTime::from_secs_f64(10.0));
        let back = cluster.node(coordinator).is_some();
        assert_eq!(back, name != "depart", "{name}");
        assert_eq!(read(&cluster), (10, 30, 5), "{name}: bring-up");
    }
}

#[test]
fn every_bring_up_rearms_watches_and_keeps_the_watermark() {
    let down = SimTime::from_nanos(777_777_777);
    let up = SimTime::from_secs_f64(1.5);
    let node = edge_cloud_network(2, 2).topology().edge_nodes()[0];
    let table: [(&str, &[ClusterFault]); 2] = [
        (
            "restart",
            &[
                ClusterFault::CrashStop { at: down, node },
                ClusterFault::Restart { at: up, node },
            ],
        ),
        (
            "ring heal",
            &[ClusterFault::RingOutage {
                from: down,
                until: up,
                site: SiteId(0),
            }],
        ),
    ];
    for (name, outage) in table {
        let (mut cluster, _) = lifecycle_cluster();
        for &fault in outage {
            cluster.inject(fault);
        }
        cluster.run_until(SimTime::from_nanos(down.as_nanos() - 1));
        let watermark = cluster.node(node).expect("still live").seq_watermark();
        assert!(watermark > 0, "{name}: fixture issued no ops");
        // Whoever is live just before the rejoin must be watched from the
        // first instant (nodes healed in the same instant find each other
        // by their first heartbeat).
        cluster.run_until(SimTime::from_nanos(up.as_nanos() - 1));
        let survivors: Vec<NodeId> = cluster.nodes.keys().copied().collect();
        assert!(
            !survivors.contains(&node) && !survivors.is_empty(),
            "{name}"
        );
        cluster.run_until(up);
        let state = cluster.node(node).expect("rejoined");
        assert!(state.pop_armed(), "{name}: rejoined without PoP");
        assert!(
            state.seq_watermark() >= watermark,
            "{name}: op ids would recycle ({} < {watermark})",
            state.seq_watermark()
        );
        let fd = cluster
            .membership
            .detectors
            .get(&node)
            .unwrap_or_else(|| panic!("{name}: no fresh detector"));
        for peer in survivors {
            assert!(fd.liveness(peer, up).is_some(), "{name}: {peer} unwatched");
        }
        assert!(!cluster.crashed.contains(&node), "{name}");
        assert_eq!(
            cluster.membership.rejoined.get(&node),
            Some(&(up, None)),
            "{name}"
        );
    }
}

/// What a payload costs the checksum kernel, boundary by boundary. On a
/// fault-free γ=2 ring, a unique check-and-insert's payload is digested
/// once where it is submitted, once per replica it arrives at and once
/// at the cloud: its frames, log records, stored copies and spool record
/// all reuse those sums (the content-digest oracle, armed here with PoP,
/// shares the submit digest). And a WAL compaction digests each logged
/// byte once: its one frame walk verifies every frame, and the old and
/// new block checksums fold from it.
#[test]
fn a_payload_is_digested_once_per_boundary_it_crosses() {
    const GAMMA: usize = 2;
    const OPS: usize = 8;
    const LEN: usize = 4096;
    let net = edge_cloud_network(1, 4);
    let members = net.topology().edge_nodes();
    let cloud = net.topology().nodes_in(SiteId(1))[0];
    let config = ClusterConfig {
        replication_factor: GAMMA,
        consistency: Consistency::All,
        wal_snapshot_every: 0,
        ..ClusterConfig::default()
    };
    let mut cluster = SimCluster::new(members.clone(), net, config);
    // One drain round, long enough for every upload's ack to come back:
    // no retransmit arrives at the cloud twice.
    cluster.enable_cloud_uplink(cloud, 1 << 16, SimDuration::from_millis(400));
    cluster.enable_pop(7);
    // The boundaries each payload crosses: its submission, each replica
    // other than its coordinator, the cloud.
    let mut crossings = 0;
    for i in 0..OPS {
        let (key, coordinator) = (Bytes::from(vec![b'k', i as u8]), members[i % members.len()]);
        let replicas = cluster.ring().replicas(&key, GAMMA);
        crossings += 2 + replicas.iter().filter(|&&r| r != coordinator).count();
        let payload: Vec<u8> = (0..LEN).map(|j| (j * 31 + i * 7) as u8).collect();
        let op = ClientOp::CheckAndInsert(key, Bytes::from(payload));
        let at = SimTime::ZERO + SimDuration::from_millis(2 * i as u64);
        cluster.submit(at, coordinator, op);
    }
    assert!(crossings <= (1 + GAMMA + 1) * OPS);
    let before = crate::integrity::digested();
    let done = cluster.run_until(SimTime::from_secs_f64(1.0));
    let digested = crate::integrity::digested() - before;
    let unique = OpResult::Dedup {
        unique: true,
        degraded: false,
    };
    assert!(done.len() == OPS && done.iter().all(|op| op.result == unique));
    assert_eq!(
        cluster.cloud_catalog().len(),
        OPS,
        "not every unique drained"
    );
    assert_eq!(cluster.disaster_stats().spool_retransmits, 0);
    // Each crossing digests the payload once — a receiver re-sums what
    // arrived — and nothing else does. Keys, frame heads and log record
    // heads add a few dozen bytes a frame: far less than one more
    // payload per op.
    let (payloads, heads) = (crossings * LEN, OPS * LEN / 4);
    assert!(
        (payloads..=payloads + heads).contains(&(digested as usize)),
        "{digested} bytes digested for {crossings} crossings of {LEN}-byte payloads"
    );

    // Compacting a replica's log, twice: into a first snapshot, then with
    // that snapshot's block checked and more records behind it.
    let mut wal = cluster.node(members[0]).unwrap().wal().clone();
    for round in 0..2 {
        if round == 1 {
            let payload = crate::integrity::Summed::digest(Bytes::from(vec![9; LEN]));
            wal.append_summed(b"late", Some(&payload));
        }
        // Every logged byte but each frame's stored checksum word, once.
        let logged = wal.len_bytes() as u64 - 8 * wal.record_count();
        let before = crate::integrity::digested();
        wal.compact_now();
        let digested = crate::integrity::digested() - before;
        assert_eq!(wal.snapshots_taken(), round + 1);
        assert_eq!(digested, logged, "compaction {round} read a byte twice");
    }
}
