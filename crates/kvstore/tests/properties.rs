//! Property tests for the distributed key-value store.

use bytes::Bytes;
use ef_kvstore::{ClusterConfig, Consistency, HashRing, LocalCluster};
use ef_netsim::NodeId;
use ef_simcore::prop::{any, check, vec};

/// Replica sets are deterministic, distinct, and capped at the
/// member count for arbitrary keys and cluster sizes.
#[test]
fn replica_sets_well_formed() {
    check(
        "replica_sets_well_formed",
        256,
        (vec(any::<u8>(), 1..64), 1u32..20, 1usize..5),
        |(key, nodes, rf)| {
            let ring = HashRing::with_nodes((0..nodes).map(NodeId), 32);
            let reps = ring.replicas(&key, rf);
            assert_eq!(reps.len(), rf.min(nodes as usize));
            let distinct: std::collections::HashSet<_> = reps.iter().collect();
            assert_eq!(distinct.len(), reps.len());
            assert_eq!(&ring.replicas(&key, rf), &reps);
        },
    );
}

/// A healthy cluster is a faithful map: last write wins, reads see
/// writes, deletes remove — across arbitrary op sequences through
/// arbitrary coordinators.
#[expect(
    clippy::iter_over_hash_type,
    reason = "every model entry is asserted on its own, so the order is immaterial"
)]
#[test]
fn cluster_behaves_like_a_map() {
    check(
        "cluster_behaves_like_a_map",
        256,
        (vec((0u8..3, 0u8..16, any::<u8>(), 0u8..5), 1..80), 0u8..3),
        |(ops, consistency_pick)| {
            let consistency = match consistency_pick {
                0 => Consistency::One,
                1 => Consistency::Quorum,
                _ => Consistency::All,
            };
            let mut cluster = LocalCluster::new(
                (0..5).map(NodeId).collect(),
                ClusterConfig {
                    consistency,
                    ..ClusterConfig::default()
                },
            );
            let mut model: std::collections::HashMap<u8, u8> = Default::default();
            for (kind, key, value, coord) in ops {
                let coordinator = NodeId(u32::from(coord));
                let k = [key];
                match kind {
                    0 => {
                        cluster
                            .put(coordinator, &k, Bytes::from(vec![value]))
                            .unwrap();
                        model.insert(key, value);
                    }
                    1 => {
                        cluster.delete(coordinator, &k).unwrap();
                        model.remove(&key);
                    }
                    _ => {
                        let got = cluster.get(coordinator, &k).unwrap();
                        let want = model.get(&key).map(|v| Bytes::from(vec![*v]));
                        assert_eq!(got, want);
                    }
                }
            }
            // Final sweep: every model entry visible from every coordinator.
            for (key, value) in &model {
                for c in 0..5u32 {
                    assert_eq!(
                        cluster.get(NodeId(c), &[*key]).unwrap(),
                        Some(Bytes::from(vec![*value]))
                    );
                }
            }
        },
    );
}

/// Membership churn never loses data: after arbitrary add/remove
/// sequences (keeping ≥2 members), every key is readable and lives on
/// exactly rf replicas.
#[test]
fn membership_churn_preserves_data() {
    check(
        "membership_churn_preserves_data",
        256,
        (vec(any::<bool>(), 1..6), 1u32..60),
        |(churn, keys)| {
            let mut cluster =
                LocalCluster::new((0..4).map(NodeId).collect(), ClusterConfig::default());
            for i in 0..keys {
                cluster
                    .put(NodeId(i % 4), &i.to_be_bytes(), Bytes::from_static(b"v"))
                    .unwrap();
            }
            let mut next_new = 10u32;
            for add in churn {
                let members = cluster.members();
                if add {
                    cluster.add_node(NodeId(next_new));
                    next_new += 1;
                } else if members.len() > 2 {
                    cluster.remove_node(members[members.len() / 2]);
                }
            }
            let coordinator = cluster.members()[0];
            for i in 0..keys {
                assert_eq!(
                    cluster.get(coordinator, &i.to_be_bytes()).unwrap(),
                    Some(Bytes::from_static(b"v")),
                    "key {} lost",
                    i
                );
            }
            assert_eq!(cluster.total_replica_entries(), 2 * cluster.distinct_keys());
        },
    );
}

/// Single-failure soundness: with rf=2 and any one node down, all
/// previously written keys stay readable from any up coordinator.
#[test]
fn single_failure_preserves_reads() {
    check(
        "single_failure_preserves_reads",
        256,
        (0u32..5, 1u32..60),
        |(victim, keys)| {
            let mut cluster =
                LocalCluster::new((0..5).map(NodeId).collect(), ClusterConfig::default());
            for i in 0..keys {
                cluster
                    .put(NodeId(i % 5), &i.to_be_bytes(), Bytes::from_static(b"v"))
                    .unwrap();
            }
            cluster.set_down(NodeId(victim));
            let coordinator = (0..5u32)
                .map(NodeId)
                .find(|&n| !cluster.is_down(n))
                .unwrap();
            for i in 0..keys {
                assert_eq!(
                    cluster.get(coordinator, &i.to_be_bytes()).unwrap(),
                    Some(Bytes::from_static(b"v"))
                );
            }
        },
    );
}

/// One-sided soundness of the fingerprint cache as a data structure:
/// under arbitrary interleavings of inserts, lookups, evictions
/// (tiny capacities), and clears (restarts), `contains` may forget
/// keys but never reports a key that was not inserted since the last
/// clear.
#[test]
fn cache_never_invents_keys() {
    check(
        "cache_never_invents_keys",
        256,
        (vec((0u8..3, 0u8..32), 1..200), 1usize..5, 1usize..4),
        |(ops, shards, per_shard)| {
            let mut cache = ef_kvstore::FingerprintCache::new(shards, per_shard);
            let mut inserted: std::collections::HashSet<u8> = Default::default();
            for (kind, key) in ops {
                let k = [key];
                match kind {
                    0 => {
                        cache.insert(Bytes::copy_from_slice(&k));
                        inserted.insert(key);
                    }
                    1 => {
                        if cache.contains(&k) {
                            assert!(
                                inserted.contains(&key),
                                "cache invented key {key} — false duplicate"
                            );
                        }
                    }
                    _ => {
                        cache.clear();
                        inserted.clear();
                    }
                }
                assert!(cache.len() <= cache.capacity());
            }
        },
    );
}

/// Cached verdicts change nothing observable: an arbitrary
/// check-and-insert schedule on a healthy cluster resolves to the
/// identical per-op outcome (same op ids, same unique/duplicate
/// verdicts) with the cache on and off — only latencies may differ.
#[test]
fn cache_on_and_off_agree_on_every_verdict() {
    check(
        "cache_on_and_off_agree_on_every_verdict",
        256,
        vec((0u8..12, 0u8..6), 1..60),
        |schedule| {
            use ef_kvstore::{ClientOp, SimCluster};
            use ef_netsim::{Network, NetworkConfig, TopologyBuilder};
            use ef_simcore::{SimDuration, SimTime};

            let run = |cached: bool| {
                let topo = TopologyBuilder::new().edge_site(3).edge_site(3).build();
                let net = Network::new(topo, NetworkConfig::paper_testbed());
                let members = net.topology().edge_nodes();
                let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
                if cached {
                    cluster.enable_fingerprint_cache(2, 2);
                }
                let mut t = SimTime::ZERO + SimDuration::from_millis(5);
                for &(key, coord) in &schedule {
                    let coordinator = members[coord as usize % members.len()];
                    let key = Bytes::from(vec![key]);
                    cluster.submit(t, coordinator, ClientOp::CheckAndInsert(key.clone(), key));
                    t += SimDuration::from_millis(97);
                }
                let mut done = cluster.run_until(t + SimDuration::from_secs(60));
                done.sort_by_key(|l| (l.op_id.coordinator, l.op_id.seq));
                (done, cluster.inflight())
            };
            let (off, inflight_off) = run(false);
            let (on, inflight_on) = run(true);
            assert_eq!(inflight_off, 0, "uncached run left ops in flight");
            assert_eq!(inflight_on, 0, "cached run left ops in flight");
            assert_eq!(off.len(), on.len());
            for (a, b) in off.iter().zip(&on) {
                assert_eq!(a.op_id, b.op_id);
                assert_eq!(&a.result, &b.result, "op {:?} diverged", a.op_id);
            }
        },
    );
}

/// Hedge soundness: under an arbitrary fail-slow plan (arbitrary
/// victim, arbitrary severity), an arbitrary check-and-insert
/// schedule resolves to the identical per-op dedup verdict with the
/// whole gray-mitigation stack armed and with it off. Hedging may
/// only move *when* an answer arrives, never *what* it is: a hedge
/// completes solely on a replica's positive sighting.
#[test]
fn hedged_and_unhedged_agree_on_every_verdict() {
    check(
        "hedged_and_unhedged_agree_on_every_verdict",
        256,
        (vec((0u8..10, 0u8..6), 1..24), 0u8..6, 2u32..64),
        |(schedule, victim, severity)| {
            use ef_kvstore::{ClientOp, SimCluster};
            use ef_netsim::{FaultPlan, Network, NetworkConfig, TopologyBuilder};
            use ef_simcore::{SimDuration, SimTime};

            let run = |mitigate: bool| {
                let topo = TopologyBuilder::new().edge_site(3).edge_site(3).build();
                let mut net = Network::new(topo, NetworkConfig::paper_testbed());
                let members = net.topology().edge_nodes();
                let slow = members[victim as usize % members.len()];
                net.set_fault_plan(FaultPlan::new(7).slow_node(
                    slow,
                    f64::from(severity),
                    SimTime::ZERO,
                    SimTime::MAX,
                ));
                let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
                if mitigate {
                    cluster.enable_adaptive_rto(
                        SimDuration::from_micros(500),
                        SimDuration::from_secs(1),
                    );
                    cluster.enable_slow_detection(SimDuration::from_millis(20));
                    cluster.enable_hedged_reads(1024);
                }
                // Ops are spaced past the worst slow-path round trips so each
                // settles before the next begins: the verdict schedule is then
                // timing-independent and any hedged/unhedged divergence is a
                // soundness bug, not a benign race.
                let mut t = SimTime::ZERO + SimDuration::from_millis(5);
                for &(key, coord) in &schedule {
                    let coordinator = members[coord as usize % members.len()];
                    let key = Bytes::from(vec![key]);
                    cluster.submit(t, coordinator, ClientOp::CheckAndInsert(key.clone(), key));
                    t += SimDuration::from_millis(2500);
                }
                let mut done = cluster.run_until(t + SimDuration::from_secs(60));
                done.sort_by_key(|l| (l.op_id.coordinator, l.op_id.seq));
                (done, cluster.inflight())
            };
            let (plain, inflight_plain) = run(false);
            let (hedged, inflight_hedged) = run(true);
            assert_eq!(inflight_plain, 0, "unhedged run left ops in flight");
            assert_eq!(inflight_hedged, 0, "hedged run left ops in flight");
            assert_eq!(plain.len(), hedged.len());
            for (a, b) in plain.iter().zip(&hedged) {
                assert_eq!(a.op_id, b.op_id);
                assert_eq!(
                    &a.result, &b.result,
                    "hedging changed the verdict of op {:?}",
                    a.op_id
                );
            }
        },
    );
}

/// The adaptive retransmission timer never escapes its clamp: for
/// arbitrary RTT sample sequences — smooth, bursty, or adversarial —
/// every published RTO stays within `[floor, ceiling]`, and the
/// estimator itself (Jacobson/Karels) never proposes a timeout below
/// the smoothed RTT.
#[test]
fn adaptive_rto_stays_clamped() {
    check(
        "adaptive_rto_stays_clamped",
        256,
        (
            vec(0u64..10_000_000_000, 1..50),
            1u64..5_000,
            0u64..2_000_000,
        ),
        |(samples, floor_us, span_us)| {
            use ef_kvstore::AdaptiveTimeouts;
            use ef_simcore::SimDuration;

            let floor = SimDuration::from_micros(floor_us);
            let ceiling = floor + SimDuration::from_micros(span_us);
            let mut timers = AdaptiveTimeouts::new(floor, ceiling);
            let mut estimator = ef_kvstore::RttEstimator::new();
            let observer = NodeId(0);
            let peer = NodeId(1);
            for ns in &samples {
                let sample = SimDuration::from_nanos(*ns);
                timers.observe(observer, peer, sample);
                estimator.observe(sample);
                let rto = timers
                    .rto_of(observer, peer)
                    .expect("sampled peer has an RTO");
                assert!(rto >= floor, "RTO {rto} fell below the floor {floor}");
                assert!(rto <= ceiling, "RTO {rto} rose above the ceiling {ceiling}");
                assert!(
                    estimator.rto() >= estimator.srtt(),
                    "raw estimator proposed a timeout below its smoothed RTT"
                );
            }
            assert_eq!(timers.total_samples(), samples.len() as u64);
            // An unsampled pair publishes nothing rather than a default.
            assert!(timers.rto_of(peer, observer).is_none());
        },
    );
}

/// Partition-heal convergence: for arbitrary write schedules issued
/// through both sides of an arbitrary inter-site partition window,
/// once the partition heals and anti-entropy runs, (a) no key was
/// ever judged a duplicate without at least one unique verdict (a
/// false duplicate drops the only copy — data loss), and (b) every
/// key acked unique is readable, byte-identical, on *every* ring
/// replica — the sides reconverged rather than splitting brains.
#[expect(
    clippy::wildcard_enum_match_arm,
    reason = "any outcome besides a verdict or unavailability fails the test"
)]
#[test]
fn partition_heal_converges_without_false_duplicates() {
    check(
        "partition_heal_converges_without_false_duplicates",
        24,
        (vec((0u8..12, 0u8..6), 1..24), 0u64..400, 50u64..800),
        |(schedule, start_ms, window_ms)| {
            use ef_kvstore::sweep::{assert_no_false_duplicates, Ledger};
            use ef_kvstore::{OpResult, SimCluster};
            use ef_netsim::{FaultPlan, Network, NetworkConfig, SiteId, TopologyBuilder};
            use ef_simcore::{SimDuration, SimTime};

            let topo = TopologyBuilder::new().edge_site(3).edge_site(3).build();
            let mut net = Network::new(topo, NetworkConfig::paper_testbed());
            let members = net.topology().edge_nodes();
            let from = SimTime::ZERO + SimDuration::from_millis(start_ms);
            let heal = from + SimDuration::from_millis(window_ms);
            net.set_fault_plan(FaultPlan::new(11).partition(SiteId(0), SiteId(1), from, heal));
            let rf = ClusterConfig::default().replication_factor;
            let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
            cluster.enable_anti_entropy(SimDuration::from_millis(100), 4);

            // Writes spaced to straddle the partition window, issued from
            // both sites so each side keeps accepting what it can.
            let mut ledger = Ledger::default();
            let mut t = SimTime::ZERO + SimDuration::from_millis(3);
            for &(key, coord) in &schedule {
                let coordinator = members[coord as usize % members.len()];
                let kb = Bytes::from(vec![key]);
                ledger.submit(&mut cluster, t, coordinator, key.into(), (kb.clone(), kb));
                t += SimDuration::from_millis(67);
            }
            let done = cluster.run_until(heal.max(t) + SimDuration::from_secs(10));
            assert_eq!(cluster.inflight(), 0, "ops still in flight after heal");

            let done = ledger.resolve(done);
            let mut uniques = std::collections::BTreeSet::new();
            for c in &done {
                match c.op.result {
                    OpResult::Dedup { unique: true, .. } => uniques.extend(c.key),
                    OpResult::Dedup { .. } | OpResult::Unavailable { .. } => {}
                    ref other => {
                        panic!("check-and-insert resolved {other:?}");
                    }
                }
            }
            assert_no_false_duplicates(&done, false, "partition heal");
            // Convergence: every acked-unique key on every replica, byte
            // for byte — the healed sides agree.
            for key in uniques {
                let kb = Bytes::from(vec![key as u8]);
                for replica in cluster.ring().replicas(&kb, rf) {
                    let got = cluster
                        .node_mut(replica)
                        .expect("no churn in this property")
                        .storage_mut()
                        .get(&kb);
                    assert_eq!(
                        got.as_ref(),
                        Some(&kb),
                        "replica {:?} missing or diverged on key {} after heal",
                        replica,
                        key
                    );
                }
            }
        },
    );
}
