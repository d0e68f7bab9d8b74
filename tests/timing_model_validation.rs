//! Validates the analytic lookup-latency model the system runner uses
//! against the message-level `SimCluster` driver — the cross-check
//! DESIGN.md §4 promises.
//!
//! The runner prices an EF-dedup hash lookup as: local (free) when the
//! coordinator is a replica, otherwise one RTT to the nearest replica.
//! The simulated cluster executes the same reads as real request/
//! response message flows over the same network. Both must agree.

use bytes::Bytes;
use ef_kvstore::{ClientOp, ClusterConfig, Consistency, SimCluster};
use ef_netsim::{Network, NetworkConfig, TopologyBuilder};
use ef_simcore::{SimDuration, SimTime};

fn network() -> Network {
    // Two edge clouds of two nodes: both intra-site (1.7 ms RTT) and
    // inter-site (10 ms RTT) lookups occur.
    let topo = TopologyBuilder::new().edge_sites(2, 2).build();
    Network::new(topo, NetworkConfig::paper_testbed())
}

#[test]
fn analytic_lookup_latency_matches_simulated_reads() {
    let reference = network();
    let members = reference.topology().edge_nodes();
    let config = ClusterConfig {
        replication_factor: 2,
        consistency: Consistency::One,
        ..ClusterConfig::default()
    };
    let mut sim = SimCluster::new(members.clone(), network(), config);

    // Seed 150 keys (writes; their latencies are not under test).
    let mut t = SimTime::ZERO;
    for i in 0..150u32 {
        sim.submit(
            t,
            members[(i % 4) as usize],
            ClientOp::Put(
                Bytes::from(i.to_be_bytes().to_vec()),
                Bytes::from_static(b"v"),
            ),
        );
        t += SimDuration::from_millis(20);
    }
    sim.run();

    // Read every key from node 0, spaced out (no queueing), recording
    // the analytic prediction per key alongside.
    let coordinator = members[0];
    let ring = ef_kvstore::HashRing::with_nodes(members.iter().copied(), ef_kvstore::VNODES);
    let mut predictions = Vec::new();
    let mut read_start = t;
    for i in 0..150u32 {
        let key = i.to_be_bytes();
        let replicas = ring.replicas(&key, 2);
        let predicted_ms = if replicas.contains(&coordinator) {
            0.0 // served locally
        } else {
            replicas
                .iter()
                .map(|r| reference.rtt(coordinator, *r).as_millis_f64())
                .fold(f64::INFINITY, f64::min)
        };
        predictions.push(predicted_ms);
        sim.submit(
            read_start,
            coordinator,
            ClientOp::Get(Bytes::from(key.to_vec())),
        );
        read_start += SimDuration::from_millis(50);
    }
    let reads = sim.run();
    assert_eq!(reads.len(), 150);

    // Completion order equals submission order here (serial, spaced).
    let mut sorted = reads;
    sorted.sort_by_key(|l| l.started);
    for (i, (lat, predicted_ms)) in sorted.iter().zip(&predictions).enumerate() {
        let measured_ms = lat.latency().as_millis_f64();
        // The simulated path adds wire serialization (~µs); allow 15%
        // + 100µs of slack. For "local" predictions the simulated read
        // completes in ~0 time at the coordinator.
        let slack = predicted_ms * 0.15 + 0.1;
        assert!(
            (measured_ms - predicted_ms).abs() <= slack,
            "key {i}: predicted {predicted_ms} ms, simulated {measured_ms} ms"
        );
    }

    // And the population splits exactly as the model says: local reads
    // (≈0) vs intra-site (≈1.7 ms) vs inter-site (≈10 ms).
    let local = predictions.iter().filter(|p| **p == 0.0).count();
    assert!(local > 0, "no local lookups in the sample");
    assert!(
        predictions.iter().any(|p| *p > 5.0),
        "no inter-site lookups in the sample"
    );
}
