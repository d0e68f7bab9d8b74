//! Scenario: a city's traffic-camera fleet (the paper's dataset 2).
//!
//! Twelve stationary cameras stream frames from six intersections, two
//! cameras each — but the two cameras of an intersection are backhauled
//! through *different* edge clouds (the paper's central tension:
//! correlated sources are not co-located). We sweep the inter-edge-cloud
//! latency and watch SMART shift from similarity-driven rings (cheap
//! inter-cloud links) to locality-driven rings (expensive links), and
//! then inject an edge-node failure to show the D2-ring index surviving
//! on its replicas.
//!
//! ```bash
//! cargo run --release --example traffic_cameras
//! ```

use bytes::Bytes;
use efdedup_repro::chunking::Chunk;
use efdedup_repro::kvstore::{ClientOp, ClusterFault, OpResult, SimCluster};
use efdedup_repro::prelude::*;
use std::collections::HashSet;

fn main() {
    let cameras = 12;
    let dataset = datasets::traffic_video(cameras, 7);

    println!("== SMART ring structure vs inter-edge-cloud latency ==\n");
    for inter_ms in [1.0, 5.0, 40.0] {
        let topo = TopologyBuilder::new()
            .edge_sites(6, 2)
            .cloud_site(2)
            .build();
        let network = Network::new(
            topo,
            NetworkConfig::paper_testbed().with_inter_edge_latency_ms(inter_ms),
        );
        let edge = network.topology().edge_nodes();
        let inst =
            Snod2Instance::from_parts(dataset.model(), network.cost_matrix(&edge), 0.02, 2, 10.0)
                .expect("valid instance");
        // Three rings of ~4 cameras: ring size exceeds the replication
        // factor, so non-local lookups (and the latency trade-off) are in
        // play.
        let partition = SmartGreedy.partition(&inst, 3);
        let cost = inst.total_cost(&partition);
        // How many rings keep both cameras of some intersection together?
        let coherent = partition
            .rings()
            .iter()
            .filter(|ring| {
                ring.iter().any(|&a| {
                    ring.iter().any(|&b| a != b && a % 6 == b % 6) // same group
                })
            })
            .count();
        println!(
            "inter-cloud {inter_ms:>5.1} ms: {} rings, {} similarity-coherent, \
             storage {:.0}, network {:.0}",
            partition.ring_count(),
            coherent,
            cost.storage,
            cost.network
        );
    }

    println!("\n== Dedup run + failure injection on one D2-ring ==\n");
    // Build a 4-node ring index as the deployed system would and stream
    // both intersections' chunks through it.
    let members: Vec<NodeId> = (0..4).map(NodeId).collect();
    let mut ring = LocalCluster::new(
        members.clone(),
        ClusterConfig {
            replication_factor: 2,
            ..ClusterConfig::default()
        },
    );
    let chunker = FixedChunker::new(dataset.model().chunk_size()).expect("valid chunk size");
    let mut unique = 0usize;
    let mut total = 0usize;
    let mut distinct = HashSet::new();
    for (cam, &member) in members.iter().enumerate().take(4) {
        let frames = dataset.file(cam, 0, 0, 300);
        for chunk in chunker.chunk(&frames) {
            total += 1;
            distinct.insert(chunk.hash);
            if ring
                .check_and_insert(member, chunk.hash.as_bytes(), Bytes::from_static(&[1]))
                .expect("ring available")
            {
                unique += 1;
            }
        }
    }
    println!(
        "streamed {total} chunks, {unique} unique -> ring dedup ratio {:.2}",
        total as f64 / unique as f64
    );
    assert_eq!(unique, distinct.len(), "the ring's verdicts match a set");

    // Kill one edge node mid-operation on the simulated ring: with
    // replication factor 2 the index stays available, and hinted handoff
    // repairs the node once heartbeats show it back.
    let net = Network::new(
        TopologyBuilder::new().edge_site(4).build(),
        NetworkConfig::paper_testbed(),
    );
    let nodes = net.topology().edge_nodes();
    let mut sim = SimCluster::new(nodes.clone(), net, ClusterConfig::default());
    let (ms, at) = (SimDuration::from_millis, SimTime::from_secs_f64);
    sim.enable_heartbeats(ms(100), ms(350));
    let victim = nodes[2];
    sim.inject(ClusterFault::Crash {
        at: at(1.0),
        node: victim,
    });
    sim.inject(ClusterFault::Revive {
        at: at(3.0),
        node: victim,
    });
    let check = |chunk: &Chunk| {
        let hash = Bytes::copy_from_slice(chunk.hash.as_bytes());
        ClientOp::CheckAndInsert(hash, Bytes::from_static(&[1]))
    };
    let submit_all = |sim: &mut SimCluster, from: f64, node: NodeId, chunks: &[Chunk]| {
        for (i, chunk) in (0u64..).zip(chunks) {
            sim.submit(at(from) + ms(i), node, check(chunk));
        }
    };
    let held = |sim: &SimCluster| {
        let node = sim.node(victim).expect("victim is up");
        node.storage().stats().live_keys
    };
    let seen = chunker.chunk(&dataset.file(0, 0, 0, 300));
    submit_all(&mut sim, 0.0, nodes[0], &seen);
    sim.run_until(at(0.9));
    let before = held(&sim);

    submit_all(&mut sim, 1.5, nodes[0], &seen);
    let probes = sim.run_until(at(2.0));
    let found = probes
        .iter()
        .filter(|p| matches!(p.result, OpResult::Dedup { unique: false, .. }))
        .count();
    println!(
        "node {victim} down: {found}/{} previously seen chunks still found (no re-upload)",
        seen.len()
    );
    assert_eq!((found, probes.len()), (seen.len(), seen.len()));

    // New chunks written while n2 is down are hinted...
    submit_all(
        &mut sim,
        2.0,
        nodes[1],
        &chunker.chunk(&dataset.file(1, 1, 0, 100)),
    );
    sim.run_until(at(2.9));
    let hints = sim.total_hints();
    sim.run_until(at(4.0));
    let replayed = held(&sim) - before;
    println!("{victim} recovers: hinted handoff replayed {replayed} index entries onto it");
    assert!(hints > 0, "no write was hinted for the crashed node");
    assert_eq!((replayed, sim.total_hints()), (hints, 0));
}
