//! End-to-end integration: real bytes through the full pipeline —
//! dataset generation → chunking → hashing → distributed index (store
//! cluster) → upload decision — checked against a local reference
//! measurement.

use bytes::Bytes;
use efdedup_repro::prelude::*;

#[test]
fn ring_dedup_matches_reference_measurement() {
    // Both chunking engines, same contract: whatever the chunker, the
    // distributed ring must land on exactly the local reference ratio.
    let dataset = datasets::traffic_video(4, 3);
    let streams: Vec<Vec<u8>> = (0..4).map(|s| dataset.file(s, 0, 0, 300)).collect();

    for chunker in ChunkerKind::both(dataset.model().chunk_size()).unwrap() {
        // Reference: joint dedup ratio measured with a local index.
        let views: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
        let reference = ef_chunking::joint_dedup_ratio(&chunker, &views);

        // System: a 4-node D2-ring deduplicating the same bytes.
        let members: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mut ring = LocalCluster::new(members.clone(), ClusterConfig::default());
        // Byte-weighted like the reference: gear-CDC chunks vary in size,
        // so chunk counts and byte totals are no longer interchangeable.
        let mut total = 0usize;
        let mut unique = 0usize;
        for (node, stream) in streams.iter().enumerate() {
            for chunk in chunker.chunk(stream) {
                total += chunk.len();
                if ring
                    .check_and_insert(
                        members[node],
                        chunk.hash.as_bytes(),
                        Bytes::from_static(&[1]),
                    )
                    .unwrap()
                {
                    unique += chunk.len();
                }
            }
        }

        let measured = total as f64 / unique as f64;
        assert!(
            (measured - reference).abs() < 1e-9,
            "{}: ring dedup {measured} != reference {reference}",
            chunker.label()
        );
        // The pool-aligned fixed chunker resolves the video duplicates;
        // gear-CDC boundaries don't line up with the 4 kB pools, so it
        // only has to stay sound (ratio >= 1), not match the alignment.
        let floor = if chunker.label() == "fixed" { 1.4 } else { 1.0 };
        assert!(
            measured >= floor,
            "{}: expected ratio >= {floor}, got {measured}",
            chunker.label()
        );
    }
}

#[test]
fn cdc_chunking_full_pipeline() {
    // The variable-size chunking extension works through the same
    // pipeline: chunk with CDC, dedup in a local cluster.
    let dataset = datasets::accelerometer(2, 5);
    let chunker = GearChunker::default();
    let a = dataset.file(0, 0, 0, 100);
    let b = dataset.file(0, 0, 0, 100); // identical file
    let mut cluster = LocalCluster::new(vec![NodeId(0), NodeId(1)], ClusterConfig::default());
    let mut unique = 0usize;
    let mut total = 0usize;
    for (node, stream) in [(0u32, &a), (1u32, &b)] {
        for chunk in chunker.chunk(stream) {
            total += 1;
            if cluster
                .check_and_insert(
                    NodeId(node),
                    chunk.hash.as_bytes(),
                    Bytes::from_static(&[1]),
                )
                .unwrap()
            {
                unique += 1;
            }
        }
    }
    // The second, identical file must dedup ~completely.
    assert!(
        (total - unique) * 2 >= total,
        "identical file did not dedup: {unique}/{total} unique"
    );
}

#[test]
fn both_drivers_give_identical_verdicts() {
    // One check-and-insert sequence through the instant and simulated
    // drivers: every verdict, op by op, must be the one a plain
    // set gives. 280 keys over 480 ops (200 duplicates, 42 %); a key's
    // second sighting arrives through the next coordinator round the ring.
    use ef_kvstore::{ClientOp, OpResult, SimCluster};
    use std::collections::BTreeSet;

    const OPS: usize = 480;
    const KEYS: usize = 280;
    let topo = TopologyBuilder::new().edge_sites(2, 2).build();
    let net = Network::new(topo, NetworkConfig::paper_testbed());
    let members = net.topology().edge_nodes();
    let config = ClusterConfig::default();
    let ops: Vec<(NodeId, [u8; 4])> = (0..OPS)
        .map(|i| {
            let coordinator = members[(i + i / KEYS) % members.len()];
            (coordinator, ((i * 7 % KEYS) as u32).to_be_bytes())
        })
        .collect();

    let mut seen = BTreeSet::new();
    let reference: Vec<bool> = ops.iter().map(|(_, key)| seen.insert(*key)).collect();
    let duplicates = reference.iter().filter(|unique| !**unique).count();
    assert!(duplicates * 10 >= OPS * 3, "only {duplicates} duplicates");

    let mut local = LocalCluster::new(members.clone(), config);
    let instant: Vec<bool> = ops
        .iter()
        .map(|(coordinator, key)| {
            local
                .check_and_insert(*coordinator, key, Bytes::from_static(b"v"))
                .unwrap()
        })
        .collect();

    // Fault-free, and spaced so that no two ops overlap: completion order
    // is then submission order.
    let spacing = SimDuration::from_secs(1);
    let mut sim = SimCluster::new(members.clone(), net, config);
    let mut t = SimTime::ZERO;
    for (coordinator, key) in &ops {
        let key = Bytes::copy_from_slice(key);
        sim.submit(
            t,
            *coordinator,
            ClientOp::CheckAndInsert(key, Bytes::from_static(b"v")),
        );
        t += spacing;
    }
    let done = sim.run();
    assert_eq!(done.len(), OPS);
    let simulated: Vec<bool> = done
        .iter()
        .enumerate()
        .map(|(i, l)| {
            assert_eq!(l.started, SimTime::ZERO + spacing * i as u64, "op {i}");
            assert!(l.latency() < spacing, "op {i} overlaps the next");
            match l.result {
                OpResult::Dedup {
                    unique,
                    degraded: false,
                } => unique,
                ref other => panic!("op {i} resolved {other:?}"),
            }
        })
        .collect();

    for (i, want) in reference.iter().enumerate() {
        assert_eq!(instant[i], *want, "LocalCluster, op {i}");
        assert_eq!(simulated[i], *want, "SimCluster, op {i}");
    }
}

#[test]
fn workspace_crates_compose_through_prelude() {
    // Sanity: the umbrella prelude exposes a coherent API surface.
    let rng = DetRng::new(1);
    assert_eq!(rng.seed(), 1);
    let v = CharacteristicVector::uniform(3);
    assert_eq!(v.pool_count(), 3);
    let model = GenerativeModel::new(vec![10, 10, 10], 64, vec![SourceSpec::new(1.0, v)]).unwrap();
    assert_eq!(model.source_count(), 1);
    let h = ChunkHash::of(b"x");
    assert_eq!(h, ChunkHash::of(b"x"));
}
