//! Full storage-system integration: edge ring dedup decides what crosses
//! the WAN; the cloud stores unique chunks once and hands back a
//! manifest per file; every file restores byte-exact — including after
//! cloud storage-node failures under erasure coding.

use bytes::Bytes;
use efdedup_repro::prelude::*;

/// The complete upload path: chunk at the edge, dedup in the ring,
/// store in the erasure-coded cloud, lose two storage nodes, restore.
#[test]
fn edge_dedup_to_cloud_restore_roundtrip() {
    let dataset = datasets::traffic_video(4, 8);
    let chunker = FixedChunker::new(dataset.model().chunk_size()).unwrap();
    let members: Vec<NodeId> = (0..4).map(NodeId).collect();
    let mut ring = LocalCluster::new(members.clone(), ClusterConfig::default());
    let mut cloud = DurableStore::new(6, Durability::ErasureCoded { k: 4, m: 2 }).unwrap();

    let mut wan_chunks = 0usize;
    let mut total_chunks = 0usize;
    let mut files: Vec<(Manifest, Vec<u8>)> = Vec::new();

    for (node, &member) in members.iter().enumerate() {
        let file = dataset.file(node, 0, 0, 200);
        let chunks = chunker.chunk(&file);
        total_chunks += chunks.len();
        // The Dedup Agent's loop: lookup/insert in the ring index;
        // unique chunks cross the WAN. The *manifest* references every
        // chunk — the cloud keeps each address once.
        for c in &chunks {
            if ring
                .check_and_insert(member, c.hash.as_bytes(), Bytes::from_static(&[1]))
                .unwrap()
            {
                wan_chunks += 1;
            }
        }
        let manifest = cloud
            .store_file(&chunks)
            .expect("edge-shipped chunks hash to their addresses");
        files.push((manifest, file));
    }

    // Dedup actually suppressed WAN traffic.
    assert!(
        wan_chunks < total_chunks,
        "no dedup: {wan_chunks}/{total_chunks}"
    );
    // The cloud's physical copy count equals the ring's unique count:
    // the edge decision and the cloud's content addressing agree.
    assert_eq!(cloud.chunk_count(), wan_chunks);

    // Every file restores byte-exact from the degraded store.
    cloud.fail_node(1);
    cloud.fail_node(4);
    for (manifest, original) in &files {
        assert_eq!(&cloud.restore(manifest).unwrap(), original);
    }
}

/// The future-work extension end-to-end: chunks stored erasure-coded
/// across cloud storage nodes survive node failures and restore files.
#[test]
fn erasure_coded_cloud_survives_node_failures() {
    let dataset = datasets::accelerometer(2, 44);
    let chunker = FixedChunker::new(dataset.model().chunk_size()).unwrap();
    let file = dataset.file(0, 0, 0, 150);
    let chunks = chunker.chunk(&file);

    // 6 storage nodes, RS(4,2): 1.5x overhead, 2-failure tolerance.
    let mut durable = DurableStore::new(6, Durability::ErasureCoded { k: 4, m: 2 }).unwrap();
    let manifest = durable.store_file(&chunks).unwrap();
    let overhead = durable.physical_bytes() as f64 / durable.logical_bytes() as f64;
    assert!(
        overhead < 1.6,
        "erasure overhead {overhead} should be near 1.5"
    );

    durable.fail_node(2);
    durable.fail_node(5);

    // Reassemble the file purely from the degraded durable store.
    assert_eq!(durable.restore(&manifest).unwrap(), file);

    // Compare against replication at the same fault tolerance.
    let mut replicated = DurableStore::new(6, Durability::Replicated { copies: 3 }).unwrap();
    replicated.store_file(&chunks).unwrap();
    assert!(
        (replicated.physical_bytes() as f64 / durable.physical_bytes() as f64) > 1.9,
        "erasure should roughly halve the 3x replication footprint"
    );
}

/// Reed–Solomon composes with the content-defined chunker: variable-size
/// chunks encode and reconstruct too.
#[test]
fn erasure_with_cdc_chunks() {
    let dataset = datasets::traffic_video(1, 3);
    let file = dataset.file(0, 0, 0, 80);
    let chunker = GearChunker::default();
    let rs = ReedSolomon::new(3, 2).unwrap();
    for c in chunker.chunk(&file) {
        let shards = rs.encode(&c.data).unwrap();
        let mut received: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        received[0] = None;
        received[3] = None;
        let restored = rs.reconstruct(&received, c.len()).unwrap();
        assert_eq!(restored, c.data.to_vec());
    }
}
