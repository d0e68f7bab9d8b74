//! Tour of the distributed key-value store that backs every D2-ring.
//!
//! Shows the Cassandra-like machinery the paper relies on (Sec. IV):
//! consistent-hash placement, replication, consistency levels, node
//! failure with hinted handoff, seamless membership changes — on the
//! instant in-process cluster.
//!
//! ```bash
//! cargo run --release --example kvstore_tour
//! ```

use bytes::Bytes;
use efdedup_repro::prelude::*;

fn main() {
    println!("== placement: consistent hashing with virtual nodes ==\n");
    let ring = ef_kvstore::HashRing::with_nodes((0..5).map(NodeId), 64);
    for key in [b"chunk-aa".as_slice(), b"chunk-bb", b"chunk-cc"] {
        println!(
            "{} -> replicas {:?}",
            String::from_utf8_lossy(key),
            ring.replicas(key, 2)
        );
    }
    println!("\nownership balance (fraction of token space):");
    for (node, frac) in ring.ownership() {
        println!("  {node}: {:.1}%", frac * 100.0);
    }

    println!("\n== failure + hinted handoff on the in-process cluster ==\n");
    let mut cluster = LocalCluster::new(
        (0..5).map(NodeId).collect(),
        ClusterConfig {
            replication_factor: 2,
            consistency: Consistency::One,
            ..ClusterConfig::default()
        },
    );
    for i in 0..100u32 {
        cluster
            .put(NodeId(i % 5), &i.to_be_bytes(), Bytes::from_static(b"h"))
            .expect("cluster up");
    }
    println!(
        "wrote 100 index entries (rf=2) -> {} replica rows",
        cluster.total_replica_entries()
    );

    cluster.set_down(NodeId(3));
    let mut readable = 0;
    for i in 0..100u32 {
        if cluster
            .get(NodeId(0), &i.to_be_bytes())
            .expect("up")
            .is_some()
        {
            readable += 1;
        }
    }
    println!("n3 down: {readable}/100 keys still readable via surviving replicas");

    for i in 100..150u32 {
        cluster
            .put(NodeId(0), &i.to_be_bytes(), Bytes::from_static(b"h"))
            .expect("cluster up");
    }
    let hints: usize = cluster
        .members()
        .iter()
        .filter_map(|&m| cluster.node(m))
        .map(|n| n.hint_count())
        .sum();
    println!("50 writes while down -> {hints} hints parked at coordinators");
    cluster.set_up(NodeId(3));
    println!(
        "n3 back up: hints replayed, n3 now holds {} entries",
        cluster
            .node(NodeId(3))
            .expect("member")
            .storage()
            .stats()
            .live_keys
    );

    println!("\n== seamless membership change ==");
    cluster.add_node(NodeId(5));
    println!(
        "added n5: rebalanced, n5 owns {} entries, every key still on exactly 2 replicas: {}",
        cluster
            .node(NodeId(5))
            .expect("member")
            .storage()
            .stats()
            .live_keys,
        cluster.total_replica_entries() == 2 * cluster.distinct_keys()
    );
}
