//! Tour of the distributed key-value store that backs every D2-ring.
//!
//! Shows the Cassandra-like machinery the paper relies on (Sec. IV):
//! consistent-hash placement, replication, consistency levels, then node
//! failure with hinted handoff and a permanent departure on the simulated
//! cluster, where every fault is a `ClusterFault` and peers find it by
//! heartbeat.
//!
//! ```bash
//! cargo run --release --example kvstore_tour
//! ```

use bytes::Bytes;
use efdedup_repro::kvstore::{ClientOp, ClusterFault, OpLatency, OpResult, SimCluster};
use efdedup_repro::prelude::*;

fn main() {
    println!("== placement: consistent hashing with virtual nodes ==\n");
    let ring = ef_kvstore::HashRing::with_nodes((0..5).map(NodeId), 64);
    for key in [b"chunk-aa".as_slice(), b"chunk-bb", b"chunk-cc"] {
        let replicas = ring.replicas(key, 2);
        println!("{} -> replicas {replicas:?}", String::from_utf8_lossy(key));
        assert!(replicas.len() == 2 && replicas[0] != replicas[1]);
    }
    println!("\nownership balance (fraction of token space):");
    let ownership = ring.ownership();
    for (node, frac) in &ownership {
        println!("  {node}: {:.1}%", frac * 100.0);
    }
    let whole: f64 = ownership.iter().map(|(_, frac)| frac).sum();
    assert!(
        (whole - 1.0).abs() < 1e-9,
        "the shares cover the token space"
    );

    println!("\n== failure + hinted handoff on the simulated cluster ==\n");
    let net = Network::new(
        TopologyBuilder::new().edge_site(5).build(),
        NetworkConfig::paper_testbed(),
    );
    let members = net.topology().edge_nodes();
    let config = ClusterConfig {
        replication_factor: 2,
        consistency: Consistency::One,
        ..ClusterConfig::default()
    };
    let mut cluster = SimCluster::new(members.clone(), net, config);
    // Peers gossip every 100 ms, suspect a node silent for 350 ms and
    // declare it departed after 2.5 s of silence.
    let ms = SimDuration::from_millis;
    cluster.enable_heartbeats_with_dead(ms(100), ms(350), ms(2_500));
    let at = SimTime::from_secs_f64;
    let (victim, leaver) = (members[3], members[4]);
    cluster.inject(ClusterFault::Crash {
        at: at(1.0),
        node: victim,
    });
    cluster.inject(ClusterFault::Revive {
        at: at(3.0),
        node: victim,
    });
    cluster.inject(ClusterFault::Depart {
        at: at(5.0),
        node: leaver,
    });
    let key = |i: u32| Bytes::copy_from_slice(&i.to_be_bytes());
    let put = |i: u32| ClientOp::Put(key(i), Bytes::from_static(b"h"));
    let rows = |c: &SimCluster| -> usize {
        let live = members.iter().filter_map(|&m| c.node(m));
        live.map(|n| n.storage().stats().live_keys).sum()
    };
    let all_written = |done: &[OpLatency], n: usize| {
        done.len() == n && done.iter().all(|w| w.result == OpResult::Written)
    };

    for i in 0..100u32 {
        cluster.submit(at(0.0) + ms(u64::from(i)), members[i as usize % 5], put(i));
    }
    assert!(all_written(&cluster.run_until(at(1.0)), 100));
    println!(
        "wrote 100 index entries (rf=2) -> {} replica rows",
        rows(&cluster)
    );
    assert_eq!(rows(&cluster), 200);

    for i in 0..100u32 {
        cluster.submit(at(1.5), members[0], ClientOp::Get(key(i)));
    }
    let reads = cluster.run_until(at(2.0));
    let readable = reads
        .iter()
        .filter(|r| r.result == OpResult::Value(Some(Bytes::from_static(b"h"))))
        .count();
    println!("{victim} crashed: {readable}/100 keys still readable via surviving replicas");
    assert_eq!(readable, 100);

    for i in 100..150u32 {
        cluster.submit(at(2.0) + ms(u64::from(i - 100)), members[0], put(i));
    }
    assert!(all_written(&cluster.run_until(at(2.5)), 50));
    let owed = |c: &SimCluster, keys: std::ops::Range<u32>| {
        let replicas = |i| c.ring().replicas(&key(i), 2);
        keys.filter(|&i| replicas(i).contains(&victim)).count()
    };
    let hints = cluster.total_hints();
    println!("50 writes while down -> {hints} hints parked at coordinators");
    assert_eq!(hints, owed(&cluster, 100..150));

    cluster.run_until(at(4.0));
    let held = cluster
        .node(victim)
        .expect("revived")
        .storage()
        .stats()
        .live_keys;
    println!("{victim} revived: hints replayed, it now holds {held} entries");
    assert_eq!(cluster.total_hints(), 0);
    assert_eq!(held, owed(&cluster, 0..150));

    println!("\n== permanent departure ==");
    cluster.run_until(at(10.0));
    // Each key lives on exactly the two replicas the shrunk ring names.
    let placed = (0..150u32).all(|i| {
        let replicas = cluster.ring().replicas(&key(i), 2);
        members.iter().all(|&m| {
            let held = cluster
                .node(m)
                .is_some_and(|n| n.storage().contains(&key(i)));
            held == replicas.contains(&m)
        })
    });
    println!(
        "{leaver} departed: ring of {} nodes, {} replica rows, every key on exactly its 2 replicas: {placed}",
        cluster.ring().len(),
        rows(&cluster)
    );
    assert!(cluster.is_departed(leaver) && placed);
    assert_eq!(cluster.ring().len(), 4);
    assert_eq!(rows(&cluster), 2 * 150);
}
