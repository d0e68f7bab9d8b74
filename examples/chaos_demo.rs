//! Chaos layer demo: dedup under message loss, partitions and crashes.
//!
//! Generates a seeded fault schedule, rigs it onto the simulated edge
//! network, pushes a batch of check-and-insert ops through the D2-ring
//! index and reports how the cluster coped: retries, timeouts, degraded
//! "assume unique" resolutions and dropped messages. Re-running with the
//! same seed reproduces the run bit for bit.
//!
//! ```bash
//! cargo run --release --example chaos_demo            # default seed 7
//! cargo run --release --example chaos_demo -- 42      # pick a seed
//! ```

use std::collections::BTreeMap;

use bytes::Bytes;
use efdedup_repro::core::system::RobustnessMetrics;
use efdedup_repro::kvstore::{
    nth_op_id, ChaosScenario, ChaosScenarioConfig, ClientOp, ClusterConfig, OpResult, SimCluster,
};
use efdedup_repro::netsim::{Network, NetworkConfig, TopologyBuilder};
use efdedup_repro::simcore::{SimDuration, SimTime};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(7);

    // Three 2-node edge sites, paper-testbed latencies.
    let topo = TopologyBuilder::new()
        .edge_site(2)
        .edge_site(2)
        .edge_site(2)
        .build();
    let mut net = Network::new(topo, NetworkConfig::paper_testbed());

    let config = ChaosScenarioConfig::default();
    let scenario = ChaosScenario::generate(seed, net.topology(), &config);
    println!("== chaos schedule (seed {seed}) ==\n");
    for ev in scenario.events() {
        println!("  {ev:?}");
    }
    scenario.rig(&mut net);

    let members = net.topology().edge_nodes();
    let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
    cluster.enable_heartbeats(SimDuration::from_millis(100), SimDuration::from_millis(350));
    scenario.apply(&mut cluster);

    // Each chunk hash is inserted twice from different coordinators: the
    // second sighting should dedup unless faults forced degraded mode.
    let keys = 16u32;
    let mut t = SimTime::ZERO;
    let mut key_of = BTreeMap::new();
    let mut seq = BTreeMap::new();
    for round in 0..2 {
        for k in 0..keys {
            let coordinator = members[((k + round) as usize) % members.len()];
            let n = seq.entry(coordinator).or_insert(0u64);
            key_of.insert(nth_op_id(coordinator, *n), k);
            *n += 1;
            let key = Bytes::from(format!("chunk-{k:04}"));
            cluster.submit(t, coordinator, ClientOp::CheckAndInsert(key.clone(), key));
            t += SimDuration::from_millis(211);
        }
    }
    let done = cluster.run();

    println!("\n== op outcomes ==\n");
    let (mut uniques, mut dups, mut degraded) = (0u32, 0u32, 0u32);
    for op in &done {
        let key = key_of[&op.op_id];
        if let OpResult::Dedup {
            unique,
            degraded: d,
        } = op.result
        {
            if unique {
                uniques += 1;
            } else {
                dups += 1;
            }
            if d {
                degraded += 1;
                println!(
                    "  chunk-{key:04}: degraded assume-unique at {:?} (quorum unreachable)",
                    op.finished
                );
            }
        }
    }
    println!(
        "\n  {} ops resolved: {uniques} unique, {dups} duplicate, {degraded} degraded",
        done.len()
    );
    assert!(
        uniques >= keys,
        "soundness: every chunk must be unique at least once"
    );

    let r = RobustnessMetrics::from_sim(&cluster);
    println!("\n== robustness counters ==\n");
    println!("  {:<40} {}", "messages_dropped", r.messages_dropped);
    for c in r.fields().filter(|c| c.value != 0) {
        let name = format!("{}::{}", c.family, c.name);
        println!("  {name:<40} {:<8} {:?}", c.value, c.class);
    }
    println!("\n  quiet: {}", r.is_quiet());
}
