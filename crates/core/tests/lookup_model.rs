//! The lookup price `run_system` charges, held to the simulator it
//! stands in for on the `sim-testbed` ring: eight agents on four
//! two-node edge sites plus a cloud site, one D2-ring of all eight,
//! 4 KiB accelerometer chunks checked open loop on a staggered 10 ms
//! period, the cluster armed by `sweep::arm_testbed` as `bench_e2e`
//! arms it. `run_system` prices a lookup as free when the agent's node
//! holds a replica and one RTT to the nearest replica otherwise; the
//! `SimCluster` runs the same check-and-inserts as message flows,
//! fault-free, with proof of possession armed. DESIGN.md §4 states the
//! error bar.

use bytes::Bytes;
use ef_chunking::{Chunker, FixedChunker};
use ef_datagen::datasets;
use ef_kvstore::{sweep, ClientOp, ClusterConfig, OpResult, SimCluster};
use ef_netsim::{Network, NetworkConfig, TopologyBuilder};
use ef_simcore::{SimDuration, SimTime};
use efdedup::partition::Partition;
use efdedup::system::{run_system, Strategy, SystemConfig, Workload};

const AGENTS: usize = 8;
const OPS_PER_AGENT: usize = 400;
const CHUNK_BYTES: usize = 4096;

/// The two mean lookup latencies agree within 5 %. Before the
/// possession check rode the lookup's own bytes they were 18 % apart:
/// every duplicate verdict on a remote sighting paid a second
/// inter-site round trip the model does not price.
#[test]
fn analytic_lookup_price_matches_the_armed_simulator() {
    let topology = TopologyBuilder::new()
        .edge_sites(4, 2)
        .cloud_site(1)
        .build();
    let network = || Network::new(topology.clone(), NetworkConfig::paper_testbed());
    let members = topology.edge_nodes();
    let dataset = datasets::accelerometer(AGENTS, 42);
    let chunker = FixedChunker::new(CHUNK_BYTES).expect("4 KiB is a valid chunk size");
    let files: Vec<_> = (0..AGENTS)
        .map(|agent| chunker.chunk(&dataset.file(agent, 0, 0, OPS_PER_AGENT)))
        .collect();

    let mut cluster = SimCluster::new(members.clone(), network(), ClusterConfig::default());
    sweep::arm_testbed(&mut cluster);
    for (agent, chunks) in files.iter().enumerate() {
        for (k, chunk) in chunks.iter().enumerate() {
            let at_us = 13_000 + 10_000 * k as u64 + 1_250 * agent as u64;
            let at = SimTime::ZERO + SimDuration::from_micros(at_us);
            let key = Bytes::copy_from_slice(chunk.hash.as_bytes());
            let op = ClientOp::CheckAndInsert(key, chunk.data.clone());
            cluster.submit(at, members[agent], op);
        }
    }
    let done = cluster.run_until(SimTime::from_secs_f64(12.0));
    assert_eq!(done.len(), AGENTS * OPS_PER_AGENT);
    assert!(done
        .iter()
        .all(|l| matches!(l.result, OpResult::Dedup { .. })));
    let checks = cluster.byzantine_stats();
    assert!(checks.challenges_issued > 0, "{checks:?}");
    assert_eq!(checks.challenges_failed, 0, "{checks:?}");
    let simulated_ms = done
        .iter()
        .map(|l| l.latency().as_millis_f64())
        .sum::<f64>()
        / done.len() as f64;

    let per_node = files
        .iter()
        .map(|chunks| chunks.iter().map(|c| c.hash).collect())
        .collect();
    let ring = Partition::new(vec![(0..AGENTS).collect()]).expect("one ring covers all agents");
    let metrics = run_system(
        &network(),
        &Workload::new(per_node, CHUNK_BYTES),
        &Strategy::Smart(ring),
        &SystemConfig::paper_testbed(),
    );
    let model_ms = metrics.network_cost_ms / metrics.total_chunks as f64;

    let err = (model_ms - simulated_ms).abs() / simulated_ms;
    assert!(
        err <= 0.05,
        "run_system prices a lookup at {model_ms:.3} ms, the simulator takes \
         {simulated_ms:.3} ms: {:.1} % apart",
        err * 100.0
    );
    println!(
        "lookup model: {model_ms:.3} ms analytic, {simulated_ms:.3} ms simulated ({:.2} %)",
        err * 100.0
    );
}
