//! The experiment runner: streams workloads through the dedup strategies
//! and prices them with the steady-state pipeline model.

use crate::partition::Partition;
use crate::system::config::SystemConfig;
use crate::system::metrics::{NodeMetrics, SystemMetrics};
use crate::system::workload::Workload;
use bytes::Bytes;
use ef_kvstore::{ClusterConfig, Consistency, LocalCluster};
use ef_netsim::{Network, NodeId};
use std::collections::BTreeSet;

/// Which deduplication architecture to run (paper Sec. V-A).
#[derive(Debug, Clone)]
pub enum Strategy {
    /// EF-dedup: D2-rings over the edge nodes per the given partition
    /// (workload-node indices), each ring's index in its own distributed
    /// key-value store; unique chunks uploaded to the cloud.
    Smart(Partition),
    /// Ship raw data to the central cloud and deduplicate there.
    CloudOnly,
    /// Keep the index in the central cloud; edge agents look hashes up
    /// over the WAN and upload unique chunks only.
    CloudAssisted,
}

impl Strategy {
    /// Label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Smart(_) => "SMART",
            Strategy::CloudOnly => "Cloud-Only",
            Strategy::CloudAssisted => "Cloud-Assisted",
        }
    }
}

/// Runs `workload` on `network` under `strategy`.
///
/// Workload node `i` executes on the `i`-th edge node of the topology.
/// Uniqueness, replica locality and lookup costs are measured by actually
/// streaming the chunk hashes through the ring key-value stores (for
/// EF-dedup) or the cloud index (for the baselines); timing then follows
/// the steady-state pipeline model described in [`super`].
///
/// # Panics
///
/// Panics when the topology has fewer edge nodes than the workload, has
/// no cloud site, or (for [`Strategy::Smart`]) the partition does not
/// cover the workload's nodes.
#[expect(
    clippy::expect_used,
    reason = "documented entry preconditions, validated before use; the instant-delivery cluster has no fault plan, so ops cannot fail"
)]
pub fn run_system(
    network: &Network,
    workload: &Workload,
    strategy: &Strategy,
    config: &SystemConfig,
) -> SystemMetrics {
    config.validate();
    let n = workload.node_count();
    let edge_ids = network.topology().edge_nodes();
    assert!(
        edge_ids.len() >= n,
        "topology has {} edge nodes, workload needs {n}",
        edge_ids.len()
    );
    let cloud_ids = network.topology().cloud_nodes();
    assert!(!cloud_ids.is_empty(), "topology needs a central cloud site");

    let chunk = workload.chunk_size() as f64;
    let chunks: Vec<u64> = (0..n).map(|i| workload.stream(i).len() as u64).collect();

    // ---- Measurement pass -------------------------------------------------
    // Per-node accumulators.
    let mut unique = vec![0u64; n];
    let mut lookup_ms_total = vec![0.0f64; n];
    let mut local_lookups = vec![0u64; n];
    let mut remote_served = vec![0u64; n]; // lookups this node served for peers
    let scope_unique_total: u64 = match strategy {
        Strategy::Smart(partition) => {
            partition
                .validate(n)
                .expect("partition must cover the workload nodes");
            // One distributed KV store per D2-ring.
            let mut clusters: Vec<LocalCluster> = partition
                .rings()
                .iter()
                .map(|ring| {
                    LocalCluster::new(
                        ring.iter().map(|&i| edge_ids[i]).collect(),
                        ClusterConfig {
                            replication_factor: config.replication_factor,
                            consistency: Consistency::One,
                            ..ClusterConfig::default()
                        },
                    )
                })
                .collect();
            let ring_of: Vec<usize> = (0..n)
                .map(|i| partition.ring_of(i).expect("covered"))
                .collect();

            // Round-robin across nodes: parallel agents make progress
            // together, so cross-node duplicates are detected fairly.
            let max_len = chunks.iter().copied().max().unwrap_or(0) as usize;
            for pos in 0..max_len {
                for node in 0..n {
                    let stream = workload.stream(node);
                    let Some(hash) = stream.get(pos) else {
                        continue;
                    };
                    let me = edge_ids[node];
                    let cluster = &mut clusters[ring_of[node]];
                    let key = hash.as_bytes();
                    let replicas = cluster.ring().replicas(key, config.replication_factor);
                    if replicas.contains(&me) {
                        local_lookups[node] += 1;
                        remote_served[node] += 1; // self-serve costs index CPU too
                    } else {
                        let server = replicas
                            .iter()
                            .copied()
                            .min_by(|a, b| network.rtt(me, *a).cmp(&network.rtt(me, *b)))
                            .expect("replica set non-empty");
                        lookup_ms_total[node] += network.rtt(me, server).as_millis_f64();
                        if let Some(srv_idx) = edge_ids.iter().position(|&id| id == server) {
                            remote_served[srv_idx] += 1;
                        }
                    }
                    let is_new = cluster
                        .check_and_insert(me, key, Bytes::from_static(&[1]))
                        .expect("local cluster always available");
                    if is_new {
                        unique[node] += 1;
                    }
                }
            }
            clusters.iter().map(|c| c.distinct_keys() as u64).sum()
        }
        Strategy::CloudAssisted => {
            let mut index: BTreeSet<[u8; 32]> = BTreeSet::new();
            let max_len = chunks.iter().copied().max().unwrap_or(0) as usize;
            for pos in 0..max_len {
                for node in 0..n {
                    let Some(hash) = workload.stream(node).get(pos) else {
                        continue;
                    };
                    let me = edge_ids[node];
                    let cloud = nearest_cloud(network, me, &cloud_ids);
                    lookup_ms_total[node] += network.rtt(me, cloud).as_millis_f64();
                    if index.insert(*hash.as_bytes()) {
                        unique[node] += 1;
                    }
                }
            }
            index.len() as u64
        }
        Strategy::CloudOnly => {
            // No edge lookups; dedup happens at the cloud.
            let mut index: BTreeSet<[u8; 32]> = BTreeSet::new();
            for (node, node_unique) in unique.iter_mut().enumerate() {
                for hash in workload.stream(node) {
                    if index.insert(*hash.as_bytes()) {
                        *node_unique += 1;
                    }
                }
            }
            index.len() as u64
        }
    };

    // ---- Timing pass ------------------------------------------------------
    let cloud_count = cloud_ids.len() as f64;
    let mut nodes = Vec::with_capacity(n);
    let mut makespan: f64 = 0.0;
    for node in 0..n {
        let me = edge_ids[node];
        let c = chunks[node].max(1) as f64;
        let uf = unique[node] as f64 / c;
        let avg_lookup_ms = lookup_ms_total[node] / c;
        let cloud = nearest_cloud(network, me, &cloud_ids);
        let wan = network.link(me, cloud);
        let wan_rtt_secs = network.rtt(me, cloud).as_secs_f64();
        // Per-flow TCP-window cap aggregated over parallel streams.
        let wan_eff_bw = (wan.bandwidth_bps / 8.0)
            .min(config.tcp_window_bytes * config.upload_streams as f64 / wan_rtt_secs.max(1e-9));

        let t_chunk = match strategy {
            Strategy::Smart(_) => {
                let serve_per_chunk = remote_served[node] as f64 / c;
                let cpu = chunk / config.edge_cpu_bw + serve_per_chunk * config.index_service_secs;
                let lookup = avg_lookup_ms / 1e3 / config.lookup_concurrency as f64;
                let upload = uf * (chunk + config.lookup_wire_bytes as f64) / wan_eff_bw;
                cpu.max(lookup).max(upload)
            }
            Strategy::CloudAssisted => {
                let cpu = chunk / config.edge_cpu_bw;
                let lookup = avg_lookup_ms / 1e3 / config.lookup_concurrency as f64;
                // The shared cloud index serves every agent's lookups.
                let capacity = n as f64 * config.index_service_secs / cloud_count;
                // Lookup wire + unique uploads share the WAN uplink.
                let uplink_bytes = uf * chunk + 2.0 * config.lookup_wire_bytes as f64;
                let upload = uplink_bytes / wan_eff_bw;
                cpu.max(lookup).max(capacity).max(upload)
            }
            Strategy::CloudOnly => {
                // Everything crosses the WAN; the cloud dedups on arrival.
                let upload = chunk / wan_eff_bw;
                let cloud_ingest = n as f64 * chunk / (cloud_count * config.cloud_cpu_bw);
                upload.max(cloud_ingest)
            }
        };

        let throughput = chunk / t_chunk / 1e6;
        makespan = makespan.max(c * t_chunk);
        nodes.push(NodeMetrics {
            chunks: chunks[node],
            unique_chunks: unique[node],
            avg_lookup_ms,
            local_lookup_fraction: local_lookups[node] as f64 / c,
            chunk_time_secs: t_chunk,
            throughput_mbps: throughput,
        });
    }

    let total_chunks = workload.total_chunks();
    let total_bytes = workload.total_bytes();
    let wan_bytes = match strategy {
        Strategy::CloudOnly => total_bytes,
        Strategy::Smart(_) | Strategy::CloudAssisted => {
            scope_unique_total * workload.chunk_size() as u64
                + total_chunks * config.lookup_wire_bytes
        }
    };
    let network_cost_ms: f64 = lookup_ms_total.iter().sum();
    let mean_node_throughput = nodes.iter().map(|m| m.throughput_mbps).sum::<f64>() / n as f64;

    SystemMetrics {
        strategy: strategy.label().to_string(),
        total_input_bytes: total_bytes,
        total_chunks,
        unique_chunks: scope_unique_total,
        dedup_ratio: total_chunks as f64 / scope_unique_total.max(1) as f64,
        wan_bytes,
        storage_bytes: scope_unique_total * workload.chunk_size() as u64,
        network_cost_ms,
        makespan_secs: makespan,
        aggregate_throughput_mbps: total_bytes as f64 / makespan.max(1e-12) / 1e6,
        mean_node_throughput_mbps: mean_node_throughput,
        nodes,
    }
}

#[expect(
    clippy::expect_used,
    reason = "topologies are built with at least one cloud node"
)]
fn nearest_cloud(network: &Network, from: NodeId, cloud: &[NodeId]) -> NodeId {
    cloud
        .iter()
        .copied()
        .min_by(|a, b| network.rtt(from, *a).cmp(&network.rtt(from, *b)))
        .expect("cloud site non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ef_datagen::datasets;
    use ef_netsim::{NetworkConfig, TopologyBuilder};

    /// The paper's testbed: 10 edge clouds × 2 nodes + 4 cloud VMs.
    fn testbed() -> Network {
        let topo = TopologyBuilder::new()
            .edge_sites(10, 2)
            .cloud_site(4)
            .build();
        Network::new(topo, NetworkConfig::paper_testbed())
    }

    fn smart_partition(n: usize, rings: usize) -> Partition {
        // Contiguous equal rings over workload indices (node i and i+1
        // are co-located pairs, which also share dataset groups).
        let per = n.div_ceil(rings);
        let mut out = Vec::new();
        for r in 0..rings {
            let lo = r * per;
            if lo >= n {
                break;
            }
            out.push(((lo)..((lo + per).min(n))).collect());
        }
        Partition::new(out).unwrap()
    }

    fn smart_greedy_partition(
        ds: &ef_datagen::datasets::Dataset,
        net: &Network,
        rings: usize,
    ) -> Partition {
        use crate::partition::{Partitioner, SmartGreedy};
        let edge = net.topology().edge_nodes();
        let n = ds.model().source_count();
        let inst = crate::model::Snod2Instance::from_parts(
            ds.model(),
            net.cost_matrix(&edge[..n]),
            0.1,
            2,
            10.0,
        )
        .unwrap();
        SmartGreedy.partition(&inst, rings)
    }

    fn run_all(nodes: usize, chunks: usize) -> (SystemMetrics, SystemMetrics, SystemMetrics) {
        let net = testbed();
        let ds = datasets::accelerometer(nodes, 42);
        let w = Workload::from_dataset(&ds, nodes, chunks, 0);
        let cfg = SystemConfig::paper_testbed();
        let partition = smart_greedy_partition(&ds, &net, 5);
        let smart = run_system(&net, &w, &Strategy::Smart(partition), &cfg);
        let ca = run_system(&net, &w, &Strategy::CloudAssisted, &cfg);
        let co = run_system(&net, &w, &Strategy::CloudOnly, &cfg);
        (smart, ca, co)
    }

    #[test]
    fn smart_outperforms_cloud_baselines_at_testbed_scale() {
        // The Fig. 5(a) headline at 20 nodes.
        let (smart, ca, co) = run_all(20, 2_000);
        assert!(
            smart.aggregate_throughput_mbps > ca.aggregate_throughput_mbps,
            "SMART {} <= Cloud-Assisted {}",
            smart.aggregate_throughput_mbps,
            ca.aggregate_throughput_mbps
        );
        assert!(
            smart.aggregate_throughput_mbps > co.aggregate_throughput_mbps,
            "SMART {} <= Cloud-Only {}",
            smart.aggregate_throughput_mbps,
            co.aggregate_throughput_mbps
        );
        // And the factor is in the paper's ballpark (tens of percent to
        // ~2x, not orders of magnitude).
        let vs_ca = smart.aggregate_throughput_mbps / ca.aggregate_throughput_mbps;
        let vs_co = smart.aggregate_throughput_mbps / co.aggregate_throughput_mbps;
        assert!((1.05..4.0).contains(&vs_ca), "vs CA factor {vs_ca}");
        assert!((1.05..4.0).contains(&vs_co), "vs CO factor {vs_co}");
    }

    #[test]
    fn cloud_strategies_dedup_at_least_as_well_as_rings() {
        // Fig. 5(c): global dedup is an upper bound on ring dedup.
        let (smart, ca, co) = run_all(12, 500);
        assert!(ca.dedup_ratio >= smart.dedup_ratio - 1e-9);
        assert!(co.dedup_ratio >= smart.dedup_ratio - 1e-9);
        assert!((ca.dedup_ratio - co.dedup_ratio).abs() < 1e-9);
        // But EF-dedup still finds real redundancy.
        assert!(
            smart.dedup_ratio > 1.1,
            "ring dedup ratio {}",
            smart.dedup_ratio
        );
    }

    #[test]
    fn cloud_only_ships_everything() {
        let (smart, _, co) = run_all(8, 300);
        assert_eq!(co.wan_bytes, co.total_input_bytes);
        assert!(smart.wan_bytes < smart.total_input_bytes);
        assert_eq!(co.network_cost_ms, 0.0);
        assert!(smart.network_cost_ms >= 0.0);
    }

    #[test]
    fn fewer_rings_better_dedup_more_network_cost() {
        // Fig. 6(a): storage cost falls and network cost rises as rings
        // grow (fewer rings of more nodes).
        let net = testbed();
        let ds = datasets::accelerometer(20, 42);
        let w = Workload::from_dataset(&ds, 20, 400, 0);
        let cfg = SystemConfig::paper_testbed();
        let few = run_system(&net, &w, &Strategy::Smart(smart_partition(20, 2)), &cfg);
        let many = run_system(&net, &w, &Strategy::Smart(smart_partition(20, 10)), &cfg);
        assert!(
            few.storage_bytes < many.storage_bytes,
            "bigger rings should store less: {} vs {}",
            few.storage_bytes,
            many.storage_bytes
        );
        assert!(
            few.network_cost_ms > many.network_cost_ms,
            "bigger rings should pay more lookups: {} vs {}",
            few.network_cost_ms,
            many.network_cost_ms
        );
    }

    #[test]
    fn smart_lead_grows_with_wan_latency() {
        // Fig. 5(b): extra edge↔cloud latency hurts the cloud strategies
        // more than EF-dedup.
        let ratio_at = |wan_ms: f64| {
            let topo = TopologyBuilder::new()
                .edge_sites(10, 2)
                .cloud_site(4)
                .build();
            let net = Network::new(
                topo,
                NetworkConfig::paper_testbed().with_wan_latency_ms(wan_ms),
            );
            let ds = datasets::accelerometer(20, 42);
            let w = Workload::from_dataset(&ds, 20, 400, 0);
            let cfg = SystemConfig::paper_testbed();
            let smart = run_system(&net, &w, &Strategy::Smart(smart_partition(20, 5)), &cfg);
            let ca = run_system(&net, &w, &Strategy::CloudAssisted, &cfg);
            smart.aggregate_throughput_mbps / ca.aggregate_throughput_mbps
        };
        let low = ratio_at(12.2);
        let high = ratio_at(100.0);
        assert!(
            high > low,
            "SMART lead should grow with latency: {low} -> {high}"
        );
    }

    #[test]
    fn local_lookup_fraction_tracks_gamma_over_ring_size() {
        let net = testbed();
        let ds = datasets::accelerometer(8, 42);
        let w = Workload::from_dataset(&ds, 8, 600, 0);
        let cfg = SystemConfig::paper_testbed();
        // One ring of 8 with gamma 2: expect ~25% local lookups.
        let m = run_system(&net, &w, &Strategy::Smart(smart_partition(8, 1)), &cfg);
        let local: f64 = m.nodes.iter().map(|x| x.local_lookup_fraction).sum::<f64>() / 8.0;
        assert!(
            (0.15..0.40).contains(&local),
            "local fraction {local}, expected near gamma/|P| = 0.25"
        );
    }

    #[test]
    fn metrics_are_internally_consistent() {
        let (smart, ca, co) = run_all(6, 200);
        for m in [&smart, &ca, &co] {
            assert_eq!(m.total_chunks, 6 * 200);
            let node_unique: u64 = m.nodes.iter().map(|x| x.unique_chunks).sum();
            assert_eq!(node_unique, m.unique_chunks, "{}", m.strategy);
            assert!(m.makespan_secs > 0.0);
            assert!(m.aggregate_throughput_mbps > 0.0);
            assert!((m.dedup_ratio - m.total_chunks as f64 / m.unique_chunks as f64).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "central cloud")]
    fn cloud_site_required() {
        let topo = TopologyBuilder::new().edge_site(2).build();
        let net = Network::new(topo, NetworkConfig::paper_testbed());
        let ds = datasets::accelerometer(2, 1);
        let w = Workload::from_dataset(&ds, 2, 10, 0);
        run_system(
            &net,
            &w,
            &Strategy::CloudOnly,
            &SystemConfig::paper_testbed(),
        );
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(Strategy::CloudOnly.label(), "Cloud-Only");
        assert_eq!(Strategy::CloudAssisted.label(), "Cloud-Assisted");
        assert_eq!(
            Strategy::Smart(Partition::new(vec![vec![0]]).unwrap()).label(),
            "SMART"
        );
    }
}
