//! Property tests for the network substrate.

use ef_netsim::{Network, NetworkConfig, NodeId, TopologyBuilder};
use ef_simcore::prop::{check, vec};
use ef_simcore::SimTime;

fn build_network(sites: usize, per_site: usize, cloud: usize) -> Network {
    let mut b = TopologyBuilder::new();
    for _ in 0..sites {
        b = b.edge_site(per_site);
    }
    if cloud > 0 {
        b = b.cloud_site(cloud);
    }
    Network::new(b.build(), NetworkConfig::paper_testbed())
}

/// RTTs are symmetric, zero on the diagonal, and classify paths
/// correctly: loopback < intra-site < inter-edge < WAN.
#[test]
fn rtt_structure() {
    check(
        "rtt_structure",
        256,
        (1usize..6, 1usize..4, 1usize..3),
        |(sites, per_site, cloud)| {
            let net = build_network(sites, per_site, cloud);
            let nodes: Vec<NodeId> = net.topology().nodes().collect();
            for &a in &nodes {
                assert_eq!(net.rtt(a, a), net.rtt(a, a));
                for &b in &nodes {
                    assert_eq!(net.rtt(a, b), net.rtt(b, a), "asymmetric rtt");
                    if a != b {
                        assert!(net.rtt(a, b) > net.rtt(a, a), "loopback not cheapest");
                    }
                }
            }
            // WAN paths are the most expensive class in the default profile.
            let edge = net.topology().edge_nodes();
            let clouds = net.topology().cloud_nodes();
            if let (Some(&e), Some(&c)) = (edge.first(), clouds.first()) {
                for &other in &edge[1..] {
                    assert!(net.rtt(e, c) >= net.rtt(e, other));
                }
            }
        },
    );
}

/// The cost matrix equals pairwise RTTs in milliseconds and is
/// symmetric with a zero diagonal for any node subset.
#[test]
fn cost_matrix_consistent() {
    check(
        "cost_matrix_consistent",
        256,
        (1usize..5, 1usize..4),
        |(sites, per_site)| {
            let net = build_network(sites, per_site, 1);
            let nodes = net.topology().edge_nodes();
            let m = net.cost_matrix(&nodes);
            for (i, &a) in nodes.iter().enumerate() {
                assert_eq!(m[i][i], 0.0);
                for (j, &b) in nodes.iter().enumerate() {
                    assert_eq!(m[i][j], m[j][i]);
                    if i != j {
                        assert!((m[i][j] - net.rtt(a, b).as_millis_f64()).abs() < 1e-12);
                    }
                }
            }
        },
    );
}

/// Uplink occupancy: sequential transfers from one node never
/// overlap, and total bytes are conserved.
#[test]
fn uplink_serialization() {
    check(
        "uplink_serialization",
        256,
        vec(1u64..5_000_000, 1..30),
        |transfers| {
            let mut net = build_network(1, 2, 0);
            let (a, b) = (NodeId(0), NodeId(1));
            let mut last_arrival = SimTime::ZERO;
            let mut total = 0u64;
            for &bytes in &transfers {
                let arrival = net.transfer(SimTime::ZERO, a, b, bytes).unwrap();
                assert!(arrival >= last_arrival, "transfers reordered");
                last_arrival = arrival;
                total += bytes;
            }
            assert_eq!(net.bytes_sent(), total);
            assert_eq!(net.messages_sent(), transfers.len() as u64);
            // The last arrival is at least the pure serialization time of
            // all bytes at link bandwidth.
            let link = net.link(a, b);
            let min_secs = total as f64 * 8.0 / link.bandwidth_bps;
            assert!(last_arrival.as_secs_f64() >= min_secs * 0.999);
        },
    );
}

/// Topology invariants: dense ids, consistent site membership.
#[test]
fn topology_invariants() {
    check(
        "topology_invariants",
        256,
        (1usize..7, 1usize..5),
        |(sites, per_site)| {
            let net = build_network(sites, per_site, 2);
            let topo = net.topology();
            assert_eq!(topo.node_count(), sites * per_site + 2);
            assert_eq!(topo.edge_nodes().len(), sites * per_site);
            assert_eq!(topo.cloud_nodes().len(), 2);
            for node in topo.nodes() {
                let site = topo.site_of(node);
                assert!(topo.nodes_in(site).contains(&node));
            }
            for site in topo.edge_sites() {
                assert_eq!(topo.nodes_in(site).len(), per_site);
            }
        },
    );
}
