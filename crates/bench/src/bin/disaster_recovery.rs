//! Disaster-recovery experiment: spool drain time vs uplink bandwidth
//! cap, and the mesh-vs-cloud repair split after a ring wipe.
//!
//! Backs the "Cloud outage & ring disaster" tables in EXPERIMENTS.md.
//! One deterministic scenario per bandwidth cap: a cloud outage from
//! t = 0 forces every unique chunk into the durable upload spools; the
//! uplink returns at 0.8 s and drains the backlog under the cap; at
//! 1.8 s a whole edge site is wiped and heals at 2.2 s, triggering
//! rarest-first mesh repair with cloud-catalog fallback. Reported per
//! cap: time to drain the spool backlog, time-to-recovery of the wiped
//! ring (heal to last repair delivery), and the repair source split.

use bytes::Bytes;
use ef_kvstore::{ClientOp, ClusterConfig, ClusterFault, Consistency, DisasterStats, SimCluster};
use ef_netsim::{Network, NetworkConfig, SiteId, TopologyBuilder};
use ef_simcore::{SimDuration, SimTime};

const CHUNKS: u32 = 64;
const CHUNK_BYTES: usize = 1024;
const OUTAGE_END_S: f64 = 0.8;

fn run(byte_cap: u64) -> (f64, DisasterStats) {
    let topo = TopologyBuilder::new()
        .edge_site(2)
        .edge_site(2)
        .edge_site(2)
        .cloud_site(1)
        .build();
    let net = Network::new(topo, NetworkConfig::paper_testbed());
    let members = net.topology().edge_nodes();
    let cloud_site = net.topology().cloud_sites()[0];
    let cloud = net.topology().nodes_in(cloud_site)[0];
    let mut cluster = SimCluster::new(
        members.clone(),
        net,
        ClusterConfig {
            replication_factor: 3,
            consistency: Consistency::Quorum,
            ..ClusterConfig::default()
        },
    );
    cluster.enable_heartbeats_with_dead(
        SimDuration::from_millis(20),
        SimDuration::from_millis(100),
        SimDuration::from_millis(500),
    );
    cluster.enable_cloud_uplink(cloud, byte_cap, SimDuration::from_millis(10));
    cluster.inject(ClusterFault::CloudOutage {
        from: SimTime::ZERO,
        until: SimTime::from_secs_f64(OUTAGE_END_S),
        site: cloud_site,
    });
    cluster.inject(ClusterFault::RingOutage {
        from: SimTime::from_secs_f64(1.8),
        until: SimTime::from_secs_f64(2.2),
        site: SiteId(0),
    });
    let mut t = SimTime::ZERO + SimDuration::from_millis(10);
    for i in 0..CHUNKS {
        let key = Bytes::from(format!("dr-chunk-{i:03}").into_bytes());
        let value = Bytes::from(vec![(i % 251) as u8; CHUNK_BYTES]);
        cluster.submit(
            t,
            members[(i % 6) as usize],
            ClientOp::CheckAndInsert(key, value),
        );
        t += SimDuration::from_millis(5);
    }
    // Step past the outage in 10 ms increments to find the first
    // instant the spool backlog is fully drained to the cloud.
    let mut probe = SimTime::from_secs_f64(OUTAGE_END_S);
    let drained_at = loop {
        cluster.run_until(probe);
        if cluster.disaster_stats().spool_depth == 0 {
            break probe;
        }
        probe += SimDuration::from_millis(10);
        assert!(
            probe <= SimTime::from_secs_f64(1.8),
            "backlog not drained before the ring wipe at cap {byte_cap}"
        );
    };
    cluster.run_until(SimTime::from_secs_f64(6.0));
    let drain_secs = drained_at.saturating_since(SimTime::from_secs_f64(OUTAGE_END_S));
    (drain_secs.as_nanos() as f64 / 1e6, cluster.disaster_stats())
}

fn main() {
    println!(
        "{:>12} {:>10} {:>8} {:>11} {:>11} {:>11} {:>11}",
        "cap (B/tick)", "drain ms", "TTR ms", "mesh reps", "mesh B", "cloud reps", "cloud B"
    );
    for cap in [2 * 1024u64, 8 * 1024, 32 * 1024] {
        let (drain_ms, stats) = run(cap);
        println!(
            "{:>12} {:>10.1} {:>8.1} {:>11} {:>11} {:>11} {:>11}",
            cap,
            drain_ms,
            stats.recovery_ns_max as f64 / 1e6,
            stats.mesh_repairs,
            stats.repair_bytes_mesh,
            stats.cloud_repairs,
            stats.repair_bytes_cloud,
        );
    }
}
