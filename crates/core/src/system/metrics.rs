//! Metrics produced by a system run.

use ef_simcore::stats::Counter;

/// Per-node pipeline metrics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeMetrics {
    /// Chunks this node processed.
    pub chunks: u64,
    /// Chunks found unique (uploaded to the cloud).
    pub unique_chunks: u64,
    /// Mean hash-lookup network cost per chunk (RTT ms; 0 when local).
    pub avg_lookup_ms: f64,
    /// Fraction of lookups answered by a local replica.
    pub local_lookup_fraction: f64,
    /// Steady-state per-chunk pipeline time (seconds).
    pub chunk_time_secs: f64,
    /// The node's dedup throughput in MB/s (input bytes processed per
    /// second, the paper's metric).
    pub throughput_mbps: f64,
}

/// Fault-handling counters aggregated from the dedup index cluster and
/// the simulated network (all zero for a fault-free run): the seven
/// counter families `ef-kvstore` declares, whole, plus three readings
/// that are not counters of a family.
///
/// Populate from a chaos-rigged cluster with
/// [`RobustnessMetrics::from_sim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RobustnessMetrics {
    /// Messages the simulated network dropped (loss + partitions).
    pub messages_dropped: u64,
    /// WAL snapshot compactions taken across all index nodes (routine:
    /// a long enough healthy run compacts too).
    pub wal_snapshots: u64,
    /// Worst restart-to-convergence latency (ns; 0 when no node
    /// restarted or none has converged yet).
    pub recovery_latency_ns_max: u64,
    /// Per-op timeouts, retry rounds, degraded "assume unique" verdicts
    /// and read repairs of the index coordinators.
    pub coordinator: ef_kvstore::CoordinatorStats,
    /// Crash-recovery pipeline: WAL replay, restarts, anti-entropy
    /// repair, re-replication, dropped hints, dead declarations.
    pub recovery: ef_kvstore::RecoveryStats,
    /// End-to-end integrity counters: frames rejected by wire checksums,
    /// scrub progress, mismatches detected, and how each one was
    /// resolved (read-repair, cloud decode, or declared lost).
    pub integrity: ef_kvstore::IntegrityStats,
    /// Fingerprint-cache counters aggregated over the index coordinators
    /// (all zero when the cache was not enabled).
    pub cache: ef_kvstore::CacheStats,
    /// Gray-failure mitigation counters: hedged lookups, load shedding,
    /// queue pressure and adaptive-timeout activity (all zero when the
    /// mitigations were not enabled).
    pub gray: ef_kvstore::GrayFailureStats,
    /// Disaster-tolerance counters: durable upload-spool depth and drain
    /// totals, mesh-vs-cloud repair counts, bytes and wire costs, outage
    /// windows and time-to-recovery (all zero when no cloud uplink was
    /// enabled and no disaster was injected).
    pub disaster: ef_kvstore::DisasterStats,
    /// Byzantine-tolerance counters: proof-of-possession checks,
    /// rejected false claims and poisoned bytes, trust-ledger strikes
    /// and liar quarantines (all zero when PoP was not armed and no
    /// peer misbehaved).
    pub byzantine: ef_kvstore::ByzantineStats,
}

impl RobustnessMetrics {
    /// Snapshots the fault counters of a simulated index cluster.
    pub fn from_sim(cluster: &ef_kvstore::SimCluster) -> Self {
        let latencies = cluster.recovery_latencies().into_iter();
        RobustnessMetrics {
            messages_dropped: cluster.network().messages_dropped(),
            wal_snapshots: cluster.wal_snapshots(),
            recovery_latency_ns_max: latencies.map(|(_, d)| d.as_nanos()).max().unwrap_or(0),
            coordinator: cluster.coordinator_stats(),
            recovery: cluster.recovery_stats(),
            integrity: cluster.integrity(),
            cache: cluster.cache_stats(),
            gray: cluster.gray_stats(),
            disaster: cluster.disaster_stats(),
            byzantine: cluster.byzantine_stats(),
        }
    }

    /// Every counter of every family, in declaration order. The pattern
    /// is exhaustive: a family added to the struct does not compile until
    /// it is chained here, so quietness and reports cannot miss it.
    pub fn fields(&self) -> impl Iterator<Item = Counter> {
        let RobustnessMetrics {
            messages_dropped: _,
            wal_snapshots: _,
            recovery_latency_ns_max: _,
            coordinator,
            recovery,
            integrity,
            cache,
            gray,
            disaster,
            byzantine,
        } = self;
        coordinator
            .fields()
            .chain(recovery.fields())
            .chain(integrity.fields())
            .chain(cache.fields())
            .chain(gray.fields())
            .chain(disaster.fields())
            .chain(byzantine.fields())
    }

    /// True when the run saw no fault-handling activity at all: no
    /// message dropped and no fault-class counter of any family
    /// non-zero. What is routine — cache traffic, passive RTT
    /// observation, spool enqueue/drain, passed possession checks —
    /// is each counter's declared class, not a list kept here.
    pub fn is_quiet(&self) -> bool {
        self.messages_dropped == 0 && self.fields().all(|c| c.is_quiet())
    }
}

/// System-level metrics of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemMetrics {
    /// Strategy label ("SMART", "Cloud-Assisted", "Cloud-Only", …).
    pub strategy: String,
    /// Total input bytes across all nodes.
    pub total_input_bytes: u64,
    /// Total chunks across all nodes.
    pub total_chunks: u64,
    /// Distinct chunks within each dedup scope, summed over scopes
    /// (rings for EF-dedup, global for the cloud strategies).
    pub unique_chunks: u64,
    /// Measured dedup ratio: `total_chunks / unique_chunks`.
    pub dedup_ratio: f64,
    /// Bytes that crossed the WAN to the central cloud.
    pub wan_bytes: u64,
    /// Transient storage the dedup scopes hold (unique chunks × chunk
    /// size) — the `U` proxy of Eq. (1).
    pub storage_bytes: u64,
    /// Total measured hash-lookup network cost (Σ RTT ms over all
    /// non-local lookups) — the `V` proxy of Eq. (2).
    pub network_cost_ms: f64,
    /// Wall time to drain every node's workload (seconds).
    pub makespan_secs: f64,
    /// Aggregate dedup throughput: total input bytes / makespan (MB/s).
    pub aggregate_throughput_mbps: f64,
    /// Mean per-node throughput (MB/s).
    pub mean_node_throughput_mbps: f64,
    /// Per-node details.
    pub nodes: Vec<NodeMetrics>,
}

impl SystemMetrics {
    /// The Eq. (3) aggregate cost of this run in storage-byte units:
    /// `storage_bytes + alpha_bytes_per_ms * network_cost_ms`.
    ///
    /// `alpha` here scales measured network milliseconds into byte-
    /// equivalents, mirroring the paper's trade-off factor.
    pub fn aggregate_cost(&self, alpha: f64) -> f64 {
        self.storage_bytes as f64 + alpha * self.network_cost_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_cost_composes() {
        let m = SystemMetrics {
            strategy: "test".into(),
            total_input_bytes: 0,
            total_chunks: 0,
            unique_chunks: 0,
            dedup_ratio: 1.0,
            wan_bytes: 0,
            storage_bytes: 1_000,
            network_cost_ms: 50.0,
            makespan_secs: 1.0,
            aggregate_throughput_mbps: 0.0,
            mean_node_throughput_mbps: 0.0,
            nodes: Vec::new(),
        };
        assert_eq!(m.aggregate_cost(0.0), 1_000.0);
        assert_eq!(m.aggregate_cost(2.0), 1_100.0);
    }

    #[test]
    fn quietness_is_each_counters_declared_class() {
        // Every family reaches `fields()` and is consulted by `is_quiet`,
        // which breaks exactly when a `fault` counter is set: routine
        // traffic — all of the cache's, part of the gray, disaster and
        // trust layers' — never does.
        use ef_simcore::stats::Class;
        let quiet = RobustnessMetrics::default();
        assert!(quiet.is_quiet());
        macro_rules! only {
            ($field:ident: $family:ident, $class:ident) => {{
                let family = ef_kvstore::$family::default();
                let ones: Vec<u64> = family
                    .fields()
                    .map(|c| u64::from(c.class == Class::$class))
                    .collect();
                let $field = ef_kvstore::$family::from_values(&ones);
                (Class::$class, RobustnessMetrics { $field, ..quiet })
            }};
        }
        let runs = [
            only!(coordinator: CoordinatorStats, Fault),
            only!(recovery: RecoveryStats, Fault),
            only!(integrity: IntegrityStats, Fault),
            only!(cache: CacheStats, Routine),
            only!(gray: GrayFailureStats, Routine),
            only!(gray: GrayFailureStats, Fault),
            only!(disaster: DisasterStats, Routine),
            only!(disaster: DisasterStats, Fault),
            only!(byzantine: ByzantineStats, Routine),
            only!(byzantine: ByzantineStats, Fault),
        ];
        for (class, r) in runs {
            let set: Vec<Counter> = r.fields().filter(|c| c.value != 0).collect();
            assert!(!set.is_empty() && set.iter().all(|c| c.class == class));
            assert_eq!(r.is_quiet(), class == Class::Routine, "{set:?}");
        }
        // Of the three readings outside the families only drops are
        // fault activity.
        let dropped = RobustnessMetrics {
            messages_dropped: 1,
            ..quiet
        };
        assert!(!dropped.is_quiet());
        let compacted = RobustnessMetrics {
            wal_snapshots: 3,
            ..quiet
        };
        assert!(compacted.is_quiet());
    }

    #[test]
    fn robustness_counters_track_a_faulty_cluster() {
        use ef_kvstore::{ChaosScenario, ChaosScenarioConfig, ClientOp, ClusterConfig, SimCluster};
        use ef_netsim::{Network, NetworkConfig, TopologyBuilder};
        use ef_simcore::{SimDuration, SimTime};

        let topo = TopologyBuilder::new().edge_site(2).edge_site(2).build();
        let mut net = Network::new(topo, NetworkConfig::paper_testbed());
        let scenario = ChaosScenario::generate(
            5,
            net.topology(),
            &ChaosScenarioConfig {
                base_loss: 0.3,
                ..ChaosScenarioConfig::default()
            },
        );
        scenario.rig(&mut net);
        let members = net.topology().edge_nodes();
        let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
        scenario.apply(&mut cluster);
        let mut t = SimTime::ZERO;
        for i in 0..40u32 {
            let key = bytes::Bytes::from(i.to_be_bytes().to_vec());
            cluster.submit(
                t,
                members[(i as usize) % members.len()],
                ClientOp::CheckAndInsert(key.clone(), key),
            );
            t += SimDuration::from_millis(50);
        }
        cluster.run();
        let r = RobustnessMetrics::from_sim(&cluster);
        // 30% background loss over remote replica traffic must trip the
        // retry machinery and drop messages.
        assert!(r.messages_dropped > 0, "no drops under 30% loss");
        assert!(r.coordinator.retries > 0, "no retries under 30% loss");
        assert!(!r.is_quiet());
    }
}
