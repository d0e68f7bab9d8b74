//! Metrics produced by a system run.

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
/// the simulated network (all zero for a fault-free run).
///
/// Populate from a chaos-rigged cluster with
/// [`RobustnessMetrics::from_sim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RobustnessMetrics {
    /// Per-op timeouts the index coordinators recorded.
    pub index_timeouts: u64,
    /// Retry rounds the index coordinators issued.
    pub index_retries: u64,
    /// Check-and-inserts resolved in degraded "assume unique" mode
    /// (each one is at worst a redundant upload, never data loss).
    pub degraded_lookups: u64,
    /// Messages the simulated network dropped (loss + partitions).
    pub messages_dropped: u64,
    /// WAL records replayed by restarting index nodes.
    pub wal_records_replayed: u64,
    /// WAL snapshot compactions taken across all index nodes.
    pub wal_snapshots: u64,
    /// Index nodes that crash-stopped and restarted from their WAL.
    pub node_restarts: u64,
    /// Scheduled anti-entropy rounds the cluster ran.
    pub antientropy_rounds: u64,
    /// Divergent Merkle buckets anti-entropy repaired.
    pub buckets_repaired: u64,
    /// Index entries streamed to close those divergences.
    pub entries_repaired: u64,
    /// Entries re-replicated to new owners after permanent departures.
    pub rereplicated_entries: u64,
    /// Hints dropped because their target permanently departed.
    pub hints_dropped: u64,
    /// Dead-timeout escalations peers recorded (observer × dead node).
    pub dead_declared: u64,
    /// Worst restart-to-convergence latency (ns; 0 when no node
    /// restarted or none has converged yet).
    pub recovery_latency_ns_max: u64,
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
    /// Byzantine-tolerance counters: proof-of-possession challenges,
    /// rejected false claims and poisoned bytes, trust-ledger strikes
    /// and liar quarantines (all zero when PoP was not armed and no
    /// peer misbehaved).
    pub byzantine: ef_kvstore::ByzantineStats,
}

impl RobustnessMetrics {
    /// Snapshots the fault counters of a simulated index cluster.
    pub fn from_sim(cluster: &ef_kvstore::SimCluster) -> Self {
        let recovery = cluster.recovery_stats();
        RobustnessMetrics {
            index_timeouts: cluster.timeouts(),
            index_retries: cluster.retries(),
            degraded_lookups: cluster.degraded_ops(),
            messages_dropped: cluster.network().messages_dropped(),
            wal_records_replayed: recovery.wal_records_replayed,
            wal_snapshots: cluster.wal_snapshots(),
            node_restarts: recovery.restarts,
            antientropy_rounds: recovery.antientropy_rounds,
            buckets_repaired: recovery.buckets_repaired,
            entries_repaired: recovery.entries_repaired,
            rereplicated_entries: recovery.rereplicated_entries,
            hints_dropped: recovery.hints_dropped,
            dead_declared: recovery.dead_declared,
            recovery_latency_ns_max: cluster
                .recovery_latencies()
                .into_iter()
                .map(|(_, d)| d.as_nanos())
                .max()
                .unwrap_or(0),
            integrity: cluster.integrity(),
            cache: cluster.cache_stats(),
            gray: cluster.gray_stats(),
            disaster: cluster.disaster_stats(),
            byzantine: cluster.byzantine_stats(),
        }
    }

    /// True when the run saw no fault-handling activity at all. Cache
    /// traffic is not fault activity, so it is ignored here; likewise
    /// the passive gray-failure observation counters (RTT samples,
    /// adapted timers, queue high-water mark), which accrue on every op
    /// once the mitigations are enabled even when nothing is wrong.
    /// Active mitigation — hedges, sheds, gray marks — is not quiet.
    /// The same split applies to the disaster layer: routine spool
    /// enqueue/drain traffic accrues on every unique once the uplink is
    /// enabled and is ignored, while outage windows, ring wipes,
    /// retransmits, spooled hints and repairs mean something went wrong.
    /// And to the trust layer: challenges issued, passed, or answered
    /// from the proven-possession cache are the routine price of armed
    /// proof-of-possession, while failed challenges, rejected claims,
    /// strikes and quarantines mean a peer actually lied.
    pub fn is_quiet(&self) -> bool {
        RobustnessMetrics {
            cache: ef_kvstore::CacheStats::default(),
            gray: ef_kvstore::GrayFailureStats {
                rtt_samples: 0,
                rto_adaptations: 0,
                queue_peak: 0,
                ..self.gray
            },
            disaster: ef_kvstore::DisasterStats {
                spool_enqueued: 0,
                spool_drained: 0,
                spool_depth: 0,
                spool_high_water: 0,
                spool_bytes_enqueued: 0,
                spool_bytes_drained: 0,
                ..self.disaster
            },
            byzantine: ef_kvstore::ByzantineStats {
                challenges_issued: 0,
                challenges_passed: 0,
                pop_cache_hits: 0,
                ..self.byzantine
            },
            ..*self
        } == RobustnessMetrics::default()
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
    /// Fault-handling counters (all zero for a fault-free run; absent
    /// fields in serialized input default to zero).
    pub robustness: RobustnessMetrics,
    /// Fingerprint-cache counters of the analytic ingest pass (all zero
    /// when `SystemConfig::cache_capacity` is 0, the default).
    pub cache: ef_kvstore::CacheStats,
    /// Restore-path accounting over the container layout the run built:
    /// per-node fragmentation (distinct containers per restore), read
    /// locality, serving-node spread, and defrag rewrite costs (absent
    /// fields in serialized input default to zero).
    pub restore: ef_cloudstore::RestoreStats,
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
            robustness: RobustnessMetrics::default(),
            cache: ef_kvstore::CacheStats::default(),
            restore: ef_cloudstore::RestoreStats::default(),
            nodes: Vec::new(),
        };
        assert_eq!(m.aggregate_cost(0.0), 1_000.0);
        assert_eq!(m.aggregate_cost(2.0), 1_100.0);
        assert!(m.robustness.is_quiet());
        assert!(m.restore.is_quiet());
    }

    #[test]
    fn quietness_ignores_cache_traffic() {
        // Cache hits are not fault activity: a fault-free cached run must
        // still read as quiet, while any real fault counter flips it.
        let mut r = RobustnessMetrics {
            cache: ef_kvstore::CacheStats {
                hits: 10,
                misses: 5,
                evictions: 1,
                insertions: 5,
                ..ef_kvstore::CacheStats::default()
            },
            ..RobustnessMetrics::default()
        };
        assert!(r.is_quiet());
        // Passive gray observation is not fault activity either...
        r.gray.rtt_samples = 40;
        r.gray.rto_adaptations = 12;
        r.gray.queue_peak = 3;
        assert!(r.is_quiet());
        // ...but active mitigation is.
        r.gray.hedges_fired = 1;
        assert!(!r.is_quiet());
        r.gray.hedges_fired = 0;
        r.index_timeouts = 1;
        assert!(!r.is_quiet());
        r.index_timeouts = 0;
        // Routine spool drain traffic is not fault activity...
        r.disaster.spool_enqueued = 8;
        r.disaster.spool_drained = 8;
        r.disaster.spool_high_water = 3;
        r.disaster.spool_bytes_enqueued = 1024;
        r.disaster.spool_bytes_drained = 1024;
        assert!(r.is_quiet());
        // ...but a disaster window, a retransmit or a repair is.
        r.disaster.outage_windows = 1;
        assert!(!r.is_quiet());
        r.disaster.outage_windows = 0;
        r.disaster.mesh_repairs = 1;
        assert!(!r.is_quiet());
        r.disaster.mesh_repairs = 0;
        // Routine proof-of-possession traffic is not fault activity...
        r.byzantine.challenges_issued = 20;
        r.byzantine.challenges_passed = 18;
        r.byzantine.pop_cache_hits = 7;
        assert!(r.is_quiet());
        // ...but a failed challenge or a quarantined liar is.
        r.byzantine.challenges_failed = 1;
        assert!(!r.is_quiet());
        r.byzantine.challenges_failed = 0;
        r.byzantine.liars_quarantined = 1;
        assert!(!r.is_quiet());
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
        assert!(r.index_retries > 0, "no retries under 30% loss");
        assert!(!r.is_quiet());
    }
}
