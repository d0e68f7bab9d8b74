//! System configuration and calibration constants.

/// Calibrated parameters of the Dedup Agent pipeline and its substrate.
///
/// Defaults approximate the paper's testbed (4-VCPU/8 GB edge VMs,
/// 8-VCPU/15 GB cloud VMs) at the granularity the steady-state model
/// needs. Absolute throughput differs from the authors' hardware; the
/// experiments reproduce relative behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Bytes per chunk (the equal-size chunk of the paper's model).
    pub chunk_size: usize,
    /// Chunk-hash replication factor γ inside a ring (testbed: 2).
    pub replication_factor: usize,
    /// Outstanding index lookups an agent keeps in flight. High
    /// concurrency hides most lookup latency, as the Cassandra client in
    /// the prototype does; residual per-chunk latency is `RTT / depth`.
    pub lookup_concurrency: usize,
    /// Edge-node chunking+hashing throughput (bytes/second).
    pub edge_cpu_bw: f64,
    /// Cloud-node processing throughput (bytes/second) for Cloud-Only
    /// server-side dedup.
    pub cloud_cpu_bw: f64,
    /// CPU time an index owner spends serving one remote hash lookup
    /// (seconds) — bounds the shared cloud index under Cloud-Assisted and
    /// charges ring peers under EF-dedup.
    pub index_service_secs: f64,
    /// Bytes on the wire per hash lookup round trip (request + response).
    pub lookup_wire_bytes: u64,
    /// TCP congestion-window proxy per upload flow (bytes): long-RTT
    /// paths cap a flow's throughput at `window / RTT`.
    pub tcp_window_bytes: f64,
    /// Parallel upload flows per agent.
    pub upload_streams: usize,
    /// Per-node fingerprint-cache capacity in entries; 0 disables the
    /// cache (the paper-testbed default, keeping the headline experiments
    /// cache-free and directly comparable to earlier runs). A cache hit
    /// confirms a duplicate locally, skipping the ring lookup; see the
    /// DESIGN.md hot-path section for the one-sided soundness argument.
    pub cache_capacity: usize,
    /// LRU shards per node's fingerprint cache (bounds eviction scan
    /// domains and mirrors the concurrent layout a real agent would use).
    pub cache_shards: usize,
    /// Container capacity in bytes for the restore-path layout model:
    /// unique chunks append into fixed-capacity containers in arrival
    /// order, and `SystemMetrics::restore` measures how many containers
    /// a per-node restore touches (DESIGN.md §16).
    pub container_bytes: usize,
    /// Duplicate-rewrite policy of the restore-path layout model:
    /// [`ef_cloudstore::DefragPolicy::Off`] (default) keeps maximum
    /// dedup; `CapRewrite { window }` rewrites stale duplicates to the
    /// write frontier, trading stored bytes for restore locality.
    pub defrag: ef_cloudstore::DefragPolicy,
}

impl SystemConfig {
    /// The paper-testbed calibration (see DESIGN.md §4).
    pub fn paper_testbed() -> Self {
        SystemConfig {
            chunk_size: 4096,
            replication_factor: 2,
            lookup_concurrency: 384,
            edge_cpu_bw: 200e6,
            cloud_cpu_bw: 800e6,
            index_service_secs: 15e-6,
            lookup_wire_bytes: 80,
            tcp_window_bytes: 512.0 * 1024.0,
            upload_streams: 4,
            cache_capacity: 0,
            cache_shards: 8,
            // 64 chunks of the default 4 KiB — small enough that
            // fragmentation is visible at test scale, large enough to
            // amortize a seek.
            container_bytes: 256 * 1024,
            defrag: ef_cloudstore::DefragPolicy::Off,
        }
    }

    /// The paper-testbed calibration with the fingerprint cache enabled
    /// at `capacity` entries per node.
    pub fn with_cache(capacity: usize) -> Self {
        SystemConfig {
            cache_capacity: capacity,
            ..Self::paper_testbed()
        }
    }

    /// The paper-testbed calibration with capped-rewrite defrag enabled
    /// at `window` containers behind the write frontier.
    pub fn with_defrag(window: u32) -> Self {
        SystemConfig {
            defrag: ef_cloudstore::DefragPolicy::CapRewrite { window },
            ..Self::paper_testbed()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on non-positive parameters.
    pub fn validate(&self) {
        assert!(self.chunk_size > 0, "chunk size must be positive");
        assert!(self.replication_factor > 0, "gamma must be positive");
        assert!(self.lookup_concurrency > 0, "need lookup concurrency");
        assert!(
            self.edge_cpu_bw > 0.0,
            "edge cpu bandwidth must be positive"
        );
        assert!(
            self.cloud_cpu_bw > 0.0,
            "cloud cpu bandwidth must be positive"
        );
        assert!(
            self.index_service_secs > 0.0,
            "index service time must be positive"
        );
        assert!(self.tcp_window_bytes > 0.0, "tcp window must be positive");
        assert!(self.upload_streams > 0, "need at least one upload stream");
        assert!(
            self.cache_capacity == 0 || self.cache_shards > 0,
            "an enabled cache needs at least one shard"
        );
        assert!(
            self.container_bytes > 0,
            "container capacity must be positive"
        );
    }
}

impl Default for SystemConfig {
    /// The paper-testbed calibration.
    fn default() -> Self {
        Self::paper_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        SystemConfig::default().validate();
        assert_eq!(SystemConfig::default(), SystemConfig::paper_testbed());
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn zero_chunk_size_rejected() {
        SystemConfig {
            chunk_size: 0,
            ..SystemConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn zero_gamma_rejected() {
        SystemConfig {
            replication_factor: 0,
            ..SystemConfig::default()
        }
        .validate();
    }

    #[test]
    fn cache_defaults_off_and_with_cache_enables() {
        assert_eq!(SystemConfig::default().cache_capacity, 0);
        let cfg = SystemConfig::with_cache(4096);
        cfg.validate();
        assert_eq!(cfg.cache_capacity, 4096);
        assert!(cfg.cache_shards > 0);
    }

    #[test]
    fn defrag_defaults_off_and_with_defrag_enables() {
        assert_eq!(
            SystemConfig::default().defrag,
            ef_cloudstore::DefragPolicy::Off
        );
        let cfg = SystemConfig::with_defrag(2);
        cfg.validate();
        assert_eq!(
            cfg.defrag,
            ef_cloudstore::DefragPolicy::CapRewrite { window: 2 }
        );
        assert!(cfg.container_bytes > 0);
    }

    #[test]
    #[should_panic(expected = "container capacity")]
    fn zero_container_bytes_rejected() {
        SystemConfig {
            container_bytes: 0,
            ..SystemConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn enabled_cache_needs_shards() {
        SystemConfig {
            cache_capacity: 100,
            cache_shards: 0,
            ..SystemConfig::default()
        }
        .validate();
    }
}
