//! System configuration and calibration constants.

/// Calibrated parameters of the Dedup Agent pipeline and its substrate.
///
/// Defaults approximate the paper's testbed (4-VCPU/8 GB edge VMs,
/// 8-VCPU/15 GB cloud VMs) at the granularity the steady-state model
/// needs. Absolute throughput differs from the authors' hardware; the
/// experiments reproduce relative behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
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
}

impl SystemConfig {
    /// The paper-testbed calibration (see DESIGN.md §4).
    pub fn paper_testbed() -> Self {
        SystemConfig {
            replication_factor: 2,
            lookup_concurrency: 384,
            edge_cpu_bw: 200e6,
            cloud_cpu_bw: 800e6,
            index_service_secs: 15e-6,
            lookup_wire_bytes: 80,
            tcp_window_bytes: 512.0 * 1024.0,
            upload_streams: 4,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on non-positive parameters.
    pub fn validate(&self) {
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
        // The calibration is eight numbers (DESIGN.md §4): with a field
        // more or less, this pattern does not compile.
        let SystemConfig {
            replication_factor: _,
            lookup_concurrency: _,
            edge_cpu_bw: _,
            cloud_cpu_bw: _,
            index_service_secs: _,
            lookup_wire_bytes: _,
            tcp_window_bytes: _,
            upload_streams: _,
        } = SystemConfig::default();
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
}
