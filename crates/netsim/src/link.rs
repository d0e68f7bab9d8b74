//! Link parameters and NetEm-style network configuration.

use ef_simcore::SimDuration;

/// Parameters of a (directed) network path: propagation latency and
/// bandwidth. Mirrors what the paper controls with NetEm plus the measured
/// testbed bandwidths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Link bandwidth in bits per second.
    pub bandwidth_bps: f64,
}

impl LinkParams {
    /// Creates link parameters.
    ///
    /// # Panics
    ///
    /// Panics when `bandwidth_bps` is not positive and finite.
    pub fn new(latency: SimDuration, bandwidth_bps: f64) -> Self {
        assert!(
            bandwidth_bps.is_finite() && bandwidth_bps > 0.0,
            "invalid bandwidth {bandwidth_bps}"
        );
        LinkParams {
            latency,
            bandwidth_bps,
        }
    }

    /// Convenience constructor from milliseconds and gigabits per second.
    pub fn from_ms_gbps(latency_ms: f64, gbps: f64) -> Self {
        LinkParams::new(SimDuration::from_secs_f64(latency_ms / 1e3), gbps * 1e9)
    }

    /// Serialization (transmission) delay of `bytes` on this link.
    pub fn serialization_delay(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.bandwidth_bps)
    }

    /// Total unloaded transfer time: latency plus serialization.
    pub fn transfer_delay(&self, bytes: u64) -> SimDuration {
        self.latency + self.serialization_delay(bytes)
    }
}

/// The site-level network configuration: which [`LinkParams`] apply to a
/// given pair of sites.
///
/// Three classes of paths exist in the paper's testbed, each with its own
/// parameters:
///
/// * within one edge cloud (`intra_site`),
/// * between two edge clouds (`inter_edge`),
/// * between an edge cloud and the central cloud (`wan`).
///
/// Paths inside the central cloud also use `intra_site`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Path between two nodes in the same site.
    pub intra_site: LinkParams,
    /// Path between two different edge clouds.
    pub inter_edge: LinkParams,
    /// Path between an edge cloud and the central cloud.
    pub wan: LinkParams,
    /// Loopback "path" from a node to itself (local lookup). Latency is the
    /// local-processing floor; bandwidth is effectively memory speed.
    pub loopback: LinkParams,
}

impl NetworkConfig {
    /// The paper's measured testbed profile (Sec. V):
    /// intra-edge 0.85 ms / 1.726 Gbps, WAN 12.2 ms / 0.377 Gbps,
    /// inter-edge-cloud 5 ms (the Fig. 6 default) at intra-edge bandwidth.
    pub fn paper_testbed() -> Self {
        NetworkConfig {
            intra_site: LinkParams::from_ms_gbps(0.85, 1.726),
            inter_edge: LinkParams::from_ms_gbps(5.0, 1.726),
            wan: LinkParams::from_ms_gbps(12.2, 0.377),
            loopback: LinkParams::from_ms_gbps(0.01, 100.0),
        }
    }

    /// Returns a copy with a different inter-edge-cloud latency — the knob
    /// the paper turns with NetEm in Fig. 6.
    pub fn with_inter_edge_latency_ms(mut self, ms: f64) -> Self {
        self.inter_edge = LinkParams::from_ms_gbps(ms, self.inter_edge.bandwidth_bps / 1e9);
        self
    }

    /// Returns a copy with a different edge↔cloud (WAN) latency — the knob
    /// of Fig. 5(b).
    pub fn with_wan_latency_ms(mut self, ms: f64) -> Self {
        self.wan = LinkParams::from_ms_gbps(ms, self.wan.bandwidth_bps / 1e9);
        self
    }
}

impl Default for NetworkConfig {
    /// The paper's testbed profile.
    fn default() -> Self {
        Self::paper_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_delay_scales_with_bytes() {
        let link = LinkParams::from_ms_gbps(1.0, 1.0); // 1 Gbps
                                                       // 125 MB at 1 Gbps = 1 s.
        let d = link.serialization_delay(125_000_000);
        assert!((d.as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn transfer_includes_latency() {
        let link = LinkParams::from_ms_gbps(10.0, 1.0);
        let d = link.transfer_delay(0);
        assert!((d.as_millis_f64() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn paper_testbed_values() {
        let cfg = NetworkConfig::paper_testbed();
        assert!((cfg.intra_site.latency.as_millis_f64() - 0.85).abs() < 1e-9);
        assert!((cfg.wan.latency.as_millis_f64() - 12.2).abs() < 1e-9);
        assert!((cfg.wan.bandwidth_bps - 0.377e9).abs() < 1.0);
    }

    #[test]
    fn netem_knobs() {
        let cfg = NetworkConfig::paper_testbed()
            .with_inter_edge_latency_ms(30.0)
            .with_wan_latency_ms(100.0);
        assert!((cfg.inter_edge.latency.as_millis_f64() - 30.0).abs() < 1e-9);
        assert!((cfg.wan.latency.as_millis_f64() - 100.0).abs() < 1e-9);
        // Bandwidths preserved.
        assert!((cfg.inter_edge.bandwidth_bps - 1.726e9).abs() < 1.0);
        assert!((cfg.wan.bandwidth_bps - 0.377e9).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid bandwidth")]
    fn rejects_zero_bandwidth() {
        LinkParams::new(SimDuration::ZERO, 0.0);
    }
}
