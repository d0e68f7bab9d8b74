//! The network: topology + configuration, with analytic delay queries and
//! FIFO-occupancy transfers.

use crate::fault::{FaultOutcome, FaultPlan};
use crate::id::NodeId;
use crate::link::{LinkParams, NetworkConfig};
use crate::topology::{SiteKind, Topology};
use ef_simcore::{FifoServer, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// Error from occupancy-tracking [`Network`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkError {
    /// The node has no uplink in the topology.
    UnknownNode(NodeId),
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::UnknownNode(n) => write!(f, "node {n:?} has no uplink"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// Verdict of a fault-aware framed send ([`Network::send_framed`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// When the frame arrives at the destination.
    pub arrival: SimTime,
    /// True when payload bits were flipped in flight (wire bit rot): the
    /// receiver's frame checksum is expected to reject the message.
    pub corrupt: bool,
}

/// A simulated network over a [`Topology`].
///
/// Two complementary interfaces:
///
/// * **Analytic** — [`Network::oneway_delay`] / [`Network::rtt`] /
///   [`Network::transfer_delay`] return unloaded path delays; and
///   [`Network::cost_matrix`] derives the SNOD2 `v_ij` inputs (RTT in
///   milliseconds, the latency-based cost the paper uses).
/// * **Occupancy** — [`Network::transfer`] pushes bytes through per-node
///   uplink/downlink FIFO servers, so concurrent flows queue and sustained
///   load saturates links.
///
/// A seeded [`FaultPlan`] may be attached with [`Network::set_fault_plan`];
/// [`Network::send`] then subjects every message to it (loss, jitter,
/// degradation, partitions) while [`Network::transfer`] stays fault-free for
/// analytic callers.
#[derive(Debug)]
pub struct Network {
    topology: Topology,
    config: NetworkConfig,
    /// Outgoing serialization server per node (models the NIC/uplink).
    uplinks: BTreeMap<NodeId, FifoServer>,
    fault_plan: Option<FaultPlan>,
    bytes_sent: u64,
    messages_sent: u64,
    messages_dropped: u64,
    bytes_dropped: u64,
    messages_corrupted: u64,
}

impl Network {
    /// Creates a network with the given topology and link configuration.
    pub fn new(topology: Topology, config: NetworkConfig) -> Self {
        let uplinks = topology.nodes().map(|n| (n, FifoServer::new())).collect();
        Network {
            topology,
            config,
            uplinks,
            fault_plan: None,
            bytes_sent: 0,
            messages_sent: 0,
            messages_dropped: 0,
            bytes_dropped: 0,
            messages_corrupted: 0,
        }
    }

    /// Attaches a fault plan; subsequent [`Network::send`] calls consult it.
    /// Replaces any previous plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The link configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The [`LinkParams`] governing the path from `src` to `dst`.
    pub fn link(&self, src: NodeId, dst: NodeId) -> LinkParams {
        if src == dst {
            return self.config.loopback;
        }
        let ss = self.topology.site_of(src);
        let ds = self.topology.site_of(dst);
        if ss == ds {
            return self.config.intra_site;
        }
        let sk = self.topology.site_kind(ss);
        let dk = self.topology.site_kind(ds);
        match (sk, dk) {
            (SiteKind::Edge, SiteKind::Edge) => self.config.inter_edge,
            // Any path touching the central cloud crosses the WAN.
            _ => self.config.wan,
        }
    }

    /// Unloaded one-way propagation latency from `src` to `dst`.
    pub fn oneway_delay(&self, src: NodeId, dst: NodeId) -> SimDuration {
        self.link(src, dst).latency
    }

    /// Unloaded round-trip time between two nodes.
    pub fn rtt(&self, src: NodeId, dst: NodeId) -> SimDuration {
        self.oneway_delay(src, dst) + self.oneway_delay(dst, src)
    }

    /// Unloaded transfer time of `bytes` from `src` to `dst` (latency plus
    /// serialization, no queueing).
    pub fn transfer_delay(&self, src: NodeId, dst: NodeId, bytes: u64) -> SimDuration {
        self.link(src, dst).transfer_delay(bytes)
    }

    /// Sends `bytes` from `src` to `dst` starting at `now`, occupying the
    /// sender's uplink for the serialization time. Returns the arrival time
    /// at `dst`.
    ///
    /// Concurrent transfers from the same node queue FIFO behind each
    /// other, which is what bottlenecks a node's sustained upload rate at
    /// its link bandwidth.
    ///
    /// # Errors
    ///
    /// [`NetworkError::UnknownNode`] when `src` has no uplink.
    ///
    /// # Panics
    ///
    /// Panics when arrivals go backwards in time (see
    /// [`FifoServer::serve`]).
    pub fn transfer(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> Result<SimTime, NetworkError> {
        self.transfer_scaled(now, src, dst, bytes, 1.0, 1.0)
    }

    /// [`Network::transfer`] with the service time stretched by fault
    /// factors. A fail-slow node (`slow_factor`) degrades its whole
    /// service leg — serialization *and* the per-message processing
    /// modeled by the link latency — which is what makes gray nodes
    /// visible even to small control RPCs. A congested link
    /// (`bandwidth_factor`) only divides bandwidth, stretching nothing
    /// but serialization. The stretched serialization occupies the
    /// sender's uplink, so backlog accumulates exactly as a slow disk
    /// or NIC would make it.
    fn transfer_scaled(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        slow_factor: f64,
        bandwidth_factor: f64,
    ) -> Result<SimTime, NetworkError> {
        let link = self.link(src, dst);
        let serialization = link.serialization_delay(bytes) * (slow_factor * bandwidth_factor);
        let uplink = self
            .uplinks
            .get_mut(&src)
            .ok_or(NetworkError::UnknownNode(src))?;
        let sent = uplink.serve(now, serialization);
        self.bytes_sent += bytes;
        self.messages_sent += 1;
        Ok(sent + link.latency * slow_factor)
    }

    /// Fault-aware variant of [`Network::transfer`]: sends `bytes` from
    /// `src` to `dst` starting at `now`, subjecting the message to the
    /// attached [`FaultPlan`] (if any). Returns `Ok(Some(arrival))` on
    /// delivery and `Ok(None)` when the message is lost to a loss rule
    /// or an active partition.
    ///
    /// The sender's uplink is occupied either way — a lost message was
    /// still transmitted; it vanishes downstream. Loopback messages
    /// (`src == dst`) are never dropped. Without a fault plan this
    /// behaves exactly like [`Network::transfer`].
    ///
    /// # Errors
    ///
    /// [`NetworkError::UnknownNode`] when `src` has no uplink.
    ///
    /// # Panics
    ///
    /// Panics when arrivals go backwards in time (see
    /// [`FifoServer::serve`]).
    pub fn send(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> Result<Option<SimTime>, NetworkError> {
        Ok(self.send_framed(now, src, dst, bytes)?.map(|d| d.arrival))
    }

    /// Like [`Network::send`], but reports whether the delivered frame
    /// was corrupted in flight by a bit-rot rule. Checksum-aware callers
    /// use this and reject corrupt frames at the receiver; plain
    /// [`Network::send`] callers see a corrupt frame as an ordinary
    /// arrival (the corruption still counts in
    /// [`Network::messages_corrupted`]).
    ///
    /// # Errors
    ///
    /// [`NetworkError::UnknownNode`] when `src` has no uplink.
    ///
    /// # Panics
    ///
    /// Panics when arrivals go backwards in time (see
    /// [`FifoServer::serve`]).
    pub fn send_framed(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> Result<Option<Delivery>, NetworkError> {
        let base_latency = self.link(src, dst).latency;
        if src == dst {
            // Loopback never traverses a link: exempt from all faults,
            // including fail-slow service stretching.
            let arrival = self.transfer(now, src, dst, bytes)?;
            return Ok(Some(Delivery {
                arrival,
                corrupt: false,
            }));
        }
        let src_site = self.topology.site_of(src);
        let dst_site = self.topology.site_of(dst);
        // Fail-slow / congested-link stretching is charged on the uplink
        // *before* the probabilistic verdicts: the message was served
        // slowly whether or not it is then lost downstream. The query is
        // zero-draw, so plans without slow rules replay bit-identically.
        let (slow_factor, bandwidth_factor) = self
            .fault_plan
            .as_mut()
            .map(|p| p.service_factors(now, src, dst, src_site, dst_site))
            .unwrap_or((1.0, 1.0));
        let arrival = self.transfer_scaled(now, src, dst, bytes, slow_factor, bandwidth_factor)?;
        let Some(plan) = self.fault_plan.as_mut() else {
            return Ok(Some(Delivery {
                arrival,
                corrupt: false,
            }));
        };
        Ok(
            match plan.judge(now, src, dst, src_site, dst_site, base_latency) {
                FaultOutcome::Deliver(extra) => Some(Delivery {
                    arrival: arrival + extra,
                    corrupt: false,
                }),
                FaultOutcome::DeliverCorrupt(extra) => {
                    self.messages_corrupted += 1;
                    Some(Delivery {
                        arrival: arrival + extra,
                        corrupt: true,
                    })
                }
                FaultOutcome::Drop => {
                    self.messages_dropped += 1;
                    self.bytes_dropped += bytes;
                    None
                }
            },
        )
    }

    /// The earliest time `src`'s uplink is free (its current backlog end).
    pub fn uplink_free_at(&self, src: NodeId) -> SimTime {
        self.uplinks
            .get(&src)
            .map(|s| s.next_free())
            .unwrap_or(SimTime::ZERO)
    }

    /// Total bytes pushed through [`Network::transfer`].
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total messages pushed through [`Network::transfer`].
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Messages lost by the fault plan in [`Network::send`].
    pub fn messages_dropped(&self) -> u64 {
        self.messages_dropped
    }

    /// Bytes lost by the fault plan in [`Network::send`].
    pub fn bytes_dropped(&self) -> u64 {
        self.bytes_dropped
    }

    /// Frames delivered with in-flight payload corruption.
    pub fn messages_corrupted(&self) -> u64 {
        self.messages_corrupted
    }

    /// Resets occupancy state and counters (e.g. between experiment runs).
    /// Fault-plan counters reset too; its RNG position and schedule do not.
    pub fn reset_occupancy(&mut self) {
        for s in self.uplinks.values_mut() {
            s.reset();
        }
        self.bytes_sent = 0;
        self.messages_sent = 0;
        self.messages_dropped = 0;
        self.bytes_dropped = 0;
        self.messages_corrupted = 0;
        if let Some(plan) = self.fault_plan.as_mut() {
            plan.reset_stats();
        }
    }

    /// The SNOD2 network-cost matrix `v_ij` over the given nodes: RTT in
    /// milliseconds between each ordered pair (0 on the diagonal).
    ///
    /// The paper measures `v_ij` "by the necessary bandwidth or network
    /// delay of the non-local hash lookup"; a hash lookup is a
    /// request/response, hence RTT.
    pub fn cost_matrix(&self, nodes: &[NodeId]) -> Vec<Vec<f64>> {
        nodes
            .iter()
            .map(|&i| {
                nodes
                    .iter()
                    .map(|&j| {
                        if i == j {
                            0.0
                        } else {
                            self.rtt(i, j).as_millis_f64()
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// The SNOD2 cost of fetching a chunk at `dst` from `src`, in
    /// milliseconds of RTT — the same latency-based `v_ij` unit
    /// [`Network::cost_matrix`] uses. Mesh repair extends the paper's
    /// cost accounting to the recovery tier: a neighbor-ring holder
    /// (inter-edge path) prices strictly below the erasure-coded cloud
    /// catalog (WAN path), so a wiped ring prefers neighbors and falls
    /// back to the cloud only for chunks no neighbor holds.
    pub fn repair_cost_ms(&self, src: NodeId, dst: NodeId) -> f64 {
        self.rtt(src, dst).as_millis_f64()
    }

    /// The cheapest live source for a repair fetch to `dst`, by
    /// [`Network::repair_cost_ms`], with NodeId order breaking ties so
    /// the choice is deterministic. `None` when `candidates` is empty.
    pub fn cheapest_source(&self, candidates: &[NodeId], dst: NodeId) -> Option<NodeId> {
        candidates.iter().copied().min_by(|&a, &b| {
            self.repair_cost_ms(a, dst)
                .total_cmp(&self.repair_cost_ms(b, dst))
                .then(a.cmp(&b))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;

    fn testbed() -> Network {
        // 2 edge clouds with 2 nodes each + 1 cloud node.
        let topo = TopologyBuilder::new()
            .edge_site(2)
            .edge_site(2)
            .cloud_site(1)
            .build();
        Network::new(topo, NetworkConfig::paper_testbed())
    }

    #[test]
    fn path_classification() {
        let net = testbed();
        let cfg = net.config();
        // intra-site
        assert_eq!(net.link(NodeId(0), NodeId(1)), cfg.intra_site);
        // inter-edge
        assert_eq!(net.link(NodeId(0), NodeId(2)), cfg.inter_edge);
        // WAN (edge → cloud and cloud → edge)
        assert_eq!(net.link(NodeId(0), NodeId(4)), cfg.wan);
        assert_eq!(net.link(NodeId(4), NodeId(0)), cfg.wan);
        // loopback
        assert_eq!(net.link(NodeId(3), NodeId(3)), cfg.loopback);
    }

    #[test]
    fn rtt_is_twice_oneway_for_symmetric_paths() {
        let net = testbed();
        let ow = net.oneway_delay(NodeId(0), NodeId(2));
        assert_eq!(net.rtt(NodeId(0), NodeId(2)), ow + ow);
    }

    #[test]
    fn transfer_queues_on_uplink() {
        let mut net = testbed();
        // 1.726 Gbps intra-site: 21575000 bytes take ~0.1 s to serialize.
        let bytes = 21_575_000;
        let a1 = net
            .transfer(SimTime::ZERO, NodeId(0), NodeId(1), bytes)
            .unwrap();
        let a2 = net
            .transfer(SimTime::ZERO, NodeId(0), NodeId(1), bytes)
            .unwrap();
        let gap = a2 - a1;
        assert!((gap.as_secs_f64() - 0.1).abs() < 1e-3, "gap {gap}");
        assert_eq!(net.bytes_sent(), bytes * 2);
        assert_eq!(net.messages_sent(), 2);
    }

    #[test]
    fn transfers_from_different_nodes_do_not_queue() {
        let mut net = testbed();
        let bytes = 21_575_000;
        let a1 = net
            .transfer(SimTime::ZERO, NodeId(0), NodeId(1), bytes)
            .unwrap();
        let a2 = net
            .transfer(SimTime::ZERO, NodeId(1), NodeId(0), bytes)
            .unwrap();
        assert_eq!(a1, a2);
    }

    #[test]
    fn cost_matrix_is_symmetric_with_zero_diagonal() {
        let net = testbed();
        let nodes: Vec<NodeId> = net.topology().edge_nodes();
        let m = net.cost_matrix(&nodes);
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], 0.0);
            for (j, cell) in row.iter().enumerate() {
                assert_eq!(*cell, m[j][i]);
            }
        }
        // Intra-site pair cheaper than inter-edge pair.
        assert!(m[0][1] < m[0][2]);
    }

    #[test]
    fn wan_slower_than_edge() {
        let net = testbed();
        let edge_rtt = net.rtt(NodeId(0), NodeId(2));
        let wan_rtt = net.rtt(NodeId(0), NodeId(4));
        assert!(wan_rtt > edge_rtt);
        // Paper numbers: 2*12.2 = 24.4 ms WAN RTT.
        assert!((wan_rtt.as_millis_f64() - 24.4).abs() < 1e-6);
    }

    #[test]
    fn repair_tier_prices_neighbor_ring_below_cloud() {
        let net = testbed();
        // A node in edge site 1 repairing node 0: the inter-edge neighbor
        // must be strictly cheaper than the cloud's WAN round trip.
        let neighbor = net.repair_cost_ms(NodeId(2), NodeId(0));
        let cloud = net.repair_cost_ms(NodeId(4), NodeId(0));
        assert!(
            neighbor < cloud,
            "neighbor {neighbor}ms must undercut cloud {cloud}ms"
        );
        // cheapest_source prefers the intra/inter-edge holder over the
        // cloud, and ties break deterministically by NodeId.
        assert_eq!(
            net.cheapest_source(&[NodeId(4), NodeId(2)], NodeId(0)),
            Some(NodeId(2))
        );
        assert_eq!(
            net.cheapest_source(&[NodeId(3), NodeId(2)], NodeId(0)),
            Some(NodeId(2)),
            "equal-cost holders must tie-break by NodeId"
        );
        assert_eq!(net.cheapest_source(&[], NodeId(0)), None);
    }

    #[test]
    fn send_respects_blackout_windows() {
        use crate::fault::{FaultPlan, FaultScope};
        use crate::id::SiteId;
        let mut net = testbed();
        // Cut the cloud site's uplink: all WAN traffic dies, edge-to-edge
        // traffic flows.
        net.set_fault_plan(FaultPlan::new(8).blackout(
            FaultScope::Site(SiteId(2)),
            SimTime::ZERO,
            SimTime::from_secs_f64(5.0),
        ));
        assert_eq!(net.send(SimTime::ZERO, NodeId(0), NodeId(4), 64), Ok(None));
        assert_eq!(net.send(SimTime::ZERO, NodeId(4), NodeId(0), 64), Ok(None));
        assert!(net
            .send(SimTime::ZERO, NodeId(0), NodeId(2), 64)
            .unwrap()
            .is_some());
        // After the window the uplink heals.
        assert!(net
            .send(SimTime::from_secs_f64(5.0), NodeId(0), NodeId(4), 64)
            .unwrap()
            .is_some());
    }

    #[test]
    fn send_without_plan_matches_transfer() {
        let mut net = testbed();
        let via_send = net
            .send(SimTime::ZERO, NodeId(0), NodeId(2), 1000)
            .unwrap()
            .unwrap();
        net.reset_occupancy();
        let via_transfer = net
            .transfer(SimTime::ZERO, NodeId(0), NodeId(2), 1000)
            .unwrap();
        assert_eq!(via_send, via_transfer);
    }

    #[test]
    fn send_drops_under_full_loss_but_loopback_survives() {
        use crate::fault::{FaultPlan, FaultScope};
        let mut net = testbed();
        net.set_fault_plan(FaultPlan::new(9).loss(FaultScope::All, 1.0));
        assert_eq!(net.send(SimTime::ZERO, NodeId(0), NodeId(2), 500), Ok(None));
        assert_eq!(net.messages_dropped(), 1);
        assert_eq!(net.bytes_dropped(), 500);
        // Loopback is exempt from faults.
        assert!(net
            .send(SimTime::ZERO, NodeId(3), NodeId(3), 500)
            .unwrap()
            .is_some());
        // Uplink was still occupied by the lost message.
        assert!(net.uplink_free_at(NodeId(0)) > SimTime::ZERO);
    }

    #[test]
    fn send_respects_partition_windows() {
        use crate::fault::FaultPlan;
        use crate::id::SiteId;
        let mut net = testbed();
        // Sites: 0 = {n0, n1}, 1 = {n2, n3}, 2 = cloud {n4}.
        net.set_fault_plan(FaultPlan::new(4).partition(
            SiteId(0),
            SiteId(1),
            SimTime::ZERO,
            SimTime::from_secs_f64(5.0),
        ));
        assert_eq!(net.send(SimTime::ZERO, NodeId(0), NodeId(2), 64), Ok(None));
        assert_eq!(net.send(SimTime::ZERO, NodeId(2), NodeId(1), 64), Ok(None));
        // Same-site and cloud paths unaffected.
        assert!(net
            .send(SimTime::ZERO, NodeId(0), NodeId(1), 64)
            .unwrap()
            .is_some());
        assert!(net
            .send(SimTime::ZERO, NodeId(0), NodeId(4), 64)
            .unwrap()
            .is_some());
        // After healing the pair talks again.
        let healed = SimTime::from_secs_f64(5.0);
        assert!(net
            .send(healed, NodeId(0), NodeId(2), 64)
            .unwrap()
            .is_some());
    }

    #[test]
    fn send_jitter_delays_but_delivers() {
        use crate::fault::{FaultPlan, FaultScope};
        let mut net = testbed();
        let clean = net
            .transfer(SimTime::ZERO, NodeId(0), NodeId(2), 64)
            .unwrap();
        net.reset_occupancy();
        net.set_fault_plan(FaultPlan::new(2).jitter(FaultScope::All, SimDuration::from_millis(3)));
        let max_extra = SimDuration::from_millis(3);
        for _ in 0..20 {
            net.reset_occupancy();
            let a = net
                .send(SimTime::ZERO, NodeId(0), NodeId(2), 64)
                .unwrap()
                .unwrap();
            assert!(a >= clean && a <= clean + max_extra, "arrival {a}");
        }
    }

    #[test]
    fn send_framed_flags_rotted_frames() {
        use crate::fault::{FaultPlan, FaultScope};
        let mut net = testbed();
        net.set_fault_plan(FaultPlan::new(6).bitrot(FaultScope::All, 1.0));
        let d = net
            .send_framed(SimTime::ZERO, NodeId(0), NodeId(2), 64)
            .unwrap()
            .unwrap();
        assert!(d.corrupt, "full bit rot must flag the frame");
        assert_eq!(net.messages_corrupted(), 1);
        assert_eq!(net.messages_dropped(), 0, "rot is not loss");
        // Loopback is exempt from faults.
        let lb = net
            .send_framed(SimTime::ZERO, NodeId(3), NodeId(3), 64)
            .unwrap()
            .unwrap();
        assert!(!lb.corrupt);
        // Plain send still reports the arrival but counts the rot.
        assert!(net
            .send(SimTime::ZERO, NodeId(0), NodeId(2), 64)
            .unwrap()
            .is_some());
        assert_eq!(net.messages_corrupted(), 2);
        net.reset_occupancy();
        assert_eq!(net.messages_corrupted(), 0);
    }

    #[test]
    fn slow_node_stretches_service_and_backlogs_its_uplink() {
        use crate::fault::FaultPlan;
        let mut net = testbed();
        let bytes = 21_575_000; // ~0.1 s serialization at 1.726 Gbps
        let clean = net
            .send(SimTime::ZERO, NodeId(0), NodeId(1), bytes)
            .unwrap()
            .unwrap();
        let clean_backlog = net.uplink_free_at(NodeId(0));
        net.reset_occupancy();
        net.set_fault_plan(FaultPlan::new(3).slow_node(
            NodeId(0),
            4.0,
            SimTime::ZERO,
            SimTime::MAX,
        ));
        let slow = net
            .send(SimTime::ZERO, NodeId(0), NodeId(1), bytes)
            .unwrap()
            .unwrap();
        let gap = (slow - clean).as_secs_f64();
        // 4x stretches the ~0.1s serialization by 0.3s and the 0.85ms
        // intra-site latency by 3 * 0.85ms (the whole service leg slows).
        assert!(
            (gap - 0.30255).abs() < 1e-3,
            "4x service should add ~0.30255s: {gap}"
        );
        // Backlog grows with the stretch: the next message queues behind it.
        assert!(net.uplink_free_at(NodeId(0)) > clean_backlog);
        // Other senders are unaffected.
        net.reset_occupancy();
        let other = net
            .send(SimTime::ZERO, NodeId(1), NodeId(0), bytes)
            .unwrap()
            .unwrap();
        assert_eq!(other, clean);
        assert_eq!(net.fault_plan().unwrap().stats().slowed, 0);
    }

    #[test]
    fn throttle_reduces_effective_bandwidth_on_scoped_links() {
        use crate::fault::{FaultPlan, FaultScope};
        use crate::id::SiteId;
        let mut net = testbed();
        let bytes = 21_575_000;
        let clean = net
            .send(SimTime::ZERO, NodeId(0), NodeId(2), bytes)
            .unwrap()
            .unwrap();
        net.reset_occupancy();
        net.set_fault_plan(FaultPlan::new(3).throttle(
            FaultScope::SitePair(SiteId(0), SiteId(1)),
            2.0,
            SimTime::ZERO,
            SimTime::from_secs_f64(100.0),
        ));
        let congested = net
            .send(SimTime::ZERO, NodeId(0), NodeId(2), bytes)
            .unwrap()
            .unwrap();
        let gap = (congested - clean).as_secs_f64();
        assert!(
            (gap - 0.1).abs() < 1e-3,
            "half bandwidth doubles 0.1s: {gap}"
        );
        assert_eq!(net.fault_plan().unwrap().stats().throttled, 1);
        // Intra-site traffic is outside the scope.
        net.reset_occupancy();
        let intra = net
            .send(SimTime::ZERO, NodeId(0), NodeId(1), bytes)
            .unwrap()
            .unwrap();
        let unthrottled = net.transfer_delay(NodeId(0), NodeId(1), bytes);
        assert_eq!(intra, SimTime::ZERO + unthrottled);
    }

    #[test]
    fn reset_clears_counters() {
        let mut net = testbed();
        net.transfer(SimTime::ZERO, NodeId(0), NodeId(1), 100)
            .unwrap();
        net.reset_occupancy();
        assert_eq!(net.bytes_sent(), 0);
        assert_eq!(net.messages_sent(), 0);
        assert_eq!(net.uplink_free_at(NodeId(0)), SimTime::ZERO);
    }
}
