//! # ef-netsim — edge/WAN network simulation substrate
//!
//! Models the network of the paper's testbed (Sec. V): edge nodes grouped
//! into *sites* (edge clouds), a central cloud site, and NetEm-style link
//! parameters (latency, jitter, bandwidth) between them. The paper's
//! measured values are provided as presets:
//!
//! * intra-edge-cloud: 0.85 ms latency, 1.726 Gbps,
//! * edge ↔ central cloud (WAN): 12.2 ms latency, 0.377 Gbps,
//! * inter-edge-cloud: configurable (the paper sweeps 5–30 ms with NetEm).
//!
//! The substrate offers two views used by different layers:
//!
//! * an **analytic view** ([`Network::oneway_delay`], [`Network::rtt`],
//!   [`Network::cost_matrix`]) that yields the `v_ij` network-cost inputs
//!   of the SNOD2 optimization, and
//! * an **occupancy view** ([`Network::transfer`]) that serializes bytes
//!   through per-link FIFO servers so sustained flows saturate links — the
//!   effect that throttles the Cloud-only baseline in Fig. 5.
//!
//! On top of both sits a **chaos layer**: a seeded [`FaultPlan`] attached to
//! the network is one list of [`FaultWindow`]s — message loss, wire bit rot,
//! site-pair partitions and blackouts with heal times, fail-slow nodes,
//! congested links, and Byzantine liars the cluster driver consults.
//! Fault-aware callers use [`Network::send`], which returns `None` for lost
//! messages; checksum-aware callers use [`Network::send_framed`], which also
//! flags frames corrupted in flight. Everything is driven by a deterministic
//! RNG so runs replay bit-identically from a seed.
//!
//! # Example
//!
//! ```
//! use ef_netsim::{TopologyBuilder, LinkParams, Network, NetworkConfig};
//! use ef_simcore::SimDuration;
//!
//! let topo = TopologyBuilder::new()
//!     .edge_site(2)      // one edge cloud with two nodes
//!     .edge_site(1)      // another with one node
//!     .cloud_site(1)     // the central cloud
//!     .build();
//! let net = Network::new(topo, NetworkConfig::paper_testbed());
//! let nodes = net.topology().edge_nodes();
//! // Same-site lookup is fast; cross-site pays the inter-cloud latency.
//! assert!(net.rtt(nodes[0], nodes[1]) < net.rtt(nodes[0], nodes[2]));
//! ```

#![warn(missing_docs)]

mod fault;
mod id;
mod link;
mod network;
mod topology;

pub use fault::{ByzantineFault, Fault, FaultOutcome, FaultPlan, FaultScope, FaultWindow};
pub use id::{NodeId, SiteId};
pub use link::{LinkParams, NetworkConfig};
pub use network::{Delivery, Network, NetworkError};
pub use topology::{SiteKind, Topology, TopologyBuilder};
