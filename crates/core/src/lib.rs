//! # efdedup — collaborative data deduplication at the network edge
//!
//! A from-scratch reproduction of *EF-dedup: Enabling Collaborative Data
//! Deduplication at the Network Edge* (Li, Lan, Balasubramanian, Ra, Lee,
//! Panta — ICDCS 2019).
//!
//! EF-dedup partitions resource-constrained edge nodes into disjoint
//! deduplication clusters ("D2-rings"), keeps each ring's chunk-hash index
//! in a distributed key-value store spread over the ring's nodes, and
//! uploads only unique chunks to the central cloud. The partitioning
//! jointly optimizes storage space and network cost (the NP-hard **SNOD2**
//! problem) using the greedy **SMART** heuristic over a chunk-pool
//! similarity model fitted from data samples (**Algorithm 1**).
//!
//! The crate is organized by paper section:
//!
//! * [`model`] — the analytics of Sec. II/III: Theorem 1 dedup ratio
//!   `Ω(P)`, storage cost `U(P)` (Eq. 1), network cost `V(P)` (Eq. 2), and
//!   [`model::Snod2Instance`] bundling a full problem instance (Eq. 3).
//! * [`estimator`] — Algorithm 1: fitting chunk-pool sizes and
//!   characteristic vectors to measured dedup ratios of sampled files,
//!   with warm starts across time slots.
//! * [`partition`] — Algorithm 2 (SMART), the matching-based variant, the
//!   equal-size variant, the Network-Only / Dedup-Only / Random /
//!   SingleRing / PerSite baselines, and an exhaustive optimum for small
//!   instances.
//! * [`reduction`] — the Theorem 2 construction mapping minimum k-cut to
//!   SNOD2 (used to validate the NP-hardness algebra).
//! * [`system`] — Sec. IV: the Dedup Agent, D2-rings over the distributed
//!   key-value store, the central cloud, and the Cloud-Only /
//!   Cloud-Assisted baselines, all priced on the simulated testbed.
//! * [`experiments`] — parameterized runners reproducing every figure of
//!   Sec. V.
//!
//! # Quickstart
//!
//! ```
//! use efdedup::model::Snod2Instance;
//! use efdedup::partition::{Partitioner, SmartGreedy};
//! use ef_datagen::datasets;
//! use ef_netsim::{Network, NetworkConfig, TopologyBuilder};
//!
//! // Six edge nodes in three edge clouds, paper-testbed network.
//! let topo = TopologyBuilder::new().edge_sites(3, 2).cloud_site(1).build();
//! let net = Network::new(topo, NetworkConfig::paper_testbed());
//! let dataset = datasets::accelerometer(6, 42);
//!
//! // Build the SNOD2 instance from the dataset model + measured costs.
//! let inst = Snod2Instance::from_parts(
//!     dataset.model(),
//!     net.cost_matrix(&net.topology().edge_nodes()),
//!     0.1,   // alpha: network-vs-storage trade-off
//!     2,     // gamma: hash replication factor
//!     10.0,  // horizon T seconds
//! ).unwrap();
//!
//! // Partition into 3 D2-rings with SMART and inspect the cost.
//! let partition = SmartGreedy::default().partition(&inst, 3);
//! let cost = inst.total_cost(&partition);
//! assert!(cost.aggregate > 0.0);
//! ```

#![warn(missing_docs)]

pub mod estimator;
pub mod experiments;
pub mod model;
pub mod partition;
pub mod reduction;
pub mod similarity;
pub mod system;
