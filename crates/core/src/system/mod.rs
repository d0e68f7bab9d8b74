//! The EF-dedup system (paper Sec. IV) and its evaluation baselines.
//!
//! Architecture (Fig. 4): every edge node runs a **Dedup Agent** that
//! splits incoming data into chunks, hashes each chunk, and consults the
//! deduplication index. Under EF-dedup the index of each **D2-ring** lives
//! in a distributed key-value store (`ef-kvstore`) spread over the ring's
//! nodes; only chunks whose hash is new are uploaded to the central
//! cloud. Two baselines from Sec. V-A are implemented alongside:
//!
//! * **Cloud-Only** — raw data is shipped to the central cloud, which
//!   deduplicates there (bottleneck: the constrained WAN uplink),
//! * **Cloud-Assisted** — the index lives in the central cloud; agents
//!   look hashes up remotely over the WAN and upload unique chunks only
//!   (bottleneck: WAN-latency lookups and the shared cloud index).
//!
//! [`run_system`] is the model-level evaluator of the paper's figures
//! (Figs. 5–7 and the γ / partitioner ablations): dedup ratio, lookup
//! cost, WAN bytes and pipeline throughput per [`Strategy`]. Timing comes
//! from a calibrated steady-state pipeline model: each agent's per-chunk
//! time is the maximum of its pipeline stages (CPU, index lookup, WAN
//! upload, shared-capacity terms), with the stage values **measured**
//! from an actual run of the chunk streams through the ring indexes —
//! uniqueness, replica locality and lookup costs are real, not assumed.
//! DESIGN.md §4 documents the calibration; the `SimCluster` driver in
//! `ef-kvstore` validates the lookup-latency side of the model.
//!
//! It is not the system under faults, and not the byte path: it runs no
//! fingerprint cache, lays out no containers and injects nothing. The
//! cache and the restore layout are measured on real bytes by `bench_e2e`
//! and `ablation_chunking`; fault handling is measured on `SimCluster`,
//! whose counters [`RobustnessMetrics::from_sim`] snapshots.

mod config;
mod metrics;
mod run;
mod workload;

pub use config::SystemConfig;
pub use ef_kvstore::GrayFailureStats;
pub use metrics::{NodeMetrics, RobustnessMetrics, SystemMetrics};
pub use run::{run_system, Strategy};
pub use workload::Workload;
