//! Parameterized experiment runners reproducing every figure of the
//! paper's evaluation (Sec. V). Each function returns typed rows; the
//! `ef-bench` binaries print them in the paper's format and
//! `EXPERIMENTS.md` records paper-vs-measured values.

use crate::estimator::{Estimator, EstimatorConfig, FittedModel, GroundTruth};
use crate::model::Snod2Instance;
use crate::partition::{DedupOnly, NetworkOnly, Partition, Partitioner, SmartGreedy};
use crate::system::{run_system, Strategy, SystemConfig, SystemMetrics, Workload};
use ef_chunking::ChunkerKind;
use ef_datagen::datasets::Dataset;
use ef_datagen::{datasets, CharacteristicVector, GenerativeModel, SourceSpec};
use ef_netsim::{Network, NetworkConfig, TopologyBuilder};
use ef_simcore::DetRng;

/// Which of the paper's two IoT datasets an experiment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// Dataset 1: accelerometer traces.
    Accelerometer,
    /// Dataset 2: traffic-video frames.
    TrafficVideo,
}

impl DatasetKind {
    /// Instantiates the dataset with `n` sources.
    pub fn build(self, n: usize, seed: u64) -> Dataset {
        match self {
            DatasetKind::Accelerometer => datasets::accelerometer(n, seed),
            DatasetKind::TrafficVideo => datasets::traffic_video(n, seed),
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            DatasetKind::Accelerometer => "accelerometer",
            DatasetKind::TrafficVideo => "traffic-video",
        }
    }
}

/// The paper's 20-node testbed: 10 edge clouds of 2 VMs plus a 4-VM
/// central cloud, at the given network profile.
pub fn testbed(nodes: usize, config: NetworkConfig) -> Network {
    let sites = nodes.div_ceil(2);
    let mut b = TopologyBuilder::new();
    for i in 0..sites {
        let in_site = if i + 1 == sites && nodes % 2 == 1 {
            1
        } else {
            2
        };
        b = b.edge_site(in_site);
    }
    Network::new(b.cloud_site(4).build(), config)
}

/// Builds the SNOD2 instance matching a dataset + network, with workload
/// node `i` on edge node `i`.
///
/// # Panics
///
/// Panics when the network has fewer edge nodes than the dataset sources.
#[expect(
    clippy::expect_used,
    reason = "inputs derive from a validated dataset model"
)]
pub fn instance_for(
    dataset: &Dataset,
    network: &Network,
    alpha: f64,
    gamma: usize,
    horizon: f64,
) -> Snod2Instance {
    let edge = network.topology().edge_nodes();
    let n = dataset.model().source_count();
    assert!(edge.len() >= n, "not enough edge nodes");
    let costs = network.cost_matrix(&edge[..n]);
    Snod2Instance::from_parts(dataset.model(), costs, alpha, gamma, horizon)
        .expect("dataset-derived instance is valid")
}

// ---------------------------------------------------------------------------
// Fig. 2 / Fig. 3 — estimation model validation
// ---------------------------------------------------------------------------

/// One (real, estimated) dedup-ratio pair of the Fig. 2 validation.
#[derive(Debug, Clone)]
pub struct EstimationRow {
    /// Probe subset (source indices).
    pub subset: Vec<usize>,
    /// Measured dedup ratio (ground truth).
    pub real: f64,
    /// Model-predicted dedup ratio after fitting.
    pub estimated: f64,
}

/// Result of one estimation time slot (Figs. 2 and 3).
#[derive(Debug, Clone)]
pub struct EstimationSlot {
    /// The time slot index.
    pub slot: u32,
    /// Per-subset real-vs-estimated rows.
    pub rows: Vec<EstimationRow>,
    /// MSE over the rows.
    pub mse: f64,
    /// Mean relative error (the paper's < 4 % metric).
    pub mean_rel_error: f64,
    /// Descent iterations used (warm starts use fewer).
    pub iterations: usize,
}

/// Runs the Fig. 2/3 validation: sample two sources from the dataset at
/// successive time slots, fit Algorithm 1 (cold at slot 0, warm after),
/// and report real vs estimated ratios.
#[expect(
    clippy::expect_used,
    reason = "the dataset model's chunk size is validated at model construction"
)]
pub fn estimation_experiment(
    kind: DatasetKind,
    slots: u32,
    chunks_per_sample: usize,
    seed: u64,
) -> Vec<EstimationSlot> {
    let dataset = kind.build(2, seed);
    let chunker = ChunkerKind::fixed(dataset.model().chunk_size()).expect("valid chunk size");
    estimation_slots(&dataset, &chunker, slots, chunks_per_sample)
}

/// [`estimation_experiment`] with the caller's choice of chunking
/// engine: the probe samples are cut by `chunker` (fixed or gear-CDC)
/// and Algorithm 1 fits whatever ratios that engine measures.
pub fn estimation_experiment_with(
    kind: DatasetKind,
    chunker: &ChunkerKind,
    slots: u32,
    chunks_per_sample: usize,
    seed: u64,
) -> Vec<EstimationSlot> {
    let dataset = kind.build(2, seed);
    estimation_slots(&dataset, chunker, slots, chunks_per_sample)
}

fn estimation_slots(
    dataset: &Dataset,
    chunker: &ChunkerKind,
    slots: u32,
    chunks_per_sample: usize,
) -> Vec<EstimationSlot> {
    assert!(slots > 0, "need at least one slot");
    let estimator = Estimator::new(EstimatorConfig::default());

    let mut out = Vec::new();
    let mut previous: Option<FittedModel> = None;
    for slot in 0..slots {
        let files: Vec<Vec<u8>> = (0..2)
            .map(|s| dataset.file(s, slot, 0, chunks_per_sample))
            .collect();
        let truth = GroundTruth::measure(chunker, &files);
        let fitted = match &previous {
            None => estimator.fit(&truth),
            Some(prev) => estimator.fit_warm(&truth, prev),
        };
        let rows = truth
            .subsets
            .iter()
            .zip(&truth.measured)
            .map(|(subset, &real)| EstimationRow {
                subset: subset.clone(),
                real,
                estimated: crate::estimator::predict_ratio(
                    subset,
                    &fitted.pool_sizes,
                    &fitted.probs,
                    &truth.sample_chunks,
                ),
            })
            .collect();
        out.push(EstimationSlot {
            slot,
            rows,
            mse: fitted.mse,
            mean_rel_error: fitted.mean_rel_error,
            iterations: fitted.iterations,
        });
        previous = Some(fitted);
    }
    out
}

// ---------------------------------------------------------------------------
// Fig. 5 — throughput and dedup ratio vs cloud baselines
// ---------------------------------------------------------------------------

/// One strategy's result at one sweep point.
#[derive(Debug, Clone)]
pub struct StrategyPoint {
    /// Sweep coordinate (node count, latency ms, ring count, …).
    pub x: f64,
    /// Strategy label.
    pub strategy: String,
    /// Aggregate dedup throughput (MB/s).
    pub throughput_mbps: f64,
    /// Measured dedup ratio.
    pub dedup_ratio: f64,
    /// Full metrics for deeper analysis.
    pub metrics: SystemMetrics,
}

/// Shared experiment parameters for the system sweeps.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Chunks each node ingests.
    pub chunks_per_node: usize,
    /// D2-rings SMART builds (Fig. 5(a) uses 5).
    pub rings: usize,
    /// Trade-off factor for the SMART instance.
    pub alpha: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for SweepConfig {
    /// The paper's settings, with α translated to this reproduction's
    /// cost units: the paper uses α = 0.1 with bandwidth-based `v_ij`;
    /// our `v_ij` are RTT milliseconds, and the equivalently *balanced*
    /// trade-off sits near 0.02 (see EXPERIMENTS.md).
    fn default() -> Self {
        SweepConfig {
            chunks_per_node: 2_000,
            rings: 5,
            alpha: 0.02,
            seed: 42,
        }
    }
}

fn smart_partition_for(
    dataset: &Dataset,
    network: &Network,
    rings: usize,
    alpha: f64,
) -> Partition {
    let inst = instance_for(dataset, network, alpha, 2, 10.0);
    SmartGreedy.partition(&inst, rings)
}

/// Fig. 5(a): dedup throughput vs number of edge nodes, all three
/// strategies, for one dataset.
pub fn throughput_vs_nodes(
    kind: DatasetKind,
    node_counts: &[usize],
    sweep: &SweepConfig,
) -> Vec<StrategyPoint> {
    let cfg = SystemConfig::paper_testbed();
    let mut out = Vec::new();
    for &n in node_counts {
        let network = testbed(n, NetworkConfig::paper_testbed());
        let dataset = kind.build(n, sweep.seed);
        let workload = Workload::from_dataset(&dataset, n, sweep.chunks_per_node, 0);
        let partition = smart_partition_for(&dataset, &network, sweep.rings, sweep.alpha);
        for strategy in [
            Strategy::Smart(partition.clone()),
            Strategy::CloudAssisted,
            Strategy::CloudOnly,
        ] {
            let metrics = run_system(&network, &workload, &strategy, &cfg);
            out.push(StrategyPoint {
                x: n as f64,
                strategy: metrics.strategy.clone(),
                throughput_mbps: metrics.aggregate_throughput_mbps,
                dedup_ratio: metrics.dedup_ratio,
                metrics,
            });
        }
    }
    out
}

/// Fig. 5(b): dedup throughput vs edge↔cloud latency (ms one-way).
pub fn throughput_vs_wan_latency(
    kind: DatasetKind,
    latencies_ms: &[f64],
    nodes: usize,
    sweep: &SweepConfig,
) -> Vec<StrategyPoint> {
    let cfg = SystemConfig::paper_testbed();
    let mut out = Vec::new();
    for &lat in latencies_ms {
        let network = testbed(
            nodes,
            NetworkConfig::paper_testbed().with_wan_latency_ms(lat),
        );
        let dataset = kind.build(nodes, sweep.seed);
        let workload = Workload::from_dataset(&dataset, nodes, sweep.chunks_per_node, 0);
        let partition = smart_partition_for(&dataset, &network, sweep.rings, sweep.alpha);
        for strategy in [
            Strategy::Smart(partition.clone()),
            Strategy::CloudAssisted,
            Strategy::CloudOnly,
        ] {
            let metrics = run_system(&network, &workload, &strategy, &cfg);
            out.push(StrategyPoint {
                x: lat,
                strategy: metrics.strategy.clone(),
                throughput_mbps: metrics.aggregate_throughput_mbps,
                dedup_ratio: metrics.dedup_ratio,
                metrics,
            });
        }
    }
    out
}

/// Fig. 5(c): dedup ratio vs number of D2-rings (plus the cloud bound).
pub fn ratio_vs_rings(
    kind: DatasetKind,
    ring_counts: &[usize],
    nodes: usize,
    sweep: &SweepConfig,
) -> Vec<StrategyPoint> {
    let cfg = SystemConfig::paper_testbed();
    let network = testbed(nodes, NetworkConfig::paper_testbed());
    let dataset = kind.build(nodes, sweep.seed);
    let workload = Workload::from_dataset(&dataset, nodes, sweep.chunks_per_node, 0);
    let mut out = Vec::new();
    for &rings in ring_counts {
        let partition = smart_partition_for(&dataset, &network, rings, sweep.alpha);
        let metrics = run_system(&network, &workload, &Strategy::Smart(partition), &cfg);
        out.push(StrategyPoint {
            x: rings as f64,
            strategy: metrics.strategy.clone(),
            throughput_mbps: metrics.aggregate_throughput_mbps,
            dedup_ratio: metrics.dedup_ratio,
            metrics,
        });
    }
    // The cloud strategies' (global) dedup ratio as the upper bound.
    let metrics = run_system(&network, &workload, &Strategy::CloudAssisted, &cfg);
    out.push(StrategyPoint {
        x: 1.0,
        strategy: "Cloud (global)".to_string(),
        throughput_mbps: metrics.aggregate_throughput_mbps,
        dedup_ratio: metrics.dedup_ratio,
        metrics,
    });
    out
}

// ---------------------------------------------------------------------------
// Fig. 6 — network/storage trade-off on the testbed
// ---------------------------------------------------------------------------

/// One Fig. 6(a)/(b) sweep point.
#[derive(Debug, Clone)]
pub struct TradeoffPoint {
    /// Number of rings (6a) or ring-size sweep coordinate (6b).
    pub rings: usize,
    /// Inter-edge-cloud latency (ms).
    pub inter_edge_ms: f64,
    /// Measured storage cost (bytes of unique chunks).
    pub storage_bytes: u64,
    /// Measured network cost (Σ lookup RTT ms).
    pub network_cost_ms: f64,
    /// Aggregate throughput (MB/s).
    pub throughput_mbps: f64,
    /// Dedup ratio.
    pub dedup_ratio: f64,
}

/// Fig. 6(a)/(b): sweep ring count and inter-edge-cloud latency on the
/// grouped 20-node testbed.
pub fn tradeoff_sweep(
    kind: DatasetKind,
    ring_counts: &[usize],
    inter_edge_ms: &[f64],
    sweep: &SweepConfig,
) -> Vec<TradeoffPoint> {
    let nodes = 20;
    let cfg = SystemConfig::paper_testbed();
    let mut out = Vec::new();
    for &lat in inter_edge_ms {
        let network = testbed(
            nodes,
            NetworkConfig::paper_testbed().with_inter_edge_latency_ms(lat),
        );
        let dataset = kind.build(nodes, sweep.seed);
        let workload = Workload::from_dataset(&dataset, nodes, sweep.chunks_per_node, 0);
        for &rings in ring_counts {
            let partition = smart_partition_for(&dataset, &network, rings, sweep.alpha);
            let m = run_system(&network, &workload, &Strategy::Smart(partition), &cfg);
            out.push(TradeoffPoint {
                rings,
                inter_edge_ms: lat,
                storage_bytes: m.storage_bytes,
                network_cost_ms: m.network_cost_ms,
                throughput_mbps: m.aggregate_throughput_mbps,
                dedup_ratio: m.dedup_ratio,
            });
        }
    }
    out
}

/// One Fig. 6(c)/Fig. 7 cost-comparison row.
#[derive(Debug, Clone)]
pub struct CostRow {
    /// Algorithm label.
    pub algorithm: String,
    /// Sweep coordinate (node count or alpha).
    pub x: f64,
    /// Model storage cost Σ U(P_s) (expected unique chunks).
    pub storage: f64,
    /// Model network cost Σ V(P_s).
    pub network: f64,
    /// Aggregate cost (Eq. 3).
    pub aggregate: f64,
}

/// Fig. 6(c): aggregate cost of SMART vs the Network-Only and Dedup-Only
/// ablations on the 20-node testbed instance.
pub fn cost_comparison(kind: DatasetKind, alpha: f64, rings: usize, seed: u64) -> Vec<CostRow> {
    let nodes = 20;
    let network = testbed(nodes, NetworkConfig::paper_testbed());
    let dataset = kind.build(nodes, seed);
    let inst = instance_for(&dataset, &network, alpha, 2, 10.0);
    let algos: Vec<Box<dyn Partitioner>> = vec![
        Box::new(SmartGreedy),
        Box::new(NetworkOnly),
        Box::new(DedupOnly),
    ];
    algos
        .iter()
        .map(|algo| {
            let p = algo.partition(&inst, rings);
            let c = inst.total_cost(&p);
            CostRow {
                algorithm: algo.name().to_string(),
                x: alpha,
                storage: c.storage,
                network: c.network,
                aggregate: c.aggregate,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 7 — large-scale simulations
// ---------------------------------------------------------------------------

/// Builds a large-scale simulation instance: `n` nodes whose inter-node
/// latencies are drawn uniformly from `0..max_latency_ms` (the paper's
/// Fig. 7 setup), with a compact pool structure so 500-node instances
/// stay tractable.
#[expect(
    clippy::expect_used,
    reason = "probabilities are built to sum to one, and the constant experiment parameters satisfy the model and instance invariants"
)]
pub fn scale_instance(
    kind: DatasetKind,
    n: usize,
    max_latency_ms: f64,
    alpha: f64,
    groups: usize,
    seed: u64,
) -> Snod2Instance {
    assert!(n > 0 && groups > 0, "need nodes and groups");
    // Compact model: one global pool, `groups` group pools, one noise
    // pool; group shares mirror the dataset character.
    let (p_global, p_group, p_noise, group_pool) = match kind {
        DatasetKind::Accelerometer => (0.30, 0.55, 0.15, 800),
        DatasetKind::TrafficVideo => (0.35, 0.55, 0.10, 150),
    };
    let mut pool_sizes = vec![1_500u64];
    pool_sizes.extend(std::iter::repeat_n(group_pool, groups));
    pool_sizes.push(400_000);
    let k = pool_sizes.len();
    let sources: Vec<SourceSpec> = (0..n)
        .map(|i| {
            let g = i % groups;
            let mut p = vec![0.0; k];
            p[0] = p_global;
            p[1 + g] = p_group;
            p[k - 1] = p_noise;
            SourceSpec::new(
                512.0,
                CharacteristicVector::new(p).expect("probs sum to one"),
            )
        })
        .collect();
    let model = GenerativeModel::new(pool_sizes, 4096, sources).expect("scale model is valid");

    let mut rng = DetRng::new(seed).substream("scale-latency");
    let mut costs = vec![vec![0.0; n]; n];
    #[expect(
        clippy::needless_range_loop,
        reason = "symmetric fill: both (i, j) and (j, i) are written per draw, which \
                  iterator forms cannot express without a second pass"
    )]
    for i in 0..n {
        for j in (i + 1)..n {
            let rtt = rng.range_f64(0.0, max_latency_ms) * 2.0;
            costs[i][j] = rtt;
            costs[j][i] = rtt;
        }
    }
    Snod2Instance::from_parts(&model, costs, alpha, 2, 10.0).expect("scale instance is valid")
}

/// Fig. 7(a): aggregate/network/storage cost vs node count for SMART and
/// the ablations.
pub fn scale_sweep(
    kind: DatasetKind,
    node_counts: &[usize],
    alpha: f64,
    rings: usize,
    seed: u64,
) -> Vec<CostRow> {
    let mut out = Vec::new();
    for &n in node_counts {
        let inst = scale_instance(kind, n, 100.0, alpha, 20, seed);
        let algos: Vec<Box<dyn Partitioner>> = vec![
            Box::new(SmartGreedy),
            Box::new(NetworkOnly),
            Box::new(DedupOnly),
        ];
        for algo in &algos {
            let p = algo.partition(&inst, rings);
            let c = inst.total_cost(&p);
            out.push(CostRow {
                algorithm: algo.name().to_string(),
                x: n as f64,
                storage: c.storage,
                network: c.network,
                aggregate: c.aggregate,
            });
        }
    }
    out
}

/// Fig. 7(b): cost vs the trade-off factor α.
pub fn alpha_sweep(
    kind: DatasetKind,
    alphas: &[f64],
    nodes: usize,
    rings: usize,
    seed: u64,
) -> Vec<CostRow> {
    let base = scale_instance(kind, nodes, 100.0, 1.0, 20, seed);
    let mut out = Vec::new();
    for &alpha in alphas {
        let inst = base.with_alpha(alpha);
        let algos: Vec<Box<dyn Partitioner>> = vec![
            Box::new(SmartGreedy),
            Box::new(NetworkOnly),
            Box::new(DedupOnly),
        ];
        for algo in &algos {
            let p = algo.partition(&inst, rings);
            let c = inst.total_cost(&p);
            out.push(CostRow {
                algorithm: algo.name().to_string(),
                x: alpha,
                storage: c.storage,
                network: c.network,
                aggregate: c.aggregate,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_shapes() {
        let net = testbed(20, NetworkConfig::paper_testbed());
        assert_eq!(net.topology().edge_nodes().len(), 20);
        assert_eq!(net.topology().cloud_nodes().len(), 4);
        assert_eq!(net.topology().edge_sites().len(), 10);
        let odd = testbed(5, NetworkConfig::paper_testbed());
        assert_eq!(odd.topology().edge_nodes().len(), 5);
    }

    #[test]
    fn estimation_experiment_meets_error_bound() {
        let slots = estimation_experiment(DatasetKind::Accelerometer, 2, 400, 7);
        assert_eq!(slots.len(), 2);
        for s in &slots {
            assert!(
                s.mean_rel_error < 0.06,
                "slot {} error {}",
                s.slot,
                s.mean_rel_error
            );
            assert!(!s.rows.is_empty());
        }
    }

    #[test]
    fn estimation_experiment_with_matches_the_default_under_fixed() {
        let ds = DatasetKind::Accelerometer.build(2, 7);
        let chunker = ChunkerKind::fixed(ds.model().chunk_size()).unwrap();
        let explicit = estimation_experiment_with(DatasetKind::Accelerometer, &chunker, 2, 400, 7);
        let default = estimation_experiment(DatasetKind::Accelerometer, 2, 400, 7);
        assert_eq!(format!("{explicit:?}"), format!("{default:?}"));
    }

    #[test]
    fn estimation_experiment_runs_under_gear_cdc() {
        let chunker = ChunkerKind::gear_sized(4096).unwrap();
        let slots = estimation_experiment_with(DatasetKind::Accelerometer, &chunker, 2, 400, 7);
        assert_eq!(slots.len(), 2);
        for s in &slots {
            assert!(!s.rows.is_empty());
            assert!(s.mse.is_finite() && s.mean_rel_error.is_finite());
            for r in &s.rows {
                assert!(r.real >= 1.0 && r.estimated.is_finite(), "{r:?}");
            }
        }
        // Deterministic: same seed, same fit.
        let again = estimation_experiment_with(DatasetKind::Accelerometer, &chunker, 2, 400, 7);
        assert_eq!(format!("{slots:?}"), format!("{again:?}"));
    }

    #[test]
    fn throughput_vs_nodes_orders_strategies() {
        let pts = throughput_vs_nodes(
            DatasetKind::TrafficVideo,
            &[8, 16],
            &SweepConfig {
                chunks_per_node: 300,
                ..SweepConfig::default()
            },
        );
        assert_eq!(pts.len(), 6);
        for n in [8.0, 16.0] {
            let at = |s: &str| {
                pts.iter()
                    .find(|p| p.x == n && p.strategy == s)
                    .unwrap()
                    .throughput_mbps
            };
            assert!(at("SMART") > at("Cloud-Only"), "n={n}");
        }
    }

    #[test]
    fn ratio_vs_rings_monotone_toward_cloud_bound() {
        let pts = ratio_vs_rings(
            DatasetKind::Accelerometer,
            &[1, 5, 10],
            20,
            &SweepConfig {
                chunks_per_node: 200,
                ..SweepConfig::default()
            },
        );
        let ratio = |r: f64| {
            pts.iter()
                .find(|p| p.x == r && p.strategy == "SMART")
                .unwrap()
                .dedup_ratio
        };
        let cloud = pts
            .iter()
            .find(|p| p.strategy == "Cloud (global)")
            .unwrap()
            .dedup_ratio;
        assert!(ratio(1.0) >= ratio(5.0) - 1e-9);
        assert!(ratio(5.0) >= ratio(10.0) - 1e-9);
        assert!(cloud >= ratio(1.0) - 1e-9);
    }

    #[test]
    fn cost_comparison_smart_wins() {
        let rows = cost_comparison(DatasetKind::Accelerometer, 0.1, 5, 42);
        let get = |name: &str| rows.iter().find(|r| r.algorithm == name).unwrap().aggregate;
        assert!(get("SMART") <= get("Network-Only") * 1.0001);
        assert!(get("SMART") <= get("Dedup-Only") * 1.0001);
    }

    #[test]
    fn scale_sweep_small_smoke() {
        let rows = scale_sweep(DatasetKind::TrafficVideo, &[30], 0.001, 5, 1);
        assert_eq!(rows.len(), 3);
        let get = |name: &str| rows.iter().find(|r| r.algorithm == name).unwrap().aggregate;
        assert!(get("SMART") <= get("Network-Only") * 1.0001);
        assert!(get("SMART") <= get("Dedup-Only") * 1.0001);
    }

    #[test]
    fn alpha_sweep_moves_tradeoff() {
        let rows = alpha_sweep(DatasetKind::Accelerometer, &[0.0001, 0.1], 30, 5, 1);
        let smart = |alpha: f64| {
            rows.iter()
                .find(|r| r.algorithm == "SMART" && r.x == alpha)
                .unwrap()
        };
        // As alpha rises, SMART trades toward lower network cost.
        assert!(smart(0.1).network <= smart(0.0001).network + 1e-6);
    }
}
