//! Quickstart: the complete EF-dedup pipeline on a small edge deployment.
//!
//! Eight edge nodes in four edge clouds ingest IoT accelerometer data.
//! We (1) estimate the similarity model from sampled files (Algorithm 1),
//! (2) build the SNOD2 instance from the fitted model plus measured
//! network costs, (3) partition the nodes into D2-rings with SMART
//! (Algorithm 2), and (4) run collaborative deduplication, comparing it
//! against the Cloud-Only and Cloud-Assisted baselines.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use efdedup_repro::prelude::*;

fn main() {
    // --- Topology: 4 edge clouds x 2 nodes + a 4-VM central cloud -------
    let topo = TopologyBuilder::new()
        .edge_sites(4, 2)
        .cloud_site(4)
        .build();
    let network = Network::new(topo, NetworkConfig::paper_testbed());
    let edge = network.topology().edge_nodes();
    println!(
        "topology: {} edge nodes in {} edge clouds + {} cloud VMs",
        edge.len(),
        network.topology().edge_sites().len(),
        network.topology().cloud_nodes().len()
    );
    assert_eq!(edge.len(), 8);
    assert_eq!(network.topology().edge_sites().len(), 4);
    assert_eq!(network.topology().cloud_nodes().len(), 4);

    // --- Workload: synthetic accelerometer sources ----------------------
    let dataset = datasets::accelerometer(8, 42);

    // --- Step 1: Algorithm 1 — estimate the similarity model ------------
    // Sample one file from each of the first two sources and fit the
    // chunk-pool model against measured dedup ratios.
    let chunker = FixedChunker::new(dataset.model().chunk_size()).expect("valid chunk size");
    let samples: Vec<Vec<u8>> = (0..2).map(|s| dataset.file(s, 0, 0, 400)).collect();
    let truth = GroundTruth::measure(&chunker, &samples);
    let fitted = Estimator::new(EstimatorConfig::default()).fit(&truth);
    println!(
        "\nAlgorithm 1 fit: K={} pools, MSE={:.4}, mean error={:.2}%",
        fitted.pool_sizes.len(),
        fitted.mse,
        fitted.mean_rel_error * 100.0
    );
    assert!(fitted.mean_rel_error < 0.05, "Algorithm 1 fits the pair");

    // --- Step 2: the SNOD2 instance --------------------------------------
    // (For the partitioning we use the dataset's full ground-truth model;
    // the fitted model above demonstrates estimation quality on a pair.)
    let costs = network.cost_matrix(&edge);
    let inst =
        Snod2Instance::from_parts(dataset.model(), costs, 0.02, 2, 10.0).expect("valid instance");

    // --- Step 3: SMART partitioning ---------------------------------------
    let partition = SmartGreedy.partition(&inst, 3);
    println!("\nSMART D2-rings: {:?}", partition.rings());
    // Every edge node joins exactly one D2-ring.
    assert_eq!(partition.node_count(), edge.len());
    assert!((0..edge.len()).all(|n| partition.ring_of(n).is_some()));
    let cost = inst.total_cost(&partition);
    println!(
        "model cost: storage={:.0} chunks, network={:.0}, aggregate={:.0}",
        cost.storage, cost.network, cost.aggregate
    );

    // --- Step 4: run the system vs the cloud baselines --------------------
    let workload = Workload::from_dataset(&dataset, 8, 1_000, 0);
    let cfg = SystemConfig::paper_testbed();
    println!(
        "\n{:<16} {:>12} {:>12} {:>14} {:>12}",
        "strategy", "thr (MB/s)", "dedup", "WAN (MB)", "storage (MB)"
    );
    let mut wan = Vec::new();
    for strategy in [
        Strategy::Smart(partition.clone()),
        Strategy::CloudAssisted,
        Strategy::CloudOnly,
    ] {
        let m = run_system(&network, &workload, &strategy, &cfg);
        assert!(
            m.dedup_ratio >= 1.0,
            "{}: dedup never adds bytes",
            m.strategy
        );
        wan.push(m.wan_bytes);
        println!(
            "{:<16} {:>12.1} {:>12.2} {:>14.1} {:>12.1}",
            m.strategy,
            m.aggregate_throughput_mbps,
            m.dedup_ratio,
            m.wan_bytes as f64 / 1e6,
            m.storage_bytes as f64 / 1e6
        );
    }
    println!("\nEF-dedup (SMART) keeps hash lookups at the edge and ships only unique chunks.");
    // Cloud-Only ships every chunk over the WAN; SMART ships its uniques.
    assert!(
        wan[0] < wan[2],
        "SMART ships less over the WAN than Cloud-Only"
    );
}
