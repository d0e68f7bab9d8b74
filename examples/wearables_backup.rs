//! Scenario: wearable-sensor backup with drifting workloads (dataset 1).
//!
//! Five participants' accelerometer streams are backed up through edge
//! nodes. Their data statistics drift over the day, so we run
//! Algorithm 1 once cold and then warm-re-estimate every time slot —
//! exactly the paper's Fig. 3 workflow — and re-partition when the fitted
//! model changes enough to matter.
//!
//! ```bash
//! cargo run --release --example wearables_backup
//! ```

use efdedup_repro::prelude::*;

fn main() {
    let participants = 5;
    let dataset = datasets::accelerometer(participants, 99);
    let chunker = FixedChunker::new(dataset.model().chunk_size()).expect("valid chunk size");
    let estimator = Estimator::new(EstimatorConfig::default());

    let topo = TopologyBuilder::new()
        .edge_site(2)
        .edge_site(2)
        .edge_site(1)
        .cloud_site(2)
        .build();
    let network = Network::new(topo, NetworkConfig::paper_testbed());
    let edge = network.topology().edge_nodes();

    println!("tracking {participants} participants over 4 time slots\n");
    let mut previous = None;
    let mut last_partition: Option<Partition> = None;

    for slot in 0..4u32 {
        // Sample one file per participant for this slot and measure
        // ground-truth dedup ratios.
        let files: Vec<Vec<u8>> = (0..participants)
            .map(|p| dataset.file(p, slot, 0, 250))
            .collect();
        let truth = GroundTruth::measure(&chunker, &files);

        // Cold fit at slot 0, warm re-fit after (Fig. 3).
        let fitted = match &previous {
            None => estimator.fit(&truth),
            Some(prev) => estimator.fit_warm(&truth, prev),
        };
        println!(
            "slot {slot}: fit error {:.2}% ({} iterations, {})",
            fitted.mean_rel_error * 100.0,
            fitted.iterations,
            if previous.is_none() {
                "cold start"
            } else {
                "warm start"
            },
        );
        assert!(
            fitted.mean_rel_error < 0.05,
            "slot {slot}: the fit tracks the drift"
        );

        // Build this slot's instance from the *fitted* model and
        // measured network costs, then partition.
        let inst = fitted
            .to_instance(
                vec![512.0; participants],
                network.cost_matrix(&edge[..participants]),
                0.02,
                2,
                10.0,
            )
            .expect("fitted instance is valid");
        let partition = SmartGreedy.partition(&inst, 2);
        let changed = last_partition.as_ref() != Some(&partition);
        // Every participant is backed up through exactly one ring.
        assert_eq!(partition.node_count(), participants);
        assert!((0..participants).all(|p| partition.ring_of(p).is_some()));
        println!(
            "        rings {:?}{}",
            partition.rings(),
            if changed { "  <- repartitioned" } else { "" }
        );

        // Deduplicate this slot's data within the chosen rings.
        let workload = Workload::from_dataset(&dataset, participants, 500, slot);
        let metrics = run_system(
            &network,
            &workload,
            &Strategy::Smart(partition.clone()),
            &SystemConfig::paper_testbed(),
        );
        println!(
            "        dedup ratio {:.2}, WAN {:.1} MB, throughput {:.0} MB/s\n",
            metrics.dedup_ratio,
            metrics.wan_bytes as f64 / 1e6,
            metrics.aggregate_throughput_mbps
        );
        assert!(
            metrics.dedup_ratio >= 1.0,
            "slot {slot}: dedup never adds bytes"
        );
        assert!(metrics.wan_bytes <= metrics.total_input_bytes);

        previous = Some(fitted);
        last_partition = Some(partition);
    }
}
