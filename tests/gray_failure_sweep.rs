//! The gray-failure & overload sweep: fail-slow nodes, storage stalls
//! and congested links under the full mitigation stack — adaptive
//! timeouts, hedged lookups, slow-peer detection, admission control and
//! backpressure. Three promises are swept over 20+ seeds:
//!
//! * **soundness** — mitigations never manufacture a *false duplicate*
//!   (a chunk wrongly judged already-stored would be dropped: data
//!   loss); a hedge may only complete an op from a replica's positive
//!   sighting,
//! * **tail latency** — hedging bounds the p99 of reads coordinated
//!   past a fail-slow primary well below the unmitigated tail,
//! * **determinism** — every mitigated chaos run replays bit-identically
//!   from its seed.

use bytes::Bytes;
use efdedup_repro::kvstore::sweep::{self, Family};
use efdedup_repro::kvstore::{
    ClientOp, ClusterConfig, Consistency, GrayFailureStats, HashRing, OpResult, SimCluster,
};
use efdedup_repro::netsim::FaultPlan;
use efdedup_repro::prelude::*;

/// ≥ 20 seeds of fail-slow chaos under the full mitigation stack: the
/// shared oracle holds (a hedge may only complete an op from a replica's
/// positive sighting), and the sweep actually exercises the gray
/// machinery (hedges fired, peers marked slow, timers adapted).
#[test]
fn gray_sweep_no_false_duplicates() {
    let family = Family::gray();
    let seeds = family.seeds;
    let mut total = GrayFailureStats::default();
    for seed in 0..seeds {
        let mut run = sweep::run(seed, &family);
        sweep::check(&family, &mut run);
        let stats = run.cluster.gray_stats();
        let unavailable =
            |c: &&sweep::Completed| matches!(c.op.result, OpResult::Unavailable { .. });
        let shed = run.done.iter().filter(unavailable).count() as u64;
        // Admission refusals are the only legitimate non-dedup outcome,
        // and each one must be accounted as a critical shed.
        assert!(
            shed <= stats.sheds_critical,
            "seed {seed}: {shed} unavailable completions but only {} sheds",
            stats.sheds_critical
        );
        total.merge(&stats);
    }
    // Nonvacuity: the sweep must drive the machinery it claims to test.
    assert!(total.rtt_samples > 0, "no RTT samples across the sweep");
    assert!(total.rto_adaptations > 0, "no timer ever adapted");
    assert!(total.hedges_fired > 0, "no hedge ever fired: {total:?}");
    assert!(total.slow_marks > 0, "no peer was ever marked slow");
    println!(
        "gray sweep: {seeds} seeds, {} ops, rtt_samples {}, rto_adaptations {}, \
         hedges {}/{} won, slow_marks {}, sheds {}+{}",
        seeds * u64::from(family.keys * family.repeats),
        total.rtt_samples,
        total.rto_adaptations,
        total.hedges_won,
        total.hedges_fired,
        total.slow_marks,
        total.sheds_background,
        total.sheds_critical,
    );
}

/// Every mitigated chaos run replays bit-identically: same seed, same
/// completions, same counters.
#[test]
fn gray_sweep_replays_bit_identically() {
    let family = Family::gray();
    for seed in (0..family.seeds).step_by(4) {
        sweep::assert_replays(seed, &family);
    }
}

/// Twin runs over a planted fail-slow primary, ≥ 20 seeds: the hedged
/// run's p99 read latency stays far below the unmitigated tail, every
/// hedge-served answer is the planted value (one-sided soundness), and
/// the hedges actually win.
#[test]
fn hedging_bounds_the_fail_slow_tail() {
    let mut mitigated: Vec<u64> = Vec::new();
    let mut unmitigated: Vec<u64> = Vec::new();
    let mut won = 0u64;
    let Family { keys, seeds, .. } = Family::gray();
    for seed in 0..seeds {
        let run = |mitigate: bool| {
            let topo = TopologyBuilder::new().edge_site(2).edge_site(2).build();
            let mut net = Network::new(topo, NetworkConfig::paper_testbed());
            let members = net.topology().edge_nodes();
            let victim = members[1 + (seed as usize) % (members.len() - 1)];
            net.set_fault_plan(FaultPlan::new(seed ^ 0x5eed).slow_node(
                victim,
                120.0,
                SimTime::ZERO,
                SimTime::MAX,
            ));
            let coordinator = members[0];
            let config = ClusterConfig {
                replication_factor: 1,
                consistency: Consistency::One,
                ..ClusterConfig::default()
            };
            let ring = HashRing::with_nodes(members.iter().copied(), config.vnodes);
            // Keys whose sole primary is the fail-slow victim, probed
            // off-cluster so both runs see the identical workload.
            let keys: Vec<Bytes> = (0u32..)
                .map(|i| Bytes::from(format!("gray-{seed}-{i}")))
                .filter(|k| ring.replicas(k, 1)[0] == victim)
                .take(keys as usize)
                .collect();
            let mut cluster = SimCluster::new(members.clone(), net, config);
            if mitigate {
                cluster
                    .enable_adaptive_rto(SimDuration::from_micros(500), SimDuration::from_secs(1));
                cluster.enable_slow_detection(SimDuration::from_millis(15));
                cluster.enable_hedged_reads(256);
            }
            let value = Bytes::from(format!("payload-{seed}"));
            for &m in &members {
                let node = cluster.node_mut(m).expect("member exists");
                for key in &keys {
                    node.storage_mut().put(key.clone(), value.clone());
                }
            }
            let mut t = SimTime::ZERO;
            for key in &keys {
                cluster.submit(t, coordinator, ClientOp::Get(key.clone()));
                t += SimDuration::from_millis(400);
            }
            let done = cluster.run();
            for l in &done {
                assert_eq!(
                    l.result,
                    OpResult::Value(Some(value.clone())),
                    "seed {seed}: read served a wrong or missing value"
                );
            }
            let lat: Vec<u64> = done.iter().map(|l| l.latency().as_nanos()).collect();
            (lat, cluster.gray_stats())
        };
        let (slow_lat, _) = run(false);
        let (fast_lat, stats) = run(true);
        won += stats.hedges_won;
        unmitigated.extend(slow_lat);
        mitigated.extend(fast_lat);
    }
    assert!(won > 0, "no hedge ever won against the slow primary");
    let p99 = |lat: &mut Vec<u64>| {
        lat.sort_unstable();
        lat[(lat.len() * 99) / 100 - 1]
    };
    let slow99 = p99(&mut unmitigated);
    let fast99 = p99(&mut mitigated);
    let p50 = |lat: &[u64]| lat[lat.len() / 2];
    println!(
        "fail-slow tail over {seeds} seeds x {keys} reads: \
         unmitigated p50 {} p99 {} | mitigated p50 {} p99 {} | hedges won {won}",
        SimDuration::from_nanos(p50(&unmitigated)),
        SimDuration::from_nanos(slow99),
        SimDuration::from_nanos(p50(&mitigated)),
        SimDuration::from_nanos(fast99),
    );
    assert!(
        fast99 * 4 < slow99,
        "hedging should cut the fail-slow p99 at least 4x: \
         mitigated {fast99} ns vs unmitigated {slow99} ns"
    );
    // And the mitigated tail is absolutely bounded: at worst half the
    // 100 ms base RTO (a cold estimator's hedge trigger) plus a healthy
    // replica's round trip — far under the crawling primary.
    assert!(
        fast99 < SimDuration::from_millis(100).as_nanos(),
        "mitigated p99 {fast99} ns above 100 ms"
    );
}
