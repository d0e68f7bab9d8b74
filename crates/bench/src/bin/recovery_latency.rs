//! Recovery latency vs anti-entropy interval (EXPERIMENTS.md §recovery).
//!
//! A 6-node edge ring runs a check-and-insert workload while a seeded
//! chaos schedule crash-stops one node (restart from WAL) and departs
//! another permanently. Recovery latency is the span from the restart
//! event to the first anti-entropy round that finds every replica pair
//! of the restarted node clean — i.e. the node is provably caught up,
//! not merely rebooted. Sweeping the anti-entropy interval shows the
//! expected trade: tighter intervals buy faster convergence at the cost
//! of more tree exchanges on the wire.

use bytes::Bytes;
use ef_bench::{fmt, header, quick_mode};
use ef_chunking::ChunkHash;
use ef_kvstore::{
    ChaosEvent, ChaosScenario, ChaosScenarioConfig, ClientOp, ClusterConfig, SimCluster,
};
use ef_netsim::{Network, NetworkConfig, NodeId, TopologyBuilder};
use ef_simcore::{SimDuration, SimTime};

const MERKLE_DEPTH: u32 = 6;

/// One measured point: a seed × anti-entropy-interval cell.
#[derive(Debug)]
struct Point {
    interval_ms: u64,
    seed: u64,
    recovery_ms: f64,
    antientropy_rounds: u64,
    entries_repaired: u64,
    wal_records_replayed: u64,
}

fn absent_at(scenario: &ChaosScenario, node: NodeId, t: SimTime) -> bool {
    let mut stopped_at = None;
    for ev in scenario.events() {
        match *ev {
            ChaosEvent::CrashStop { at, node: n } if n == node => stopped_at = Some(at),
            ChaosEvent::Restart { at, node: n } if n == node => {
                if let Some(start) = stopped_at {
                    if t >= start && t <= at {
                        return true;
                    }
                }
            }
            ChaosEvent::Depart { at, node: n } if n == node && t >= at => return true,
            _ => {}
        }
    }
    false
}

/// Runs one crash/restart/departure scenario and returns the measured
/// recovery latency plus the pipeline counters.
fn run_one(seed: u64, interval: SimDuration) -> Option<Point> {
    let topo = TopologyBuilder::new()
        .edge_site(2)
        .edge_site(2)
        .edge_site(2)
        .build();
    let mut net = Network::new(topo, NetworkConfig::paper_testbed());
    let chaos = ChaosScenarioConfig {
        crash_stops: 1,
        departures: 1,
        ..ChaosScenarioConfig::default()
    };
    let scenario = ChaosScenario::generate(seed, net.topology(), &chaos);
    scenario.rig(&mut net);
    let members = net.topology().edge_nodes();
    let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
    cluster.enable_heartbeats_with_dead(
        SimDuration::from_millis(100),
        SimDuration::from_millis(350),
        SimDuration::from_millis(1200),
    );
    cluster.enable_anti_entropy(interval, MERKLE_DEPTH);
    scenario.apply(&mut cluster);
    let departed = scenario.events().iter().find_map(|ev| match *ev {
        ChaosEvent::Depart { node, .. } => Some(node),
        _ => None,
    })?;

    let mut t = SimTime::ZERO + SimDuration::from_millis(13);
    let mut turn = 0usize;
    for rep in 0..3u32 {
        for k in 0..12u32 {
            let coordinator = (0..members.len())
                .map(|i| members[(turn + rep as usize + i) % members.len()])
                .find(|&c| !absent_at(&scenario, c, t))?;
            turn += 1;
            let payload = Bytes::from(vec![(k % 251) as u8 ^ 0x5a; 96 + (k as usize % 17)]);
            let key = Bytes::copy_from_slice(ChunkHash::of(&payload).as_bytes());
            cluster.submit(t, coordinator, ClientOp::CheckAndInsert(key.clone(), key));
            t += SimDuration::from_millis(211);
        }
    }
    cluster.run();
    let cap = cluster.now() + SimDuration::from_secs_f64(120.0);
    while !(cluster.recovery_stats().restarts == 1
        && !cluster.ring().contains(departed)
        && cluster.replica_divergence(MERKLE_DEPTH) == 0
        && cluster.recovery_latencies().len() == 1)
    {
        if cluster.now() >= cap {
            return None;
        }
        cluster.run_until(cluster.now() + SimDuration::from_millis(500));
    }
    let (_, latency) = cluster.recovery_latencies().pop()?;
    let stats = cluster.recovery_stats();
    Some(Point {
        interval_ms: (interval.as_nanos() / 1_000_000),
        seed,
        recovery_ms: latency.as_nanos() as f64 / 1e6,
        antientropy_rounds: stats.antientropy_rounds,
        entries_repaired: stats.entries_repaired,
        wal_records_replayed: stats.wal_records_replayed,
    })
}

fn main() {
    let seeds: u64 = if quick_mode() { 3 } else { 10 };
    let intervals = [300u64, 700, 1500];
    let mut all: Vec<Point> = Vec::new();
    for &ms in &intervals {
        for seed in 0..seeds {
            if let Some(p) = run_one(seed, SimDuration::from_millis(ms)) {
                all.push(p);
            }
        }
    }
    header("Recovery latency vs anti-entropy interval (crash-stop + departure)");
    println!(
        "{:>14} {:>12} {:>12} {:>12} {:>14} {:>10} {:>6}",
        "interval (ms)", "median (ms)", "max (ms)", "rounds/run", "repaired/run", "wal/run", "runs"
    );
    for &ms in &intervals {
        let mut lat: Vec<f64> = all
            .iter()
            .filter(|p| p.interval_ms == ms)
            .map(|p| p.recovery_ms)
            .collect();
        if lat.is_empty() {
            continue;
        }
        lat.sort_by(|a, b| a.total_cmp(b));
        let median = lat[lat.len() / 2];
        let max = lat[lat.len() - 1];
        let n = lat.len();
        let rounds: u64 = all
            .iter()
            .filter(|p| p.interval_ms == ms)
            .map(|p| p.antientropy_rounds)
            .sum();
        let repaired: u64 = all
            .iter()
            .filter(|p| p.interval_ms == ms)
            .map(|p| p.entries_repaired)
            .sum();
        let wal: u64 = all
            .iter()
            .filter(|p| p.interval_ms == ms)
            .map(|p| p.wal_records_replayed)
            .sum();
        let max_seed = all
            .iter()
            .filter(|p| p.interval_ms == ms)
            .max_by(|a, b| a.recovery_ms.total_cmp(&b.recovery_ms))
            .map(|p| p.seed)
            .unwrap_or(0);
        println!(
            "{ms:>14} {} {} {:>12.1} {:>14.1} {:>10.1} {n:>6}  (slowest: seed {max_seed})",
            fmt(median),
            fmt(max),
            rounds as f64 / n as f64,
            repaired as f64 / n as f64,
            wal as f64 / n as f64,
        );
    }
    println!("\nrecovery = restart event -> first clean anti-entropy round for the node");
}
