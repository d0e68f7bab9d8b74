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

use ef_bench::{fmt, header, quick_mode};
use ef_kvstore::sweep::{self, Family};
use ef_simcore::SimDuration;

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

/// Runs the recovery family's crash/restart/departure scenario at one
/// anti-entropy interval and returns the measured recovery latency plus
/// the pipeline counters, read at the family's fixpoint: that includes
/// hint drain, so `rounds/run` counts rounds up to the last parked hint,
/// and a run that has not settled a minute on panics (no point is dropped).
fn run_one(seed: u64, interval: SimDuration) -> Point {
    let family = Family {
        arm: &|cluster, _| sweep::arm_recovery(cluster, interval),
        ..Family::recovery()
    };
    let run = sweep::run(seed, &family);
    let (_, latency) = run.cluster.recovery_latencies()[0];
    let stats = run.cluster.recovery_stats();
    Point {
        interval_ms: (interval.as_nanos() / 1_000_000),
        seed,
        recovery_ms: latency.as_nanos() as f64 / 1e6,
        antientropy_rounds: stats.antientropy_rounds,
        entries_repaired: stats.entries_repaired,
        wal_records_replayed: stats.wal_records_replayed,
    }
}

fn main() {
    let seeds: u64 = if quick_mode() { 3 } else { 10 };
    let intervals = [300u64, 700, 1500];
    let mut all: Vec<Point> = Vec::new();
    for &ms in &intervals {
        for seed in 0..seeds {
            all.push(run_one(seed, SimDuration::from_millis(ms)));
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
