//! Fig. 6(b): dedup throughput vs ring count for several inter-edge-cloud
//! latencies (20 nodes in 10 edge clouds).
//!
//! Paper result: at ≤ 15 ms inter-cloud latency, larger rings (fewer of
//! them) win — the dedup gain outweighs the lookup cost; above 15 ms the
//! trend flips.

use ef_bench::{fmt, header, quick_mode};
use efdedup::experiments::{tradeoff_sweep, DatasetKind, SweepConfig};

fn main() {
    let rings: &[usize] = if quick_mode() {
        &[2, 10]
    } else {
        &[1, 2, 4, 5, 10]
    };
    let lats: &[f64] = if quick_mode() {
        &[5.0, 30.0]
    } else {
        &[5.0, 10.0, 15.0, 20.0, 30.0]
    };
    let sweep = SweepConfig {
        chunks_per_node: if quick_mode() { 400 } else { 2_000 },
        ..SweepConfig::default()
    };
    let pts = tradeoff_sweep(DatasetKind::Accelerometer, rings, lats, &sweep);
    header("Fig. 6(b) — aggregate throughput (MB/s) vs ring count × inter-cloud latency (ds1)");
    print!("{:>14}", "rings \\ lat");
    for &l in lats {
        print!("{:>11.0}ms", l);
    }
    println!();
    for &r in rings {
        print!("{r:>14}");
        for &l in lats {
            let p = pts
                .iter()
                .find(|p| p.rings == r && p.inter_edge_ms == l)
                .expect("sweep point exists");
            print!(" {}", fmt(p.throughput_mbps));
        }
        println!();
    }
    println!("\npaper: larger rings win at <=15ms inter-cloud latency, lose above");
}
