//! Fig. 7(a): large-scale simulation — aggregate/network/storage cost vs
//! node count (up to 500 nodes, inter-node latency ~ U(0, 100) ms,
//! α = 0.001, SMART with 20 unbalanced rings, dataset 2 model).
//!
//! Paper result: SMART's aggregate cost is 43.35 % / 45.49 % below
//! Network-Only / Dedup-Only at 500 nodes, with the margin growing with
//! scale.

use ef_bench::{fmt, header, quick_mode};
use efdedup::experiments::{scale_sweep, DatasetKind};

fn main() {
    let counts: &[usize] = if quick_mode() {
        &[50, 100]
    } else {
        &[50, 100, 200, 300, 400, 500]
    };
    let rows = scale_sweep(DatasetKind::TrafficVideo, counts, 0.001, 20, 42);
    header("Fig. 7(a) — simulated costs vs node count (ds2, alpha = 0.001, 20 rings)");
    println!(
        "{:>7} {:<14} {:>14} {:>14} {:>14} {:>10}",
        "nodes", "algorithm", "storage", "network", "aggregate", "vs SMART"
    );
    for &n in counts {
        let smart = rows
            .iter()
            .find(|r| r.x == n as f64 && r.algorithm == "SMART")
            .expect("SMART row")
            .aggregate;
        for r in rows.iter().filter(|r| r.x == n as f64) {
            println!(
                "{:>7} {:<14} {} {} {} {:>9.2}x",
                n,
                r.algorithm,
                fmt(r.storage),
                fmt(r.network),
                fmt(r.aggregate),
                r.aggregate / smart
            );
        }
    }
    println!("\npaper: at 500 nodes SMART has 43.35%/45.49% lower aggregate cost");
}
