//! Fig. 6(c): total (Eq. 3) cost of SMART vs the Network-Only and
//! Dedup-Only ablations (20 nodes, 10 edge clouds, α = 0.1).
//!
//! Paper result: Network-Only and Dedup-Only incur 1.26× and 1.31× the
//! aggregate cost of SMART.

use ef_bench::{fmt, header};
use efdedup::experiments::{cost_comparison, DatasetKind};

fn main() {
    // Optional positional argument: the trade-off factor alpha. The
    // paper uses 0.1 with bandwidth-unit costs; our costs are RTT
    // milliseconds, so the equivalent balanced trade-off sits near 0.02
    // (see EXPERIMENTS.md).
    let alpha: f64 = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .and_then(|a| a.parse().ok())
        .unwrap_or(0.02);
    let rows = cost_comparison(DatasetKind::Accelerometer, alpha, 5, 42);
    header(&format!(
        "Fig. 6(c) — aggregate cost comparison (ds1, alpha = {alpha})"
    ));
    println!(
        "{:<14} {:>14} {:>14} {:>14} {:>10}",
        "algorithm", "storage", "network", "aggregate", "vs SMART"
    );
    let smart = rows
        .iter()
        .find(|r| r.algorithm == "SMART")
        .expect("SMART row")
        .aggregate;
    for r in &rows {
        println!(
            "{:<14} {} {} {} {:>9.2}x",
            r.algorithm,
            fmt(r.storage),
            fmt(r.network),
            fmt(r.aggregate),
            r.aggregate / smart
        );
    }
    println!("\npaper: Network-Only 1.26x, Dedup-Only 1.31x the cost of SMART");
}
