//! Fig. 6(a): measured storage cost and network cost vs the number of
//! D2-rings (20 nodes grouped into 10 edge clouds, inter-cloud 5 ms,
//! α = 0.1).
//!
//! Paper result: storage cost increases with more rings (less dedup);
//! network cost increases with larger rings (more cross-cloud lookups).

use ef_bench::{fmt, header, quick_mode};
use efdedup::experiments::{tradeoff_sweep, DatasetKind, SweepConfig};

fn main() {
    let rings: &[usize] = if quick_mode() {
        &[2, 10]
    } else {
        &[1, 2, 4, 5, 10, 20]
    };
    let sweep = SweepConfig {
        chunks_per_node: if quick_mode() { 400 } else { 2_000 },
        ..SweepConfig::default()
    };
    let pts = tradeoff_sweep(DatasetKind::Accelerometer, rings, &[5.0], &sweep);
    header("Fig. 6(a) — storage & network cost vs number of rings (ds1, inter-cloud 5ms)");
    println!(
        "{:>8} {:>14} {:>16} {:>12}",
        "rings", "storage (MB)", "network (ms)", "dedup ratio"
    );
    for p in &pts {
        println!(
            "{:>8} {} {} {}",
            p.rings,
            fmt(p.storage_bytes as f64 / 1e6),
            fmt(p.network_cost_ms),
            fmt(p.dedup_ratio)
        );
    }
    println!("\npaper: storage rises with more rings; network rises with larger rings");
}
