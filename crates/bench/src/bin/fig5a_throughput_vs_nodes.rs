//! Fig. 5(a): dedup throughput vs number of edge nodes for SMART (5
//! D2-rings), Cloud-Assisted and Cloud-Only, on both IoT datasets.
//!
//! Paper result: SMART outperforms Cloud-Assisted/Cloud-Only by
//! 38.3 % / 59.8 % on dataset 1 and 67.4 % / 118.5 % on dataset 2 (on
//! average), and SMART's throughput grows with the node count.

use ef_bench::{fmt, header, quick_mode};
use efdedup::experiments::{throughput_vs_nodes, DatasetKind, SweepConfig};

fn main() {
    let counts: &[usize] = if quick_mode() {
        &[8, 12]
    } else {
        &[4, 8, 12, 16, 20]
    };
    let sweep = SweepConfig {
        chunks_per_node: if quick_mode() { 400 } else { 2_000 },
        ..SweepConfig::default()
    };
    for kind in [DatasetKind::Accelerometer, DatasetKind::TrafficVideo] {
        let pts = throughput_vs_nodes(kind, counts, &sweep);
        header(&format!(
            "Fig. 5(a) — aggregate dedup throughput (MB/s), dataset: {}",
            kind.label()
        ));
        println!(
            "{:>6} {:>12} {:>16} {:>12} {:>14} {:>14}",
            "nodes", "SMART", "Cloud-Assisted", "Cloud-Only", "vs CA", "vs CO"
        );
        for &n in counts {
            let get = |s: &str| {
                pts.iter()
                    .find(|p| p.x == n as f64 && p.strategy == s)
                    .map(|p| p.throughput_mbps)
                    .unwrap_or(f64::NAN)
            };
            let (sm, ca, co) = (get("SMART"), get("Cloud-Assisted"), get("Cloud-Only"));
            println!(
                "{n:>6} {} {} {} {:>+13.1}% {:>+13.1}%",
                fmt(sm),
                fmt(ca),
                fmt(co),
                (sm / ca - 1.0) * 100.0,
                (sm / co - 1.0) * 100.0
            );
        }
    }
    println!("\npaper: SMART +38.3%/+59.8% (ds1), +67.4%/+118.5% (ds2) vs CA/CO");
}
