//! Fig. 5(b): dedup throughput vs edge↔cloud latency (20 nodes, ds1).
//!
//! Paper result: all strategies degrade with latency, but SMART's lead
//! over Cloud-Assisted grows (24.2 % at 30 ms → 67.1 % at 100 ms)
//! because its hash lookups stay between edge nodes.

use ef_bench::{fmt, header, quick_mode};
use efdedup::experiments::{throughput_vs_wan_latency, DatasetKind, SweepConfig};

fn main() {
    let lats: &[f64] = if quick_mode() {
        &[12.2, 50.0]
    } else {
        &[12.2, 30.0, 50.0, 70.0, 100.0]
    };
    let nodes = 20;
    let sweep = SweepConfig {
        chunks_per_node: if quick_mode() { 400 } else { 2_000 },
        ..SweepConfig::default()
    };
    for kind in [DatasetKind::Accelerometer, DatasetKind::TrafficVideo] {
        let pts = throughput_vs_wan_latency(kind, lats, nodes, &sweep);
        header(&format!(
            "Fig. 5(b) — throughput vs WAN latency (MB/s), dataset: {}",
            kind.label()
        ));
        println!(
            "{:>10} {:>12} {:>16} {:>12} {:>12}",
            "lat (ms)", "SMART", "Cloud-Assisted", "Cloud-Only", "SMART vs CA"
        );
        for &l in lats {
            let get = |s: &str| {
                pts.iter()
                    .find(|p| p.x == l && p.strategy == s)
                    .map(|p| p.throughput_mbps)
                    .unwrap_or(f64::NAN)
            };
            let (sm, ca, co) = (get("SMART"), get("Cloud-Assisted"), get("Cloud-Only"));
            println!(
                "{l:>10.1} {} {} {} {:>+11.1}%",
                fmt(sm),
                fmt(ca),
                fmt(co),
                (sm / ca - 1.0) * 100.0
            );
        }
    }
    println!("\npaper: SMART's lead over Cloud-Assisted grows with latency (24.2% -> 67.1%)");
}
