//! Fig. 5(c): dedup ratio vs number of D2-rings (20 nodes).
//!
//! Paper result: EF-dedup's dedup ratio is upper-bounded by the
//! cloud-based (global) ratio, and approaches it quickly as rings get
//! fewer/larger.

use ef_bench::{fmt, header, quick_mode};
use efdedup::experiments::{ratio_vs_rings, DatasetKind, SweepConfig};

fn main() {
    let rings: &[usize] = if quick_mode() {
        &[1, 5, 10]
    } else {
        &[1, 2, 4, 5, 10, 20]
    };
    let sweep = SweepConfig {
        chunks_per_node: if quick_mode() { 400 } else { 2_000 },
        ..SweepConfig::default()
    };
    for kind in [DatasetKind::Accelerometer, DatasetKind::TrafficVideo] {
        let pts = ratio_vs_rings(kind, rings, 20, &sweep);
        header(&format!(
            "Fig. 5(c) — dedup ratio vs number of D2-rings, dataset: {}",
            kind.label()
        ));
        println!("{:>8} {:>12}", "rings", "ratio");
        for p in &pts {
            if p.strategy == "SMART" {
                println!("{:>8} {}", p.x as usize, fmt(p.dedup_ratio));
            }
        }
        let cloud = pts
            .iter()
            .find(|p| p.strategy == "Cloud (global)")
            .expect("cloud bound present");
        println!(
            "{:>8} {}   <- cloud-based upper bound",
            "global",
            fmt(cloud.dedup_ratio)
        );
    }
    println!("\npaper: fewer rings -> ratio approaches the cloud bound");
}
