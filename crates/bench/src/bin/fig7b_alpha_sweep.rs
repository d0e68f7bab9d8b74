//! Fig. 7(b): simulated costs vs the trade-off factor α.
//!
//! Paper result: as α increases SMART's network cost share falls and its
//! storage cost rises — α tunes the network-storage trade-off; at
//! α = 0.001 SMART beats Network-Only/Dedup-Only by 60.2 %/45.1 %.

use ef_bench::{fmt, header, quick_mode};
use efdedup::experiments::{alpha_sweep, DatasetKind};

fn main() {
    let alphas: &[f64] = if quick_mode() {
        &[0.0001, 0.01]
    } else {
        &[0.0001, 0.001, 0.01, 0.1]
    };
    let nodes = if quick_mode() { 60 } else { 200 };
    let rows = alpha_sweep(DatasetKind::TrafficVideo, alphas, nodes, 20, 42);
    header(&format!(
        "Fig. 7(b) — simulated costs vs alpha (ds2, {nodes} nodes, 20 rings)"
    ));
    println!(
        "{:>9} {:<14} {:>14} {:>14} {:>14} {:>10}",
        "alpha", "algorithm", "storage", "network", "aggregate", "vs SMART"
    );
    for &a in alphas {
        let smart = rows
            .iter()
            .find(|r| r.x == a && r.algorithm == "SMART")
            .expect("SMART row")
            .aggregate;
        for r in rows.iter().filter(|r| r.x == a) {
            println!(
                "{:>9} {:<14} {} {} {} {:>9.2}x",
                a,
                r.algorithm,
                fmt(r.storage),
                fmt(r.network),
                fmt(r.aggregate),
                r.aggregate / smart
            );
        }
    }
    println!("\npaper: higher alpha -> lower network share; SMART wins across alpha");
}
