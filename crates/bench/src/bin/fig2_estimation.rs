//! Fig. 2: real vs estimated dedup ratio over probe file combinations.
//!
//! The paper samples two accelerometer sources, fits Algorithm 1 with
//! K = 3 pools (sizes searched to 200 000, probabilities in steps of
//! 0.01) and reports MSE < 0.3 with average estimation error < 4 %.

use ef_bench::{fmt, header, quick_mode};
use efdedup::experiments::{estimation_experiment, DatasetKind};

fn main() {
    let chunks = if quick_mode() { 300 } else { 800 };
    let slots = estimation_experiment(DatasetKind::Accelerometer, 1, chunks, 42);
    let slot = &slots[0];
    header("Fig. 2 — real vs estimated dedup ratio (accelerometer, slot 0)");
    println!(
        "{:<16} {:>12} {:>12} {:>10}",
        "subset", "real", "estimated", "error%"
    );
    for row in &slot.rows {
        let err = ((row.real - row.estimated) / row.real * 100.0).abs();
        println!(
            "{:<16} {} {} {:>9.2}%",
            format!("{:?}", row.subset),
            fmt(row.real),
            fmt(row.estimated),
            err
        );
    }
    println!(
        "\nMSE = {:.4} (paper: < 0.3) | mean relative error = {:.2}% (paper: < 4%)",
        slot.mse,
        slot.mean_rel_error * 100.0
    );
}
