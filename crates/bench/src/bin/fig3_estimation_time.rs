//! Fig. 3: estimation error across successive time slots.
//!
//! The paper re-estimates at later time slots starting from the previous
//! characteristic vectors: the search "ends extremely quickly in several
//! seconds with even smaller errors", and the error generally decreases
//! across time.

use ef_bench::{header, quick_mode};
use efdedup::experiments::{estimation_experiment, DatasetKind};

fn main() {
    let (slots_n, chunks) = if quick_mode() { (2, 300) } else { (4, 800) };
    let slots = estimation_experiment(DatasetKind::Accelerometer, slots_n, chunks, 42);
    header("Fig. 3 — estimation error across time slots (warm-started)");
    println!(
        "{:<6} {:>10} {:>14} {:>12} {:>8}",
        "slot", "MSE", "mean err %", "iterations", "start"
    );
    for s in &slots {
        println!(
            "{:<6} {:>10.4} {:>13.2}% {:>12} {:>8}",
            s.slot,
            s.mse,
            s.mean_rel_error * 100.0,
            s.iterations,
            if s.slot == 0 { "cold" } else { "warm" }
        );
    }
    println!("\npaper: error < 4% on average, warm slots converge in seconds");
}
