//! # ef-bench — the experiment harness
//!
//! One binary per figure of the paper's evaluation (Sec. V); each prints
//! the figure's rows/series to stdout. See `EXPERIMENTS.md` for
//! paper-vs-measured records and DESIGN.md §3 for the experiment index.
//!
//! | Binary | Paper figure |
//! |---|---|
//! | `fig2_estimation` | Fig. 2 — real vs estimated dedup ratio |
//! | `fig3_estimation_time` | Fig. 3 — estimation error across time slots |
//! | `fig5a_throughput_vs_nodes` | Fig. 5(a) — throughput vs #edge nodes |
//! | `fig5b_throughput_vs_latency` | Fig. 5(b) — throughput vs WAN latency |
//! | `fig5c_ratio_vs_rings` | Fig. 5(c) — dedup ratio vs #D2-rings |
//! | `fig6a_cost_vs_rings` | Fig. 6(a) — storage/network cost vs #rings |
//! | `fig6b_throughput_vs_ringsize` | Fig. 6(b) — throughput vs ring size × inter-cloud latency |
//! | `fig6c_cost_comparison` | Fig. 6(c) — SMART vs Network-/Dedup-Only |
//! | `fig7a_scale_sim` | Fig. 7(a) — costs vs node count (simulation) |
//! | `fig7b_alpha_sweep` | Fig. 7(b) — costs vs trade-off factor α |
//!
//! Design-choice ablations (EXPERIMENTS.md):
//!
//! | Binary | Question |
//! |---|---|
//! | `ablation_chunking` | fixed-size vs content-defined chunking; restore layout, defrag off/on |
//! | `ablation_gamma` | replication factor γ sweep |
//! | `ablation_partitioners` | all partitioners head-to-head + runtime |
//! | `ablation_minhash` | exact vs MinHash/LSH ground truth |
//! | `recovery_latency` | crash-stop recovery latency vs anti-entropy interval |
//!
//! Host wall-clock cost per layer (chunking, SHA-256, key-value store,
//! erasure code, simulator) is measured by `bench_e2e`, not here; the
//! only host-time columns in this crate are the solver runtimes of
//! `ablation_partitioners` and `ablation_minhash`.

#![warn(missing_docs)]

/// True when `--quick` was passed: binaries shrink their sweeps for smoke
/// runs (used by the integration tests).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Formats a float with sensible width for table rows.
pub fn fmt(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:>12.1}")
    } else {
        format!("{v:>12.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_width() {
        assert_eq!(fmt(1.5).len(), 12);
        assert_eq!(fmt(123456.7).len(), 12);
    }
}
