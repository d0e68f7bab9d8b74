//! The reference clock: host time counted in core cycles, not seconds.
//!
//! The shared host this benchmark runs on moves its cores between clock
//! states — measured here as two plateaus 22 % apart that hold for
//! seconds to minutes — and every timed section of every workload,
//! chunking and memory-bound restore alike, stretches by exactly the
//! factor a pure register loop does (0.789 against 0.789 on `sim-chaos`
//! ingest, 0.782 against 0.778 on restore). A wall-clock median then
//! reads whichever state held the majority of a run, and ten runs of the
//! same code spread by the distance between the plateaus.
//!
//! So every timed stretch is bracketed by two readings of a fixed
//! calibration kernel — a dependent integer chain whose duration is a
//! fixed number of core cycles — and its duration is reported in
//! *reference seconds*: wall seconds scaled by `REFERENCE_KERNEL_S` over
//! the mean of the two readings. A reference second is the time the core
//! takes for a fixed number of kernel iterations, whatever state it is in.
//! The kernel touches no memory, so reading it disturbs no cache.

use std::time::Instant;

const KERNEL_ITERS: u64 = 500_000;
/// A reading is the fastest of this many kernel runs: an interrupt can
/// only lengthen a run, never shorten it.
const KERNEL_REPS: usize = 4;
/// The reading that counts as clock ratio 1: the slower, usual plateau of
/// the machine the benchmark was written on, so reference seconds there
/// are wall seconds most of the time. Any constant would do; changing it
/// rescales every host-time metric of every workload alike.
pub const REFERENCE_KERNEL_S: f64 = 925e-6;

/// One reading of the calibration kernel, in wall seconds (~4 ms to take).
pub fn kernel_s() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..KERNEL_REPS {
        let start = Instant::now();
        let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
        for _ in 0..KERNEL_ITERS {
            x = x.rotate_left(13) ^ x.wrapping_mul(0xff51_afd7_ed55_8ccd);
            x = x.wrapping_add(x >> 7);
        }
        std::hint::black_box(x);
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// `wall_s` of host time between two kernel readings, in reference
/// seconds.
pub fn reference_s(wall_s: f64, kernel_before_s: f64, kernel_after_s: f64) -> f64 {
    wall_s * REFERENCE_KERNEL_S / ((kernel_before_s + kernel_after_s) / 2.0)
}

/// Runs `f` between two kernel readings. Returns its result and the
/// reference seconds one wall second was worth while it ran: multiply a
/// time `f` measured by it, divide a rate.
pub fn bracket<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = kernel_s();
    let out = f();
    (out, reference_s(1.0, before, kernel_s()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slower_clock_state_shortens_reference_time_in_proportion() {
        // At the reference reading, reference seconds are wall seconds.
        assert_eq!(
            reference_s(2.0, REFERENCE_KERNEL_S, REFERENCE_KERNEL_S),
            2.0
        );
        // The same work on a core running at 0.8x takes 1/0.8 the wall
        // time and the kernel reads 1/0.8 longer: same reference time.
        let slow = REFERENCE_KERNEL_S / 0.8;
        let got = reference_s(2.0 / 0.8, slow, slow);
        assert!((got - 2.0).abs() < 1e-12, "{got}");
        // A state change mid-stretch is priced at the mean reading.
        let got = reference_s(1.0, REFERENCE_KERNEL_S, 3.0 * REFERENCE_KERNEL_S);
        assert!((got - 0.5).abs() < 1e-12, "{got}");
    }

    #[test]
    fn the_kernel_reads_a_plausible_positive_time() {
        let k = kernel_s();
        assert!(k > 0.0 && k < 0.1, "kernel took {k} s");
    }
}
