//! Gray-failure mitigation primitives: adaptive RTT/RTO estimation and
//! the accounting for hedging, load shedding and timeout adaptation.
//!
//! A *gray* failure is a node (or link) that is slow without being dead:
//! heartbeats still arrive, so the failure detector never fires, yet
//! every request routed through the degraded component pays a stretched
//! service time. The fixed 100 ms retransmission timeout of
//! [`RetryPolicy`](crate::RetryPolicy) is tuned for total silence; under
//! gray degradation it waits two orders of magnitude longer than the
//! observed round-trip before acting. This module provides:
//!
//! * [`RttEstimator`] — the Jacobson/Karels smoothed RTT/variance
//!   estimator (TCP's RTO algorithm) in pure integer nanosecond
//!   arithmetic, so adapted timeouts replay bit-identically;
//! * [`AdaptiveTimeouts`] — per-(observer, peer) estimators with
//!   floor/ceiling clamps, feeding the simulated cluster's RTO timers;
//! * [`GrayFailureStats`](crate::GrayFailureStats) — counters for hedged lookups, shed requests,
//!   queue high-water marks and timeout adaptations, reported up through
//!   the system metrics like the integrity and cache counters.
//!
//! None of this consumes seeded randomness: estimation is deterministic
//! arithmetic over observed delivery times, so enabling the mitigations
//! never perturbs the RNG trace of an existing scenario (DESIGN.md §13,
//! rule D002).

// A module on the dedup hot path (DESIGN.md §13): besides unwrap, expect
// and panic!, every index and every integer operation must be checked.
#![warn(clippy::indexing_slicing, clippy::arithmetic_side_effects)]

use ef_netsim::NodeId;
use ef_simcore::SimDuration;
use std::collections::BTreeMap;

/// Jacobson/Karels smoothed round-trip estimator in integer nanoseconds.
///
/// Classic TCP gains: `srtt += (sample - srtt) / 8`,
/// `rttvar += (|sample - srtt| - rttvar) / 4`, RTO = `srtt + 4 * rttvar`.
/// The first sample initialises `srtt = sample, rttvar = sample / 2`
/// (RFC 6298). All arithmetic is integer, so a fixed sample sequence
/// yields a bit-identical RTO sequence on every platform.
///
/// # Example
///
/// ```
/// use ef_kvstore::RttEstimator;
/// use ef_simcore::SimDuration;
///
/// let mut est = RttEstimator::new();
/// assert!(est.srtt().is_none());
/// est.observe(SimDuration::from_millis(2));
/// // First sample: srtt = 2 ms, rttvar = 1 ms, RTO = 2 + 4*1 = 6 ms.
/// assert_eq!(est.rto(), Some(SimDuration::from_millis(6)));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RttEstimator {
    /// Smoothed RTT (ns); `None` until the first sample.
    srtt: Option<u64>,
    /// Smoothed mean deviation (ns).
    rttvar: u64,
    /// Samples folded in.
    samples: u64,
}

impl RttEstimator {
    /// A fresh estimator with no samples.
    pub fn new() -> Self {
        RttEstimator::default()
    }

    /// Folds one round-trip `sample` into the estimate.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "rttvar / 4 <= rttvar and err / 8 <= srtt - s <= srtt when s < srtt; u64 sample counts do not wrap"
    )]
    pub fn observe(&mut self, sample: SimDuration) {
        let s = sample.as_nanos();
        match self.srtt {
            None => {
                self.srtt = Some(s);
                self.rttvar = s / 2;
            }
            Some(srtt) => {
                let err = s.abs_diff(srtt);
                self.rttvar = (self.rttvar - self.rttvar / 4).saturating_add(err / 4);
                let adjusted = if s >= srtt {
                    srtt.saturating_add(err / 8)
                } else {
                    srtt - err / 8
                };
                self.srtt = Some(adjusted);
            }
        }
        self.samples += 1;
    }

    /// The smoothed RTT, `None` before the first sample.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt.map(SimDuration::from_nanos)
    }

    /// The unclamped adaptive RTO (`srtt + 4 * rttvar`), `None` before
    /// the first sample.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "rttvar is at most the largest sample, a nanosecond duration far below u64::MAX / 4"
    )]
    pub fn rto(&self) -> Option<SimDuration> {
        self.srtt
            .map(|srtt| SimDuration::from_nanos(srtt.saturating_add(4 * self.rttvar)))
    }

    /// Samples folded in so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// Per-(observer, peer) adaptive RTO estimation with clamp bounds.
///
/// Every coordinator keeps one [`RttEstimator`] per peer it talks to;
/// the adapted RTO for a pending op is the *maximum* clamped estimate
/// over its still-outstanding peers (the op waits for the slowest one).
/// Clamping keeps a burst of fast local samples from collapsing the
/// timer below the floor (spurious retransmissions) and a gray peer's
/// inflated samples from stretching it past the ceiling (unbounded
/// waits — the very pathology adaptation exists to fix).
#[derive(Debug, Clone)]
pub struct AdaptiveTimeouts {
    floor: SimDuration,
    ceiling: SimDuration,
    estimators: BTreeMap<(NodeId, NodeId), RttEstimator>,
}

impl AdaptiveTimeouts {
    /// Creates the estimator table with the given clamp bounds.
    ///
    /// # Panics
    ///
    /// Panics when `floor` is zero or `ceiling <= floor`.
    pub fn new(floor: SimDuration, ceiling: SimDuration) -> Self {
        assert!(!floor.is_zero(), "floor must be positive");
        assert!(ceiling > floor, "ceiling must exceed the floor");
        AdaptiveTimeouts {
            floor,
            ceiling,
            estimators: BTreeMap::new(),
        }
    }

    /// The clamp floor.
    pub fn floor(&self) -> SimDuration {
        self.floor
    }

    /// The clamp ceiling.
    pub fn ceiling(&self) -> SimDuration {
        self.ceiling
    }

    /// Folds a round-trip `sample` observed by `observer` for `peer`.
    pub fn observe(&mut self, observer: NodeId, peer: NodeId, sample: SimDuration) {
        self.estimators
            .entry((observer, peer))
            .or_default()
            .observe(sample);
    }

    /// The smoothed RTT `observer` holds for `peer`, if any samples
    /// arrived.
    pub fn srtt_of(&self, observer: NodeId, peer: NodeId) -> Option<SimDuration> {
        self.estimators
            .get(&(observer, peer))
            .and_then(RttEstimator::srtt)
    }

    /// The clamped adaptive RTO `observer` holds for `peer`: the raw
    /// Jacobson/Karels estimate bounded into `[floor, ceiling]`, or
    /// `None` before any sample.
    pub fn rto_of(&self, observer: NodeId, peer: NodeId) -> Option<SimDuration> {
        self.estimators
            .get(&(observer, peer))
            .and_then(RttEstimator::rto)
            .map(|rto| rto.max(self.floor).min(self.ceiling))
    }

    /// Total samples folded in across all estimator pairs.
    pub fn total_samples(&self) -> u64 {
        self.estimators.values().map(RttEstimator::samples).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn first_sample_initialises_rfc6298() {
        let mut est = RttEstimator::new();
        est.observe(ms(8));
        assert_eq!(est.srtt(), Some(ms(8)));
        // rttvar = 4 ms; RTO = 8 + 16 = 24 ms.
        assert_eq!(est.rto(), Some(ms(24)));
        assert_eq!(est.samples(), 1);
    }

    #[test]
    fn steady_samples_converge_and_variance_decays() {
        let mut est = RttEstimator::new();
        for _ in 0..64 {
            est.observe(ms(2));
        }
        assert_eq!(est.srtt(), Some(ms(2)));
        // With zero deviation the variance decays toward zero and the
        // RTO approaches the smoothed RTT itself.
        let rto = est.rto().unwrap();
        assert!(rto >= ms(2) && rto < ms(3), "rto {rto:?}");
    }

    #[test]
    fn slow_samples_inflate_the_estimate() {
        let mut est = RttEstimator::new();
        for _ in 0..16 {
            est.observe(ms(2));
        }
        let before = est.rto().unwrap();
        for _ in 0..16 {
            est.observe(ms(40));
        }
        let after = est.rto().unwrap();
        assert!(after > before, "gray samples must inflate the RTO");
        assert!(est.srtt().unwrap() > ms(10));
    }

    #[test]
    fn golden_rto_sequence_is_pinned() {
        // The exact integer RTO sequence for a fixed sample pattern is
        // part of the determinism contract (DESIGN.md §12): any change
        // to the estimator gains or rounding shows up here before it
        // silently moves every adapted timer in every seeded experiment.
        // Pure integer arithmetic — no RNG backend involved.
        let mut est = RttEstimator::new();
        let samples = [2_000_000u64, 2_500_000, 1_800_000, 9_000_000, 2_100_000];
        let rtos: Vec<u64> = samples
            .iter()
            .map(|&s| {
                est.observe(SimDuration::from_nanos(s));
                est.rto().unwrap().as_nanos()
            })
            .collect();
        assert_eq!(
            rtos,
            vec![6_000_000, 5_562_500, 4_917_188, 12_036_917, 10_453_787],
        );
    }

    #[test]
    fn clamp_bounds_hold() {
        let mut ad = AdaptiveTimeouts::new(ms(5), ms(200));
        let (a, b) = (NodeId(0), NodeId(1));
        // A burst of sub-floor samples clamps up to the floor.
        ad.observe(a, b, SimDuration::from_nanos(100_000));
        assert_eq!(ad.rto_of(a, b), Some(ms(5)));
        // A gray peer's huge samples clamp down to the ceiling.
        for _ in 0..32 {
            ad.observe(a, b, ms(5_000));
        }
        assert_eq!(ad.rto_of(a, b), Some(ms(200)));
        assert_eq!(ad.rto_of(b, a), None, "no samples for the reverse pair");
        assert_eq!(ad.total_samples(), 33);
    }

    #[test]
    #[should_panic(expected = "ceiling must exceed")]
    fn ceiling_must_exceed_floor() {
        AdaptiveTimeouts::new(ms(10), ms(10));
    }
}
