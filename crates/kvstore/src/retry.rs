//! Per-operation timeout and retry policy for the simulated cluster.
//!
//! A [`RetryPolicy`] arms a retransmission timer (RTO) for every client
//! operation a [`SimCluster`](crate::SimCluster) coordinates. When the
//! timer fires before the op completes, the coordinator re-sends its
//! outstanding requests; after `max_retries` rounds it gives up and
//! resolves the op via [`NodeState::timeout_op`](crate::NodeState) —
//! timing out plain ops and degrading check-and-inserts to "assume
//! unique". Backoff is exponential and jitter is drawn from a seeded
//! RNG substream, so runs replay bit-identically.

use ef_simcore::{DetRng, SimDuration};

/// Timeout/retry configuration for coordinated operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Base retransmission timeout: how long the coordinator waits for
    /// the op to complete before the first retry.
    pub rto: SimDuration,
    /// Retransmission rounds before giving up. `0` means time out at the
    /// first RTO with no retry.
    pub max_retries: u32,
    /// Exponential backoff multiplier applied per attempt (≥ 1).
    pub backoff: f64,
    /// Uniform jitter added to each delay as a fraction of it (e.g. `0.2`
    /// adds 0–20%). Desynchronizes retry storms; drawn from the
    /// cluster's seeded RNG.
    pub jitter_frac: f64,
    /// Seed for the jitter substream.
    pub seed: u64,
}

impl RetryPolicy {
    /// A sensible default for paper-testbed latencies (0.85–12.2 ms
    /// one-way): 100 ms base RTO, 3 retries, doubling backoff, 20%
    /// jitter.
    pub fn new(seed: u64) -> Self {
        RetryPolicy {
            rto: SimDuration::from_millis(100),
            max_retries: 3,
            backoff: 2.0,
            jitter_frac: 0.2,
            seed,
        }
    }

    /// The un-jittered delay before attempt `attempt` (0-based):
    /// `rto * backoff^min(attempt, 16)`.
    ///
    /// The exponent is capped at 16, which bounds the delay at
    /// `rto * backoff^16` (≈ 6554 s for the defaults of 100 ms base and
    /// doubling backoff) — far beyond any retry budget this crate arms,
    /// but it keeps pathological attempt numbers from overflowing the
    /// nanosecond arithmetic.
    pub fn delay(&self, attempt: u32) -> SimDuration {
        self.rto * self.backoff.powi(attempt.min(16) as i32)
    }

    /// The jittered delay before attempt `attempt`: [`RetryPolicy::delay`]
    /// plus a uniform 0–`jitter_frac` fraction of it, drawn from `rng`.
    ///
    /// Exactly one draw is consumed per call when `jitter_frac > 0`, and
    /// none otherwise, so callers replay bit-identically for a fixed
    /// seed (DESIGN.md §13, rule D002: jitter comes from the seeded sim
    /// RNG, never from wall-clock entropy).
    pub fn jittered_delay(&self, attempt: u32, rng: &mut DetRng) -> SimDuration {
        let base = self.delay(attempt);
        if self.jitter_frac > 0.0 {
            base + base * (self.jitter_frac * rng.unit())
        } else {
            base
        }
    }

    /// Validates the policy.
    ///
    /// # Panics
    ///
    /// Panics when `rto` is zero, `backoff < 1`, or `jitter_frac` is
    /// negative or not finite.
    pub fn validate(&self) {
        assert!(!self.rto.is_zero(), "rto must be positive");
        assert!(self.backoff >= 1.0, "backoff {} < 1", self.backoff);
        assert!(
            self.jitter_frac.is_finite() && self.jitter_frac >= 0.0,
            "invalid jitter fraction {}",
            self.jitter_frac
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential() {
        let p = RetryPolicy {
            rto: SimDuration::from_millis(10),
            max_retries: 3,
            backoff: 2.0,
            jitter_frac: 0.0,
            seed: 0,
        };
        assert_eq!(p.delay(0), SimDuration::from_millis(10));
        assert_eq!(p.delay(1), SimDuration::from_millis(20));
        assert_eq!(p.delay(2), SimDuration::from_millis(40));
    }

    #[test]
    fn backoff_exponent_is_capped() {
        let p = RetryPolicy::new(0);
        // Huge attempt numbers must not overflow into nonsense.
        assert_eq!(p.delay(1000), p.delay(16));
    }

    #[test]
    fn schedule_is_pinned_for_fixed_seed() {
        // The exact retry schedule for seed 42 with the default policy.
        // These values are part of the determinism contract (DESIGN.md
        // §8): any change to the jitter draw order or backoff math shows
        // up here before it silently perturbs every seeded experiment.
        let p = RetryPolicy::new(42);
        let mut rng = DetRng::new(p.seed).substream("rto-jitter");
        let schedule: Vec<u64> = (0..4)
            .map(|attempt| p.jittered_delay(attempt, &mut rng).as_nanos())
            .collect();

        // Each delay sits in [base, base * (1 + jitter_frac)].
        for (attempt, &ns) in schedule.iter().enumerate() {
            let base = p.delay(attempt as u32).as_nanos();
            let ceil = (base as f64 * (1.0 + p.jitter_frac)).ceil() as u64;
            assert!(
                (base..=ceil).contains(&ns),
                "attempt {attempt}: {ns} outside [{base}, {ceil}]"
            );
        }
        assert_eq!(
            schedule,
            vec![
                109_726_918, // attempt 0: 100 ms + 9.7 ms jitter
                209_174_386, // attempt 1: 200 ms + 9.2 ms jitter
                447_345_651, // attempt 2: 400 ms + 47.3 ms jitter
                887_512_372, // attempt 3: 800 ms + 87.5 ms jitter
            ],
        );
    }

    #[test]
    fn zero_jitter_consumes_no_randomness() {
        let p = RetryPolicy {
            jitter_frac: 0.0,
            ..RetryPolicy::new(7)
        };
        let mut rng = DetRng::new(7).substream("rto-jitter");
        let before = rng.unit();
        let mut rng = DetRng::new(7).substream("rto-jitter");
        assert_eq!(p.jittered_delay(0, &mut rng), p.delay(0));
        // The stream was not advanced by the jitter-free delay.
        assert_eq!(rng.unit(), before);
    }

    #[test]
    #[should_panic(expected = "backoff")]
    fn validate_rejects_shrinking_backoff() {
        RetryPolicy {
            backoff: 0.5,
            ..RetryPolicy::new(0)
        }
        .validate();
    }
}
