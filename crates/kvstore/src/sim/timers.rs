//! The timers machine: everything that decides *when* — per-op
//! retransmission, adaptive RTT, hedging, admission, backpressure, slow
//! marks and fail-slow storage stalls.
//!
//! **State:** retry policy + jitter RNG, per-edge RTT estimators and
//! first-transmission stamps, hedge budget, admission bound,
//! backpressure threshold, slow threshold and the slow-marked edges,
//! storage-stall windows, [`GrayFailureStats`]. **Events:** `Rto`,
//! `Hedge`, `Flush`. **Emits:** retransmitted requests, one speculative
//! hedge probe per op, delayed acks.

use super::{Event, SimCluster, Windows};
use crate::counters::GrayFailureStats;
use crate::gray::AdaptiveTimeouts;
use crate::msg::{Message, OpId, Outbound};
use crate::node::NodeState;
use crate::retry::RetryPolicy;
use ef_netsim::NodeId;
use ef_simcore::{DetRng, SimDuration, SimTime};
use std::collections::{BTreeSet, HashMap};

/// Nominal healthy fsync cost (nanoseconds) used to convert a fail-slow
/// stall factor into an absolute ack delay: a factor-`f` stall stretches
/// a flush from one nominal fsync to `f` of them, and the replica's ack
/// waits out the difference.
const NOMINAL_FSYNC_NANOS: u64 = 500_000;

/// The per-op timeout/retry policy and the seeded jitter stream it
/// draws from.
#[derive(Debug)]
struct Retry {
    policy: RetryPolicy,
    rng: DetRng,
}

#[derive(Debug, Default)]
pub(super) struct Timers {
    /// None = ops wait forever, the pre-chaos behaviour; auto-armed when
    /// the network carries a fault plan.
    retry: Option<Retry>,
    /// Adaptive per-peer RTO estimators (None until enabled).
    adaptive: Option<AdaptiveTimeouts>,
    /// Hedged-read budget: max speculative probes per run (None = off).
    hedging: Option<u64>,
    /// Admission-control bound on a coordinator's pending ops (None =
    /// off).
    admission: Option<usize>,
    /// Uplink-backpressure threshold for background work (None = off).
    backpressure: Option<SimDuration>,
    /// Smoothed-RTT threshold marking a peer slow/gray (None = off).
    slow_watch: Option<SimDuration>,
    /// Currently slow-marked (observer, peer) edges.
    slow: BTreeSet<(NodeId, NodeId)>,
    /// Registered fail-slow storage stalls: who, and by what factor.
    stalls: Windows<(NodeId, f64)>,
    /// First-transmission stamps for in-flight (op, peer) request edges.
    /// Keyed lookups only — never iterated, so the HashMap is safe.
    sent_at: HashMap<(OpId, NodeId), SimTime>,
    /// Driver-level gray-failure counters (hedge wins are counted by the
    /// coordinators themselves).
    pub(super) gray: GrayFailureStats,
}

impl Timers {
    pub(super) fn set_retry(&mut self, policy: RetryPolicy) {
        let rng = DetRng::new(policy.seed).substream("rto-jitter");
        self.retry = Some(Retry { policy, rng });
    }

    fn policy(&self) -> Option<RetryPolicy> {
        self.retry.as_ref().map(|r| r.policy)
    }

    /// Admission control at the door: true (and counted) when a
    /// coordinator already holding `pending` ops must shed the next one.
    pub(super) fn sheds_at_door(&mut self, pending: usize) -> bool {
        let sheds = self.admission.is_some_and(|limit| pending >= limit);
        if sheds {
            self.gray.sheds_critical += 1;
        }
        sheds
    }

    /// Tracks the pending-queue high-water mark while admission control
    /// is on.
    pub(super) fn note_queue_depth(&mut self, depth: usize) {
        if self.admission.is_some() {
            self.gray.queue_peak = self.gray.queue_peak.max(depth as u64);
        }
    }

    /// Adaptive RTT sampling, send side: stamp the *first* transmission
    /// of each (op, peer) request edge. Karn's rule — retransmits keep
    /// the original stamp, so a retried request's eventual ack measures
    /// from its first send and only over-estimates.
    pub(super) fn stamp_request(&mut self, now: SimTime, to: NodeId, msg: &Message) {
        if self.adaptive.is_none() {
            return;
        }
        if let Message::ReplicaWrite { op_id, .. } | Message::ReplicaRead { op_id, .. } = msg {
            self.sent_at.entry((*op_id, to)).or_insert(now);
        }
    }

    /// Adaptive RTT sampling, ack side: an ack from `peer` closes the
    /// timing loop `stamp_request` opened, feeds the (observer, peer)
    /// estimator, and re-evaluates the slow-peer verdict — an estimator
    /// whose smoothed RTT sits above the threshold marks the
    /// (observer, peer) edge slow (steering hedges and replica selection
    /// away); a recovered estimator clears the mark.
    pub(super) fn on_ack(&mut self, now: SimTime, observer: NodeId, peer: NodeId, msg: &Message) {
        let Some(adaptive) = self.adaptive.as_mut() else {
            return;
        };
        let (Message::WriteAck { op_id, .. } | Message::ReadResp { op_id, .. }) = msg else {
            return;
        };
        let Some(t0) = self.sent_at.remove(&(*op_id, peer)) else {
            return;
        };
        adaptive.observe(observer, peer, now.saturating_since(t0));
        self.gray.rtt_samples += 1;
        let Some(threshold) = self.slow_watch else {
            return;
        };
        let edge = (observer, peer);
        if adaptive
            .srtt_of(observer, peer)
            .is_some_and(|s| s > threshold)
        {
            if self.slow.insert(edge) {
                self.gray.slow_marks += 1;
            }
        } else {
            self.slow.remove(&edge);
        }
    }

    /// Peers `observer` currently marks slow.
    fn slow_peers_of(&self, observer: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.slow
            .iter()
            .filter(move |(obs, _)| *obs == observer)
            .map(|&(_, peer)| peer)
    }

    /// The strongest storage-stall factor covering `node` at `now`
    /// (1.0 = healthy).
    pub(super) fn stall_factor(&self, node: NodeId, now: SimTime) -> f64 {
        self.stalls
            .open_at(now)
            .filter(|(n, _)| *n == node)
            .fold(1.0, |worst, &(_, factor)| worst.max(factor))
    }

    /// How long a stalled `node`'s stretched fsync holds back its acks at
    /// `now` (None when healthy).
    pub(super) fn fsync_penalty(&self, node: NodeId, now: SimTime) -> Option<SimDuration> {
        let stall = self.stall_factor(node, now);
        let nanos = (NOMINAL_FSYNC_NANOS as f64 * (stall - 1.0)).round() as u64;
        (stall > 1.0).then(|| SimDuration::from_nanos(nanos))
    }

    /// The base retransmission delay for attempt `attempt` of an op
    /// coordinated by `coordinator` with `outstanding` peers still
    /// unanswered: the per-peer adaptive RTO when the estimators hold
    /// samples for them (worst peer wins — the timer must outlast the
    /// slowest leg of the quorum), otherwise the fixed policy delay.
    /// Returns the base and whether it was adapted.
    fn rto_base(
        &self,
        policy: &RetryPolicy,
        coordinator: NodeId,
        outstanding: &[NodeId],
        attempt: u32,
    ) -> (SimDuration, bool) {
        let worst = self.adaptive.as_ref().and_then(|adaptive| {
            let rtos = outstanding.iter();
            let rto = rtos
                .filter_map(|&p| adaptive.rto_of(coordinator, p))
                .max()?;
            // Back off like the fixed policy so a persistently silent
            // quorum still escalates, then re-clamp.
            let scaled = rto * policy.backoff.powi(attempt.min(16) as i32);
            Some(scaled.max(adaptive.floor()).min(adaptive.ceiling()))
        });
        match worst {
            Some(clamped) => (clamped, true),
            None => (policy.delay(attempt), false),
        }
    }

    /// Hedge delay: half the retransmission base normally, but when the
    /// coordinator already marks an outstanding peer slow the probe fires
    /// after only the adaptive floor. The base scales with the *slow*
    /// peer's inflated RTO — waiting half of that out would concede
    /// exactly the tail the hedge exists to cut, so a known-gray quorum
    /// is probed at the earliest plausible moment.
    fn hedge_delay(
        &self,
        coordinator: NodeId,
        outstanding: &[NodeId],
        base: SimDuration,
    ) -> SimDuration {
        let gray_outstanding = outstanding
            .iter()
            .any(|&peer| self.slow.contains(&(coordinator, peer)));
        match (&self.adaptive, gray_outstanding) {
            (Some(adaptive), true) => adaptive.floor().min(base * 0.5),
            (Some(_), false) | (None, _) => base * 0.5,
        }
    }
}

impl SimCluster {
    /// Sets (or replaces) the per-op timeout/retry policy. Affects ops
    /// submitted from now on; call before `submit`.
    ///
    /// # Panics
    ///
    /// Panics when the policy is invalid (see [`RetryPolicy::validate`]).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        policy.validate();
        self.timers.set_retry(policy);
    }

    /// Registers a fail-slow storage stall at `node` over `[from, until)`:
    /// the node's fsyncs crawl by `stall_factor`, so its acks to replica
    /// writes and hint replays leave late and its scrub rounds cover
    /// proportionally fewer bytes. The node stays up and its data stays
    /// correct — the gray middle ground between healthy and crashed that
    /// binary failure detectors cannot see.
    ///
    /// # Panics
    ///
    /// Panics when `stall_factor < 1.0` or the window is empty.
    pub fn storage_stall_at(
        &mut self,
        from: SimTime,
        until: SimTime,
        node: NodeId,
        stall_factor: f64,
    ) {
        assert!(
            stall_factor >= 1.0,
            "stall factor {stall_factor} must be >= 1 (1 = healthy)"
        );
        self.timers.stalls.push(from, until, (node, stall_factor));
    }

    /// Enables adaptive per-peer retransmission timeouts: every ack
    /// feeds a Jacobson/Karels RTT estimator for its (coordinator, peer)
    /// edge, and retry timers use the worst outstanding peer's RTO
    /// (clamped to `[floor, ceiling]`) instead of the fixed policy
    /// delay. Call before submitting ops.
    ///
    /// # Panics
    ///
    /// Panics when `floor` is zero or `ceiling <= floor`.
    pub fn enable_adaptive_rto(&mut self, floor: SimDuration, ceiling: SimDuration) {
        self.timers.adaptive = Some(AdaptiveTimeouts::new(floor, ceiling));
    }

    /// Enables hedged dedup lookups: a read-phase op still pending at
    /// half its retransmission delay fires one speculative probe at the
    /// next ring successor beyond the primary replica set, steering
    /// around slow-marked peers. At most `budget` hedges fire per run.
    /// Only a positive sighting ("I hold the key") completes an op
    /// early, so hedging preserves one-sided dedup soundness: it can
    /// never manufacture a false duplicate.
    ///
    /// # Panics
    ///
    /// Panics when `budget` is zero.
    pub fn enable_hedged_reads(&mut self, budget: u64) {
        assert!(budget > 0, "hedge budget must be positive");
        self.timers.hedging = Some(budget);
    }

    /// Enables admission control: a coordinator with `max_pending` ops
    /// already in flight sheds new client ops as
    /// [`OpResult::Unavailable`](crate::OpResult::Unavailable) instead
    /// of queueing them behind work it cannot finish in time. Sheds
    /// still consume sequence numbers, keeping op ids identical with and
    /// without the limiter.
    ///
    /// # Panics
    ///
    /// Panics when `max_pending` is zero.
    pub fn enable_admission_control(&mut self, max_pending: usize) {
        assert!(max_pending > 0, "admission limit must be positive");
        self.timers.admission = Some(max_pending);
    }

    /// Enables uplink backpressure for background work: an anti-entropy
    /// or scrub round scheduled while any live member's uplink is booked
    /// out for more than `threshold` yields its slot (and re-arms)
    /// rather than pile bulk transfers behind latency-critical dedup
    /// traffic.
    ///
    /// # Panics
    ///
    /// Panics when `threshold` is zero.
    pub fn enable_backpressure(&mut self, threshold: SimDuration) {
        assert!(
            !threshold.is_zero(),
            "backpressure threshold must be positive"
        );
        self.timers.backpressure = Some(threshold);
    }

    /// Enables gray-peer ("slow") detection on top of the adaptive RTT
    /// estimators: a peer whose smoothed RTT exceeds `threshold` is
    /// marked slow at its observer and avoided by hedges until its RTT
    /// recovers. Requires
    /// [`SimCluster::enable_adaptive_rto`] first.
    ///
    /// # Panics
    ///
    /// Panics when `threshold` is zero or adaptive RTO is not enabled.
    pub fn enable_slow_detection(&mut self, threshold: SimDuration) {
        assert!(!threshold.is_zero(), "slow threshold must be positive");
        assert!(
            self.timers.adaptive.is_some(),
            "slow detection needs adaptive RTO (call enable_adaptive_rto first)"
        );
        self.timers.slow_watch = Some(threshold);
    }

    /// Gray-failure mitigation counters: hedges fired/won, load sheds by
    /// class, queue high-water mark, RTT samples and timer adaptations.
    /// All zeros unless a mitigation was enabled.
    pub fn gray_stats(&self) -> GrayFailureStats {
        let mut total = self.timers.gray;
        total.merge(&self.node_stats().gray);
        total
    }

    /// The clamped adaptive RTO `observer` currently holds for `peer`
    /// (None without samples or when adaptive RTO is disabled).
    pub fn adaptive_rto_of(&self, observer: NodeId, peer: NodeId) -> Option<SimDuration> {
        self.timers.adaptive.as_ref()?.rto_of(observer, peer)
    }

    /// Peers `observer` currently marks slow (gray), per the RTT
    /// threshold of [`SimCluster::enable_slow_detection`].
    pub fn slow_of(&self, observer: NodeId) -> Vec<NodeId> {
        self.timers.slow_peers_of(observer).collect()
    }

    /// The peers `op_id` still awaits at its coordinator.
    fn outstanding_peers(&self, op_id: OpId) -> Vec<NodeId> {
        self.nodes
            .get(&op_id.coordinator)
            .map(|n| n.outstanding_peers(op_id))
            .unwrap_or_default()
    }

    /// Arms the timers of an op the coordinator just began, if it is
    /// still pending: the retransmission timer and — with hedging on —
    /// one speculative backup probe at half the retransmission delay,
    /// late enough that a healthy replica has long since answered, early
    /// enough to beat the full RTO when the primary is gray. Both timers
    /// self-cancel if the op completes first (their handlers re-check).
    pub(super) fn arm_op_timers(&mut self, op_id: OpId) {
        let coordinator = op_id.coordinator;
        let Some(policy) = self.timers.policy() else {
            return;
        };
        let pending = |n: &NodeState| n.is_pending(op_id);
        if !self.nodes.get(&coordinator).is_some_and(pending) {
            return;
        }
        self.arm_rto(op_id, 0);
        if self.timers.hedging.is_some() {
            let outstanding = self.outstanding_peers(op_id);
            let (base, _) = self.timers.rto_base(&policy, coordinator, &outstanding, 0);
            let delay = self.timers.hedge_delay(coordinator, &outstanding, base);
            self.sim.schedule_after(delay, Event::Hedge { op_id });
        }
    }

    /// Schedules the retransmission timer for `op_id`'s attempt
    /// `attempt`, with exponential backoff and seeded jitter. With
    /// adaptive RTO enabled the base tracks the measured per-peer RTT
    /// instead of the fixed policy delay; the jitter draw is taken either
    /// way, so adaptive and fixed runs consume identical randomness.
    fn arm_rto(&mut self, op_id: OpId, attempt: u32) {
        let Some(policy) = self.timers.policy() else {
            return;
        };
        let outstanding = self.outstanding_peers(op_id);
        let (base, adapted) =
            self.timers
                .rto_base(&policy, op_id.coordinator, &outstanding, attempt);
        if adapted {
            self.timers.gray.rto_adaptations += 1;
        }
        let jitter = match &mut self.timers.retry {
            Some(retry) if policy.jitter_frac > 0.0 => {
                base * (policy.jitter_frac * retry.rng.unit())
            }
            Some(_) | None => SimDuration::ZERO,
        };
        self.sim
            .schedule_after(base + jitter, Event::Rto { op_id, attempt });
    }

    /// `Rto`: a retransmission timer fired for `op_id`.
    pub(super) fn on_rto(&mut self, now: SimTime, op_id: OpId, attempt: u32) {
        let Some(policy) = self.timers.policy() else {
            return;
        };
        let coordinator = op_id.coordinator;
        let Some(node) = self
            .nodes
            .get_mut(&coordinator)
            .filter(|n| n.is_pending(op_id))
        else {
            return; // completed before the timer fired: stale RTO
        };
        let coordinator_crashed = self.crashed.contains(&coordinator);
        if attempt < policy.max_retries && !coordinator_crashed {
            let outbound = node.retry_outstanding(op_id);
            self.dispatch(now, coordinator, outbound);
            self.arm_rto(op_id, attempt + 1);
            return;
        }
        // Budget spent (or the coordinator itself crashed — nobody is
        // left to retry): resolve the op one way or the other.
        let (outbound, completion) = node.timeout_op(op_id);
        // A CheckAndInsert whose read phase timed out degraded into a
        // still-pending write phase ("assume unique"): give the write its
        // own fresh retry budget.
        let rearm = completion.is_none() && node.is_pending(op_id);
        if let Some(c) = completion {
            self.record(c.op_id, c.result, now);
        }
        if rearm {
            self.arm_rto(op_id, 0);
        }
        if !coordinator_crashed {
            self.dispatch(now, coordinator, outbound);
        }
    }

    /// `Hedge`: if the op is still pending its read phase and the
    /// cluster-wide hedge budget has room, fire one speculative backup
    /// probe, steering around peers the coordinator currently marks slow.
    pub(super) fn on_hedge(&mut self, now: SimTime, op_id: OpId) {
        let coordinator = op_id.coordinator;
        let Some(budget) = self.timers.hedging else {
            return;
        };
        if self.timers.gray.hedges_fired >= budget || self.crashed.contains(&coordinator) {
            return;
        }
        // Trust-aware steering: a hedge is a leap of faith toward a
        // backup replica — never waste it on a quarantined liar, nor on
        // a peer already striking in the trust ledger (its next lie
        // would only cost a PoP round-trip to refute).
        let mut avoid: BTreeSet<NodeId> = self.timers.slow_peers_of(coordinator).collect();
        avoid.extend(self.background.quarantined.iter().copied());
        avoid.extend(self.trust.ledger.striking_peers());
        let Some(ob) = self
            .nodes
            .get_mut(&coordinator)
            .and_then(|n| n.hedge(op_id, &avoid))
        else {
            return;
        };
        self.timers.gray.hedges_fired += 1;
        self.dispatch(now, coordinator, vec![ob]);
    }

    /// `Flush`: a stalled replica's stretched fsync completed. A node
    /// that crash-stopped or departed between the stalled write and its
    /// flush completing never acks.
    pub(super) fn flush(&mut self, now: SimTime, from: NodeId, outbound: Vec<Outbound>) {
        if !self.crashed.contains(&from) {
            self.dispatch(now, from, outbound);
        }
    }

    /// True when uplink backpressure says background work should yield:
    /// some live member's uplink is booked solid for longer than the
    /// configured threshold, so an anti-entropy or scrub round would
    /// pile bulk transfers behind latency-critical dedup traffic.
    /// Background rounds are the first shed class; client ops shed only
    /// at the admission-control bound.
    pub(super) fn backpressure_yield(&self, now: SimTime) -> bool {
        let Some(threshold) = self.timers.backpressure else {
            return false;
        };
        self.nodes.keys().any(|&n| {
            !self.crashed.contains(&n)
                && self.network.uplink_free_at(n).saturating_since(now) > threshold
        })
    }
}
