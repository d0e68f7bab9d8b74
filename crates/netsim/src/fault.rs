//! Network fault injection: seeded message loss and wire bit rot,
//! partitions and blackouts with heal times, fail-slow nodes, congested
//! links and Byzantine liars — every one a window of the same list.
//!
//! A [`FaultPlan`] is attached to a [`Network`](crate::Network) and consulted
//! on every [`Network::send`](crate::Network::send). All randomness comes from
//! a dedicated [`DetRng`] substream derived from the plan's seed, so a run
//! with the same seed, plan, and message order replays bit-identically.
//!
//! A plan is one list of [`FaultWindow`]s: a [`Fault`] acting on the
//! messages its [`FaultScope`] selects during `[from, until)`. Faults
//! compose in a fixed order per message:
//!
//! 1. **Partition / blackout** — if an active [`Fault::Partition`] window
//!    (see [`FaultPlan::partition`]) or [`Fault::Blackout`] window (e.g. a
//!    cloud-uplink cut, see [`FaultPlan::blackout`]) matches the message,
//!    it is dropped (probability 1, no RNG draw).
//! 2. **Loss** — each matching [`Fault::Loss`] window draws once, in
//!    registration order; the message is dropped if any draw fires.
//! 3. **Bit rot** — each matching [`Fault::BitRot`] window draws once, in
//!    registration order, after every loss draw; if any draw fires the
//!    message is delivered *corrupted* ([`FaultOutcome::DeliverCorrupt`])
//!    for the receiver's frame checksum to reject.
//!
//! Fail-slow and throttle windows stretch the service time the network
//! charges ([`FaultPlan::service_factors`]), and Byzantine windows are
//! oracles for the cluster driver; neither draws.
//!
//! Loopback traffic (`src == dst`) never traverses a link and is exempt from
//! all faults.

use crate::id::{NodeId, SiteId};
use ef_simcore::{DetRng, SimTime};

/// Which messages a fault window applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScope {
    /// Every non-loopback message.
    All,
    /// Messages between the two sites, in either direction.
    SitePair(SiteId, SiteId),
    /// Messages touching the given site (as source or destination).
    Site(SiteId),
    /// Messages from the first node to the second (directed).
    Link(NodeId, NodeId),
    /// Messages sent by the given node.
    FromNode(NodeId),
    /// Messages received by the given node.
    ToNode(NodeId),
}

impl FaultScope {
    fn matches(&self, src: NodeId, dst: NodeId, src_site: SiteId, dst_site: SiteId) -> bool {
        match *self {
            FaultScope::All => true,
            FaultScope::SitePair(a, b) => {
                (src_site == a && dst_site == b) || (src_site == b && dst_site == a)
            }
            FaultScope::Site(s) => src_site == s || dst_site == s,
            FaultScope::Link(from, to) => src == from && dst == to,
            FaultScope::FromNode(n) => src == n,
            FaultScope::ToNode(n) => dst == n,
        }
    }
}

/// A Byzantine behavior a compromised node exhibits inside a window.
///
/// Unlike every other fault — which models *non-malicious* degradation
/// (loss, rot, slowness) — a Byzantine window marks a node that actively
/// lies. The network itself never alters traffic for it: the window is a
/// pure oracle the cluster driver consults to rewrite what the
/// compromised node *would have sent*, so it is zero-draw and leaves
/// every verdict trace bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzantineFault {
    /// The node answers dedup lookups for keys it does not hold with a
    /// fabricated positive sighting ("I already hold this fingerprint"),
    /// trying to suppress a client upload and silently lose the chunk.
    LieOnLookup,
    /// The node serves fabricated bytes on mesh-repair and restore
    /// fetches (repair responses and hint replays) instead of the chunk
    /// its content address names.
    ServeGarbage,
    /// The node claims divergent Merkle buckets during anti-entropy
    /// summary exchange that it cannot back with any entries.
    EquivocateSummary,
    /// The node floods peers with bogus hint replays for chunks nobody
    /// ever wrote, trying to pollute their indexes and waste repair
    /// bandwidth.
    HintFlood,
    /// Every behavior above at once: the composed worst case.
    All,
}

/// What a [`FaultWindow`] does to the messages it matches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Drops each message with this probability: one RNG draw a message.
    Loss(f64),
    /// Delivers each message with corrupted payload bits (wire bit rot)
    /// with this probability: one RNG draw a message, after every loss
    /// draw.
    BitRot(f64),
    /// Drops every message, with no RNG draw: a severed link, a cut
    /// cloud uplink.
    Blackout,
    /// Drops every message, with no RNG draw, like [`Fault::Blackout`]:
    /// a partition between the sites of a [`FaultScope::SitePair`].
    Partition,
    /// Multiplies the whole service leg — per-message processing and
    /// serialization alike — by this factor (≥ 1): a fail-slow node,
    /// alive and answering heartbeats, but slow at everything it sends.
    Slow(f64),
    /// Divides the link's effective bandwidth by this factor (≥ 1), which
    /// stretches the serialization time only: a congested link.
    Throttle(f64),
    /// The window's sender exhibits this behavior; its frames are still
    /// delivered verbatim.
    Byzantine(ByzantineFault),
}

/// One [`Fault`] on the messages `scope` selects during the half-open
/// window `[from, until)`. `until = SimTime::MAX` means "never ends".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// Window start.
    pub from: SimTime,
    /// Window end (heal time), exclusive.
    pub until: SimTime,
    /// The messages it acts on.
    pub scope: FaultScope,
    /// What it does to them.
    pub fault: Fault,
}

impl FaultWindow {
    fn open_at(&self, t: SimTime) -> bool {
        self.from <= t && t < self.until
    }

    fn hits(
        &self,
        t: SimTime,
        src: NodeId,
        dst: NodeId,
        src_site: SiteId,
        dst_site: SiteId,
    ) -> bool {
        self.open_at(t) && self.scope.matches(src, dst, src_site, dst_site)
    }
}

/// Per-message verdict returned by [`FaultPlan::judge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Deliver intact.
    Deliver,
    /// Deliver with payload bits flipped in flight (wire bit rot): the
    /// receiver's frame checksum is expected to reject it.
    DeliverCorrupt,
    /// The message is lost.
    Drop,
}

/// A deterministic, seeded schedule of network faults: one list of
/// [`FaultWindow`]s.
///
/// Built fluently, then attached with
/// [`Network::set_fault_plan`](crate::Network::set_fault_plan):
///
/// ```
/// use ef_netsim::{FaultPlan, FaultScope, NodeId, SiteId};
/// use ef_simcore::SimTime;
///
/// let plan = FaultPlan::new(42)
///     .loss(FaultScope::All, 0.01)
///     .slow_node(NodeId(3), 2.0, SimTime::ZERO, SimTime::MAX)
///     .partition(
///         SiteId(0),
///         SiteId(1),
///         SimTime::from_secs_f64(1.0),
///         SimTime::from_secs_f64(3.0),
///     );
/// assert_eq!(plan.seed(), 42);
/// assert!(plan.partitioned(SiteId(1), SiteId(0), SimTime::from_secs_f64(2.0)));
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    rng: DetRng,
    windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// Creates an empty plan whose randomness derives from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rng: DetRng::new(seed).substream("fault-plan"),
            windows: Vec::new(),
        }
    }

    /// The seed this plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Adds a window. Only the relative order of loss windows, and of
    /// bit-rot windows, matters to the verdict trace; every other fault
    /// is zero-draw.
    ///
    /// # Panics
    ///
    /// Panics when a loss or bit-rot probability is not within `[0, 1]`,
    /// or a slow or throttle factor is below 1.
    pub fn window(mut self, window: FaultWindow) -> Self {
        match window.fault {
            Fault::Loss(p) => {
                assert!(
                    (0.0..=1.0).contains(&p),
                    "loss probability {p} outside [0, 1]"
                );
            }
            Fault::BitRot(p) => {
                assert!(
                    (0.0..=1.0).contains(&p),
                    "bit-rot probability {p} outside [0, 1]"
                );
            }
            Fault::Slow(f) => assert!(f >= 1.0, "fail-slow service factor {f} < 1"),
            Fault::Throttle(f) => assert!(f >= 1.0, "throttle bandwidth factor {f} < 1"),
            Fault::Blackout | Fault::Partition | Fault::Byzantine(_) => {}
        }
        self.windows.push(window);
        self
    }

    fn with(self, from: SimTime, until: SimTime, scope: FaultScope, fault: Fault) -> Self {
        self.window(FaultWindow {
            from,
            until,
            scope,
            fault,
        })
    }

    /// Adds a permanent loss window: matching messages are dropped with
    /// `probability`.
    ///
    /// # Panics
    ///
    /// Panics when `probability` is not within `[0, 1]`.
    pub fn loss(self, scope: FaultScope, probability: f64) -> Self {
        self.loss_window(scope, probability, SimTime::ZERO, SimTime::MAX)
    }

    /// Adds a loss window active during `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics when `probability` is not within `[0, 1]`.
    pub fn loss_window(
        self,
        scope: FaultScope,
        probability: f64,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.with(from, until, scope, Fault::Loss(probability))
    }

    /// Adds a permanent bit-rot window: matching messages are delivered
    /// with corrupted payload bits with `probability`.
    ///
    /// # Panics
    ///
    /// Panics when `probability` is not within `[0, 1]`.
    pub fn bitrot(self, scope: FaultScope, probability: f64) -> Self {
        self.with(
            SimTime::ZERO,
            SimTime::MAX,
            scope,
            Fault::BitRot(probability),
        )
    }

    /// Schedules a fail-slow window on everything `node` transmits: during
    /// `[from, until)` its service time is multiplied by `service_factor`
    /// ([`Fault::Slow`]). Zero-draw, so adding one leaves the verdict
    /// trace of every other window bit-identical.
    ///
    /// # Panics
    ///
    /// Panics when `service_factor < 1`.
    pub fn slow_node(
        self,
        node: NodeId,
        service_factor: f64,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.with(
            from,
            until,
            FaultScope::FromNode(node),
            Fault::Slow(service_factor),
        )
    }

    /// Schedules a congested-link window: during `[from, until)` matching
    /// messages see their link's effective bandwidth divided by
    /// `bandwidth_factor` ([`Fault::Throttle`]). Zero-draw, like
    /// [`FaultPlan::slow_node`].
    ///
    /// # Panics
    ///
    /// Panics when `bandwidth_factor < 1`.
    pub fn throttle(
        self,
        scope: FaultScope,
        bandwidth_factor: f64,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.with(from, until, scope, Fault::Throttle(bandwidth_factor))
    }

    /// Schedules a symmetric partition between sites `a` and `b` from
    /// `from` until it heals at `heal_at`. All messages between the two
    /// sites are dropped during the window.
    pub fn partition(self, a: SiteId, b: SiteId, from: SimTime, heal_at: SimTime) -> Self {
        self.with(from, heal_at, FaultScope::SitePair(a, b), Fault::Partition)
    }

    /// Schedules a blackout: during `[from, until)` every message matching
    /// `scope` is dropped unconditionally. This is the disaster form of
    /// loss — a cloud-uplink cut (`FaultScope::Site(cloud)`) or a severed
    /// link — and, unlike a probability-1.0 loss window, it consumes **no**
    /// RNG draws, so adding one leaves every other window's verdict trace
    /// bit-identical.
    pub fn blackout(self, scope: FaultScope, from: SimTime, until: SimTime) -> Self {
        self.with(from, until, scope, Fault::Blackout)
    }

    /// Schedules a Byzantine window: during `[from, until)` the given
    /// node exhibits `fault` (see [`ByzantineFault`]). The network keeps
    /// delivering the liar's frames verbatim and never draws for it; the
    /// cluster driver consults the oracles below to decide what the
    /// compromised node fabricates.
    pub fn byzantine(
        self,
        node: NodeId,
        fault: ByzantineFault,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.with(
            from,
            until,
            FaultScope::FromNode(node),
            Fault::Byzantine(fault),
        )
    }

    /// The service-time stretch factors for one message, `(slow,
    /// bandwidth)`: the products of every matching [`Fault::Slow`] and
    /// [`Fault::Throttle`] window at `now` (1.0 when none match). The
    /// network charges them on the sender's uplink before judging the
    /// message, so a slow node's backlog grows as a fail-slow disk or
    /// congested NIC would make it grow: a fail-slow node stretches its
    /// whole service leg, a congested link only its serialization.
    ///
    /// Zero RNG draws: the query never perturbs the plan's verdict trace.
    pub fn service_factors(
        &self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        src_site: SiteId,
        dst_site: SiteId,
    ) -> (f64, f64) {
        let mut factors = (1.0f64, 1.0f64);
        let hit = |w: &&FaultWindow| w.hits(now, src, dst, src_site, dst_site);
        for w in self.windows.iter().filter(hit) {
            match w.fault {
                Fault::Slow(f) => factors.0 *= f,
                Fault::Throttle(f) => factors.1 *= f,
                Fault::Loss(_)
                | Fault::BitRot(_)
                | Fault::Blackout
                | Fault::Partition
                | Fault::Byzantine(_) => {}
            }
        }
        factors
    }

    /// True when a fail-slow window on everything `node` sends is open at
    /// `t` — the oracle tests and replica-steering heuristics use to ask
    /// "is this node gray right now?".
    pub fn is_slow_at(&self, node: NodeId, t: SimTime) -> bool {
        self.windows.iter().any(|w| {
            w.open_at(t)
                && w.scope == FaultScope::FromNode(node)
                && matches!(w.fault, Fault::Slow(_))
        })
    }

    /// True when an open blackout window covers a message from `src` to
    /// `dst` at `t` — the oracle mitigations use to ask "is the uplink to
    /// this destination cut right now?".
    pub fn blacked_out(
        &self,
        src: NodeId,
        dst: NodeId,
        src_site: SiteId,
        dst_site: SiteId,
        t: SimTime,
    ) -> bool {
        self.windows
            .iter()
            .any(|w| w.hits(t, src, dst, src_site, dst_site) && w.fault == Fault::Blackout)
    }

    /// True when an open partition separates the two sites at `t`.
    pub fn partitioned(&self, a: SiteId, b: SiteId, t: SimTime) -> bool {
        self.windows.iter().any(|w| {
            w.open_at(t)
                && w.fault == Fault::Partition
                && matches!(w.scope, FaultScope::SitePair(x, y) if (x, y) == (a, b) || (x, y) == (b, a))
        })
    }

    fn acts(&self, node: NodeId, fault: ByzantineFault, t: SimTime) -> bool {
        self.windows.iter().any(|w| {
            w.open_at(t)
                && w.scope == FaultScope::FromNode(node)
                && matches!(w.fault, Fault::Byzantine(f) if f == fault || f == ByzantineFault::All)
        })
    }

    /// True when `node` fabricates positive dedup sightings at `t`.
    pub fn lies_on_lookup_at(&self, node: NodeId, t: SimTime) -> bool {
        self.acts(node, ByzantineFault::LieOnLookup, t)
    }

    /// True when `node` serves garbage on repair/restore fetches at `t`.
    pub fn serves_garbage_at(&self, node: NodeId, t: SimTime) -> bool {
        self.acts(node, ByzantineFault::ServeGarbage, t)
    }

    /// True when `node` equivocates anti-entropy summaries at `t`.
    pub fn equivocates_at(&self, node: NodeId, t: SimTime) -> bool {
        self.acts(node, ByzantineFault::EquivocateSummary, t)
    }

    /// True when `node` floods peers with bogus hints at `t`.
    pub fn hint_floods_at(&self, node: NodeId, t: SimTime) -> bool {
        self.acts(node, ByzantineFault::HintFlood, t)
    }

    /// Every node with at least one Byzantine window, in any window —
    /// sorted and deduplicated. Sweep tests use this to assert that
    /// every injected liar was eventually quarantined.
    pub fn byzantine_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self
            .windows
            .iter()
            .filter(|w| matches!(w.fault, Fault::Byzantine(_)))
            .filter_map(|w| match w.scope {
                FaultScope::FromNode(n) => Some(n),
                FaultScope::All
                | FaultScope::SitePair(..)
                | FaultScope::Site(_)
                | FaultScope::Link(..)
                | FaultScope::ToNode(_) => None,
            })
            .collect();
        nodes.sort();
        nodes.dedup();
        nodes
    }

    /// Judges one message: called by
    /// [`Network::send`](crate::Network::send) for every non-loopback
    /// message, in simulation order. Draws from the plan's RNG only for
    /// matching loss and bit-rot windows — every loss draw before any rot
    /// draw — so the verdict sequence is a pure function of (seed, plan,
    /// message sequence).
    pub fn judge(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        src_site: SiteId,
        dst_site: SiteId,
    ) -> FaultOutcome {
        let hit = |w: &&FaultWindow| w.hits(now, src, dst, src_site, dst_site);
        if self
            .windows
            .iter()
            .filter(hit)
            .any(|w| matches!(w.fault, Fault::Blackout | Fault::Partition))
        {
            return FaultOutcome::Drop;
        }
        for w in self.windows.iter().filter(hit) {
            if let Fault::Loss(p) = w.fault {
                if self.rng.unit() < p {
                    return FaultOutcome::Drop;
                }
            }
        }
        // Rot draws come after every loss draw, whatever the registration
        // order, so plans without rot windows keep their loss trace.
        for w in self.windows.iter().filter(hit) {
            if let Fault::BitRot(p) = w.fault {
                if self.rng.unit() < p {
                    return FaultOutcome::DeliverCorrupt;
                }
            }
        }
        FaultOutcome::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn judge_all(plan: &mut FaultPlan, n: usize, t: SimTime) -> Vec<FaultOutcome> {
        (0..n)
            .map(|_| plan.judge(t, NodeId(0), NodeId(2), SiteId(0), SiteId(1)))
            .collect()
    }

    #[test]
    fn no_rules_always_delivers_clean() {
        let mut plan = FaultPlan::new(1);
        for o in judge_all(&mut plan, 100, SimTime::ZERO) {
            assert_eq!(o, FaultOutcome::Deliver);
        }
    }

    #[test]
    fn loss_is_seeded_and_replays() {
        let verdicts = |seed| {
            let mut plan = FaultPlan::new(seed).loss(FaultScope::All, 0.5);
            judge_all(&mut plan, 200, SimTime::ZERO)
        };
        assert_eq!(verdicts(7), verdicts(7), "same seed must replay");
        assert_ne!(verdicts(7), verdicts(8), "different seeds must differ");
        let mut plan = FaultPlan::new(7).loss(FaultScope::All, 0.5);
        let n_drop = judge_all(&mut plan, 400, SimTime::ZERO)
            .iter()
            .filter(|o| **o == FaultOutcome::Drop)
            .count();
        assert!((120..=280).contains(&n_drop), "drop count {n_drop}");
    }

    #[test]
    fn partition_window_drops_then_heals() {
        let mut plan = FaultPlan::new(3).partition(
            SiteId(0),
            SiteId(1),
            SimTime::from_secs_f64(1.0),
            SimTime::from_secs_f64(2.0),
        );
        let before = SimTime::ZERO;
        let during = SimTime::from_secs_f64(1.5);
        let healed = SimTime::from_secs_f64(2.0);
        assert_eq!(judge_all(&mut plan, 1, before)[0], FaultOutcome::Deliver);
        assert_eq!(judge_all(&mut plan, 1, during)[0], FaultOutcome::Drop);
        // Symmetric: reverse direction also dropped.
        assert!(plan.partitioned(SiteId(1), SiteId(0), during));
        assert!(!plan.partitioned(SiteId(0), SiteId(2), during));
        // Heal time is exclusive: at exactly `heal_at` traffic flows again.
        assert_eq!(judge_all(&mut plan, 1, healed)[0], FaultOutcome::Deliver);
    }

    #[test]
    fn scopes_select_the_right_traffic() {
        let src = NodeId(0);
        let dst = NodeId(2);
        let (ss, ds) = (SiteId(0), SiteId(1));
        let hit = |scope: FaultScope| scope.matches(src, dst, ss, ds);
        assert!(hit(FaultScope::All));
        assert!(hit(FaultScope::SitePair(ds, ss)));
        assert!(!hit(FaultScope::SitePair(ss, SiteId(9))));
        assert!(hit(FaultScope::Site(ss)));
        assert!(!hit(FaultScope::Site(SiteId(9))));
        assert!(hit(FaultScope::Link(src, dst)));
        assert!(!hit(FaultScope::Link(dst, src)));
        assert!(hit(FaultScope::FromNode(src)));
        assert!(!hit(FaultScope::FromNode(dst)));
        assert!(hit(FaultScope::ToNode(dst)));
        assert!(!hit(FaultScope::ToNode(src)));
    }

    #[test]
    fn bitrot_corrupts_seeded_fraction_without_dropping() {
        let verdicts = |seed| {
            let mut plan = FaultPlan::new(seed).bitrot(FaultScope::All, 0.25);
            judge_all(&mut plan, 200, SimTime::ZERO)
        };
        assert_eq!(verdicts(7), verdicts(7), "same seed must replay");
        assert_ne!(verdicts(7), verdicts(8), "different seeds must differ");
        let mut plan = FaultPlan::new(7).bitrot(FaultScope::All, 0.25);
        let out = judge_all(&mut plan, 400, SimTime::ZERO);
        let n_rotted = out
            .iter()
            .filter(|o| **o == FaultOutcome::DeliverCorrupt)
            .count();
        assert!(out.iter().all(|o| *o != FaultOutcome::Drop));
        assert!((50..=160).contains(&n_rotted), "rot count {n_rotted}");
    }

    #[test]
    fn bitrot_window_scopes_in_time() {
        let mut plan = FaultPlan::new(9).window(FaultWindow {
            from: SimTime::from_secs_f64(1.0),
            until: SimTime::from_secs_f64(2.0),
            scope: FaultScope::All,
            fault: Fault::BitRot(1.0),
        });
        assert_eq!(
            judge_all(&mut plan, 1, SimTime::ZERO)[0],
            FaultOutcome::Deliver
        );
        assert_eq!(
            judge_all(&mut plan, 1, SimTime::from_secs_f64(1.5))[0],
            FaultOutcome::DeliverCorrupt
        );
        assert_eq!(
            judge_all(&mut plan, 1, SimTime::from_secs_f64(2.0))[0],
            FaultOutcome::Deliver
        );
    }

    #[test]
    fn bitrot_rules_leave_clean_plan_traces_untouched() {
        // A loss plan must produce the same verdicts whether or not a
        // (never-matching) bit-rot window exists: rot draws come after
        // every loss draw and only for matching windows.
        let base = |seed| {
            let mut plan = FaultPlan::new(seed).loss(FaultScope::All, 0.3);
            judge_all(&mut plan, 100, SimTime::ZERO)
        };
        let with_rot = |seed| {
            let mut plan = FaultPlan::new(seed)
                .loss(FaultScope::All, 0.3)
                .bitrot(FaultScope::ToNode(NodeId(99)), 1.0);
            judge_all(&mut plan, 100, SimTime::ZERO)
        };
        assert_eq!(base(21), with_rot(21));
    }

    #[test]
    fn rot_draws_follow_every_loss_draw_whatever_the_registration_order() {
        let loss_first = FaultPlan::new(5)
            .loss(FaultScope::All, 0.3)
            .bitrot(FaultScope::All, 0.3)
            .loss(FaultScope::Site(SiteId(1)), 0.2);
        let rot_first = FaultPlan::new(5)
            .bitrot(FaultScope::All, 0.3)
            .loss(FaultScope::All, 0.3)
            .loss(FaultScope::Site(SiteId(1)), 0.2);
        let a = judge_all(&mut loss_first.clone(), 300, SimTime::ZERO);
        assert_eq!(a, judge_all(&mut rot_first.clone(), 300, SimTime::ZERO));
        assert!(a.contains(&FaultOutcome::Drop) && a.contains(&FaultOutcome::DeliverCorrupt));
    }

    #[test]
    fn slow_and_throttle_factors_compose_in_window() {
        let plan = FaultPlan::new(13)
            .slow_node(NodeId(0), 3.0, SimTime::ZERO, SimTime::from_secs_f64(10.0))
            .throttle(
                FaultScope::SitePair(SiteId(0), SiteId(1)),
                2.0,
                SimTime::ZERO,
                SimTime::from_secs_f64(10.0),
            )
            .slow_node(NodeId(0), 1.5, SimTime::ZERO, SimTime::from_secs_f64(5.0));
        let factors = |t, src, dst, ss, ds| plan.service_factors(t, src, dst, ss, ds);
        let f = factors(SimTime::ZERO, NodeId(0), NodeId(2), SiteId(0), SiteId(1));
        assert_eq!(f, (4.5, 2.0), "factors of one kind multiply");
        // Outside the windows: clean.
        let t = SimTime::from_secs_f64(10.0);
        assert_eq!(
            factors(t, NodeId(0), NodeId(2), SiteId(0), SiteId(1)),
            (1.0, 1.0)
        );
        // Wrong direction for the FromNode slow window: only the throttle.
        let f = factors(SimTime::ZERO, NodeId(2), NodeId(0), SiteId(1), SiteId(0));
        assert_eq!(f, (1.0, 2.0));
        assert!(plan.is_slow_at(NodeId(0), SimTime::ZERO));
        assert!(!plan.is_slow_at(NodeId(2), SimTime::ZERO));
        assert!(!plan.is_slow_at(NodeId(0), SimTime::from_secs_f64(10.0)));
    }

    #[test]
    fn slow_rules_leave_clean_plan_traces_untouched() {
        // Fail-slow and throttle windows are zero-draw: interleaving
        // service-factor queries with judged traffic must not perturb the
        // verdict trace of a probabilistic plan.
        let base = |seed| {
            let mut plan = FaultPlan::new(seed).loss(FaultScope::All, 0.3);
            judge_all(&mut plan, 100, SimTime::ZERO)
        };
        let with_slow = |seed| {
            let mut plan = FaultPlan::new(seed)
                .loss(FaultScope::All, 0.3)
                .slow_node(NodeId(0), 4.0, SimTime::ZERO, SimTime::MAX)
                .throttle(FaultScope::All, 2.0, SimTime::ZERO, SimTime::MAX);
            (0..100)
                .map(|_| {
                    // A matching query between every judged message.
                    plan.service_factors(SimTime::ZERO, NodeId(0), NodeId(2), SiteId(0), SiteId(1));
                    plan.judge(SimTime::ZERO, NodeId(0), NodeId(2), SiteId(0), SiteId(1))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(base(21), with_slow(21));
    }

    #[test]
    fn blackout_window_drops_unconditionally_then_heals() {
        let mut plan = FaultPlan::new(17).blackout(
            FaultScope::Site(SiteId(1)),
            SimTime::from_secs_f64(1.0),
            SimTime::from_secs_f64(2.0),
        );
        let during = SimTime::from_secs_f64(1.5);
        assert_eq!(
            judge_all(&mut plan, 1, SimTime::ZERO)[0],
            FaultOutcome::Deliver
        );
        for o in judge_all(&mut plan, 20, during) {
            assert_eq!(o, FaultOutcome::Drop);
        }
        assert!(plan.blacked_out(NodeId(0), NodeId(2), SiteId(0), SiteId(1), during));
        // Heal time is exclusive, like partitions.
        assert_eq!(
            judge_all(&mut plan, 1, SimTime::from_secs_f64(2.0))[0],
            FaultOutcome::Deliver
        );
        // Traffic not touching the blacked-out site is unaffected.
        assert!(!plan.blacked_out(NodeId(0), NodeId(1), SiteId(0), SiteId(0), during));
    }

    #[test]
    fn blackout_rules_leave_clean_plan_traces_untouched() {
        // Blackouts are zero-draw: a plan with probabilistic windows must
        // produce the same verdicts whether or not a (never-matching)
        // blackout exists — unlike a probability-1.0 loss window, which
        // would consume one draw per message.
        let base = |seed| {
            let mut plan = FaultPlan::new(seed).loss(FaultScope::All, 0.3);
            judge_all(&mut plan, 100, SimTime::ZERO)
        };
        let with_blackout = |seed| {
            let mut plan = FaultPlan::new(seed).loss(FaultScope::All, 0.3).blackout(
                FaultScope::Site(SiteId(9)),
                SimTime::ZERO,
                SimTime::MAX,
            );
            judge_all(&mut plan, 100, SimTime::ZERO)
        };
        assert_eq!(base(21), with_blackout(21));
    }

    #[test]
    fn byzantine_windows_scope_in_time_and_by_behavior() {
        let liar = NodeId(1);
        let honest = NodeId(2);
        let from = SimTime::from_secs_f64(1.0);
        let until = SimTime::from_secs_f64(2.0);
        let plan = FaultPlan::new(19)
            .byzantine(liar, ByzantineFault::LieOnLookup, from, until)
            .byzantine(liar, ByzantineFault::ServeGarbage, from, until)
            .byzantine(liar, ByzantineFault::EquivocateSummary, from, until)
            .byzantine(liar, ByzantineFault::HintFlood, from, until);
        let mid = SimTime::from_secs_f64(1.5);
        assert!(plan.lies_on_lookup_at(liar, mid));
        assert!(plan.serves_garbage_at(liar, mid));
        assert!(plan.equivocates_at(liar, mid));
        assert!(plan.hint_floods_at(liar, mid));
        // Half-open window: active at `from`, healed at `until`.
        assert!(plan.lies_on_lookup_at(liar, from));
        assert!(!plan.lies_on_lookup_at(liar, until));
        assert!(!plan.lies_on_lookup_at(liar, SimTime::ZERO));
        // An honest node never matches, and behaviors don't bleed: a
        // lookup liar without a garbage window serves honest bytes.
        assert!(!plan.lies_on_lookup_at(honest, mid));
        let lookup_only =
            FaultPlan::new(20).byzantine(liar, ByzantineFault::LieOnLookup, from, until);
        assert!(lookup_only.lies_on_lookup_at(liar, mid));
        assert!(!lookup_only.serves_garbage_at(liar, mid));
        assert_eq!(plan.byzantine_nodes(), vec![liar]);
        assert!(lookup_only.byzantine_nodes().contains(&liar));
        // One `All` window is the four behaviors at once.
        let composed = FaultPlan::new(21).byzantine(liar, ByzantineFault::All, from, until);
        assert!(composed.lies_on_lookup_at(liar, mid));
        assert!(composed.serves_garbage_at(liar, mid));
        assert!(composed.equivocates_at(liar, mid));
        assert!(composed.hint_floods_at(liar, mid));
        assert!(!composed.hint_floods_at(liar, until));
        assert_eq!(composed.byzantine_nodes(), vec![liar]);
    }

    #[test]
    fn byzantine_rules_leave_clean_plan_traces_untouched() {
        // Byzantine windows are pure oracles: the network neither drops
        // nor rewrites the liar's frames, so a plan with probabilistic
        // windows must produce the same verdicts whether or not Byzantine
        // windows exist — even with oracle queries interleaved between
        // messages.
        let base = |seed| {
            let mut plan = FaultPlan::new(seed).loss(FaultScope::All, 0.3);
            judge_all(&mut plan, 100, SimTime::ZERO)
        };
        let with_byzantine = |seed| {
            let mut plan = FaultPlan::new(seed)
                .loss(FaultScope::All, 0.3)
                .byzantine(
                    NodeId(0),
                    ByzantineFault::LieOnLookup,
                    SimTime::ZERO,
                    SimTime::MAX,
                )
                .byzantine(NodeId(0), ByzantineFault::All, SimTime::ZERO, SimTime::MAX);
            (0..100)
                .map(|_| {
                    // Oracle queries between every judged message.
                    plan.lies_on_lookup_at(NodeId(0), SimTime::ZERO);
                    plan.equivocates_at(NodeId(0), SimTime::ZERO);
                    plan.judge(SimTime::ZERO, NodeId(0), NodeId(2), SiteId(0), SiteId(1))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(base(21), with_byzantine(21));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rejects_bad_probability() {
        FaultPlan::new(0).loss(FaultScope::All, 1.5);
    }

    #[test]
    #[should_panic(expected = "service factor")]
    fn rejects_speedup_slow_rule() {
        FaultPlan::new(0).slow_node(NodeId(0), 0.9, SimTime::ZERO, SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "bandwidth factor")]
    fn rejects_speedup_throttle_rule() {
        FaultPlan::new(0).throttle(FaultScope::All, 0.5, SimTime::ZERO, SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "bit-rot probability")]
    fn rejects_bad_bitrot_probability() {
        FaultPlan::new(0).bitrot(FaultScope::All, -0.1);
    }
}
