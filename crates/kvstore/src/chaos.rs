//! Seeded chaos scenarios: fault schedules generated from a single seed,
//! spelled in one vocabulary.
//!
//! A [`ChaosScenario`] is a list of [`ChaosEvent`]s, each either a
//! [`FaultWindow`] for the network's [`FaultPlan`] (partitions, loss
//! bursts, slow nodes, congestion, capped uplinks, Byzantine liars) or a
//! [`ClusterFault`] for [`SimCluster::inject`] (crash/revive,
//! crash-stop/restart, departure, storage rot and stalls, cloud and ring
//! outages). It bridges those two fault primitives and repeatable
//! experiments: everything is derived from the scenario seed through
//! [`DetRng`] substreams, so a run with the same seed replays
//! bit-identically. [`crate::sweep`] runs scenarios against
//! a cluster and holds the invariants (zero false duplicates, every op
//! resolves) that this module's sweep and every other fault family
//! answer to.

use crate::msg::OpId;
use crate::sim::SimCluster;
use ef_netsim::{
    ByzantineFault, Fault, FaultPlan, FaultScope, FaultWindow, Network, NodeId, SiteId, Topology,
};
use ef_simcore::{DetRng, SimDuration, SimTime};

/// Knobs for [`ChaosScenario::generate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosScenarioConfig {
    /// The window faults are scheduled within; ops submitted inside it
    /// experience the scenario.
    pub duration: SimDuration,
    /// Crash/revive pairs to schedule.
    pub crashes: usize,
    /// Site-pair partitions (with heal times) to schedule.
    pub partitions: usize,
    /// Bursty loss windows to schedule.
    pub loss_bursts: usize,
    /// Crash-stop/restart pairs to schedule: the victim loses all
    /// volatile state and recovers from its WAL on restart (unlike
    /// [`ChaosScenarioConfig::crashes`], which keep state and merely drop
    /// messages while down).
    pub crash_stops: usize,
    /// Permanent departures to schedule: the victim never comes back,
    /// its disk is destroyed, and the ring is rebuilt once peers declare
    /// it dead.
    pub departures: usize,
    /// Background loss probability applied to all links for the whole
    /// run (0 disables).
    pub base_loss: f64,
    /// Upper bound for each burst's loss probability.
    pub max_burst_loss: f64,
    /// Seeded at-rest bit-rot strikes to schedule: each flips a handful
    /// of bits in the victim's storage-engine values or durable WAL
    /// bytes (see [`ClusterFault::StorageRot`]).
    pub storage_rots: usize,
    /// Per-message wire bit-rot probability applied to all links for the
    /// whole run (0 disables). Corrupted frames fail their checksum at
    /// the receiver and are rejected, never silently accepted.
    pub wire_rot: f64,
    /// Fail-slow (gray-failure) windows to schedule: each picks an edge
    /// node whose outbound service rate is divided by a drawn factor for
    /// the window — the node stays up and answers, just slowly.
    pub slow_nodes: usize,
    /// Fail-slow storage windows to schedule: each picks an edge node
    /// whose WAL fsyncs and snapshot writes stall by a drawn factor for
    /// the window, delaying its replies without dropping anything.
    pub storage_stalls: usize,
    /// Congested-link windows to schedule: each picks a distinct edge
    /// site pair whose effective bandwidth is divided by a drawn factor
    /// (skipped when the topology has fewer than two edge sites).
    pub congestions: usize,
    /// Upper bound for every fail-slow factor draw (service, stall, and
    /// bandwidth); factors land in `[1, max_slow_factor]`.
    pub max_slow_factor: f64,
    /// Cloud-outage windows to schedule: each blacks out every link
    /// touching a cloud site for a window drawn early in the run, so
    /// spooled uniques get to drain before any later ring disaster
    /// (skipped drawlessly when the topology has no cloud site).
    pub cloud_outages: usize,
    /// Ring-outage windows to schedule: each wipes every node in one
    /// edge site — volatile state, disks, and spools — for a window
    /// drawn late in the run, forcing mesh repair from neighbor rings
    /// on heal (skipped when fewer than two edge sites exist).
    pub ring_outages: usize,
    /// Degraded-uplink windows to schedule: each caps the effective
    /// bandwidth of every link touching a cloud site by a drawn factor
    /// (skipped drawlessly when the topology has no cloud site).
    pub uplink_degrades: usize,
    /// Byzantine liars to schedule: each picks a distinct edge node
    /// that, for a window spanning most of the run, answers lookups
    /// with false positive sightings, serves garbage bytes on repair
    /// and restore fetches, equivocates during Merkle anti-entropy,
    /// and floods bogus hints. The count is clamped to a strict
    /// minority of the membership so honest quorums survive.
    pub byzantine_liars: usize,
}

impl Default for ChaosScenarioConfig {
    /// A moderately hostile default: 10 s window, two crashes, one
    /// partition, two loss bursts (≤ 40%), 5% background loss, and no
    /// crash-stops or departures (opt in per scenario).
    fn default() -> Self {
        ChaosScenarioConfig {
            duration: SimDuration::from_secs_f64(10.0),
            crashes: 2,
            partitions: 1,
            loss_bursts: 2,
            crash_stops: 0,
            departures: 0,
            base_loss: 0.05,
            max_burst_loss: 0.4,
            storage_rots: 0,
            wire_rot: 0.0,
            slow_nodes: 0,
            storage_stalls: 0,
            congestions: 0,
            max_slow_factor: 4.0,
            cloud_outages: 0,
            ring_outages: 0,
            uplink_degrades: 0,
            byzantine_liars: 0,
        }
    }
}

/// One fault the cluster itself acts on: a node's process or disk, or a
/// whole site's ring or uplink. [`SimCluster::inject`] schedules it;
/// times must not lie in the simulated past, and windows must not be
/// empty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusterFault {
    /// Crash `node` at `at`: messages to and from it are dropped until a
    /// [`ClusterFault::Revive`], but it keeps its volatile state — a
    /// network-level silence, not a process death. Peers notice only
    /// with heartbeats armed.
    Crash {
        /// When the crash happens.
        at: SimTime,
        /// The crashed node.
        node: NodeId,
    },
    /// Revive a crashed `node` at `at` (a crash-*stopped* node needs
    /// [`ClusterFault::Restart`]).
    Revive {
        /// When the node comes back.
        at: SimTime,
        /// The revived node.
        node: NodeId,
    },
    /// Crash-stop `node` at `at`: its volatile state (index shard,
    /// pending ops, hints, suspicions) is lost, in-flight ops it
    /// coordinates resolve as timed out, and only its WAL survives for a
    /// later [`ClusterFault::Restart`].
    CrashStop {
        /// When the crash-stop happens.
        at: SimTime,
        /// The crash-stopped node.
        node: NodeId,
    },
    /// Restart a crash-stopped `node` at `at`: it recovers its shard from
    /// the WAL, rejoins with the current membership view, and catches up
    /// through peer hint replay and anti-entropy.
    Restart {
        /// When the node restarts.
        at: SimTime,
        /// The restarting node.
        node: NodeId,
    },
    /// Permanently remove `node` at `at`: a crash-stop whose disk is
    /// destroyed and that never restarts. The driver confirms the
    /// departure, so peers' dead declarations escalate into
    /// re-replication and a ring rebuild (with
    /// [`SimCluster::enable_heartbeats_with_dead`] armed).
    Depart {
        /// When the node departs.
        at: SimTime,
        /// The departing node.
        node: NodeId,
    },
    /// At-rest bit rot strikes `node` at `at`: a handful of seeded bit
    /// flips across its stored values and WAL bytes (a crash-stopped
    /// victim's parked disk rots instead).
    StorageRot {
        /// When the rot strikes.
        at: SimTime,
        /// The struck node.
        node: NodeId,
        /// Seed for the flip positions.
        rot_seed: u64,
    },
    /// `node`'s storage stalls in `[from, until)`: WAL fsyncs and
    /// snapshot writes take `stall_factor` times longer, so its acks to
    /// replica writes and hint replays leave late and its scrub rounds
    /// cover proportionally fewer bytes. The node stays up and its data
    /// correct — the gray middle ground binary failure detectors cannot
    /// see.
    StorageStall {
        /// Window start.
        from: SimTime,
        /// Window end.
        until: SimTime,
        /// The stalled node.
        node: NodeId,
        /// Storage-latency multiplier, at least 1 (1 = healthy).
        stall_factor: f64,
    },
    /// Cloud site `site` is unreachable in `[from, until)`. Injected on
    /// its own it pauses spool drains for the window (uniques keep
    /// accumulating durably); the blackout of every link touching `site`
    /// is its network half, which [`ChaosScenario::rig`] installs.
    CloudOutage {
        /// Outage start.
        from: SimTime,
        /// Heal time.
        until: SimTime,
        /// The unreachable cloud site.
        site: SiteId,
    },
    /// Every node in edge site `site` is wiped in `[from, until)`:
    /// volatile state, disks, and upload spools are all destroyed, and
    /// on heal the site's nodes rejoin empty and are rebuilt from
    /// neighbor rings (mesh repair), with the cloud catalog as last
    /// resort.
    RingOutage {
        /// Disaster start.
        from: SimTime,
        /// Heal (rebuild) time.
        until: SimTime,
        /// The wiped edge site.
        site: SiteId,
    },
}

/// One scheduled fault in a scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosEvent {
    /// A fault the cluster acts on, scheduled by [`ChaosScenario::apply`].
    Cluster(ClusterFault),
    /// A fault that lives entirely in the network's [`FaultPlan`],
    /// installed there as is: a site-pair partition, a loss burst on
    /// every link, a fail-slow node, a congested edge-site pair, a
    /// bandwidth-capped cloud uplink, or a Byzantine liar
    /// ([`ByzantineFault::All`] for the window: it lies on lookups, serves
    /// garbage on repair fetches, equivocates during anti-entropy and
    /// floods bogus hints). The cluster consults the plan's oracles at
    /// dispatch and delivery time rather than scheduling anything.
    Net(FaultWindow),
}

impl ChaosEvent {
    /// The window this event adds to the scenario's [`FaultPlan`]: its
    /// own for a network fault, the uplink blackout for a cloud outage.
    fn window(&self) -> Option<FaultWindow> {
        match *self {
            ChaosEvent::Net(window) => Some(window),
            ChaosEvent::Cluster(ClusterFault::CloudOutage { from, until, site }) => {
                Some(FaultWindow {
                    from,
                    until,
                    scope: FaultScope::Site(site),
                    fault: Fault::Blackout,
                })
            }
            ChaosEvent::Cluster(_) => None,
        }
    }

    /// The fault this event hands the cluster, if any.
    fn cluster_fault(&self) -> Option<ClusterFault> {
        match *self {
            ChaosEvent::Cluster(fault) => Some(fault),
            ChaosEvent::Net(_) => None,
        }
    }
}

/// A seeded schedule of network and cluster faults: every kind
/// [`ChaosScenarioConfig`] counts, drawn from one seed.
///
/// Generate with [`ChaosScenario::generate`], attach the network half
/// with [`ChaosScenario::rig`] (before building the [`SimCluster`], so
/// the cluster auto-arms its retry policy), and the cluster half with
/// [`ChaosScenario::apply`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosScenario {
    seed: u64,
    config: ChaosScenarioConfig,
    events: Vec<ChaosEvent>,
}

impl ChaosScenario {
    /// Derives a fault schedule for `topology` from `seed`.
    ///
    /// Crashes pick edge nodes, partitions pick distinct edge-site
    /// pairs (skipped when the topology has fewer than two edge sites),
    /// and every choice comes from a seed-derived [`DetRng`] substream:
    /// the same `(seed, topology, config)` always yields the same
    /// scenario.
    pub fn generate(seed: u64, topology: &Topology, config: &ChaosScenarioConfig) -> Self {
        let mut rng = DetRng::new(seed).substream("chaos-scenario");
        let edge = topology.edge_nodes();
        let sites = topology.edge_sites();
        let dur = config.duration;
        let mut events = Vec::new();
        let pick = |rng: &mut DetRng, n: usize| ((rng.unit() * n as f64) as usize).min(n - 1);
        let net = |from, until, scope, fault| {
            ChaosEvent::Net(FaultWindow {
                from,
                until,
                scope,
                fault,
            })
        };
        let cluster = ChaosEvent::Cluster;

        for _ in 0..config.crashes {
            let node = edge[pick(&mut rng, edge.len())];
            // Crash in the first 60% of the window; stay down 5–30% of
            // it, so revival (and hint replay) happens on-screen.
            let at = SimTime::ZERO + dur * (rng.unit() * 0.6);
            let up = at + dur * (0.05 + rng.unit() * 0.25);
            events.push(cluster(ClusterFault::Crash { at, node }));
            events.push(cluster(ClusterFault::Revive { at: up, node }));
        }

        if sites.len() >= 2 {
            for _ in 0..config.partitions {
                let i = pick(&mut rng, sites.len());
                let mut j = pick(&mut rng, sites.len() - 1);
                if j >= i {
                    j += 1;
                }
                let from = SimTime::ZERO + dur * (rng.unit() * 0.6);
                let heal = from + dur * (0.05 + rng.unit() * 0.25);
                let pair = FaultScope::SitePair(sites[i], sites[j]);
                events.push(net(from, heal, pair, Fault::Partition));
            }
        }

        for _ in 0..config.loss_bursts {
            let from = SimTime::ZERO + dur * (rng.unit() * 0.7);
            let until = from + dur * (0.05 + rng.unit() * 0.2);
            let probability = config.max_burst_loss * rng.unit();
            events.push(net(from, until, FaultScope::All, Fault::Loss(probability)));
        }

        // Crash-stop and departure victims are drawn from a shrinking
        // pool of distinct nodes, so a scheduled restart never races a
        // permanent departure of the same node and at least two members
        // always survive the scenario.
        let mut pool = edge.clone();
        let crash_stops = config.crash_stops.min(pool.len().saturating_sub(1));
        for _ in 0..crash_stops {
            let node = pool.remove(pick(&mut rng, pool.len()));
            // Crash-stop in the first half; stay down 10–40% of the
            // window so WAL recovery and anti-entropy catch-up happen
            // while the workload is still running.
            let at = SimTime::ZERO + dur * (rng.unit() * 0.5);
            let up = at + dur * (0.1 + rng.unit() * 0.3);
            events.push(cluster(ClusterFault::CrashStop { at, node }));
            events.push(cluster(ClusterFault::Restart { at: up, node }));
        }
        let departures = if pool.len() >= 3 {
            config.departures.min(pool.len() - 2)
        } else {
            0
        };
        for _ in 0..departures {
            let node = pool.remove(pick(&mut rng, pool.len()));
            // Depart in the 20–60% band: late enough to own data, early
            // enough for dead-declaration and re-replication on-screen.
            let at = SimTime::ZERO + dur * (0.2 + rng.unit() * 0.4);
            events.push(cluster(ClusterFault::Depart { at, node }));
        }

        // Storage-rot draws come last, so scenarios without rot keep
        // their RNG trace — and therefore their whole schedule —
        // bit-identical to pre-rot builds. Victims may overlap other
        // faults: rotting a crash-stopped node's parked disk is exactly
        // the interesting case.
        for _ in 0..config.storage_rots {
            let node = edge[pick(&mut rng, edge.len())];
            // Strike in the 10–70% band: late enough that the victim
            // holds data, early enough for scrub detection and repair
            // on-screen.
            let at = SimTime::ZERO + dur * (0.1 + rng.unit() * 0.6);
            let rot_seed = rng.next_u64();
            events.push(cluster(ClusterFault::StorageRot { at, node, rot_seed }));
        }

        // Gray-failure draws come after every pre-existing draw (the
        // same append-only discipline as storage rot above), so turning
        // the fail-slow knobs on extends a scenario without reshuffling
        // the crash/partition/loss/rot schedule.
        let factor_span = (config.max_slow_factor - 1.0).max(0.0);
        for _ in 0..config.slow_nodes {
            let node = edge[pick(&mut rng, edge.len())];
            // Slow down in the first half and stay gray 20–60% of the
            // window: long enough for RTT estimators to adapt and for
            // hedges to fire while the workload is still running.
            let from = SimTime::ZERO + dur * (rng.unit() * 0.5);
            let until = from + dur * (0.2 + rng.unit() * 0.4);
            let service_factor = 1.0 + rng.unit() * factor_span;
            let scope = FaultScope::FromNode(node);
            events.push(net(from, until, scope, Fault::Slow(service_factor)));
        }
        for _ in 0..config.storage_stalls {
            let node = edge[pick(&mut rng, edge.len())];
            let from = SimTime::ZERO + dur * (rng.unit() * 0.5);
            let until = from + dur * (0.1 + rng.unit() * 0.3);
            let stall_factor = 1.0 + rng.unit() * factor_span;
            events.push(cluster(ClusterFault::StorageStall {
                from,
                until,
                node,
                stall_factor,
            }));
        }
        if sites.len() >= 2 {
            for _ in 0..config.congestions {
                let i = pick(&mut rng, sites.len());
                let mut j = pick(&mut rng, sites.len() - 1);
                if j >= i {
                    j += 1;
                }
                let from = SimTime::ZERO + dur * (rng.unit() * 0.6);
                let until = from + dur * (0.1 + rng.unit() * 0.3);
                let bandwidth_factor = 1.0 + rng.unit() * factor_span;
                let pair = FaultScope::SitePair(sites[i], sites[j]);
                events.push(net(from, until, pair, Fault::Throttle(bandwidth_factor)));
            }
        }

        // Disaster draws come last (append-only discipline again), so
        // turning the disaster knobs on never reshuffles the existing
        // schedule. Window bands are deliberate: cloud outages end by
        // the 50% mark and ring outages start after the 55% mark, so a
        // spool always gets a drain window before a ring wipe can
        // destroy the only surviving copy of an undrained unique.
        let clouds = topology.cloud_sites();
        if !clouds.is_empty() {
            for _ in 0..config.cloud_outages {
                let site = clouds[pick(&mut rng, clouds.len())];
                let from = SimTime::ZERO + dur * (rng.unit() * 0.35);
                let until = from + dur * (0.05 + rng.unit() * 0.10);
                events.push(cluster(ClusterFault::CloudOutage { from, until, site }));
            }
        }
        if sites.len() >= 2 {
            for _ in 0..config.ring_outages {
                let site = sites[pick(&mut rng, sites.len())];
                let from = SimTime::ZERO + dur * (0.55 + rng.unit() * 0.20);
                let until = from + dur * (0.05 + rng.unit() * 0.10);
                events.push(cluster(ClusterFault::RingOutage { from, until, site }));
            }
        }
        if !clouds.is_empty() {
            for _ in 0..config.uplink_degrades {
                let site = clouds[pick(&mut rng, clouds.len())];
                let from = SimTime::ZERO + dur * (rng.unit() * 0.6);
                let until = from + dur * (0.1 + rng.unit() * 0.3);
                let bandwidth_factor = 1.0 + rng.unit() * factor_span;
                let scope = FaultScope::Site(site);
                events.push(net(from, until, scope, Fault::Throttle(bandwidth_factor)));
            }
        }

        // Byzantine draws come last (append-only discipline again), so
        // arming liars never reshuffles the existing schedule. Liars
        // are drawn from a shrinking pool of distinct nodes and clamped
        // to a strict minority of the membership, so honest replicas
        // always outnumber lying ones and a quorum of truth survives.
        // Windows open early and close near the horizon: long enough
        // for the trust ledger to accumulate strikes and quarantine the
        // liar on-screen.
        let mut liar_pool = edge.clone();
        let tolerated = edge.len().saturating_sub(1) / 2;
        let liars = config.byzantine_liars.min(tolerated);
        for _ in 0..liars {
            let node = liar_pool.remove(pick(&mut rng, liar_pool.len()));
            let from = SimTime::ZERO + dur * (rng.unit() * 0.15);
            let until = SimTime::ZERO + dur * (0.85 + rng.unit() * 0.10);
            let liar = Fault::Byzantine(ByzantineFault::All);
            events.push(net(from, until, FaultScope::FromNode(node), liar));
        }

        ChaosScenario {
            seed,
            config: *config,
            events,
        }
    }

    /// The scheduled faults, in generation order.
    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// Builds the network half of the scenario, seeded with the scenario
    /// seed: background loss and wire bit rot, then every event's window
    /// in schedule order.
    pub fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new(self.seed);
        if self.config.base_loss > 0.0 {
            plan = plan.loss(FaultScope::All, self.config.base_loss);
        }
        if self.config.wire_rot > 0.0 {
            plan = plan.bitrot(FaultScope::All, self.config.wire_rot);
        }
        self.events
            .iter()
            .filter_map(ChaosEvent::window)
            .fold(plan, FaultPlan::window)
    }

    /// Attaches [`ChaosScenario::fault_plan`] to `network`. Call before
    /// constructing the [`SimCluster`] so it auto-arms a retry policy.
    pub fn rig(&self, network: &mut Network) {
        network.set_fault_plan(self.fault_plan());
    }

    /// Schedules the cluster half of the scenario on `cluster`: each
    /// [`ClusterFault`], in schedule order, through [`SimCluster::inject`].
    pub fn apply(&self, cluster: &mut SimCluster) {
        for fault in self.events.iter().filter_map(ChaosEvent::cluster_fault) {
            cluster.inject(fault);
        }
    }
}

/// Predicts the [`OpId`] of the `n`-th client op submitted through
/// `coordinator` (0-based), assuming all submissions use distinct times.
///
/// Coordinators assign sequence numbers in event-time order, so a test
/// that submits at strictly increasing times can map completions back to
/// the keys it submitted.
pub fn nth_op_id(coordinator: NodeId, n: u64) -> OpId {
    OpId {
        coordinator,
        seq: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{self, Family};

    /// The scenario's network windows, in schedule order.
    fn windows(s: &ChaosScenario) -> Vec<FaultWindow> {
        s.events().iter().filter_map(|e| e.window()).collect()
    }

    #[test]
    fn chaos_sweep_soundness_and_completion() {
        let family = Family::chaos();
        let mut total_timeouts = 0;
        let mut total_degraded = 0;
        let mut total_dropped = 0;
        let mut cache = crate::CacheStats::default();
        for seed in 0..family.seeds {
            let mut run = sweep::run(seed, &family);
            sweep::check(&family, &mut run);
            total_timeouts += run.cluster.timeouts();
            total_degraded += run.cluster.degraded_ops();
            total_dropped += run.cluster.network().messages_dropped();
            cache.merge(&run.cluster.cache_stats());
        }
        // The sweep must actually exercise the chaos paths, or the
        // oracle's clauses are vacuous.
        assert!(total_dropped > 0, "no message was ever dropped");
        assert!(total_timeouts > 0, "no op ever timed out");
        assert!(total_degraded > 0, "no op ever degraded");
        // Likewise the cache: soundness is only meaningful with cached
        // duplicate verdicts (and evictions) actually occurring.
        assert!(cache.hits > 0, "the fingerprint cache never hit: {cache:?}");
        assert!(
            cache.evictions > 0,
            "the tiny cache never evicted: {cache:?}"
        );
    }

    #[test]
    fn same_seed_replays_bit_identically() {
        for seed in [0u64, 7, 42] {
            sweep::assert_replays(seed, &Family::chaos());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let family = Family::chaos();
        let (a, b) = (sweep::run(1, &family), sweep::run(2, &family));
        assert_ne!(a.done, b.done, "distinct seeds produced identical traces");
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let net = Family::chaos().network();
        let cfg = ChaosScenarioConfig::default();
        let s1 = ChaosScenario::generate(9, net.topology(), &cfg);
        let s2 = ChaosScenario::generate(9, net.topology(), &cfg);
        let s3 = ChaosScenario::generate(10, net.topology(), &cfg);
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
        assert_eq!(
            s1.events().len(),
            2 * cfg.crashes
                + cfg.partitions
                + cfg.loss_bursts
                + 2 * cfg.crash_stops
                + cfg.departures
                + cfg.storage_rots
                + cfg.slow_nodes
                + cfg.storage_stalls
                + cfg.congestions
        );
    }

    #[test]
    fn storage_rot_events_are_seeded_and_wire_rot_reaches_the_plan() {
        let net = Family::chaos().network();
        let cfg = ChaosScenarioConfig {
            crashes: 0,
            partitions: 0,
            loss_bursts: 0,
            base_loss: 0.0,
            storage_rots: 2,
            wire_rot: 1.0,
            ..ChaosScenarioConfig::default()
        };
        let s = ChaosScenario::generate(4, net.topology(), &cfg);
        assert_eq!(s.events().len(), 2);
        let mut seeds = std::collections::BTreeSet::new();
        for ev in s.events() {
            let ChaosEvent::Cluster(ClusterFault::StorageRot { at, rot_seed, .. }) = *ev else {
                panic!("expected storage rot, got {ev:?}");
            };
            assert!(at > SimTime::ZERO);
            seeds.insert(rot_seed);
        }
        assert_eq!(seeds.len(), 2, "rot seeds must be distinct");
        // The wire-rot knob reaches the fault plan: with probability 1
        // every non-loopback frame is flagged corrupt (not dropped).
        let mut rigged = Family::chaos().network();
        s.rig(&mut rigged);
        let nodes = rigged.topology().edge_nodes();
        let delivery = rigged
            .send_framed(SimTime::ZERO, nodes[0], nodes[1], 64)
            .unwrap()
            .expect("bit rot corrupts, never drops");
        assert!(delivery.corrupt, "frame survived total wire rot intact");
    }

    #[test]
    fn adding_a_fault_family_leaves_the_existing_schedule_untouched() {
        // Each family's draws are appended after every pre-existing draw,
        // so turning its knobs on extends a scenario instead of
        // reshuffling it: the schedule drawn before stays bit-identical.
        let default = ChaosScenarioConfig::default();
        let rotted = ChaosScenarioConfig {
            storage_rots: 2,
            ..default
        };
        let grayed = ChaosScenarioConfig {
            storage_rots: 1,
            slow_nodes: 1,
            congestions: 1,
            ..default
        };
        let disastered = ChaosScenarioConfig {
            storage_rots: 1,
            slow_nodes: 1,
            cloud_outages: 1,
            ring_outages: 1,
            ..default
        };
        // (knobs, seed, network, base, extended, events added)
        let cases = [
            (
                "rot",
                11,
                Family::chaos().network(),
                default,
                ChaosScenarioConfig {
                    storage_rots: 3,
                    wire_rot: 0.02,
                    ..default
                },
                3,
            ),
            (
                "gray-failure",
                17,
                Family::chaos().network(),
                rotted,
                ChaosScenarioConfig {
                    slow_nodes: 2,
                    storage_stalls: 1,
                    congestions: 1,
                    max_slow_factor: 6.0,
                    ..rotted
                },
                2 + 1 + 1,
            ),
            (
                "disaster",
                23,
                Family::disaster().network(),
                grayed,
                ChaosScenarioConfig {
                    cloud_outages: 1,
                    ring_outages: 1,
                    uplink_degrades: 1,
                    ..grayed
                },
                3,
            ),
            (
                "byzantine",
                29,
                Family::disaster().network(),
                disastered,
                ChaosScenarioConfig {
                    byzantine_liars: 2,
                    ..disastered
                },
                2,
            ),
        ];
        for (knobs, seed, net, base, extended, added) in cases {
            let plain = ChaosScenario::generate(seed, net.topology(), &base);
            let more = ChaosScenario::generate(seed, net.topology(), &extended);
            assert_eq!(
                &more.events()[..plain.events().len()],
                plain.events(),
                "{knobs} knobs reshuffled the pre-existing schedule"
            );
            assert_eq!(more.events().len(), plain.events().len() + added, "{knobs}");
        }
    }

    #[test]
    fn disaster_windows_respect_their_bands_and_reach_the_plan() {
        let net = Family::disaster().network();
        let cfg = ChaosScenarioConfig {
            crashes: 0,
            partitions: 0,
            loss_bursts: 0,
            base_loss: 0.0,
            cloud_outages: 1,
            ring_outages: 1,
            uplink_degrades: 1,
            ..ChaosScenarioConfig::default()
        };
        for seed in 0..20u64 {
            let s = ChaosScenario::generate(seed, net.topology(), &cfg);
            assert_eq!(s.events().len(), 3, "seed {seed}");
            let dur = cfg.duration;
            let half = SimTime::ZERO + dur * 0.5;
            let Some(&ChaosEvent::Cluster(ClusterFault::CloudOutage { from, until, site })) = s
                .events()
                .iter()
                .find(|e| matches!(e, ChaosEvent::Cluster(ClusterFault::CloudOutage { .. })))
            else {
                panic!("seed {seed}: expected a cloud outage");
            };
            assert!(from < until && until <= half, "seed {seed}: outage band");
            assert_eq!(net.topology().site_kind(site), ef_netsim::SiteKind::Cloud);
            // The outage reaches the plan as an unconditional blackout
            // on every link touching the cloud site.
            let plan = s.fault_plan();
            let cloud = net.topology().cloud_nodes()[0];
            let edge = net.topology().edge_nodes()[0];
            let mid = from + (until - from) * 0.5;
            assert!(plan.blacked_out(edge, cloud, net.topology().site_of(edge), site, mid));
            assert!(!plan.blacked_out(edge, cloud, net.topology().site_of(edge), site, until));
            let Some(&ChaosEvent::Cluster(ClusterFault::RingOutage {
                from: r_from,
                until: r_until,
                site: r_site,
            })) = s
                .events()
                .iter()
                .find(|e| matches!(e, ChaosEvent::Cluster(ClusterFault::RingOutage { .. })))
            else {
                panic!("seed {seed}: expected a ring outage");
            };
            // Ring wipes start strictly after every cloud outage has
            // healed, so an undrained spool always gets a drain window
            // before the disaster that could destroy its last copy.
            assert!(r_from >= half, "seed {seed}: ring outage too early");
            assert!(r_from < r_until && r_until < SimTime::ZERO + dur);
            assert_eq!(net.topology().site_kind(r_site), ef_netsim::SiteKind::Edge);
            let Some(FaultWindow {
                from: u_from,
                until: u_until,
                scope: FaultScope::Site(u_site),
                fault: Fault::Throttle(bandwidth_factor),
            }) = windows(&s)
                .into_iter()
                .find(|w| matches!(w.fault, Fault::Throttle(_)))
            else {
                panic!("seed {seed}: expected a degraded uplink");
            };
            assert!(u_from < u_until);
            assert!((1.0..=cfg.max_slow_factor).contains(&bandwidth_factor));
            // The cap reaches the plan as a throttle on the cloud site.
            let u_mid = u_from + (u_until - u_from) * 0.5;
            let (slow, bandwidth) =
                plan.service_factors(u_mid, edge, cloud, net.topology().site_of(edge), u_site);
            let got = slow * bandwidth;
            assert!(
                got >= bandwidth_factor - 1e-12,
                "seed {seed}: throttle factor {bandwidth_factor} not applied: {got}"
            );
        }
    }

    #[test]
    fn byzantine_liars_are_a_bounded_minority_and_reach_the_plan() {
        let net = Family::chaos().network();
        let cfg = ChaosScenarioConfig {
            crashes: 0,
            partitions: 0,
            loss_bursts: 0,
            base_loss: 0.0,
            // Ask for far more liars than tolerable: the clamp must
            // keep a strict majority of the six edge nodes honest.
            byzantine_liars: 6,
            ..ChaosScenarioConfig::default()
        };
        for seed in 0..20u64 {
            let s = ChaosScenario::generate(seed, net.topology(), &cfg);
            let edge = net.topology().edge_nodes();
            assert_eq!(s.events().len(), (edge.len() - 1) / 2, "seed {seed}");
            let mut liars = std::collections::BTreeSet::new();
            let dur = cfg.duration;
            for ev in s.events() {
                let ChaosEvent::Net(FaultWindow {
                    from,
                    until,
                    scope: FaultScope::FromNode(node),
                    fault: Fault::Byzantine(ByzantineFault::All),
                }) = *ev
                else {
                    panic!("seed {seed}: expected a liar, got {ev:?}");
                };
                assert!(liars.insert(node), "seed {seed}: liar {node} reused");
                // Windows open in the first 15% and close in the
                // 85–95% band, so quarantine convergence is on-screen.
                assert!(from < SimTime::ZERO + dur * 0.15, "seed {seed}");
                assert!(until >= SimTime::ZERO + dur * 0.85, "seed {seed}");
                assert!(until < SimTime::ZERO + dur, "seed {seed}");
                // The liar event arms all four behaviors in the plan.
                let plan = s.fault_plan();
                let mid = from + (until - from) * 0.5;
                assert!(plan.lies_on_lookup_at(node, mid), "seed {seed}");
                assert!(plan.serves_garbage_at(node, mid), "seed {seed}");
                assert!(plan.equivocates_at(node, mid), "seed {seed}");
                assert!(plan.hint_floods_at(node, mid), "seed {seed}");
                assert!(!plan.lies_on_lookup_at(node, until), "seed {seed}");
            }
            assert!(2 * liars.len() < edge.len(), "seed {seed}: liar majority");
        }
    }

    #[test]
    fn cloud_disasters_skip_drawlessly_without_a_cloud_site() {
        // On a cloud-less topology the cloud-outage and uplink knobs
        // must not consume randomness, or enabling them would reshuffle
        // the ring-outage draws that follow.
        let net = Family::chaos().network();
        let base = ChaosScenarioConfig {
            ring_outages: 1,
            ..ChaosScenarioConfig::default()
        };
        let with_cloud_knobs = ChaosScenarioConfig {
            cloud_outages: 3,
            uplink_degrades: 2,
            ..base
        };
        let a = ChaosScenario::generate(31, net.topology(), &base);
        let b = ChaosScenario::generate(31, net.topology(), &with_cloud_knobs);
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn slow_events_reach_the_fault_plan() {
        let net = Family::chaos().network();
        let cfg = ChaosScenarioConfig {
            crashes: 0,
            partitions: 0,
            loss_bursts: 0,
            base_loss: 0.0,
            slow_nodes: 1,
            congestions: 1,
            storage_stalls: 1,
            max_slow_factor: 6.0,
            ..ChaosScenarioConfig::default()
        };
        let s = ChaosScenario::generate(8, net.topology(), &cfg);
        assert_eq!(s.events().len(), 3);
        let Some(FaultWindow {
            from,
            until,
            scope: FaultScope::FromNode(node),
            fault: Fault::Slow(service_factor),
        }) = windows(&s)
            .into_iter()
            .find(|w| matches!(w.fault, Fault::Slow(_)))
        else {
            panic!("expected a slow-node event");
        };
        assert!(from < until);
        assert!((1.0..=cfg.max_slow_factor).contains(&service_factor));
        let plan = s.fault_plan();
        // The slow window is visible to the gray-node oracle for its
        // whole duration and nowhere outside it.
        let mid = from + (until - from) * 0.5;
        assert!(plan.is_slow_at(node, mid));
        assert!(!plan.is_slow_at(node, until));
        let Some(FaultWindow {
            from: c_from,
            scope: FaultScope::SitePair(a, b),
            fault: Fault::Throttle(bandwidth_factor),
            ..
        }) = windows(&s)
            .into_iter()
            .find(|w| matches!(w.fault, Fault::Throttle(_)))
        else {
            panic!("expected a congestion event");
        };
        assert_ne!(a, b, "congestion must pick distinct sites");
        assert!((1.0..=cfg.max_slow_factor).contains(&bandwidth_factor));
        // The throttle reaches the plan: a message between the congested
        // sites during the window sees a stretched service factor.
        let nodes = net.topology().edge_nodes();
        let (slow, bandwidth) = plan.service_factors(c_from, nodes[0], nodes[1], a, b);
        let got = slow * bandwidth;
        assert!(
            (got - bandwidth_factor).abs() < 1e-12 || got > bandwidth_factor,
            "throttle factor {bandwidth_factor} not applied: {got}"
        );
    }

    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "any event besides a crash-stop, departure or restart fails the test"
    )]
    #[test]
    fn crash_stops_and_departures_pick_distinct_victims() {
        let net = Family::chaos().network();
        let cfg = ChaosScenarioConfig {
            crashes: 0,
            partitions: 0,
            loss_bursts: 0,
            crash_stops: 2,
            departures: 1,
            ..ChaosScenarioConfig::default()
        };
        for seed in 0..20u64 {
            let s = ChaosScenario::generate(seed, net.topology(), &cfg);
            assert_eq!(s.events().len(), 2 * cfg.crash_stops + cfg.departures);
            let mut victims = std::collections::BTreeSet::new();
            for ev in s.events() {
                match *ev {
                    ChaosEvent::Cluster(
                        ClusterFault::CrashStop { node, .. } | ClusterFault::Depart { node, .. },
                    ) => {
                        assert!(victims.insert(node), "seed {seed}: victim {node} reused");
                    }
                    ChaosEvent::Cluster(ClusterFault::Restart { at, node }) => {
                        assert!(victims.contains(&node), "seed {seed}: restart of {node}");
                        assert!(at > SimTime::ZERO);
                    }
                    ref other => panic!("seed {seed}: unexpected event {other:?}"),
                }
            }
            // Six edge nodes, two crash-stopped (they come back), one
            // departed: at least two members never faulted at all.
            assert!(victims.len() <= 3);
        }
    }

    #[test]
    fn fault_plan_reflects_partitions() {
        let net = Family::chaos().network();
        let cfg = ChaosScenarioConfig {
            partitions: 1,
            crashes: 0,
            loss_bursts: 0,
            ..ChaosScenarioConfig::default()
        };
        let s = ChaosScenario::generate(3, net.topology(), &cfg);
        let Some(ChaosEvent::Net(FaultWindow {
            from,
            scope: FaultScope::SitePair(a, b),
            fault: Fault::Partition,
            ..
        })) = s.events().first().copied()
        else {
            panic!("expected a partition event");
        };
        let plan = s.fault_plan();
        assert!(plan.partitioned(a, b, from));
    }
}
