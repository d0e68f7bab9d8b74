//! `SimCluster`: the node state machines driven through the discrete-event
//! engine with `ef-netsim` delays.
//!
//! Where [`LocalCluster`](crate::LocalCluster) answers *what* the store
//! does, `SimCluster` answers *how long it takes* and *what survives*:
//! every node-to-node message pays the topology's latency, occupies the
//! sender's uplink for its serialization time and runs the gauntlet of
//! the network's fault plan. Every robustness sweep in this repository
//! (chaos, crash recovery, integrity, gray failure, disaster, Byzantine)
//! and `bench_e2e`'s two `sim-*` workloads run on this driver, and the
//! micro-benchmarks use it to reproduce the paper's observation that
//! remote hash lookups dominate deduplication latency. Its simulated
//! lookup latency is the reference the dedup system's *analytic* timing
//! model is judged against — `bench_e2e` measures that model 3.97 % off
//! the simulated mean on the `sim-testbed` ring, and
//! `crates/core/tests/lookup_model.rs` holds it within 5 % — never the
//! other way round.
//!
//! # Anatomy
//!
//! A thin driver **core** plus five **machines**. Each machine is a plain
//! struct that owns its state variables and counters; its event handlers
//! live next to it, in its file, and the flat dispatcher in
//! [`SimCluster::step_one`] calls them directly — no trait, no `dyn`, no
//! bus between them (DESIGN.md "SimCluster anatomy" has one table per
//! machine).
//!
//! | Machine | Owns | Events |
//! |---|---|---|
//! | core (this file) | event queue, [`Network`], node map, master ring, op bookkeeping; `dispatch` / `deliver` / `record`; the one fault entry, [`SimCluster::inject`], which turns each [`ClusterFault`] into the owning machine's events or windows; the one node teardown and bring-up; the one periodic re-arm path; `retired`, the [`NodeStats`] of torn-down nodes | `Start`, `Deliver`, `Round` |
//! | `membership` | heartbeat config, detectors, departed set, parked disks, driver-level [`RecoveryStats`](crate::RecoveryStats) | `Round(Heartbeat)`, `HeartbeatArrive`, `Crash`, `Revive`, `CrashStop`, `Restart`, `Depart` |
//! | `timers` | retry policy + jitter RNG, adaptive RTT, hedge budget, admission and backpressure bounds, slow marks, storage stalls, gray counters | `Rto`, `Hedge`, `Flush` |
//! | `background` | anti-entropy and scrub schedules, scrub cursors, verify-failure strikes, quarantine set, integrity counters | `Round(AntiEntropy)`, `Round(Scrub)`, `StorageRot` |
//! | `uplink` | spools, cloud catalog, outage windows, heal times, pending mesh repairs, disaster counters | `Round(SpoolDrain)`, `RingWipe`, `RingHeal` |
//! | `trust` | fingerprint caches + provenance, whether PoP is armed, ledger, content digests, Byzantine counters | (none of its own: it vets what `Start`, `Deliver` and `dispatch` carry) |
//!
//! The core knows *that* a machine must be consulted at a given step and
//! in which order (the order is part of the replay contract); it never
//! knows *how* the machine decides.

mod background;
mod membership;
mod timers;
mod trust;
mod uplink;

pub use uplink::CloudUplink;

use crate::chaos::ClusterFault;
use crate::cluster::{member_ring, ClusterConfig};
use crate::counters::{CoordinatorStats, NodeStats};
use crate::integrity::Summed;
use crate::msg::{ClientOp, Completion, Message, OpId, OpResult, Outbound};
use crate::node::NodeState;
use crate::retry::RetryPolicy;
use crate::ring::HashRing;
use background::Background;
use bytes::Bytes;
use ef_netsim::{Network, NodeId, SiteId};
use ef_simcore::{SimDuration, SimTime, Simulator};
use membership::Membership;
use std::collections::{BTreeMap, HashMap, HashSet};
use timers::Timers;
use trust::Trust;
use uplink::Uplink;

/// A completed operation with its start/finish times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpLatency {
    /// The operation.
    pub op_id: OpId,
    /// Outcome.
    pub result: OpResult,
    /// Submission time.
    pub started: SimTime,
    /// Coordinator-side completion time.
    pub finished: SimTime,
}

impl OpLatency {
    /// The client-observed latency.
    pub fn latency(&self) -> ef_simcore::SimDuration {
        self.finished - self.started
    }
}

#[derive(Debug)]
enum Event {
    /// A client operation begins at its coordinator.
    Start { coordinator: NodeId, op: ClientOp },
    /// A message arrives at `to`. `crc` is the frame checksum stamped at
    /// the sender (damaged in flight by wire bit rot); the receiver
    /// verifies it against the message before accepting.
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: Message,
        crc: u64,
    },
    /// One periodic round fires and re-arms itself.
    Round(Round),
    /// A heartbeat from `from` arrives at `to`.
    HeartbeatArrive { from: NodeId, to: NodeId },
    /// Crash `node` ([`ClusterFault::Crash`]).
    Crash { node: NodeId },
    /// Revive `node` ([`ClusterFault::Revive`]).
    Revive { node: NodeId },
    /// Crash-stop `node` ([`ClusterFault::CrashStop`]).
    CrashStop { node: NodeId },
    /// Restart `node` from its WAL ([`ClusterFault::Restart`]).
    Restart { node: NodeId },
    /// `node` departs for good ([`ClusterFault::Depart`]).
    Depart { node: NodeId },
    /// Seeded bit rot strikes `node` ([`ClusterFault::StorageRot`]).
    StorageRot { node: NodeId, rot_seed: u64 },
    /// Retransmission timer for a coordinated op: retry its outstanding
    /// requests, or time the op out once the budget is spent.
    Rto { op_id: OpId, attempt: u32 },
    /// Hedge timer for a coordinated read-phase op: if still pending,
    /// fire one speculative probe at a backup replica.
    Hedge { op_id: OpId },
    /// A fail-slow node's stretched fsync completes: release the acks it
    /// was holding back.
    Flush {
        from: NodeId,
        outbound: Vec<Outbound>,
    },
    /// Disaster: every node in `site` loses volatile state, disk *and*
    /// spool at once (the ring-outage window opens).
    RingWipe { site: SiteId },
    /// The ring-outage window closes: `site`'s nodes rejoin empty and
    /// mesh repair from neighbor rings begins.
    RingHeal { site: SiteId },
}

/// The four periodic rounds. They share one path — enabled? → yield to
/// backpressure? → run → re-arm — in [`SimCluster::periodic_round`].
#[derive(Debug, Clone, Copy)]
enum Round {
    /// `node` broadcasts a heartbeat and sweeps its detector.
    Heartbeat(NodeId),
    /// All live replica pairs exchange Merkle summaries and repair.
    AntiEntropy,
    /// Every live node scrubs one slice of its key space.
    Scrub,
    /// Every live node drains one bandwidth-capped spool batch.
    SpoolDrain,
}

/// Registered `[from, until)` fault windows, each carrying what it
/// affects: the one list shape and the one `open_at` query behind
/// storage stalls, cloud outages and ring outages.
#[derive(Debug, Default)]
struct Windows<T>(Vec<(SimTime, SimTime, T)>);

impl<T> Windows<T> {
    /// Registers `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics when the window is empty.
    fn push(&mut self, from: SimTime, until: SimTime, what: T) {
        assert!(until > from, "window must not be empty");
        self.0.push((from, until, what));
    }

    /// What the windows open at `now` affect, in registration order.
    fn open_at(&self, now: SimTime) -> impl Iterator<Item = &T> {
        self.0
            .iter()
            .filter(move |(from, until, _)| now >= *from && now < *until)
            .map(|(_, _, what)| what)
    }
}

/// What the driver remembers of an op between its `Start` and its
/// completion.
#[derive(Debug)]
struct OpRecord {
    started: SimTime,
    /// A check-and-insert's fingerprint and payload, with its submit
    /// digest: what a verdict teaches the coordinator's cache and what a
    /// unique one spools for the cloud.
    dedup: Option<(Bytes, Summed)>,
    /// Whether the verdict may teach the cache: false for a coordinator
    /// that was transiently crashed at `Start` (it cannot answer clients,
    /// so it gets no fast path either).
    cacheable: bool,
}

/// What becomes of a node's disk when [`SimCluster::teardown`] takes the
/// node down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Disk {
    /// Crash-stop: the WAL is parked for a later restart.
    Parked,
    /// Ring wipe or departure: WAL and upload spool are destroyed.
    Destroyed,
}

/// A store cluster whose messages travel over a simulated network.
///
/// # Example
///
/// ```
/// use ef_kvstore::{ClusterConfig, SimCluster};
/// use ef_netsim::{Network, NetworkConfig, TopologyBuilder};
/// use ef_simcore::SimTime;
/// use bytes::Bytes;
///
/// let topo = TopologyBuilder::new().edge_site(3).build();
/// let net = Network::new(topo, NetworkConfig::paper_testbed());
/// let members = net.topology().edge_nodes();
/// let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
/// cluster.submit(SimTime::ZERO, members[0],
///     ef_kvstore::ClientOp::Put(Bytes::from_static(b"k"), Bytes::from_static(b"v")));
/// let latencies = cluster.run();
/// assert_eq!(latencies.len(), 1);
/// ```
#[derive(Debug)]
pub struct SimCluster {
    // -- core: the driver itself, no per-feature state --
    /// Live member states; a crash-stopped, wiped or departed member is
    /// absent until [`SimCluster::bring_up`] re-inserts it.
    nodes: BTreeMap<NodeId, NodeState>,
    network: Network,
    sim: Simulator<Event>,
    /// The cluster config (node recovery rebuilds state from it).
    config: ClusterConfig,
    /// The master ring: membership truth, updated on departures.
    ring: HashRing,
    /// Members that can neither send nor receive right now (transiently
    /// crashed, crash-stopped, wiped or departed). Keyed lookups only —
    /// never iterated, so the HashSet is safe.
    crashed: HashSet<NodeId>,
    /// Ops begun but not yet recorded. Keyed lookups only — never
    /// iterated, so the HashMap is safe.
    ops: HashMap<OpId, OpRecord>,
    completed: Vec<OpLatency>,
    /// Ops submitted but not yet completed/timed out.
    inflight: usize,
    /// Synthetic op ids issued for submissions to dead coordinators.
    dead_submissions: u64,
    /// What torn-down nodes had counted, folded whole at teardown.
    retired: NodeStats,
    // -- the five machines --
    membership: Membership,
    timers: Timers,
    background: Background,
    uplink: Uplink,
    trust: Trust,
}

impl SimCluster {
    /// Creates a simulated cluster of `members` over `network`.
    ///
    /// # Panics
    ///
    /// Panics when `members` is empty, contains duplicates, or a member
    /// is not in the network's topology.
    pub fn new(members: Vec<NodeId>, network: Network, config: ClusterConfig) -> Self {
        let ring = member_ring(&members);
        for m in &members {
            assert!(
                m.index() < network.topology().node_count(),
                "member {m} not in topology"
            );
        }
        let nodes = members
            .into_iter()
            .map(|id| (id, NodeState::new(id, ring.clone(), &config)))
            .collect();
        // A faulty network without per-op timeouts would let any op whose
        // messages are all lost hang forever; arm a default policy seeded
        // from the plan so chaos runs stay deterministic out of the box.
        let mut timers = Timers::default();
        if let Some(plan) = network.fault_plan() {
            timers.set_retry(RetryPolicy::new(plan.seed()));
        }
        SimCluster {
            nodes,
            network,
            sim: Simulator::new(),
            config,
            ring,
            crashed: HashSet::new(),
            ops: HashMap::new(),
            completed: Vec::new(),
            inflight: 0,
            dead_submissions: 0,
            retired: NodeStats::default(),
            membership: Membership::default(),
            timers,
            background: Background::default(),
            uplink: Uplink::default(),
            trust: Trust::default(),
        }
    }

    /// Schedules a client operation at `at` on `coordinator`.
    ///
    /// # Panics
    ///
    /// Panics when `at` is in the simulated past.
    pub fn submit(&mut self, at: SimTime, coordinator: NodeId, op: ClientOp) {
        self.inflight += 1;
        self.sim.schedule_at(at, Event::Start { coordinator, op });
    }

    /// Schedules `fault`, the one way a fault reaches the cluster: node
    /// faults become events at their time, a storage stall or cloud
    /// outage opens its window, and a ring outage does both. Faults
    /// injected at one instant fire in injection order.
    ///
    /// # Panics
    ///
    /// Panics when the fault lies in the simulated past, its window is
    /// empty, or a stall factor is below 1.
    pub fn inject(&mut self, fault: ClusterFault) {
        let sim = &mut self.sim;
        match fault {
            ClusterFault::Crash { at, node } => sim.schedule_at(at, Event::Crash { node }),
            ClusterFault::Revive { at, node } => sim.schedule_at(at, Event::Revive { node }),
            ClusterFault::CrashStop { at, node } => sim.schedule_at(at, Event::CrashStop { node }),
            ClusterFault::Restart { at, node } => sim.schedule_at(at, Event::Restart { node }),
            ClusterFault::Depart { at, node } => sim.schedule_at(at, Event::Depart { node }),
            ClusterFault::StorageRot { at, node, rot_seed } => {
                sim.schedule_at(at, Event::StorageRot { node, rot_seed });
            }
            ClusterFault::StorageStall {
                from,
                until,
                node,
                stall_factor,
            } => {
                assert!(stall_factor >= 1.0, "stall factor {stall_factor} < 1");
                self.timers.stalls.push(from, until, (node, stall_factor));
            }
            ClusterFault::CloudOutage { from, until, .. } => {
                self.uplink.cloud_outages.push(from, until, ());
                self.uplink.stats.outage_windows += 1;
            }
            ClusterFault::RingOutage { from, until, site } => {
                self.uplink.ring_outages.push(from, until, site);
                sim.schedule_at(from, Event::RingWipe { site });
                sim.schedule_at(until, Event::RingHeal { site });
            }
        }
    }

    /// Client operations submitted but not yet completed or timed out.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// Safety bound (simulated seconds past the current time) that
    /// [`SimCluster::run`] applies when heartbeats keep the event queue
    /// from ever draining.
    pub const RUN_SAFETY_DEADLINE_SECS: f64 = 3600.0;

    /// Runs the simulation until every submitted operation has resolved,
    /// returning all completions sorted by completion time.
    ///
    /// Without heartbeats this runs the event queue to quiescence (stale
    /// retry timers self-cancel, so the queue always drains). With
    /// heartbeats enabled the periodic ticks never drain; `run` then
    /// stops as soon as no client op is in flight, bounded by a safety
    /// deadline of [`SimCluster::RUN_SAFETY_DEADLINE_SECS`] simulated
    /// seconds past the current time. With a retry policy armed every op
    /// resolves long before that bound; it only guards against a
    /// misconfigured cluster whose ops can wait forever — prefer
    /// [`SimCluster::run_until`] for explicit horizons.
    pub fn run(&mut self) -> Vec<OpLatency> {
        let periodic = self.membership.heartbeat.is_some()
            || self.background.antientropy.is_some()
            || self.background.scrub.is_some()
            || self.uplink.config.is_some();
        if !periodic {
            return self.run_until(SimTime::MAX);
        }
        let deadline = self.sim.now() + SimDuration::from_secs_f64(Self::RUN_SAFETY_DEADLINE_SECS);
        while self.inflight > 0 && self.step_one(deadline) {}
        self.drain_completed()
    }

    /// Runs until the queue drains or the next event lies past
    /// `deadline`, returning completions so far sorted by completion
    /// time. The deadline is inclusive: events scheduled at exactly
    /// `deadline` still run; strictly later events stay queued for the
    /// next call.
    pub fn run_until(&mut self, deadline: SimTime) -> Vec<OpLatency> {
        while self.step_one(deadline) {}
        self.drain_completed()
    }

    fn drain_completed(&mut self) -> Vec<OpLatency> {
        let mut done = std::mem::take(&mut self.completed);
        done.sort_by_key(|l| (l.finished, l.op_id));
        done
    }

    /// Processes the next event if it lies at or before `deadline`.
    /// Returns false when the queue is empty or the next event is later.
    ///
    /// The dispatcher is flat and exhaustive on purpose: one arm per
    /// [`Event`] variant, each a call into the machine that owns it, and
    /// no wildcard arm — a new event cannot compile without a handler.
    fn step_one(&mut self, deadline: SimTime) -> bool {
        let due = self.sim.peek_time().filter(|t| *t <= deadline);
        let Some(ev) = due.and_then(|_| self.sim.step()) else {
            return false;
        };
        let now = ev.time;
        match ev.payload {
            Event::Start { coordinator, op } => self.start_op(now, coordinator, op),
            Event::Deliver { from, to, msg, crc } => self.deliver(now, from, to, msg, crc),
            Event::Round(round) => self.periodic_round(now, round),
            Event::HeartbeatArrive { from, to } => self.heartbeat_arrive(now, from, to),
            Event::Crash { node } => self.crash(node),
            Event::Revive { node } => self.revive(node),
            Event::CrashStop { node } => self.teardown(now, node, Disk::Parked),
            Event::Restart { node } => self.restart(now, node),
            Event::Depart { node } => self.depart(now, node),
            Event::StorageRot { node, rot_seed } => self.apply_storage_rot(node, rot_seed),
            Event::Rto { op_id, attempt } => self.on_rto(now, op_id, attempt),
            Event::Hedge { op_id } => self.on_hedge(now, op_id),
            Event::Flush { from, outbound } => self.flush(now, from, outbound),
            Event::RingWipe { site } => self.ring_wipe(now, site),
            Event::RingHeal { site } => self.ring_heal(now, site),
        }
        true
    }

    /// The one path every periodic round takes: enabled? → (background
    /// rounds only) yield to uplink backpressure? → run → re-arm. A
    /// round that was never enabled, or a departed node's heartbeat,
    /// ends its chain by not re-arming.
    fn periodic_round(&mut self, now: SimTime, round: Round) {
        let interval = match round {
            Round::Heartbeat(node) => self.membership.heartbeat_interval_of(node),
            Round::AntiEntropy => self.background.antientropy.map(|(interval, _)| interval),
            Round::Scrub => self.background.scrub.map(|(interval, _)| interval),
            Round::SpoolDrain => self.uplink.config.map(|uplink| uplink.tick),
        };
        let Some(interval) = interval else {
            return;
        };
        let yields = matches!(round, Round::AntiEntropy | Round::Scrub);
        if yields && self.backpressure_yield(now) {
            self.timers.gray.sheds_background += 1;
        } else {
            match round {
                Round::Heartbeat(node) => self.heartbeat_round(now, node),
                Round::AntiEntropy => self.anti_entropy_round(now),
                Round::Scrub => self.scrub_round(now),
                Round::SpoolDrain => self.spool_drain_round(now),
            }
        }
        self.sim.schedule_after(interval, Event::Round(round));
    }

    /// Handles a client operation beginning at `coordinator`. The
    /// machines are consulted in a fixed order — content digest, liveness,
    /// admission, cache, then the node itself — and every path consumes
    /// exactly one sequence number at a live coordinator, so op ids are
    /// identical whichever features are armed.
    fn start_op(&mut self, now: SimTime, coordinator: NodeId, op: ClientOp) {
        // The submit digest: the one `checksum64` a payload costs the node
        // it is submitted to. The content-digest oracle, the coordinator's
        // frames and log records and the upload spool all take it from
        // here.
        let payload = op.payload().map(|value| Summed::digest(value.clone()));
        self.trust.note_submitted(op.key(), payload.as_ref());
        let Some(node) = self.nodes.get_mut(&coordinator) else {
            // The coordinator crash-stopped or departed before this
            // submission fired: the client sees an immediate
            // unavailability. Synthesize an op id from the top of the
            // sequence space, which live coordinators never issue.
            self.dead_submissions += 1;
            let op_id = OpId {
                coordinator,
                seq: u64::MAX - self.dead_submissions,
            };
            let result = OpResult::Unavailable {
                acks: 0,
                required: 0,
            };
            return self.resolve_at_door(op_id, result, now);
        };
        // Admission control: a coordinator whose pending-op queue is
        // already at the limit sheds the new op at the door instead of
        // queueing it behind work it cannot finish in time. Client dedup
        // ops are the highest-priority class — they shed only here, at
        // the hard queue bound; background anti-entropy and scrub rounds
        // yield first (see `backpressure_yield`).
        if self.timers.sheds_at_door(node.pending_count()) {
            let op_id = node.next_op_id();
            let required = self
                .config
                .consistency
                .required(self.config.replication_factor);
            return self.resolve_at_door(op_id, OpResult::Unavailable { acks: 0, required }, now);
        }
        let dedup = match (&op, &payload) {
            (ClientOp::CheckAndInsert(key, _), Some(payload)) => {
                Some((key.clone(), payload.clone()))
            }
            _ => None,
        };
        let cacheable = self.trust.caching() && !self.crashed.contains(&coordinator);
        if let Some((key, _)) = dedup.as_ref().filter(|_| cacheable) {
            if self.trust.cache_hit(coordinator, key) {
                let result = OpResult::Dedup {
                    unique: false,
                    degraded: false,
                };
                let op_id = node.next_op_id();
                return self.resolve_at_door(op_id, result, now);
            }
        }
        let (op_id, outbound, completion) = node.begin_summed(op, payload.map(|p| p.sum()));
        let begun = OpRecord {
            started: now,
            dedup,
            cacheable,
        };
        self.ops.insert(op_id, begun);
        if let Some(c) = completion {
            self.record(c.op_id, c.result, now);
        }
        // A crashed coordinator cannot transmit: its op sits pending
        // until the retry timer resolves it.
        if !self.crashed.contains(&coordinator) {
            self.dispatch(now, coordinator, outbound);
        }
        self.arm_op_timers(op_id);
        let depth = self
            .nodes
            .get(&coordinator)
            .map_or(0, NodeState::pending_count);
        self.timers.note_queue_depth(depth);
    }

    /// Resolves an op that never reached its coordinator's state machine
    /// (dead coordinator, admission shed, cache hit) the instant it began.
    fn resolve_at_door(&mut self, op_id: OpId, result: OpResult, now: SimTime) {
        let at_door = OpRecord {
            started: now,
            dedup: None,
            cacheable: false,
        };
        self.ops.insert(op_id, at_door);
        self.record(op_id, result, now);
    }

    /// Handles a frame arriving at `to`: liveness and frame checksum
    /// first, then each machine that terminates or vets the frame, then
    /// the destination node's state machine. The frame is checked against
    /// sums the receiver takes afresh of the payload bytes that arrived
    /// ([`Message::received`]); the node logs and stores with those.
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "the two disaster-protocol frames terminate at the driver; every ring frame goes on to a node"
    )]
    fn deliver(&mut self, now: SimTime, from: NodeId, to: NodeId, msg: Message, crc: u64) {
        if self.crashed.contains(&to) {
            return; // dropped on the floor
        }
        let msg = msg.received();
        if msg.frame_checksum() != crc {
            // Wire rot damaged the frame in flight: the receiver's
            // checksum verification rejects it — never a silent
            // acceptance. Retries, hint replay, and anti-entropy absorb
            // the loss.
            self.background.integrity.frames_rejected += 1;
            return;
        }
        // Disaster-protocol frames terminate at the driver: the cloud
        // catalog is not a ring member, and a spool ack retires a durable
        // entry rather than feeding a node state machine.
        let msg = match msg {
            Message::CloudUpload { key, value } => return self.cloud_ingest(now, from, key, value),
            Message::CloudUploadAck { key } => return self.uplink.retire(to, &key),
            ring_frame => ring_frame,
        };
        if let Message::HintReplay { key, value } = &msg {
            if let Some(value) = value {
                if self.rejects_served_bytes(now, from, to, key, value) {
                    return;
                }
            }
            self.uplink.note_replay_landed(to, now);
        }
        self.timers.on_ack(now, to, from, &msg);
        let stalled_write = matches!(
            msg,
            Message::ReplicaWrite { .. } | Message::HintReplay { .. }
        );
        let Some(node) = self.nodes.get_mut(&to) else {
            return;
        };
        let (outbound, completions) = node.on_message(from, msg);
        self.settle(now, to, completions);
        // Fail-slow storage: the replica's fsync crawls, so its acks leave
        // only after the stretched flush. The write itself applied on
        // arrival — only the acknowledgement is late, mirroring a disk
        // that is slow, not wrong.
        let penalty = stalled_write
            .then(|| self.timers.fsync_penalty(to, now))
            .flatten()
            .filter(|_| !outbound.is_empty());
        match penalty {
            Some(penalty) => self
                .sim
                .schedule_after(penalty, Event::Flush { from: to, outbound }),
            None => self.dispatch(now, to, outbound),
        }
    }

    /// Harvests `node`'s PoP verdicts, then records its completions — in
    /// that order: cache-source attribution needs the op's key, which
    /// `record` retires.
    fn settle(&mut self, now: SimTime, node: NodeId, completions: Vec<Completion>) {
        self.harvest_node_trust(node);
        for c in completions {
            self.record(c.op_id, c.result, now);
        }
    }

    /// Puts `from`'s outbound messages on the wire, one `Deliver` event
    /// per frame the network lets through.
    fn dispatch(&mut self, now: SimTime, from: NodeId, outbound: Vec<Outbound>) {
        for ob in outbound {
            // A compromised sender's frames leave the node already
            // rewritten into its lies; everyone else's pass through
            // untouched (the common case costs one oracle probe).
            let msg = trust::byzantine_rewrite(self.network.fault_plan(), now, from, ob.msg);
            self.timers.stamp_request(now, ob.to, &msg);
            // `send` applies the network's fault plan: Ok(None) means
            // the message was lost or partitioned away (bandwidth still
            // charged to the sender's uplink). Err means the cluster and
            // network memberships diverged, impossible by construction;
            // release builds degrade it to a drop, which the retry and
            // failure-detector machinery already absorbs.
            let sent = self.network.send_framed(now, from, ob.to, msg.wire_size());
            debug_assert!(sent.is_ok(), "dispatch target missing uplink");
            let Some(delivery) = sent.unwrap_or(None) else {
                continue;
            };
            let mut crc = msg.frame_checksum();
            if delivery.corrupt {
                // Wire rot damaged the frame in flight: model it as the
                // carried checksum no longer matching the payload, so
                // the receiver detects and rejects it.
                crc ^= 0xDEAD_BEEF_0BAD_F00D;
            }
            let to = ob.to;
            self.sim
                .schedule_at(delivery.arrival, Event::Deliver { from, to, msg, crc });
        }
    }

    /// Sends one driver-level control frame (heartbeat, Merkle summary)
    /// of `bytes` bytes over the same faulty links as data. Returns its
    /// arrival time, or `None` when it was lost, partitioned away, or
    /// bit-rotted — a rotted control frame fails its frame check at the
    /// receiver and is counted and discarded right here.
    fn send_control(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: u64,
    ) -> Option<SimTime> {
        let sent = self.network.send_framed(now, from, to, bytes);
        debug_assert!(sent.is_ok(), "control-frame peer missing uplink");
        let delivery = sent.unwrap_or(None)?;
        if delivery.corrupt {
            self.background.integrity.frames_rejected += 1;
            return None;
        }
        Some(delivery.arrival)
    }

    /// Records a completion: the cache and the upload spool learn from
    /// the verdict, then the client sees it.
    #[expect(
        clippy::expect_used,
        reason = "every completion stems from a Start event that recorded its op id"
    )]
    fn record(&mut self, op_id: OpId, result: OpResult, finished: SimTime) {
        let op = self.ops.remove(&op_id).expect("completion for unknown op");
        self.inflight = self.inflight.saturating_sub(1);
        if let Some((key, value)) = op.dedup {
            if op.cacheable {
                self.trust.learn_verdict(op_id.coordinator, &key, &result);
            }
            self.uplink
                .spool_unique(op_id.coordinator, key, value, &result);
        }
        let started = op.started;
        self.completed.push(OpLatency {
            op_id,
            result,
            started,
            finished,
        });
    }

    /// The one node teardown, shared by crash-stop (`Disk::Parked`), ring
    /// wipe and departure (`Disk::Destroyed`): the volatile state dies —
    /// fingerprint cache and detector with it — everything the node counted
    /// folds into `retired`, its in-flight coordinated ops resolve as
    /// timed out, and the disk is parked or destroyed. A node that is
    /// already down only has its parked disk and spool dealt with.
    fn teardown(&mut self, now: SimTime, node: NodeId, disk: Disk) {
        if let Some(state) = self.nodes.remove(&node) {
            self.crashed.insert(node);
            if disk == Disk::Destroyed {
                // The WAL floor that keeps op ids unique across restarts
                // burns with the disk; remember the watermark so a
                // rebuilt node resumes above every id it ever issued.
                let floor = self.membership.wiped_seq.entry(node).or_insert(0);
                *floor = (*floor).max(state.seq_watermark());
            }
            // The cache dies with the node, so a rejoined node re-learns
            // from the ring instead of trusting pre-crash answers.
            self.trust.clear_cache(node);
            self.retired.merge(state.stats());
            let (wal, completions) = state.crash();
            for c in completions {
                self.record(c.op_id, c.result, now);
            }
            // Its own suspicions die with it; bring-up builds a fresh
            // detector over the then-current membership.
            self.membership.detectors.remove(&node);
            if disk == Disk::Parked {
                self.membership.disks.insert(node, wal);
            }
        }
        if disk == Disk::Destroyed {
            self.membership.forget_recovery(node);
            self.uplink.forget_node(node);
        }
    }

    /// The one node bring-up, shared by WAL restart and ring heal: each
    /// rejoining state is PoP-armed (cluster policy, not durable node
    /// state), un-crashed,
    /// stamped for recovery-latency accounting and watched by a fresh
    /// detector over the then-live membership; its heartbeat chain
    /// survived the outage (rounds merely skip crashed nodes), so
    /// broadcasts resume by themselves. Then every rejoined node catches
    /// up on ghost departures.
    fn bring_up(&mut self, now: SimTime, rejoining: Vec<(NodeId, NodeState)>) {
        let rejoined: Vec<NodeId> = rejoining.iter().map(|(node, _)| *node).collect();
        for (node, mut state) in rejoining {
            self.trust.arm(&mut state);
            self.crashed.remove(&node);
            self.nodes.insert(node, state);
            self.membership.rejoined.insert(node, (now, None));
            self.watch_peers(node, now);
        }
        // A peer may have departed while a node was down *without* any
        // survivor having declared it dead yet (its dead-timeout is
        // still running), in which case the master ring — and therefore
        // the rejoined view — still holds the departed slot. The fresh
        // detector can never declare it (departed peers are not in the
        // member map, so they are never watched): replay the departure
        // directly, or the node would keep routing writes and parking
        // hints at a ghost.
        let ghosts: Vec<NodeId> = self
            .membership
            .departed
            .iter()
            .copied()
            .filter(|d| self.ring.contains(*d))
            .collect();
        for node in rejoined {
            for &dead in &ghosts {
                self.process_departure(now, node, dead);
            }
        }
    }

    /// What the nodes have counted for themselves over the whole run: the
    /// live ones plus everything torn-down ones left in `retired`. The
    /// machines add their own driver-level counters on top.
    fn node_stats(&self) -> NodeStats {
        let mut total = self.retired;
        for state in self.nodes.values() {
            total.merge(state.stats());
        }
        total
    }

    /// Live members that are not transiently crashed, in id order.
    fn live_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .keys()
            .copied()
            .filter(|n| !self.crashed.contains(n))
            .collect()
    }

    /// True when `node` is a live member that is not transiently crashed.
    fn is_serving(&self, node: NodeId) -> bool {
        self.nodes.contains_key(&node) && !self.crashed.contains(&node)
    }

    /// The simulated network (counters, occupancy).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Timeout, retry, degraded-verdict and read-repair counters across
    /// all coordinators, torn-down ones included.
    pub fn coordinator_stats(&self) -> CoordinatorStats {
        self.node_stats().coordinator
    }

    /// Total per-op timeouts recorded across all coordinators.
    pub fn timeouts(&self) -> u64 {
        self.coordinator_stats().timeouts
    }

    /// Total retry rounds issued across all coordinators.
    pub fn retries(&self) -> u64 {
        self.coordinator_stats().retries
    }

    /// Total check-and-inserts resolved in degraded ("assume unique")
    /// mode across all coordinators.
    pub fn degraded_ops(&self) -> u64 {
        self.coordinator_stats().degraded_ops
    }

    /// A member node's state (counters, storage), for inspection.
    pub fn node(&self, id: NodeId) -> Option<&NodeState> {
        self.nodes.get(&id)
    }

    /// Mutable access to a member node's state — fault injection for
    /// integrity tests (e.g. planting bit rot in its storage engine).
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut NodeState> {
        self.nodes.get_mut(&id)
    }

    /// The master ring: current membership truth after any departures.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Total hints currently parked across all live members.
    pub fn total_hints(&self) -> usize {
        self.nodes.values().map(NodeState::hint_count).sum()
    }
}

#[cfg(test)]
mod tests;
