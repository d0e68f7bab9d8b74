//! The membership machine: who is in the ring, who is believed alive,
//! and the crash / restart / departure hooks that change either.
//!
//! **State:** heartbeat config, one [`HeartbeatDetector`] per live
//! member, the departed set, parked disks of crash-stopped members, the
//! op-id watermarks of wiped members, restart/convergence stamps, and
//! the driver's own [`RecoveryStats`]. **Events:** `Round(Heartbeat)`,
//! `HeartbeatArrive`, `Crash`, `Revive`, `CrashStop`, `Restart`,
//! `Depart`. **Emits:** 64-byte heartbeat control frames, hint replays on
//! revival, re-replication streams on confirmed departures.

use super::{Disk, Event, Round, SimCluster};
use crate::counters::RecoveryStats;
use crate::failure::HeartbeatDetector;
use crate::node::NodeState;
use crate::storage::WriteAheadLog;
use ef_netsim::NodeId;
use ef_simcore::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Gossip failure-detection settings, kept to build a rejoining node's
/// detector.
#[derive(Debug, Clone, Copy)]
pub(super) struct Heartbeats {
    pub(super) interval: SimDuration,
    /// Silence before a peer is suspected.
    timeout: SimDuration,
    /// Silence before a suspect is declared dead, if escalation is on.
    dead_timeout: Option<SimDuration>,
}

#[derive(Debug, Default)]
pub(super) struct Membership {
    /// None until heartbeats are enabled.
    pub(super) heartbeat: Option<Heartbeats>,
    pub(super) detectors: BTreeMap<NodeId, HeartbeatDetector>,
    /// Permanently departed members (driver-confirmed decommissions).
    pub(super) departed: BTreeSet<NodeId>,
    /// Durable disks of crash-stopped nodes awaiting restart.
    pub(super) disks: BTreeMap<NodeId, WriteAheadLog>,
    /// Op-sequence watermark captured when a node's disk was destroyed,
    /// so the rebuilt node resumes above every op id it ever issued.
    pub(super) wiped_seq: BTreeMap<NodeId, u64>,
    /// When each node last rejoined (WAL restart or ring heal), and when
    /// it was first observed fully converged since (its replica pairs all
    /// clean in an anti-entropy round).
    pub(super) rejoined: BTreeMap<NodeId, (SimTime, Option<SimTime>)>,
    /// Driver-level recovery counters (restarts, anti-entropy work, dead
    /// declarations); what a node replays, drops or re-replicates it
    /// counts itself.
    pub(super) recovery: RecoveryStats,
}

impl Membership {
    /// The heartbeat period, unless heartbeats are off or `node` departed
    /// (its tick chain dies).
    pub(super) fn heartbeat_interval_of(&self, node: NodeId) -> Option<SimDuration> {
        self.heartbeat
            .filter(|_| !self.departed.contains(&node))
            .map(|hb| hb.interval)
    }

    /// Teardown bookkeeping for a destroyed disk: nothing of the node's
    /// recovery history is left to account for.
    pub(super) fn forget_recovery(&mut self, node: NodeId) {
        self.disks.remove(&node);
        self.rejoined.remove(&node);
    }
}

impl SimCluster {
    /// Enables gossip-style failure detection: every node broadcasts a
    /// heartbeat each `interval`, suspects peers silent past `timeout`,
    /// marks them down (hinting writes), and revives them on the next
    /// heartbeat heard.
    ///
    /// Call before `run`; ticks start at time zero.
    ///
    /// # Panics
    ///
    /// Panics when already enabled or `timeout <= interval` (a peer
    /// would flap every tick).
    pub fn enable_heartbeats(
        &mut self,
        interval: ef_simcore::SimDuration,
        timeout: ef_simcore::SimDuration,
    ) {
        self.enable_heartbeats_inner(interval, timeout, None);
    }

    /// Like [`SimCluster::enable_heartbeats`], but additionally escalates
    /// peers silent past `dead_timeout` to [`crate::Liveness::Dead`].
    /// A dead declaration only triggers ring
    /// surgery (re-replication, ring rebuild, detector unwatch) for
    /// nodes whose departure the driver confirmed via
    /// [`SimCluster::depart_at`] — the in-sim stand-in for an operator
    /// decommission decision. A merely crash-stopped node keeps its ring
    /// slot and revives through genuinely-later heartbeats after its
    /// restart.
    ///
    /// # Panics
    ///
    /// Panics when already enabled or unless
    /// `dead_timeout > timeout > interval`.
    pub fn enable_heartbeats_with_dead(
        &mut self,
        interval: SimDuration,
        timeout: SimDuration,
        dead_timeout: SimDuration,
    ) {
        assert!(
            dead_timeout > timeout,
            "dead timeout must exceed the suspect timeout"
        );
        self.enable_heartbeats_inner(interval, timeout, Some(dead_timeout));
    }

    fn enable_heartbeats_inner(
        &mut self,
        interval: SimDuration,
        timeout: SimDuration,
        dead_timeout: Option<SimDuration>,
    ) {
        // A second call would start a second tick chain per node: double
        // heartbeat traffic and duplicate detector sweeps.
        assert!(
            self.membership.heartbeat.is_none(),
            "heartbeats already enabled"
        );
        assert!(timeout > interval, "timeout must exceed the interval");
        let hb = Heartbeats {
            interval,
            timeout,
            dead_timeout,
        };
        self.membership.heartbeat = Some(hb);
        let members: Vec<NodeId> = self.nodes.keys().copied().collect();
        for me in members {
            self.watch_peers(me, SimTime::ZERO);
            self.sim
                .schedule_at(SimTime::ZERO, Event::Round(Round::Heartbeat(me)));
        }
    }

    /// Gives `node` a fresh detector over the current members, treating
    /// `now` as their first sign of life (a no-op without heartbeats).
    pub(super) fn watch_peers(&mut self, node: NodeId, now: SimTime) {
        let Some(hb) = self.membership.heartbeat else {
            return;
        };
        let mut fd = match hb.dead_timeout {
            Some(dead) => HeartbeatDetector::with_dead_timeout(hb.timeout, dead),
            None => HeartbeatDetector::new(hb.timeout),
        };
        for peer in self.nodes.keys().filter(|p| **p != node) {
            fd.watch(*peer, now);
        }
        self.membership.detectors.insert(node, fd);
    }

    /// Schedules a crash of `node` at `at` (requires heartbeats enabled
    /// for peers to *notice*; messages to a crashed node are dropped
    /// either way). The node keeps its volatile state — this models a
    /// network-level silence, not a process death; contrast
    /// [`SimCluster::crash_stop_at`].
    pub fn crash_at(&mut self, at: SimTime, node: NodeId) {
        self.sim.schedule_at(at, Event::Crash { node });
    }

    /// Schedules a revival of `node` at `at` (pairs with
    /// [`SimCluster::crash_at`] only — a crash-*stopped* node needs
    /// [`SimCluster::restart_at`]).
    pub fn revive_at(&mut self, at: SimTime, node: NodeId) {
        self.sim.schedule_at(at, Event::Revive { node });
    }

    /// Schedules a crash-stop of `node` at `at`: its volatile state
    /// (memtable index shard, pending ops, hints, suspicions) is
    /// dropped, in-flight ops it coordinates resolve as timed out, and
    /// only its write-ahead log survives for a later
    /// [`SimCluster::restart_at`].
    pub fn crash_stop_at(&mut self, at: SimTime, node: NodeId) {
        self.sim.schedule_at(at, Event::CrashStop { node });
    }

    /// Schedules a restart of a crash-stopped `node` at `at`: it
    /// recovers its shard from the WAL, rejoins with the current
    /// membership view, and catches up via peer hint replay and
    /// anti-entropy.
    pub fn restart_at(&mut self, at: SimTime, node: NodeId) {
        self.sim.schedule_at(at, Event::Restart { node });
    }

    /// Schedules the permanent departure of `node` at `at`: volatile
    /// state *and* disk are destroyed and the driver confirms the
    /// departure, so peers' dead declarations escalate into
    /// re-replication and a ring rebuild (requires
    /// [`SimCluster::enable_heartbeats_with_dead`]).
    pub fn depart_at(&mut self, at: SimTime, node: NodeId) {
        self.sim.schedule_at(at, Event::Depart { node });
    }

    /// Peers the given node currently suspects (after `run`).
    pub fn suspects_of(&self, node: NodeId) -> Vec<NodeId> {
        self.membership
            .detectors
            .get(&node)
            .map(|d| d.suspects())
            .unwrap_or_default()
    }

    /// Recovery-pipeline counters accumulated so far.
    pub fn recovery_stats(&self) -> RecoveryStats {
        let mut total = self.membership.recovery;
        total.merge(&self.node_stats().recovery);
        total
    }

    /// True when the driver confirmed `node`'s permanent departure.
    pub fn is_departed(&self, node: NodeId) -> bool {
        self.membership.departed.contains(&node)
    }

    /// WAL snapshot compactions taken across live members and parked
    /// disks.
    pub fn wal_snapshots(&self) -> u64 {
        let live = self.nodes.values().map(NodeState::wal);
        let parked = self.membership.disks.values();
        live.chain(parked).map(WriteAheadLog::snapshots_taken).sum()
    }

    /// Per-node recovery latency: time from each WAL restart until the
    /// first anti-entropy round that found all the node's replica pairs
    /// clean. Nodes that restarted but have not yet converged are
    /// omitted.
    pub fn recovery_latencies(&self) -> Vec<(NodeId, SimDuration)> {
        let rejoined = self.membership.rejoined.iter();
        rejoined
            .filter_map(|(n, &(t0, t1))| Some((*n, t1?.saturating_since(t0))))
            .collect()
    }

    /// `Crash`: a network-level silence; the node keeps its state.
    pub(super) fn crash(&mut self, node: NodeId) {
        self.crashed.insert(node);
    }

    /// `Revive`: only a transient `Crash` revives this way. A
    /// crash-stopped or departed node is absent from the member map and
    /// stays down — reviving it here would resurrect a zombie heartbeat
    /// broadcaster.
    pub(super) fn revive(&mut self, node: NodeId) {
        if self.nodes.contains_key(&node) {
            self.crashed.remove(&node);
        }
    }

    /// `HeartbeatArrive`: `to` heard `from`.
    pub(super) fn heartbeat_arrive(&mut self, now: SimTime, from: NodeId, to: NodeId) {
        if !self.crashed.contains(&to) {
            if let Some(fd) = self.membership.detectors.get_mut(&to) {
                fd.heartbeat(from, now);
            }
        }
    }

    /// One `Round(Heartbeat)` at `node`: broadcast liveness, let a
    /// compromised node spray its hint flood, then sweep the local
    /// detector and apply its transitions. A crashed node is silent, and
    /// a quarantined one is deliberately silenced so the ordinary
    /// suspect → dead machinery takes it out of service.
    pub(super) fn heartbeat_round(&mut self, now: SimTime, node: NodeId) {
        if self.crashed.contains(&node) || self.background.quarantined.contains(&node) {
            return;
        }
        let peers: Vec<NodeId> = self.nodes.keys().copied().filter(|p| *p != node).collect();
        for peer in peers {
            // Heartbeats ride the same faulty links as data: loss or
            // partition silences them.
            if let Some(arrival) = self.send_control(now, node, peer, 64) {
                let beat = Event::HeartbeatArrive {
                    from: node,
                    to: peer,
                };
                self.sim.schedule_at(arrival, beat);
            }
        }
        self.hint_flood(now, node);
        let Some(sweep) = self
            .membership
            .detectors
            .get_mut(&node)
            .map(|fd| fd.sweep(now))
        else {
            return;
        };
        for down in sweep.newly_suspect {
            self.peer_failed(now, node, down);
        }
        for dead in sweep.newly_dead {
            self.on_dead_declared(now, node, dead);
        }
        for revived in sweep.revived {
            let Some(state) = self.nodes.get_mut(&node) else {
                break;
            };
            let outbound = state.mark_up(revived);
            self.dispatch(now, node, outbound);
        }
    }

    /// A local detector at `observer` declared `dead` dead. The
    /// suspect-level consequences (mark down, resolve pending ops)
    /// already fired on the suspect edge. Ring surgery is gated on
    /// driver-confirmed permanence: only a node in the departed set
    /// triggers hint dropping, re-replication and a ring rebuild. A
    /// crash-stopped node that will restart keeps its ring slot and
    /// revives through genuinely-later heartbeats.
    fn on_dead_declared(&mut self, now: SimTime, observer: NodeId, dead: NodeId) {
        self.membership.recovery.dead_declared += 1;
        self.peer_failed(now, observer, dead);
        if self.membership.departed.contains(&dead) {
            self.process_departure(now, observer, dead);
        }
    }

    /// `observer` stops waiting on `peer`: mark it down (hinting writes),
    /// resolve the pending ops that were waiting for it, and send what
    /// the ones that moved on now owe the live replicas.
    fn peer_failed(&mut self, now: SimTime, observer: NodeId, peer: NodeId) {
        if let Some(state) = self.nodes.get_mut(&observer) {
            let (outbound, completions) = state.on_peer_failure(peer);
            self.settle(now, observer, completions);
            self.dispatch(now, observer, outbound);
        }
    }

    /// Applies a confirmed permanent departure at one observer: drop the
    /// hints parked for the departed node, re-replicate the tokens it
    /// co-owned, stop watching it, and (first observer only) evict it
    /// from the master ring.
    pub(super) fn process_departure(&mut self, now: SimTime, observer: NodeId, dead: NodeId) {
        let Some(state) = self.nodes.get_mut(&observer) else {
            return;
        };
        let outbound = state.handle_departure(dead);
        if let Some(fd) = self.membership.detectors.get_mut(&observer) {
            fd.unwatch(dead);
        }
        // The first observer to act evicts the node from the master ring.
        if self.ring.contains(dead) && self.ring.len() > 1 {
            self.ring.remove_node(dead);
        }
        self.dispatch(now, observer, outbound);
    }

    /// `Restart`: recovers a crash-stopped `node` from its parked WAL and
    /// brings it up.
    pub(super) fn restart(&mut self, now: SimTime, node: NodeId) {
        if self.membership.departed.contains(&node) || self.nodes.contains_key(&node) {
            return; // departed forever, or never crash-stopped
        }
        let Some(mut wal) = self.membership.disks.remove(&node) else {
            return;
        };
        // Run the recovery lattice on the disk first: a rotted snapshot
        // falls back to the stashed pre-compaction log, a torn tail is
        // truncated back to the last whole record, and a corrupt record
        // *body* surfaces as an error — in which case the disk is
        // re-parked for diagnosis and the node stays dead rather than
        // rejoining with silently-wrong state.
        match wal.recover_replay() {
            Ok((_, notes)) => {
                if notes.torn_tail {
                    self.background.integrity.torn_tails_truncated += 1;
                }
                if notes.snapshot_fallback {
                    self.background.integrity.snapshot_fallbacks += 1;
                }
            }
            Err(_) => {
                self.background.integrity.wal_corrupt_bodies += 1;
                self.membership.disks.insert(node, wal);
                return;
            }
        }
        // The master ring is the membership truth: it still holds this
        // node (crash-stops keep the slot) and already excludes any peer
        // whose departure a survivor acted on, so the recovered view
        // needs no surgery beyond bring-up's ghost catch-up. Data the
        // node should have received meanwhile arrives via peer hint
        // replay and anti-entropy.
        let Ok(recovered) = NodeState::recover(node, self.ring.clone(), &self.config, wal) else {
            return; // unreachable: the lattice above already vetted the log
        };
        self.membership.recovery.restarts += 1;
        self.bring_up(now, vec![(node, recovered)]);
    }

    /// `Depart`: a teardown that destroys the disk, plus the driver's
    /// confirmation that the node will never return.
    pub(super) fn depart(&mut self, now: SimTime, node: NodeId) {
        if !self.membership.departed.insert(node) {
            return;
        }
        self.teardown(now, node, Disk::Destroyed);
        self.crashed.insert(node);
        self.membership.wiped_seq.remove(&node);
        // An observer that declared this node dead *before* the departure
        // became permanent (it was partitioned or transiently crashed
        // first) will never see another dead edge — the detector verdict
        // is edge-triggered and already `Dead`. Replay the departure
        // handling for those observers now, or their parked hints and
        // stale ring views would outlive the node forever.
        let already_declared: Vec<NodeId> = self
            .membership
            .detectors
            .iter()
            .filter(|(obs, fd)| self.nodes.contains_key(obs) && fd.dead_peers().contains(&node))
            .map(|(obs, _)| *obs)
            .collect();
        for observer in already_declared {
            self.process_departure(now, observer, node);
        }
    }
}
