//! Heartbeat-based failure detection.
//!
//! The cluster drivers in this crate mark nodes down through an oracle
//! (`set_down`) for deterministic tests; a deployed ring needs to
//! *detect* failures. [`HeartbeatDetector`] is the standard mechanism
//! Cassandra's gossip layer builds on: every peer is expected to be
//! heard from within a timeout; silence marks it suspect, and hearing
//! from it again revives it. A second, longer timeout escalates
//! suspicion to [`Liveness::Dead`] — the signal to treat the peer as
//! permanently departed (re-replicate its tokens, rebuild the ring).
//! The detector is driven by simulated time so detection behaviour is
//! reproducible.

use ef_netsim::NodeId;
use ef_simcore::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// The liveness verdict for a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Liveness {
    /// Heard from within the timeout.
    Alive,
    /// Silent past the (suspect) timeout.
    Suspect,
    /// Silent past the dead timeout: presumed permanently departed.
    /// Sticky — only a heartbeat *newer* than the death declaration
    /// revives the peer; stale late heartbeats never do.
    Dead,
}

/// Edge-triggered transitions from one [`HeartbeatDetector::sweep`], each
/// list in id order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sweep {
    /// Peers that just crossed the suspect timeout.
    pub newly_suspect: Vec<NodeId>,
    /// Peers that just crossed the dead timeout.
    pub newly_dead: Vec<NodeId>,
    /// Peers that just proved themselves alive again.
    pub revived: Vec<NodeId>,
}

impl Sweep {
    /// True when the sweep produced no transitions.
    pub fn is_empty(&self) -> bool {
        self.newly_suspect.is_empty() && self.newly_dead.is_empty() && self.revived.is_empty()
    }
}

/// Where a watched peer sits in the Alive → Suspect → Dead escalation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PeerState {
    Alive,
    Suspect,
    Dead,
}

/// A per-node heartbeat failure detector with two-level escalation.
///
/// # Example
///
/// ```
/// use ef_kvstore::{HeartbeatDetector, Liveness};
/// use ef_netsim::NodeId;
/// use ef_simcore::{SimDuration, SimTime};
///
/// let mut fd = HeartbeatDetector::new(SimDuration::from_millis(500));
/// fd.watch(NodeId(1), SimTime::ZERO);
/// fd.heartbeat(NodeId(1), SimTime::from_nanos(100_000_000));
/// assert_eq!(fd.liveness(NodeId(1), SimTime::from_nanos(200_000_000)), Some(Liveness::Alive));
/// // 600ms of silence after the last heartbeat:
/// assert_eq!(fd.liveness(NodeId(1), SimTime::from_nanos(700_000_000)), Some(Liveness::Suspect));
/// ```
#[derive(Debug, Clone)]
pub struct HeartbeatDetector {
    timeout: SimDuration,
    /// Silence beyond this escalates Suspect → Dead (`None`: never).
    dead_timeout: Option<SimDuration>,
    last_heard: BTreeMap<NodeId, SimTime>,
    /// Per-peer escalation state (for edge-triggered events).
    state: BTreeMap<NodeId, PeerState>,
    /// When each dead peer was declared dead (stale-heartbeat guard).
    dead_since: BTreeMap<NodeId, SimTime>,
}

impl HeartbeatDetector {
    /// Creates a detector that suspects peers silent for longer than
    /// `timeout` and never declares them dead.
    ///
    /// # Panics
    ///
    /// Panics for a zero timeout.
    pub fn new(timeout: SimDuration) -> Self {
        assert!(!timeout.is_zero(), "timeout must be positive");
        HeartbeatDetector {
            timeout,
            dead_timeout: None,
            last_heard: BTreeMap::new(),
            state: BTreeMap::new(),
            dead_since: BTreeMap::new(),
        }
    }

    /// Creates a detector that additionally declares peers dead after
    /// `dead_timeout` of silence.
    ///
    /// # Panics
    ///
    /// Panics unless `dead_timeout > timeout > 0`.
    pub fn with_dead_timeout(timeout: SimDuration, dead_timeout: SimDuration) -> Self {
        assert!(
            dead_timeout > timeout,
            "dead timeout must exceed the suspect timeout"
        );
        let mut fd = HeartbeatDetector::new(timeout);
        fd.dead_timeout = Some(dead_timeout);
        fd
    }

    /// Starts watching a peer, treating `now` as its first sign of life.
    pub fn watch(&mut self, peer: NodeId, now: SimTime) {
        self.last_heard.entry(peer).or_insert(now);
        self.state.entry(peer).or_insert(PeerState::Alive);
    }

    /// Stops watching a peer (decommission).
    pub fn unwatch(&mut self, peer: NodeId) {
        self.last_heard.remove(&peer);
        self.state.remove(&peer);
        self.dead_since.remove(&peer);
    }

    /// Records a heartbeat from `peer` at `now`.
    ///
    /// A heartbeat from an unwatched peer starts watching it: a node
    /// first learned about through gossip joins the watch set without an
    /// explicit [`HeartbeatDetector::watch`] call. A decommissioned peer
    /// must therefore be silenced (removed from the ring) before
    /// [`HeartbeatDetector::unwatch`], or its next heartbeat simply
    /// re-registers it.
    ///
    /// Once a peer is declared dead, heartbeats stamped at or before the
    /// declaration are discarded: a stale in-flight heartbeat from
    /// before the death never revives the peer. Only a genuinely later
    /// heartbeat (a restarted node speaking again) does.
    pub fn heartbeat(&mut self, peer: NodeId, now: SimTime) {
        if let Some(&since) = self.dead_since.get(&peer) {
            if now <= since {
                return;
            }
        }
        match self.last_heard.get_mut(&peer) {
            Some(t) => *t = (*t).max(now),
            None => {
                self.last_heard.insert(peer, now);
                self.state.insert(peer, PeerState::Alive);
            }
        }
    }

    /// The verdict for `peer` at `now`.
    ///
    /// Returns `None` for an unwatched peer. A dead verdict is sticky:
    /// it persists until a heartbeat newer than the declaration arrives,
    /// regardless of how `now` relates to the timeouts.
    pub fn liveness(&self, peer: NodeId, now: SimTime) -> Option<Liveness> {
        let last = self.last_heard.get(&peer)?;
        if let Some(&since) = self.dead_since.get(&peer) {
            if *last <= since {
                return Some(Liveness::Dead);
            }
        }
        let silence = now.saturating_since(*last);
        Some(match self.dead_timeout {
            Some(dead) if silence > dead => Liveness::Dead,
            _ if silence > self.timeout => Liveness::Suspect,
            _ => Liveness::Alive,
        })
    }

    /// Sweeps all watched peers at `now`, returning *edge-triggered*
    /// transitions. A peer that crossed both thresholds since the last
    /// sweep appears in `newly_suspect` *and* `newly_dead`. Dead peers
    /// only revive once a genuinely-later heartbeat moved their
    /// `last_heard` past the death declaration.
    #[expect(
        clippy::expect_used,
        reason = "watch() and heartbeat() insert into last_heard and state together, so the key sets match"
    )]
    pub fn sweep(&mut self, now: SimTime) -> Sweep {
        let mut sweep = Sweep::default();
        for (&peer, &last) in &self.last_heard {
            let silence = now.saturating_since(last);
            let suspect_now = silence > self.timeout;
            let dead_now = matches!(self.dead_timeout, Some(dead) if silence > dead);
            let state = self.state.get_mut(&peer).expect("watched peer");
            match *state {
                PeerState::Alive => {
                    if dead_now {
                        // Crossed both thresholds between sweeps: report
                        // both edges so no subscriber misses one.
                        *state = PeerState::Dead;
                        self.dead_since.insert(peer, now);
                        sweep.newly_suspect.push(peer);
                        sweep.newly_dead.push(peer);
                    } else if suspect_now {
                        *state = PeerState::Suspect;
                        sweep.newly_suspect.push(peer);
                    }
                }
                PeerState::Suspect => {
                    if dead_now {
                        *state = PeerState::Dead;
                        self.dead_since.insert(peer, now);
                        sweep.newly_dead.push(peer);
                    } else if !suspect_now {
                        *state = PeerState::Alive;
                        sweep.revived.push(peer);
                    }
                }
                PeerState::Dead => {
                    if !suspect_now && !dead_now {
                        *state = PeerState::Alive;
                        self.dead_since.remove(&peer);
                        sweep.revived.push(peer);
                    }
                }
            }
        }
        sweep
    }

    /// All peers currently in the suspect state (from the last sweep).
    pub fn suspects(&self) -> Vec<NodeId> {
        self.state
            .iter()
            .filter_map(|(&p, &s)| (s == PeerState::Suspect).then_some(p))
            .collect()
    }

    /// All peers currently declared dead (from the last sweep).
    pub fn dead_peers(&self) -> Vec<NodeId> {
        self.state
            .iter()
            .filter_map(|(&p, &s)| (s == PeerState::Dead).then_some(p))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_nanos(v * 1_000_000)
    }

    #[test]
    fn fresh_peer_is_alive() {
        let mut fd = HeartbeatDetector::new(SimDuration::from_millis(100));
        fd.watch(NodeId(1), ms(0));
        assert_eq!(fd.liveness(NodeId(1), ms(50)), Some(Liveness::Alive));
        assert_eq!(fd.liveness(NodeId(1), ms(100)), Some(Liveness::Alive));
        assert_eq!(fd.liveness(NodeId(1), ms(101)), Some(Liveness::Suspect));
    }

    #[test]
    fn heartbeat_extends_lease() {
        let mut fd = HeartbeatDetector::new(SimDuration::from_millis(100));
        fd.watch(NodeId(1), ms(0));
        fd.heartbeat(NodeId(1), ms(90));
        assert_eq!(fd.liveness(NodeId(1), ms(150)), Some(Liveness::Alive));
        fd.heartbeat(NodeId(1), ms(180));
        assert_eq!(fd.liveness(NodeId(1), ms(250)), Some(Liveness::Alive));
        assert_eq!(fd.liveness(NodeId(1), ms(281)), Some(Liveness::Suspect));
    }

    #[test]
    fn sweep_is_edge_triggered() {
        let mut fd = HeartbeatDetector::new(SimDuration::from_millis(100));
        fd.watch(NodeId(1), ms(0));
        fd.watch(NodeId(2), ms(0));
        fd.heartbeat(NodeId(2), ms(150));

        let s = fd.sweep(ms(200));
        assert_eq!(s.newly_suspect, vec![NodeId(1)]);
        assert!(s.newly_dead.is_empty() && s.revived.is_empty());
        // Repeated sweep: no new events.
        assert!(fd.sweep(ms(210)).is_empty());
        assert_eq!(fd.suspects(), vec![NodeId(1)]);

        // The peer comes back.
        fd.heartbeat(NodeId(1), ms(220));
        let s3 = fd.sweep(ms(230));
        assert!(s3.newly_suspect.is_empty() && s3.newly_dead.is_empty());
        assert_eq!(s3.revived, vec![NodeId(1)]);
        assert!(fd.suspects().is_empty());
    }

    #[test]
    fn stale_heartbeats_do_not_rewind() {
        let mut fd = HeartbeatDetector::new(SimDuration::from_millis(100));
        fd.watch(NodeId(1), ms(0));
        fd.heartbeat(NodeId(1), ms(200));
        fd.heartbeat(NodeId(1), ms(50)); // reordered old heartbeat
        assert_eq!(fd.liveness(NodeId(1), ms(290)), Some(Liveness::Alive));
    }

    #[test]
    fn unwatch_removes_peer() {
        let mut fd = HeartbeatDetector::new(SimDuration::from_millis(100));
        fd.watch(NodeId(1), ms(0));
        fd.unwatch(NodeId(1));
        // A silenced, unwatched peer never resurfaces in sweeps.
        assert!(fd.sweep(ms(500)).is_empty());
        // But a late heartbeat re-registers it (gossip-style auto-watch):
        // decommission must silence the peer before unwatching.
        fd.heartbeat(NodeId(1), ms(510));
        assert_eq!(fd.liveness(NodeId(1), ms(520)), Some(Liveness::Alive));
    }

    #[test]
    fn heartbeat_auto_watches_unknown_peer() {
        let mut fd = HeartbeatDetector::new(SimDuration::from_millis(100));
        // Never explicitly watched: the heartbeat itself registers it.
        fd.heartbeat(NodeId(7), ms(10));
        assert_eq!(fd.liveness(NodeId(7), ms(50)), Some(Liveness::Alive));
        // And it participates in sweeps like any watched peer.
        let s = fd.sweep(ms(500));
        assert_eq!(s.newly_suspect, vec![NodeId(7)]);
        assert!(s.newly_dead.is_empty() && s.revived.is_empty());
    }

    #[test]
    fn liveness_of_unwatched_is_none() {
        let fd = HeartbeatDetector::new(SimDuration::from_millis(1));
        assert_eq!(fd.liveness(NodeId(9), ms(0)), None);
    }

    #[test]
    fn silence_escalates_suspect_then_dead() {
        let mut fd = HeartbeatDetector::with_dead_timeout(
            SimDuration::from_millis(100),
            SimDuration::from_millis(400),
        );
        fd.watch(NodeId(1), ms(0));
        let s1 = fd.sweep(ms(150));
        assert_eq!(s1.newly_suspect, vec![NodeId(1)]);
        assert!(s1.newly_dead.is_empty());
        assert_eq!(fd.liveness(NodeId(1), ms(150)), Some(Liveness::Suspect));

        let s2 = fd.sweep(ms(450));
        assert!(s2.newly_suspect.is_empty());
        assert_eq!(s2.newly_dead, vec![NodeId(1)]);
        assert_eq!(fd.liveness(NodeId(1), ms(450)), Some(Liveness::Dead));
        assert_eq!(fd.dead_peers(), vec![NodeId(1)]);
        // Edge-triggered: no repeat.
        assert!(fd.sweep(ms(500)).is_empty());
    }

    #[test]
    fn both_edges_fire_when_a_sweep_skips_the_suspect_window() {
        let mut fd = HeartbeatDetector::with_dead_timeout(
            SimDuration::from_millis(100),
            SimDuration::from_millis(400),
        );
        fd.watch(NodeId(1), ms(0));
        // First sweep lands past the dead timeout already.
        let s = fd.sweep(ms(1000));
        assert_eq!(s.newly_suspect, vec![NodeId(1)]);
        assert_eq!(s.newly_dead, vec![NodeId(1)]);
    }

    #[test]
    fn stale_heartbeat_never_revives_the_dead() {
        let mut fd = HeartbeatDetector::with_dead_timeout(
            SimDuration::from_millis(100),
            SimDuration::from_millis(400),
        );
        fd.watch(NodeId(1), ms(0));
        let s = fd.sweep(ms(500));
        assert_eq!(s.newly_dead, vec![NodeId(1)]);
        // A heartbeat stamped before (or at) the death declaration is a
        // stale straggler: discard it, the peer stays dead.
        fd.heartbeat(NodeId(1), ms(300));
        fd.heartbeat(NodeId(1), ms(500));
        assert_eq!(fd.liveness(NodeId(1), ms(510)), Some(Liveness::Dead));
        assert!(fd.sweep(ms(520)).is_empty());
        assert_eq!(fd.dead_peers(), vec![NodeId(1)]);
        // Dead stays sticky even at far-future sweep times.
        assert_eq!(fd.liveness(NodeId(1), ms(10_000)), Some(Liveness::Dead));
    }

    #[test]
    fn genuinely_later_heartbeat_revives_the_dead() {
        let mut fd = HeartbeatDetector::with_dead_timeout(
            SimDuration::from_millis(100),
            SimDuration::from_millis(400),
        );
        fd.watch(NodeId(1), ms(0));
        fd.sweep(ms(500));
        assert_eq!(fd.dead_peers(), vec![NodeId(1)]);
        // The node restarted and spoke again after the declaration.
        fd.heartbeat(NodeId(1), ms(600));
        let s = fd.sweep(ms(610));
        assert_eq!(s.revived, vec![NodeId(1)]);
        assert!(fd.dead_peers().is_empty());
        assert_eq!(fd.liveness(NodeId(1), ms(650)), Some(Liveness::Alive));
    }

    #[test]
    #[should_panic(expected = "dead timeout must exceed")]
    fn dead_timeout_must_exceed_suspect_timeout() {
        HeartbeatDetector::with_dead_timeout(
            SimDuration::from_millis(100),
            SimDuration::from_millis(100),
        );
    }
}
