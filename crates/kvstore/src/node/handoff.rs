//! The handoff role: writes a down peer missed, parked per peer and
//! replayed in arrival order once it proves reachable.

use super::NodeState;
use crate::integrity::Summed;
use crate::msg::Outbound;
use bytes::Bytes;
use ef_netsim::NodeId;

impl NodeState {
    /// Number of parked hints (diagnostics).
    pub fn hint_count(&self) -> usize {
        self.hints.values().map(Vec::len).sum()
    }

    /// The distinct peers this node is currently holding hints for
    /// (diagnostics): after a permanent departure none of them may be the
    /// departed node.
    pub fn hinted_peers(&self) -> Vec<NodeId> {
        self.hints.keys().copied().collect()
    }

    /// Marks a peer down: future operations skip it and hint instead.
    pub fn mark_down(&mut self, peer: NodeId) {
        self.down.insert(peer);
    }

    /// Marks a peer up again and returns the hint-replay messages to send
    /// to it.
    pub fn mark_up(&mut self, peer: NodeId) -> Vec<Outbound> {
        self.down.remove(&peer);
        self.drain_hints_for(peer)
    }

    pub(super) fn park_hint(&mut self, peer: NodeId, key: Bytes, value: Option<Summed>) {
        self.hints.entry(peer).or_default().push((key, value));
    }

    /// Drains every hint parked for `peer` into `HintReplay` outbounds.
    pub(super) fn drain_hints_for(&mut self, peer: NodeId) -> Vec<Outbound> {
        let replay = |(key, value)| Outbound::hint_replay(peer, key, value);
        self.take_hints_for(peer).into_iter().map(replay).collect()
    }

    /// Removes and returns the hints parked for `peer` without sending
    /// or counting them dropped: the sim driver moves them into a
    /// durable spool when `peer`'s whole ring is inside a disaster
    /// window, so a later crash of *this* node cannot lose them.
    pub(crate) fn take_hints_for(&mut self, peer: NodeId) -> Vec<(Bytes, Option<Summed>)> {
        self.hints.remove(&peer).unwrap_or_default()
    }

    /// Drops every hint parked for `peer` (permanent departure:
    /// replaying them would misdirect writes meant for the departed
    /// node's tokens, whose new owners are re-replicated explicitly).
    /// Returns the number dropped.
    pub fn drop_hints_for(&mut self, peer: NodeId) -> usize {
        let dropped = self.take_hints_for(peer).len();
        self.stats.recovery.hints_dropped += dropped as u64;
        dropped
    }
}
