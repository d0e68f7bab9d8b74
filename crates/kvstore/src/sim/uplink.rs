//! The uplink machine: the road to the cloud and back — durable upload
//! spools, the cloud catalog, outage windows, ring wipe/heal and mesh
//! repair.
//!
//! **State:** uplink config, one log-backed [`UploadSpool`] per member,
//! payloads of in-flight check-and-inserts, the cloud catalog, cloud- and
//! ring-outage windows, heal times, mesh-repair fetches awaiting verified
//! bytes, [`DisasterStats`]. **Events:** `Round(SpoolDrain)`, `RingWipe`,
//! `RingHeal`; terminates `CloudUpload` / `CloudUploadAck` frames.
//! **Emits:** `CloudUpload`, `CloudUploadAck`, `RepairRequest`, spooled
//! and cloud-decoded `HintReplay`s.

use super::{Disk, Event, Round, SimCluster, Windows};
use crate::counters::DisasterStats;
use crate::integrity::Summed;
use crate::msg::{Message, OpResult, Outbound};
use crate::node::NodeState;
use crate::spool::{SpoolClass, SpoolDest, UploadSpool};
use bytes::Bytes;
use ef_netsim::{NodeId, SiteId};
use ef_simcore::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Records per spool-log segment: space comes back a segment at a time,
/// so a long outage's spool footprint stays bounded by the *pending*
/// entries, not the full enqueue/retire history.
const SPOOL_SNAPSHOT_EVERY: u64 = 64;

/// Configuration of the durable-spool cloud uplink.
///
/// The cloud node is *not* a ring member: `CloudUpload` frames terminate
/// at the driver's catalog and are answered with a `CloudUploadAck` over
/// the same wire (real latency, loss and corruption both ways).
#[derive(Debug, Clone, Copy)]
pub struct CloudUplink {
    /// The cloud catalog node frames are addressed to.
    pub cloud: NodeId,
    /// Payload-byte cap per node per drain tick (the bandwidth cap).
    pub byte_cap: u64,
    /// Interval between drain rounds.
    pub tick: SimDuration,
}

#[derive(Debug, Default)]
pub(super) struct Uplink {
    /// Cloud uplink drain configuration (None until enabled).
    pub(super) config: Option<CloudUplink>,
    /// Durable log-backed upload spools, one per member (populated when
    /// a cloud uplink is enabled). A spool survives its node's
    /// crash-stop — it lives on the disk — but a ring wipe burns it.
    spools: BTreeMap<NodeId, UploadSpool>,
    /// Driver-side cloud catalog: payloads that completed the uplink
    /// trip. The erasure-coded cloud tier of the paper, modeled as the
    /// ground-truth durable copy.
    cloud_store: BTreeMap<Bytes, Bytes>,
    /// Registered cloud-outage windows (uplink unusable while open).
    cloud_outages: Windows<()>,
    /// Registered ring-outage windows, by wiped site.
    ring_outages: Windows<SiteId>,
    /// When each wiped-then-healed node rejoined, for time-to-recovery
    /// accounting (entries persist to the end of the run).
    healed_at: BTreeMap<NodeId, SimTime>,
    /// Mesh-repair fetches awaiting verified bytes: (key, healing target)
    /// → surviving holders not yet tried. A poisoned response re-fetches
    /// from the next candidate (then the cloud catalog).
    pub(super) pending_repairs: BTreeMap<(Bytes, NodeId), Vec<NodeId>>,
    /// Driver-level disaster counters, plus what destroyed spools had
    /// counted (`forget_node`); the live spools keep their own `spool_*`
    /// ones and `disaster_stats` merges them in.
    stats: DisasterStats,
}

impl Uplink {
    /// Upload-spool population at completion: a unique verdict means this
    /// chunk's payload must eventually reach the cloud catalog. It is
    /// appended to the coordinator's durable spool *now* — the client ack
    /// (this very completion) never waits on the uplink — and drained
    /// under the bandwidth cap by `Round(SpoolDrain)`. Degraded
    /// assume-unique verdicts spool too: at worst a redundant upload,
    /// never a chunk the cloud is missing. Without an uplink there is no
    /// spool and nothing happens.
    pub(super) fn spool_unique(
        &mut self,
        coordinator: NodeId,
        key: Bytes,
        value: Summed,
        result: &OpResult,
    ) {
        if matches!(result, OpResult::Dedup { unique: true, .. }) {
            if let Some(spool) = self.spools.get_mut(&coordinator) {
                let (class, dest) = (SpoolClass::Critical, SpoolDest::Cloud);
                spool.enqueue_summed(class, dest, key, Some(value));
            }
        }
    }

    /// A `CloudUploadAck` came back clean: retire `node`'s spool entry.
    pub(super) fn retire(&mut self, node: NodeId, key: &[u8]) {
        if let Some(spool) = self.spools.get_mut(&node) {
            spool.retire_cloud(key);
        }
    }

    /// Time-to-recovery: a repair or hint payload landing on a node
    /// healed after a ring wipe advances the worst-case observed
    /// heal-to-delivery latency.
    pub(super) fn note_replay_landed(&mut self, to: NodeId, now: SimTime) {
        if let Some(&healed) = self.healed_at.get(&to) {
            let ns = now.saturating_since(healed).as_nanos();
            self.stats.recovery_ns_max = self.stats.recovery_ns_max.max(ns);
        }
    }

    /// Teardown bookkeeping for a destroyed disk: the spool burns with it.
    /// What it had counted is kept, the way `teardown` keeps a node's
    /// counters, and what was still pending is counted burned.
    pub(super) fn forget_node(&mut self, node: NodeId) {
        if let Some(spool) = self.spools.remove(&node) {
            let mut counted = spool.stats();
            counted.spool_burned = std::mem::take(&mut counted.spool_depth);
            self.stats.merge(&counted);
        }
        self.healed_at.remove(&node);
    }
}

impl SimCluster {
    /// Enables the durable upload spool and its cloud uplink: every
    /// unique check-and-insert verdict appends the chunk payload to the
    /// coordinator's log-backed spool (the client ack never waits on the
    /// cloud), and every `tick` each live node drains up to `byte_cap`
    /// payload bytes of spooled uploads to `cloud`, highest priority
    /// class first. An entry retires only when its `CloudUploadAck`
    /// returns clean — lost or corrupted frames are retransmitted on a
    /// later round, so drains are resumable across outages and crashes.
    ///
    /// `cloud` must be a node in the topology that is *not* a ring
    /// member (frames to it terminate at the driver's catalog).
    ///
    /// Call before `run`; the first drain round fires one `tick` from
    /// now.
    ///
    /// # Panics
    ///
    /// Panics when already enabled, `cloud` is a ring member or outside
    /// the topology, `byte_cap` is zero, or `tick` is zero.
    pub fn enable_cloud_uplink(&mut self, cloud: NodeId, byte_cap: u64, tick: SimDuration) {
        assert!(self.uplink.config.is_none(), "cloud uplink already enabled");
        assert!(
            cloud.index() < self.network.topology().node_count(),
            "cloud node {cloud} not in topology"
        );
        assert!(
            !self.nodes.contains_key(&cloud),
            "cloud node {cloud} must not be a ring member"
        );
        assert!(byte_cap > 0, "byte cap must be positive");
        assert!(!tick.is_zero(), "tick must be positive");
        self.uplink.config = Some(CloudUplink {
            cloud,
            byte_cap,
            tick,
        });
        for &id in self.nodes.keys() {
            self.uplink
                .spools
                .insert(id, UploadSpool::new(SPOOL_SNAPSHOT_EVERY));
        }
        self.sim
            .schedule_after(tick, Event::Round(Round::SpoolDrain));
    }

    /// Registers a cloud-outage window `[from, until)`: spool drains are
    /// suspended while it is open (uniques keep accumulating durably).
    /// The matching uplink blackout in the network fault plan is
    /// installed by [`ChaosScenario::fault_plan`](crate::ChaosScenario)
    /// — this call only drives the driver-side drain schedule.
    ///
    /// # Panics
    ///
    /// Panics when the window is empty.
    pub fn cloud_outage_at(&mut self, from: SimTime, until: SimTime) {
        self.uplink.cloud_outages.push(from, until, ());
        self.uplink.stats.outage_windows += 1;
    }

    /// Registers a ring disaster: at `from` every node in `site` loses
    /// volatile state, disk *and* spool; at `until` the site's nodes
    /// rejoin empty and are rebuilt by mesh repair from neighbor rings,
    /// falling back to the cloud catalog for chunks no neighbor holds.
    ///
    /// # Panics
    ///
    /// Panics when the window is empty.
    pub fn ring_outage_at(&mut self, from: SimTime, until: SimTime, site: SiteId) {
        self.uplink.ring_outages.push(from, until, site);
        self.sim.schedule_at(from, Event::RingWipe { site });
        self.sim.schedule_at(until, Event::RingHeal { site });
    }

    /// Disaster-tolerance counters: spool depth and drain totals,
    /// mesh-vs-cloud repair counts and bytes, outage windows and
    /// time-to-recovery. All zeros unless a cloud uplink was enabled or
    /// a disaster was injected.
    pub fn disaster_stats(&self) -> DisasterStats {
        let mut total = self.uplink.stats;
        for spool in self.uplink.spools.values() {
            total.merge(&spool.stats());
        }
        total
    }

    /// The simulator's key → payload mirror of what the uplink delivered
    /// so far: what the sweeps' held-somewhere clause reads. The durable
    /// cloud tier itself is `ef-cloudstore`'s `DurableStore`; a test that
    /// wants one loads it from this map.
    pub fn cloud_catalog(&self) -> &BTreeMap<Bytes, Bytes> {
        &self.uplink.cloud_store
    }

    /// The durable upload spool of `node`, if the uplink is enabled and
    /// the node still owns one (a ring wipe destroys it).
    pub fn spool(&self, node: NodeId) -> Option<&UploadSpool> {
        self.uplink.spools.get(&node)
    }

    /// A spooled upload survived the wire: catalog the payload and ack
    /// the sender. The ack rides the same faulty network back — loss or
    /// rot leaves the spool entry pending, and a later drain round
    /// retransmits it (resumable transfers).
    pub(super) fn cloud_ingest(&mut self, now: SimTime, from: NodeId, key: Bytes, value: Summed) {
        let Some(uplink) = self.uplink.config else {
            return; // stray frame with no uplink configured
        };
        self.uplink
            .cloud_store
            .insert(key.clone(), value.into_bytes());
        let ack = Outbound {
            to: from,
            msg: Message::CloudUploadAck { key },
        };
        self.dispatch(now, uplink.cloud, vec![ack]);
    }

    /// One `Round(SpoolDrain)`: park hints addressed to wiped rings
    /// durably, replay spooled hints whose targets are reachable again,
    /// then (outside cloud-outage windows) send each live node's next
    /// priority-ordered batch of cloud uploads.
    pub(super) fn spool_drain_round(&mut self, now: SimTime) {
        let Some(uplink) = self.uplink.config else {
            return;
        };
        // Hint sweep: volatile hints addressed to a ring inside an open
        // outage window move into the holder's durable spool — a later
        // crash of the hint holder can no longer lose them, and they
        // replay from the spool once the site heals.
        let topology = self.network.topology();
        let wiped: BTreeSet<NodeId> = self
            .uplink
            .ring_outages
            .open_at(now)
            .flat_map(|&site| topology.nodes_in(site).iter().copied())
            .collect();
        let cloud_out = self.uplink.cloud_outages.open_at(now).next().is_some();
        let holders: Vec<NodeId> = self.uplink.spools.keys().copied().collect();
        for node in holders {
            // A crashed, wiped or departed holder cannot transmit; its
            // durable spool waits for the restart or heal.
            if !self.is_serving(node) {
                continue;
            }
            let (Some(state), Some(spool)) =
                (self.nodes.get_mut(&node), self.uplink.spools.get_mut(&node))
            else {
                continue;
            };
            for &target in &wiped {
                for (key, value) in state.take_hints_for(target) {
                    let (class, dest) = (SpoolClass::Background, SpoolDest::Node(target));
                    if spool.enqueue_summed(class, dest, key, value) {
                        self.uplink.stats.hints_spooled += 1;
                    }
                }
            }
            // Replay spooled hints whose target is reachable again.
            for target in spool.node_dests() {
                if !self.is_serving(target) {
                    continue;
                }
                let Some(spool) = self.uplink.spools.get_mut(&node) else {
                    break;
                };
                let outbound = spool
                    .take_for_node(target)
                    .into_iter()
                    .map(|e| Outbound::hint_replay(target, e.key.clone(), e.summed()))
                    .collect();
                self.dispatch(now, node, outbound);
            }
            // Cloud uploads pause during an outage window; the spool
            // keeps absorbing uniques durably meanwhile.
            if cloud_out {
                continue;
            }
            let Some(spool) = self.uplink.spools.get_mut(&node) else {
                continue;
            };
            let outbound = spool
                .plan_uploads(uplink.byte_cap)
                .into_iter()
                .map(|(key, value)| Outbound {
                    to: uplink.cloud,
                    msg: Message::CloudUpload { key, value },
                })
                .collect();
            self.dispatch(now, node, outbound);
        }
    }

    /// `RingWipe`: opens a ring-outage window. Every member in `site`
    /// loses its volatile state, its disk (parked or live) *and* its
    /// durable spool — the total-site-loss disaster mesh repair exists
    /// for. In-flight ops resolve and the nodes' counters are kept
    /// (`teardown`) on the way down.
    pub(super) fn ring_wipe(&mut self, now: SimTime, site: SiteId) {
        self.uplink.stats.ring_wipes += 1;
        for node in self.site_members(site) {
            self.teardown(now, node, Disk::Destroyed);
        }
    }

    /// `site`'s nodes that are still ring members (live or down).
    fn site_members(&self, site: SiteId) -> Vec<NodeId> {
        let nodes = self.network.topology().nodes_in(site).iter().copied();
        nodes
            .filter(|n| self.ring.contains(*n) && !self.membership.departed.contains(n))
            .collect()
    }

    /// `RingHeal`: closes a ring-outage window. The wiped members rejoin
    /// with fresh empty state (no WAL survived, so recovery is pure
    /// repair traffic), resuming above every op id they ever issued, and
    /// the driver orchestrates mesh repair from neighbor rings.
    pub(super) fn ring_heal(&mut self, now: SimTime, site: SiteId) {
        let mut healed = self.site_members(site);
        healed.retain(|n| !self.nodes.contains_key(n));
        let mut rejoining = Vec::new();
        for &node in &healed {
            let mut state = NodeState::new(node, self.ring.clone(), &self.config);
            if let Some(&floor) = self.membership.wiped_seq.get(&node) {
                state.resume_seq_from(floor);
            }
            rejoining.push((node, state));
            self.uplink.healed_at.insert(node, now);
            if self.uplink.config.is_some() {
                self.uplink
                    .spools
                    .insert(node, UploadSpool::new(SPOOL_SNAPSHOT_EVERY));
            }
        }
        self.bring_up(now, rejoining);
        self.mesh_repair(now, &healed);
    }

    /// Rebuilds healed nodes' shards. Every key the ring routes to a
    /// healed node is fetched rarest-first (fewest surviving holders
    /// first — those chunks are one more failure from gone) from the
    /// cheapest live holder by wire cost: a `RepairRequest` out, the
    /// holder's verified `HintReplay` back, both over the faulty billed
    /// network. Keys no neighbor ring holds fall back to the cloud
    /// catalog — a WAN round-trip, priced separately in
    /// [`DisasterStats`] so the mesh-vs-cloud economics stay visible.
    fn mesh_repair(&mut self, now: SimTime, healed: &[NodeId]) {
        if healed.is_empty() {
            return;
        }
        // Survey the survivors: who holds which key, and how large the
        // live copy is (`iter_live` skips tombstones deterministically).
        let mut holders: BTreeMap<Bytes, Vec<NodeId>> = BTreeMap::new();
        let mut sizes: BTreeMap<Bytes, u64> = BTreeMap::new();
        for (&id, state) in &self.nodes {
            if healed.contains(&id) || self.crashed.contains(&id) {
                continue;
            }
            for (key, value) in state.storage().iter_live() {
                sizes.entry(key.clone()).or_insert(value.len() as u64);
                holders.entry(key).or_default().push(id);
            }
        }
        // Work list: (surviving-holder count, key, healed target).
        let mut work: Vec<(usize, Bytes, NodeId)> = Vec::new();
        let keys: BTreeSet<&Bytes> = holders
            .keys()
            .chain(self.uplink.cloud_store.keys())
            .collect();
        for key in keys {
            for target in self.ring.replicas(key, self.config.replication_factor) {
                if healed.contains(&target) {
                    let rarity = holders.get(key).map_or(0, Vec::len);
                    work.push((rarity, key.clone(), target));
                }
            }
        }
        // Rarest first; ties break by key then target for determinism.
        work.sort();
        for (_, key, target) in work {
            let candidates = holders.get(&key).cloned().unwrap_or_default();
            if self.fetch_from_mesh(now, &key, target, candidates) {
                self.uplink.stats.repair_bytes_mesh += sizes.get(&key).copied().unwrap_or(0);
            } else {
                // No neighbor ring holds it: erasure-decode from the
                // cloud catalog. A chunk even the cloud lacks predates
                // the uplink; anti-entropy is its only path back.
                self.fetch_from_cloud(now, key, target);
            }
        }
    }

    /// Asks the cheapest serving holder among `candidates` for `key` on
    /// behalf of healing `target`, remembering the untried holders (while
    /// PoP is armed) so a poisoned replay can re-fetch from the next one.
    /// False when no candidate is left to ask.
    fn fetch_from_mesh(
        &mut self,
        now: SimTime,
        key: &Bytes,
        target: NodeId,
        mut candidates: Vec<NodeId>,
    ) -> bool {
        while let Some(source) = self.network.cheapest_source(&candidates, target) {
            candidates.retain(|&n| n != source);
            if !self.is_serving(source) {
                continue;
            }
            self.uplink.stats.mesh_repairs += 1;
            self.uplink.stats.repair_cost_mesh_ms +=
                self.network.repair_cost_ms(source, target).round() as u64;
            if self.trust.pop_seed.is_some() {
                self.uplink
                    .pending_repairs
                    .insert((key.clone(), target), candidates);
            }
            let msg = Message::RepairRequest { key: key.clone() };
            self.dispatch(now, target, vec![Outbound { to: source, msg }]);
            return true;
        }
        false
    }

    /// Decodes `key` from the cloud catalog for healing `target`, the WAN
    /// round-trip priced separately from mesh repair. False when the
    /// cloud lacks the chunk or no uplink is configured.
    fn fetch_from_cloud(&mut self, now: SimTime, key: Bytes, target: NodeId) -> bool {
        let (Some(value), Some(uplink)) = (
            self.uplink.cloud_store.get(&key).cloned(),
            self.uplink.config,
        ) else {
            return false;
        };
        self.uplink.stats.cloud_repairs += 1;
        self.uplink.stats.repair_bytes_cloud += value.len() as u64;
        self.uplink.stats.repair_cost_cloud_ms +=
            self.network.repair_cost_ms(uplink.cloud, target).round() as u64;
        // A read from the catalog's rest: the bytes are summed afresh.
        let replay = Outbound::hint_replay(target, key, Some(Summed::digest(value)));
        self.dispatch(now, uplink.cloud, vec![replay]);
        true
    }

    /// Re-fetches a mesh-repair chunk whose served bytes failed
    /// content-address verification: the next surviving holder by wire
    /// cost is asked, and when none remain the cloud catalog decodes it.
    pub(super) fn refetch_repair(&mut self, now: SimTime, key: Bytes, target: NodeId) {
        let Some(remaining) = self.uplink.pending_repairs.remove(&(key.clone(), target)) else {
            return;
        };
        if self.fetch_from_mesh(now, &key, target, remaining)
            || self.fetch_from_cloud(now, key, target)
        {
            self.trust.byz.refetches += 1;
        }
    }
}
