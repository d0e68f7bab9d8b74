//! Every end-of-run counter the store keeps, declared once.
//!
//! A counter is one line of the [`ef_simcore::counters!`] table below:
//! its meaning, how two readings fold (`sum` saturating, `max`) and its
//! class. `routine` counters accrue on healthy traffic once their feature
//! is armed; a non-zero `fault` counter means something went wrong or a
//! mitigation acted. `merge`, `is_quiet` and `fields()` are generated
//! from the line, so a new counter cannot be left out of a fold, a
//! quietness check or a report (DESIGN.md "Counters" is this table,
//! printed).

use ef_simcore::counters;

counters! {
    /// What a coordinator does about ops that did not complete cleanly.
    pub struct CoordinatorStats {
        /// Ops resolved by the per-op timeout.
        timeouts: sum fault,
        /// Retransmission rounds issued for outstanding requests.
        retries: sum fault,
        /// Check-and-inserts that completed degraded ("assume unique":
        /// at worst a redundant upload, never data loss).
        degraded_ops: sum fault,
        /// Read-repair writes sent to replicas that answered stale.
        repairs_sent: sum fault,
    }

    /// Counters from the crash-recovery pipeline: WAL replay, anti-entropy
    /// repair, re-replication and dead-peer handling. All counters are
    /// cumulative over the run and fully deterministic for a fixed seed.
    pub struct RecoveryStats {
        /// WAL records replayed across all node restarts.
        wal_records_replayed: sum fault,
        /// Node restarts completed (WAL recovered, rejoined the ring).
        restarts: sum fault,
        /// Anti-entropy rounds executed.
        antientropy_rounds: sum fault,
        /// Divergent Merkle buckets repaired.
        buckets_repaired: sum fault,
        /// Entries streamed by anti-entropy repair.
        entries_repaired: sum fault,
        /// Entries re-replicated to new owners after permanent departures.
        rereplicated_entries: sum fault,
        /// Hints dropped because their target permanently departed.
        hints_dropped: sum fault,
        /// Dead declarations across all observers (suspect → dead edges).
        dead_declared: sum fault,
    }

    /// Counters of everything the integrity layer detected, repaired, or
    /// declared lost. Zero across the board for a clean run.
    pub struct IntegrityStats {
        /// Wire frames whose checksum failed on delivery (dropped; the
        /// sender's retry machinery re-sends).
        frames_rejected: sum fault,
        /// Stored entries the background scrub verified.
        entries_scrubbed: sum fault,
        /// Bytes of key+value payload the scrub verified.
        scrub_bytes: sum fault,
        /// Checksum mismatches found at any storage read boundary (scrub,
        /// local read, replica read).
        mismatches_found: sum fault,
        /// Corrupt entries restored from a clean ring replica.
        read_repairs: sum fault,
        /// Corrupt entries restored by decoding the cloud catalog.
        cloud_decodes: sum fault,
        /// Replicas quarantined after repeated verification failures.
        quarantines: sum fault,
        /// Corrupt entries no surviving replica or catalog could restore —
        /// explicitly declared lost, never silently accepted.
        lost_records: sum fault,
        /// WAL tails truncated to their last valid record at recovery (a
        /// partial final record — a mid-write crash).
        torn_tails_truncated: sum fault,
        /// Recoveries that fell back to the prior snapshot after the current
        /// snapshot failed its checksum.
        snapshot_fallbacks: sum fault,
        /// Restarts abandoned because the WAL body (not just the tail) was
        /// corrupt beyond the snapshot fallback.
        wal_corrupt_bodies: sum fault,
    }

    /// Hit/miss/eviction counters for a
    /// [`FingerprintCache`](crate::FingerprintCache), reported up through
    /// `SystemMetrics`. Cache traffic is never fault activity.
    pub struct CacheStats {
        /// Lookups answered locally (duplicate confirmed without a ring trip).
        hits: sum routine,
        /// Lookups that fell through to the ring.
        misses: sum routine,
        /// Entries evicted by the per-shard capacity bound.
        evictions: sum routine,
        /// Entries inserted (first sight of a fingerprint on this node).
        insertions: sum routine,
        /// Insertions deferred by the second-sight admission policy (always
        /// zero when the policy is off).
        deferred: sum routine,
        /// Entries invalidated by `FingerprintCache::remove` — e.g. when
        /// the peer whose possession claim admitted them was quarantined.
        invalidations: sum routine,
    }

    /// Counters from the gray-failure mitigation layer: hedged lookups,
    /// priority-classed load shedding, queue pressure and timeout
    /// adaptation. Passive observation (RTT samples, adapted timers, the
    /// queue high-water mark) accrues on every op once the mitigations
    /// are enabled; active mitigation — hedges, sheds, gray marks — is
    /// fault activity.
    pub struct GrayFailureStats {
        /// Speculative hedge requests dispatched to a backup replica.
        hedges_fired: sum fault,
        /// Hedges whose response soundly completed the op before the
        /// primaries answered.
        hedges_won: sum fault,
        /// Background rounds (anti-entropy, scrub) that yielded to uplink
        /// backpressure instead of running.
        sheds_background: sum fault,
        /// Client operations refused at admission because the coordinator's
        /// pending queue was at its bound.
        sheds_critical: sum fault,
        /// High-water mark of any coordinator's pending-op queue depth.
        queue_peak: max routine,
        /// Round-trip samples folded into the adaptive estimators.
        rtt_samples: sum routine,
        /// RTO timers armed from a measured (adapted) estimate rather than
        /// the static policy base.
        rto_adaptations: sum routine,
        /// Peers newly marked slow (gray) by the RTT-driven detector.
        slow_marks: sum fault,
    }

    /// Disaster-tolerance counters. All-zero unless a cloud uplink was
    /// enabled or a disaster was injected. Spool enqueue/drain traffic
    /// accrues on every unique chunk once the uplink is enabled; outage
    /// windows, ring wipes, retransmits, spooled hints and repairs are
    /// fault activity.
    pub struct DisasterStats {
        /// Entries accepted into upload spools.
        spool_enqueued: sum routine,
        /// Entries fully drained (cloud-acked or hint-delivered).
        spool_drained: sum routine,
        /// Re-sent entries: a transfer whose earlier frame was lost,
        /// blacked out, or corrupted (resumability in action).
        spool_retransmits: sum fault,
        /// Entries still pending at observation time.
        spool_depth: sum routine,
        /// Entries still pending when a ring wipe or departure destroyed
        /// their spool's disk: never drained by the spool that held them.
        spool_burned: sum fault,
        /// Highest pending-entry count any spool ever reached.
        spool_high_water: max routine,
        /// Payload bytes accepted into spools.
        spool_bytes_enqueued: sum routine,
        /// Payload bytes fully drained.
        spool_bytes_drained: sum routine,
        /// Hints moved off a volatile heap into a durable spool because
        /// their target sat inside a ring-outage window.
        hints_spooled: sum fault,
        /// Chunks rebuilt from a neighbor ring during mesh repair.
        mesh_repairs: sum fault,
        /// Chunks no neighbor held, rebuilt from the cloud catalog.
        cloud_repairs: sum fault,
        /// Payload bytes fetched from neighbor rings.
        repair_bytes_mesh: sum fault,
        /// Payload bytes fetched from the cloud catalog.
        repair_bytes_cloud: sum fault,
        /// Accumulated SNOD2 wire cost (milliseconds, rounded) of mesh
        /// repair round-trips; with `repair_cost_cloud_ms` this prices a
        /// neighbor-ring hit below a cloud round-trip.
        repair_cost_mesh_ms: sum fault,
        /// Accumulated wire cost (milliseconds, rounded) of cloud-fallback
        /// repair round-trips.
        repair_cost_cloud_ms: sum fault,
        /// Edge sites wiped by ring outages.
        ring_wipes: sum fault,
        /// Cloud-outage windows registered with the cluster.
        outage_windows: sum fault,
        /// Worst observed heal-to-repair-delivery latency in nanoseconds
        /// (time-to-recovery for a wiped ring).
        recovery_ns_max: max fault,
    }

    /// Byzantine-defense counters. All-zero unless proof-of-possession was
    /// enabled. Possession checks issued and passed are the routine price
    /// of armed PoP; failed checks, rejected claims, strikes and
    /// quarantines mean a peer actually lied.
    pub struct ByzantineStats {
        /// Possession checks: remote positive sightings judged against
        /// the coordinator's payload, one per sighting.
        challenges_issued: sum routine,
        /// Possession checks whose returned bytes were the payload.
        challenges_passed: sum routine,
        /// Possession checks whose returned bytes were not the payload —
        /// the sighting was reverted, never trusted.
        challenges_failed: sum fault,
        /// Duplicate verdicts that would have been false: a positive
        /// sighting rejected by proof of possession with no honest replica
        /// confirming the claim.
        false_claims_rejected: sum fault,
        /// Peer-served repair/restore bytes rejected by content-address
        /// verification before reaching a store.
        poisoned_bytes_rejected: sum fault,
        /// Bogus hint-replay frames suppressed at delivery.
        hint_floods_suppressed: sum fault,
        /// Anti-entropy summaries contradicted by their own stream.
        equivocations_detected: sum fault,
        /// Strikes charged to peers for provable lies.
        liar_strikes: sum fault,
        /// Peers quarantined after crossing the strike threshold.
        liars_quarantined: sum fault,
        /// Fingerprint-cache entries invalidated because their source peer
        /// was later quarantined for lying.
        cache_invalidations: sum fault,
        /// Repair fetches re-issued to the next-rarest holder (or the
        /// cloud catalog) after a poisoned response.
        refetches: sum fault,
    }
}

impl CacheStats {
    /// Hit fraction over all lookups, 0.0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits.saturating_add(self.misses);
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Everything a node counts for itself, as one value: what
/// [`NodeState::stats`](crate::NodeState::stats) reports and what
/// `SimCluster` folds — whole — when it tears the node down, so nothing a
/// node counted is lost with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeStats {
    /// Timeouts, retries, degraded verdicts and read repairs of the ops
    /// this node coordinated.
    pub coordinator: CoordinatorStats,
    /// WAL records replayed at this node's recovery; hints it dropped and
    /// entries it re-replicated on confirmed departures.
    pub recovery: RecoveryStats,
    /// Checksum mismatches caught serving reads, and scrub/repair work
    /// the driver attributed to this node.
    pub integrity: IntegrityStats,
    /// Hedges this coordinator's backup replica won.
    pub gray: GrayFailureStats,
    /// Proof-of-possession verdicts at this coordinator.
    pub byzantine: ByzantineStats,
}

impl NodeStats {
    /// Folds `other` into `self`, family by family. The pattern is
    /// exhaustive, so a family added to the struct does not compile until
    /// it is folded here — teardown cannot leak it.
    pub fn merge(&mut self, other: &NodeStats) {
        let NodeStats {
            coordinator,
            recovery,
            integrity,
            gray,
            byzantine,
        } = other;
        self.coordinator.merge(coordinator);
        self.recovery.merge(recovery);
        self.integrity.merge(integrity);
        self.gray.merge(gray);
        self.byzantine.merge(byzantine);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ef_simcore::prop::{any, check, vec};
    use ef_simcore::stats::{Class, Fold};

    /// The laws a family obeys whatever its counters are, read off its own
    /// `fields()`: a counter added to the table is covered the moment it
    /// is declared.
    macro_rules! laws {
        ($family:ident) => {{
            let merged = |mut a: $family, b: &$family| {
                a.merge(b);
                a
            };
            let zero = $family::default();
            let n = zero.fields().count();
            assert!(zero.is_quiet());
            for (i, decl) in zero.fields().enumerate() {
                let mut one = vec![0; n];
                one[i] = 1;
                let one = $family::from_values(&one);
                let what = format!("{}::{}", decl.family, decl.name);
                assert_eq!(one.fields().map(|c| c.value).sum::<u64>(), 1, "{what}");
                assert_eq!(one.is_quiet(), decl.class == Class::Routine, "{what}");
                let twice = merged(one, &one).fields().nth(i).map(|c| c.value);
                let want = match decl.fold {
                    Fold::Sum => 2,
                    Fold::Max => 1,
                };
                assert_eq!(twice, Some(want), "{what}");
            }
            // Small readings and readings near the top, so sums both add
            // and saturate.
            let readings = || vec((any::<bool>(), any::<u64>()), n..n + 1);
            check(
                concat!(stringify!($family), " merge laws"),
                64,
                (readings(), readings(), readings()),
                |(a, b, c)| {
                    let [a, b, c] = [a, b, c].map(|readings| {
                        let small = |(big, v): &(bool, u64)| if *big { *v } else { *v % 1000 };
                        $family::from_values(&readings.iter().map(small).collect::<Vec<_>>())
                    });
                    assert_eq!(merged(a, &b), merged(b, &a));
                    assert_eq!(merged(merged(a, &b), &c), merged(a, &merged(b, &c)));
                    assert_eq!(merged(a, &zero), a);
                    for ((m, x), y) in merged(a, &b).fields().zip(a.fields()).zip(b.fields()) {
                        let want = match m.fold {
                            Fold::Sum => x.value.saturating_add(y.value),
                            Fold::Max => x.value.max(y.value),
                        };
                        assert_eq!(m.value, want, "{}::{}", m.family, m.name);
                    }
                },
            );
        }};
    }

    #[test]
    fn every_family_merges_and_goes_quiet_as_declared() {
        laws!(CoordinatorStats);
        laws!(RecoveryStats);
        laws!(IntegrityStats);
        laws!(CacheStats);
        laws!(GrayFailureStats);
        laws!(DisasterStats);
        laws!(ByzantineStats);
    }
}
