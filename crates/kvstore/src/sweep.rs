//! The one sweep harness and the one oracle every seeded fault family
//! answers to.
//!
//! A [`Family`] is plain data: a topology shape, a
//! [`ChaosScenarioConfig`], keys × repeats × seeds, one `arm` function
//! (ordinary `enable_*` calls) and one `chunk(k)` function. [`run`] rigs
//! the network, builds and arms the [`SimCluster`], applies the scenario,
//! submits the fixed schedule and drives the cluster to the family's
//! stop; [`check`] holds the result to the clauses all families share
//! ([`CLAUSES`]); [`assert_replays`] is the replay clause. What is a
//! family's own — poisoned bytes, the repair lattice, the hedged tail,
//! the spool-log bound, non-vacuity — stays with its sweep
//! (DESIGN.md "Testing strategy" prints [`Family::all`] × [`CLAUSES`]).

use crate::chaos::{nth_op_id, ChaosEvent, ChaosScenario, ChaosScenarioConfig};
use crate::cluster::ClusterConfig;
use crate::msg::{ClientOp, OpId, OpResult};
use crate::sim::{OpLatency, SimCluster};
use bytes::Bytes;
use ef_chunking::ChunkHash;
use ef_netsim::{Network, NetworkConfig, NodeId, TopologyBuilder};
use ef_simcore::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Merkle depth of the recovery family's anti-entropy and of its
/// convergence check.
pub const RECOVERY_MERKLE_DEPTH: u32 = 6;

/// What the byzantine family XORs into a run's seed to seed its
/// proof-of-possession challenges.
pub const POP_SEED_SALT: u64 = 0x5050_5eed;

/// How a key's coordinator moves from one repeat to the next. Either way
/// a coordinator the scenario has crash-stopped or departed at submission
/// time is skipped for the next member in rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Repeat `r` of key `k` goes through member `k + r`: every duplicate
    /// check consults the ring from a fresh vantage point.
    Rotate,
    /// Every repeat but the last reuses member `k` (the second pass is
    /// the fingerprint cache's local verdict); the last shifts by one so
    /// cross-coordinator duplicates still traverse the ring.
    Sticky,
}

/// When a run ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At three scenario windows: the window plus the worst-case RTO
    /// chain of both check-and-insert phases, with slack.
    Horizon,
    /// When every op has resolved and then, in 500 ms steps, the
    /// predicate holds (a minute without it fails the run).
    Settled(fn(&mut SimCluster, &ChaosScenario) -> bool),
}

/// One fault family, as data.
pub struct Family<'a> {
    /// The family's name in messages and in the generated table.
    pub name: &'static str,
    /// Nodes per edge site.
    pub edge_sites: &'static [usize],
    /// Whether one single-node cloud site is attached.
    pub cloud: bool,
    /// The fault mix drawn per seed.
    pub scenario: ChaosScenarioConfig,
    /// Distinct chunks per run.
    pub keys: u32,
    /// Check-and-inserts per chunk.
    pub repeats: u32,
    /// Seeds the family's sweep covers (`0..seeds`).
    pub seeds: u64,
    /// When the first op is submitted; the rest follow 211 ms apart.
    /// 13 ms in every family; only `chaos_demo` starts at zero, to print
    /// the run it always has — a constant once its output may move.
    pub first_op: SimDuration,
    /// The coordinator rotation.
    pub route: Route,
    /// When a run ends.
    pub stop: Stop,
    /// Whether a scheduled op may resolve `TimedOut` (a teardown can
    /// catch it mid-flight).
    pub timeouts_ok: bool,
    /// Whether a timeout stands for an insertion under a later duplicate
    /// verdict: the family's clients upload on it, as on a unique one.
    pub timeout_uploads: bool,
    /// Whether a scheduled op may resolve `Unavailable` (admission shed,
    /// or a coordinator inside a ring outage).
    pub unavailable_ok: bool,
    /// Arms the cluster: the family's `enable_*` calls, given the seed.
    pub arm: &'a dyn Fn(&mut SimCluster, u64),
    /// Chunk `k` as the (key, payload) a check-and-insert carries.
    pub chunk: &'a dyn Fn(u32) -> (Bytes, Bytes),
}

fn heartbeats(cluster: &mut SimCluster) {
    cluster.enable_heartbeats(SimDuration::from_millis(100), SimDuration::from_millis(350));
}

fn cloud_uplink(cluster: &mut SimCluster) {
    let cloud = cluster.network().topology().cloud_nodes()[0];
    cluster.enable_cloud_uplink(cloud, 64 * 1024, SimDuration::from_millis(50));
}

/// The recovery family's arming at a given anti-entropy interval (what
/// the `recovery_latency` figure sweeps): heartbeats that escalate
/// suspects to dead, so a departure rebuilds the ring.
pub fn arm_recovery(cluster: &mut SimCluster, anti_entropy: SimDuration) {
    cluster.enable_heartbeats_with_dead(
        SimDuration::from_millis(100),
        SimDuration::from_millis(350),
        SimDuration::from_millis(1200),
    );
    cluster.enable_anti_entropy(anti_entropy, RECOVERY_MERKLE_DEPTH);
}

/// Payload of the recovery family's chunk `k`; its ring key is the
/// payload's content address.
pub fn recovery_payload(k: u32) -> Bytes {
    Bytes::from(vec![(k % 251) as u8 ^ 0x5a; 96 + (k as usize % 17)])
}

/// The recovery family's fixpoint: every departed node evicted from the
/// master ring, the crash-stopped node restarted from its WAL and
/// observed converged, no replica pair divergent and no hint parked (hint
/// drain is eventual: a lossy round can skip a pair's exchange even after
/// the data has converged).
fn recovered(cluster: &mut SimCluster, scenario: &ChaosScenario) -> bool {
    let evicted = scenario
        .events()
        .iter()
        .all(|ev| !matches!(*ev, ChaosEvent::Depart { node, .. } if cluster.ring().contains(node)));
    evicted
        && cluster.recovery_stats().restarts == 1
        && cluster.recovery_latencies().len() == 1
        && cluster.total_hints() == 0
        && cluster.replica_divergence(RECOVERY_MERKLE_DEPTH) == 0
}

impl Family<'static> {
    /// The default crash/partition/loss mix with a tiny fingerprint cache
    /// (capacity 2 forces evictions): soundness must hold with cached
    /// duplicate verdicts in the mix.
    pub fn chaos() -> Self {
        Family {
            name: "chaos",
            edge_sites: &[2, 2, 2],
            cloud: false,
            scenario: ChaosScenarioConfig::default(),
            keys: 12,
            repeats: 3,
            seeds: 25,
            first_op: SimDuration::from_millis(13),
            route: Route::Sticky,
            stop: Stop::Horizon,
            timeouts_ok: false,
            timeout_uploads: false,
            unavailable_ok: false,
            arm: &|cluster, _| {
                heartbeats(cluster);
                cluster.enable_fingerprint_cache(1, 2);
            },
            chunk: &|k| {
                let key = Bytes::from(k.to_be_bytes().to_vec());
                (key.clone(), key)
            },
        }
    }

    /// Wire rot on every link, two at-rest rot strikes and a scrub at a
    /// byte budget, cache on.
    pub fn corruption() -> Self {
        Family {
            name: "corruption",
            scenario: ChaosScenarioConfig {
                storage_rots: 2,
                wire_rot: 0.02,
                ..ChaosScenarioConfig::default()
            },
            seeds: 20,
            arm: &|cluster, _| {
                heartbeats(cluster);
                cluster.enable_scrub(SimDuration::from_millis(250), 64 * 1024);
                cluster.enable_fingerprint_cache(1, 2);
            },
            ..Self::chaos()
        }
    }

    /// Two fail-slow nodes, a storage stall and a congested site pair
    /// under the whole mitigation stack.
    pub fn gray() -> Self {
        Family {
            name: "gray",
            scenario: ChaosScenarioConfig {
                slow_nodes: 2,
                storage_stalls: 1,
                congestions: 1,
                max_slow_factor: 12.0,
                ..ChaosScenarioConfig::default()
            },
            seeds: 24,
            route: Route::Rotate,
            unavailable_ok: true,
            arm: &|cluster, _| {
                heartbeats(cluster);
                cluster.enable_anti_entropy(SimDuration::from_millis(500), 4);
                cluster
                    .enable_adaptive_rto(SimDuration::from_micros(500), SimDuration::from_secs(1));
                cluster.enable_slow_detection(SimDuration::from_millis(20));
                cluster.enable_hedged_reads(256);
                cluster.enable_admission_control(64);
                cluster.enable_backpressure(SimDuration::from_millis(2));
            },
            ..Self::chaos()
        }
    }

    /// A cloud outage, a ring outage and a degraded uplink on the chaos
    /// mix, the spool draining to the cloud site.
    pub fn disaster() -> Self {
        Family {
            name: "disaster",
            cloud: true,
            scenario: ChaosScenarioConfig {
                crashes: 1,
                partitions: 1,
                loss_bursts: 1,
                cloud_outages: 1,
                ring_outages: 1,
                uplink_degrades: 1,
                ..ChaosScenarioConfig::default()
            },
            keys: 14,
            seeds: 20,
            route: Route::Rotate,
            unavailable_ok: true,
            arm: &|cluster, _| {
                heartbeats(cluster);
                cluster.enable_anti_entropy(SimDuration::from_millis(500), 4);
                cloud_uplink(cluster);
            },
            ..Self::chaos()
        }
    }

    /// Two composed liars (the tolerated strict minority of six) plus a
    /// ring outage, every defense layer armed.
    pub fn byzantine() -> Self {
        Family {
            name: "byzantine",
            scenario: ChaosScenarioConfig {
                crashes: 0,
                partitions: 0,
                loss_bursts: 0,
                base_loss: 0.0,
                ring_outages: 1,
                byzantine_liars: 2,
                ..ChaosScenarioConfig::default()
            },
            timeouts_ok: true,
            arm: &|cluster, seed| {
                cluster.enable_pop(seed ^ POP_SEED_SALT);
                heartbeats(cluster);
                cluster.enable_anti_entropy(SimDuration::from_millis(500), 4);
                cloud_uplink(cluster);
                cluster.enable_fingerprint_cache(4, 128);
                cluster.enable_hedged_reads(64);
            },
            chunk: &|k| {
                let bytes = |what: &str| Bytes::from(format!("{what}-{k}").into_bytes());
                (bytes("chunk"), bytes("payload"))
            },
            ..Self::disaster()
        }
    }

    /// One crash-stop (WAL kept) and one permanent departure on the chaos
    /// mix, run to the recovery fixpoint.
    pub fn recovery() -> Self {
        Family {
            name: "recovery",
            scenario: ChaosScenarioConfig {
                crash_stops: 1,
                departures: 1,
                ..ChaosScenarioConfig::default()
            },
            seeds: 26,
            route: Route::Rotate,
            stop: Stop::Settled(recovered),
            timeouts_ok: true,
            timeout_uploads: true,
            arm: &|cluster, _| arm_recovery(cluster, SimDuration::from_millis(700)),
            chunk: &|k| {
                let hash = ChunkHash::of(&recovery_payload(k));
                let key = Bytes::copy_from_slice(hash.as_bytes());
                (key.clone(), key)
            },
            ..Self::chaos()
        }
    }

    /// Every family, in the order the table prints them.
    pub fn all() -> [Self; 6] {
        [
            Self::chaos(),
            Self::corruption(),
            Self::gray(),
            Self::disaster(),
            Self::byzantine(),
            Self::recovery(),
        ]
    }
}

impl Family<'_> {
    /// The family's fault-free network on the paper-testbed links.
    pub fn network(&self) -> Network {
        let mut topo = TopologyBuilder::new();
        for &nodes in self.edge_sites {
            topo = topo.edge_site(nodes);
        }
        if self.cloud {
            topo = topo.cloud_site(1);
        }
        Network::new(topo.build(), NetworkConfig::paper_testbed())
    }
}

/// Which chunk each submitted check-and-insert carries. Coordinators
/// number their ops in event-time order, so a schedule submitted at
/// strictly increasing times predicts every op id.
#[derive(Debug, Default)]
pub struct Ledger {
    key_of: BTreeMap<OpId, u32>,
    next_seq: BTreeMap<NodeId, u64>,
}

impl Ledger {
    /// Submits a check-and-insert of chunk `k` at `at` through
    /// `coordinator`.
    pub fn submit(
        &mut self,
        cluster: &mut SimCluster,
        at: SimTime,
        coordinator: NodeId,
        k: u32,
        (key, payload): (Bytes, Bytes),
    ) {
        let seq = self.next_seq.entry(coordinator).or_insert(0);
        self.key_of.insert(nth_op_id(coordinator, *seq), k);
        *seq += 1;
        cluster.submit(at, coordinator, ClientOp::CheckAndInsert(key, payload));
    }

    /// Pairs each completion with the chunk it was submitted under.
    pub fn resolve(&self, done: Vec<OpLatency>) -> Vec<Completed> {
        let resolve = |op: OpLatency| Completed {
            key: self.key_of.get(&op.op_id).copied(),
            op,
        };
        done.into_iter().map(resolve).collect()
    }
}

/// One completion and the chunk index it was submitted under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completed {
    /// `None` for an op id the schedule never predicted: a submission
    /// that fired while its coordinator was torn down gets one
    /// synthesized from the top of the sequence space.
    pub key: Option<u32>,
    /// The completion.
    pub op: OpLatency,
}

/// What one seeded run left behind.
#[derive(Debug)]
pub struct Run {
    /// The run's seed.
    pub seed: u64,
    /// The fault schedule the seed drew.
    pub scenario: ChaosScenario,
    /// The cluster at the stop, for accounting.
    pub cluster: SimCluster,
    /// Completions in completion order.
    pub done: Vec<Completed>,
}

/// Whether the scenario has `node` crash-stopped or departed at `t`;
/// both endpoints of a crash-stop window count as absent, so the schedule
/// only routes through coordinators whose liveness is unambiguous.
fn absent_at(scenario: &ChaosScenario, node: NodeId, t: SimTime) -> bool {
    let mut stopped_at = None;
    for ev in scenario.events() {
        if let ChaosEvent::CrashStop { at, node: n } = *ev {
            if n == node {
                stopped_at = Some(at);
            }
        } else if let ChaosEvent::Restart { at, node: n } = *ev {
            if n == node && stopped_at.is_some_and(|start| t >= start && t <= at) {
                return true;
            }
        } else if let ChaosEvent::Depart { at, node: n } = *ev {
            if n == node && t >= at {
                return true;
            }
        }
    }
    false
}

/// Runs `family` at `seed`: every chunk is check-and-inserted
/// `family.repeats` times through rotating coordinators while the
/// scenario plays out. Transiently crashed coordinators are fair game —
/// their ops resolve through the retry machinery.
#[expect(
    clippy::expect_used,
    reason = "`generate` keeps at least two members clear of crash-stops and departures"
)]
pub fn run(seed: u64, family: &Family) -> Run {
    let mut net = family.network();
    let scenario = ChaosScenario::generate(seed, net.topology(), &family.scenario);
    scenario.rig(&mut net);
    let members = net.topology().edge_nodes();
    let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
    (family.arm)(&mut cluster, seed);
    scenario.apply(&mut cluster);

    let mut ledger = Ledger::default();
    let mut t = SimTime::ZERO + family.first_op;
    for rep in 0..family.repeats {
        let shift = match family.route {
            Route::Rotate => rep,
            Route::Sticky => u32::from(rep + 1 == family.repeats),
        };
        for k in 0..family.keys {
            let coordinator = (0..members.len())
                .map(|i| members[((k + shift) as usize + i) % members.len()])
                .find(|&c| !absent_at(&scenario, c, t))
                .expect("some coordinator is schedulable");
            ledger.submit(&mut cluster, t, coordinator, k, (family.chunk)(k));
            t += SimDuration::from_millis(211);
        }
    }
    let done = match family.stop {
        Stop::Horizon => cluster.run_until(SimTime::ZERO + family.scenario.duration * 3u64),
        Stop::Settled(settled) => {
            let mut done = cluster.run();
            let cap = cluster.now() + SimDuration::from_secs(60);
            while !settled(&mut cluster, &scenario) {
                let name = family.name;
                assert!(cluster.now() < cap, "seed {seed}: {name} never settled");
                done.extend(cluster.run_until(cluster.now() + SimDuration::from_millis(500)));
            }
            done
        }
    };
    Run {
        seed,
        scenario,
        done: ledger.resolve(done),
        cluster,
    }
}

/// Zero false duplicates: a duplicate verdict means a replica returned
/// the recorded value, which some check-and-insert of the same key,
/// begun no later, put there — an op that acked unique or, where
/// `timeout_uploads`, one a teardown caught mid-write and timed out.
/// Degradation can only produce false *uniques* (harmless double uploads).
#[expect(
    clippy::wildcard_enum_match_arm,
    reason = "an upload is a unique verdict or a tolerated timeout; no other outcome inserts"
)]
pub fn assert_no_false_duplicates(done: &[Completed], timeout_uploads: bool, run: &str) {
    let is_dup = |c: &&Completed| matches!(c.op.result, OpResult::Dedup { unique: false, .. });
    for dup in done.iter().filter(is_dup) {
        let Some(key) = dup.key else { continue };
        let inserted = done.iter().any(|c| {
            c.key == Some(key)
                && c.op.started <= dup.op.finished
                && match c.op.result {
                    OpResult::Dedup { unique, .. } => unique,
                    OpResult::TimedOut { .. } => timeout_uploads,
                    _ => false,
                }
        });
        assert!(
            inserted,
            "{run}: key {key} judged duplicate at {:?} but never inserted \
             — false duplicate (data loss)",
            dup.op.finished
        );
    }
}

/// One clause of the oracle every family answers to.
pub struct Clause {
    /// What the clause demands, as the table prints it.
    pub name: &'static str,
    /// The families it binds.
    pub binds: fn(&Family) -> bool,
    holds: fn(&Family, &mut Run),
}

/// The shared clauses, in the order [`check`] asserts them.
#[expect(
    clippy::wildcard_enum_match_arm,
    reason = "each clause names the outcomes it accepts and rejects or skips the rest"
)]
pub const CLAUSES: [Clause; 6] = [
    Clause {
        name: "every submitted op resolved and none is in flight",
        binds: |_| true,
        holds: |family, run| {
            let seed = run.seed;
            assert_eq!(
                run.cluster.inflight(),
                0,
                "seed {seed}: ops still in flight"
            );
            let submitted = (family.keys * family.repeats) as usize;
            assert_eq!(run.done.len(), submitted, "seed {seed}: ops unresolved");
        },
    },
    Clause {
        name: "an op id the schedule never predicted resolves unavailable, \
               and occurs only where rings are wiped",
        binds: |_| true,
        holds: |family, run| {
            for c in run.done.iter().filter(|c| c.key.is_none()) {
                assert!(
                    family.scenario.ring_outages > 0
                        && matches!(c.op.result, OpResult::Unavailable { .. }),
                    "seed {}: unmapped op id {:?} resolved {:?}",
                    run.seed,
                    c.op.op_id,
                    c.op.result
                );
            }
        },
    },
    Clause {
        name: "a scheduled check-and-insert resolves to a dedup verdict, or \
               times out / is unavailable only where the family tolerates it",
        binds: |_| true,
        holds: |family, run| {
            for c in run.done.iter().filter(|c| c.key.is_some()) {
                let legal = match c.op.result {
                    OpResult::Dedup { .. } => true,
                    OpResult::TimedOut { .. } => family.timeouts_ok,
                    OpResult::Unavailable { .. } => family.unavailable_ok,
                    _ => false,
                };
                let seed = run.seed;
                assert!(
                    legal,
                    "seed {seed}: check-and-insert resolved {:?}",
                    c.op.result
                );
            }
        },
    },
    Clause {
        name: "no key judged duplicate without a unique ack — or, where the \
               family's clients upload on a timeout, a timeout — of the same \
               key begun no later",
        binds: |_| true,
        holds: |family, run| {
            let what = format!("seed {}", run.seed);
            assert_no_false_duplicates(&run.done, family.timeout_uploads, &what);
        },
    },
    Clause {
        name: "every unique-acked key is held by the cloud catalog, a \
               pending spool entry or a live replica",
        binds: |family| family.cloud,
        holds: |family, run| {
            let members = run.cluster.network().topology().edge_nodes();
            let acked = run.done.iter().filter_map(|c| match c.op.result {
                OpResult::Dedup { unique: true, .. } => c.key,
                _ => None,
            });
            for key in acked.collect::<BTreeSet<u32>>() {
                let (kb, _) = (family.chunk)(key);
                let cluster = &mut run.cluster;
                let held = cluster.cloud_catalog().contains_key(&kb)
                    || members.iter().any(|&m| {
                        let spooled = |s: &crate::UploadSpool| s.pending().any(|e| e.key == kb);
                        cluster.spool(m).is_some_and(spooled)
                            || cluster
                                .node_mut(m)
                                .is_some_and(|n| n.storage_mut().get(&kb).is_some())
                    });
                let seed = run.seed;
                assert!(
                    held,
                    "seed {seed}: key {key} was acked unique but survives nowhere — lost chunk"
                );
            }
        },
    },
    Clause {
        name: "spool entries are conserved: enqueued = drained + pending + \
               burned, and every (coordinator, key) unique ack was enqueued",
        binds: |family| family.cloud,
        holds: |_, run| {
            let stats = run.cluster.disaster_stats();
            let seed = run.seed;
            assert_eq!(
                stats.spool_enqueued,
                stats.spool_drained + stats.spool_depth + stats.spool_burned,
                "seed {seed}: spool entries leaked: {stats:?}"
            );
            let acked = run.done.iter().filter_map(|c| match c.op.result {
                OpResult::Dedup { unique: true, .. } => Some((c.op.op_id.coordinator, c.key)),
                _ => None,
            });
            let acked = acked.collect::<BTreeSet<_>>().len() as u64;
            assert!(
                stats.spool_enqueued >= acked,
                "seed {seed}: {acked} unique acks but only {} spooled",
                stats.spool_enqueued
            );
        },
    },
];

/// The replay clause's name in the table; [`assert_replays`] holds it.
pub const REPLAY_CLAUSE: &str = "the same seed replays completions, every counter family, \
                                 the cloud catalog and the quarantine set bit-identically";

/// Holds `run` to every shared clause that binds `family`.
///
/// # Panics
///
/// Panics, naming the seed, on the first clause that does not hold.
pub fn check(family: &Family, run: &mut Run) {
    for clause in CLAUSES.iter().filter(|c| (c.binds)(family)) {
        (clause.holds)(family, run);
    }
}

/// The replay clause: two runs of `family` at `seed` leave the same
/// completions, the same counters in every family, the same cloud
/// catalog bytes and the same quarantine set.
pub fn assert_replays(seed: u64, family: &Family) {
    let trace = |run: Run| {
        let c = &run.cluster;
        let ring = (c.coordinator_stats(), c.recovery_stats(), c.integrity());
        let armed = (
            c.cache_stats(),
            c.gray_stats(),
            c.disaster_stats(),
            c.byzantine_stats(),
        );
        (
            run.done,
            ring,
            armed,
            c.cloud_catalog().clone(),
            c.quarantined(),
        )
    };
    let (a, b) = (trace(run(seed, family)), trace(run(seed, family)));
    assert!(a == b, "seed {seed}: replay diverged:\n{a:?}\n{b:?}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fault-free run of the disaster family's shape (cloud site,
    /// uplink armed): every shared clause binds it and nothing perturbs it.
    fn clean() -> (Family<'static>, Run) {
        let family = Family {
            scenario: ChaosScenarioConfig {
                crashes: 0,
                partitions: 0,
                loss_bursts: 0,
                base_loss: 0.0,
                ..ChaosScenarioConfig::default()
            },
            unavailable_ok: false,
            ..Family::disaster()
        };
        let run = run(3, &family);
        (family, run)
    }

    #[test]
    fn a_clean_run_passes_every_clause() {
        let (family, mut run) = clean();
        assert!(CLAUSES.iter().all(|c| (c.binds)(&family)));
        check(&family, &mut run);
        let verdicts = |unique| {
            let want = OpResult::Dedup {
                unique,
                degraded: false,
            };
            run.done.iter().filter(|c| c.op.result == want).count()
        };
        assert_eq!((verdicts(true), verdicts(false)), (14, 28));
        assert_replays(3, &family);
    }

    #[test]
    #[should_panic(expected = "but never inserted")]
    fn a_duplicate_verdict_with_no_unique_ack_fails() {
        let (family, mut run) = clean();
        // The byzantine family's case: key 0's insertion timed out, which
        // is tolerated as a result but is no ack behind its two duplicates.
        let family = Family {
            timeouts_ok: true,
            ..family
        };
        let acked = |c: &&mut Completed| {
            c.key == Some(0) && matches!(c.op.result, OpResult::Dedup { unique: true, .. })
        };
        for c in run.done.iter_mut().filter(acked) {
            c.op.result = OpResult::TimedOut {
                acks: 0,
                required: 1,
            };
        }
        check(&family, &mut run);
    }

    #[test]
    #[should_panic(expected = "survives nowhere")]
    fn a_unique_acked_key_held_nowhere_fails() {
        let (family, mut run) = clean();
        // Chunk 1000 was never submitted: nothing holds its key.
        for c in run.done.iter_mut().filter(|c| c.key == Some(0)) {
            c.key = Some(1000);
        }
        check(&family, &mut run);
    }

    #[test]
    #[should_panic(expected = "ops unresolved")]
    fn a_scheduled_op_left_unresolved_fails() {
        let (family, mut run) = clean();
        run.done.pop();
        check(&family, &mut run);
    }
}
