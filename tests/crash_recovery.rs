//! Crash-stop recovery: the full node-death lifecycle under load.
//!
//! Each seeded scenario runs a check-and-insert workload over a 6-node
//! edge ring while the chaos schedule transiently crashes two nodes,
//! partitions sites, drops messages, **crash-stops** one node (volatile
//! state lost, WAL kept) and **permanently departs** another (disk
//! destroyed). The run must end with
//!
//! * zero false duplicates — every chunk the index ever judged a
//!   duplicate is durably stored in the erasure-coded cloud tier,
//! * zero lost unique chunks — every distinct chunk submitted ends up in
//!   the cloud catalog (clients upload on `unique`, timeout, and
//!   unavailability; only a `duplicate` verdict skips the upload),
//! * a converged ring — the departed node evicted, every replica pair's
//!   Merkle trees equal, the restarted node recovered from its WAL and
//!   caught up via hint replay plus scheduled anti-entropy,
//! * byte-identical replay — the same seed reproduces the same
//!   completions and the same recovery counters, bit for bit.

use bytes::Bytes;
use efdedup_repro::kvstore::{
    nth_op_id, ChaosEvent, ChaosScenario, ChaosScenarioConfig, ClientOp, OpId, OpLatency, OpResult,
    RecoveryStats, SimCluster,
};
use efdedup_repro::prelude::*;
use std::collections::{BTreeMap, HashMap};

const KEYS: u32 = 12;
const REPEATS: u32 = 3;
const SEEDS: u64 = 26;
const MERKLE_DEPTH: u32 = 6;

fn testbed() -> Network {
    let topo = TopologyBuilder::new()
        .edge_site(2)
        .edge_site(2)
        .edge_site(2)
        .build();
    Network::new(topo, NetworkConfig::paper_testbed())
}

fn chaos_config() -> ChaosScenarioConfig {
    ChaosScenarioConfig {
        crash_stops: 1,
        departures: 1,
        ..ChaosScenarioConfig::default()
    }
}

/// The chunk payload (and its hash) behind logical chunk `k`.
fn chunk(k: u32) -> (ChunkHash, Bytes) {
    let payload = Bytes::from(vec![(k % 251) as u8 ^ 0x5a; 96 + (k as usize % 17)]);
    (ChunkHash::of(&payload), payload)
}

/// Whether `node` is absent (crash-stopped or departed) at time `t`,
/// according to the scenario's schedule. Conservative at the exact
/// boundaries: a node is treated absent at both endpoints of its
/// crash-stop window, so the workload only routes through coordinators
/// whose liveness is unambiguous.
fn absent_at(scenario: &ChaosScenario, node: NodeId, t: SimTime) -> bool {
    let mut stopped_at = None;
    for ev in scenario.events() {
        match *ev {
            ChaosEvent::CrashStop { at, node: n } if n == node => stopped_at = Some(at),
            ChaosEvent::Restart { at, node: n } if n == node => {
                if let Some(start) = stopped_at {
                    if t >= start && t <= at {
                        return true;
                    }
                }
            }
            ChaosEvent::Depart { at, node: n } if n == node && t >= at => return true,
            _ => {}
        }
    }
    false
}

struct RunOutcome {
    done: Vec<OpLatency>,
    recovery: RecoveryStats,
    /// Chunk index of each completed op.
    key_of: HashMap<OpId, u32>,
    /// The erasure-coded cloud catalog built by the clients.
    cloud: DurableStore,
    departed: NodeId,
    ring_members: usize,
    divergence: u64,
    recovery_latencies: usize,
    total_hints: usize,
}

/// Runs one full crash-recovery scenario to convergence.
fn run_recovery(seed: u64) -> RunOutcome {
    let config = chaos_config();
    let mut net = testbed();
    let scenario = ChaosScenario::generate(seed, net.topology(), &config);
    scenario.rig(&mut net);
    let members = net.topology().edge_nodes();
    let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
    cluster.enable_heartbeats_with_dead(
        SimDuration::from_millis(100),
        SimDuration::from_millis(350),
        SimDuration::from_millis(1200),
    );
    cluster.enable_anti_entropy(SimDuration::from_millis(700), MERKLE_DEPTH);
    scenario.apply(&mut cluster);

    let departed = scenario
        .events()
        .iter()
        .find_map(|ev| match *ev {
            ChaosEvent::Depart { node, .. } => Some(node),
            _ => None,
        })
        .expect("scenario schedules a departure");

    // Submit the workload through rotating live coordinators. The client
    // knows the fault schedule it injected, so it never routes through a
    // crash-stopped or departed coordinator (a separate test covers
    // that); transiently crashed ones are fair game — their ops resolve
    // through the retry machinery.
    let mut key_of: HashMap<OpId, u32> = HashMap::new();
    let mut next_seq: HashMap<NodeId, u64> = HashMap::new();
    let mut t = SimTime::ZERO + SimDuration::from_millis(13);
    let mut turn = 0usize;
    for rep in 0..REPEATS {
        for k in 0..KEYS {
            let coordinator = (0..members.len())
                .map(|i| members[(turn + rep as usize + i) % members.len()])
                .find(|&c| !absent_at(&scenario, c, t))
                .expect("some coordinator is schedulable");
            turn += 1;
            let seq = next_seq.entry(coordinator).or_insert(0);
            key_of.insert(nth_op_id(coordinator, *seq), k);
            *seq += 1;
            let (hash, _) = chunk(k);
            let key = Bytes::copy_from_slice(hash.as_bytes());
            cluster.submit(t, coordinator, ClientOp::CheckAndInsert(key.clone(), key));
            t += SimDuration::from_millis(211);
        }
    }
    let mut done = cluster.run();

    // Drive the sim onward until the recovery pipeline has fully played
    // out: the departed node evicted from the master ring, the
    // crash-stopped node restarted from its WAL and observed converged,
    // and no replica pair divergent.
    let cap = cluster.now() + SimDuration::from_secs_f64(60.0);
    loop {
        let rebuilt = !cluster.ring().contains(departed);
        let restarted = cluster.recovery_stats().restarts == 1;
        let converged = cluster.replica_divergence(MERKLE_DEPTH) == 0;
        let measured = cluster.recovery_latencies().len() == 1;
        // Hint drain is eventual: a lossy round can skip a pair's
        // exchange (and thus its hint flush) even after the data itself
        // has converged, so parked hints are part of the fixpoint.
        let drained = cluster.total_hints() == 0;
        if rebuilt && restarted && converged && measured && drained {
            break;
        }
        assert!(
            cluster.now() < cap,
            "seed {seed}: recovery did not converge (rebuilt={rebuilt} \
             restarted={restarted} converged={converged} measured={measured} drained={drained})"
        );
        done.extend(cluster.run_until(cluster.now() + SimDuration::from_millis(500)));
    }

    // The clients' upload discipline: a chunk goes to the erasure-coded
    // cloud tier unless the index affirmatively judged it a duplicate.
    let mut cloud =
        DurableStore::new(6, Durability::ErasureCoded { k: 4, m: 2 }).expect("valid cloud config");
    for l in &done {
        let k = key_of[&l.op_id];
        let (hash, payload) = chunk(k);
        match l.result {
            OpResult::Dedup { unique: false, .. } => {}
            OpResult::Dedup { unique: true, .. } | OpResult::TimedOut { .. } => {
                cloud.put(hash, payload).expect("cloud accepts chunk");
            }
            ref other => panic!("seed {seed}: check-and-insert resolved {other:?}"),
        }
    }

    RunOutcome {
        recovery: cluster.recovery_stats(),
        departed,
        ring_members: cluster.ring().len(),
        divergence: cluster.replica_divergence(MERKLE_DEPTH),
        recovery_latencies: cluster.recovery_latencies().len(),
        total_hints: cluster.total_hints(),
        done,
        key_of,
        cloud,
    }
}

#[test]
fn crash_recovery_sweep_soundness_and_convergence() {
    let mut totals = RecoveryStats::default();
    let mut latencies = 0usize;
    for seed in 0..SEEDS {
        let out = run_recovery(seed);

        // Completion: every submission resolved.
        assert_eq!(out.done.len(), (KEYS * REPEATS) as usize, "seed {seed}");

        // Zero lost unique chunks: every distinct chunk the workload
        // produced is durably in the cloud catalog. A chunk could only
        // be missing if *every* op on it was judged duplicate — i.e. a
        // false duplicate, the one verdict that loses data.
        for k in 0..KEYS {
            let (hash, _) = chunk(k);
            assert!(
                out.cloud.contains(&hash),
                "seed {seed}: chunk {k} missing from the cloud catalog \
                 (falsely judged duplicate — data loss)"
            );
        }

        // Zero false duplicates, stated directly: a duplicate verdict
        // for a chunk requires that some op on the same chunk uploaded
        // it (unique verdict or an assume-unique timeout).
        let mut uploaded: BTreeMap<u32, u32> = BTreeMap::new();
        let mut dups: BTreeMap<u32, u32> = BTreeMap::new();
        for l in &out.done {
            let k = out.key_of[&l.op_id];
            match l.result {
                OpResult::Dedup { unique: false, .. } => *dups.entry(k).or_insert(0) += 1,
                _ => *uploaded.entry(k).or_insert(0) += 1,
            }
        }
        for (k, d) in &dups {
            assert!(
                uploaded.contains_key(k),
                "seed {seed}: chunk {k} judged duplicate {d} times but never uploaded"
            );
        }

        // Converged ring: the departed node is evicted, the five
        // survivors agree bucket-for-bucket, the restarted node's
        // recovery latency was measured, and no hint is still parked for
        // anyone (the departed node's hints were dropped, everyone
        // else's replayed).
        assert_eq!(out.ring_members, 5, "seed {seed}: ring not rebuilt");
        assert_eq!(out.divergence, 0, "seed {seed}: replicas diverge");
        assert_eq!(out.recovery.restarts, 1, "seed {seed}");
        assert_eq!(out.recovery_latencies, 1, "seed {seed}");
        assert_eq!(out.total_hints, 0, "seed {seed}: hints still parked");
        assert!(
            out.recovery.dead_declared > 0,
            "seed {seed}: no dead declaration"
        );
        let _ = out.departed;

        totals.merge(&out.recovery);
        latencies += out.recovery_latencies;
    }

    // The sweep must actually exercise every stage of the pipeline, or
    // the invariants above are vacuous.
    assert_eq!(totals.restarts, SEEDS, "every seed restarts its victim");
    assert_eq!(latencies as u64, SEEDS);
    assert!(totals.wal_records_replayed > 0, "no WAL was ever replayed");
    assert!(totals.antientropy_rounds > 0, "anti-entropy never ran");
    assert!(
        totals.buckets_repaired > 0 && totals.entries_repaired > 0,
        "anti-entropy never repaired anything"
    );
    assert!(
        totals.rereplicated_entries > 0,
        "departure never re-replicated anything"
    );
    assert!(totals.hints_dropped > 0, "no hint was ever dropped");
}

#[test]
fn same_seed_replays_recovery_bit_identically() {
    for seed in [0u64, 11, 23] {
        let a = run_recovery(seed);
        let b = run_recovery(seed);
        assert_eq!(a.done, b.done, "seed {seed}: completions diverged");
        assert_eq!(a.recovery, b.recovery, "seed {seed}: counters diverged");
        assert_eq!(a.cloud.chunk_count(), b.cloud.chunk_count());
    }
}

#[test]
fn submission_to_departed_coordinator_resolves_unavailable() {
    let net = testbed();
    // A fault-free network arms no retry policy; departures do not need
    // one — the dead-coordinator path resolves the op synchronously.
    let members = net.topology().edge_nodes();
    let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
    cluster.enable_heartbeats_with_dead(
        SimDuration::from_millis(50),
        SimDuration::from_millis(200),
        SimDuration::from_millis(600),
    );
    let victim = members[0];
    cluster.depart_at(SimTime::ZERO + SimDuration::from_millis(100), victim);
    cluster.submit(
        SimTime::ZERO + SimDuration::from_millis(500),
        victim,
        ClientOp::Get(Bytes::from_static(b"k")),
    );
    let done = cluster.run();
    assert_eq!(done.len(), 1);
    assert!(
        matches!(done[0].result, OpResult::Unavailable { .. }),
        "got {:?}",
        done[0].result
    );
    assert!(cluster.is_departed(victim));
}
