//! The simulated-driver workloads: `sim-testbed` (fault-free) and
//! `sim-chaos` (composed fault mix) on the message-level `SimCluster`.
//!
//! Eight agents on four two-node edge sites plus one cloud site
//! (`NetworkConfig::paper_testbed()`), one D2-ring of all eight, armed the
//! way the sweeps arm it. Each agent submits its file's 4 KiB chunks as
//! `CheckAndInsert(hash, payload)` on a fixed simulated-time schedule
//! (open loop; the schedule is exact by construction, so the generator is
//! never late). One pass is fresh cluster → horizon, then the horizon
//! state — cloud catalog ∪ spools ∪ live replicas — is mirrored into the
//! erasure-coded `DurableStore` (the step `SimCluster::cloud_catalog`
//! documents as the system layer's) and every agent file is restored
//! from it.
//!
//! Two clocks appear here and are never mixed: `sim_*` figures are
//! simulated time and must repeat exactly for a seed; everything else is
//! host wall time, which the run restates in reference seconds from the
//! calibration-kernel readings the pass takes (see `clock`).

use crate::clock::kernel_s;
use crate::stats;
use crate::trace::{Layer, Probe};
use bytes::Bytes;
use ef_chunking::{Chunker, FixedChunker, Sha256};
use ef_cloudstore::{Durability, DurableStore};
use ef_datagen::datasets;
use ef_kvstore::{
    nth_op_id, ChaosScenario, ChaosScenarioConfig, ClientOp, ClusterConfig, OpId, OpResult,
    SimCluster,
};
use ef_netsim::{Network, NetworkConfig, NodeId, Topology, TopologyBuilder};
use ef_simcore::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::time::Instant;

const AGENTS: usize = 8;
/// Chunks (= ops) per agent: 100 ops/s for the 10 s fault window.
const OPS_PER_AGENT: usize = 400;
const QUICK_OPS_PER_AGENT: usize = 125;
const CHUNK_BYTES: usize = 4096;
const FIRST_OP_US: u64 = 13_000;
const OP_PERIOD_US: u64 = 10_000;
const AGENT_STAGGER_US: u64 = 1_250;
const HORIZON_SECS: u64 = 12;
const POP_SEED_SALT: u64 = 0x5050_5eed;
const SCENARIO_SEED: u64 = 42;

struct Op {
    agent: usize,
    at: SimTime,
    key: Bytes,
    payload: Bytes,
}

/// Everything a pass needs that does not change between passes.
pub struct SimSetup {
    seed: u64,
    topology: Topology,
    scenario: Option<ChaosScenario>,
    ops: Vec<Op>,
    pub logical_bytes: u64,
    pub corpus_digest: String,
}

/// What one pass measured. Host times in seconds; `*_ms` are simulated.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimPass {
    pub ingest_s: f64,
    pub restore_s: f64,
    /// Calibration-kernel readings before ingest, between ingest and
    /// restore, and after restore.
    pub kernel_s: [f64; 3],
    pub ops: u64,
    pub failed_ops: u64,
    pub unique_verdicts: u64,
    pub unique_bytes: u64,
    pub wan_bytes: u64,
    pub physical_bytes: u64,
    pub restored_bytes: u64,
    pub op_p50_ms: f64,
    pub op_p99_ms: f64,
    pub op_mean_ms: f64,
    pub dup_p50_ms: f64,
    pub unique_p50_ms: f64,
    pub cache_hit_rate: f64,
    pub messages: u64,
    pub wire_bytes: u64,
    pub timeouts: u64,
    pub retries: u64,
    pub degraded: u64,
    pub hedges_fired: u64,
    pub pop_challenges: u64,
    pub spool_enqueued: u64,
    pub spool_drained: u64,
    pub ae_repairs: u64,
    /// Correctness violations found by this pass (empty when sound).
    pub violations: Vec<String>,
}

impl SimPass {
    /// The figures that must be identical across passes of one seed.
    pub fn exact(&self) -> SimPass {
        SimPass {
            ingest_s: 0.0,
            restore_s: 0.0,
            kernel_s: [0.0; 3],
            ..self.clone()
        }
    }
}

impl SimSetup {
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    pub fn is_chaos(&self) -> bool {
        self.scenario.is_some()
    }
}

pub fn setup(chaos: bool, seed: u64, quick: bool) -> SimSetup {
    let per_agent = if quick {
        QUICK_OPS_PER_AGENT
    } else {
        OPS_PER_AGENT
    };
    let topology = TopologyBuilder::new()
        .edge_sites(4, 2)
        .cloud_site(1)
        .build();
    let scenario = chaos.then(|| {
        ChaosScenario::generate(
            SCENARIO_SEED,
            &topology,
            &ChaosScenarioConfig {
                crashes: 1,
                partitions: 1,
                loss_bursts: 1,
                slow_nodes: 1,
                storage_stalls: 1,
                cloud_outages: 1,
                byzantine_liars: 1,
                duration: SimDuration::from_secs(4),
                ..ChaosScenarioConfig::default()
            },
        )
    });
    let dataset = datasets::accelerometer(AGENTS, seed);
    let chunker = FixedChunker::new(CHUNK_BYTES).expect("4 KiB is a valid chunk size");
    let mut logical_bytes = 0u64;
    let mut ops = Vec::with_capacity(AGENTS * per_agent);
    let mut digest = Sha256::new();
    for agent in 0..AGENTS {
        let file = dataset.file(agent, 0, 0, per_agent);
        digest.update(&file);
        logical_bytes += file.len() as u64;
        for (k, chunk) in chunker.chunk(&file).into_iter().enumerate() {
            let at_us = FIRST_OP_US + k as u64 * OP_PERIOD_US + agent as u64 * AGENT_STAGGER_US;
            ops.push(Op {
                agent,
                at: SimTime::ZERO + SimDuration::from_micros(at_us),
                key: Bytes::copy_from_slice(chunk.hash.as_bytes()),
                payload: chunk.data,
            });
        }
    }
    SimSetup {
        seed,
        topology,
        scenario,
        logical_bytes,
        corpus_digest: crate::hex(&digest.finalize()),
        ops,
    }
}

fn build_cluster(s: &SimSetup) -> (SimCluster, Vec<NodeId>) {
    let mut net = Network::new(s.topology.clone(), NetworkConfig::paper_testbed());
    if let Some(scenario) = &s.scenario {
        scenario.rig(&mut net);
    }
    let members = s.topology.edge_nodes();
    let cloud = s.topology.cloud_nodes()[0];
    let mut cluster = SimCluster::new(members.clone(), net, ClusterConfig::default());
    cluster.enable_heartbeats(SimDuration::from_millis(100), SimDuration::from_millis(350));
    cluster.enable_anti_entropy(SimDuration::from_millis(500), 4);
    cluster.enable_adaptive_rto(SimDuration::from_micros(500), SimDuration::from_secs(1));
    cluster.enable_slow_detection(SimDuration::from_millis(20));
    cluster.enable_hedged_reads(256);
    cluster.enable_admission_control(64);
    cluster.enable_backpressure(SimDuration::from_millis(2));
    cluster.enable_second_sight_cache(8, 1024);
    cluster.enable_pop(s.seed ^ POP_SEED_SALT);
    cluster.enable_cloud_uplink(cloud, 64 * 1024, SimDuration::from_millis(50));
    if let Some(scenario) = &s.scenario {
        scenario.apply(&mut cluster);
    }
    (cluster, members)
}

/// One pass: fresh cluster → horizon → mirror → restore → checks.
pub fn pass<P: Probe>(s: &SimSetup, probe: &mut P, pass_no: u64) -> SimPass {
    let mut out = SimPass {
        ops: s.ops.len() as u64,
        ..SimPass::default()
    };
    probe.open("pass", pass_no);
    out.kernel_s[0] = kernel_s();

    // ---- ingest: the simulated cluster, then the erasure-coded mirror --
    probe.open("ingest", pass_no);
    let ingest_start = Instant::now();
    let (mut cluster, members, done) = probe.call(Layer::Sim, || {
        let (mut cluster, members) = build_cluster(s);
        for op in &s.ops {
            cluster.submit(
                op.at,
                members[op.agent],
                ClientOp::CheckAndInsert(op.key.clone(), op.payload.clone()),
            );
        }
        let done = cluster.run_until(SimTime::ZERO + SimDuration::from_secs(HORIZON_SECS));
        (cluster, members, done)
    });

    // Verdicts by op. Op ids are per-coordinator sequence numbers in
    // start order; the schedule gives agent `a`'s k-th op id (a, k).
    let by_id: BTreeMap<OpId, &ef_kvstore::OpLatency> = done.iter().map(|l| (l.op_id, l)).collect();
    let mut next_seq = [0u64; AGENTS];
    // key → (unique verdicts, duplicate verdicts)
    let mut verdicts: BTreeMap<&Bytes, (u64, u64)> = BTreeMap::new();
    let mut acked = vec![false; s.ops.len()];
    let (mut all_ms, mut dup_ms, mut unique_ms) = (Vec::new(), Vec::new(), Vec::new());
    for (i, op) in s.ops.iter().enumerate() {
        let id = nth_op_id(members[op.agent], next_seq[op.agent]);
        next_seq[op.agent] += 1;
        let Some(l) = by_id.get(&id) else {
            out.failed_ops += 1; // unresolved at the horizon
            continue;
        };
        let ms = l.latency().as_millis_f64();
        all_ms.push(ms);
        match l.result {
            OpResult::Dedup { unique: true, .. } => {
                verdicts.entry(&op.key).or_default().0 += 1;
                out.unique_verdicts += 1;
                out.unique_bytes += op.payload.len() as u64;
                unique_ms.push(ms);
                acked[i] = true;
            }
            OpResult::Dedup { unique: false, .. } => {
                verdicts.entry(&op.key).or_default().1 += 1;
                dup_ms.push(ms);
                acked[i] = true;
            }
            OpResult::Unavailable { .. } | OpResult::TimedOut { .. } => out.failed_ops += 1,
            OpResult::Value(_) | OpResult::Written => out
                .violations
                .push(format!("op {id:?} resolved {:?}", l.result)),
        }
    }
    // Zero false duplicates, by the sweeps' rule: a duplicate verdict is
    // sound only if some op was told to insert the key.
    for (key, (uniques, dups)) in &verdicts {
        if *dups > 0 && *uniques == 0 {
            out.violations.push(format!(
                "false duplicate: {} judged duplicate {dups}x, never inserted",
                crate::hash_of(key)
            ));
        }
    }

    // Mirror every unique-acked key into the erasure-coded store from
    // wherever it is durable at the horizon. Nowhere = a lost chunk.
    let mut store = DurableStore::new(6, Durability::ErasureCoded { k: 4, m: 2 })
        .expect("RS(4,2) fits six nodes");
    for (key, (uniques, _)) in &verdicts {
        if *uniques == 0 {
            continue;
        }
        let payload = cluster.cloud_catalog().get(*key).cloned().or_else(|| {
            members.iter().find_map(|&m| {
                cluster
                    .spool(m)
                    .and_then(|sp| sp.pending().find(|e| e.key == **key))
                    .and_then(|e| e.value.clone())
            })
        });
        let payload = payload.or_else(|| {
            members
                .iter()
                .find_map(|&m| cluster.node_mut(m)?.storage_mut().get(key))
        });
        let Some(payload) = payload else {
            out.violations.push(format!(
                "lost chunk: {} acked unique, durable nowhere",
                crate::hash_of(key)
            ));
            continue;
        };
        if let Err(e) = probe.call(Layer::DurablePut, || {
            store.put(crate::hash_of(key), payload)
        }) {
            out.violations.push(format!("mirror put refused: {e}"));
        }
    }
    out.ingest_s = ingest_start.elapsed().as_secs_f64();
    probe.close();
    out.kernel_s[1] = kernel_s();

    // ---- restore: every agent file from the mirror -----------------------
    probe.open("restore", pass_no);
    let restore_start = Instant::now();
    let per_agent = s.logical_bytes as usize / AGENTS;
    let mut restored: Vec<Vec<u8>> = (0..AGENTS).map(|_| Vec::with_capacity(per_agent)).collect();
    let mut unreadable = 0u64;
    for (op, ok) in s.ops.iter().zip(&acked) {
        if !ok {
            continue; // the op failed; its chunk was never accepted
        }
        match probe.call(Layer::DurableGet, || store.get(&crate::hash_of(&op.key))) {
            Ok(bytes) => restored[op.agent].extend_from_slice(&bytes),
            Err(_) => unreadable += 1,
        }
    }
    out.restore_s = restore_start.elapsed().as_secs_f64();
    probe.close();
    out.kernel_s[2] = kernel_s();
    probe.close();

    // ---- checks after the clocks stop ---------------------------------------
    if unreadable > 0 {
        out.violations.push(format!(
            "{unreadable} acked chunks unreadable from the mirror"
        ));
    }
    // Each agent's restored bytes are its accepted chunks, in order (the
    // payloads are slices of the original file, so with no failed op this
    // is the whole file).
    let mut at = [0usize; AGENTS];
    let mut damaged = [false; AGENTS];
    for (op, _) in s.ops.iter().zip(&acked).filter(|(_, ok)| **ok) {
        let end = at[op.agent] + op.payload.len();
        damaged[op.agent] |= restored[op.agent].get(at[op.agent]..end) != Some(&op.payload[..]);
        at[op.agent] = end;
    }
    for (agent, got) in restored.iter().enumerate() {
        if damaged[agent] || got.len() != at[agent] {
            out.violations.push(format!(
                "agent {agent}: restored bytes differ from the original"
            ));
        }
        out.restored_bytes += got.len() as u64;
    }

    all_ms.sort_by(f64::total_cmp);
    dup_ms.sort_by(f64::total_cmp);
    unique_ms.sort_by(f64::total_cmp);
    let p = |v: &[f64], q: f64| {
        if v.is_empty() {
            0.0
        } else {
            stats::percentile(v, q)
        }
    };
    out.op_p50_ms = p(&all_ms, 50.0);
    out.op_p99_ms = p(
        &all_ms,
        stats::highest_percentile(all_ms.len())
            .unwrap_or(50.0)
            .min(99.0),
    );
    out.op_mean_ms = all_ms.iter().sum::<f64>() / all_ms.len().max(1) as f64;
    out.dup_p50_ms = p(&dup_ms, 50.0);
    out.unique_p50_ms = p(&unique_ms, 50.0);

    let disaster = cluster.disaster_stats();
    out.wan_bytes = disaster.spool_bytes_drained;
    out.physical_bytes = store.physical_bytes();
    out.cache_hit_rate = cluster.cache_stats().hit_rate();
    out.messages = cluster.network().messages_sent();
    out.wire_bytes = cluster.network().bytes_sent();
    out.timeouts = cluster.timeouts();
    out.retries = cluster.retries();
    out.degraded = cluster.degraded_ops();
    out.hedges_fired = cluster.gray_stats().hedges_fired;
    out.pop_challenges = cluster.byzantine_stats().challenges_issued;
    out.spool_enqueued = disaster.spool_enqueued;
    out.spool_drained = disaster.spool_drained;
    out.ae_repairs = cluster.recovery_stats().entries_repaired;
    out
}

/// The analytic lookup model `run_system` prices the instant driver with,
/// on the same ring and keys: mean lookup ms and the wall time of the
/// `run_system` call.
pub fn analytic_model(s: &SimSetup) -> (f64, f64) {
    use efdedup::partition::Partition;
    use efdedup::system::{run_system, Strategy, SystemConfig, Workload};
    let network = Network::new(s.topology.clone(), NetworkConfig::paper_testbed());
    let mut per_node = vec![Vec::new(); AGENTS];
    for op in &s.ops {
        per_node[op.agent].push(crate::hash_of(&op.key));
    }
    let workload = Workload::new(per_node, CHUNK_BYTES);
    let ring = Partition::new(vec![(0..AGENTS).collect()]).expect("one ring covers all agents");
    let start = Instant::now();
    let metrics = run_system(
        &network,
        &workload,
        &Strategy::Smart(ring),
        &SystemConfig::paper_testbed(),
    );
    let wall_s = start.elapsed().as_secs_f64();
    (
        metrics.network_cost_ms / metrics.total_chunks as f64,
        wall_s,
    )
}
