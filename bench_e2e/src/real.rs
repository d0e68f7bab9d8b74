//! The real-byte workloads: `versioned-backup` and `fresh-images`.
//!
//! Corpus bytes → `ef-chunking` gear CDC + batched SHA-256 → per-agent
//! `FingerprintCache` → ring `LocalCluster::check_and_insert` (real
//! `NodeState` + `StorageEngine` + WAL, instant delivery) → per-agent
//! `UploadSpool` → erasure-coded `DurableStore` + manifest → byte-exact
//! restore of every file. One pass is empty system → all ingested → all
//! restored; closed loop, one file in flight, one thread. All times here
//! are host wall time except the `sim_probe` (see [`RealSetup`]); the
//! pass also reads the calibration kernel around its two timed stretches
//! so the run can restate them in reference seconds (see `clock`).

use crate::clock::kernel_s;
use crate::trace::{Layer, Probe};
use bytes::Bytes;
use ef_chunking::Sha256;
use ef_chunking::{fingerprint_batch, Chunk, ChunkHash, Chunker, GearChunker, GearChunkerBuilder};
use ef_cloudstore::{
    restore_profile, ContainerLayout, DefragPolicy, Durability, DurableStore, Manifest,
    RestoreAccountant, RestoreStats,
};
use ef_datagen::{LayeredImagesConfig, VersionedBackupConfig, WorkloadKind};
use ef_kvstore::{
    ClientOp, ClusterConfig, FingerprintCache, LocalCluster, SimCluster, SpoolClass, SpoolDest,
    UploadSpool,
};
use ef_netsim::{Network, NetworkConfig, NodeId, TopologyBuilder};
use ef_simcore::{SimDuration, SimTime};
use std::collections::BTreeSet;
use std::time::Instant;

const AGENTS: usize = 4;
const DRAIN_BATCH_BYTES: u64 = 256 * 1024;
const SPOOL_SNAPSHOT_EVERY: u64 = 64;
/// Index value stored per fingerprint, as the system runner stores it.
const PRESENT: &[u8] = &[1];
/// Leading corpus chunks replayed through a fault-free `SimCluster` in
/// set-up to price this workload's lookups in simulated time.
const PROBE_OPS: usize = 2_048;

/// 64 MiB: 32 versions of a 2 MiB file, 64 small edits between versions.
const VERSIONED_BACKUP: VersionedBackupConfig = VersionedBackupConfig {
    base_len: 2 << 20,
    versions: 32,
    edits_per_version: 64,
    mean_edit_len: 64,
};

/// 64 MiB: 16 images of one shared 1 MiB layer plus 3 MiB of fresh delta.
const FRESH_IMAGES: LayeredImagesConfig = LayeredImagesConfig {
    base_layers: 1,
    layer_len: 1 << 20,
    images: 16,
    delta_len: 3 << 20,
    edits_per_image: 16,
    mean_edit_len: 32,
};

/// `--quick` divides the corpora by 16.
fn kind(versioned: bool, quick: bool) -> WorkloadKind {
    let div = if quick { 16 } else { 1 };
    if versioned {
        WorkloadKind::VersionedBackup(VersionedBackupConfig {
            base_len: VERSIONED_BACKUP.base_len / div,
            ..VERSIONED_BACKUP
        })
    } else {
        WorkloadKind::LayeredImages(LayeredImagesConfig {
            layer_len: FRESH_IMAGES.layer_len / div,
            delta_len: FRESH_IMAGES.delta_len / div,
            ..FRESH_IMAGES
        })
    }
}

/// Everything a pass needs that does not change between passes, plus the
/// reference answers the pass is checked against.
pub struct RealSetup {
    pub files: Vec<Vec<u8>>,
    pub gear: GearChunker,
    pub logical_bytes: u64,
    pub corpus_digest: String,
    /// Reference model: distinct fingerprints of the corpus (a `BTreeSet`,
    /// no cache, no ring) and their bytes.
    pub reference_unique: u64,
    pub reference_unique_bytes: u64,
    /// Chunks per file, in file order.
    pub file_chunks: Vec<usize>,
    /// Closed-form expected dedup ratio (arXiv 1701.04451), where the
    /// generator has one.
    pub expected_ratio: Option<f64>,
    /// Simulated mean ms of the first `PROBE_OPS` lookups on a fault-free
    /// simulated ring of the same four agents.
    pub sim_probe_ms: f64,
    /// Every chunk key of the corpus in arrival order (for replays), and
    /// each chunk's length.
    pub keys: Vec<ChunkHash>,
    pub chunk_lens: Vec<u32>,
}

/// What one pass measured; host seconds and exact counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RealPass {
    pub ingest_s: f64,
    pub restore_s: f64,
    /// Calibration-kernel readings before ingest, between ingest and
    /// restore, and after restore.
    pub kernel_s: [f64; 3],
    pub chunks: u64,
    pub unique_verdicts: u64,
    pub unique_bytes: u64,
    pub wan_bytes: u64,
    pub physical_bytes: u64,
    pub stored_chunks: u64,
    pub restored_bytes: u64,
    pub files: u64,
    pub puts: u64,
    pub failed_puts: u64,
    pub failed_restores: u64,
    pub cache_lookups: u64,
    pub cache_hits: u64,
    pub cache_evictions: u64,
    pub cache_deferred: u64,
    pub index_ops: u64,
    pub index_msgs: u64,
    pub index_live_keys: u64,
    pub index_live_bytes: u64,
    pub index_wal_bytes: u64,
    pub index_wal_snapshots: u64,
    pub index_segments: u64,
    pub spool_entries: u64,
    pub spool_wal_bytes_peak: u64,
    pub spool_high_water: u64,
    pub violations: Vec<String>,
}

impl RealPass {
    /// The figures that must be identical across passes of one seed.
    pub fn exact(&self) -> RealPass {
        RealPass {
            ingest_s: 0.0,
            restore_s: 0.0,
            kernel_s: [0.0; 3],
            ..self.clone()
        }
    }
}

pub fn setup(versioned: bool, seed: u64, quick: bool) -> RealSetup {
    let kind = kind(versioned, quick);
    let files = kind.streams(seed);
    let gear = GearChunkerBuilder::new()
        .min_size(1024)
        .target_size(4096)
        .max_size(16 * 1024)
        .build()
        .expect("1/4/16 KiB is a valid gear ladder");
    let logical_bytes: u64 = files.iter().map(|f| f.len() as u64).sum();

    let mut digest = Sha256::new();
    let mut seen = BTreeSet::new();
    let mut reference_unique_bytes = 0u64;
    let mut keys = Vec::new();
    let mut chunk_lens = Vec::new();
    let mut file_chunks = Vec::with_capacity(files.len());
    let mut probe_ops = Vec::with_capacity(PROBE_OPS);
    for (v, file) in files.iter().enumerate() {
        digest.update(file);
        let before = keys.len();
        for chunk in gear.chunk(file) {
            chunk_lens.push(chunk.len() as u32);
            keys.push(chunk.hash);
            if seen.insert(chunk.hash) {
                reference_unique_bytes += chunk.len() as u64;
            }
            if probe_ops.len() < PROBE_OPS {
                probe_ops.push((v % AGENTS, chunk));
            }
        }
        file_chunks.push(keys.len() - before);
    }
    let mean_chunk = logical_bytes as f64 / keys.len() as f64;
    let expected_ratio = match kind {
        WorkloadKind::VersionedBackup(cfg) => Some(cfg.expected_ratio_cdc(mean_chunk)),
        _ => None,
    };
    let sim_probe_ms = sim_probe(probe_ops);
    RealSetup {
        gear,
        logical_bytes,
        corpus_digest: crate::hex(&digest.finalize()),
        reference_unique: seen.len() as u64,
        reference_unique_bytes,
        file_chunks,
        chunk_lens,
        expected_ratio,
        sim_probe_ms,
        keys,
        files,
    }
}

/// Prices the workload's leading lookups in simulated time: the first
/// `PROBE_OPS` chunks as `(agent, chunk)`, one `CheckAndInsert(hash,
/// payload)` every 2 ms on a fault-free one-site ring of the four agents
/// with the same second-sight cache. Returns the mean simulated client
/// latency in ms.
fn sim_probe(ops: Vec<(usize, Chunk)>) -> f64 {
    let topology = TopologyBuilder::new()
        .edge_site(AGENTS)
        .cloud_site(1)
        .build();
    let members = topology.edge_nodes();
    let network = Network::new(topology, NetworkConfig::paper_testbed());
    let mut cluster = SimCluster::new(members.clone(), network, ClusterConfig::default());
    cluster.enable_second_sight_cache(8, 1024);
    for (n, (agent, chunk)) in ops.into_iter().enumerate() {
        cluster.submit(
            SimTime::ZERO + SimDuration::from_millis(1 + 2 * n as u64),
            members[agent],
            ClientOp::CheckAndInsert(Bytes::copy_from_slice(chunk.hash.as_bytes()), chunk.data),
        );
    }
    let done = cluster.run();
    done.iter()
        .map(|l| l.latency().as_millis_f64())
        .sum::<f64>()
        / done.len() as f64
}

/// One pass: empty system → every file ingested → every file restored.
pub fn pass<P: Probe>(s: &RealSetup, probe: &mut P, pass_no: u64) -> RealPass {
    let mut out = RealPass::default();
    let members: Vec<NodeId> = (0..AGENTS as u32).map(NodeId).collect();
    let mut cluster = LocalCluster::new(members.clone(), ClusterConfig::default());
    let mut caches: Vec<FingerprintCache> = (0..AGENTS)
        .map(|_| FingerprintCache::new(8, 1024).with_second_sight())
        .collect();
    let mut spools: Vec<UploadSpool> = (0..AGENTS)
        .map(|_| UploadSpool::new(SPOOL_SNAPSHOT_EVERY))
        .collect();
    let mut store = DurableStore::new(6, Durability::ErasureCoded { k: 4, m: 2 })
        .expect("RS(4,2) fits six nodes");
    let mut manifests: Vec<Manifest> = Vec::with_capacity(s.files.len());

    probe.open("pass", pass_no);
    out.kernel_s[0] = kernel_s();

    // ---- ingest: first byte at the chunker → last manifest recorded ------
    probe.open("ingest", pass_no);
    let ingest_start = Instant::now();
    for (v, data) in s.files.iter().enumerate() {
        let agent = v % AGENTS;
        probe.open("file", v as u64);
        let chunks: Vec<Chunk> = if P::TRACED {
            // `chunk()` split at its seam so the two layers can be told
            // apart; the copy and slicing it does inside are done here.
            let cuts = probe.call(Layer::Cdc, || s.gear.boundaries(data));
            let mut payloads = Vec::with_capacity(cuts.len());
            let mut start = 0;
            for &end in &cuts {
                payloads.push(&data[start..end]);
                start = end;
            }
            let hashes = probe.call(Layer::Sha256, || fingerprint_batch(&payloads));
            let src = Bytes::copy_from_slice(data);
            let mut start = 0;
            cuts.iter()
                .zip(hashes)
                .map(|(&end, hash)| {
                    let chunk = Chunk::with_hash(start as u64, src.slice(start..end), hash);
                    start = end;
                    chunk
                })
                .collect()
        } else {
            s.gear.chunk(data)
        };
        let mut recipe = Vec::with_capacity(chunks.len());
        for chunk in chunks {
            let key = *chunk.hash.as_bytes();
            recipe.push((chunk.hash, chunk.len() as u32));
            if probe.call(Layer::Cache, || caches[agent].contains(&key)) {
                continue; // duplicate confirmed locally, no ring trip
            }
            let unique = probe
                .call(Layer::Index, || {
                    cluster.check_and_insert(members[agent], &key, Bytes::from_static(PRESENT))
                })
                .expect("the instant-delivery ring has no fault plan");
            // Either verdict proves the fingerprint is durably indexed.
            probe.call(Layer::Cache, || {
                caches[agent].insert(Bytes::copy_from_slice(&key))
            });
            if unique {
                out.unique_verdicts += 1;
                out.unique_bytes += chunk.len() as u64;
                probe.call(Layer::Spool, || {
                    spools[agent].enqueue(
                        SpoolClass::Critical,
                        SpoolDest::Cloud,
                        Bytes::copy_from_slice(&key),
                        Some(chunk.data),
                    )
                });
            }
        }
        out.chunks += recipe.len() as u64;
        out.spool_wal_bytes_peak = out
            .spool_wal_bytes_peak
            .max(spools[agent].wal_bytes() as u64);
        // Drain this agent's spool to the cloud store; retire on ack.
        while !spools[agent].is_empty() {
            let batch = probe.call(Layer::Spool, || {
                spools[agent].plan_cloud_batch(DRAIN_BATCH_BYTES)
            });
            for (key, payload) in batch {
                out.puts += 1;
                out.wan_bytes += payload.len() as u64;
                if probe
                    .call(Layer::DurablePut, || {
                        store.put(crate::hash_of(&key), payload)
                    })
                    .is_err()
                {
                    out.failed_puts += 1;
                }
                probe.call(Layer::Spool, || spools[agent].retire_cloud(&key));
            }
        }
        manifests.push(Manifest {
            chunks: recipe,
            total_len: data.len() as u64,
        });
        probe.close();
    }
    out.ingest_s = ingest_start.elapsed().as_secs_f64();
    probe.close();
    out.kernel_s[1] = kernel_s();

    // ---- restore: every file from its manifest ---------------------------
    // The clock runs only while a file is being rebuilt; the byte
    // comparison happens with it stopped.
    probe.open("restore", pass_no);
    for (v, (manifest, original)) in manifests.iter().zip(&s.files).enumerate() {
        probe.open("file", v as u64);
        let start = Instant::now();
        let mut rebuilt = Vec::with_capacity(manifest.total_len as usize);
        let mut unreadable = false;
        for (hash, _) in &manifest.chunks {
            match probe.call(Layer::DurableGet, || store.get(hash)) {
                Ok(bytes) => rebuilt.extend_from_slice(&bytes),
                Err(_) => unreadable = true,
            }
        }
        out.restore_s += start.elapsed().as_secs_f64();
        probe.close();
        out.restored_bytes += rebuilt.len() as u64;
        if unreadable || rebuilt != *original {
            out.failed_restores += 1;
            out.violations
                .push(format!("file {v}: restored bytes differ from the original"));
        }
    }
    probe.close();
    out.kernel_s[2] = kernel_s();
    probe.close();

    // ---- counts and checks after the clocks stop --------------------------
    out.files = manifests.len() as u64;
    out.physical_bytes = store.physical_bytes();
    out.stored_chunks = store.chunk_count() as u64;
    for cache in &caches {
        let c = cache.stats();
        out.cache_lookups += c.hits + c.misses;
        out.cache_hits += c.hits;
        out.cache_evictions += c.evictions;
        out.cache_deferred += c.deferred;
    }
    out.index_ops = out.cache_lookups - out.cache_hits;
    out.index_msgs = cluster.messages_delivered();
    for &m in &members {
        let node = cluster.node(m).expect("member exists");
        let stats = node.storage().stats();
        out.index_live_keys += stats.live_keys as u64;
        out.index_live_bytes += stats.live_bytes as u64;
        out.index_segments += stats.segments as u64;
        out.index_wal_bytes += node.wal().len_bytes() as u64;
        out.index_wal_snapshots += node.wal().snapshots_taken();
    }
    for spool in &spools {
        out.spool_high_water = out.spool_high_water.max(spool.high_water());
    }
    out.spool_entries = out.puts;

    // No false duplicate, no false unique: the verdicts match the
    // reference set, and so does what the cloud store holds.
    if out.unique_verdicts != s.reference_unique || out.unique_bytes != s.reference_unique_bytes {
        out.violations.push(format!(
            "unique verdicts {} ({} B) differ from the reference set {} ({} B)",
            out.unique_verdicts, out.unique_bytes, s.reference_unique, s.reference_unique_bytes
        ));
    }
    if out.stored_chunks != s.reference_unique {
        out.violations.push(format!(
            "cloud store holds {} chunks, reference set has {}",
            out.stored_chunks, s.reference_unique
        ));
    }
    if out.failed_puts > 0 {
        out.violations
            .push(format!("{} cloud puts refused", out.failed_puts));
    }
    out
}

/// Restore-path counts over a 256 KiB container layout with defrag off:
/// how many containers the corpus's first sightings fill, and how
/// fragmented each file's restore is. Counts only — the in-memory cloud
/// store has no container I/O, so a layout policy shows here and never in
/// `restore_mbps`.
pub struct RestoreLayout {
    pub containers: u32,
    pub stats: RestoreStats,
}

pub fn restore_layout(s: &RealSetup) -> RestoreLayout {
    let mut layout = ContainerLayout::new(256 * 1024);
    let mut seen = BTreeSet::new();
    for (hash, &len) in s.keys.iter().zip(&s.chunk_lens) {
        if seen.insert(*hash) {
            layout.place(*hash, len as usize);
        } else {
            layout.on_duplicate(hash, len as usize, DefragPolicy::Off);
        }
    }
    let mut accountant = RestoreAccountant::new();
    let mut next = 0;
    for &count in &s.file_chunks {
        accountant.record(&restore_profile(&layout, &s.keys[next..next + count]), 1);
        next += count;
    }
    accountant.absorb_layout(&layout);
    RestoreLayout {
        containers: layout.container_count(),
        stats: accountant.finish(),
    }
}
