//! Ingest hot-path benchmark: the gear-CDC fast scanner vs the seed
//! byte-at-a-time loop, batched vs scalar fingerprinting, and end-to-end
//! ingest with the sharded fingerprint cache on and off.
//!
//! Prints a table and writes `BENCH_ingest.json` at the repo root in a
//! stable, flat schema (every key global and unique) that the
//! `bench_regression` integration test and the CI bench-smoke job parse
//! without a JSON library. Run with `--quick` for a smoke-sized corpus.

use ef_bench::{fmt, header, quick_mode};
use ef_chunking::{fingerprint_batch, Chunker, FixedChunker, GearChunkerBuilder, Sha256};
use ef_datagen::datasets;
use ef_kvstore::{CacheStats, ClusterConfig, Consistency, FingerprintCache, LocalCluster};
use ef_netsim::NodeId;
use std::collections::BTreeSet;
use std::time::Instant;

/// Schema tag checked by the regression test; bump on layout changes.
/// v2: the ingest section measures the ring-backed dedup-check leg over
/// pre-computed fingerprints (chunking excluded), and the cached side
/// runs the second-sight admission policy.
/// v3: adds the upload-spool drain micro-bench
/// (`spool_drain_ops_per_sec`, `spool_drain_mbps`) — the
/// disaster-tolerance hot loop added with the cloud-outage work.
/// v4: adds the proof-of-possession micro-bench
/// (`pop_challenge_ops_per_sec`, `pop_digest_mbps`) — the
/// Byzantine-tolerance hot loop: derive a salted random-offset
/// challenge and digest the claimed slice, the cost a replica pays per
/// possession proof.
/// v5: adds the shift-redundant versioned-backup section — dedup ratios
/// per chunker on a corpus with real insert/delete shift redundancy
/// (`dedup_ratio_gear_versioned` vs `dedup_ratio_fixed_versioned`, the
/// headline CDC-beats-fixed result), the arXiv 1701.04451 closed-form
/// expectation (`dedup_ratio_versioned_expected`,
/// `versioned_model_err_pct`), and restore-path metrics over the
/// container layout with defrag off and on
/// (`restore_fragmentation_mean`, `restore_locality`,
/// `restore_fragmentation_defrag`, `restore_locality_defrag`,
/// `restore_rewrite_overhead_pct`).
/// v6: adds `checksum_mbps` — the integrity checksum every WAL record,
/// stored value, wire frame and anti-entropy entry is digested with,
/// over the corpus's chunk payloads — recorded with the word-parallel
/// kernel, alongside a re-recorded `spool_drain_mbps` (frames written
/// straight into the WAL tail, compaction copying frames verbatim).
const SCHEMA: &str = "efdedup-bench-ingest/v6";

fn main() {
    let (files_per_source, chunks_per_file, reps) = if quick_mode() {
        (1usize, 150usize, 2usize)
    } else {
        (3, 600, 5)
    };

    // The same synthetic corpus the chunking ablation uses: several
    // sources per dataset with real cross-source redundancy.
    let mut streams: Vec<Vec<u8>> = Vec::new();
    for dataset in [
        datasets::accelerometer(4, 42),
        datasets::traffic_video(4, 42),
    ] {
        for s in 0..4usize {
            for f in 0..files_per_source {
                streams.push(dataset.file(s, 0, f as u32, chunks_per_file));
            }
        }
    }
    let views: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
    let total_bytes: usize = streams.iter().map(Vec::len).sum();
    let mb = total_bytes as f64 / 1e6;

    let fixed = FixedChunker::new(4096).expect("valid");
    let gear = GearChunkerBuilder::new()
        .min_size(1024)
        .target_size(4096)
        .max_size(16 * 1024)
        .build()
        .expect("valid");

    header(&format!(
        "Ingest hot path ({:.1} MB corpus, best of {reps})",
        mb
    ));

    // --- Chunking throughput -------------------------------------------
    let fixed_secs = best_secs(reps, || {
        views.iter().map(|v| fixed.chunk(v).len()).sum::<usize>()
    });
    let seed_secs = best_secs(reps, || {
        views
            .iter()
            .map(|v| gear.chunk_reference(v).len())
            .sum::<usize>()
    });
    let fast_secs = best_secs(reps, || {
        views.iter().map(|v| gear.chunk(v).len()).sum::<usize>()
    });
    let fixed_mbps = mb / fixed_secs;
    let seed_mbps = mb / seed_secs;
    let fast_mbps = mb / fast_secs;
    let speedup = fast_mbps / seed_mbps;

    println!("{:<26} {:>12}", "chunk+fingerprint path", "MB/s");
    println!("{:<26} {}", "fixed-4k (batched)", fmt(fixed_mbps));
    println!("{:<26} {}", "gear-cdc seed (scalar)", fmt(seed_mbps));
    println!("{:<26} {}", "gear-cdc fast (batched)", fmt(fast_mbps));
    println!("{:<26} {}", "gear fast/seed speedup", fmt(speedup));

    // --- Fingerprinting throughput (isolated from chunking) ------------
    let payloads: Vec<&[u8]> = views
        .iter()
        .flat_map(|v| {
            gear.boundaries(v)
                .windows(2)
                .map(|w| &v[w[0]..w[1]])
                .collect::<Vec<_>>()
        })
        .collect();
    let scalar_secs = best_secs(reps, || {
        payloads.iter().map(|p| Sha256::digest(p)[0]).sum::<u8>()
    });
    let batch_secs = best_secs(reps, || fingerprint_batch(&payloads).len());
    let scalar_mbps = mb / scalar_secs;
    let batch_mbps = mb / batch_secs;

    println!("\n{:<26} {:>12}", "fingerprinting", "MB/s");
    println!("{:<26} {}", "sha-256 scalar", fmt(scalar_mbps));
    println!("{:<26} {}", "sha-256 batched", fmt(batch_mbps));
    println!(
        "{:<26} {}",
        "batch/scalar speedup",
        fmt(batch_mbps / scalar_mbps)
    );

    // --- Integrity checksum: what every layer digests a payload with ---
    // One call per chunk payload, as the WAL, the storage engine, the
    // wire framing and anti-entropy make it.
    let payload_mb = payloads.iter().map(|p| p.len()).sum::<usize>() as f64 / 1e6;
    let checksum_secs = best_secs(reps, || {
        let digests = payloads.iter().map(|p| ef_kvstore::checksum64(p));
        digests.fold(0u64, |acc, d| acc ^ d)
    });
    let checksum_mbps = payload_mb / checksum_secs;
    println!("{:<26} {}", "checksum64", fmt(checksum_mbps));

    // --- Dedup-check ingest: the agent's ring-index leg ----------------
    // Chunking is measured above; here pre-computed fingerprints are
    // streamed through the ring key-value store exactly as the system
    // runner does — with and without the fingerprint cache in front. The
    // cached side uses second-sight admission, so one-hit-wonder chunks
    // never churn the LRU and the common miss costs one bit probe.
    //
    // An untimed population pass first ingests the corpus (the write
    // path is measured by the kvstore benches, not here); the timed
    // section then replays the corpus for `EPOCHS` rounds — the periodic
    // re-upload traffic edge dedup exists for, where every fingerprint
    // is a duplicate the index must confirm. Under second sight the
    // first replay earns each fingerprint admission and later replays
    // hit locally.
    const EPOCHS: usize = 3;
    let epoch_keys: Vec<[u8; 32]> = views
        .iter()
        .flat_map(|v| {
            gear.chunk(v)
                .into_iter()
                .map(|c| *c.hash.as_bytes())
                .collect::<Vec<_>>()
        })
        .collect();
    let total_chunks = epoch_keys.len() * EPOCHS;
    let off_secs = best_of(reps, || ingest(&epoch_keys, EPOCHS, false).0);
    let on_secs = best_of(reps, || ingest(&epoch_keys, EPOCHS, true).0);
    let off_ops = total_chunks as f64 / off_secs;
    let on_ops = total_chunks as f64 / on_secs;

    // Hit rate from one counted pass (timing passes discard the cache).
    let (_, counted) = ingest(&epoch_keys, EPOCHS, true);
    let hit_rate = counted.hit_rate();

    println!("\n{:<26} {:>12}", "re-ingest dedup-check", "ops/s");
    println!("{:<26} {}", "cache off", fmt(off_ops));
    println!("{:<26} {}", "cache on (8x16k, 2nd-sight)", fmt(on_ops));
    println!("{:<26} {}", "cache hit rate", fmt(hit_rate));

    // --- Upload-spool drain: the disaster-tolerance hot loop -----------
    // During a cloud outage the durable upload spool absorbs every
    // unique chunk; when the uplink returns it drains under a bandwidth
    // cap. One full cycle per chunk — WAL-backed enqueue, capped batch
    // planning, acked retirement — is the bookkeeping cost a node pays
    // on top of the upload itself, so it must stay far above uplink
    // line rate.
    let spool_entries = if quick_mode() { 2_000usize } else { 8_000 };
    let spool_value = vec![0x5au8; 4096];
    let spool_secs = best_secs(reps, || {
        use ef_kvstore::{SpoolClass, SpoolDest, UploadSpool};
        let mut spool = UploadSpool::new(64);
        for i in 0..spool_entries {
            spool.enqueue(
                SpoolClass::Critical,
                SpoolDest::Cloud,
                bytes::Bytes::copy_from_slice(&(i as u64).to_be_bytes()),
                Some(bytes::Bytes::from(spool_value.clone())),
            );
        }
        let mut drained = 0usize;
        while !spool.is_empty() {
            let batch = spool.plan_cloud_batch(256 * 1024);
            for (key, _) in &batch {
                spool.retire_cloud(key);
            }
            drained += batch.len();
        }
        drained
    });
    let spool_ops = spool_entries as f64 / spool_secs;
    let spool_mbps = (spool_entries * spool_value.len()) as f64 / 1e6 / spool_secs;

    println!("\n{:<26} {:>12}", "upload-spool drain", "");
    println!("{:<26} {} ops/s", "enqueue+plan+retire", fmt(spool_ops));
    println!("{:<26} {} MB/s", "payload throughput", fmt(spool_mbps));

    // --- Proof-of-possession: the Byzantine-tolerance hot loop ---------
    // Per challenge a replica derives the salted slice coordinates and
    // digests up to 512 bytes of the claimed chunk; the coordinator
    // pays the same digest to verify. Both sides together bound the
    // per-duplicate CPU overhead of arming the defense, so the rate
    // must dwarf any realistic duplicate arrival rate.
    let pop_stats = {
        use ef_kvstore::{derive_challenge, key_token, nth_op_id, pop_digest};
        let prover = NodeId(1);
        // The coordinator challenges by fingerprint, not payload: token
        // the 32-byte chunk hash (computed by ingest long before any
        // challenge), untimed.
        let tokens: Vec<u64> = payloads
            .iter()
            .map(|p| key_token(&Sha256::digest(p)))
            .collect();
        let secs = best_secs(reps, || {
            let mut acc = 0u32;
            for (i, p) in payloads.iter().enumerate() {
                let challenge =
                    derive_challenge(0x5eed, nth_op_id(NodeId(0), i as u64), tokens[i], prover);
                acc = acc.wrapping_add(u32::from(pop_digest(challenge, p)[0]));
            }
            acc
        });
        let ops = payloads.len() as f64 / secs;
        let sliced: usize = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let c = derive_challenge(0x5eed, nth_op_id(NodeId(0), i as u64), tokens[i], prover);
                (c.len as usize).min(p.len())
            })
            .sum();
        (ops, sliced as f64 / 1e6 / secs)
    };
    let (pop_ops, pop_mbps) = pop_stats;

    println!("\n{:<26} {:>12}", "proof-of-possession", "");
    println!("{:<26} {} ops/s", "derive+digest challenge", fmt(pop_ops));
    println!("{:<26} {} MB/s", "sliced digest throughput", fmt(pop_mbps));

    // --- Dedup ratios: the fast path must not change the answer --------
    let ratio_fixed = ef_chunking::joint_dedup_ratio(&fixed, &views);
    let ratio_fast = ef_chunking::joint_dedup_ratio(&gear, &views);
    let ratio_seed = seed_ratio(&gear, &views);
    let delta_pct = (ratio_fast - ratio_seed).abs() / ratio_seed * 100.0;

    println!("\n{:<26} {:>12}", "dedup ratio", "x");
    println!("{:<26} {}", "fixed-4k", fmt(ratio_fixed));
    println!("{:<26} {}", "gear-cdc seed", fmt(ratio_seed));
    println!("{:<26} {}", "gear-cdc fast", fmt(ratio_fast));
    println!("{:<26} {}", "fast vs seed delta %", fmt(delta_pct));

    // --- Shift-redundant realism: the versioned-backup corpus ----------
    // The pool corpus above duplicates at byte alignment, so fixed-size
    // chunking wins there by construction. Real backup streams carry
    // *shifted* redundancy — small inserts/deletes between versions —
    // which is the workload CDC exists for. Measure both chunkers on a
    // versioned-backup corpus and check the gear ratio against the
    // arXiv 1701.04451 closed form (DESIGN.md §16).
    let vb_cfg = if quick_mode() {
        ef_datagen::VersionedBackupConfig {
            base_len: 128 * 1024,
            versions: 6,
            ..ef_datagen::VersionedBackupConfig::default()
        }
    } else {
        ef_datagen::VersionedBackupConfig::default()
    };
    let versioned = ef_datagen::WorkloadKind::VersionedBackup(vb_cfg).streams(42);
    let vviews: Vec<&[u8]> = versioned.iter().map(|s| s.as_slice()).collect();
    let v_total: usize = vviews.iter().map(|v| v.len()).sum();
    let v_chunk_lists: Vec<Vec<ef_chunking::Chunk>> =
        vviews.iter().map(|v| gear.chunk(v)).collect();
    let v_chunks: usize = v_chunk_lists.iter().map(Vec::len).sum();
    let v_mean_chunk = v_total as f64 / v_chunks as f64;
    let v_fixed = ef_chunking::joint_dedup_ratio(&fixed, &vviews);
    let v_fast = ef_chunking::joint_dedup_ratio(&gear, &vviews);
    let v_seed = seed_ratio(&gear, &vviews);
    let v_expected = vb_cfg.expected_ratio_cdc(v_mean_chunk);
    let v_model_err_pct = (v_fast - v_expected).abs() / v_expected * 100.0;

    println!("\n{:<26} {:>12}", "versioned-backup dedup", "x");
    println!("{:<26} {}", "fixed-4k", fmt(v_fixed));
    println!("{:<26} {}", "gear-cdc seed", fmt(v_seed));
    println!("{:<26} {}", "gear-cdc fast", fmt(v_fast));
    println!("{:<26} {}", "closed-form expected", fmt(v_expected));
    println!("{:<26} {}", "model error %", fmt(v_model_err_pct));

    // --- Restore path over the container layout ------------------------
    // Ingest the versions in arrival order into fixed-capacity
    // containers, then restore each version and measure fragmentation
    // (distinct containers per restore) and locality (fraction of
    // consecutive reads staying in a container) — defrag off, then with
    // the capped-rewrite policy.
    let container_bytes = 64 * 1024;
    let (plain, plain_latest) = restore_run(
        &v_chunk_lists,
        container_bytes,
        ef_cloudstore::DefragPolicy::Off,
    );
    let (defrag, defrag_latest) = restore_run(
        &v_chunk_lists,
        container_bytes,
        ef_cloudstore::DefragPolicy::CapRewrite { window: 1 },
    );
    let latest_locality = |p: &ef_cloudstore::RestoreProfile| {
        let adjacent = p.chunks_read.saturating_sub(1);
        if adjacent == 0 {
            1.0
        } else {
            1.0 - p.switches as f64 / adjacent as f64
        }
    };
    let loc_latest_plain = latest_locality(&plain_latest);
    let loc_latest_defrag = latest_locality(&defrag_latest);
    let unique_bytes: u64 = {
        let mut seen: BTreeSet<[u8; 32]> = BTreeSet::new();
        let mut total = 0u64;
        for chunks in &v_chunk_lists {
            for c in chunks {
                if seen.insert(*c.hash.as_bytes()) {
                    total += c.len() as u64;
                }
            }
        }
        total
    };
    let rewrite_overhead_pct = defrag.rewrite_bytes as f64 / unique_bytes as f64 * 100.0;

    println!("\n{:<26} {:>12}", "restore path (64k cont.)", "");
    println!(
        "{:<26} {}",
        "fragmentation (defrag off)",
        fmt(plain.fragmentation_mean)
    );
    println!("{:<26} {}", "locality (defrag off)", fmt(plain.locality));
    println!(
        "{:<26} {}",
        "fragmentation (window 1)",
        fmt(defrag.fragmentation_mean)
    );
    println!("{:<26} {}", "locality (window 1)", fmt(defrag.locality));
    let latest_frag = format!("{} / {}", plain_latest.containers, defrag_latest.containers);
    println!("{:<26} {latest_frag}", "latest frag off/defrag");
    println!("{:<26} {}", "latest locality off", fmt(loc_latest_plain));
    println!(
        "{:<26} {}",
        "latest locality defrag",
        fmt(loc_latest_defrag)
    );
    println!("{:<26} {} %", "rewrite overhead", fmt(rewrite_overhead_pct));

    // --- BENCH_ingest.json ---------------------------------------------
    // Hand-formatted so the schema is byte-stable and greppable; parsed
    // by tests/bench_regression.rs and the CI bench-smoke job.
    let json = format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"corpus_bytes\": {total_bytes},\n  \
         \"fixed_chunk_mbps\": {fixed_mbps:.2},\n  \
         \"gear_seed_chunk_mbps\": {seed_mbps:.2},\n  \
         \"gear_fast_chunk_mbps\": {fast_mbps:.2},\n  \
         \"gear_chunk_speedup\": {speedup:.3},\n  \
         \"fingerprint_scalar_mbps\": {scalar_mbps:.2},\n  \
         \"fingerprint_batch_mbps\": {batch_mbps:.2},\n  \
         \"checksum_mbps\": {checksum_mbps:.2},\n  \
         \"ingest_epochs\": {EPOCHS},\n  \
         \"ingest_cache_off_ops_per_sec\": {off_ops:.1},\n  \
         \"ingest_cache_on_ops_per_sec\": {on_ops:.1},\n  \
         \"ingest_cache_hit_rate\": {hit_rate:.4},\n  \
         \"spool_drain_ops_per_sec\": {spool_ops:.1},\n  \
         \"spool_drain_mbps\": {spool_mbps:.2},\n  \
         \"pop_challenge_ops_per_sec\": {pop_ops:.1},\n  \
         \"pop_digest_mbps\": {pop_mbps:.2},\n  \
         \"dedup_ratio_fixed\": {ratio_fixed:.4},\n  \
         \"dedup_ratio_gear_seed\": {ratio_seed:.4},\n  \
         \"dedup_ratio_gear_fast\": {ratio_fast:.4},\n  \
         \"dedup_ratio_gear_delta_pct\": {delta_pct:.4},\n  \
         \"dedup_ratio_fixed_versioned\": {v_fixed:.4},\n  \
         \"dedup_ratio_gear_versioned\": {v_fast:.4},\n  \
         \"dedup_ratio_gear_versioned_seed\": {v_seed:.4},\n  \
         \"dedup_ratio_versioned_expected\": {v_expected:.4},\n  \
         \"versioned_model_err_pct\": {v_model_err_pct:.2},\n  \
         \"restore_fragmentation_mean\": {frag_plain:.4},\n  \
         \"restore_locality\": {loc_plain:.4},\n  \
         \"restore_fragmentation_defrag\": {frag_defrag:.4},\n  \
         \"restore_locality_defrag\": {loc_defrag:.4},\n  \
         \"restore_latest_fragmentation\": {frag_latest_plain},\n  \
         \"restore_latest_fragmentation_defrag\": {frag_latest_defrag},\n  \
         \"restore_latest_locality\": {loc_latest_plain:.4},\n  \
         \"restore_latest_locality_defrag\": {loc_latest_defrag:.4},\n  \
         \"restore_rewrite_overhead_pct\": {rewrite_overhead_pct:.2}\n}}\n",
        frag_plain = plain.fragmentation_mean,
        loc_plain = plain.locality,
        frag_defrag = defrag.fragmentation_mean,
        loc_defrag = defrag.locality,
        frag_latest_plain = plain_latest.containers,
        frag_latest_defrag = defrag_latest.containers,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json");
    std::fs::write(path, json).expect("write BENCH_ingest.json");
    println!("\nwrote {path}");
}

/// Best-of-`reps` wall time of `f` after one warm-up call.
fn best_secs<T, F: FnMut() -> T>(reps: usize, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// One ingest experiment: an untimed population pass pushes the corpus
/// fingerprints through the ring key-value store, then `epochs` timed
/// replay rounds drive the dedup-check leg — per fingerprint consult
/// the cache (when enabled) and fall back to the ring, exactly as the
/// system runner does. Returns the timed-section seconds and the cache
/// counters of the whole run.
fn ingest(epoch_keys: &[[u8; 32]], epochs: usize, cached: bool) -> (f64, CacheStats) {
    let members: Vec<NodeId> = (0..4).map(NodeId).collect();
    let mut cluster = LocalCluster::new(
        members.clone(),
        ClusterConfig {
            replication_factor: 2,
            consistency: Consistency::One,
            ..ClusterConfig::default()
        },
    );
    let mut cache = cached.then(|| FingerprintCache::new(8, 1 << 14).with_second_sight());
    let mut round = |keys: &[[u8; 32]], cluster: &mut LocalCluster| {
        let mut checked = 0usize;
        for key in keys {
            if let Some(cache) = cache.as_mut() {
                if cache.contains(key) {
                    continue; // duplicate confirmed locally, no ring trip
                }
            }
            checked += 1;
            cluster
                .check_and_insert(members[0], key, bytes::Bytes::from_static(&[1]))
                .expect("instant-delivery cluster cannot fail");
            if let Some(cache) = cache.as_mut() {
                cache.insert(bytes::Bytes::copy_from_slice(key));
            }
        }
        checked
    };
    round(epoch_keys, &mut cluster); // population (untimed)
    let start = Instant::now();
    let mut checked = 0usize;
    for _ in 0..epochs {
        checked += round(epoch_keys, &mut cluster);
    }
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(checked);
    (secs, cache.map(|c| c.stats()).unwrap_or_default())
}

/// Best (minimum) of `reps` values returned by `f`, after one warm-up.
fn best_of<F: FnMut() -> f64>(reps: usize, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        best = best.min(f());
    }
    best
}

/// Ingests chunked version streams in arrival order into a container
/// layout under `policy`, then restores every version and aggregates
/// the restore-path stats (single cloud endpoint, so one serving node).
/// Also returns the profile of the *latest* version's restore — the
/// SLA-relevant one in backup systems, and the restore capped rewriting
/// exists to keep sequential.
fn restore_run(
    chunk_lists: &[Vec<ef_chunking::Chunk>],
    container_bytes: usize,
    policy: ef_cloudstore::DefragPolicy,
) -> (ef_cloudstore::RestoreStats, ef_cloudstore::RestoreProfile) {
    let mut layout = ef_cloudstore::ContainerLayout::new(container_bytes);
    let mut seen: BTreeSet<[u8; 32]> = BTreeSet::new();
    for chunks in chunk_lists {
        for c in chunks {
            if seen.insert(*c.hash.as_bytes()) {
                layout.place(c.hash, c.len());
            } else {
                layout.on_duplicate(&c.hash, c.len(), policy);
            }
        }
    }
    let mut acc = ef_cloudstore::RestoreAccountant::new();
    let mut latest = ef_cloudstore::RestoreProfile::default();
    for chunks in chunk_lists {
        let hashes: Vec<ef_chunking::ChunkHash> = chunks.iter().map(|c| c.hash).collect();
        let profile = ef_cloudstore::restore_profile(&layout, &hashes);
        acc.record(&profile, 1);
        latest = profile;
    }
    acc.absorb_layout(&layout);
    (acc.finish(), latest)
}

/// Joint dedup ratio through the *seed* (reference) gear pipeline.
fn seed_ratio(gear: &ef_chunking::GearChunker, views: &[&[u8]]) -> f64 {
    let total: usize = views.iter().map(|v| v.len()).sum();
    let mut seen: BTreeSet<[u8; 32]> = BTreeSet::new();
    let mut unique_bytes = 0usize;
    for v in views {
        for chunk in gear.chunk_reference(v) {
            if seen.insert(*chunk.hash.as_bytes()) {
                unique_bytes += chunk.len();
            }
        }
    }
    total as f64 / unique_bytes as f64
}
