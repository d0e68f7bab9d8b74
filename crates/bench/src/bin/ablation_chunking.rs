//! Ablation: fixed-size vs content-defined chunking (the paper's
//! future-work "variable-size chunking" extension), in both regimes.
//!
//! The paper's synthetic datasets duplicate at chunk alignment, where
//! fixed-size chunking (the paper's model and prototype) sees every
//! duplicate. A versioned-backup corpus carries *shifted* redundancy —
//! small inserts and deletes between versions — which only content-defined
//! cuts survive; its gear ratio is checked against the arXiv 1701.04451
//! closed form (DESIGN.md §16), and its chunk lists then drive the
//! container layout to show what a restore reads with defrag off and
//! with capped rewriting.
//!
//! Every figure is a count or a ratio of counts: the output is identical
//! on every host. Wall-clock chunking and hashing throughput are
//! `bench_e2e`'s `chunking.cdc.mbps` and `chunking.sha256.mbps`.

use ef_bench::{fmt, header, quick_mode};
use ef_chunking::{Chunk, Chunker, FixedChunker, GearChunker, GearChunkerBuilder};
use ef_cloudstore::{
    restore_profile, ContainerLayout, DefragPolicy, RestoreAccountant, RestoreProfile, RestoreStats,
};
use ef_datagen::{datasets, VersionedBackupConfig, WorkloadKind};
use std::collections::BTreeSet;

/// Capacity of one cloud container in the restore-layout table.
const CONTAINER_BYTES: usize = 64 * 1024;

fn main() {
    let files_per_source = if quick_mode() { 1 } else { 2 };
    let chunks_per_file = if quick_mode() { 150 } else { 400 };
    let fixed = FixedChunker::new(4096).expect("valid");
    let cdc = GearChunkerBuilder::new()
        .min_size(1024)
        .target_size(4096)
        .max_size(16 * 1024)
        .build()
        .expect("valid");

    for (name, dataset) in [
        ("accelerometer", datasets::accelerometer(4, 42)),
        ("traffic-video", datasets::traffic_video(4, 42)),
    ] {
        header(&format!("Ablation: chunking strategy, dataset {name}"));
        let mut streams = Vec::new();
        for s in 0..4usize {
            for f in 0..files_per_source {
                streams.push(dataset.file(s, 0, f as u32, chunks_per_file));
            }
        }
        ratio_table(&fixed, &cdc, &streams);
    }

    // The opposite regime. The datasets above are chunk-aligned by
    // construction, so fixed-size chunking wins them; shifted redundancy
    // is the workload CDC exists for.
    let config = if quick_mode() {
        VersionedBackupConfig {
            base_len: 128 * 1024,
            versions: 6,
            ..VersionedBackupConfig::default()
        }
    } else {
        VersionedBackupConfig::default()
    };
    let versions = WorkloadKind::VersionedBackup(config).streams(42);
    header("Ablation: chunking strategy, versioned-backup corpus (shifted edits)");
    let gear_lists = ratio_table(&fixed, &cdc, &versions);
    let (gear_ratio, gear_chunks, unique_bytes) = summarize(&gear_lists);
    let total_bytes: usize = versions.iter().map(Vec::len).sum();
    let expected = config.expected_ratio_cdc(total_bytes as f64 / gear_chunks as f64);
    let model_err_pct = (gear_ratio - expected).abs() / expected * 100.0;
    println!("{:<12} {}", "closed form", fmt(expected));
    println!("{:<12} {}", "model err %", fmt(model_err_pct));

    header("Restore path over the gear-cdc layout (64 KiB containers)");
    println!(
        "{:<16} {:>12} {:>12} {:>8} {:>12} {:>12}",
        "defrag policy", "frag (all)", "local (all)", "latest", "local (last)", "rewrite %"
    );
    for (label, policy) in [
        ("off", DefragPolicy::Off),
        ("cap-rewrite(1)", DefragPolicy::CapRewrite { window: 1 }),
    ] {
        let (all, latest) = restore_run(&gear_lists, policy);
        let adjacent = latest.chunks_read.saturating_sub(1).max(1);
        println!(
            "{label:<16} {} {} {:>8} {} {}",
            fmt(all.fragmentation_mean),
            fmt(all.locality),
            latest.containers,
            fmt(1.0 - latest.switches as f64 / adjacent as f64),
            fmt(all.rewrite_bytes as f64 / unique_bytes as f64 * 100.0)
        );
    }
    println!(
        "\nfrag = distinct containers per restore (all versions: mean; latest: count);\n\
         local = fraction of consecutive reads that stay in one container;\n\
         rewrite % = bytes the policy stored again, over the unique bytes."
    );
}

/// Chunks every stream once per chunker and prints each chunker's joint
/// dedup ratio and chunk count; returns the gear-CDC chunk lists.
fn ratio_table(fixed: &FixedChunker, cdc: &GearChunker, streams: &[Vec<u8>]) -> Vec<Vec<Chunk>> {
    let fixed_lists: Vec<_> = streams.iter().map(|s| fixed.chunk(s)).collect();
    let gear_lists: Vec<_> = streams.iter().map(|s| cdc.chunk(s)).collect();
    println!("{:<12} {:>12} {:>12}", "chunker", "dedup", "chunks");
    for (label, lists) in [("fixed-4k", &fixed_lists), ("gear-cdc", &gear_lists)] {
        let (ratio, chunks, _) = summarize(lists);
        println!("{label:<12} {} {chunks:>12}", fmt(ratio));
    }
    gear_lists
}

/// Joint dedup ratio, chunk count and unique bytes of chunked streams
/// deduplicated against one shared index.
fn summarize(lists: &[Vec<Chunk>]) -> (f64, usize, usize) {
    let mut seen = BTreeSet::new();
    let (mut total, mut unique, mut chunks) = (0usize, 0usize, 0usize);
    for chunk in lists.iter().flatten() {
        chunks += 1;
        total += chunk.len();
        if seen.insert(chunk.hash) {
            unique += chunk.len();
        }
    }
    (total as f64 / unique.max(1) as f64, chunks, unique)
}

/// Ingests chunked version streams in arrival order into a container
/// layout under `policy`, then restores every version (one serving
/// node). Returns the aggregate and the profile of the *latest*
/// version's restore — the one a backup SLA is about, and the one capped
/// rewriting exists to keep sequential.
fn restore_run(versions: &[Vec<Chunk>], policy: DefragPolicy) -> (RestoreStats, RestoreProfile) {
    let mut layout = ContainerLayout::new(CONTAINER_BYTES);
    let mut seen = BTreeSet::new();
    for chunk in versions.iter().flatten() {
        if seen.insert(chunk.hash) {
            layout.place(chunk.hash, chunk.len());
        } else {
            layout.on_duplicate(&chunk.hash, chunk.len(), policy);
        }
    }
    let mut acc = RestoreAccountant::new();
    let mut latest = RestoreProfile::default();
    for chunks in versions {
        let hashes: Vec<_> = chunks.iter().map(|c| c.hash).collect();
        latest = restore_profile(&layout, &hashes);
        acc.record(&latest, 1);
    }
    acc.absorb_layout(&layout);
    (acc.finish(), latest)
}
