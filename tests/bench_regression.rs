//! Regression gate on the committed ingest benchmark record.
//!
//! `bench_ingest` (crates/bench) measures the hot path and writes
//! `BENCH_ingest.json` at the repo root; this test pins the promises the
//! overhaul makes — the gear-CDC fast path is at least 3× the seed
//! byte-loop chunker and produces the *same* dedup ratio (within 2%),
//! the second-sight fingerprint cache makes re-ingest dedup checks
//! *faster* than the uncached ring path — and that the record carries
//! all three headline metrics (chunking MB/s, fingerprint batch MB/s,
//! ingest ops/s). The file is parsed by hand: the schema is flat with
//! globally unique keys precisely so no JSON library is needed here or
//! in the CI smoke job.

use std::fs;

const RECORD: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_ingest.json");

/// Extracts the numeric value of a top-level `"key": value` pair.
fn metric(json: &str, key: &str) -> f64 {
    let needle = format!("\"{key}\":");
    let at = json
        .find(&needle)
        .unwrap_or_else(|| panic!("BENCH_ingest.json missing key {key:?}"));
    let rest = &json[at + needle.len()..];
    let end = rest
        .find([',', '}'])
        .unwrap_or_else(|| panic!("unterminated value for {key:?}"));
    rest[..end]
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("value for {key:?} is not a number: {e}"))
}

fn record() -> String {
    fs::read_to_string(RECORD).expect("BENCH_ingest.json exists at the repo root")
}

#[test]
fn record_carries_the_schema_tag() {
    assert!(
        record().contains("\"schema\": \"efdedup-bench-ingest/v6\""),
        "unknown or missing schema tag"
    );
}

#[test]
fn cdc_beats_fixed_size_on_the_versioned_corpus() {
    // The headline the chunking choice depends on: on a corpus with
    // real insert/delete shift redundancy (versioned backups), gear-CDC
    // must find strictly more redundancy than equal-size chunking. The
    // byte-aligned pool corpus keys (`dedup_ratio_fixed` vs
    // `dedup_ratio_gear_fast`) deliberately show the opposite — that
    // control pins the regime where alignment survives.
    let json = record();
    let fixed = metric(&json, "dedup_ratio_fixed_versioned");
    let gear = metric(&json, "dedup_ratio_gear_versioned");
    let gear_seed = metric(&json, "dedup_ratio_gear_versioned_seed");
    assert!(fixed >= 1.0, "fixed ratio below 1: {fixed}");
    assert!(
        gear > fixed,
        "gear-CDC lost to fixed-size on the shift-redundant corpus: {gear} vs {fixed}"
    );
    assert!(
        gear_seed > fixed,
        "seed gear path lost to fixed-size: {gear_seed} vs {fixed}"
    );
}

#[test]
fn versioned_ratio_tracks_the_closed_form() {
    // The measured gear ratio must sit within the documented tolerance
    // of the arXiv 1701.04451 closed form (20% — the form is a
    // first-order coverage model; see DESIGN.md §16).
    let json = record();
    let expected = metric(&json, "dedup_ratio_versioned_expected");
    let err = metric(&json, "versioned_model_err_pct");
    assert!(expected > 1.0, "closed form degenerate: {expected}");
    assert!(
        err <= 20.0,
        "measured versioned ratio drifted {err}% from the closed form"
    );
}

#[test]
fn restore_metrics_are_present_and_bounded() {
    let json = record();
    let frag = metric(&json, "restore_fragmentation_mean");
    let loc = metric(&json, "restore_locality");
    assert!(frag >= 1.0, "fragmentation below 1 container: {frag}");
    assert!((0.0..=1.0).contains(&loc), "locality out of range: {loc}");
    let loc_defrag = metric(&json, "restore_locality_defrag");
    assert!(
        (0.0..=1.0).contains(&loc_defrag),
        "defrag locality out of range: {loc_defrag}"
    );
    assert!(
        metric(&json, "restore_rewrite_overhead_pct") >= 0.0,
        "negative rewrite overhead"
    );
}

#[test]
fn capped_rewrite_defragments_the_latest_restore() {
    // Capping sacrifices old-version locality to keep the *latest*
    // backup sequential — the restore with an SLA. The aggregate
    // metrics may move either way; the latest-version ones must
    // improve or the policy is useless.
    let json = record();
    let frag_off = metric(&json, "restore_latest_fragmentation");
    let frag_on = metric(&json, "restore_latest_fragmentation_defrag");
    let loc_off = metric(&json, "restore_latest_locality");
    let loc_on = metric(&json, "restore_latest_locality_defrag");
    assert!(
        frag_on <= frag_off,
        "defrag increased latest-restore fragmentation: {frag_on} vs {frag_off}"
    );
    assert!(
        loc_on >= loc_off,
        "defrag reduced latest-restore locality: {loc_on} vs {loc_off}"
    );
}

#[test]
fn pop_challenge_rate_dwarfs_duplicate_arrival() {
    // A proof-of-possession challenge (derive salted slice coordinates,
    // digest ≤ 512 bytes of the claimed chunk) rides on every remote
    // duplicate verdict once the defense is armed. At 4 KB chunks even
    // a 1 GB/s ingest stream arrives below ~250k duplicates/s, so the
    // challenge loop must clear that with a wide margin or the defense
    // would throttle ingest instead of the liar.
    let json = record();
    let ops = metric(&json, "pop_challenge_ops_per_sec");
    let mbps = metric(&json, "pop_digest_mbps");
    assert!(
        ops >= 250_000.0,
        "proof-of-possession challenge loop fell to {ops} ops/s — within \
         reach of duplicate arrival rates"
    );
    assert!(mbps > 0.0, "sliced digest throughput not positive: {mbps}");
}

#[test]
fn spool_drain_stays_far_above_uplink_line_rate() {
    // The upload spool's enqueue/plan/retire bookkeeping rides on every
    // chunk that crosses the cloud uplink during outage recovery. If it
    // ever drops toward real uplink line rates (tens of MB/s), draining
    // the backlog becomes CPU-bound instead of network-bound and the
    // recovery-time model in EXPERIMENTS.md stops holding.
    let json = record();
    let ops = metric(&json, "spool_drain_ops_per_sec");
    let mbps = metric(&json, "spool_drain_mbps");
    assert!(ops > 0.0, "spool drain throughput not positive: {ops}");
    // The committed record sits near 205 MB/s now that a frame is
    // written straight into the WAL tail, checksummed by the
    // word-parallel kernel and compacted by verbatim frame copies;
    // 100 MB/s leaves that 2x headroom and is ~8x the fastest uplink the
    // simulator models. (The byte-serial-checksum path recorded 61 MB/s,
    // the first, quadratic-compaction implementation 1.2 MB/s.)
    assert!(
        mbps >= 100.0,
        "spool drain bookkeeping fell to {mbps} MB/s — the WAL is copying \
         or re-hashing payloads again"
    );
}

#[test]
fn checksum_kernel_stays_word_parallel() {
    // Every WAL record, stored value, wire frame and anti-entropy entry
    // is digested with `checksum64`, so its speed multiplies through
    // every layer. The byte-serial FNV-1a loop it replaced ran at
    // ~0.5-0.8 GB/s (one dependent multiply per byte); the four-lane
    // kernel must stay well clear of that.
    let mbps = metric(&record(), "checksum_mbps");
    assert!(
        mbps >= 2_000.0,
        "checksum64 fell to {mbps} MB/s — back in byte-serial territory"
    );
}

#[test]
fn cached_reingest_beats_the_uncached_ring_path() {
    // The point of the fingerprint cache: steady-state re-ingest (every
    // chunk a duplicate the index must confirm) must be at least as
    // fast with the second-sight cache in front as without it. PR 5's
    // record had cache-ON *slower* than cache-OFF; this gate keeps that
    // regression from coming back.
    let json = record();
    let off = metric(&json, "ingest_cache_off_ops_per_sec");
    let on = metric(&json, "ingest_cache_on_ops_per_sec");
    assert!(off > 0.0, "uncached throughput not positive: {off}");
    assert!(
        on >= off,
        "cached re-ingest regressed below the uncached ring path: {on} vs {off} ops/s"
    );
    let epochs = metric(&json, "ingest_epochs");
    assert!(epochs >= 2.0, "need at least two replay epochs: {epochs}");
}

#[test]
fn gear_fast_path_is_at_least_3x_the_seed_chunker() {
    let json = record();
    let seed = metric(&json, "gear_seed_chunk_mbps");
    let fast = metric(&json, "gear_fast_chunk_mbps");
    let speedup = metric(&json, "gear_chunk_speedup");
    assert!(seed > 0.0, "seed throughput not positive: {seed}");
    assert!(
        fast / seed >= 3.0,
        "gear fast path regressed below 3x the seed chunker: {fast} vs {seed} MB/s"
    );
    assert!(
        (speedup - fast / seed).abs() < 0.01,
        "recorded speedup {speedup} disagrees with {fast}/{seed}"
    );
}

#[test]
fn gear_fast_path_preserves_the_dedup_ratio() {
    let json = record();
    let seed = metric(&json, "dedup_ratio_gear_seed");
    let fast = metric(&json, "dedup_ratio_gear_fast");
    let delta = metric(&json, "dedup_ratio_gear_delta_pct");
    assert!(
        delta <= 2.0,
        "fast-path dedup ratio drifted {delta}% from the seed chunker"
    );
    assert!(
        ((fast - seed).abs() / seed * 100.0 - delta).abs() < 0.01,
        "recorded delta {delta} disagrees with ratios {fast} vs {seed}"
    );
}

#[test]
fn record_carries_all_three_headline_metrics() {
    let json = record();
    for key in [
        "gear_fast_chunk_mbps",
        "fingerprint_batch_mbps",
        "ingest_cache_on_ops_per_sec",
    ] {
        assert!(
            metric(&json, key) > 0.0,
            "headline metric {key} not positive"
        );
    }
    let hit_rate = metric(&json, "ingest_cache_hit_rate");
    assert!(
        (0.0..=1.0).contains(&hit_rate),
        "cache hit rate out of range: {hit_rate}"
    );
}
