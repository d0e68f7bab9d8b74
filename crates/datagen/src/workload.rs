//! Shift-redundant workload generators.
//!
//! The pool-model corpora ([`crate::datasets`]) produce *byte-aligned*
//! duplication: identical chunks repeat at chunk-size-aligned offsets, so
//! equal-size chunking finds every duplicate and content-defined chunking
//! has nothing extra to offer. Real backup, image, and log streams are
//! not like that — redundancy survives *small insertions and deletions*
//! that shift every later byte, which is precisely the workload CDC
//! exists for. This module generates such streams deterministically:
//!
//! * [`WorkloadKind::VersionedBackup`] — successive versions of one
//!   logical file separated by small insert/delete/replace edits,
//! * [`WorkloadKind::LayeredImages`] — container/VM images sharing base
//!   layers, each image carrying small in-layer patches plus a unique
//!   delta layer,
//! * [`WorkloadKind::LogAppend`] — an append-mostly log whose head is
//!   periodically trimmed (rotation), shifting the surviving tail,
//! * [`WorkloadKind::ByteAligned`] — the legacy pool-model corpus kept
//!   as the control where equal-size chunking wins.
//!
//! Every generator is a pure function of `(config, seed)`: the same call
//! is bit-identical across runs and platforms (pinned by golden-vector
//! tests), and no wall clock or ambient entropy is consulted anywhere.
//!
//! The versioned-backup generator also carries *closed-form* expected
//! dedup ratios (the edited-source model of "An Information-Theoretic
//! Analysis of Deduplication", arXiv 1701.04451, specialized to our
//! knobs) so measured ratios can be validated against theory rather than
//! against themselves; see [`VersionedBackupConfig::expected_ratio_cdc`].
//!
//! # Example
//!
//! ```
//! use ef_datagen::WorkloadKind;
//!
//! let kind = WorkloadKind::versioned_backup();
//! let a = kind.streams(7);
//! let b = kind.streams(7);
//! assert_eq!(a, b); // seed-deterministic
//! assert_eq!(a.len(), 8); // one stream per version
//! ```

use crate::model::{materialize_chunk, ChunkRef};
use ef_simcore::DetRng;

/// Calibration constant of the CDC closed form: the expected *extra*
/// chunk bytes an edit dirties beyond its own span, in units of the mean
/// chunk size. A point edit invalidates the (length-biased) chunk that
/// contains it and, for inserts/deletes, CDC re-synchronizes at the next
/// content-defined boundary — together a little more than one mean chunk.
/// Calibrated once against the default gear ladder (min = target/4,
/// max = target×8); the validation test holds measured ratios to the
/// resulting form within [`CDC_MODEL_TOLERANCE`].
pub const CDC_DIRTY_BETA: f64 = 1.25;

/// Documented relative tolerance between the measured gear-CDC dedup
/// ratio on a versioned-backup corpus and the closed-form prediction.
/// The form is a first-order coverage model (Poisson edit overlap, mean
/// chunk size for the length-biased dirty span), so agreement is
/// expected to ~20%, not to the percent.
pub const CDC_MODEL_TOLERANCE: f64 = 0.20;

/// Documented relative tolerance for the fixed-size closed form. The
/// earliest-shifting-edit model ignores second-order effects (replace
/// dirt ahead of the first shift, chance boundary re-alignment), so the
/// band is wider than the CDC one.
pub const FIXED_MODEL_TOLERANCE: f64 = 0.35;

/// Versioned-backup stream knobs: one logical file, `versions` snapshots,
/// `edits_per_version` random insert/delete/replace edits between
/// consecutive snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionedBackupConfig {
    /// Bytes in the initial version.
    pub base_len: usize,
    /// Number of snapshots (streams) including the base version.
    pub versions: usize,
    /// Edits applied between consecutive versions (the edit rate; 0
    /// makes every version identical).
    pub edits_per_version: usize,
    /// Mean edit span in bytes (spans are drawn uniformly from
    /// `[mean/2, 3·mean/2]`).
    pub mean_edit_len: usize,
}

impl Default for VersionedBackupConfig {
    fn default() -> Self {
        VersionedBackupConfig {
            base_len: 256 * 1024,
            versions: 8,
            edits_per_version: 8,
            mean_edit_len: 64,
        }
    }
}

impl VersionedBackupConfig {
    /// Closed-form expected dedup ratio under *content-defined* chunking
    /// with mean chunk size `mean_chunk` (measured from the corpus:
    /// total bytes / chunk count).
    ///
    /// The arXiv 1701.04451 edited-source model specialized to these
    /// knobs: each of `k` edits per version dirties its own span `b`
    /// plus about [`CDC_DIRTY_BETA`] mean chunks; edits overlap as a
    /// Poisson coverage process, so a version's expected fresh bytes are
    /// `L · (1 − exp(−k·(b + β·c)/L))`, and over `V` versions
    ///
    /// ```text
    /// R_cdc = V·L / (L + (V−1) · L · (1 − exp(−k·(b + β·c)/L)))
    /// ```
    ///
    /// Insert and delete spans are balanced, so the expected version
    /// length stays `L`.
    pub fn expected_ratio_cdc(&self, mean_chunk: f64) -> f64 {
        let l = self.base_len as f64;
        let k = self.edits_per_version as f64;
        let b = self.mean_edit_len as f64;
        let v = self.versions as f64;
        let dirty = l * (1.0 - (-(k * (b + CDC_DIRTY_BETA * mean_chunk)) / l).exp());
        v * l / (l + (v - 1.0) * dirty)
    }

    /// Closed-form expected dedup ratio under *equal-size* chunking.
    ///
    /// Two thirds of the edits (inserts and deletes) shift every later
    /// byte, destroying chunk alignment from the edit point to the end
    /// of the file. The earliest of `k_s = 2k/3` uniform shift points
    /// sits at expected offset `L/(k_s+1)`, so only that prefix fraction
    /// of each new version still dedups:
    ///
    /// ```text
    /// R_fixed = V / (1 + (V−1) · (1 − 1/(k_s+1)))
    /// ```
    pub fn expected_ratio_fixed(&self) -> f64 {
        let ks = self.edits_per_version as f64 * 2.0 / 3.0;
        let v = self.versions as f64;
        let shifted = 1.0 - 1.0 / (ks + 1.0);
        v / (1.0 + (v - 1.0) * shifted)
    }
}

/// Layered container/VM-image corpus knobs: `images` images share
/// `base_layers` common layers; each image perturbs the shared content
/// with small insertions (per-image patches) and appends a unique delta
/// layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayeredImagesConfig {
    /// Number of shared base layers.
    pub base_layers: usize,
    /// Bytes per base layer.
    pub layer_len: usize,
    /// Number of images (streams).
    pub images: usize,
    /// Bytes of unique per-image delta appended after the base layers.
    pub delta_len: usize,
    /// Small insertions applied to the shared base content per image
    /// (the edit rate; 0 leaves the base byte-aligned across images).
    pub edits_per_image: usize,
    /// Mean insertion span in bytes.
    pub mean_edit_len: usize,
}

impl Default for LayeredImagesConfig {
    fn default() -> Self {
        LayeredImagesConfig {
            base_layers: 4,
            layer_len: 64 * 1024,
            images: 6,
            delta_len: 16 * 1024,
            edits_per_image: 4,
            mean_edit_len: 32,
        }
    }
}

/// Log-append trace knobs: a log that grows by `append_len` bytes per
/// snapshot and is rotated by trimming about `mean_trim_len` bytes off
/// the head. A nonzero trim shifts the entire surviving tail; zero trim
/// is the pure-append regime where equal-size chunking keeps alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogAppendConfig {
    /// Bytes in the initial log.
    pub initial_len: usize,
    /// Number of snapshots (streams) including the initial log.
    pub snapshots: usize,
    /// Bytes appended per snapshot.
    pub append_len: usize,
    /// Mean bytes trimmed off the head per snapshot (the edit rate;
    /// 0 = pure append, no shift).
    pub mean_trim_len: usize,
}

impl Default for LogAppendConfig {
    fn default() -> Self {
        LogAppendConfig {
            initial_len: 128 * 1024,
            snapshots: 8,
            append_len: 16 * 1024,
            mean_trim_len: 4 * 1024,
        }
    }
}

/// Legacy byte-aligned pool corpus knobs: each source draws chunks
/// uniformly from one shared pool and concatenates their materialized
/// bytes at chunk-size alignment — the regime where equal-size chunking
/// finds every duplicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteAlignedConfig {
    /// Bytes per pool chunk (and per fixed chunk: duplication is
    /// aligned at exactly this size).
    pub chunk_size: usize,
    /// Chunks in the shared pool.
    pub pool_chunks: u64,
    /// Number of sources (streams).
    pub sources: usize,
    /// Chunk draws per source.
    pub chunks_per_source: usize,
}

impl Default for ByteAlignedConfig {
    fn default() -> Self {
        ByteAlignedConfig {
            chunk_size: 4096,
            pool_chunks: 400,
            sources: 4,
            chunks_per_source: 400,
        }
    }
}

/// A workload family selected at runtime — the corpus-side analogue of
/// `ef_chunking::ChunkerKind`. Each variant generates a family of byte
/// streams deterministically from a seed; see the [module docs](self)
/// for the redundancy structure each one carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Versioned-backup stream: small shifted edits between snapshots.
    VersionedBackup(VersionedBackupConfig),
    /// Layered images: shared base layers + per-image patches/deltas.
    LayeredImages(LayeredImagesConfig),
    /// Log-append trace with head rotation.
    LogAppend(LogAppendConfig),
    /// Legacy byte-aligned pool corpus (the control).
    ByteAligned(ByteAlignedConfig),
}

impl WorkloadKind {
    /// Versioned-backup workload with default knobs.
    pub fn versioned_backup() -> Self {
        WorkloadKind::VersionedBackup(VersionedBackupConfig::default())
    }

    /// Layered-images workload with default knobs.
    pub fn layered_images() -> Self {
        WorkloadKind::LayeredImages(LayeredImagesConfig::default())
    }

    /// Log-append workload with default knobs.
    pub fn log_append() -> Self {
        WorkloadKind::LogAppend(LogAppendConfig::default())
    }

    /// Legacy byte-aligned workload with default knobs.
    pub fn byte_aligned() -> Self {
        WorkloadKind::ByteAligned(ByteAlignedConfig::default())
    }

    /// Every workload family at default knobs, shift-redundant first.
    pub fn all() -> Vec<Self> {
        vec![
            Self::versioned_backup(),
            Self::layered_images(),
            Self::log_append(),
            Self::byte_aligned(),
        ]
    }

    /// The shift-redundant families at default knobs (every default edit
    /// rate is nonzero).
    pub fn shift_redundant() -> Vec<Self> {
        vec![
            Self::versioned_backup(),
            Self::layered_images(),
            Self::log_append(),
        ]
    }

    /// A short stable label for logs, metrics, and golden files.
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadKind::VersionedBackup(_) => "versioned-backup",
            WorkloadKind::LayeredImages(_) => "layered-images",
            WorkloadKind::LogAppend(_) => "log-append",
            WorkloadKind::ByteAligned(_) => "byte-aligned",
        }
    }

    /// True when this workload's redundancy survives only under
    /// content-defined chunking: its configured edit rate shifts bytes
    /// between streams. The byte-aligned control is never
    /// shift-redundant; the others are whenever their edit knob is
    /// nonzero.
    pub fn is_shift_redundant(&self) -> bool {
        match self {
            WorkloadKind::VersionedBackup(c) => c.edits_per_version > 0,
            WorkloadKind::LayeredImages(c) => c.edits_per_image > 0,
            WorkloadKind::LogAppend(c) => c.mean_trim_len > 0,
            WorkloadKind::ByteAligned(_) => false,
        }
    }

    /// Generates the workload's byte streams, deterministically keyed by
    /// `(self, seed)`: one stream per version / image / snapshot /
    /// source. Two calls with equal arguments are bit-identical.
    pub fn streams(&self, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = DetRng::new(seed).substream(self.label());
        match self {
            WorkloadKind::VersionedBackup(c) => versioned_backup_streams(c, &mut rng),
            WorkloadKind::LayeredImages(c) => layered_images_streams(c, &mut rng),
            WorkloadKind::LogAppend(c) => log_append_streams(c, &mut rng),
            WorkloadKind::ByteAligned(c) => byte_aligned_streams(c, &mut rng),
        }
    }
}

/// Draws an edit span uniformly from `[mean/2, 3·mean/2]` (at least 1).
fn edit_span(rng: &mut DetRng, mean: usize) -> usize {
    let mean = mean.max(1) as u64;
    let lo = (mean / 2).max(1);
    let hi = mean + mean / 2;
    rng.range_u64(lo, hi + 1) as usize
}

/// Fresh pseudo-random bytes that cannot collide with any other draw of
/// this run (the generator's "new data" source).
fn fresh_bytes(rng: &mut DetRng, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    rng.fill_bytes(&mut buf);
    buf
}

/// Applies one random edit — insert (shifting), delete (shifting), or
/// in-place replace — of mean span `mean_len` to `data`.
fn apply_edit(data: &mut Vec<u8>, rng: &mut DetRng, mean_len: usize) {
    let span = edit_span(rng, mean_len);
    match rng.index(3) {
        0 => {
            // Insert `span` fresh bytes at a random offset.
            let at = rng.index(data.len() + 1);
            let patch = fresh_bytes(rng, span);
            data.splice(at..at, patch);
        }
        1 => {
            // Delete `span` bytes at a random offset (skipped when the
            // stream is too short to keep a nonempty remainder).
            if data.len() > span {
                let at = rng.index(data.len() - span);
                data.drain(at..at + span);
            }
        }
        _ => {
            // Replace `span` bytes in place with fresh bytes.
            if data.len() >= span {
                let at = rng.index(data.len() - span + 1);
                let patch = fresh_bytes(rng, span);
                data[at..at + span].copy_from_slice(&patch);
            }
        }
    }
}

fn versioned_backup_streams(c: &VersionedBackupConfig, rng: &mut DetRng) -> Vec<Vec<u8>> {
    let mut current = fresh_bytes(rng, c.base_len);
    let mut out = Vec::with_capacity(c.versions);
    out.push(current.clone());
    for _ in 1..c.versions {
        for _ in 0..c.edits_per_version {
            apply_edit(&mut current, rng, c.mean_edit_len);
        }
        out.push(current.clone());
    }
    out
}

fn layered_images_streams(c: &LayeredImagesConfig, rng: &mut DetRng) -> Vec<Vec<u8>> {
    // The shared base: all layers concatenated, generated once.
    let base = fresh_bytes(rng, c.base_layers * c.layer_len);
    let mut out = Vec::with_capacity(c.images);
    for _ in 0..c.images {
        let mut image = base.clone();
        // Per-image patches inside the shared content: small insertions
        // that shift everything after them.
        for _ in 0..c.edits_per_image {
            let at = rng.index(image.len() + 1);
            let span = edit_span(rng, c.mean_edit_len);
            let patch = fresh_bytes(rng, span);
            image.splice(at..at, patch);
        }
        // The unique top layer.
        let delta = fresh_bytes(rng, c.delta_len);
        image.extend_from_slice(&delta);
        out.push(image);
    }
    out
}

fn log_append_streams(c: &LogAppendConfig, rng: &mut DetRng) -> Vec<Vec<u8>> {
    let mut log = fresh_bytes(rng, c.initial_len);
    let mut out = Vec::with_capacity(c.snapshots);
    out.push(log.clone());
    for _ in 1..c.snapshots {
        if c.mean_trim_len > 0 {
            // Rotation: trim the head, shifting the surviving tail.
            let trim = edit_span(rng, c.mean_trim_len).min(log.len());
            log.drain(..trim);
        }
        let appended = fresh_bytes(rng, c.append_len);
        log.extend_from_slice(&appended);
        out.push(log.clone());
    }
    out
}

fn byte_aligned_streams(c: &ByteAlignedConfig, rng: &mut DetRng) -> Vec<Vec<u8>> {
    let mut out = Vec::with_capacity(c.sources);
    for _ in 0..c.sources {
        let mut stream = Vec::with_capacity(c.chunks_per_source * c.chunk_size);
        for _ in 0..c.chunks_per_source {
            let index = rng.range_u64(0, c.pool_chunks);
            stream.extend_from_slice(&materialize_chunk(
                ChunkRef { pool: 0, index },
                c.chunk_size,
            ));
        }
        out.push(stream);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ef_chunking::{joint_dedup_ratio, Chunker, FixedChunker, GearChunkerBuilder};

    fn gear() -> ef_chunking::GearChunker {
        GearChunkerBuilder::new()
            .min_size(1024)
            .target_size(4096)
            .max_size(32 * 1024)
            .build()
            .expect("valid ladder")
    }

    #[test]
    fn all_generators_are_bit_identical_across_same_seed_runs() {
        for kind in WorkloadKind::all() {
            let a = kind.streams(42);
            let b = kind.streams(42);
            assert_eq!(a, b, "{} not deterministic", kind.label());
            let c = kind.streams(43);
            assert_ne!(a, c, "{} ignores the seed", kind.label());
        }
    }

    #[test]
    fn labels_and_shift_redundancy_flags() {
        assert_eq!(WorkloadKind::versioned_backup().label(), "versioned-backup");
        assert_eq!(WorkloadKind::layered_images().label(), "layered-images");
        assert_eq!(WorkloadKind::log_append().label(), "log-append");
        assert_eq!(WorkloadKind::byte_aligned().label(), "byte-aligned");
        for kind in WorkloadKind::shift_redundant() {
            assert!(kind.is_shift_redundant(), "{}", kind.label());
        }
        assert!(!WorkloadKind::byte_aligned().is_shift_redundant());
        // Zeroing the edit knob turns the redundancy byte-aligned.
        let pure_append = WorkloadKind::LogAppend(LogAppendConfig {
            mean_trim_len: 0,
            ..LogAppendConfig::default()
        });
        assert!(!pure_append.is_shift_redundant());
    }

    #[test]
    fn versioned_backup_shapes() {
        let cfg = VersionedBackupConfig {
            base_len: 32 * 1024,
            versions: 5,
            edits_per_version: 6,
            mean_edit_len: 48,
        };
        let streams = WorkloadKind::VersionedBackup(cfg).streams(7);
        assert_eq!(streams.len(), 5);
        assert_eq!(streams[0].len(), 32 * 1024);
        // Insert/delete spans are balanced: lengths stay near the base.
        for s in &streams {
            let drift = (s.len() as i64 - 32 * 1024).unsigned_abs();
            assert!(drift < 4 * 1024, "length drifted by {drift}");
        }
        // Consecutive versions differ but share most content.
        assert_ne!(streams[0], streams[1]);
    }

    #[test]
    fn cdc_sees_the_shift_redundancy_fixed_size_misses() {
        for kind in WorkloadKind::shift_redundant() {
            let streams = kind.streams(42);
            let views: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
            let fixed = FixedChunker::new(4096).expect("valid size");
            let g = gear();
            let r_fixed = joint_dedup_ratio(&fixed, &views);
            let r_gear = joint_dedup_ratio(&g, &views);
            assert!(
                r_gear > r_fixed,
                "{}: gear {r_gear} <= fixed {r_fixed}",
                kind.label()
            );
            assert!(
                r_gear > 1.5,
                "{}: gear found almost no redundancy ({r_gear})",
                kind.label()
            );
        }
    }

    #[test]
    fn byte_aligned_control_favors_fixed_size() {
        let kind = WorkloadKind::byte_aligned();
        let streams = kind.streams(42);
        let views: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
        let fixed = FixedChunker::new(4096).expect("valid size");
        let r_fixed = joint_dedup_ratio(&fixed, &views);
        let r_gear = joint_dedup_ratio(&gear(), &views);
        assert!(
            r_fixed > r_gear,
            "control inverted: fixed {r_fixed} <= gear {r_gear}"
        );
        assert!(r_fixed > 2.0, "pool corpus lost its redundancy: {r_fixed}");
    }

    #[test]
    fn closed_forms_are_ordered_and_bounded() {
        let cfg = VersionedBackupConfig::default();
        let cdc = cfg.expected_ratio_cdc(4096.0);
        let fixed = cfg.expected_ratio_fixed();
        assert!(cdc > fixed, "model inverted: cdc {cdc} <= fixed {fixed}");
        assert!(fixed >= 1.0 && fixed <= cfg.versions as f64);
        assert!(cdc >= 1.0 && cdc <= cfg.versions as f64);
        // Zero edits: every version identical, both forms hit V exactly.
        let clean = VersionedBackupConfig {
            edits_per_version: 0,
            ..cfg
        };
        assert!((clean.expected_ratio_cdc(4096.0) - clean.versions as f64).abs() < 1e-9);
        assert!((clean.expected_ratio_fixed() - clean.versions as f64).abs() < 1e-9);
    }

    #[test]
    fn log_append_without_rotation_keeps_fixed_alignment() {
        // Pure append is the regime where equal-size chunking stays
        // competitive: the shared prefix is byte-aligned.
        let kind = WorkloadKind::LogAppend(LogAppendConfig {
            initial_len: 64 * 1024,
            snapshots: 6,
            append_len: 8 * 1024,
            mean_trim_len: 0,
        });
        let streams = kind.streams(42);
        let views: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
        let fixed = FixedChunker::new(4096).expect("valid size");
        let r_fixed = joint_dedup_ratio(&fixed, &views);
        assert!(r_fixed > 2.0, "pure append should dedup well: {r_fixed}");
    }

    #[test]
    fn streams_total_bytes_are_plausible() {
        let kind = WorkloadKind::layered_images();
        let streams = kind.streams(1);
        let cfg = LayeredImagesConfig::default();
        assert_eq!(streams.len(), cfg.images);
        for s in &streams {
            let floor = cfg.base_layers * cfg.layer_len + cfg.delta_len;
            assert!(s.len() >= floor, "image smaller than base+delta");
            assert!(s.len() < floor + 64 * 1024, "image grew unexpectedly");
        }
    }

    #[test]
    fn gear_chunk_count_gives_usable_mean_chunk() {
        // The validation path divides corpus bytes by gear chunk count;
        // make sure that mean lands near the configured target.
        let streams = WorkloadKind::versioned_backup().streams(42);
        let views: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
        let g = gear();
        let total: usize = views.iter().map(|v| v.len()).sum();
        let chunks: usize = views.iter().map(|v| g.chunk(v).len()).sum();
        let mean = total as f64 / chunks as f64;
        assert!(
            (1024.0..32.0 * 1024.0).contains(&mean),
            "mean chunk {mean} outside the ladder"
        );
    }
}
