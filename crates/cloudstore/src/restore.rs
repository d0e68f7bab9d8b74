//! Restore-path accounting: container layout, fragmentation, locality,
//! and a capping/rewrite defrag policy.
//!
//! Dedup systems store unique chunks in fixed-capacity *containers* in
//! arrival order. Deduplication scatters a logical file's chunks across
//! every container that first saw each chunk, so restore speed degrades
//! as a stream ages — the fragmentation problem studied (with partial
//! repetition remedies) in arXiv 2411.01407. This module models the
//! layout and measures the restore path:
//!
//! * [`ContainerLayout`] — append-order placement of unique chunks into
//!   capacity-bounded containers, plus the duplicate-rewrite hook,
//! * [`DefragPolicy`] — `Off`, or `CapRewrite { window }`: a duplicate
//!   whose stored copy sits more than `window` containers behind the
//!   write frontier is rewritten forward (spending capacity to buy
//!   restore locality),
//! * [`restore_profile`] — walks a manifest's chunk sequence and counts
//!   distinct containers (fragmentation) and container switches
//!   (locality),
//! * [`RestoreAccountant`] / [`RestoreStats`] — aggregation across many
//!   restores, printed by `bench_e2e` as its `cloudstore.restore.*`
//!   lines and tabulated by `ablation_chunking`.
//!
//! All state lives in ordered maps and integer counters; the float
//! summaries are computed once at [`RestoreAccountant::finish`] from
//! integer totals, so accounting is bit-deterministic for a given call
//! sequence.

use ef_chunking::ChunkHash;
use std::collections::{BTreeMap, BTreeSet};

/// What to do when an incoming chunk turns out to be a duplicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DefragPolicy {
    /// Never rewrite: duplicates always reference their original
    /// container (maximum dedup, worst long-horizon restore locality).
    #[default]
    Off,
    /// Capped rewrite: if the stored copy lives more than `window`
    /// containers behind the current write frontier, append a fresh copy
    /// at the frontier and repoint the chunk there. Bounds how far back
    /// a restore of recent data must reach, at the cost of
    /// `rewrite_bytes` of extra stored data.
    CapRewrite {
        /// How many containers behind the frontier a copy may sit
        /// before it is rewritten forward.
        window: u32,
    },
}

/// Append-order placement of chunks into fixed-capacity containers.
///
/// Containers are numbered from 0; a chunk that does not fit in the open
/// container closes it and opens the next. The map tracks each chunk's
/// *newest* location — a defrag rewrite repoints the chunk, modeling a
/// restore that always reads the most recently written copy.
#[derive(Debug, Clone)]
pub struct ContainerLayout {
    container_bytes: usize,
    open: u32,
    open_fill: usize,
    placed: BTreeMap<ChunkHash, u32>,
    rewrites: u64,
    rewrite_bytes: u64,
}

impl ContainerLayout {
    /// Creates a layout with `container_bytes` capacity per container
    /// (values below 1 byte are clamped to 1 so placement always
    /// progresses).
    pub fn new(container_bytes: usize) -> Self {
        ContainerLayout {
            container_bytes: container_bytes.max(1),
            open: 0,
            open_fill: 0,
            placed: BTreeMap::new(),
            rewrites: 0,
            rewrite_bytes: 0,
        }
    }

    /// Appends a unique chunk of `len` bytes and returns the container
    /// it landed in. An oversized chunk gets a container to itself.
    pub fn place(&mut self, hash: ChunkHash, len: usize) -> u32 {
        if self.open_fill > 0 && self.open_fill + len > self.container_bytes {
            self.open += 1;
            self.open_fill = 0;
        }
        self.open_fill += len;
        let at = self.open;
        self.placed.insert(hash, at);
        at
    }

    /// Applies `policy` to a duplicate arrival of a chunk of `len`
    /// bytes. Returns `true` when the chunk was rewritten to the write
    /// frontier. A duplicate whose hash was never placed is ignored
    /// (nothing to repoint).
    pub fn on_duplicate(&mut self, hash: &ChunkHash, len: usize, policy: DefragPolicy) -> bool {
        let DefragPolicy::CapRewrite { window } = policy else {
            return false;
        };
        let Some(&at) = self.placed.get(hash) else {
            return false;
        };
        if self.open.saturating_sub(at) <= window {
            return false;
        }
        self.rewrites += 1;
        self.rewrite_bytes += len as u64;
        self.place(*hash, len);
        true
    }

    /// The container currently holding `hash`, if it was ever placed.
    pub fn container_of(&self, hash: &ChunkHash) -> Option<u32> {
        self.placed.get(hash).copied()
    }

    /// Number of containers with at least one chunk.
    pub fn container_count(&self) -> u32 {
        if self.placed.is_empty() && self.open_fill == 0 {
            0
        } else {
            self.open + 1
        }
    }

    /// Duplicate arrivals the defrag policy rewrote forward.
    pub fn rewrites(&self) -> u64 {
        self.rewrites
    }

    /// Extra bytes stored by defrag rewrites.
    pub fn rewrite_bytes(&self) -> u64 {
        self.rewrite_bytes
    }
}

/// Per-restore read profile over one manifest's chunk sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RestoreProfile {
    /// Chunks read (those present in the layout).
    pub chunks_read: u64,
    /// Distinct containers touched — the restore's fragmentation.
    pub containers: u64,
    /// Consecutive reads that crossed a container boundary.
    pub switches: u64,
    /// Manifest chunks the layout had never placed (caller bug or data
    /// loss; 0 in every healthy flow).
    pub missing: u64,
}

/// Walks `chunks` in manifest order against `layout` and profiles the
/// reads: distinct containers touched and container switches between
/// consecutive chunks.
pub fn restore_profile(layout: &ContainerLayout, chunks: &[ChunkHash]) -> RestoreProfile {
    let mut containers = BTreeSet::new();
    let mut profile = RestoreProfile::default();
    let mut prev: Option<u32> = None;
    for hash in chunks {
        let Some(at) = layout.container_of(hash) else {
            profile.missing += 1;
            continue;
        };
        profile.chunks_read += 1;
        containers.insert(at);
        if let Some(p) = prev {
            if p != at {
                profile.switches += 1;
            }
        }
        prev = Some(at);
    }
    profile.containers = containers.len() as u64;
    profile
}

/// Aggregated restore-path metrics across a run: what `bench_e2e`'s
/// `cloudstore.restore.*` lines and `ablation_chunking`'s table read.
///
/// `fragmentation_mean` is the mean distinct-container count per
/// restore; `locality` is the fraction of consecutive chunk reads that
/// stayed in the same container (1.0 = perfectly sequential);
/// `node_fragmentation_mean` is the mean distinct *serving nodes* per
/// restore (1.0 when a single endpoint serves everything).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RestoreStats {
    /// Logical restores profiled.
    pub restores: u64,
    /// Total chunks read across all restores.
    pub chunks_read: u64,
    /// Total distinct-container touches summed over restores.
    pub containers_touched: u64,
    /// Total container switches between consecutive reads.
    pub container_switches: u64,
    /// Mean distinct containers per restore (≥ 1 for nonempty restores).
    pub fragmentation_mean: f64,
    /// Fraction of consecutive reads staying in the same container,
    /// in `[0, 1]`; 1.0 when no restore read more than one chunk.
    pub locality: f64,
    /// Mean distinct serving nodes per restore (0 when untracked).
    pub node_fragmentation_mean: f64,
    /// Duplicate arrivals the defrag policy rewrote forward.
    pub rewrites: u64,
    /// Extra bytes stored by defrag rewrites.
    pub rewrite_bytes: u64,
}

/// Accumulates [`RestoreProfile`]s (integer totals only) and finalizes
/// them into [`RestoreStats`].
#[derive(Debug, Clone, Default)]
pub struct RestoreAccountant {
    restores: u64,
    chunks_read: u64,
    containers_sum: u64,
    switches: u64,
    adjacent: u64,
    nodes_sum: u64,
    rewrites: u64,
    rewrite_bytes: u64,
}

impl RestoreAccountant {
    /// A fresh accountant with zero totals.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one restore's profile in. `nodes_touched` is the distinct
    /// serving-node count the caller observed for this restore (1 for a
    /// single-endpoint store, ring-dependent for edge clusters).
    pub fn record(&mut self, profile: &RestoreProfile, nodes_touched: u64) {
        self.restores += 1;
        self.chunks_read += profile.chunks_read;
        self.containers_sum += profile.containers;
        self.switches += profile.switches;
        self.adjacent += profile.chunks_read.saturating_sub(1);
        self.nodes_sum += nodes_touched;
    }

    /// Folds a layout's defrag rewrite counters into the totals. Call
    /// once per layout (a run may keep one layout per dedup scope).
    pub fn absorb_layout(&mut self, layout: &ContainerLayout) {
        self.rewrites += layout.rewrites();
        self.rewrite_bytes += layout.rewrite_bytes();
    }

    /// Finalizes the aggregate.
    pub fn finish(&self) -> RestoreStats {
        let restores = self.restores;
        let fragmentation_mean = if restores == 0 {
            0.0
        } else {
            self.containers_sum as f64 / restores as f64
        };
        let locality = if self.adjacent == 0 {
            1.0
        } else {
            1.0 - self.switches as f64 / self.adjacent as f64
        };
        let node_fragmentation_mean = if restores == 0 {
            0.0
        } else {
            self.nodes_sum as f64 / restores as f64
        };
        RestoreStats {
            restores,
            chunks_read: self.chunks_read,
            containers_touched: self.containers_sum,
            container_switches: self.switches,
            fragmentation_mean,
            locality,
            node_fragmentation_mean,
            rewrites: self.rewrites,
            rewrite_bytes: self.rewrite_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash(tag: u8) -> ChunkHash {
        ChunkHash::of(&[tag])
    }

    #[test]
    fn placement_fills_containers_in_order() {
        let mut layout = ContainerLayout::new(100);
        assert_eq!(layout.container_count(), 0);
        assert_eq!(layout.place(hash(1), 60), 0);
        assert_eq!(layout.place(hash(2), 60), 1, "60+60 overflows 100");
        assert_eq!(layout.place(hash(3), 40), 1);
        assert_eq!(layout.place(hash(4), 1), 2);
        assert_eq!(layout.container_count(), 3);
        assert_eq!(layout.container_of(&hash(1)), Some(0));
        assert_eq!(layout.container_of(&hash(3)), Some(1));
        assert_eq!(layout.container_of(&hash(9)), None);
    }

    #[test]
    fn oversized_chunk_gets_its_own_container() {
        let mut layout = ContainerLayout::new(10);
        assert_eq!(layout.place(hash(1), 25), 0);
        assert_eq!(layout.place(hash(2), 5), 1);
    }

    #[test]
    fn defrag_off_never_rewrites() {
        let mut layout = ContainerLayout::new(10);
        layout.place(hash(1), 10);
        for i in 0..20 {
            layout.place(hash(100 + i), 10);
        }
        assert!(!layout.on_duplicate(&hash(1), 10, DefragPolicy::Off));
        assert_eq!(layout.rewrites(), 0);
        assert_eq!(layout.container_of(&hash(1)), Some(0));
    }

    #[test]
    fn cap_rewrite_moves_stale_copies_to_the_frontier() {
        let mut layout = ContainerLayout::new(10);
        layout.place(hash(1), 10); // container 0
        for i in 0..5 {
            layout.place(hash(100 + i), 10); // containers 1..=5
        }
        let policy = DefragPolicy::CapRewrite { window: 2 };
        // 5 - 0 > 2: stale, rewritten to the frontier.
        assert!(layout.on_duplicate(&hash(1), 10, policy));
        assert_eq!(layout.rewrites(), 1);
        assert_eq!(layout.rewrite_bytes(), 10);
        let moved = layout.container_of(&hash(1)).unwrap();
        assert!(moved >= 5, "copy not at the frontier: {moved}");
        // Immediately duplicated again: now within the window.
        assert!(!layout.on_duplicate(&hash(1), 10, policy));
        // Unknown hash: nothing to repoint.
        assert!(!layout.on_duplicate(&hash(200), 10, policy));
    }

    #[test]
    fn profile_counts_fragmentation_switches_and_missing() {
        let mut layout = ContainerLayout::new(10);
        layout.place(hash(1), 10); // c0
        layout.place(hash(2), 10); // c1
        layout.place(hash(3), 10); // c2
        let seq = [hash(1), hash(2), hash(2), hash(3), hash(1), hash(9)];
        let p = restore_profile(&layout, &seq);
        assert_eq!(p.chunks_read, 5);
        assert_eq!(p.containers, 3);
        // c0→c1 (switch), c1→c1 (stay), c1→c2 (switch), c2→c0 (switch).
        assert_eq!(p.switches, 3);
        assert_eq!(p.missing, 1);
    }

    #[test]
    fn accountant_aggregates_and_finishes() {
        let mut layout = ContainerLayout::new(10);
        layout.place(hash(1), 10);
        layout.place(hash(2), 10);
        let mut acc = RestoreAccountant::new();
        acc.record(&restore_profile(&layout, &[hash(1), hash(2)]), 2);
        acc.record(&restore_profile(&layout, &[hash(1)]), 1);
        acc.absorb_layout(&layout);
        let stats = acc.finish();
        assert_eq!(stats.restores, 2);
        assert_eq!(stats.chunks_read, 3);
        assert_eq!(stats.containers_touched, 3);
        assert_eq!(stats.container_switches, 1);
        assert!((stats.fragmentation_mean - 1.5).abs() < 1e-12);
        // One adjacent pair total, one switch: locality 0.
        assert!((stats.locality - 0.0).abs() < 1e-12);
        assert!((stats.node_fragmentation_mean - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_accountant_finishes_quiet() {
        let stats = RestoreAccountant::new().finish();
        assert_eq!((stats.restores, stats.rewrites), (0, 0));
        assert_eq!(stats.fragmentation_mean, 0.0);
        assert_eq!(stats.locality, 1.0);
    }

    #[test]
    fn accountant_absorbs_rewrites_from_many_layouts() {
        let policy = DefragPolicy::CapRewrite { window: 0 };
        let mut acc = RestoreAccountant::new();
        for tag in [0u8, 100] {
            let mut layout = ContainerLayout::new(10);
            layout.place(hash(tag), 10);
            layout.place(hash(tag + 1), 10);
            layout.on_duplicate(&hash(tag), 10, policy);
            acc.absorb_layout(&layout);
        }
        let stats = acc.finish();
        assert_eq!(stats.rewrites, 2);
        assert_eq!(stats.rewrite_bytes, 20);
    }

    #[test]
    fn cap_rewrite_improves_locality_on_an_aged_stream() {
        // Age a layout: v0's chunks land early, then many fresh
        // containers pile on. Re-ingesting v0's chunks as duplicates
        // under CapRewrite pulls them to the frontier; a subsequent
        // restore of v0 touches fewer containers than without defrag.
        let old: Vec<ChunkHash> = (0..8).map(hash).collect();
        let build = |policy: DefragPolicy| {
            let mut layout = ContainerLayout::new(20);
            for (i, h) in old.iter().enumerate() {
                layout.place(*h, 10);
                // Interleave fresh chunks so v0 scatters across
                // containers as it would in a shared store.
                for j in 0..4 {
                    layout.place(hash(50 + (i * 4 + j) as u8), 10);
                }
            }
            for h in &old {
                layout.on_duplicate(h, 10, policy);
            }
            layout
        };
        let plain = build(DefragPolicy::Off);
        let defrag = build(DefragPolicy::CapRewrite { window: 1 });
        let p_plain = restore_profile(&plain, &old);
        let p_defrag = restore_profile(&defrag, &old);
        assert!(defrag.rewrites() > 0);
        assert!(
            p_defrag.containers < p_plain.containers,
            "defrag did not reduce fragmentation: {} vs {}",
            p_defrag.containers,
            p_plain.containers
        );
        assert!(
            p_defrag.switches <= p_plain.switches,
            "defrag did not improve locality"
        );
    }
}
