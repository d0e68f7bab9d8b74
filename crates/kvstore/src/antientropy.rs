//! Anti-entropy repair with Merkle trees.
//!
//! Hinted handoff repairs failures the coordinator *saw*; replicas can
//! still drift apart (a coordinator died with parked hints, a disk was
//! restored from backup). Cassandra reconciles such drift with Merkle
//! trees: each replica summarizes its data per token range in a hash
//! tree; replicas exchange trees, descend into unequal branches, and
//! synchronize only the ranges that differ — `O(diff)` data movement
//! instead of full scans.
//!
//! Values here are immutable (chunk-hash index entries), so
//! reconciliation is set union per differing range.

use crate::engine::StorageEngine;
use crate::integrity::Summed;
use crate::key_token;
use crate::node::NodeState;
use crate::ring::HashRing;
use bytes::Bytes;
use ef_netsim::NodeId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A Merkle tree over the token space `0..=u64::MAX`, with `2^depth`
/// leaf buckets.
///
/// Leaf hashes are order-independent digests of the bucket's entries, so
/// two replicas holding the same set produce identical trees regardless
/// of insertion order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleTree {
    depth: u32,
    /// Heap layout: nodes[1] is the root, children of `i` are `2i`,
    /// `2i+1`; leaves occupy `2^depth .. 2^(depth+1)`.
    nodes: Vec<u64>,
}

/// Mixes one key/value pair into a bucket digest (commutative across
/// entries: XOR of per-entry avalanche hashes). The key half is the
/// key's ring token, which every caller already has; the value half is
/// `sum`, the store's remembered checksum of the value's bytes as they
/// stand (journalled by [`StorageEngine`], or handed out by its
/// `iter_summed` walk) — values are whole payloads, and anti-entropy
/// never touches their bytes: a rotted value digests as what it rotted
/// to, and finding the rot is left to verify-on-read and scrub.
fn entry_digest(token: u64, sum: u64) -> u64 {
    let mut h = token ^ 0x9e37_79b9_7f4a_7c15;
    h = h.wrapping_add(sum.rotate_left(32));
    // Final avalanche.
    let mut z = h;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn combine(a: u64, b: u64) -> u64 {
    let mut z = a.rotate_left(17) ^ b.wrapping_mul(0xff51_afd7_ed55_8ccd);
    z ^= z >> 33;
    z = z.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    z ^ (z >> 33)
}

impl MerkleTree {
    /// Builds the tree of `2^depth` buckets over a row of leaf digests
    /// (`None`: every leaf zero).
    ///
    /// # Panics
    ///
    /// Panics when the row is not `2^depth` long.
    fn from_leaves(row: Option<&[u64]>, depth: u32) -> Self {
        let leaves = 1usize << depth;
        let mut nodes = vec![0u64; 2 * leaves];
        if let Some(row) = row {
            nodes[leaves..].copy_from_slice(row);
        }
        for i in (1..leaves).rev() {
            nodes[i] = combine(nodes[2 * i], nodes[2 * i + 1]);
        }
        MerkleTree { depth, nodes }
    }

    /// The leaf bucket a token falls into.
    pub fn bucket_of(token: u64, depth: u32) -> usize {
        if depth == 0 {
            0
        } else {
            (token >> (64 - depth)) as usize
        }
    }

    /// Number of leaf buckets.
    pub fn bucket_count(&self) -> usize {
        1 << self.depth
    }

    /// The root digest.
    pub fn root(&self) -> u64 {
        self.nodes[1]
    }

    /// Returns the leaf buckets whose contents differ between the two
    /// trees, descending only into unequal branches.
    ///
    /// # Panics
    ///
    /// Panics when the trees have different depths.
    pub fn diff(&self, other: &MerkleTree) -> Vec<usize> {
        assert_eq!(self.depth, other.depth, "tree depth mismatch");
        let mut out = Vec::new();
        let leaves = 1usize << self.depth;
        let mut stack = vec![1usize];
        while let Some(i) = stack.pop() {
            if self.nodes[i] == other.nodes[i] {
                continue;
            }
            if i >= leaves {
                out.push(i - leaves);
            } else {
                stack.push(2 * i);
                stack.push(2 * i + 1);
            }
        }
        out.sort_unstable();
        out
    }
}

/// Simulated wire size of a serialized Merkle tree of the given depth:
/// a fixed header plus one `u64` digest per leaf bucket. (Real
/// implementations ship only unequal subtrees; charging the full leaf
/// layer is a deliberate upper bound so repair traffic is never
/// undercosted.)
pub(crate) fn tree_wire_size(depth: u32) -> u64 {
    48 + 8 * (1u64 << depth)
}

/// What one replica pair `(a, b)` must exchange to converge: how many
/// Merkle buckets of their co-replicated entries differ, and the entries
/// in those buckets each side lacks (bucket-major, then key order).
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct PairDiff {
    /// Divergent leaf buckets.
    pub(crate) buckets: usize,
    /// Entries `a` holds that `b` lacks, each value with the sum its
    /// store remembers of it.
    pub(crate) to_b: Vec<(Bytes, Summed)>,
    /// Entries `b` holds that `a` lacks, likewise.
    pub(crate) to_a: Vec<(Bytes, Summed)>,
}

/// What a summary was computed from. A kept summary is folded forward
/// until one of these moves.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Basis {
    /// Ring membership and tokens per member: every token, and so every
    /// replica set, follows from the two.
    members: Vec<NodeId>,
    vnodes: usize,
    rf: usize,
    /// Depth of the trees the leaves are kept for.
    depth: u32,
}

impl Basis {
    /// # Panics
    ///
    /// Panics when `depth` exceeds 20 (a million buckets is already far
    /// beyond any test or ring size here).
    fn new(ring: &HashRing, rf: usize, depth: u32) -> Self {
        assert!(depth <= 20, "tree depth too large");
        let (members, vnodes) = (ring.members().collect(), ring.vnodes());
        Basis {
            members,
            vnodes,
            rf,
            depth,
        }
    }
}

/// Everything anti-entropy needs to know about one node to find where
/// it diverges from each peer: per peer, the `2^depth` Merkle leaves —
/// the XOR of the entry digests per bucket — of the entries the node
/// holds of keys both replicate. A peer with no row has all-zero
/// leaves. Each pairwise bucket diff ([`bucket_diff`]) is read off two
/// rows without touching a store, the ring or a payload byte; only the
/// repair listing of a divergent pair walks the pair's stores. At depth
/// ≤ 8 a row is at most 2 KiB.
#[derive(Debug, Clone)]
pub(crate) struct NodeSummary {
    /// The node summarized.
    pub(crate) node: NodeId,
    basis: Basis,
    /// Leaf rows by peer.
    leaves: BTreeMap<NodeId, Vec<u64>>,
}

impl NodeSummary {
    /// Summarizes what `state` holds under `ring` at replication factor
    /// `rf`, for depth-`depth` trees. The summary is remembered on the
    /// node — it dies with the `NodeState`: crash, departure, ring wipe,
    /// WAL recovery — and the next one is folded forward from it by the
    /// changes the store journalled since, in `O(changes)`: a quiescent
    /// store hands out the same summary again. The store is walked only
    /// to build the first, when the [`Basis`] moves, or when the journal
    /// outgrew its bound; no payload byte is ever read.
    pub(crate) fn of(state: &mut NodeState, ring: &HashRing, rf: usize, depth: u32) -> Arc<Self> {
        let basis = Basis::new(ring, rf, depth);
        let node = state.id();
        let (memo, storage) = state.summary_and_storage();
        match (memo.as_mut(), storage.drain_journal()) {
            (Some(kept), Some(changes)) if kept.basis == basis => {
                let mut changes = changes.peekable();
                if changes.peek().is_some() {
                    let summary = Arc::make_mut(kept);
                    for change in changes {
                        summary.fold(ring, &change.key, change.before, change.after);
                    }
                }
                return Arc::clone(kept);
            }
            // A journal that cannot be folded is dropped unread.
            _ => {}
        }
        // Freed before its successor is built: never two at once.
        *memo = None;
        let mut summary = NodeSummary {
            node,
            basis,
            leaves: BTreeMap::new(),
        };
        let mut live = 0;
        storage.count_walk();
        for (key, _, sum) in storage.iter_summed() {
            live += 1;
            summary.fold(ring, key, None, Some(sum));
        }
        storage.arm_journal(live);
        let summary = Arc::new(summary);
        *memo = Some(Arc::clone(&summary));
        summary
    }

    /// Folds one change of `key`'s live value — remembered sum `before`
    /// → `after` — into the row of every peer that co-replicates it:
    /// XOR is its own inverse, so the old digest comes out as the new
    /// one goes in.
    fn fold(&mut self, ring: &HashRing, key: &[u8], before: Option<u64>, after: Option<u64>) {
        let token = key_token(key);
        let sums = before.into_iter().chain(after);
        let delta = sums.fold(0, |d, sum| d ^ entry_digest(token, sum));
        if delta == 0 {
            return;
        }
        let replicas = ring.replicas_for_token(token, self.basis.rf);
        if !replicas.contains(&self.node) {
            return;
        }
        let bucket = MerkleTree::bucket_of(token, self.basis.depth);
        let width = 1usize << self.basis.depth;
        for peer in replicas.into_iter().filter(|&peer| peer != self.node) {
            let row = self.leaves.entry(peer).or_insert_with(|| vec![0; width]);
            row[bucket] ^= delta;
        }
    }
}

/// The leaf buckets in which the entries `a` and `b` each hold of the
/// keys they *both* replicate differ: two leaf rows compared, and only
/// when they differ built into trees and diffed (a missing row builds
/// the all-zero leaves, so it diffs equal to a row folded back to zero).
/// No store is touched — the read-only divergence oracle calls only
/// this.
///
/// # Panics
///
/// Panics when the summaries were built at different depths.
pub(crate) fn bucket_diff(a: &NodeSummary, b: &NodeSummary) -> Vec<usize> {
    let depth = a.basis.depth;
    assert_eq!(depth, b.basis.depth, "summary depth mismatch");
    let (row_a, row_b) = (a.leaves.get(&b.node), b.leaves.get(&a.node));
    if row_a == row_b {
        return Vec::new();
    }
    let tree = |row: Option<&Vec<u64>>| MerkleTree::from_leaves(row.map(Vec::as_slice), depth);
    tree(row_a).diff(&tree(row_b))
}

/// The whole comparison of one replica pair, each side given as its
/// summary and its store (`None`: the node holds nothing): the
/// [`bucket_diff`], then — only when a bucket differs — the repair
/// listing, one walk of each store.
pub(crate) fn pair_diff(
    ring: &HashRing,
    [a, b]: [(&NodeSummary, Option<&StorageEngine>); 2],
) -> PairDiff {
    let buckets = bucket_diff(a.0, b.0);
    let (to_b, to_a) = if buckets.is_empty() {
        (Vec::new(), Vec::new())
    } else {
        (missing(ring, a, b, &buckets), missing(ring, b, a, &buckets))
    };
    PairDiff {
        buckets: buckets.len(),
        to_b,
        to_a,
    }
}

/// The entries `src`'s store holds of keys `src` and `dst` both
/// replicate, in the divergent `buckets`, that `dst`'s store lacks:
/// bucket-major, then key order.
fn missing(
    ring: &HashRing,
    (src, src_store): (&NodeSummary, Option<&StorageEngine>),
    (dst, dst_store): (&NodeSummary, Option<&StorageEngine>),
    buckets: &[usize],
) -> Vec<(Bytes, Summed)> {
    let Some(src_store) = src_store else {
        return Vec::new();
    };
    let (depth, rf) = (src.basis.depth, src.basis.rf);
    src_store.count_walk();
    let live = src_store.iter_summed();
    let mut out: Vec<(usize, &Bytes, Summed)> = live
        .filter_map(|(key, value, sum)| {
            let token = key_token(key);
            let bucket = MerkleTree::bucket_of(token, depth);
            buckets.binary_search(&bucket).ok()?;
            let replicas = ring.replicas_for_token(token, rf);
            let shared = replicas.contains(&src.node) && replicas.contains(&dst.node);
            let lacked = !dst_store.is_some_and(|store| store.contains(key));
            (shared && lacked).then(|| (bucket, key, Summed::with_sum(value.clone(), sum)))
        })
        .collect();
    // Stable: key order survives within each bucket.
    out.sort_by_key(|&(bucket, ..)| bucket);
    let out = out.into_iter();
    out.map(|(_, key, value)| (key.clone(), value)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, LocalCluster};
    use crate::integrity::checksum64;
    use ef_netsim::NodeId;
    use std::collections::BTreeMap;

    impl LocalCluster {
        /// Runs one anti-entropy round: for every pair of ring members,
        /// build Merkle trees over the keys they *both* replicate, find
        /// differing ranges, and union the entries in those ranges.
        ///
        /// Returns the number of entries copied. A second invocation right
        /// after returns 0 (convergence).
        pub fn anti_entropy(&mut self, depth: u32) -> usize {
            let members = self.members();
            let (ring, rf) = (&self.ring, self.config().replication_factor);
            let mut copied = 0usize;
            for (x, &a) in members.iter().enumerate() {
                for &b in &members[x + 1..] {
                    // Asked for per pair: a summary folds what its store
                    // journalled since, so this pair sees what earlier ones
                    // wrote.
                    let mut of =
                        |n| Some(NodeSummary::of(self.nodes.get_mut(&n)?, ring, rf, depth));
                    let (Some(of_a), Some(of_b)) = (of(a), of(b)) else {
                        continue;
                    };
                    let store = |n| self.nodes.get(&n).map(NodeState::storage);
                    let pair = pair_diff(ring, [(&of_a, store(a)), (&of_b, store(b))]);
                    for (dst, entries) in [(b, pair.to_b), (a, pair.to_a)] {
                        let Some(state) = self.nodes.get_mut(&dst) else {
                            continue;
                        };
                        copied += entries.len();
                        for (k, v) in entries {
                            state.storage_mut().put_summed(k, v);
                        }
                    }
                }
            }
            copied
        }
    }

    impl MerkleTree {
        /// A tree of `2^depth` buckets over `(key, value)` entries,
        /// every value's bytes summed here and now.
        fn build<'a, I>(entries: I, depth: u32) -> Self
        where
            I: IntoIterator<Item = (&'a [u8], &'a [u8])>,
        {
            let mut row = vec![0u64; 1 << depth];
            for (key, value) in entries {
                let token = key_token(key);
                row[Self::bucket_of(token, depth)] ^= entry_digest(token, checksum64(value));
            }
            Self::from_leaves(Some(&row), depth)
        }
    }

    impl NodeSummary {
        /// The from-scratch summary [`NodeSummary::of`] is held to:
        /// nothing remembered, the store walked and every payload byte
        /// re-read. A node missing from `nodes` holds nothing.
        fn build(
            nodes: &BTreeMap<NodeId, NodeState>,
            ring: &HashRing,
            rf: usize,
            node: NodeId,
            depth: u32,
        ) -> Self {
            let mut leaves: BTreeMap<NodeId, Vec<u64>> = BTreeMap::new();
            let held = nodes.get(&node).into_iter();
            for (key, value) in held.flat_map(|state| state.storage().iter_live()) {
                let replicas = ring.replicas(&key, rf);
                if !replicas.contains(&node) {
                    continue;
                }
                let token = key_token(&key);
                let bucket = MerkleTree::bucket_of(token, depth);
                for &peer in replicas.iter().filter(|&&peer| peer != node) {
                    let row = leaves.entry(peer).or_insert_with(|| vec![0; 1 << depth]);
                    row[bucket] ^= entry_digest(token, checksum64(&value));
                }
            }
            NodeSummary {
                node,
                basis: Basis::new(ring, rf, depth),
                leaves,
            }
        }

        /// The leaf rows that are not all zero: equal summaries have
        /// equal lists, however each came by its rows.
        fn rows(&self) -> Vec<(NodeId, &[u64])> {
            let rows = self.leaves.iter();
            let rows = rows.filter(|(_, row)| row.iter().any(|&leaf| leaf != 0));
            rows.map(|(&peer, row)| (peer, row.as_slice())).collect()
        }
    }

    fn entries(keys: &[&[u8]]) -> Vec<(Vec<u8>, Vec<u8>)> {
        keys.iter().map(|k| (k.to_vec(), vec![1u8])).collect()
    }

    fn tree_of(data: &[(Vec<u8>, Vec<u8>)], depth: u32) -> MerkleTree {
        MerkleTree::build(
            data.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
            depth,
        )
    }

    #[test]
    fn identical_sets_identical_trees() {
        let data = entries(&[b"a", b"b", b"c", b"d"]);
        let mut shuffled = data.clone();
        shuffled.reverse();
        let t1 = tree_of(&data, 4);
        let t2 = tree_of(&shuffled, 4);
        assert_eq!(t1.root(), t2.root());
        assert!(t1.diff(&t2).is_empty());
        assert_eq!(t1.bucket_count(), 16);
    }

    #[test]
    fn differing_entry_shows_in_exactly_its_bucket() {
        let base = entries(&[b"a", b"b", b"c"]);
        let mut more = base.clone();
        more.push((b"extra".to_vec(), vec![1]));
        let t1 = tree_of(&base, 6);
        let t2 = tree_of(&more, 6);
        let diff = t1.diff(&t2);
        assert_eq!(diff.len(), 1);
        assert_eq!(diff[0], MerkleTree::bucket_of(key_token(b"extra"), 6));
    }

    #[test]
    fn empty_trees_match() {
        let t1 = tree_of(&[], 3);
        let t2 = tree_of(&[], 3);
        assert!(t1.diff(&t2).is_empty());
    }

    #[test]
    fn depth_zero_single_bucket() {
        let t1 = tree_of(&entries(&[b"x"]), 0);
        let t2 = tree_of(&[], 0);
        assert_eq!(t1.diff(&t2), vec![0]);
    }

    #[test]
    fn anti_entropy_heals_silent_drift() {
        let mut cluster = LocalCluster::new(
            (0..4).map(ef_netsim::NodeId).collect(),
            ClusterConfig::default(),
        );
        for i in 0..200u32 {
            cluster
                .put(
                    ef_netsim::NodeId(i % 4),
                    &i.to_be_bytes(),
                    Bytes::from_static(b"v"),
                )
                .unwrap();
        }
        // Silent drift: wipe some entries from one replica directly
        // (no failure detector involved — e.g. a disk restored stale).
        let victim = ef_netsim::NodeId(2);
        let victim_keys: Vec<Bytes> = cluster
            .node(victim)
            .unwrap()
            .storage()
            .iter_live()
            .map(|(k, _)| k)
            .take(30)
            .collect();
        assert!(!victim_keys.is_empty());
        for k in &victim_keys {
            cluster
                .node_mut(victim)
                .unwrap()
                .storage_mut()
                .delete(k.clone());
        }
        assert_ne!(cluster.total_replica_entries(), 2 * cluster.distinct_keys());

        let copied = cluster.anti_entropy(8);
        assert_eq!(copied, victim_keys.len(), "repaired exactly the drift");
        assert_eq!(
            cluster.total_replica_entries(),
            2 * cluster.distinct_keys(),
            "replication restored"
        );
        // Convergence: a second round copies nothing.
        assert_eq!(cluster.anti_entropy(8), 0);
    }

    /// The per-pair comparison every driver used before summaries: both
    /// stores re-walked, the ring asked per key, two maps collected and
    /// every value hashed, for each pair. Kept as the reference
    /// [`pair_diff`] over [`NodeSummary`] is held to.
    fn pair_diff_reference(
        nodes: &BTreeMap<NodeId, NodeState>,
        ring: &HashRing,
        rf: usize,
        a: NodeId,
        b: NodeId,
        depth: u32,
    ) -> PairDiff {
        let held = |me: NodeId| -> BTreeMap<Bytes, Bytes> {
            let state = nodes.get(&me).into_iter();
            state
                .flat_map(|s| s.storage().iter_live())
                .filter(|(k, _)| {
                    let reps = ring.replicas(k, rf);
                    reps.contains(&a) && reps.contains(&b)
                })
                .collect()
        };
        let (entries_a, entries_b) = (held(a), held(b));
        let tree = |entries: &BTreeMap<Bytes, Bytes>| {
            MerkleTree::build(entries.iter().map(|(k, v)| (k.as_ref(), v.as_ref())), depth)
        };
        let diff = tree(&entries_a).diff(&tree(&entries_b));
        let missing = |src: &BTreeMap<Bytes, Bytes>, dst: &BTreeMap<Bytes, Bytes>| {
            let mut out = Vec::new();
            for &bucket in &diff {
                for (k, v) in src {
                    if MerkleTree::bucket_of(key_token(k), depth) == bucket && !dst.contains_key(k)
                    {
                        out.push((k.clone(), Summed::digest(v.clone())));
                    }
                }
            }
            out
        };
        PairDiff {
            buckets: diff.len(),
            to_b: missing(&entries_a, &entries_b),
            to_a: missing(&entries_b, &entries_a),
        }
    }

    /// The pre-summary `LocalCluster::anti_entropy`, over the reference
    /// comparison.
    fn anti_entropy_reference(cluster: &mut LocalCluster, depth: u32) -> usize {
        let members = cluster.members();
        let rf = cluster.config().replication_factor;
        let mut copied = 0usize;
        for (x, &a) in members.iter().enumerate() {
            for &b in &members[x + 1..] {
                let pair = pair_diff_reference(&cluster.nodes, cluster.ring(), rf, a, b, depth);
                for (dst, entries) in [(b, pair.to_b), (a, pair.to_a)] {
                    let dst = cluster.node_mut(dst).unwrap();
                    copied += entries.len();
                    for (k, v) in entries {
                        dst.storage_mut().put(k, v.into_bytes());
                    }
                }
            }
        }
        copied
    }

    /// A six-member rf=3 cluster whose replicas have drifted: a seeded
    /// third of the entries are wiped from one or two of their holders.
    fn drifted_cluster(seed: u64) -> LocalCluster {
        let config = ClusterConfig {
            replication_factor: 3,
            ..ClusterConfig::default()
        };
        let mut cluster = LocalCluster::new((0..6).map(NodeId).collect(), config);
        for i in 0..300u32 {
            let value = Bytes::from(vec![i as u8; 1 + (i % 90) as usize]);
            cluster.put(NodeId(i % 6), &i.to_be_bytes(), value).unwrap();
        }
        let mut rng = ef_simcore::DetRng::new(seed).substream("drift");
        for i in 0..300u32 {
            let key = Bytes::copy_from_slice(&i.to_be_bytes());
            let holders = cluster.ring().replicas(&key, 3);
            if rng.unit() < 0.33 {
                let wipe = 1 + (rng.unit() * 2.0) as usize;
                for &victim in holders.iter().skip((rng.unit() * 3.0) as usize).take(wipe) {
                    let state = cluster.node_mut(victim).unwrap();
                    state.storage_mut().delete(key.clone());
                }
            }
        }
        cluster
    }

    #[test]
    fn anti_entropy_at_rf3_copies_what_the_reference_copies() {
        for seed in 0..4 {
            let (mut cluster, mut reference) = (drifted_cluster(seed), drifted_cluster(seed));
            let live = |c: &LocalCluster| -> Vec<Vec<(Bytes, Bytes)>> {
                let nodes = c.nodes.values();
                nodes.map(|s| s.storage().iter_live().collect()).collect()
            };
            assert_eq!(live(&cluster), live(&reference));
            assert_ne!(cluster.total_replica_entries(), 3 * cluster.distinct_keys());
            let copied = cluster.anti_entropy(8);
            assert!(copied > 0);
            assert_eq!(copied, anti_entropy_reference(&mut reference, 8));
            // Same entries landed on the same nodes, and a pair later in
            // the round saw what an earlier pair wrote (else rf=3 would
            // copy an entry to the same node twice and over-count).
            assert_eq!(live(&cluster), live(&reference));
            assert_eq!(cluster.total_replica_entries(), 3 * cluster.distinct_keys());
            assert_eq!(cluster.anti_entropy(8), 0, "second round must be clean");
        }
    }

    use ef_simcore::prop::{any, check, vec};

    /// Summaries answer exactly what the per-pair reference answers —
    /// divergent bucket count and both repair lists in the same
    /// order — on random drifted stores, including entries a node
    /// holds but does not replicate, a ring member with no state at
    /// all, and a value bit-rotted in place on one replica (same
    /// key, different bytes: its bucket differs, nothing is "missing").
    #[test]
    fn summaries_match_the_per_pair_reference() {
        check(
            "summaries_match_the_per_pair_reference",
            48,
            (any::<u64>(), 3u32..7, 1usize..4, 0usize..3, 1u32..120),
            |(seed, members, rf, depth_pick, keys)| {
                let depth = [0, 4, 8][depth_pick];
                let config = ClusterConfig {
                    replication_factor: rf,
                    ..ClusterConfig::default()
                };
                let ids: Vec<NodeId> = (0..members).map(NodeId).collect();
                let ring = crate::cluster::member_ring(&ids);
                let mut nodes: BTreeMap<NodeId, NodeState> = ids
                    .iter()
                    .map(|&id| (id, NodeState::new(id, ring.clone(), &config)))
                    .collect();
                let mut rng = ef_simcore::DetRng::new(seed).substream("stores");
                for i in 0..keys {
                    let key = Bytes::copy_from_slice(&i.to_be_bytes());
                    let value = Bytes::from(vec![i as u8; 1 + (rng.unit() * 200.0) as usize]);
                    for (&id, state) in nodes.iter_mut() {
                        // Replicas usually hold the entry; anyone may hold a
                        // stray copy of a key it does not replicate.
                        let p = if ring.replicas(&key, rf).contains(&id) {
                            0.8
                        } else {
                            0.05
                        };
                        if rng.unit() < p {
                            state.storage_mut().put(key.clone(), value.clone());
                        }
                    }
                }
                let rotted = ids[(rng.unit() * members as f64) as usize];
                let nth = (rng.unit() * 1_000.0) as usize;
                nodes
                    .get_mut(&rotted)
                    .unwrap()
                    .storage_mut()
                    .corrupt_nth_value(nth, nth);
                let absent = ids[(rng.unit() * members as f64) as usize];
                nodes.remove(&absent);

                let summaries: Vec<NodeSummary> = ids
                    .iter()
                    .map(|&id| NodeSummary::build(&nodes, &ring, rf, id, depth))
                    .collect();
                for (x, &a) in ids.iter().enumerate() {
                    for (y, &b) in ids.iter().enumerate().skip(x + 1) {
                        let store = |n| nodes.get(&n).map(NodeState::storage);
                        let sides = [(&summaries[x], store(a)), (&summaries[y], store(b))];
                        let got = pair_diff(&ring, sides);
                        let want = pair_diff_reference(&nodes, &ring, rf, a, b, depth);
                        assert_eq!(got, want, "pair ({}, {})", a, b);
                    }
                }
            },
        );
    }

    /// Folded equals recomputed: after every step of a random put /
    /// overwrite / same-value put / delete / absent-key delete / rot /
    /// crash + WAL recovery / ring-member removal /
    /// journal overflow / `LocalCluster::anti_entropy` repair / ask at a
    /// second depth sequence, the summary the product path hands out for
    /// each node — kept where nothing moved, folded from the journal
    /// where something did, rebuilt where the basis moved or the journal
    /// overflowed — has the leaf rows of a rebuild that re-reads every
    /// byte, and every pair diffs as the byte-reading rebuild and the
    /// per-pair reference do. Rot is found, not masked: the flipped key
    /// is digested as its flipped bytes, reported by `scrub` and refused
    /// by `get_verified`.
    #[test]
    fn remembered_summaries_equal_a_byte_reading_rebuild() {
        check(
            "remembered_summaries_equal_a_byte_reading_rebuild",
            64,
            (
                3u32..6,
                1usize..4,
                0usize..3,
                vec((0u8..15, 0u32..5, 0u8..16, 0usize..64), 1..48),
            ),
            |(members, rf, depth_pick, ops)| {
                let (depth, other_depth) = [(0, 4), (4, 8), (8, 0)][depth_pick];
                let config = ClusterConfig {
                    replication_factor: rf,
                    ..ClusterConfig::default()
                };
                let mut cluster = LocalCluster::new((0..members).map(NodeId).collect(), config);
                for (step, (op, pick, key, arg)) in ops.into_iter().enumerate() {
                    let live = cluster.members();
                    let id = live[pick as usize % live.len()];
                    let (ring, nodes) = (&mut cluster.ring, &mut cluster.nodes);
                    let state = nodes.get_mut(&id).unwrap();
                    let key = Bytes::copy_from_slice(&[b'k', key]);
                    // Summarizes `state` and asserts the store was not
                    // walked for it: nothing (or nothing live) changed.
                    let unwalked = |state: &mut NodeState, ring: &HashRing| {
                        let walks = state.storage().walks();
                        let summary = NodeSummary::of(state, ring, rf, depth);
                        assert_eq!(state.storage().walks(), walks, "step {step}: walked");
                        summary
                    };
                    match op {
                        0..=3 | 5 => {
                            let value = Bytes::from(vec![key[1] ^ step as u8; 1 + arg]);
                            state.wal_mut().append_put(&key, &value);
                            state.storage_mut().put(key, value);
                        }
                        4 | 6 => {
                            state.wal_mut().append_delete(&key);
                            state.storage_mut().delete(key);
                        }
                        7 => {
                            if let Some(rotted) =
                                state.storage_mut().corrupt_nth_value(arg, arg * 7)
                            {
                                let scrubbed = state.storage().scrub(None, u64::MAX);
                                assert!(scrubbed.corrupt.contains(&rotted), "scrub missed the rot");
                                assert!(state.storage().get_verified(&rotted).is_err());
                            }
                        }
                        8 => {
                            let (wal, _) = nodes.remove(&id).unwrap().crash();
                            let recovered = NodeState::recover(id, ring.clone(), &config, wal);
                            nodes.insert(id, recovered.expect("an unrotted log replays"));
                        }
                        9 if live.len() > 2 => {
                            ring.remove_node(id);
                            nodes.remove(&id);
                        }
                        10 | 11 => {
                            // A put of the live value and a delete of an
                            // absent key change nothing: no fold, no copy.
                            let kept = NodeSummary::of(state, ring, rf, depth);
                            if op == 10 {
                                if let Some(value) = state.storage().get(&key) {
                                    state.storage_mut().put(key, value);
                                }
                            } else {
                                let absent = Bytes::copy_from_slice(&[b'x', key[1]]);
                                state.storage_mut().delete(absent);
                            }
                            let again = unwalked(state, ring);
                            assert!(Arc::ptr_eq(&kept, &again), "step {step}: an empty change");
                        }
                        12 => {
                            // As many changes as the store held entries at
                            // its last summary are folded; one more drops
                            // the journal, and the next summary walks the
                            // store once.
                            for overflow in [false, true] {
                                NodeSummary::of(state, ring, rf, depth);
                                let storage = state.storage();
                                let (held, walks) = (storage.stats().live_keys, storage.walks());
                                let extra = usize::from(overflow);
                                for i in 0..held + extra {
                                    // Longer than any other value: every put
                                    // changes the sum.
                                    let value = vec![i as u8; 65 + arg + 64 * extra];
                                    state.storage_mut().put(key.clone(), Bytes::from(value));
                                }
                                NodeSummary::of(state, ring, rf, depth);
                                let walked = state.storage().walks() - walks;
                                assert_eq!(walked, extra as u64, "step {step}");
                            }
                        }
                        13 => {
                            cluster.anti_entropy(depth);
                        }
                        14 => {
                            // Asked at a second depth between rounds:
                            // answered from a rebuild at that depth.
                            let got: Vec<Arc<NodeSummary>> = nodes
                                .values_mut()
                                .map(|state| NodeSummary::of(state, ring, rf, other_depth))
                                .collect();
                            for summary in got {
                                let want =
                                    NodeSummary::build(nodes, ring, rf, summary.node, other_depth);
                                assert_eq!(summary.rows(), want.rows(), "step {step}");
                            }
                        }
                        _ => {}
                    }
                    let (ring, nodes) = (&cluster.ring, &mut cluster.nodes);
                    let got: Vec<Arc<NodeSummary>> = nodes
                        .values_mut()
                        .map(|state| NodeSummary::of(state, ring, rf, depth))
                        .collect();
                    let want: Vec<NodeSummary> = nodes
                        .keys()
                        .map(|&id| NodeSummary::build(nodes, ring, rf, id, depth))
                        .collect();
                    let store = |n| nodes.get(&n).map(NodeState::storage);
                    for x in 0..got.len() {
                        let (a, side_a) = (got[x].node, &want[x]);
                        assert_eq!(got[x].rows(), side_a.rows(), "step {step}");
                        for y in x + 1..got.len() {
                            let b = got[y].node;
                            let pair = pair_diff(ring, [(&got[x], store(a)), (&got[y], store(b))]);
                            let rebuilt = [(side_a, store(a)), (&want[y], store(b))];
                            assert_eq!(pair, pair_diff(ring, rebuilt), "step {step}");
                            let reference = pair_diff_reference(nodes, ring, rf, a, b, depth);
                            assert_eq!(pair, reference, "step {step}");
                        }
                    }
                }
            },
        );
    }

    /// Two replicas holding arbitrary overlapping key sets: `diff`
    /// flags exactly the buckets containing symmetric-difference
    /// entries (the `O(diff)` guarantee — no healthy range is ever
    /// re-scanned), and unioning just those buckets converges both
    /// replicas to the set union in one round.
    #[test]
    fn diff_is_exact_and_union_converges() {
        check(
            "diff_is_exact_and_union_converges",
            64,
            (
                vec(0u32..10_000, 0..40),
                vec(10_000u32..20_000, 0..20),
                vec(20_000u32..30_000, 0..20),
            ),
            |(shared, only_a, only_b)| {
                const DEPTH: u32 = 6;
                let to_map = |keys: &[&[u32]]| -> BTreeMap<Vec<u8>, Vec<u8>> {
                    keys.iter()
                        .flat_map(|ks| ks.iter())
                        .map(|k| (k.to_be_bytes().to_vec(), b"v".to_vec()))
                        .collect()
                };
                let mut set_a = to_map(&[&shared, &only_a]);
                let mut set_b = to_map(&[&shared, &only_b]);
                let build = |m: &BTreeMap<Vec<u8>, Vec<u8>>| {
                    MerkleTree::build(m.iter().map(|(k, v)| (k.as_slice(), v.as_slice())), DEPTH)
                };

                // The generator ranges are disjoint, so the symmetric
                // difference is exactly only_a ∪ only_b (deduplicated).
                let mut expected: Vec<usize> = only_a
                    .iter()
                    .chain(only_b.iter())
                    .map(|k| MerkleTree::bucket_of(key_token(&k.to_be_bytes()), DEPTH))
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .collect();
                expected.sort_unstable();

                let diff = build(&set_a).diff(&build(&set_b));
                assert_eq!(&diff, &expected);

                // Union only the flagged buckets, both directions.
                for &bucket in &diff {
                    let in_bucket = |k: &[u8]| MerkleTree::bucket_of(key_token(k), DEPTH) == bucket;
                    for (k, v) in set_a.clone() {
                        if in_bucket(&k) {
                            set_b.entry(k).or_insert(v);
                        }
                    }
                    for (k, v) in set_b.clone() {
                        if in_bucket(&k) {
                            set_a.entry(k).or_insert(v);
                        }
                    }
                }
                let union = to_map(&[&shared, &only_a, &only_b]);
                assert_eq!(&set_a, &union);
                assert_eq!(&set_b, &union);
                assert!(build(&set_a).diff(&build(&set_b)).is_empty());
            },
        );
    }

    #[test]
    fn anti_entropy_noop_on_healthy_cluster() {
        let mut cluster = LocalCluster::new(
            (0..3).map(ef_netsim::NodeId).collect(),
            ClusterConfig::default(),
        );
        for i in 0..100u32 {
            cluster
                .put(
                    ef_netsim::NodeId(0),
                    &i.to_be_bytes(),
                    Bytes::from_static(b"v"),
                )
                .unwrap();
        }
        assert_eq!(cluster.anti_entropy(8), 0);
    }
}
