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

use crate::key_token;
use crate::node::NodeState;
use crate::ring::HashRing;
use bytes::Bytes;
use ef_netsim::NodeId;
use std::collections::BTreeMap;

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
/// entries: XOR of per-entry avalanche hashes).
fn entry_digest(key: &[u8], value: &[u8]) -> u64 {
    let mut h = key_token(key) ^ 0x9e37_79b9_7f4a_7c15;
    h = h.wrapping_add(key_token(value).rotate_left(32));
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
    /// Builds a tree of `2^depth` buckets over the given entries.
    ///
    /// # Panics
    ///
    /// Panics when `depth` exceeds 20 (a million buckets is already far
    /// beyond any test or ring size here).
    pub fn build<'a, I>(entries: I, depth: u32) -> Self
    where
        I: IntoIterator<Item = (&'a [u8], &'a [u8])>,
    {
        assert!(depth <= 20, "tree depth too large");
        let leaves = 1usize << depth;
        let mut nodes = vec![0u64; 2 * leaves];
        for (key, value) in entries {
            let bucket = Self::bucket_of(key_token(key), depth);
            // XOR keeps the leaf digest order-independent.
            nodes[leaves + bucket] ^= entry_digest(key, value);
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

impl crate::cluster::LocalCluster {
    /// Runs one anti-entropy round: for every pair of ring members,
    /// build Merkle trees over the keys they *both* replicate, find
    /// differing ranges, and union the entries in those ranges.
    ///
    /// Returns the number of entries copied. A second invocation right
    /// after returns 0 (convergence).
    pub fn anti_entropy(&mut self, depth: u32) -> usize {
        let members = self.members();
        let rf = self.config().replication_factor;
        let mut copied = 0usize;
        for (x, &a) in members.iter().enumerate() {
            for &b in &members[x + 1..] {
                let pair = pair_diff(&self.nodes, self.ring(), rf, a, b, depth);
                for (dst, entries) in [(b, pair.to_b), (a, pair.to_a)] {
                    let Some(dst) = self.node_mut(dst) else {
                        continue;
                    };
                    copied += entries.len();
                    for (k, v) in entries {
                        dst.storage_mut().put(k, v);
                    }
                }
            }
        }
        copied
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
#[derive(Debug)]
pub(crate) struct PairDiff {
    /// Divergent leaf buckets.
    pub(crate) buckets: usize,
    /// Entries `a` holds that `b` lacks.
    pub(crate) to_b: Vec<(Bytes, Bytes)>,
    /// Entries `b` holds that `a` lacks.
    pub(crate) to_a: Vec<(Bytes, Bytes)>,
}

/// Builds depth-`depth` Merkle trees over the entries `a` and `b` each
/// hold of the keys `ring` has them *both* replicate, and diffs them —
/// the comparison every driver's anti-entropy and the read-only
/// divergence oracle share. A node missing from `nodes` holds nothing.
pub(crate) fn pair_diff(
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
                if MerkleTree::bucket_of(key_token(k), depth) == bucket && !dst.contains_key(k) {
                    out.push((k.clone(), v.clone()));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, LocalCluster};

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

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Two replicas holding arbitrary overlapping key sets: `diff`
        /// flags exactly the buckets containing symmetric-difference
        /// entries (the `O(diff)` guarantee — no healthy range is ever
        /// re-scanned), and unioning just those buckets converges both
        /// replicas to the set union in one round.
        #[test]
        fn diff_is_exact_and_union_converges(
            shared in proptest::collection::vec(0u32..10_000, 0..40),
            only_a in proptest::collection::vec(10_000u32..20_000, 0..20),
            only_b in proptest::collection::vec(20_000u32..30_000, 0..20),
        ) {
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
                MerkleTree::build(
                    m.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
                    DEPTH,
                )
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
            prop_assert_eq!(&diff, &expected);

            // Union only the flagged buckets, both directions.
            for &bucket in &diff {
                let in_bucket = |k: &[u8]| {
                    MerkleTree::bucket_of(key_token(k), DEPTH) == bucket
                };
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
            prop_assert_eq!(&set_a, &union);
            prop_assert_eq!(&set_b, &union);
            prop_assert!(build(&set_a).diff(&build(&set_b)).is_empty());
        }
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
