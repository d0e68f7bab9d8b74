//! Consistent-hash ring with virtual nodes.
//!
//! Each physical node owns `vnodes` pseudo-random tokens on a 64-bit ring;
//! a key is placed on the first token clockwise from its hash, and the
//! replica set is found by continuing clockwise until γ *distinct physical
//! nodes* have been collected — exactly Cassandra's random-partitioner
//! placement that the paper configures for its D2-rings.

use crate::key_token;
use ef_netsim::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// A consistent-hash ring mapping key tokens to physical nodes.
///
/// # Example
///
/// ```
/// use ef_kvstore::HashRing;
/// use ef_netsim::NodeId;
///
/// let ring = HashRing::with_nodes([NodeId(0), NodeId(1), NodeId(2)], 64);
/// let replicas = ring.replicas(b"some-chunk-hash", 2);
/// assert_eq!(replicas.len(), 2);
/// assert_ne!(replicas[0], replicas[1]);
/// ```
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(token, owner)`, sorted by token; tokens are distinct.
    tokens: Vec<(u64, NodeId)>,
    members: BTreeSet<NodeId>,
    vnodes: usize,
}

impl HashRing {
    /// Creates an empty ring where each node will own `vnodes` tokens.
    ///
    /// # Panics
    ///
    /// Panics when `vnodes` is zero.
    pub fn new(vnodes: usize) -> Self {
        assert!(vnodes > 0, "need at least one virtual node per node");
        HashRing {
            tokens: Vec::new(),
            members: BTreeSet::new(),
            vnodes,
        }
    }

    /// Creates a ring pre-populated with `nodes`.
    pub fn with_nodes<I: IntoIterator<Item = NodeId>>(nodes: I, vnodes: usize) -> Self {
        let mut ring = HashRing::new(vnodes);
        for n in nodes {
            ring.add_node(n);
        }
        ring
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member nodes in id order.
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members.iter().copied()
    }

    /// True when `node` is a member.
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.contains(&node)
    }

    /// Virtual nodes per physical node.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// Adds a node, claiming its `vnodes` deterministic tokens.
    ///
    /// Adding an existing member is a no-op. Token positions depend only
    /// on `(node, vnode-index)`, so membership changes are stable: a node
    /// re-added lands on exactly the same tokens.
    pub fn add_node(&mut self, node: NodeId) {
        if !self.members.insert(node) {
            return;
        }
        for v in 0..self.vnodes {
            self.claim(vnode_token(node, v), node);
        }
    }

    /// Gives `node` the first free token at or after `token`, in place in
    /// the sorted array. Ties between different nodes' vnode tokens are
    /// broken by nudging; astronomically rare with 64-bit tokens.
    fn claim(&mut self, token: u64, node: NodeId) {
        let mut t = token;
        loop {
            match self.tokens.binary_search_by_key(&t, |&(at, _)| at) {
                Ok(_) => t = t.wrapping_add(1),
                Err(at) => return self.tokens.insert(at, (t, node)),
            }
        }
    }

    /// Removes a node and all its tokens. No-op for a non-member.
    pub fn remove_node(&mut self, node: NodeId) {
        if !self.members.remove(&node) {
            return;
        }
        self.tokens.retain(|&(_, n)| n != node);
    }

    /// The first `rf` distinct physical nodes clockwise from the key's
    /// token — the replica set of `key`.
    ///
    /// When `rf` exceeds the member count, all members are returned.
    ///
    /// # Panics
    ///
    /// Panics when the ring is empty or `rf` is zero.
    pub fn replicas(&self, key: &[u8], rf: usize) -> Vec<NodeId> {
        self.replicas_for_token(key_token(key), rf)
    }

    /// Like [`HashRing::replicas`] but from a precomputed token.
    ///
    /// # Panics
    ///
    /// Panics when the ring is empty or `rf` is zero.
    pub fn replicas_for_token(&self, token: u64, rf: usize) -> Vec<NodeId> {
        assert!(!self.tokens.is_empty(), "ring is empty");
        assert!(rf > 0, "replication factor must be positive");
        let want = rf.min(self.members.len());
        let mut out = Vec::with_capacity(want);
        // Clockwise from the first token at or after `token`, wrapping.
        let (before, from) = self
            .tokens
            .split_at(self.tokens.partition_point(|&(t, _)| t < token));
        for (_, node) in from.iter().chain(before) {
            if !out.contains(node) {
                out.push(*node);
                if out.len() == want {
                    break;
                }
            }
        }
        out
    }

    /// The primary (first) replica of a key.
    ///
    /// # Panics
    ///
    /// Panics when the ring is empty.
    pub fn primary(&self, key: &[u8]) -> NodeId {
        self.replicas(key, 1)[0]
    }

    /// Fraction of the token space owned (as primary) by each member,
    /// useful for load-balance diagnostics.
    pub fn ownership(&self) -> Vec<(NodeId, f64)> {
        if self.tokens.is_empty() {
            return Vec::new();
        }
        let mut owned: BTreeMap<NodeId, u128> = BTreeMap::new();
        let toks = &self.tokens;
        for (i, (tok, node)) in toks.iter().enumerate() {
            // Each token owns the arc from the previous token to itself.
            let prev = if i == 0 {
                toks[toks.len() - 1].0
            } else {
                toks[i - 1].0
            };
            let arc = tok.wrapping_sub(prev) as u128;
            *owned.entry(*node).or_insert(0) += arc;
        }
        let total: u128 = owned.values().sum();
        owned
            .into_iter()
            .map(|(n, a)| (n, a as f64 / total as f64))
            .collect()
    }
}

/// Deterministic token of `(node, vnode)` via SplitMix64 of the packed id.
fn vnode_token(node: NodeId, vnode: usize) -> u64 {
    let mut z = (u64::from(node.0) << 32) ^ (vnode as u64) ^ 0x1234_5678_9abc_def0;
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ef_simcore::prop::{any, check, vec};

    fn ring3() -> HashRing {
        HashRing::with_nodes([NodeId(0), NodeId(1), NodeId(2)], 64)
    }

    #[test]
    fn replicas_are_distinct_physical_nodes() {
        let ring = ring3();
        for i in 0..200u32 {
            let reps = ring.replicas(&i.to_be_bytes(), 2);
            assert_eq!(reps.len(), 2);
            assert_ne!(reps[0], reps[1]);
        }
    }

    #[test]
    fn rf_capped_at_member_count() {
        let ring = ring3();
        let reps = ring.replicas(b"k", 10);
        assert_eq!(reps.len(), 3);
    }

    #[test]
    fn placement_is_deterministic() {
        let a = ring3();
        let b = ring3();
        for i in 0..100u32 {
            assert_eq!(
                a.replicas(&i.to_be_bytes(), 2),
                b.replicas(&i.to_be_bytes(), 2)
            );
        }
    }

    #[test]
    fn add_remove_roundtrip_restores_placement() {
        let mut ring = ring3();
        let before: Vec<_> = (0..100u32)
            .map(|i| ring.replicas(&i.to_be_bytes(), 2))
            .collect();
        ring.remove_node(NodeId(1));
        assert_eq!(ring.len(), 2);
        ring.add_node(NodeId(1));
        let after: Vec<_> = (0..100u32)
            .map(|i| ring.replicas(&i.to_be_bytes(), 2))
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn removing_node_only_moves_its_keys() {
        let mut ring = ring3();
        let before: Vec<_> = (0..500u32)
            .map(|i| ring.primary(&i.to_be_bytes()))
            .collect();
        ring.remove_node(NodeId(2));
        let after: Vec<_> = (0..500u32)
            .map(|i| ring.primary(&i.to_be_bytes()))
            .collect();
        for (b, a) in before.iter().zip(&after) {
            if *b != NodeId(2) {
                assert_eq!(b, a, "key moved although its primary survived");
            } else {
                assert_ne!(*a, NodeId(2));
            }
        }
    }

    #[test]
    fn ownership_roughly_balanced() {
        let ring = HashRing::with_nodes((0..10).map(NodeId), 128);
        for (node, frac) in ring.ownership() {
            assert!((0.04..=0.18).contains(&frac), "{node} owns fraction {frac}");
        }
    }

    #[test]
    fn duplicate_add_is_noop() {
        let mut ring = ring3();
        let tokens_before = ring.tokens.len();
        ring.add_node(NodeId(0));
        assert_eq!(ring.tokens.len(), tokens_before);
        assert_eq!(ring.len(), 3);
    }

    #[test]
    fn remove_unknown_is_noop() {
        let mut ring = ring3();
        ring.remove_node(NodeId(99));
        assert_eq!(ring.len(), 3);
    }

    #[test]
    #[should_panic(expected = "ring is empty")]
    fn empty_ring_panics_on_lookup() {
        HashRing::new(8).replicas(b"k", 1);
    }

    #[test]
    fn members_iterates_in_order() {
        let ring = ring3();
        let m: Vec<_> = ring.members().collect();
        assert_eq!(m, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert!(ring.contains(NodeId(1)));
        assert!(!ring.contains(NodeId(9)));
        assert_eq!(ring.vnodes(), 64);
        assert!(!ring.is_empty());
    }

    #[test]
    fn load_spread_over_replicas() {
        // With rf=2 each node should serve roughly 2/3 of keys for N=3.
        let ring = ring3();
        let mut counts = [0usize; 3];
        let total = 3000u32;
        for i in 0..total {
            for r in ring.replicas(&i.to_be_bytes(), 2) {
                counts[r.index()] += 1;
            }
        }
        for (n, c) in counts.iter().enumerate() {
            let frac = *c as f64 / total as f64;
            assert!((0.4..=0.95).contains(&frac), "node {n} serves {frac}");
        }
    }

    /// The sorted token array answers every replica query exactly as the
    /// `BTreeMap` it replaced: the same claims (vnode tokens, then ties
    /// forced onto taken tokens, `u64::MAX` among them so a nudge wraps
    /// to 0) nudge to the same tokens, and a removal drops the same ones.
    /// Replica lists agree for random tokens, every token exactly and
    /// either side of it, both ends of the ring, and every `rf` from 1 to
    /// two past the member count.
    #[test]
    fn token_array_walk_matches_the_tree_walk() {
        fn claim(tree: &mut BTreeMap<u64, NodeId>, token: u64, node: NodeId) {
            let mut t = token;
            while tree.contains_key(&t) {
                t = t.wrapping_add(1);
            }
            tree.insert(t, node);
        }
        fn walk(
            tree: &BTreeMap<u64, NodeId>,
            token: u64,
            rf: usize,
            members: usize,
        ) -> Vec<NodeId> {
            let want = rf.min(members);
            let mut out = Vec::new();
            for (_, node) in tree.range(token..).chain(tree.range(..token)) {
                if !out.contains(node) {
                    out.push(*node);
                    if out.len() == want {
                        break;
                    }
                }
            }
            out
        }
        let ties = vec((any::<u8>(), 0u8..4, any::<u64>()), 0..12);
        let strategy = (
            1usize..6,
            1usize..9,
            ties,
            vec(any::<u64>(), 0..16),
            0u32..7,
        );
        check(
            "token_array_walk_matches_the_tree_walk",
            128,
            strategy,
            |(members, vnodes, ties, probes, removed)| {
                let mut ring = HashRing::new(vnodes);
                let mut tree = BTreeMap::new();
                for node in (0..members as u32).map(NodeId) {
                    ring.add_node(node);
                    for v in 0..vnodes {
                        claim(&mut tree, vnode_token(node, v), node);
                    }
                }
                for (node, kind, pick) in ties {
                    let node = NodeId(u32::from(node) % members as u32);
                    let token = match kind {
                        0 => u64::MAX,
                        1 => pick,
                        _ => ring.tokens[pick as usize % ring.tokens.len()].0,
                    };
                    ring.claim(token, node);
                    claim(&mut tree, token, node);
                }
                if members > 1 && (removed as usize) < members {
                    ring.remove_node(NodeId(removed));
                    tree.retain(|_, n| *n != NodeId(removed));
                }
                let flat: Vec<_> = tree.iter().map(|(t, n)| (*t, *n)).collect();
                assert_eq!(ring.tokens, flat);
                let at_tokens = tree
                    .keys()
                    .flat_map(|t| [t.wrapping_sub(1), *t, t.wrapping_add(1)]);
                let ends = [0, 1, u64::MAX - 1, u64::MAX];
                for token in probes.into_iter().chain(at_tokens).chain(ends) {
                    for rf in 1..=ring.len() + 2 {
                        let want = walk(&tree, token, rf, ring.len());
                        assert_eq!(
                            ring.replicas_for_token(token, rf),
                            want,
                            "token {token}, rf {rf}"
                        );
                    }
                }
            },
        );
    }
}
