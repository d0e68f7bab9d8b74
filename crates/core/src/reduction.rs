//! The Theorem 2 construction: minimum k-cut → SNOD2.
//!
//! The paper proves SNOD2 NP-hard by mapping any edge-weighted graph to a
//! SNOD2 instance with zero network cost such that minimizing storage
//! cost is equivalent to minimizing the weight of cut edges. This module
//! implements that construction faithfully so the algebra of the proof is
//! machine-checked: for every partition,
//!
//! `SNOD2_objective(partition) = constant + Σ_{cut edges} w(e)`.

use crate::model::Snod2Instance;
use crate::partition::Partition;
use ef_datagen::CharacteristicVector;
use std::collections::BTreeSet;

/// An undirected edge-weighted graph for the reduction.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedGraph {
    n: usize,
    edges: Vec<(usize, usize, f64)>,
}

impl WeightedGraph {
    /// Creates a graph on `n` vertices with the given weighted edges.
    ///
    /// # Panics
    ///
    /// Panics when an endpoint is out of range, an edge is a self-loop or
    /// duplicate, or a weight is not positive and finite.
    pub fn new(n: usize, edges: Vec<(usize, usize, f64)>) -> Self {
        assert!(n > 0, "graph needs at least one vertex");
        let mut seen = BTreeSet::new();
        for &(u, v, w) in &edges {
            assert!(u < n && v < n, "edge endpoint out of range");
            assert_ne!(u, v, "self-loops not allowed");
            assert!(w.is_finite() && w > 0.0, "invalid edge weight {w}");
            let key = (u.min(v), u.max(v));
            assert!(seen.insert(key), "duplicate edge {key:?}");
        }
        WeightedGraph { n, edges }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// The edges `(u, v, w)`.
    pub fn edges(&self) -> &[(usize, usize, f64)] {
        &self.edges
    }

    /// Degree (edge count) of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.edges
            .iter()
            .filter(|(a, b, _)| *a == v || *b == v)
            .count()
    }

    /// Total weight of edges whose endpoints land in different rings of
    /// `partition` — the k-cut objective (Eq. 10).
    ///
    /// # Panics
    ///
    /// Panics when the partition does not cover the vertices.
    #[expect(
        clippy::expect_used,
        reason = "documented panic contract; cutting an invalid partition would be meaningless"
    )]
    pub fn cut_weight(&self, partition: &Partition) -> f64 {
        partition.validate(self.n).expect("valid partition");
        self.edges
            .iter()
            .filter(|(u, v, _)| partition.ring_of(*u) != partition.ring_of(*v))
            .map(|(_, _, w)| w)
            .sum()
    }
}

/// The result of the Theorem 2 construction.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// The constructed SNOD2 instance (zero network cost).
    pub instance: Snod2Instance,
    /// The additive constant `Σ_k s_k (1 - c²)` of the equivalence.
    pub constant: f64,
    /// The constant `c ∈ (0,1)` used in the construction.
    pub c: f64,
}

/// Builds the SNOD2 instance of Theorem 2 from a graph.
///
/// For each edge `(u, v)` with weight `w`, a dedicated chunk pool of size
/// `w / (1 - c)²` is created; vertex `u` has probability `1/d(u)` of
/// drawing from each of its incident pools; rates are chosen so that
/// `g = c` exactly for incident (vertex, pool) pairs.
///
/// Because rates must be equal for all pools of a vertex while the paper
/// sets `R_v` per (vertex, pool), we use the standard trick of equalizing:
/// with `p_vk = 1/d(v)` and pool size `s_k`, choosing
/// `R_v T = ln(c) / ln(1 - p_v/s_k)` requires `s_k ∝` the same base — we
/// instead follow the paper literally and give **every pool the same size
/// `s`** by scaling weights: pools of size `s = w_max / (1-c)²` and edge
/// weights are embedded via *duplicated pools* — `round(w / w_unit)` unit
/// pools per edge, with `w_unit` an input resolution.
///
/// This preserves the equivalence up to weight quantization:
/// `objective = const + Σ_cut round(w/w_unit)·w_unit`.
///
/// # Panics
///
/// Panics when `c ∉ (0,1)` or `weight_unit` is not positive.
#[expect(
    clippy::expect_used,
    reason = "weights are clamped strictly positive, and the reduction constructs parameters that satisfy the instance invariants"
)]
pub fn reduce_k_cut(graph: &WeightedGraph, c: f64, weight_unit: f64) -> Reduction {
    assert!((0.0..1.0).contains(&c) && c > 0.0, "c must be in (0,1)");
    assert!(
        weight_unit.is_finite() && weight_unit > 0.0,
        "invalid weight unit"
    );
    let n = graph.vertex_count();

    // One unit pool per quantized weight unit of each edge. Every pool
    // has identical size s, so a single per-vertex rate gives g = c for
    // all incident pools simultaneously.
    let s: u64 = 1_000;
    let mut pool_edges: Vec<(usize, usize)> = Vec::new();
    for &(u, v, w) in graph.edges() {
        let copies = (w / weight_unit).round().max(1.0) as usize;
        for _ in 0..copies {
            pool_edges.push((u, v));
        }
    }
    assert!(!pool_edges.is_empty(), "graph has no edges");
    let k = pool_edges.len();

    // Vertex degrees in pool multiplicity (each unit pool counts).
    let mut deg = vec![0usize; n];
    for &(u, v) in &pool_edges {
        deg[u] += 1;
        deg[v] += 1;
    }

    // p_vk = 1/deg(v) for incident pools. Rate: g = (1 - p/s)^{R T} = c
    // → R T = ln c / ln(1 - 1/(deg(v) * s)).
    let horizon = 1.0;
    let mut probs = Vec::with_capacity(n);
    let mut rates = Vec::with_capacity(n);
    for (v, &dv) in deg.iter().enumerate() {
        let mut p = vec![0.0; k];
        if dv > 0 {
            for (kk, &(a, b)) in pool_edges.iter().enumerate() {
                if a == v || b == v {
                    p[kk] = 1.0 / dv as f64;
                }
            }
            let frac = 1.0 / (dv as f64 * s as f64);
            let rate = c.ln() / (-frac).ln_1p() / horizon;
            rates.push(rate);
        } else {
            // Isolated vertex: give it a vanishing draw from pool 0 so the
            // instance stays valid; it contributes a constant.
            p[0] = 1e-12;
            rates.push(1e-9);
        }
        probs.push(CharacteristicVector::from_weights(p).expect("valid weights"));
    }

    // Zero network cost.
    let costs = vec![vec![0.0; n]; n];
    let instance = Snod2Instance::new(
        vec![s; k],
        rates,
        probs,
        costs,
        0.0, // alpha irrelevant with zero costs
        1,
        horizon,
    )
    .expect("reduction instance is valid");

    // Unit pools have size s' = w_unit/(1-c)^2 in the paper; we use size s
    // and scale: each unit pool contributes s·(1-c)² per cut unit. The
    // reported constant likewise scales with s.
    let constant = k as f64 * s as f64 * (1.0 - c * c);
    Reduction {
        instance,
        constant,
        c,
    }
}

/// The storage objective of the reduced instance for a partition,
/// normalized back to (quantized) cut weight:
/// `(objective - constant) / (s (1-c)²) * weight_unit`.
pub fn objective_as_cut_weight(red: &Reduction, partition: &Partition, weight_unit: f64) -> f64 {
    let cost = red.instance.total_cost(partition);
    let s = red.instance.pool_sizes()[0] as f64;
    (cost.storage - red.constant) / (s * (1.0 - red.c) * (1.0 - red.c)) * weight_unit
}

/// Brute-force minimum k-cut for small graphs (test oracle).
///
/// # Panics
///
/// Panics when `n > 10`.
#[expect(
    clippy::expect_used,
    reason = "the enumerated assignment places every vertex exactly once, and recursion over k >= 1 labels yields at least one"
)]
pub fn min_k_cut_brute(graph: &WeightedGraph, k: usize) -> (Partition, f64) {
    let n = graph.vertex_count();
    assert!(n <= 10, "brute force limited to n <= 10");
    let mut best: Option<(Partition, f64)> = None;
    let mut assignment = vec![0usize; n];

    fn recurse(
        graph: &WeightedGraph,
        assignment: &mut Vec<usize>,
        idx: usize,
        max_label: usize,
        k: usize,
        best: &mut Option<(Partition, f64)>,
    ) {
        let n = assignment.len();
        if idx == n {
            let rings_used = max_label + 1;
            if rings_used != k {
                return;
            }
            let mut rings: Vec<Vec<usize>> = vec![Vec::new(); rings_used];
            for (v, &l) in assignment.iter().enumerate() {
                rings[l].push(v);
            }
            let partition = Partition::new(rings).expect("valid partition");
            let w = graph.cut_weight(&partition);
            match best {
                Some((_, b)) if *b <= w => {}
                _ => *best = Some((partition, w)),
            }
            return;
        }
        for label in 0..=(max_label + 1).min(k - 1) {
            assignment[idx] = label;
            recurse(graph, assignment, idx + 1, max_label.max(label), k, best);
        }
    }

    recurse(graph, &mut assignment, 1, 0, k, &mut best);
    best.expect("some k-partition exists")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_one() -> WeightedGraph {
        // Triangle 0-1-2 with a pendant vertex 3.
        WeightedGraph::new(4, vec![(0, 1, 3.0), (1, 2, 1.0), (0, 2, 2.0), (2, 3, 4.0)])
    }

    #[test]
    fn graph_validation() {
        let g = triangle_plus_one();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        WeightedGraph::new(2, vec![(0, 0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn rejects_duplicate_edge() {
        WeightedGraph::new(2, vec![(0, 1, 1.0), (1, 0, 2.0)]);
    }

    #[test]
    fn cut_weight_counts_crossing_edges() {
        let g = triangle_plus_one();
        let p = Partition::new(vec![vec![0, 1, 2], vec![3]]).unwrap();
        assert_eq!(g.cut_weight(&p), 4.0);
        let q = Partition::new(vec![vec![0], vec![1, 2, 3]]).unwrap();
        assert_eq!(g.cut_weight(&q), 5.0);
    }

    #[test]
    fn reduction_objective_tracks_cut_weight() {
        // The heart of Theorem 2: objective = const + cut weight, for
        // every partition.
        let g = triangle_plus_one();
        let red = reduce_k_cut(&g, 0.5, 1.0);
        for rings in [
            vec![vec![0, 1, 2, 3]],
            vec![vec![0, 1, 2], vec![3]],
            vec![vec![0, 1], vec![2, 3]],
            vec![vec![0], vec![1], vec![2], vec![3]],
            vec![vec![0, 3], vec![1, 2]],
        ] {
            let p = Partition::new(rings).unwrap();
            let recovered = objective_as_cut_weight(&red, &p, 1.0);
            let actual = g.cut_weight(&p);
            assert!(
                (recovered - actual).abs() < 0.05,
                "partition {:?}: recovered {recovered} vs cut {actual}",
                p.rings()
            );
        }
    }

    #[test]
    fn minimizing_snod2_solves_min_k_cut() {
        let g = triangle_plus_one();
        let red = reduce_k_cut(&g, 0.5, 1.0);
        let (snod_best, _) = crate::partition::exhaustive_optimal_exact(&red.instance, 2);
        let (_, cut_best) = min_k_cut_brute(&g, 2);
        assert!(
            (g.cut_weight(&snod_best) - cut_best).abs() < 1e-9,
            "SNOD2 optimum {:?} has cut {} but min 2-cut is {}",
            snod_best.rings(),
            g.cut_weight(&snod_best),
            cut_best
        );
    }

    #[test]
    fn min_k_cut_brute_small_oracle() {
        // Two cliques joined by one light edge: the min 2-cut removes it.
        let g = WeightedGraph::new(4, vec![(0, 1, 10.0), (2, 3, 10.0), (1, 2, 1.0)]);
        let (p, w) = min_k_cut_brute(&g, 2);
        assert_eq!(w, 1.0);
        assert_eq!(p.ring_of(0), p.ring_of(1));
        assert_eq!(p.ring_of(2), p.ring_of(3));
        assert_ne!(p.ring_of(0), p.ring_of(2));
    }

    #[test]
    fn reduction_with_different_c_values() {
        let g = triangle_plus_one();
        for c in [0.3, 0.5, 0.7] {
            let red = reduce_k_cut(&g, c, 1.0);
            let p = Partition::new(vec![vec![0, 1], vec![2, 3]]).unwrap();
            let recovered = objective_as_cut_weight(&red, &p, 1.0);
            assert!(
                (recovered - g.cut_weight(&p)).abs() < 0.1,
                "c={c}: {recovered} vs {}",
                g.cut_weight(&p)
            );
        }
    }

    #[test]
    fn weight_quantization_respected() {
        let g = WeightedGraph::new(3, vec![(0, 1, 2.5), (1, 2, 1.0)]);
        let red = reduce_k_cut(&g, 0.5, 0.5); // resolution 0.5 → exact
        let p = Partition::new(vec![vec![0], vec![1, 2]]).unwrap();
        let recovered = objective_as_cut_weight(&red, &p, 0.5);
        assert!((recovered - 2.5).abs() < 0.05, "recovered {recovered}");
    }
}
