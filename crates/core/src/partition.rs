//! Partitioning algorithms for SNOD2 (paper Sec. III-C).
//!
//! * [`SmartGreedy`] — Algorithm 2: iteratively place the (node, ring)
//!   pair with the smallest aggregate-cost increment.
//! * [`EqualSizeGreedy`] — the load-balanced variant with equal ring
//!   sizes.
//! * [`MatchingPartitioner`] — the minimum-weight-matching formulation:
//!   repeatedly merge the cheapest partition pairs, keeping the best
//!   θ-fraction of merges per round.
//! * Baselines: [`NetworkOnly`], [`DedupOnly`] (the Fig. 6(c)/7 ablations
//!   that drop one term of the objective), [`RandomPartitioner`],
//!   [`SingleRing`], [`PerSite`].
//! * [`exhaustive_optimal`] — brute force over all partitions for small
//!   `N`, used to measure the heuristics' approximation quality.

use crate::model::Snod2Instance;
use ef_simcore::DetRng;
use std::fmt;

/// Error returned by [`Partition::validate`] / [`Partition::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// A node index appears in more than one ring.
    Duplicate(usize),
    /// A node index is missing from every ring.
    Missing(usize),
    /// A node index exceeds the instance size.
    OutOfRange(usize),
    /// A ring is empty.
    EmptyRing,
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::Duplicate(i) => write!(f, "node {i} appears in multiple rings"),
            PartitionError::Missing(i) => write!(f, "node {i} is not in any ring"),
            PartitionError::OutOfRange(i) => write!(f, "node {i} out of range"),
            PartitionError::EmptyRing => write!(f, "partition contains an empty ring"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// A disjoint partition of node indices into D2-rings.
///
/// Rings are kept sorted internally (both within a ring and by first
/// element across rings) so structurally equal partitions compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    rings: Vec<Vec<usize>>,
}

impl Partition {
    /// Creates a partition, normalizing ring order.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::EmptyRing`] when a ring is empty or
    /// [`PartitionError::Duplicate`] when a node repeats. (Coverage
    /// against an instance is checked by [`Partition::validate`].)
    pub fn new(mut rings: Vec<Vec<usize>>) -> Result<Self, PartitionError> {
        let mut seen = std::collections::BTreeSet::new();
        for ring in &mut rings {
            if ring.is_empty() {
                return Err(PartitionError::EmptyRing);
            }
            ring.sort_unstable();
            for &i in ring.iter() {
                if !seen.insert(i) {
                    return Err(PartitionError::Duplicate(i));
                }
            }
        }
        rings.sort_by_key(|r| r[0]);
        Ok(Partition { rings })
    }

    /// The rings.
    pub fn rings(&self) -> &[Vec<usize>] {
        &self.rings
    }

    /// Number of rings `M`.
    pub fn ring_count(&self) -> usize {
        self.rings.len()
    }

    /// Total node count across rings.
    pub fn node_count(&self) -> usize {
        self.rings.iter().map(Vec::len).sum()
    }

    /// The ring index containing `node`, if any.
    pub fn ring_of(&self, node: usize) -> Option<usize> {
        self.rings
            .iter()
            .position(|r| r.binary_search(&node).is_ok())
    }

    /// Checks the partition is a disjoint cover of `0..n`.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self, n: usize) -> Result<(), PartitionError> {
        let mut seen = vec![false; n];
        for ring in &self.rings {
            for &i in ring {
                if i >= n {
                    return Err(PartitionError::OutOfRange(i));
                }
                if seen[i] {
                    return Err(PartitionError::Duplicate(i));
                }
                seen[i] = true;
            }
        }
        if let Some(i) = seen.iter().position(|s| !s) {
            return Err(PartitionError::Missing(i));
        }
        Ok(())
    }
}

/// A partitioning algorithm for SNOD2 instances.
pub trait Partitioner {
    /// Partitions the instance's nodes into `min(m, N)` non-empty rings.
    ///
    /// The paper fixes the ring count (its experiments run "SMART with 5
    /// D2-rings" / "20 unbalanced D2 rings"), so implementations return
    /// exactly `min(m, N)` rings — except structural baselines like
    /// [`SingleRing`]/[`PerSite`], whose ring count is inherent.
    fn partition(&self, inst: &Snod2Instance, m: usize) -> Partition;

    /// A short human-readable name for experiment tables.
    fn name(&self) -> &'static str;
}

/// Which cost terms a greedy placement considers — SMART uses both; the
/// paper's Network-Only and Dedup-Only ablations drop one each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Objective {
    Both,
    NetworkOnly,
    StorageOnly,
}

/// Precomputed `g_ik` matrix plus rates, shared by the incremental ring
/// accumulators — evaluating a placement drops from `O(K·|ring|)` to
/// `O(K + |ring|)`, which is what makes the Fig. 7 500-node sweeps
/// tractable.
struct Precomputed {
    /// `g[i][k]` per node and pool.
    g: Vec<Vec<f64>>,
    /// `R_i T` per node.
    lookups: Vec<f64>,
}

impl Precomputed {
    fn new(inst: &Snod2Instance) -> Self {
        let n = inst.node_count();
        let k = inst.pool_count();
        Precomputed {
            g: (0..n)
                .map(|i| (0..k).map(|kk| inst.g(i, kk)).collect())
                .collect(),
            lookups: (0..n).map(|i| inst.rates()[i] * inst.horizon()).collect(),
        }
    }
}

/// Incremental state of one ring under construction.
#[derive(Clone)]
struct RingState {
    members: Vec<usize>,
    /// Per pool: `Π_{i∈ring} g_ik`.
    survive: Vec<f64>,
    /// `Σ_{i∈ring} R_i T · Σ_{j∈ring, j≠i} v_ij`.
    w_pair: f64,
}

impl RingState {
    fn new(pool_count: usize) -> Self {
        RingState {
            members: Vec::new(),
            survive: vec![1.0; pool_count],
            w_pair: 0.0,
        }
    }

    fn from_members(inst: &Snod2Instance, pre: &Precomputed, members: &[usize]) -> Self {
        let mut s = RingState::new(inst.pool_count());
        for &v in members {
            s.add(inst, pre, v);
        }
        s
    }

    fn storage(&self, inst: &Snod2Instance) -> f64 {
        if self.members.is_empty() {
            return 0.0;
        }
        inst.pool_sizes()
            .iter()
            .zip(&self.survive)
            .map(|(&s, &surv)| s as f64 * (1.0 - surv))
            .sum()
    }

    fn network(&self, inst: &Snod2Instance) -> f64 {
        let p = self.members.len();
        if p <= 1 {
            return 0.0;
        }
        let nonlocal = (1.0 - inst.gamma() as f64 / p as f64).max(0.0);
        if nonlocal == 0.0 {
            return 0.0;
        }
        self.w_pair * nonlocal / (p as f64 - 1.0)
    }

    fn cost(&self, inst: &Snod2Instance, obj: Objective) -> f64 {
        match obj {
            Objective::Both => self.storage(inst) + inst.alpha() * self.network(inst),
            Objective::NetworkOnly => inst.alpha() * self.network(inst),
            Objective::StorageOnly => self.storage(inst),
        }
    }

    /// Cost of this ring if `v` were added, in `O(K + |ring|)`.
    fn cost_with(&self, inst: &Snod2Instance, pre: &Precomputed, v: usize, obj: Objective) -> f64 {
        let p = self.members.len() + 1;
        let storage = || -> f64 {
            inst.pool_sizes()
                .iter()
                .zip(&self.survive)
                .enumerate()
                .map(|(k, (&s, &surv))| s as f64 * (1.0 - surv * pre.g[v][k]))
                .sum()
        };
        let network = || -> f64 {
            if p <= 1 {
                return 0.0;
            }
            let nonlocal = (1.0 - inst.gamma() as f64 / p as f64).max(0.0);
            if nonlocal == 0.0 {
                return 0.0;
            }
            let mut w = self.w_pair;
            for &j in &self.members {
                w += pre.lookups[v] * inst.cost(v, j) + pre.lookups[j] * inst.cost(j, v);
            }
            w * nonlocal / (p as f64 - 1.0)
        };
        match obj {
            Objective::Both => storage() + inst.alpha() * network(),
            Objective::NetworkOnly => inst.alpha() * network(),
            Objective::StorageOnly => storage(),
        }
    }

    fn add(&mut self, inst: &Snod2Instance, pre: &Precomputed, v: usize) {
        for (k, surv) in self.survive.iter_mut().enumerate() {
            *surv *= pre.g[v][k];
        }
        for &j in &self.members {
            self.w_pair += pre.lookups[v] * inst.cost(v, j) + pre.lookups[j] * inst.cost(j, v);
        }
        self.members.push(v);
    }
}

/// The merge penalty of two singleton nodes: how much joining them costs
/// versus keeping them apart. Used for farthest-point seeding.
fn merge_penalty(
    inst: &Snod2Instance,
    pre: &Precomputed,
    u: usize,
    v: usize,
    obj: Objective,
) -> f64 {
    let su = RingState::from_members(inst, pre, &[u]);
    let pair = su.cost_with(inst, pre, v, obj);
    let alone = su.cost(inst, obj) + RingState::from_members(inst, pre, &[v]).cost(inst, obj);
    pair - alone
}

/// Shared greedy core of Algorithm 2, hardened against the classic
/// greedy myopia (never opening a second ring when storage dominates):
///
/// 1. **Seed** the `m` rings with mutually expensive-to-merge nodes
///    (farthest-point on the pairwise merge penalty),
/// 2. **Greedy-fill**: repeatedly place the (remaining node, ring) pair
///    with the minimum cost increment — Algorithm 2's selection rule,
/// 3. **Local search**: move nodes between rings while the total cost
///    decreases (bounded passes), never emptying a ring — the ring count
///    stays exactly `min(m, N)`.
fn greedy(inst: &Snod2Instance, m: usize, obj: Objective, cap: Option<usize>) -> Partition {
    let pre = Precomputed::new(inst);
    greedy_with(inst, &pre, m, obj, obj, cap)
}

#[expect(
    clippy::expect_used,
    reason = "the loop range keeps fewer seeds than nodes, every remaining node can join a ring below the cap, and greedy places every node into exactly one ring"
)]
fn greedy_with(
    inst: &Snod2Instance,
    pre: &Precomputed,
    m: usize,
    seed_obj: Objective,
    obj: Objective,
    max_ring: Option<usize>,
) -> Partition {
    let n = inst.node_count();
    assert!(m > 0, "need at least one ring");
    let m = m.min(n);

    // --- 1. Seeding -------------------------------------------------------
    let mut seeds: Vec<usize> = vec![0];
    while seeds.len() < m {
        // The unpicked node with the largest minimum merge penalty to any
        // existing seed.
        let mut best: Option<(f64, usize)> = None;
        for v in 0..n {
            if seeds.contains(&v) {
                continue;
            }
            let min_pen = seeds
                .iter()
                .map(|&s| merge_penalty(inst, pre, s, v, seed_obj))
                .fold(f64::INFINITY, f64::min);
            match best {
                Some((b, _)) if b >= min_pen => {}
                _ => best = Some((min_pen, v)),
            }
        }
        seeds.push(best.expect("unpicked node exists").1);
    }
    let mut rings: Vec<RingState> = seeds
        .iter()
        .map(|&s| RingState::from_members(inst, pre, &[s]))
        .collect();
    let mut ring_costs: Vec<f64> = rings.iter().map(|r| r.cost(inst, obj)).collect();

    // --- 2. Greedy fill (Algorithm 2's min-increment selection) -----------
    let mut remaining: Vec<usize> = (0..n).filter(|v| !seeds.contains(v)).collect();
    while !remaining.is_empty() {
        let mut best: Option<(f64, usize, usize, f64)> = None; // (delta, pos, ring, new_cost)
        for (pos, &v) in remaining.iter().enumerate() {
            for (s, ring) in rings.iter().enumerate() {
                if let Some(cap) = max_ring {
                    if ring.members.len() >= cap {
                        continue;
                    }
                }
                let new_cost = ring.cost_with(inst, pre, v, obj);
                let delta = new_cost - ring_costs[s];
                match best {
                    Some((d, ..)) if d <= delta => {}
                    _ => best = Some((delta, pos, s, new_cost)),
                }
            }
        }
        let (_, pos, s, new_cost) = best.expect("a feasible placement always exists");
        let v = remaining.swap_remove(pos);
        rings[s].add(inst, pre, v);
        ring_costs[s] = new_cost;
    }

    let rings = refine(inst, pre, rings, obj, max_ring);
    Partition::new(rings.into_iter().map(|r| r.members).collect())
        .expect("greedy builds a valid partition")
}

/// Improvement phase shared by the greedy and the portfolio polish:
/// bounded local-search passes of single-node moves. Moves never empty a
/// ring, so the ring count is preserved.
#[expect(
    clippy::expect_used,
    reason = "refine only moves nodes between rings, never drops one"
)]
fn refine(
    inst: &Snod2Instance,
    pre: &Precomputed,
    mut rings: Vec<RingState>,
    obj: Objective,
    max_ring: Option<usize>,
) -> Vec<RingState> {
    let n: usize = rings.iter().map(|r| r.members.len()).sum();
    let mut ring_costs: Vec<f64> = rings.iter().map(|r| r.cost(inst, obj)).collect();

    // --- 3. Local search: single-node moves --------------------------------
    for _pass in 0..3 {
        let mut improved = false;
        for v in 0..n {
            let from = rings
                .iter()
                .position(|r| r.members.contains(&v))
                .expect("every node placed");
            if rings[from].members.len() == 1 {
                continue; // moving would empty the ring
            }
            let without: Vec<usize> = rings[from]
                .members
                .iter()
                .copied()
                .filter(|&x| x != v)
                .collect();
            let from_without = RingState::from_members(inst, pre, &without);
            let gain_leave = ring_costs[from] - from_without.cost(inst, obj);
            let mut best_move: Option<(f64, usize, f64)> = None; // (net gain, to, to_new_cost)
            for (to, ring) in rings.iter().enumerate() {
                if to == from {
                    continue;
                }
                if let Some(cap) = max_ring {
                    if ring.members.len() >= cap {
                        continue;
                    }
                }
                let to_new = ring.cost_with(inst, pre, v, obj);
                let gain = gain_leave - (to_new - ring_costs[to]);
                match best_move {
                    Some((g, ..)) if g >= gain => {}
                    _ => best_move = Some((gain, to, to_new)),
                }
            }
            if let Some((gain, to, to_new)) = best_move {
                if gain > 1e-12 {
                    rings[from] = from_without.clone();
                    ring_costs[from] = from_without.cost(inst, obj);
                    rings[to].add(inst, pre, v);
                    ring_costs[to] = to_new;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }

    rings
}

/// **Algorithm 2 (SMART)**: unconstrained greedy minimum-increment
/// placement, run as a small portfolio.
///
/// Pure greedy placement under the mixed objective is myopic: when one
/// cost term dominates locally it can commit to partitions the other
/// term makes globally expensive. SMART therefore builds candidate
/// partitions with several seeding/filling emphases (mixed, storage-led,
/// network-led), polishes each under the **full** Eq. (3) objective with
/// local-search moves, and returns the cheapest. This keeps the paper's
/// property that SMART never loses to the Network-Only or Dedup-Only
/// ablations at the same ring count.
///
/// # Example
///
/// ```
/// use efdedup::partition::{Partitioner, SmartGreedy};
/// # use efdedup::model::Snod2Instance;
/// # use ef_datagen::CharacteristicVector;
/// # let v = CharacteristicVector::uniform(2);
/// # let inst = Snod2Instance::new(vec![100, 100], vec![10.0; 4],
/// #     vec![v.clone(), v.clone(), v.clone(), v],
/// #     vec![vec![0.0; 4]; 4], 0.1, 2, 1.0).unwrap();
/// let partition = SmartGreedy::default().partition(&inst, 2);
/// assert!(partition.ring_count() <= 2);
/// assert_eq!(partition.node_count(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SmartGreedy;

#[expect(
    clippy::expect_used,
    reason = "refine never drops a node, instance costs are finite by model validation, and the candidate list always holds the unpolished baseline"
)]
impl Partitioner for SmartGreedy {
    fn partition(&self, inst: &Snod2Instance, m: usize) -> Partition {
        let pre = Precomputed::new(inst);
        let candidates = [
            greedy_with(inst, &pre, m, Objective::Both, Objective::Both, None),
            // Storage-led: seeds spread across similarity groups, fill
            // still under the mixed objective.
            greedy_with(inst, &pre, m, Objective::StorageOnly, Objective::Both, None),
            // The two single-term extremes, polished under the full
            // objective below.
            greedy_with(
                inst,
                &pre,
                m,
                Objective::StorageOnly,
                Objective::StorageOnly,
                None,
            ),
            greedy_with(
                inst,
                &pre,
                m,
                Objective::NetworkOnly,
                Objective::NetworkOnly,
                None,
            ),
            // The bottom-up matching construction explores merge orders
            // the top-down greedy cannot reach.
            MatchingPartitioner::default().partition(inst, m),
        ];
        candidates
            .into_iter()
            .map(|p| {
                let rings = p
                    .rings()
                    .iter()
                    .map(|r| RingState::from_members(inst, &pre, r))
                    .collect();
                let polished = refine(inst, &pre, rings, Objective::Both, None);
                Partition::new(polished.into_iter().map(|r| r.members).collect())
                    .expect("refine preserves validity")
            })
            .min_by(|a, b| {
                inst.total_cost(a)
                    .aggregate
                    .partial_cmp(&inst.total_cost(b).aggregate)
                    .expect("finite costs")
            })
            .expect("non-empty candidate set")
    }

    fn name(&self) -> &'static str {
        "SMART"
    }
}

/// The equal-size variant of Algorithm 2 (better load balancing): ring
/// sizes are capped at `⌈N/M⌉`.
#[derive(Debug, Clone, Copy, Default)]
pub struct EqualSizeGreedy;

impl Partitioner for EqualSizeGreedy {
    fn partition(&self, inst: &Snod2Instance, m: usize) -> Partition {
        let n = inst.node_count();
        let m_eff = m.max(1).min(n);
        let cap = n.div_ceil(m_eff);
        greedy(inst, m_eff, Objective::Both, Some(cap))
    }

    fn name(&self) -> &'static str {
        "SMART-equal"
    }
}

/// The Network-Only ablation: placement ignores the storage term.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetworkOnly;

impl Partitioner for NetworkOnly {
    fn partition(&self, inst: &Snod2Instance, m: usize) -> Partition {
        greedy(inst, m, Objective::NetworkOnly, None)
    }

    fn name(&self) -> &'static str {
        "Network-Only"
    }
}

/// The Dedup-Only ablation: placement ignores the network term.
#[derive(Debug, Clone, Copy, Default)]
pub struct DedupOnly;

impl Partitioner for DedupOnly {
    fn partition(&self, inst: &Snod2Instance, m: usize) -> Partition {
        greedy(inst, m, Objective::StorageOnly, None)
    }

    fn name(&self) -> &'static str {
        "Dedup-Only"
    }
}

/// The matching-based SMART formulation: start from singleton partitions;
/// each round, compute the pairwise merge costs, greedily take the
/// cheapest non-overlapping merges (the best θ-fraction), and repeat
/// until only `m` partitions remain.
#[derive(Debug, Clone, Copy)]
pub struct MatchingPartitioner {
    /// Fraction of candidate merges kept per round, in `(0, 1]`.
    pub theta: f64,
}

impl Default for MatchingPartitioner {
    /// θ = 0.5 — halve the partition count each round.
    fn default() -> Self {
        MatchingPartitioner { theta: 0.5 }
    }
}

#[expect(
    clippy::expect_used,
    reason = "instance costs are finite by model validation, and the matching pass assigns every node exactly once"
)]
impl Partitioner for MatchingPartitioner {
    fn partition(&self, inst: &Snod2Instance, m: usize) -> Partition {
        assert!(
            self.theta > 0.0 && self.theta <= 1.0,
            "theta must be in (0, 1]"
        );
        let n = inst.node_count();
        let m = m.max(1).min(n);
        let mut parts: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();

        while parts.len() > m {
            // All pairwise merge deltas.
            let mut merges: Vec<(f64, usize, usize)> = Vec::new();
            for a in 0..parts.len() {
                for b in (a + 1)..parts.len() {
                    let mut merged = parts[a].clone();
                    merged.extend_from_slice(&parts[b]);
                    let delta = inst.ring_cost(&merged)
                        - inst.ring_cost(&parts[a])
                        - inst.ring_cost(&parts[b]);
                    merges.push((delta, a, b));
                }
            }
            merges.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("finite costs"));
            // Keep the cheapest non-overlapping θ-fraction, but at least
            // one merge so the loop always progresses.
            let budget =
                ((parts.len() as f64 * self.theta).floor() as usize).clamp(1, parts.len() - m);
            let mut used = vec![false; parts.len()];
            let mut chosen: Vec<(usize, usize)> = Vec::new();
            for (_, a, b) in merges {
                if chosen.len() == budget {
                    break;
                }
                if !used[a] && !used[b] {
                    used[a] = true;
                    used[b] = true;
                    chosen.push((a, b));
                }
            }
            // Apply merges (indices into the old `parts`).
            let mut merged_parts: Vec<Vec<usize>> = Vec::new();
            let mut consumed = vec![false; parts.len()];
            for (a, b) in chosen {
                let mut merged = parts[a].clone();
                merged.extend_from_slice(&parts[b]);
                merged_parts.push(merged);
                consumed[a] = true;
                consumed[b] = true;
            }
            for (i, p) in parts.into_iter().enumerate() {
                if !consumed[i] {
                    merged_parts.push(p);
                }
            }
            parts = merged_parts;
        }

        Partition::new(parts).expect("matching builds a valid partition")
    }

    fn name(&self) -> &'static str {
        "SMART-matching"
    }
}

/// Uniformly random assignment of nodes to `m` rings (baseline).
#[derive(Debug, Clone, Copy)]
pub struct RandomPartitioner {
    /// RNG seed (deterministic baseline).
    pub seed: u64,
}

#[expect(
    clippy::expect_used,
    reason = "round-robin assigns every node exactly once"
)]
impl Partitioner for RandomPartitioner {
    fn partition(&self, inst: &Snod2Instance, m: usize) -> Partition {
        let n = inst.node_count();
        let m = m.max(1).min(n);
        let mut rng = DetRng::new(self.seed).substream("random-partition");
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let mut rings: Vec<Vec<usize>> = vec![Vec::new(); m];
        // Deal round-robin so no ring is empty.
        for (i, v) in order.into_iter().enumerate() {
            rings[i % m].push(v);
        }
        Partition::new(rings).expect("random builds a valid partition")
    }

    fn name(&self) -> &'static str {
        "Random"
    }
}

/// Every node in one ring — maximum dedup, maximum network cost (the
/// global-dedup end of the spectrum).
#[derive(Debug, Clone, Copy, Default)]
pub struct SingleRing;

#[expect(
    clippy::expect_used,
    reason = "one ring holding 0..n is a valid partition by definition"
)]
impl Partitioner for SingleRing {
    fn partition(&self, inst: &Snod2Instance, _m: usize) -> Partition {
        Partition::new(vec![(0..inst.node_count()).collect()]).expect("single ring is valid")
    }

    fn name(&self) -> &'static str {
        "Single-Ring"
    }
}

/// One ring per edge cloud — minimum network cost, weakest dedup (the
/// Fig. 1 "deduplicate each edge cloud separately" strawman).
#[derive(Debug, Clone)]
pub struct PerSite {
    /// `site_of[i]` is the edge-cloud index of node `i`.
    pub site_of: Vec<usize>,
}

#[expect(
    clippy::expect_used,
    reason = "grouping nodes by site assigns every node exactly once"
)]
impl Partitioner for PerSite {
    fn partition(&self, inst: &Snod2Instance, _m: usize) -> Partition {
        assert_eq!(
            self.site_of.len(),
            inst.node_count(),
            "site map must cover every node"
        );
        let mut by_site: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for (node, &site) in self.site_of.iter().enumerate() {
            by_site.entry(site).or_default().push(node);
        }
        Partition::new(by_site.into_values().collect()).expect("per-site partition is valid")
    }

    fn name(&self) -> &'static str {
        "Per-Site"
    }
}

/// Exhaustive search over all partitions of `0..n` into at most `m`
/// rings. Exponential — intended for `n ≤ 10` in tests measuring the
/// heuristics' approximation ratio.
///
/// # Panics
///
/// Panics when `n > 12` (guards against accidental blow-up) or `m == 0`.
pub fn exhaustive_optimal(inst: &Snod2Instance, m: usize) -> (Partition, f64) {
    exhaustive_impl(inst, m, false)
}

/// Like [`exhaustive_optimal`] but requiring **exactly** `m` non-empty
/// rings — the form the minimum k-cut reduction (Theorem 2) needs, where
/// the cut count is fixed.
///
/// # Panics
///
/// Panics when `n > 12`, `m == 0`, or `m > n`.
pub fn exhaustive_optimal_exact(inst: &Snod2Instance, m: usize) -> (Partition, f64) {
    assert!(m <= inst.node_count(), "cannot use more rings than nodes");
    exhaustive_impl(inst, m, true)
}

#[expect(
    clippy::expect_used,
    reason = "the exhaustive enumeration emits complete assignments only"
)]
fn exhaustive_impl(inst: &Snod2Instance, m: usize, exact: bool) -> (Partition, f64) {
    let n = inst.node_count();
    assert!(n <= 12, "exhaustive search limited to n <= 12");
    assert!(m > 0, "need at least one ring");

    // Enumerate set partitions via restricted growth strings.
    let mut assignment = vec![0usize; n];
    let mut best: Option<(Vec<usize>, f64)> = None;

    fn recurse(
        inst: &Snod2Instance,
        assignment: &mut Vec<usize>,
        idx: usize,
        max_label: usize,
        m: usize,
        exact: bool,
        best: &mut Option<(Vec<usize>, f64)>,
    ) {
        let n = assignment.len();
        if idx == n {
            let rings_used = max_label + 1;
            if rings_used > m || (exact && rings_used != m) {
                return;
            }
            let mut rings: Vec<Vec<usize>> = vec![Vec::new(); rings_used];
            for (node, &label) in assignment.iter().enumerate() {
                rings[label].push(node);
            }
            let cost: f64 = rings.iter().map(|r| inst.ring_cost(r)).sum();
            match best {
                Some((_, b)) if *b <= cost => {}
                _ => *best = Some((assignment.clone(), cost)),
            }
            return;
        }
        for label in 0..=(max_label + 1).min(m - 1) {
            assignment[idx] = label;
            recurse(
                inst,
                assignment,
                idx + 1,
                max_label.max(label),
                m,
                exact,
                best,
            );
        }
    }

    // Node 0 always in ring 0 (canonical form).
    recurse(inst, &mut assignment, 1, 0, m, exact, &mut best);
    // Handle n == 1 (loop never ran).
    let (labels, cost) = best.unwrap_or_else(|| {
        assert!(!exact || m == 1, "no exact {m}-partition of one node");
        let rings = [vec![0usize]];
        let cost = inst.ring_cost(&rings[0]);
        (vec![0], cost)
    });
    let rings_used = labels.iter().max().copied().unwrap_or(0) + 1;
    let mut rings: Vec<Vec<usize>> = vec![Vec::new(); rings_used];
    for (node, &label) in labels.iter().enumerate() {
        rings[label].push(node);
    }
    (
        Partition::new(rings).expect("exhaustive builds a valid partition"),
        cost,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ef_datagen::CharacteristicVector;

    /// 6 nodes in 2 correlation groups of 3, with network costs that make
    /// grouping by correlation moderately expensive for one pair.
    fn instance(alpha: f64) -> Snod2Instance {
        let v_a = CharacteristicVector::new(vec![0.8, 0.1, 0.1]).unwrap();
        let v_b = CharacteristicVector::new(vec![0.1, 0.8, 0.1]).unwrap();
        let probs = vec![v_a.clone(), v_a.clone(), v_a, v_b.clone(), v_b.clone(), v_b];
        // Sites: {0,3}, {1,4}, {2,5} — correlated nodes are *not*
        // co-located, the paper's central tension.
        let site = [0usize, 1, 2, 0, 1, 2];
        let mut costs = vec![vec![0.0; 6]; 6];
        for i in 0..6 {
            for j in 0..6 {
                if i != j {
                    costs[i][j] = if site[i] == site[j] { 1.7 } else { 10.0 };
                }
            }
        }
        Snod2Instance::new(
            vec![2_000, 2_000, 100_000],
            vec![200.0; 6],
            probs,
            costs,
            alpha,
            2,
            10.0,
        )
        .unwrap()
    }

    #[test]
    fn partition_normalization_and_validation() {
        let p = Partition::new(vec![vec![3, 1], vec![2, 0]]).unwrap();
        assert_eq!(p.rings(), &[vec![0, 2], vec![1, 3]]);
        assert!(p.validate(4).is_ok());
        assert_eq!(p.ring_of(3), Some(1));
        assert_eq!(p.ring_of(9), None);
        assert!(matches!(
            p.validate(5).unwrap_err(),
            PartitionError::Missing(4)
        ));
        assert!(matches!(
            p.validate(3).unwrap_err(),
            PartitionError::OutOfRange(3)
        ));
        assert!(matches!(
            Partition::new(vec![vec![0], vec![0]]).unwrap_err(),
            PartitionError::Duplicate(0)
        ));
        assert!(matches!(
            Partition::new(vec![vec![]]).unwrap_err(),
            PartitionError::EmptyRing
        ));
    }

    #[test]
    fn all_partitioners_produce_valid_covers() {
        let inst = instance(0.1);
        let site_of = vec![0usize, 1, 2, 0, 1, 2];
        let partitioners: Vec<Box<dyn Partitioner>> = vec![
            Box::new(SmartGreedy),
            Box::new(EqualSizeGreedy),
            Box::new(MatchingPartitioner::default()),
            Box::new(NetworkOnly),
            Box::new(DedupOnly),
            Box::new(RandomPartitioner { seed: 1 }),
            Box::new(SingleRing),
            Box::new(PerSite { site_of }),
        ];
        for p in &partitioners {
            for m in 1..=6 {
                let part = p.partition(&inst, m);
                part.validate(6)
                    .unwrap_or_else(|e| panic!("{} with m={m}: {e}", p.name()));
                assert!(!p.name().is_empty());
            }
        }
    }

    #[test]
    fn smart_groups_correlated_nodes_when_alpha_small() {
        // With negligible network weight storage dominates: splitting
        // into two rings, the cheapest two-ring partition keeps each
        // correlation group intact.
        let inst = instance(0.0001);
        let part = SmartGreedy.partition(&inst, 2);
        assert_eq!(part.ring_count(), 2);
        for (a, b) in [(0, 1), (1, 2), (3, 4), (4, 5)] {
            assert_eq!(part.ring_of(a), part.ring_of(b), "{:?}", part.rings());
        }
        // Storage matches the by-group split exactly.
        let ideal = inst.storage_cost(&[0, 1, 2]) + inst.storage_cost(&[3, 4, 5]);
        let cost = inst.total_cost(&part);
        assert!(
            (cost.storage - ideal).abs() < 1e-6,
            "storage {} vs by-group ideal {}",
            cost.storage,
            ideal
        );
    }

    #[test]
    fn network_only_drives_network_cost_to_zero() {
        // With gamma = 2, any ring of size <= 2 has zero network cost, so
        // the Network-Only ablation can and should reach V = 0 — while
        // paying a storage cost SMART would not.
        let inst = instance(10.0);
        let part = NetworkOnly.partition(&inst, 3);
        let cost = inst.total_cost(&part);
        assert_eq!(cost.network, 0.0, "{:?}", part.rings());
        let smart_cost = inst.total_cost(&SmartGreedy.partition(&inst, 3));
        assert!(cost.storage >= smart_cost.storage - 1e-9);
    }

    #[test]
    fn smart_beats_or_matches_ablations() {
        // The headline claim of Fig. 6(c)/7: SMART's aggregate cost is at
        // most the ablations'.
        for alpha in [0.001, 0.01, 0.1] {
            let inst = instance(alpha);
            for m in 2..=4 {
                let smart = inst.total_cost(&SmartGreedy.partition(&inst, m)).aggregate;
                let net = inst.total_cost(&NetworkOnly.partition(&inst, m)).aggregate;
                let ded = inst.total_cost(&DedupOnly.partition(&inst, m)).aggregate;
                assert!(
                    smart <= net * 1.0001 && smart <= ded * 1.0001,
                    "alpha={alpha} m={m}: smart={smart} net={net} dedup={ded}"
                );
            }
        }
    }

    #[test]
    fn smart_close_to_exhaustive_optimum() {
        let inst = instance(0.05);
        let (_, opt) = exhaustive_optimal_exact(&inst, 3);
        let smart = inst.total_cost(&SmartGreedy.partition(&inst, 3)).aggregate;
        assert!(smart >= opt - 1e-9, "heuristic beat the optimum?");
        assert!(
            smart <= opt * 1.25,
            "approximation ratio too large: {smart} vs {opt}"
        );
    }

    #[test]
    fn equal_size_respects_cap() {
        let inst = instance(0.1);
        let part = EqualSizeGreedy.partition(&inst, 3);
        for ring in part.rings() {
            assert!(ring.len() <= 2, "ring over cap: {ring:?}");
        }
        assert_eq!(part.node_count(), 6);
    }

    #[test]
    fn matching_reaches_target_count() {
        let inst = instance(0.1);
        for m in 1..=6 {
            let part = MatchingPartitioner::default().partition(&inst, m);
            assert!(part.ring_count() <= m.max(1));
            assert_eq!(part.node_count(), 6);
        }
    }

    #[test]
    fn matching_quality_near_greedy() {
        let inst = instance(0.05);
        let greedy_cost = inst.total_cost(&SmartGreedy.partition(&inst, 2)).aggregate;
        let matching_cost = inst
            .total_cost(&MatchingPartitioner::default().partition(&inst, 2))
            .aggregate;
        assert!(
            matching_cost <= greedy_cost * 1.3,
            "matching {matching_cost} much worse than greedy {greedy_cost}"
        );
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let inst = instance(0.1);
        let a = RandomPartitioner { seed: 7 }.partition(&inst, 3);
        let b = RandomPartitioner { seed: 7 }.partition(&inst, 3);
        let c = RandomPartitioner { seed: 8 }.partition(&inst, 3);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn single_ring_and_per_site_shapes() {
        let inst = instance(0.1);
        assert_eq!(SingleRing.partition(&inst, 5).ring_count(), 1);
        let per_site = PerSite {
            site_of: vec![0, 1, 2, 0, 1, 2],
        }
        .partition(&inst, 0);
        assert_eq!(per_site.ring_count(), 3);
    }

    #[test]
    fn exhaustive_matches_manual_small_case() {
        // 3 nodes: two highly correlated + one independent; zero network
        // cost → optimum groups the correlated pair (m=2).
        let v_a = CharacteristicVector::new(vec![1.0, 0.0]).unwrap();
        let v_b = CharacteristicVector::new(vec![0.0, 1.0]).unwrap();
        let inst = Snod2Instance::new(
            vec![100, 100_000],
            vec![50.0; 3],
            vec![v_a.clone(), v_a, v_b],
            vec![vec![0.0; 3]; 3],
            0.1,
            1,
            10.0,
        )
        .unwrap();
        let (part, _) = exhaustive_optimal_exact(&inst, 2);
        assert_eq!(part.ring_of(0), part.ring_of(1));
        assert_ne!(part.ring_of(0), part.ring_of(2));
        // The relaxed (≤ m) search may merge everything instead.
        let (relaxed, relaxed_cost) = exhaustive_optimal(&inst, 2);
        assert!(relaxed_cost <= inst.total_cost(&part).aggregate + 1e-9);
        relaxed.validate(3).unwrap();
    }

    #[test]
    fn greedy_m_larger_than_n_is_fine() {
        let inst = instance(0.1);
        let part = SmartGreedy.partition(&inst, 50);
        part.validate(6).unwrap();
    }
}
