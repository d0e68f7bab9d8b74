//! The SNOD2 analytics (paper Sec. II and Theorem 1).
//!
//! * Theorem 1: the expected deduplication ratio of a node set under the
//!   chunk-pool model,
//! * Eq. (1): storage cost `U(P)`,
//! * Eq. (2): network cost `V(P)`,
//! * Eq. (3): the SNOD2 objective `Σ U(P_s) + α Σ V(P_s)`.

use crate::partition::Partition;
use ef_datagen::{CharacteristicVector, GenerativeModel};
use std::fmt;

/// Error constructing a [`Snod2Instance`].
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceError {
    /// No nodes.
    NoNodes,
    /// The cost matrix is not square `N×N`.
    BadCostMatrix,
    /// A cost entry is negative or not finite.
    InvalidCost(f64),
    /// A rate is not positive and finite.
    InvalidRate(f64),
    /// A characteristic vector's length does not match the pool count.
    VectorLengthMismatch,
    /// Alpha is negative or not finite.
    InvalidAlpha(f64),
    /// Gamma (replication factor) is zero.
    ZeroGamma,
    /// Horizon is not positive and finite.
    InvalidHorizon(f64),
    /// A pool has zero size.
    EmptyPool(usize),
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::NoNodes => write!(f, "instance needs at least one node"),
            InstanceError::BadCostMatrix => write!(f, "cost matrix must be square N x N"),
            InstanceError::InvalidCost(c) => write!(f, "invalid network cost {c}"),
            InstanceError::InvalidRate(r) => write!(f, "invalid data rate {r}"),
            InstanceError::VectorLengthMismatch => {
                write!(f, "characteristic vector length does not match pool count")
            }
            InstanceError::InvalidAlpha(a) => write!(f, "invalid alpha {a}"),
            InstanceError::ZeroGamma => write!(f, "replication factor gamma must be positive"),
            InstanceError::InvalidHorizon(t) => write!(f, "invalid horizon {t}"),
            InstanceError::EmptyPool(k) => write!(f, "pool {k} has zero size"),
        }
    }
}

impl std::error::Error for InstanceError {}

/// The costs of a partition under the SNOD2 objective.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PartitionCost {
    /// Total storage cost `Σ U(P_s)` in expected unique chunks.
    pub storage: f64,
    /// Total network cost `Σ V(P_s)` in `v_ij`-weighted lookups.
    pub network: f64,
    /// `storage + alpha * network` — Eq. (3).
    pub aggregate: f64,
}

/// A complete SNOD2 problem instance (Eq. 3).
///
/// Nodes are indexed `0..n`; index `i` corresponds to row/column `i` of
/// the cost matrix and entry `i` of the rates/vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct Snod2Instance {
    pool_sizes: Vec<u64>,
    rates: Vec<f64>,
    probs: Vec<CharacteristicVector>,
    costs: Vec<Vec<f64>>,
    alpha: f64,
    gamma: usize,
    horizon: f64,
}

impl Snod2Instance {
    /// Creates an instance from raw parts.
    ///
    /// * `pool_sizes` — `s_k` for each pool,
    /// * `rates` — `R_i` chunks/second per node,
    /// * `probs` — characteristic vector per node,
    /// * `costs` — `v_ij` (e.g. RTT ms; diagonal ignored),
    /// * `alpha` — network-to-storage trade-off factor,
    /// * `gamma` — chunk-hash replication factor,
    /// * `horizon` — the window `T` in seconds.
    ///
    /// # Errors
    ///
    /// Returns an [`InstanceError`] when any component is inconsistent.
    pub fn new(
        pool_sizes: Vec<u64>,
        rates: Vec<f64>,
        probs: Vec<CharacteristicVector>,
        costs: Vec<Vec<f64>>,
        alpha: f64,
        gamma: usize,
        horizon: f64,
    ) -> Result<Self, InstanceError> {
        let n = rates.len();
        if n == 0 {
            return Err(InstanceError::NoNodes);
        }
        if probs.len() != n || costs.len() != n || costs.iter().any(|row| row.len() != n) {
            return Err(InstanceError::BadCostMatrix);
        }
        if let Some(k) = pool_sizes.iter().position(|&s| s == 0) {
            return Err(InstanceError::EmptyPool(k));
        }
        for &r in &rates {
            if !r.is_finite() || r <= 0.0 {
                return Err(InstanceError::InvalidRate(r));
            }
        }
        for p in &probs {
            if p.pool_count() != pool_sizes.len() {
                return Err(InstanceError::VectorLengthMismatch);
            }
        }
        for row in &costs {
            for &c in row {
                if !c.is_finite() || c < 0.0 {
                    return Err(InstanceError::InvalidCost(c));
                }
            }
        }
        if !alpha.is_finite() || alpha < 0.0 {
            return Err(InstanceError::InvalidAlpha(alpha));
        }
        if gamma == 0 {
            return Err(InstanceError::ZeroGamma);
        }
        if !horizon.is_finite() || horizon <= 0.0 {
            return Err(InstanceError::InvalidHorizon(horizon));
        }
        Ok(Snod2Instance {
            pool_sizes,
            rates,
            probs,
            costs,
            alpha,
            gamma,
            horizon,
        })
    }

    /// Builds an instance from a datagen [`GenerativeModel`] plus a
    /// measured cost matrix.
    ///
    /// # Errors
    ///
    /// See [`Snod2Instance::new`].
    pub fn from_parts(
        model: &GenerativeModel,
        costs: Vec<Vec<f64>>,
        alpha: f64,
        gamma: usize,
        horizon: f64,
    ) -> Result<Self, InstanceError> {
        Snod2Instance::new(
            model.pool_sizes().to_vec(),
            model.sources().iter().map(|s| s.rate).collect(),
            model.sources().iter().map(|s| s.probs.clone()).collect(),
            costs,
            alpha,
            gamma,
            horizon,
        )
    }

    /// Number of nodes `N`.
    pub fn node_count(&self) -> usize {
        self.rates.len()
    }

    /// Number of pools `K`.
    pub fn pool_count(&self) -> usize {
        self.pool_sizes.len()
    }

    /// Pool sizes `s_k`.
    pub fn pool_sizes(&self) -> &[u64] {
        &self.pool_sizes
    }

    /// Node data rates `R_i` (chunks/second).
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Characteristic vectors.
    pub fn probs(&self) -> &[CharacteristicVector] {
        &self.probs
    }

    /// Network cost `v_ij`.
    pub fn cost(&self, i: usize, j: usize) -> f64 {
        self.costs[i][j]
    }

    /// The trade-off factor α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Returns a copy with a different α (the Fig. 7(b) sweep).
    ///
    /// # Panics
    ///
    /// Panics for a negative or non-finite α.
    pub fn with_alpha(&self, alpha: f64) -> Self {
        assert!(alpha.is_finite() && alpha >= 0.0, "invalid alpha {alpha}");
        let mut inst = self.clone();
        inst.alpha = alpha;
        inst
    }

    /// Replication factor γ.
    pub fn gamma(&self) -> usize {
        self.gamma
    }

    /// The window `T` in seconds.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// `g_ik`: the probability that a given chunk of pool `k` is never
    /// selected by node `i` during the horizon (Eq. 8):
    /// `(1 - p_ik / s_k)^{R_i T}`, computed in log space for stability
    /// with large exponents.
    pub fn g(&self, i: usize, k: usize) -> f64 {
        let p = self.probs[i].prob(k);
        if p == 0.0 {
            return 1.0;
        }
        let s = self.pool_sizes[k] as f64;
        let frac = (p / s).min(1.0);
        if frac >= 1.0 {
            return 0.0;
        }
        let draws = self.rates[i] * self.horizon;
        (draws * (-frac).ln_1p()).exp()
    }

    /// The expected number of distinct chunks a node set draws during the
    /// horizon: `Σ_k s_k (1 - Π_{i∈set} g_ik)` — the denominator of
    /// Theorem 1.
    ///
    /// Returns 0 for an empty set.
    pub fn expected_unique_chunks(&self, set: &[usize]) -> f64 {
        if set.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for k in 0..self.pool_sizes.len() {
            let mut survive = 1.0;
            for &i in set {
                survive *= self.g(i, k);
            }
            total += self.pool_sizes[k] as f64 * (1.0 - survive);
        }
        total
    }

    /// Total chunks generated by a node set during the horizon:
    /// `Σ_{i∈set} R_i T`.
    pub fn total_chunks(&self, set: &[usize]) -> f64 {
        set.iter().map(|&i| self.rates[i] * self.horizon).sum()
    }

    /// **Theorem 1**: the expected dedup ratio `Ω(P)` of a node set.
    ///
    /// Returns 1.0 for an empty set.
    pub fn dedup_ratio(&self, set: &[usize]) -> f64 {
        if set.is_empty() {
            return 1.0;
        }
        let unique = self.expected_unique_chunks(set);
        if unique == 0.0 {
            return 1.0;
        }
        self.total_chunks(set) / unique
    }

    /// **Eq. (1)** storage cost `U(P) = (1/Ω(P)) Σ_{i∈P} R_i T`, i.e. the
    /// expected unique chunks stored for ring `P`.
    pub fn storage_cost(&self, set: &[usize]) -> f64 {
        self.expected_unique_chunks(set)
    }

    /// **Eq. (2)** network cost of a ring:
    /// `Σ_{i∈P} Σ_{j≠i∈P} v_ij R_i T (1-γ/|P|) / (|P|-1)`.
    ///
    /// Each node's `R_i T` lookups go non-local with probability
    /// `1-γ/|P|` (clamped at 0 when `γ ≥ |P|`) and land on each peer with
    /// equal probability.
    pub fn network_cost(&self, set: &[usize]) -> f64 {
        let p = set.len();
        if p <= 1 {
            return 0.0;
        }
        let nonlocal = (1.0 - self.gamma as f64 / p as f64).max(0.0);
        if nonlocal == 0.0 {
            return 0.0;
        }
        let spread = 1.0 / (p as f64 - 1.0);
        let mut total = 0.0;
        for &i in set {
            let lookups = self.rates[i] * self.horizon;
            for &j in set {
                if i != j {
                    total += self.costs[i][j] * lookups * nonlocal * spread;
                }
            }
        }
        total
    }

    /// The ring's aggregate cost `U(P) + α V(P)`.
    pub fn ring_cost(&self, set: &[usize]) -> f64 {
        self.storage_cost(set) + self.alpha * self.network_cost(set)
    }

    /// **Eq. (3)**: the full objective over a partition.
    ///
    /// # Panics
    ///
    /// Panics when `partition` is not a valid disjoint cover of the
    /// instance's nodes.
    #[expect(
        clippy::expect_used,
        reason = "documented panic contract; costing an invalid partition would be meaningless"
    )]
    pub fn total_cost(&self, partition: &Partition) -> PartitionCost {
        partition
            .validate(self.node_count())
            .expect("valid partition");
        let mut storage = 0.0;
        let mut network = 0.0;
        for ring in partition.rings() {
            storage += self.storage_cost(ring);
            network += self.network_cost(ring);
        }
        PartitionCost {
            storage,
            network,
            aggregate: storage + self.alpha * network,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ef_datagen::{GenerativeModel, SourceSpec};
    use ef_simcore::DetRng;

    fn small_instance() -> Snod2Instance {
        // 4 nodes, 2 pools. Nodes 0,1 favour pool 0; nodes 2,3 pool 1.
        let v_a = CharacteristicVector::new(vec![0.9, 0.1]).unwrap();
        let v_b = CharacteristicVector::new(vec![0.1, 0.9]).unwrap();
        let costs = vec![
            vec![0.0, 1.0, 10.0, 10.0],
            vec![1.0, 0.0, 10.0, 10.0],
            vec![10.0, 10.0, 0.0, 1.0],
            vec![10.0, 10.0, 1.0, 0.0],
        ];
        Snod2Instance::new(
            vec![1_000, 1_000],
            vec![100.0; 4],
            vec![v_a.clone(), v_a, v_b.clone(), v_b],
            costs,
            0.1,
            2,
            10.0,
        )
        .unwrap()
    }

    #[test]
    fn validation_catches_errors() {
        let v = CharacteristicVector::uniform(2);
        assert_eq!(
            Snod2Instance::new(vec![1], vec![], vec![], vec![], 0.1, 1, 1.0).unwrap_err(),
            InstanceError::NoNodes
        );
        assert_eq!(
            Snod2Instance::new(
                vec![1, 1],
                vec![1.0],
                vec![v.clone()],
                vec![vec![0.0, 1.0]],
                0.1,
                1,
                1.0
            )
            .unwrap_err(),
            InstanceError::BadCostMatrix
        );
        assert!(matches!(
            Snod2Instance::new(
                vec![0, 1],
                vec![1.0],
                vec![v.clone()],
                vec![vec![0.0]],
                0.1,
                1,
                1.0
            )
            .unwrap_err(),
            InstanceError::EmptyPool(0)
        ));
        assert!(matches!(
            Snod2Instance::new(
                vec![1, 1],
                vec![-1.0],
                vec![v.clone()],
                vec![vec![0.0]],
                0.1,
                1,
                1.0
            )
            .unwrap_err(),
            InstanceError::InvalidRate(_)
        ));
        assert_eq!(
            Snod2Instance::new(
                vec![1, 1],
                vec![1.0],
                vec![v.clone()],
                vec![vec![0.0]],
                0.1,
                0,
                1.0
            )
            .unwrap_err(),
            InstanceError::ZeroGamma
        );
        assert!(matches!(
            Snod2Instance::new(
                vec![1, 1],
                vec![1.0],
                vec![v],
                vec![vec![0.0]],
                f64::NAN,
                1,
                1.0
            )
            .unwrap_err(),
            InstanceError::InvalidAlpha(_)
        ));
    }

    #[test]
    fn g_matches_direct_formula_for_small_exponent() {
        let inst = small_instance();
        // g_00 = (1 - 0.9/1000)^(100*10)
        let direct = (1.0f64 - 0.9 / 1000.0).powi(1000);
        assert!((inst.g(0, 0) - direct).abs() < 1e-12);
        // Zero-probability pool: g = 1.
        let v = CharacteristicVector::new(vec![1.0, 0.0]).unwrap();
        let inst2 = Snod2Instance::new(
            vec![10, 10],
            vec![1.0],
            vec![v],
            vec![vec![0.0]],
            0.1,
            1,
            1.0,
        )
        .unwrap();
        assert_eq!(inst2.g(0, 1), 1.0);
    }

    #[test]
    fn theorem1_matches_monte_carlo() {
        // Validate the closed form against simulation of the generative
        // process itself.
        let inst = small_instance();
        let model = GenerativeModel::new(
            vec![1_000, 1_000],
            64,
            vec![
                SourceSpec::new(100.0, inst.probs()[0].clone()),
                SourceSpec::new(100.0, inst.probs()[1].clone()),
            ],
        )
        .unwrap();
        let set = [0usize, 1];
        let analytic = inst.dedup_ratio(&set);

        let mut ratios = Vec::new();
        for trial in 0..40 {
            let mut rng = DetRng::new(1000 + trial);
            // R_i * T = 1000 chunks each.
            let a = model.draw_refs(0, 1000, &mut rng);
            let b = model.draw_refs(1, 1000, &mut rng);
            let distinct = GenerativeModel::distinct_refs(&[a, b]);
            ratios.push(2000.0 / distinct as f64);
        }
        let mc = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(
            (analytic - mc).abs() / mc < 0.02,
            "analytic {analytic} vs monte-carlo {mc}"
        );
    }

    #[test]
    fn correlated_sets_dedup_better() {
        let inst = small_instance();
        let correlated = inst.dedup_ratio(&[0, 1]);
        let uncorrelated = inst.dedup_ratio(&[0, 2]);
        assert!(
            correlated > uncorrelated,
            "correlated {correlated} <= uncorrelated {uncorrelated}"
        );
    }

    #[test]
    fn dedup_ratio_at_least_one_and_monotone_in_set() {
        let inst = small_instance();
        for set in [&[0][..], &[1], &[0, 1], &[0, 1, 2], &[0, 1, 2, 3]] {
            assert!(inst.dedup_ratio(set) >= 1.0 - 1e-12);
        }
        // Joint storage never exceeds the sum of individual storage.
        let joint = inst.storage_cost(&[0, 1, 2, 3]);
        let separate: f64 = (0..4).map(|i| inst.storage_cost(&[i])).sum();
        assert!(joint <= separate + 1e-9);
    }

    #[test]
    fn network_cost_zero_for_singletons_and_full_replication() {
        let inst = small_instance();
        assert_eq!(inst.network_cost(&[0]), 0.0);
        // gamma=2 and |P|=2: every hash is on both nodes → all local.
        assert_eq!(inst.network_cost(&[0, 1]), 0.0);
        // |P|=4 > gamma: non-zero.
        assert!(inst.network_cost(&[0, 1, 2, 3]) > 0.0);
    }

    #[test]
    fn network_cost_formula_hand_check() {
        let inst = small_instance();
        // set {0,1,2}: nonlocal = 1 - 2/3 = 1/3, spread = 1/2,
        // lookups per node = 1000.
        // v sums: node0→(1,10)=11, node1→(1,10)=11, node2→(10,10)=20.
        let expect = (11.0 + 11.0 + 20.0) * 1000.0 / 3.0 / 2.0;
        let got = inst.network_cost(&[0, 1, 2]);
        assert!((got - expect).abs() < 1e-6, "got {got} expect {expect}");
    }

    #[test]
    fn total_cost_composes_rings() {
        let inst = small_instance();
        let p = Partition::new(vec![vec![0, 1], vec![2, 3]]).unwrap();
        let cost = inst.total_cost(&p);
        let manual_storage = inst.storage_cost(&[0, 1]) + inst.storage_cost(&[2, 3]);
        assert!((cost.storage - manual_storage).abs() < 1e-9);
        assert!((cost.aggregate - (cost.storage + 0.1 * cost.network)).abs() < 1e-9);
    }

    #[test]
    fn good_partition_beats_bad_partition() {
        // The Fig. 1 intuition: grouping correlated nodes wins when
        // network costs are comparable.
        let inst = small_instance();
        let good = Partition::new(vec![vec![0, 1], vec![2, 3]]).unwrap();
        let bad = Partition::new(vec![vec![0, 2], vec![1, 3]]).unwrap();
        assert!(inst.total_cost(&good).aggregate < inst.total_cost(&bad).aggregate);
    }

    #[test]
    fn with_alpha_changes_tradeoff() {
        let inst = small_instance();
        let p = Partition::new(vec![vec![0, 1, 2, 3]]).unwrap();
        let lo = inst.with_alpha(0.0).total_cost(&p);
        let hi = inst.with_alpha(10.0).total_cost(&p);
        assert_eq!(lo.aggregate, lo.storage);
        assert!(hi.aggregate > lo.aggregate);
    }

    #[test]
    fn large_exponent_is_stable() {
        // R_i T large enough that naive powi would under/overflow.
        let v = CharacteristicVector::new(vec![1.0]).unwrap();
        let inst = Snod2Instance::new(vec![100], vec![1e9], vec![v], vec![vec![0.0]], 0.1, 1, 1e3)
            .unwrap();
        let g = inst.g(0, 0);
        assert!((0.0..1e-300).contains(&g) || g == 0.0);
        // With that many draws every chunk of the pool is seen.
        assert!((inst.expected_unique_chunks(&[0]) - 100.0).abs() < 1e-9);
    }
}
