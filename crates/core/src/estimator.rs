//! Algorithm 1: estimating source characteristic vectors.
//!
//! Given a handful of files sampled from each source at a point in time,
//! the estimator
//!
//! 1. measures **ground truth**: the real dedup ratio of every probe
//!    subset of the samples (the paper uses duperemove; we use the
//!    `ef-chunking` measurement),
//! 2. **fits** the chunk-pool model — pool sizes `s_k` and per-source
//!    characteristic vectors `p_ik` — by minimizing the mean squared error
//!    between the analytical dedup ratio (Theorem 1) and the measured
//!    ones,
//! 3. supports **warm starts**: at time slot `t` the search starts from
//!    the slot `t−1` fit, which the paper reports makes re-estimation
//!    converge "extremely quickly … with even smaller errors" (Fig. 3).
//!
//! The paper's fit is an exhaustive grid search (pool sizes up to 200 000
//! in steps of 100, probabilities in steps of 0.01). We keep the same
//! search space but replace full enumeration with seeded multi-start
//! coordinate descent, which reaches the paper's < 4 % error bound in a
//! fraction of the paper's ~4 minutes.

use crate::model::Snod2Instance;
use ef_chunking::{joint_dedup_ratio, Chunker};
use ef_datagen::CharacteristicVector;
use ef_simcore::stats::{mean_relative_error, mse};
use ef_simcore::DetRng;

/// Measured dedup ratios of probe subsets of sampled files — the ground
/// truth Algorithm 1 fits against.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruth {
    /// Probe subsets (indices into the sampled sources).
    pub subsets: Vec<Vec<usize>>,
    /// Measured dedup ratio per subset.
    pub measured: Vec<f64>,
    /// Number of chunks in each source's sample (the `R_i T` of the fit).
    pub sample_chunks: Vec<f64>,
}

impl GroundTruth {
    /// Measures ground truth for one file sample per source: all
    /// singletons, all pairs, and the full set.
    ///
    /// # Panics
    ///
    /// Panics when `files` is empty or any file is empty.
    pub fn measure<C: Chunker>(chunker: &C, files: &[Vec<u8>]) -> GroundTruth {
        assert!(!files.is_empty(), "need at least one sampled file");
        assert!(
            files.iter().all(|f| !f.is_empty()),
            "sampled files must be non-empty"
        );
        let n = files.len();
        let mut subsets: Vec<Vec<usize>> = Vec::new();
        for i in 0..n {
            subsets.push(vec![i]);
        }
        for i in 0..n {
            for j in (i + 1)..n {
                subsets.push(vec![i, j]);
            }
        }
        if n > 2 {
            subsets.push((0..n).collect());
        }
        let measured = subsets
            .iter()
            .map(|set| {
                let views: Vec<&[u8]> = set.iter().map(|&i| files[i].as_slice()).collect();
                joint_dedup_ratio(chunker, &views)
            })
            .collect();
        let sample_chunks = files
            .iter()
            .map(|f| (f.len() as f64 / chunker.target_chunk_size() as f64).ceil())
            .collect();
        GroundTruth {
            subsets,
            measured,
            sample_chunks,
        }
    }
}

/// The fitted chunk-pool model returned by the estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedModel {
    /// Fitted pool sizes `s_k`.
    pub pool_sizes: Vec<u64>,
    /// Fitted characteristic vector per source.
    pub probs: Vec<CharacteristicVector>,
    /// MSE between analytical and measured dedup ratios.
    pub mse: f64,
    /// Mean relative error (the paper's "< 4 %" metric).
    pub mean_rel_error: f64,
    /// Coordinate-descent iterations used.
    pub iterations: usize,
}

impl FittedModel {
    /// Builds a [`Snod2Instance`] from this fit plus runtime parameters.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::model::InstanceError`] for inconsistent parts.
    pub fn to_instance(
        &self,
        rates: Vec<f64>,
        costs: Vec<Vec<f64>>,
        alpha: f64,
        gamma: usize,
        horizon: f64,
    ) -> Result<Snod2Instance, crate::model::InstanceError> {
        Snod2Instance::new(
            self.pool_sizes.clone(),
            rates,
            self.probs.clone(),
            costs,
            alpha,
            gamma,
            horizon,
        )
    }
}

/// Configuration for the Algorithm 1 search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorConfig {
    /// Number of chunk pools `K` to fit (the paper's validation uses 3).
    pub pools: usize,
    /// Upper bound on pool sizes (the paper searches to 200 000).
    pub max_pool_size: u64,
    /// Stop when the MSE drops below this threshold.
    pub mse_threshold: f64,
    /// Maximum coordinate-descent sweeps per start.
    pub max_iterations: usize,
    /// Number of random restarts (cold start only).
    pub restarts: usize,
    /// RNG seed for restart initialization.
    pub seed: u64,
}

impl Default for EstimatorConfig {
    /// `K = 3` pools of at most 200 000 chunks — the paper's Fig. 2
    /// search space (its reported MSE stays below 0.3; we stop at 0.02).
    fn default() -> Self {
        EstimatorConfig {
            pools: 3,
            max_pool_size: 200_000,
            mse_threshold: 0.001,
            max_iterations: 120,
            restarts: 8,
            seed: 0xEFDE,
        }
    }
}

/// The Algorithm 1 estimator.
#[derive(Debug, Clone, Default)]
pub struct Estimator {
    config: EstimatorConfig,
}

/// Internal search state: log-space pool sizes + per-source weight
/// vectors (normalized to probabilities on evaluation).
#[derive(Debug, Clone)]
struct Params {
    log_sizes: Vec<f64>,
    weights: Vec<Vec<f64>>,
}

impl Params {
    fn pool_sizes(&self, max: u64) -> Vec<u64> {
        self.log_sizes
            .iter()
            .map(|l| (l.exp().round() as u64).clamp(1, max))
            .collect()
    }

    #[expect(
        clippy::expect_used,
        reason = "descend() projects weights onto the strictly positive simplex"
    )]
    fn probs(&self) -> Vec<CharacteristicVector> {
        self.weights
            .iter()
            .map(|w| {
                CharacteristicVector::from_weights(w.clone())
                    .expect("weights kept strictly positive")
            })
            .collect()
    }
}

impl Estimator {
    /// Creates an estimator with the given configuration.
    pub fn new(config: EstimatorConfig) -> Self {
        Estimator { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &EstimatorConfig {
        &self.config
    }

    /// Fits the model to ground truth from a cold start (multi-start
    /// coordinate descent).
    #[expect(
        clippy::expect_used,
        reason = "the match before each expect always sets `best`, and EstimatorConfig validation guarantees restarts >= 1"
    )]
    pub fn fit(&self, truth: &GroundTruth) -> FittedModel {
        let n = truth.sample_chunks.len();
        let k = self.config.pools;
        let rng = DetRng::new(self.config.seed).substream("estimator");
        let mut best: Option<(Params, f64, usize)> = None;

        for restart in 0..self.config.restarts.max(1) {
            let mut sub = rng.substream_idx("restart", restart as u64);
            let avg_chunks =
                truth.sample_chunks.iter().sum::<f64>() / truth.sample_chunks.len() as f64;
            let init = Params {
                // Seed pool sizes around the sample scale: a shared pool
                // near the per-source chunk count, plus spread.
                log_sizes: (0..k)
                    .map(|i| {
                        let scale = avg_chunks.max(4.0) * (1.0 + 3.0 * i as f64);
                        (scale * sub.range_f64(0.5, 2.0)).ln()
                    })
                    .collect(),
                weights: (0..n)
                    .map(|_| (0..k).map(|_| sub.range_f64(0.05, 1.0)).collect())
                    .collect(),
            };
            let (params, err, iters) = self.descend(truth, init);
            match &best {
                Some((_, b, _)) if *b <= err => {}
                _ => best = Some((params, err, iters)),
            }
            if best.as_ref().expect("just set").1 < self.config.mse_threshold {
                break;
            }
        }

        let (params, final_mse, iterations) = best.expect("at least one restart ran");
        self.finish(truth, params, final_mse, iterations)
    }

    /// Algorithm 1's outer loop over the number of chunk pools: fits
    /// with each `K` in `k_range` and returns the best model by MSE,
    /// preferring smaller `K` on near-ties (an Occam margin of 5 %
    /// guards against overfitting with extra pools).
    ///
    /// The search's acceptance bound is deliberately an order of
    /// magnitude tighter than the per-fit [`EstimatorConfig::mse_threshold`]:
    /// with `n` sources there are only `2^n - 1` probe subsets, so a
    /// small-`K` model can interpolate the measurements without having
    /// resolved the true pool structure. Stopping therefore requires
    /// both the tightened bound and at least two candidate pool counts
    /// tried, and while the incumbent is still above the bound any
    /// strict MSE improvement advances the search — the Occam margin
    /// only arbitrates between fits that are already adequate.
    ///
    /// # Panics
    ///
    /// Panics when `k_range` is empty.
    #[expect(
        clippy::expect_used,
        reason = "the match before each expect always sets `best`, and the caller passes a non-empty K range"
    )]
    pub fn fit_search_k(
        &self,
        truth: &GroundTruth,
        k_range: std::ops::RangeInclusive<usize>,
    ) -> FittedModel {
        assert!(!k_range.is_empty(), "empty K range");
        let accept = self.config.mse_threshold * 0.1;
        let mut best: Option<FittedModel> = None;
        let mut tried = 0usize;
        for k in k_range {
            let est = Estimator::new(EstimatorConfig {
                pools: k,
                ..self.config
            });
            let mut fitted = est.fit(truth);
            // Nested-model warm start: a (K+1)-pool model strictly
            // contains the incumbent (pad with a near-zero-weight pool),
            // so descending from the incumbent's parameters guards the
            // search against cold starts that cannot match a
            // well-converged smaller model.
            if let Some(prev) = &best {
                if prev.pool_sizes.len() < k {
                    let warm = est.fit_warm_padded(truth, prev, k);
                    if warm.mse < fitted.mse {
                        fitted = warm;
                    }
                }
            }
            tried += 1;
            best = Some(match best {
                None => fitted,
                // Incumbent not yet adequate: any strict improvement wins.
                Some(prev) if prev.mse >= accept && fitted.mse < prev.mse => fitted,
                // Both contenders adequate: extra pools must pay ≥ 5 %.
                Some(prev) if fitted.mse < prev.mse * 0.95 => fitted,
                Some(prev) => prev,
            });
            let incumbent = best.as_ref().expect("just set");
            if tried >= 2 && incumbent.mse < accept {
                break;
            }
        }
        best.expect("at least one K tried")
    }

    /// Warm start from `previous`, padded out to `pools` pools with
    /// near-zero-weight entries so the init predicts (almost) exactly
    /// what `previous` predicts. Used by [`Self::fit_search_k`] to make
    /// the best MSE non-increasing in `K`.
    fn fit_warm_padded(
        &self,
        truth: &GroundTruth,
        previous: &FittedModel,
        pools: usize,
    ) -> FittedModel {
        let max_log = (self.config.max_pool_size as f64).ln();
        let mut log_sizes: Vec<f64> = previous
            .pool_sizes
            .iter()
            .map(|&s| (s as f64).ln())
            .collect();
        let mut weights: Vec<Vec<f64>> = previous
            .probs
            .iter()
            .map(|p| p.as_slice().iter().map(|&x| x.max(1e-4)).collect())
            .collect();
        while log_sizes.len() < pools {
            let largest = log_sizes.iter().cloned().fold(0.0f64, f64::max);
            log_sizes.push((largest + std::f64::consts::LN_2).min(max_log));
            for w in &mut weights {
                w.push(1e-4);
            }
        }
        let (params, final_mse, iterations) = self.descend(truth, Params { log_sizes, weights });
        self.finish(truth, params, final_mse, iterations)
    }

    /// Fits starting from a previous slot's model — the warm-started
    /// re-estimation of Fig. 3.
    pub fn fit_warm(&self, truth: &GroundTruth, previous: &FittedModel) -> FittedModel {
        let init = Params {
            log_sizes: previous
                .pool_sizes
                .iter()
                .map(|&s| (s as f64).ln())
                .collect(),
            weights: previous
                .probs
                .iter()
                .map(|p| p.as_slice().iter().map(|&x| x.max(1e-4)).collect())
                .collect(),
        };
        let (params, final_mse, iterations) = self.descend(truth, init);
        self.finish(truth, params, final_mse, iterations)
    }

    fn finish(
        &self,
        truth: &GroundTruth,
        params: Params,
        final_mse: f64,
        iterations: usize,
    ) -> FittedModel {
        let pool_sizes = params.pool_sizes(self.config.max_pool_size);
        let probs = params.probs();
        let predicted = predict_all(truth, &pool_sizes, &probs);
        FittedModel {
            mean_rel_error: mean_relative_error(&truth.measured, &predicted),
            mse: final_mse,
            pool_sizes,
            probs,
            iterations,
        }
    }

    /// Coordinate descent with multiplicative pattern steps.
    fn descend(&self, truth: &GroundTruth, mut params: Params) -> (Params, f64, usize) {
        let mut err = self.objective(truth, &params);
        let mut step = 0.5f64;
        let mut iterations = 0;
        for _ in 0..self.config.max_iterations {
            iterations += 1;
            let mut improved = false;
            // Pool sizes (log space).
            for k in 0..params.log_sizes.len() {
                for dir in [1.0, -1.0] {
                    let mut cand = params.clone();
                    cand.log_sizes[k] += dir * step;
                    cand.log_sizes[k] =
                        cand.log_sizes[k].clamp(0.0, (self.config.max_pool_size as f64).ln());
                    let e = self.objective(truth, &cand);
                    if e < err {
                        params = cand;
                        err = e;
                        improved = true;
                    }
                }
            }
            // Source weights (kept positive; probabilities renormalize).
            for i in 0..params.weights.len() {
                for k in 0..params.weights[i].len() {
                    for factor in [1.0 + step, 1.0 / (1.0 + step)] {
                        let mut cand = params.clone();
                        cand.weights[i][k] = (cand.weights[i][k] * factor).clamp(1e-4, 1e4);
                        let e = self.objective(truth, &cand);
                        if e < err {
                            params = cand;
                            err = e;
                            improved = true;
                        }
                    }
                }
            }
            if err < self.config.mse_threshold {
                break;
            }
            if !improved {
                step *= 0.5;
                if step < 1e-3 {
                    break;
                }
            }
        }
        (params, err, iterations)
    }

    fn objective(&self, truth: &GroundTruth, params: &Params) -> f64 {
        let pool_sizes = params.pool_sizes(self.config.max_pool_size);
        let probs = params.probs();
        let predicted = predict_all(truth, &pool_sizes, &probs);
        mse(&truth.measured, &predicted)
    }
}

/// Theorem 1 prediction of the dedup ratio of `subset` under candidate
/// parameters, with `draws[i]` chunks per source.
pub fn predict_ratio(
    subset: &[usize],
    pool_sizes: &[u64],
    probs: &[CharacteristicVector],
    draws: &[f64],
) -> f64 {
    let total: f64 = subset.iter().map(|&i| draws[i]).sum();
    let mut unique = 0.0;
    for (k, &s) in pool_sizes.iter().enumerate() {
        let s = s as f64;
        let mut survive = 1.0;
        for &i in subset {
            let p = probs[i].prob(k);
            if p > 0.0 {
                let frac = (p / s).min(1.0 - 1e-12);
                survive *= (draws[i] * (-frac).ln_1p()).exp();
            }
        }
        unique += s * (1.0 - survive);
    }
    if unique <= 0.0 {
        1.0
    } else {
        total / unique
    }
}

fn predict_all(
    truth: &GroundTruth,
    pool_sizes: &[u64],
    probs: &[CharacteristicVector],
) -> Vec<f64> {
    truth
        .subsets
        .iter()
        .map(|set| predict_ratio(set, pool_sizes, probs, &truth.sample_chunks))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ef_chunking::FixedChunker;
    use ef_datagen::{GenerativeModel, SourceSpec};

    /// Build ground truth from bytes generated by a *known* model, so the
    /// estimator's recovered parameters can be scored.
    fn truth_from_model(model: &GenerativeModel, chunks_per_sample: usize) -> GroundTruth {
        let mut rng = DetRng::new(99).substream("estimator-test");
        let files: Vec<Vec<u8>> = (0..model.source_count())
            .map(|i| model.generate_stream(i, chunks_per_sample, &mut rng))
            .collect();
        let chunker = FixedChunker::new(model.chunk_size()).unwrap();
        GroundTruth::measure(&chunker, &files)
    }

    fn known_model() -> GenerativeModel {
        let v1 = CharacteristicVector::new(vec![0.6, 0.2, 0.2]).unwrap();
        let v2 = CharacteristicVector::new(vec![0.5, 0.3, 0.2]).unwrap();
        GenerativeModel::new(
            vec![300, 800, 50_000],
            256,
            vec![SourceSpec::new(100.0, v1), SourceSpec::new(100.0, v2)],
        )
        .unwrap()
    }

    #[test]
    fn ground_truth_probe_structure() {
        let chunker = FixedChunker::new(64).unwrap();
        let files = vec![vec![1u8; 640], vec![2u8; 640], vec![3u8; 640]];
        let gt = GroundTruth::measure(&chunker, &files);
        // 3 singletons + 3 pairs + full set.
        assert_eq!(gt.subsets.len(), 7);
        assert_eq!(gt.measured.len(), 7);
        assert_eq!(gt.sample_chunks, vec![10.0, 10.0, 10.0]);
        // Constant-filled files dedup to a single chunk: ratio = 10.
        assert!((gt.measured[0] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn predict_ratio_matches_instance_math() {
        let model = known_model();
        let inst = Snod2Instance::from_parts(
            &model,
            vec![vec![0.0; 2]; 2],
            0.1,
            1,
            10.0, // horizon 10 at rate 100 = 1000 draws
        )
        .unwrap();
        let draws = vec![1000.0, 1000.0];
        let probs: Vec<CharacteristicVector> =
            model.sources().iter().map(|s| s.probs.clone()).collect();
        for subset in [&[0usize][..], &[1], &[0, 1]] {
            let a = predict_ratio(subset, model.pool_sizes(), &probs, &draws);
            let b = inst.dedup_ratio(subset);
            assert!((a - b).abs() < 1e-9, "{subset:?}: {a} vs {b}");
        }
    }

    #[test]
    fn cold_fit_reaches_paper_error_bound() {
        // The paper's Fig. 2 claim: average estimation error < 4 %.
        let model = known_model();
        let gt = truth_from_model(&model, 600);
        let fitted = Estimator::default().fit(&gt);
        assert!(
            fitted.mean_rel_error < 0.04,
            "error {} above the paper's 4% bound (mse {})",
            fitted.mean_rel_error,
            fitted.mse
        );
    }

    #[test]
    fn warm_start_is_no_worse_and_faster() {
        // Fig. 3: successive slots start from the previous fit and
        // converge quickly with comparable or better error.
        let model = known_model();
        let gt1 = truth_from_model(&model, 600);
        let est = Estimator::default();
        let first = est.fit(&gt1);

        // Slightly different sample from the same sources (a later slot).
        let mut rng = DetRng::new(123).substream("slot2");
        let files: Vec<Vec<u8>> = (0..model.source_count())
            .map(|i| model.generate_stream(i, 500, &mut rng))
            .collect();
        let chunker = FixedChunker::new(model.chunk_size()).unwrap();
        let gt2 = GroundTruth::measure(&chunker, &files);

        let warm = est.fit_warm(&gt2, &first);
        assert!(
            warm.mean_rel_error < 0.05,
            "warm error {}",
            warm.mean_rel_error
        );
        // Warm start runs a single descent; its iteration count must not
        // exceed one cold-start descent budget.
        assert!(warm.iterations <= est.config().max_iterations);
    }

    #[test]
    fn fitted_model_converts_to_instance() {
        let model = known_model();
        let gt = truth_from_model(&model, 300);
        let fitted = Estimator::default().fit(&gt);
        let inst = fitted
            .to_instance(vec![100.0, 100.0], vec![vec![0.0; 2]; 2], 0.1, 2, 10.0)
            .unwrap();
        assert_eq!(inst.node_count(), 2);
        assert_eq!(inst.pool_count(), fitted.pool_sizes.len());
    }

    #[test]
    fn fit_is_deterministic() {
        let model = known_model();
        let gt = truth_from_model(&model, 300);
        let a = Estimator::default().fit(&gt);
        let b = Estimator::default().fit(&gt);
        assert_eq!(a.pool_sizes, b.pool_sizes);
        assert_eq!(a.mse, b.mse);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn measure_rejects_empty_file() {
        let chunker = FixedChunker::new(64).unwrap();
        GroundTruth::measure(&chunker, &[vec![]]);
    }

    #[test]
    fn k_search_finds_adequate_pool_count() {
        // Three sources give 2^3 - 1 = 7 probe subsets, so a K = 1 model
        // (1 size + 3 weights = 4 parameters) is over-determined and
        // cannot interpolate the measurements the way it can with only
        // two sources (3 subsets vs 3 parameters). That makes "the
        // search must move past K = 1" a property of the model class,
        // not of one lucky sample.
        let v1 = CharacteristicVector::new(vec![0.6, 0.2, 0.2]).unwrap();
        let v2 = CharacteristicVector::new(vec![0.5, 0.3, 0.2]).unwrap();
        let v3 = CharacteristicVector::new(vec![0.2, 0.2, 0.6]).unwrap();
        let model = GenerativeModel::new(
            vec![300, 800, 50_000], // the true model has K = 3
            256,
            vec![
                SourceSpec::new(100.0, v1),
                SourceSpec::new(100.0, v2),
                SourceSpec::new(100.0, v3),
            ],
        )
        .unwrap();
        let gt = truth_from_model(&model, 400);
        let fitted = Estimator::default().fit_search_k(&gt, 1..=4);
        assert!(
            fitted.mean_rel_error < 0.05,
            "K-search error {}",
            fitted.mean_rel_error
        );
        // A single pool cannot express three differently-sized overlap
        // structures; the search must have moved past K = 1.
        assert!(fitted.pool_sizes.len() >= 2, "stuck at K=1");
    }
}
