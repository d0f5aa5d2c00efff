//! Kriging prediction with uncertainty (paper Eqs. 4 and 5).
//!
//! `Ẑ_m = Σ_mn Σ_nn^{-1} Z_n` and
//! `U_m = diag(Σ_mm − Σ_mn Σ_nn^{-1} Σ_nm)`,
//! reusing the tile Cholesky factor from the modeling phase. Cross
//! covariances `Σ_nm` are generated block-wise (never materializing the
//! full `n x m` matrix) and uncertainty uses one forward solve per block:
//! `U_j = σ² − ‖L^{-1} c_j‖²`.

use std::sync::Arc;
use xgs_cholesky::{solve_lower, solve_lower_transpose, TiledFactor};
use xgs_covariance::{cov_block, CovarianceKernel, Location};

/// Kriging output.
#[derive(Clone, Debug)]
pub struct PredictionResult {
    /// Predicted means at the test locations (Eq. 4).
    pub mean: Vec<f64>,
    /// Prediction variances (Eq. 5) when requested.
    pub uncertainty: Option<Vec<f64>>,
}

/// Kriging weights `w = Σ_nn^{-1} z` via the two triangular substitutions —
/// the data-dependent half of the prediction "plan".
pub fn solve_weights(factor: &TiledFactor, z: &[f64]) -> Vec<f64> {
    assert_eq!(factor.n(), z.len());
    let mut w = z.to_vec();
    solve_lower(factor, &mut w, 1);
    solve_lower_transpose(factor, &mut w, 1);
    w
}

/// The "query" half: cross-covariance assembly plus the multi-RHS solve for
/// one batch of prediction points against precomputed weights. Every point
/// is an independent column, so the output for a point does not depend on
/// which other points share its batch.
pub(crate) fn query_batch(
    kernel: &dyn CovarianceKernel,
    train_locs: &[Location],
    w: &[f64],
    factor: &TiledFactor,
    test_locs: &[Location],
    with_uncertainty: bool,
) -> PredictionResult {
    let n = train_locs.len();
    debug_assert_eq!(w.len(), n);
    let m = test_locs.len();
    let mut mean = vec![0.0; m];
    let mut unc = if with_uncertainty {
        Some(vec![0.0; m])
    } else {
        None
    };
    let sigma2 = kernel.variance();

    const BLOCK: usize = 64;
    let mut start = 0;
    while start < m {
        let end = (start + BLOCK).min(m);
        let block_locs = &test_locs[start..end];
        // C = Σ_n,block (n x b).
        let c = cov_block(kernel, train_locs, block_locs);
        // Means: C^T w.
        for (bj, mj) in mean[start..end].iter_mut().enumerate() {
            let col = c.col(bj);
            *mj = col.iter().zip(w).map(|(a, b)| a * b).sum();
        }
        if let Some(u) = &mut unc {
            // X = L^{-1} C; U_j = sigma^2 - ||X[:, j]||^2.
            let b = end - start;
            let mut x = c.into_vec();
            solve_lower(factor, &mut x, b);
            for (bj, uj) in u[start..end].iter_mut().enumerate() {
                let col = &x[bj * n..(bj + 1) * n];
                let reduction: f64 = col.iter().map(|v| v * v).sum();
                // Clamp rounding below zero, but keep a NaN: `f64::max`
                // would turn it into a variance claiming certainty.
                let var = sigma2 - reduction;
                *uj = if var < 0.0 { 0.0 } else { var };
            }
        }
        start = end;
    }

    PredictionResult {
        mean,
        uncertainty: unc,
    }
}

/// A cached prediction plan: the factorized training covariance plus the
/// solved kriging weights, ready to answer point-batch queries without
/// re-touching the O(n²) modeling state ("fit once, serve forever").
///
/// Everything is held through [`Arc`] so the plan can be shared across the
/// serving threads of `xgs-server`; [`PredictionPlan::query`] takes `&self`
/// and is safe to call concurrently.
pub struct PredictionPlan {
    kernel: Arc<dyn CovarianceKernel>,
    train_locs: Arc<[Location]>,
    factor: Arc<TiledFactor>,
    w: Vec<f64>,
}

impl PredictionPlan {
    /// Build the plan: one pair of triangular solves for the weights; the
    /// factor itself must already be computed (e.g. by
    /// [`crate::likelihood::log_likelihood_engine`]).
    pub fn new(
        kernel: Arc<dyn CovarianceKernel>,
        train_locs: Arc<[Location]>,
        z: &[f64],
        factor: Arc<TiledFactor>,
    ) -> PredictionPlan {
        let n = train_locs.len();
        assert_eq!(z.len(), n);
        assert_eq!(factor.n(), n);
        let w = solve_weights(&factor, z);
        PredictionPlan {
            kernel,
            train_locs,
            factor,
            w,
        }
    }

    /// Answer one batch of prediction points (Eq. 4, plus Eq. 5 when
    /// `with_uncertainty`). Identical floats to [`krige`] at the same
    /// points, regardless of how queries are grouped into batches.
    pub fn query(&self, test_locs: &[Location], with_uncertainty: bool) -> PredictionResult {
        query_batch(
            self.kernel.as_ref(),
            &self.train_locs,
            &self.w,
            &self.factor,
            test_locs,
            with_uncertainty,
        )
    }

    pub fn n_train(&self) -> usize {
        self.train_locs.len()
    }

    pub fn kernel(&self) -> &Arc<dyn CovarianceKernel> {
        &self.kernel
    }

    pub fn train_locs(&self) -> &[Location] {
        &self.train_locs
    }

    pub fn factor(&self) -> &Arc<TiledFactor> {
        &self.factor
    }

    /// The cached kriging weights `Σ_nn^{-1} z`.
    pub fn weights(&self) -> &[f64] {
        &self.w
    }
}

/// Predict at `test_locs` given training data `(train_locs, z)` and the
/// factorized training covariance. One-shot wrapper over the plan/query
/// split: [`solve_weights`] then the batch query.
pub fn krige(
    kernel: &dyn CovarianceKernel,
    train_locs: &[Location],
    z: &[f64],
    factor: &TiledFactor,
    test_locs: &[Location],
    with_uncertainty: bool,
) -> PredictionResult {
    let n = train_locs.len();
    assert_eq!(z.len(), n);
    assert_eq!(factor.n(), n);
    let w = solve_weights(factor, z);
    query_batch(kernel, train_locs, &w, factor, test_locs, with_uncertainty)
}

/// Mean squared prediction error against held-out truth (the paper's MSPE
/// column in Tables I and II).
pub fn mspe(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    if pred.is_empty() {
        return 0.0;
    }
    pred.iter()
        .zip(truth)
        .map(|(p, t)| (p - t) * (p - t))
        .sum::<f64>()
        / pred.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::simulate_field;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xgs_covariance::{jittered_grid, morton_order, Matern, MaternParams};
    use xgs_tile::{FlopKernelModel, SymTileMatrix, TlrConfig, Variant};

    /// Simulate a joint field, split train/test, factor the training block.
    fn setup(
        n_train: usize,
        n_test: usize,
        params: MaternParams,
    ) -> (
        Matern,
        Vec<Location>,
        Vec<f64>,
        Vec<Location>,
        Vec<f64>,
        TiledFactor,
    ) {
        let mut rng = StdRng::seed_from_u64(77);
        let mut all = jittered_grid(n_train + n_test, &mut rng);
        morton_order(&mut all);
        let kernel = Matern::new(params);
        let zall = simulate_field(&kernel, &all, 123);
        // Interleaved split keeps test points inside the training hull.
        let mut train_locs = Vec::new();
        let mut test_locs = Vec::new();
        let mut z_train = Vec::new();
        let mut z_test = Vec::new();
        let stride = (n_train + n_test) / n_test.max(1);
        for (i, (l, z)) in all.iter().zip(&zall).enumerate() {
            if test_locs.len() < n_test && i % stride == stride - 1 {
                test_locs.push(*l);
                z_test.push(*z);
            } else {
                train_locs.push(*l);
                z_train.push(*z);
            }
        }
        let cfg = TlrConfig::new(Variant::DenseF64, 64);
        let m = SymTileMatrix::generate(&kernel, &train_locs, cfg, &FlopKernelModel::default());
        let mut f = TiledFactor::from_matrix(m);
        f.factorize_seq().unwrap();
        (kernel, train_locs, z_train, test_locs, z_test, f)
    }

    #[test]
    fn prediction_beats_trivial_mean_predictor() {
        let (kernel, tr, ztr, te, zte, f) = setup(400, 50, MaternParams::new(1.0, 0.2, 1.5));
        let pred = krige(&kernel, &tr, &ztr, &f, &te, false);
        let err = mspe(&pred.mean, &zte);
        let trivial = mspe(&vec![0.0; zte.len()], &zte);
        assert!(
            err < 0.35 * trivial,
            "kriging MSPE {err} vs trivial {trivial}"
        );
    }

    #[test]
    fn exact_interpolation_at_training_points() {
        // Kriging reproduces the data at observed sites (no nugget).
        let (kernel, tr, ztr, _te, _zte, f) = setup(300, 30, MaternParams::new(1.0, 0.2, 1.5));
        let at_train = krige(&kernel, &tr, &ztr, &f, &tr[..20], false);
        for (p, t) in at_train.mean.iter().zip(&ztr[..20]) {
            assert!((p - t).abs() < 1e-6, "{p} vs {t}");
        }
    }

    #[test]
    fn uncertainty_positive_and_bounded_by_variance() {
        let (kernel, tr, ztr, te, _zte, f) = setup(350, 40, MaternParams::new(1.3, 0.15, 0.5));
        let pred = krige(&kernel, &tr, &ztr, &f, &te, true);
        let u = pred.uncertainty.unwrap();
        for &ui in &u {
            assert!((0.0..=1.3 + 1e-9).contains(&ui), "uncertainty {ui}");
        }
        // At a training point the uncertainty collapses to ~0.
        let at_train = krige(&kernel, &tr, &ztr, &f, &tr[..5], true);
        for &ui in at_train.uncertainty.as_ref().unwrap() {
            assert!(ui < 1e-6, "training-point uncertainty {ui}");
        }
    }

    #[test]
    fn uncertainty_grows_with_distance_from_data() {
        let (kernel, tr, ztr, _te, _zte, f) = setup(300, 30, MaternParams::new(1.0, 0.1, 0.5));
        // A point far outside the unit square vs one in the middle.
        let near = Location::new(0.5, 0.5);
        let far = Location::new(5.0, 5.0);
        let pred = krige(&kernel, &tr, &ztr, &f, &[near, far], true);
        let u = pred.uncertainty.unwrap();
        assert!(u[1] > u[0], "far {} should exceed near {}", u[1], u[0]);
        // Far point: essentially no information -> variance ~ sigma^2, mean ~ 0.
        assert!((u[1] - 1.0).abs() < 1e-3);
        assert!(pred.mean[1].abs() < 1e-3);
    }

    #[test]
    fn a_nan_prediction_keeps_a_nan_variance() {
        // A finite point whose distances overflow to infinity: the
        // covariances, hence the mean, are NaN, and so must the variance
        // be — not a clamped 0 that claims certainty.
        let (kernel, tr, ztr, _te, _zte, f) = setup(260, 30, MaternParams::new(1.0, 0.2, 1.5));
        let plan = PredictionPlan::new(Arc::new(kernel), Arc::from(tr), &ztr, Arc::new(f));
        let q = plan.query(
            &[Location::new(1e200, 1e200), Location::new(0.5, 0.5)],
            true,
        );
        let u = q.uncertainty.unwrap();
        assert!(
            q.mean[0].is_nan() && u[0].is_nan(),
            "{} ± {}",
            q.mean[0],
            u[0]
        );
        assert!(
            q.mean[1].is_finite() && u[1] >= 0.0,
            "{} ± {}",
            q.mean[1],
            u[1]
        );
    }

    #[test]
    fn plan_query_matches_one_shot_krige_bitwise() {
        let (kernel, tr, ztr, te, _zte, f) = setup(300, 40, MaternParams::new(1.1, 0.15, 1.0));
        let one_shot = krige(&kernel, &tr, &ztr, &f, &te, true);
        let plan = PredictionPlan::new(Arc::new(kernel), Arc::from(tr.clone()), &ztr, Arc::new(f));
        assert_eq!(plan.n_train(), tr.len());
        let q = plan.query(&te, true);
        for (a, b) in q.mean.iter().zip(&one_shot.mean) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in q
            .uncertainty
            .as_ref()
            .unwrap()
            .iter()
            .zip(one_shot.uncertainty.as_ref().unwrap())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn batched_query_independent_of_batch_composition() {
        // A point's prediction must not depend on which other points share
        // its batch — the correctness bedrock of the server's dynamic
        // request coalescing. Compare one big batch against point-by-point
        // queries, bitwise.
        let (kernel, tr, ztr, te, _zte, f) = setup(280, 36, MaternParams::new(0.9, 0.12, 0.5));
        let plan = PredictionPlan::new(Arc::new(kernel), Arc::from(tr), &ztr, Arc::new(f));
        let batched = plan.query(&te, true);
        for (j, loc) in te.iter().enumerate() {
            let single = plan.query(std::slice::from_ref(loc), true);
            assert_eq!(single.mean[0].to_bits(), batched.mean[j].to_bits());
            assert_eq!(
                single.uncertainty.as_ref().unwrap()[0].to_bits(),
                batched.uncertainty.as_ref().unwrap()[j].to_bits()
            );
        }
    }

    #[test]
    fn mspe_basics() {
        assert_eq!(mspe(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert_eq!(mspe(&[1.0, 3.0], &[0.0, 1.0]), (1.0 + 4.0) / 2.0);
        assert_eq!(mspe(&[], &[]), 0.0);
    }
}
