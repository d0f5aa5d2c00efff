//! Asymptotic standard errors from the observed Fisher information.
//!
//! Frequentist companion to [`crate::bayes`]: at the MLE `θ̂`, the observed
//! information `I(θ̂) = −∇² ℓ(θ̂)` gives the classical
//! `θ̂ ± z · sqrt(diag I(θ̂)^{-1})` intervals. The Hessian is formed by
//! central differences in the *transformed* (unconstrained) coordinates —
//! each entry costs a handful of tile-Cholesky evaluations through the same
//! adaptive solver — and the covariance is mapped back to natural space by
//! the delta method.

use crate::likelihood::{log_likelihood_engine, FactorEngine};
use crate::model::ModelFamily;
use crate::optimizer::transform::{forward_all, inverse_all};
use xgs_covariance::Location;
use xgs_linalg::Matrix;
use xgs_tile::{KernelTimeModel, TlrConfig};

/// Fisher-information summary at the MLE.
#[derive(Clone, Debug)]
pub struct FisherReport {
    /// Asymptotic standard errors of the natural-space parameters.
    pub std_errors: Vec<f64>,
    /// 95% Wald confidence intervals in natural space.
    pub ci95: Vec<(f64, f64)>,
    /// Transformed-space covariance matrix `I^{-1}`.
    pub covariance: Matrix,
}

/// Compute observed-information standard errors at `theta_hat`, every
/// evaluation factorized on `engine` (a fit's own engine, so `fit --se`
/// differentiates where it fitted).
///
/// `h` is the central-difference step in transformed coordinates (1e-3 to
/// 1e-2 is reasonable: the llh is smooth but each evaluation carries
/// solver-level noise under aggressive approximation settings).
/// Returns an error when the Hessian is not positive definite at the point
/// (i.e. `theta_hat` is not a local maximum).
#[allow(clippy::too_many_arguments)]
pub fn fisher_information(
    family: ModelFamily,
    locs: &[Location],
    z: &[f64],
    cfg: &TlrConfig,
    model: &dyn KernelTimeModel,
    theta_hat: &[f64],
    h: f64,
    engine: &FactorEngine,
) -> Result<FisherReport, String> {
    let transforms = family.transforms();
    let dim = theta_hat.len();
    assert_eq!(dim, family.n_params());
    let y0 = forward_all(&transforms, theta_hat);

    let nll = |y: &[f64]| -> Result<f64, String> {
        let theta = inverse_all(&transforms, y);
        let kernel = family.kernel(&theta);
        log_likelihood_engine(kernel.as_ref(), locs, z, cfg, model, engine)
            .map(|r| -r.llh)
            .map_err(|e| format!("likelihood failed during differencing: {e}"))
    };

    // Central-difference Hessian (symmetric; evaluate the upper triangle).
    let f0 = nll(&y0)?;
    let mut hess = Matrix::zeros(dim, dim);
    let shifted = |steps: &[(usize, f64)]| -> Result<f64, String> {
        let mut y = y0.clone();
        for &(i, s) in steps {
            y[i] += s;
        }
        nll(&y)
    };
    for i in 0..dim {
        // Diagonal: (f(+h) - 2 f0 + f(-h)) / h^2.
        let fp = shifted(&[(i, h)])?;
        let fm = shifted(&[(i, -h)])?;
        hess[(i, i)] = (fp - 2.0 * f0 + fm) / (h * h);
        for j in i + 1..dim {
            let fpp = shifted(&[(i, h), (j, h)])?;
            let fpm = shifted(&[(i, h), (j, -h)])?;
            let fmp = shifted(&[(i, -h), (j, h)])?;
            let fmm = shifted(&[(i, -h), (j, -h)])?;
            let v = (fpp - fpm - fmp + fmm) / (4.0 * h * h);
            hess[(i, j)] = v;
            hess[(j, i)] = v;
        }
    }

    // Invert via Cholesky: I^{-1} columns from solves with e_k.
    let mut l = hess.clone();
    xgs_linalg::cholesky_in_place(&mut l)
        .map_err(|_| "observed information is not positive definite at theta_hat".to_string())?;
    let mut cov = Matrix::zeros(dim, dim);
    for k in 0..dim {
        let mut e = vec![0.0; dim];
        e[k] = 1.0;
        xgs_linalg::cholesky_solve(&l, &mut e);
        for i in 0..dim {
            cov[(i, k)] = e[i];
        }
    }

    // Delta method back to natural space: Var(g(y)) = g'(y)^2 Var(y) for
    // each coordinate-wise bijection g.
    let mut std_errors = Vec::with_capacity(dim);
    let mut ci95 = Vec::with_capacity(dim);
    for (k, t) in transforms.iter().enumerate() {
        let var_y = cov[(k, k)].max(0.0);
        let sd_y = var_y.sqrt();
        // Numerical derivative of the inverse transform at y0[k].
        let eps = 1e-6;
        let dgu = (t.inverse(y0[k] + eps) - t.inverse(y0[k] - eps)) / (2.0 * eps);
        std_errors.push(sd_y * dgu.abs());
        // Transform-respecting interval: map the y-space Wald interval.
        let lo = t.inverse(y0[k] - 1.959963984540054 * sd_y);
        let hi = t.inverse(y0[k] + 1.959963984540054 * sd_y);
        ci95.push((lo.min(hi), lo.max(hi)));
    }

    Ok(FisherReport {
        std_errors,
        ci95,
        covariance: cov,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mle::{fit, FitOptions};
    use crate::synthetic::simulate_field;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xgs_covariance::{jittered_grid, morton_order, Matern, MaternParams};
    use xgs_tile::{FlopKernelModel, Variant};

    fn data(n: usize) -> (Vec<Location>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(13);
        let mut locs = jittered_grid(n, &mut rng);
        morton_order(&mut locs);
        let z = simulate_field(&Matern::new(MaternParams::new(1.0, 0.1, 0.5)), &locs, 31);
        (locs, z)
    }

    #[test]
    fn standard_errors_at_the_mle_are_positive_and_sane() {
        let (locs, z) = data(300);
        let cfg = TlrConfig::new(Variant::DenseF64, 75);
        let model = FlopKernelModel::default();
        let mle = fit(
            ModelFamily::MaternSpace,
            &locs,
            &z,
            &cfg,
            &model,
            &FitOptions {
                start: Some(vec![1.0, 0.1, 0.5]),
                ..Default::default()
            },
        );
        let rep = fisher_information(
            ModelFamily::MaternSpace,
            &locs,
            &z,
            &cfg,
            &model,
            &mle.theta,
            5e-3,
            &FactorEngine::Sequential,
        )
        .unwrap();
        assert_eq!(rep.std_errors.len(), 3);
        for (k, &se) in rep.std_errors.iter().enumerate() {
            assert!(se > 0.0 && se.is_finite(), "param {k}: se {se}");
            // SEs should be a modest fraction of the estimate at n=300.
            assert!(
                se < 3.0 * mle.theta[k] + 1.0,
                "param {k}: se {se} vs {}",
                mle.theta[k]
            );
        }
        // CIs bracket the estimate and stay in the valid domain.
        for (k, &(lo, hi)) in rep.ci95.iter().enumerate() {
            assert!(lo < mle.theta[k] && mle.theta[k] < hi, "param {k}");
            assert!(lo > 0.0, "positivity must survive the transform");
        }
    }

    #[test]
    fn away_from_the_mode_information_can_fail_cleanly() {
        let (locs, z) = data(150);
        let cfg = TlrConfig::new(Variant::DenseF64, 75);
        // A point far from any maximum: the Hessian of -llh need not be PD.
        let res = fisher_information(
            ModelFamily::MaternSpace,
            &locs,
            &z,
            &cfg,
            &FlopKernelModel::default(),
            &[30.0, 5.0, 3.0],
            1e-2,
            &FactorEngine::Sequential,
        );
        // Either it fails with the PD message or produces finite output —
        // but never panics. (Both outcomes are legitimate numerically.)
        if let Err(msg) = res {
            assert!(msg.contains("positive definite") || msg.contains("likelihood"));
        }
    }

    #[test]
    fn more_data_shrinks_standard_errors() {
        let cfg = TlrConfig::new(Variant::DenseF64, 75);
        let model = FlopKernelModel::default();
        let se_at = |n: usize| {
            let (locs, z) = data(n);
            fisher_information(
                ModelFamily::MaternSpace,
                &locs,
                &z,
                &cfg,
                &model,
                &[1.0, 0.1, 0.5],
                5e-3,
                &FactorEngine::Sequential,
            )
            .map(|r| r.std_errors[0])
        };
        let (small, large) = (se_at(150), se_at(450));
        if let (Ok(s), Ok(l)) = (small, large) {
            assert!(l < s, "SE must shrink with n: {l} !< {s}");
        }
    }

    /// A shard backend that factorizes in-process with the sequential
    /// loop and counts how often it is reached.
    #[derive(Debug, Default)]
    struct CountingBackend(std::sync::atomic::AtomicUsize);

    impl xgs_cholesky::ShardBackend for CountingBackend {
        fn factorize(
            &self,
            f: &mut xgs_cholesky::TiledFactor,
        ) -> Result<xgs_cholesky::ShardReport, xgs_cholesky::ShardError> {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            f.factorize_seq()?;
            Ok(xgs_cholesky::ShardReport {
                metrics: Default::default(),
            })
        }

        fn describe(&self) -> String {
            "counting".into()
        }
    }

    #[test]
    fn every_evaluation_runs_on_the_callers_engine() {
        use crate::bayes::{posterior_sample, McmcOptions};
        use std::sync::atomic::Ordering;
        use std::sync::Arc;
        let (locs, z) = data(150);
        let cfg = TlrConfig::new(Variant::DenseF64, 50);
        let model = FlopKernelModel::default();
        let theta = [1.0, 0.1, 0.5];
        let backend = Arc::new(CountingBackend::default());
        let sharded = FactorEngine::Sharded(backend.clone());
        let se = |engine: &FactorEngine| {
            let family = ModelFamily::MaternSpace;
            fisher_information(family, &locs, &z, &cfg, &model, &theta, 5e-3, engine)
                .unwrap()
                .std_errors
        };

        let (want, got) = (se(&FactorEngine::Sequential), se(&sharded));
        // f(θ̂), two per diagonal entry, four per off-diagonal pair.
        let d = theta.len();
        assert_eq!(
            backend.0.load(Ordering::Relaxed),
            1 + 2 * d + 2 * d * (d - 1)
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));

        backend.0.store(0, Ordering::Relaxed);
        let opts = |engine: FactorEngine| McmcOptions {
            iterations: 12,
            burn_in: 4,
            engine,
            ..Default::default()
        };
        let chain = |engine| {
            let family = ModelFamily::MaternSpace;
            posterior_sample(family, &locs, &z, &cfg, &model, &theta, &opts(engine)).unwrap()
        };
        let (want, got) = (chain(FactorEngine::Sequential), chain(sharded));
        // The start, then one proposal per iteration.
        assert_eq!(backend.0.load(Ordering::Relaxed), 1 + 12);
        assert_eq!(got.samples, want.samples);
        assert_eq!(got.llh_trace, want.llh_trace);
    }
}
