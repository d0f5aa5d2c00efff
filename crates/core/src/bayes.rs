//! Bayesian uncertainty quantification over the covariance parameters —
//! the paper's §VIII extension ("In uncertainty quantified optimization ...
//! the inverse of the covariance again plays a central role. The Bayesian
//! UQ application and its solution can follow naturally upon our work").
//!
//! Adaptive random-walk Metropolis over the transformed parameter space:
//! every posterior evaluation is one tile Cholesky through the same
//! adaptive MP+TLR solver the MLE uses, so the approximation machinery
//! carries over unchanged. Priors are flat in the transformed coordinates
//! (log / logit), i.e. the standard weakly-informative reference choice
//! for positive / unit-interval parameters.

use crate::likelihood::log_likelihood;
use crate::model::ModelFamily;
use crate::optimizer::transform::{forward_all, inverse_all};
use crate::synthetic::standard_normal;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xgs_covariance::Location;
use xgs_tile::{KernelTimeModel, TlrConfig};

/// MCMC configuration.
#[derive(Clone, Debug)]
pub struct McmcOptions {
    /// Total iterations (including burn-in).
    pub iterations: usize,
    /// Burn-in samples discarded from the summaries.
    pub burn_in: usize,
    /// Initial random-walk step (transformed coordinates).
    pub step: f64,
    /// Adapt the step every this many iterations toward ~35% acceptance
    /// (0 disables adaptation).
    pub adapt_every: usize,
    pub seed: u64,
    /// Worker loops per likelihood evaluation, run on the shared pool.
    pub workers: usize,
}

impl Default for McmcOptions {
    fn default() -> Self {
        McmcOptions {
            iterations: 500,
            burn_in: 100,
            step: 0.12,
            adapt_every: 50,
            seed: 0xBA7E5,
            workers: 1,
        }
    }
}

/// Posterior sampling output.
#[derive(Clone, Debug)]
pub struct McmcResult {
    /// Post-burn-in samples in natural parameter space (row per draw).
    pub samples: Vec<Vec<f64>>,
    /// Acceptance rate over the whole run.
    pub acceptance: f64,
    /// Per-parameter posterior means.
    pub mean: Vec<f64>,
    /// Per-parameter central 90% credible intervals `(q05, q95)`.
    pub ci90: Vec<(f64, f64)>,
    /// Log-likelihood trace (all iterations).
    pub llh_trace: Vec<f64>,
}

/// Run adaptive random-walk Metropolis for the model's parameters.
///
/// `start` is a natural-space initialization (the MLE is the classical
/// choice). Returns an error message when the chain cannot initialize
/// (non-SPD covariance at `start`).
pub fn posterior_sample(
    family: ModelFamily,
    locs: &[Location],
    z: &[f64],
    cfg: &TlrConfig,
    model: &dyn KernelTimeModel,
    start: &[f64],
    opts: &McmcOptions,
) -> Result<McmcResult, String> {
    assert_eq!(start.len(), family.n_params());
    let transforms = family.transforms();
    let dim = start.len();
    let mut rng = StdRng::seed_from_u64(opts.seed);

    let loglik = |y: &[f64]| -> f64 {
        let theta = inverse_all(&transforms, y);
        let kernel = family.kernel(&theta);
        match log_likelihood(kernel.as_ref(), locs, z, cfg, model, opts.workers) {
            Ok(r) => r.llh,
            Err(_) => f64::NEG_INFINITY,
        }
    };

    let mut current = forward_all(&transforms, start);
    let mut current_ll = loglik(&current);
    if !current_ll.is_finite() {
        return Err("initial parameters give a non-positive-definite covariance".to_string());
    }

    let mut step = opts.step;
    let mut accepted = 0usize;
    let mut window_accepted = 0usize;
    let mut samples = Vec::with_capacity(opts.iterations.saturating_sub(opts.burn_in));
    let mut llh_trace = Vec::with_capacity(opts.iterations);

    for it in 0..opts.iterations {
        let proposal: Vec<f64> = current
            .iter()
            .map(|&c| c + step * standard_normal(&mut rng))
            .collect();
        let prop_ll = loglik(&proposal);
        let accept = prop_ll - current_ll >= rng.random_range(0.0f64..1.0).ln();
        if accept {
            current = proposal;
            current_ll = prop_ll;
            accepted += 1;
            window_accepted += 1;
        }
        llh_trace.push(current_ll);
        if it >= opts.burn_in {
            samples.push(inverse_all(&transforms, &current));
        }
        // Robbins–Monro-ish step adaptation toward ~0.35 acceptance,
        // burn-in only (keeps the post-burn-in chain a valid MH kernel).
        if opts.adapt_every > 0 && it < opts.burn_in && (it + 1) % opts.adapt_every == 0 {
            let rate = window_accepted as f64 / opts.adapt_every as f64;
            step *= (0.6 + rate).clamp(0.3, 1.6);
            window_accepted = 0;
        }
    }

    // Summaries.
    let n = samples.len().max(1);
    let mut mean = vec![0.0; dim];
    for s in &samples {
        for (m, v) in mean.iter_mut().zip(s) {
            *m += v / n as f64;
        }
    }
    let mut ci90 = Vec::with_capacity(dim);
    for d in 0..dim {
        let mut col: Vec<f64> = samples.iter().map(|s| s[d]).collect();
        col.sort_by(|a, b| a.total_cmp(b));
        let q = |f: f64| col[((f * (col.len() - 1) as f64) as usize).min(col.len() - 1)];
        ci90.push((q(0.05), q(0.95)));
    }

    Ok(McmcResult {
        samples,
        acceptance: accepted as f64 / opts.iterations as f64,
        mean,
        ci90,
        llh_trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::simulate_field;
    use rand::rngs::StdRng;
    use xgs_covariance::{jittered_grid, morton_order, Matern, MaternParams};
    use xgs_tile::{FlopKernelModel, Variant};

    fn data(n: usize) -> (Vec<Location>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(9);
        let mut locs = jittered_grid(n, &mut rng);
        morton_order(&mut locs);
        let z = simulate_field(&Matern::new(MaternParams::new(1.0, 0.1, 0.5)), &locs, 77);
        (locs, z)
    }

    #[test]
    fn chain_runs_and_brackets_truth() {
        let (locs, z) = data(250);
        let cfg = TlrConfig::new(Variant::MpDense, 50);
        let opts = McmcOptions {
            iterations: 240,
            burn_in: 60,
            ..Default::default()
        };
        let r = posterior_sample(
            ModelFamily::MaternSpace,
            &locs,
            &z,
            &cfg,
            &FlopKernelModel::default(),
            &[1.0, 0.1, 0.5],
            &opts,
        )
        .unwrap();
        assert_eq!(r.samples.len(), 180);
        assert!(
            r.acceptance > 0.05 && r.acceptance < 0.95,
            "acc {}",
            r.acceptance
        );
        // The variance posterior should bracket a plausible neighbourhood
        // of the truth.
        let (lo, hi) = r.ci90[0];
        assert!(lo < 1.6 && hi > 0.5, "variance CI ({lo}, {hi})");
        assert!(lo < r.mean[0] && r.mean[0] < hi);
        // All draws respect positivity by construction.
        assert!(r.samples.iter().all(|s| s.iter().all(|&v| v > 0.0)));
    }

    #[test]
    fn deterministic_under_seed() {
        let (locs, z) = data(150);
        let cfg = TlrConfig::new(Variant::DenseF64, 50);
        let opts = McmcOptions {
            iterations: 60,
            burn_in: 20,
            ..Default::default()
        };
        let run = || {
            posterior_sample(
                ModelFamily::MaternSpace,
                &locs,
                &z,
                &cfg,
                &FlopKernelModel::default(),
                &[1.0, 0.1, 0.5],
                &opts,
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.acceptance, b.acceptance);
    }

    #[test]
    fn bad_start_is_an_error_not_a_panic() {
        // Coincident locations make the covariance exactly singular.
        let (mut locs, mut z) = data(80);
        let dup = locs.clone();
        locs.extend(dup);
        let zz = z.clone();
        z.extend(zz);
        let cfg = TlrConfig::new(Variant::DenseF64, 60);
        let res = posterior_sample(
            ModelFamily::MaternSpace,
            &locs,
            &z,
            &cfg,
            &FlopKernelModel::default(),
            &[1.0, 0.1, 0.5],
            &McmcOptions {
                iterations: 10,
                burn_in: 2,
                ..Default::default()
            },
        );
        assert!(res.is_err());
    }

    #[test]
    fn llh_trace_is_recorded_per_iteration() {
        let (locs, z) = data(120);
        let cfg = TlrConfig::new(Variant::DenseF64, 60);
        let opts = McmcOptions {
            iterations: 30,
            burn_in: 10,
            ..Default::default()
        };
        let r = posterior_sample(
            ModelFamily::MaternSpace,
            &locs,
            &z,
            &cfg,
            &FlopKernelModel::default(),
            &[1.0, 0.1, 0.5],
            &opts,
        )
        .unwrap();
        assert_eq!(r.llh_trace.len(), 30);
        assert!(r.llh_trace.iter().all(|l| l.is_finite()));
    }
}
