//! Conditional simulation: Gaussian-field ensembles consistent with the
//! observed data.
//!
//! Kriging (Eq. 4) gives the conditional *mean*; many downstream
//! environmental analyses (flood risk, exceedance probabilities) need
//! *samples* from `Z_m | Z_n`. The classical residual-kriging construction
//! reuses exactly the machinery already built:
//!
//! 1. draw an unconditional field `(W_n, W_m)` jointly at the training and
//!    target sites (exact Cholesky sampler);
//! 2. krige `W_m` from `W_n` and form the residual `W_m − Ŵ_m`;
//! 3. the conditional draw is `Ẑ_m + (W_m − Ŵ_m)` — correct because the
//!    kriging residual is independent of the data and carries the
//!    conditional covariance `Σ_mm − Σ_mn Σ_nn^{-1} Σ_nm`.
//!
//! All solves run through the adaptive MP+TLR factor, so the ensembles
//! inherit the paper's approximation guarantees.

use crate::predict::{query_batch, solve_weights};
use crate::synthetic::simulate_field;
use xgs_cholesky::TiledFactor;
use xgs_covariance::{CovarianceKernel, Location};

/// Draw `n_draws` conditional realizations at `test_locs`.
///
/// `factor` must be the Cholesky factor of the training covariance under
/// `kernel` (the object [`crate::likelihood::log_likelihood_engine`] returns).
/// Each draw costs one unconditional joint simulation plus one kriging
/// pass. Returns one `Vec<f64>` per draw.
///
/// # Panics
///
/// The joint `[train, test]` covariance must be SPD: a target site that
/// exactly coincides with a training site (or another target) makes it
/// singular and the sampler panics. Perturb duplicated sites or drop them
/// (their conditional value is the observation itself).
pub fn conditional_simulation(
    kernel: &dyn CovarianceKernel,
    train_locs: &[Location],
    z: &[f64],
    factor: &TiledFactor,
    test_locs: &[Location],
    n_draws: usize,
    seed: u64,
) -> Vec<Vec<f64>> {
    let n = train_locs.len();
    assert_eq!(z.len(), n);
    assert_eq!(factor.n(), n);

    // Conditional mean once, through the plan/query split (weights solve +
    // batch query) — the same code path the prediction service batches.
    let wz = solve_weights(factor, z);
    let mean = query_batch(kernel, train_locs, &wz, factor, test_locs, false).mean;

    // Joint site list for the unconditional draws.
    let mut joint: Vec<Location> = Vec::with_capacity(n + test_locs.len());
    joint.extend_from_slice(train_locs);
    joint.extend_from_slice(test_locs);

    (0..n_draws)
        .map(|d| {
            let w = simulate_field(kernel, &joint, seed.wrapping_add(d as u64));
            let (w_train, w_test) = w.split_at(n);
            let wd = solve_weights(factor, w_train);
            let w_hat = query_batch(kernel, train_locs, &wd, factor, test_locs, false).mean;
            mean.iter()
                .zip(w_test)
                .zip(&w_hat)
                .map(|((m, wt), wh)| m + (wt - wh))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::likelihood::{log_likelihood_engine, FactorEngine};
    use crate::predict::krige;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xgs_covariance::{jittered_grid, morton_order, Matern, MaternParams};
    use xgs_tile::{FlopKernelModel, TlrConfig, Variant};

    fn setup() -> (
        Matern,
        Vec<Location>,
        Vec<f64>,
        Vec<Location>,
        std::sync::Arc<TiledFactor>,
    ) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut locs = jittered_grid(280, &mut rng);
        morton_order(&mut locs);
        let kernel = Matern::new(MaternParams::new(1.0, 0.2, 1.5));
        let z = simulate_field(&kernel, &locs, 10);
        let (train, test) = locs.split_at(240);
        let cfg = TlrConfig::new(Variant::DenseF64, 60);
        let rep = log_likelihood_engine(
            &kernel,
            train,
            &z[..240],
            &cfg,
            &FlopKernelModel::default(),
            &FactorEngine::Sequential,
        )
        .unwrap();
        (
            kernel,
            train.to_vec(),
            z[..240].to_vec(),
            test.to_vec(),
            rep.factor,
        )
    }

    #[test]
    fn draws_pin_down_near_training_sites() {
        let (kernel, train, z, _test, factor) = setup();
        // Conditioning immediately next to observed sites: conditional
        // variance is tiny there, so every draw must track the data.
        // (Exactly coincident probes would make the joint sampling
        // covariance singular — the smooth-field limit is tested via
        // proximity instead.)
        let probes: Vec<Location> = train[..12]
            .iter()
            .map(|l| Location::new(l.x + 2e-3, l.y))
            .collect();
        let draws = conditional_simulation(&kernel, &train, &z, &factor, &probes, 3, 1000);
        for draw in &draws {
            for (d, t) in draw.iter().zip(&z[..12]) {
                assert!((d - t).abs() < 0.05, "{d} vs {t}");
            }
        }
    }

    #[test]
    fn ensemble_mean_approaches_kriging_mean() {
        let (kernel, train, z, test, factor) = setup();
        let n_draws = 60;
        let draws = conditional_simulation(&kernel, &train, &z, &factor, &test, n_draws, 7);
        let kr = krige(&kernel, &train, &z, &factor, &test, true);
        let u = kr.uncertainty.unwrap();
        for j in 0..test.len() {
            let m: f64 = draws.iter().map(|d| d[j]).sum::<f64>() / n_draws as f64;
            // Monte Carlo error ~ sqrt(var/n).
            let mc = (u[j] / n_draws as f64).sqrt();
            assert!(
                (m - kr.mean[j]).abs() < 5.0 * mc + 1e-9,
                "site {j}: ensemble {m} vs kriging {}",
                kr.mean[j]
            );
        }
    }

    #[test]
    fn ensemble_variance_matches_prediction_uncertainty() {
        let (kernel, train, z, test, factor) = setup();
        let n_draws = 120;
        let draws = conditional_simulation(&kernel, &train, &z, &factor, &test, n_draws, 21);
        let kr = krige(&kernel, &train, &z, &factor, &test, true);
        let u = kr.uncertainty.unwrap();
        let mut checked = 0;
        for j in 0..test.len() {
            if u[j] < 1e-4 {
                continue; // too well-determined to test variance ratio
            }
            let m: f64 = draws.iter().map(|d| d[j]).sum::<f64>() / n_draws as f64;
            let v: f64 =
                draws.iter().map(|d| (d[j] - m) * (d[j] - m)).sum::<f64>() / (n_draws - 1) as f64;
            let ratio = v / u[j];
            assert!(
                (0.4..2.5).contains(&ratio),
                "site {j}: sample var {v} vs predicted {}",
                u[j]
            );
            checked += 1;
        }
        assert!(checked > 5, "not enough testable sites");
    }

    #[test]
    fn draws_differ_across_seeds_but_reproduce_per_seed() {
        let (kernel, train, z, test, factor) = setup();
        let a = conditional_simulation(&kernel, &train, &z, &factor, &test, 2, 5);
        let b = conditional_simulation(&kernel, &train, &z, &factor, &test, 2, 5);
        let c = conditional_simulation(&kernel, &train, &z, &factor, &test, 2, 6);
        assert_eq!(a, b);
        assert_ne!(a[0], c[0]);
        assert_ne!(a[0], a[1]);
    }
}
