//! Bayesian uncertainty quantification over the Matérn parameters —
//! the extension the paper's §VIII sketches ("the Bayesian UQ application
//! and its solution can follow naturally upon our work").
//!
//! Every MCMC step evaluates the Gaussian log-likelihood through the same
//! adaptive MP+TLR tile Cholesky as the MLE, so the posterior inherits the
//! solver's approximation guarantees.
//!
//! ```text
//! cargo run --release --example uq_bayesian
//! ```

use exageostat_rs::core::bayes::{posterior_sample, McmcOptions};
use exageostat_rs::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 400;
    let mut rng = StdRng::seed_from_u64(99);
    let mut locs = jittered_grid(n, &mut rng);
    morton_order(&mut locs);
    let truth = MaternParams::new(1.0, 0.1, 0.5);
    let z = simulate_field(&Matern::new(truth), &locs, 5);
    println!("simulated {n} sites under Matérn {truth:?}");

    // 1. MLE as the chain start.
    let cfg = TlrConfig::new(Variant::MpDense, 80);
    let model = FlopKernelModel::for_tile(cfg.tile_size);
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
    println!(
        "MLE: θ̂ = ({:.3}, {:.3}, {:.3}), llh {:.2}",
        mle.theta[0], mle.theta[1], mle.theta[2], mle.llh
    );

    // 2. Posterior sampling around it.
    let opts = McmcOptions {
        iterations: 400,
        burn_in: 100,
        engine: FactorEngine::Threads(0),
        ..Default::default()
    };
    let post = posterior_sample(
        ModelFamily::MaternSpace,
        &locs,
        &z,
        &cfg,
        &model,
        &mle.theta,
        &opts,
    )
    .expect("chain must initialize at the MLE");

    println!(
        "\nposterior from {} draws (acceptance {:.0}%):",
        post.samples.len(),
        post.acceptance * 100.0
    );
    for (i, name) in ["variance", "range", "smoothness"].iter().enumerate() {
        let (lo, hi) = post.ci90[i];
        println!(
            "  {name:<11} mean {:.3}   90% CI [{lo:.3}, {hi:.3}]   truth {:.3} {}",
            post.mean[i],
            [truth.sigma2, truth.range, truth.smoothness][i],
            if (lo..=hi).contains(&[truth.sigma2, truth.range, truth.smoothness][i]) {
                "(covered)"
            } else {
                "(missed)"
            }
        );
    }
}
