//! Paper Fig. 6: boxplots of Matérn parameter estimates over replicated
//! synthetic space datasets, at weak/medium/strong correlation, for the
//! three solver variants.
//!
//! The paper uses 100 replicates of 50K locations; the defaults here are
//! sized for a single node (`XGS_REPS`, `XGS_N` override them). For each
//! (correlation, variant, parameter) we print the quartiles of the
//! estimates next to the true value — the textual equivalent of the
//! boxplots.
//!
//! ```text
//! XGS_REPS=100 cargo run -p xgs-bench --release --bin fig6_param_boxplots
//! ```

use xgs_bench::{env_usize, quartiles, sites};
use xgs_core::mle::FitOptimizer;
use xgs_core::{fit, FactorEngine, FitOptions, ModelFamily, NelderMeadOptions};
use xgs_covariance::{Matern, MaternParams};
use xgs_tile::{FlopKernelModel, TlrConfig, Variant};

fn main() {
    let reps = env_usize("XGS_REPS", 25);
    let n = env_usize("XGS_N", 400);
    let workers = env_usize("XGS_WORKERS", 0);
    // Domain widened so the adaptive decisions engage at reduced n (see
    // DESIGN.md §2 and the pipeline's domain_size note).
    let domain = 4.0;
    let nb = (n / 6).max(32);
    let model = FlopKernelModel::for_tile(nb);
    let variants = [Variant::DenseF64, Variant::MpDense, Variant::MpDenseTlr];

    println!("Fig. 6 reproduction: {reps} synthetic datasets x {n} locations (paper: 100 x 50K)\n");

    for (label, range) in [("weak", 0.03), ("medium", 0.1), ("strong", 0.3)] {
        // The paper's per-panel truths: sigma^2 = 1, nu = 0.5, range varies.
        let truth = MaternParams::new(1.0, range * domain, 0.5);
        println!(
            "== {label} correlation: truth (variance, range, smoothness) = ({}, {}, {}) ==",
            truth.sigma2, truth.range, truth.smoothness
        );
        println!(
            "{:>14} {:>12} | {:>8} {:>8} {:>8}",
            "variant", "parameter", "q1", "median", "q3"
        );
        for variant in variants {
            let cfg = TlrConfig::new(variant, nb);
            let mut est: Vec<Vec<f64>> = vec![Vec::new(); 3];
            for rep in 0..reps {
                let locs = sites(n, domain, 1000 + rep as u64);
                let z = xgs_core::simulate_field(&Matern::new(truth), &locs, 5000 + rep as u64);
                let opts = FitOptions {
                    optimizer: FitOptimizer::NelderMead(NelderMeadOptions {
                        max_evals: 70,
                        f_tol: 1e-4,
                        initial_step: 0.35,
                    }),
                    start: Some(vec![truth.sigma2, truth.range, truth.smoothness]),
                    engine: FactorEngine::from_workers(workers),
                };
                let r = fit(ModelFamily::MaternSpace, &locs, &z, &cfg, &model, &opts);
                for (k, v) in r.theta.iter().enumerate() {
                    est[k].push(*v);
                }
            }
            for (k, name) in ["variance", "range", "smoothness"].iter().enumerate() {
                let (q1, q2, q3) = quartiles(&mut est[k]);
                println!(
                    "{:>14} {:>12} | {:>8.3} {:>8.3} {:>8.3}",
                    variant.name(),
                    name,
                    q1,
                    q2,
                    q3
                );
            }
        }
        println!();
    }
}
