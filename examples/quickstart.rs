//! Quickstart: simulate a spatial dataset, fit the Matérn model with the
//! mixed-precision + TLR solver, and krige unobserved locations.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use exageostat_rs::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // --- 1. A synthetic "monitoring network" on the unit square. ---------
    let n = 900;
    let mut rng = StdRng::seed_from_u64(2024);
    let mut locs = jittered_grid(n, &mut rng);
    morton_order(&mut locs); // locality ordering: makes far tiles low-rank

    // Ground truth: medium spatial correlation, fairly rough field.
    let truth = MaternParams::new(1.0, 0.1, 0.5);
    let z = simulate_field(&Matern::new(truth), &locs, 7);
    println!("simulated {n} observations under Matérn {truth:?}");

    // --- 2. Maximum likelihood with the adaptive solver. ------------------
    let cfg = TlrConfig::new(Variant::MpDenseTlr, 100);
    let model = FlopKernelModel::for_tile(cfg.tile_size);
    let fit_opts = FitOptions::default();
    let result = fit(
        ModelFamily::MaternSpace,
        &locs[..800],
        &z[..800],
        &cfg,
        &model,
        &fit_opts,
    );
    println!(
        "estimated θ = (σ²={:.3}, a={:.3}, ν={:.3}), log-likelihood {:.2} after {} evaluations",
        result.theta[0], result.theta[1], result.theta[2], result.llh, result.evals
    );

    // --- 3. Prediction at the 100 held-out sites. --------------------------
    let kernel = ModelFamily::MaternSpace.kernel(&result.theta);
    let report = log_likelihood_engine(
        kernel.as_ref(),
        &locs[..800],
        &z[..800],
        &cfg,
        &model,
        &fit_opts.engine,
    )
    .expect("estimate is SPD");
    let pred = krige(
        kernel.as_ref(),
        &locs[..800],
        &z[..800],
        &report.factor,
        &locs[800..],
        true,
    );
    let err = mspe(&pred.mean, &z[800..]);
    let avg_unc = pred.uncertainty.as_ref().unwrap().iter().sum::<f64>() / pred.mean.len() as f64;
    println!("kriging MSPE on 100 held-out sites: {err:.4} (avg predicted variance {avg_unc:.4})");
    println!(
        "matrix footprint under MP+TLR formats: {:.2} MB (dense FP64 tiles: {:.2} MB)",
        report.footprint_bytes as f64 / 1e6,
        report.dense_footprint_bytes as f64 / 1e6
    );
}
