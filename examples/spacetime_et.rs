//! Evapotranspiration space–time scenario (paper Table II, scaled down).
//!
//! The paper models 21 years of NASA GES DISC evapotranspiration residuals
//! over Central Asia: ~83K spatial sites × 12 monthly slots, fitted with
//! the non-separable Gneiting covariance (6 parameters). Its Table II
//! estimate finds strong spatial correlation and a medium space–time
//! interaction (β ≈ 0.186). We simulate a field from those estimates and
//! fit the six-parameter model with the dense and adaptive solvers.
//!
//! ```text
//! cargo run --release --example spacetime_et
//! ```

use exageostat_rs::core::mle::FitOptimizer;
use exageostat_rs::core::{FactorEngine, NelderMeadOptions};
use exageostat_rs::prelude::*;

fn main() {
    // Paper Table II estimates (α mapped into Gneiting's (0,1] exponent).
    let truth = vec![1.0087, 0.38, 0.3164, 0.5, 0.9, 0.186];

    let cfg = PipelineConfig {
        family: ModelFamily::GneitingSpaceTime,
        true_params: truth.clone(),
        n_train: 720, // 60 sites x 12 months
        n_test: 72,
        time_slots: 12,
        domain_size: 4.0,
        tile_size: 90,
        variants: vec![Variant::DenseF64, Variant::MpDense, Variant::MpDenseTlr],
        fit: FitOptions {
            optimizer: FitOptimizer::NelderMead(NelderMeadOptions {
                max_evals: 100,
                f_tol: 1e-5,
                initial_step: 0.3,
            }),
            start: Some(truth.clone()),
            engine: FactorEngine::Threads(0),
        },
        seed: 2021, // the paper's target year
    };

    println!(
        "ET space-time scenario: {} training / {} test points over {} time slots",
        cfg.n_train, cfg.n_test, cfg.time_slots
    );
    println!("non-separable Gneiting model, truth θ = {truth:?}\n");

    // The CLI's kernel-time model at this tile size: at demo-size tiles it
    // drops the memory-bound TLR penalty so the structure decision engages.
    let model = FlopKernelModel::for_tile(cfg.tile_size);
    let report = run_pipeline(&cfg, &model);
    println!("{}", report.render(ModelFamily::GneitingSpaceTime));

    // The paper's third observation: β > 0 (non-separability) matters.
    for row in &report.rows {
        let beta = row.fit.theta[5];
        println!(
            "{:<14} estimated space-time interaction β = {beta:.3} (truth {:.3})",
            row.variant.name(),
            truth[5]
        );
    }
}
