//! Soil-moisture scenario (paper Table I, scaled down).
//!
//! The paper trains on 1M locations from the Mississippi-basin soil
//! moisture dataset and finds medium spatial correlation with a rough
//! random field (θ ≈ (0.67, 0.17, 0.44)). We simulate a field with exactly
//! those estimated parameters (the dataset itself is not redistributable),
//! then run all three solver variants through the full
//! modeling → prediction pipeline and print the Table-I-shaped comparison:
//! the approximate variants should recover nearly identical parameters,
//! log-likelihood, and MSPE.
//!
//! ```text
//! cargo run --release --example soil_moisture
//! ```

use exageostat_rs::core::mle::FitOptimizer;
use exageostat_rs::core::{FactorEngine, NelderMeadOptions};
use exageostat_rs::prelude::*;

fn main() {
    // Paper Table I estimates, used as our simulation ground truth.
    let truth = vec![0.67, 0.17, 0.44];

    let cfg = PipelineConfig {
        family: ModelFamily::MaternSpace,
        true_params: truth.clone(),
        n_train: 1000,
        n_test: 100,
        time_slots: 1,
        // ~80 correlation ranges across the domain — the Mississippi basin
        // spans ~16-20 degrees with the paper's estimated range of 0.17, so
        // this matches the real dataset's domain-to-range regime and lets
        // the adaptive precision/structure decisions engage at demo scale.
        domain_size: 14.0,
        tile_size: 100,
        variants: vec![Variant::DenseF64, Variant::MpDense, Variant::MpDenseTlr],
        fit: FitOptions {
            optimizer: FitOptimizer::NelderMead(NelderMeadOptions {
                max_evals: 80,
                f_tol: 1e-5,
                initial_step: 0.35,
            }),
            start: Some(vec![1.0, 0.1, 0.5]),
            engine: FactorEngine::Threads(0), // all cores through the task runtime
        },
        seed: 20040101, // the paper's dataset date: January 1st, 2004
    };

    println!(
        "soil-moisture scenario: {} training / {} test sites, truth θ = {:?}",
        cfg.n_train, cfg.n_test, truth
    );
    println!("fitting 3 variants (dense FP64, MP dense, MP+dense/TLR)...\n");

    // The CLI's kernel-time model at this tile size: at demo-size tiles it
    // drops the memory-bound TLR penalty so the structure decision engages.
    let model = FlopKernelModel::for_tile(cfg.tile_size);
    let report = xgs_core::run_pipeline(&cfg, &model);
    println!("{}", report.render(ModelFamily::MaternSpace));

    let base = &report.rows[0];
    for row in &report.rows[1..] {
        let dl = (row.fit.llh - base.fit.llh).abs();
        let dm = (row.mspe - base.mspe).abs() / base.mspe;
        println!(
            "{:<14} Δllh = {dl:.3}, ΔMSPE = {:.2}%, footprint {:.1}% of dense",
            row.variant.name(),
            dm * 100.0,
            100.0 * row.footprint_bytes as f64 / base.footprint_bytes as f64
        );
    }
}
