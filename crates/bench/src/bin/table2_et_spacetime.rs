//! Paper Table II: qualitative MLE assessment on the evapotranspiration
//! space–time dataset.
//!
//! The NASA GES DISC ET residuals (~83K sites x 12 months) are replaced by
//! a synthetic Gneiting field with the paper's estimated parameters
//! (strong spatial correlation, medium space–time interaction β ≈ 0.186);
//! see DESIGN.md §2. The criterion again is cross-variant agreement of the
//! six estimates, llh, and MSPE.
//!
//! ```text
//! cargo run -p xgs-bench --release --bin table2_et_spacetime
//! ```

use xgs_bench::env_usize;
use xgs_core::mle::FitOptimizer;
use xgs_core::{
    run_pipeline, FactorEngine, FitOptions, ModelFamily, NelderMeadOptions, PipelineConfig,
};
use xgs_tile::{FlopKernelModel, Variant};

fn main() {
    let n = env_usize("XGS_N", 720);
    let truth = vec![1.0087, 0.38, 0.3164, 0.5, 0.9, 0.186];
    let cfg = PipelineConfig {
        family: ModelFamily::GneitingSpaceTime,
        true_params: truth.clone(),
        n_train: n,
        n_test: n / 10,
        time_slots: 12,
        domain_size: 4.0,
        tile_size: (n / 8).max(50),
        variants: vec![Variant::DenseF64, Variant::MpDense, Variant::MpDenseTlr],
        fit: FitOptions {
            optimizer: FitOptimizer::NelderMead(NelderMeadOptions {
                max_evals: env_usize("XGS_EVALS", 90),
                f_tol: 1e-5,
                initial_step: 0.25,
            }),
            start: Some(truth.clone()),
            engine: FactorEngine::from_workers(env_usize("XGS_WORKERS", 0)),
        },
        seed: 2021,
    };

    println!(
        "Table II reproduction (synthetic stand-in, {} train / {} test over {} slots; paper: ~1M / 100K over 12 months)",
        cfg.n_train, cfg.n_test, cfg.time_slots
    );
    println!("truth θ = {truth:?}\n");
    // The CLI's kernel-time model at this tile size: at demo-size tiles it
    // drops the memory-bound TLR penalty so the structure decision engages.
    let model = FlopKernelModel::for_tile(cfg.tile_size);
    let report = run_pipeline(&cfg, &model);
    println!("{}", report.render(ModelFamily::GneitingSpaceTime));
    println!("paper Table II (for reference):");
    println!(
        "  Dense FP64    1.0087 3.7904 0.3164 0.0101 3.4941 0.1860  llh -136675.1  MSPE 0.9345"
    );
    println!(
        "  MP+dense      0.9428 3.8795 0.3072 0.0102 3.5858 0.1857  llh -136529.0  MSPE 0.9348"
    );
    println!(
        "  MP+dense/TLR  0.9247 3.7736 0.3068 0.0102 3.5858 0.1857  llh -136541.8  MSPE 0.9428"
    );
    println!("\nnote: the paper's strong spatial correlation regime means fewer");
    println!("low-precision/low-rank opportunities — visible here as a footprint");
    println!("closer to dense than in the Table I scenario.");
}
