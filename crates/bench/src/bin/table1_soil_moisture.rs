//! Paper Table I: qualitative MLE assessment on the soil-moisture dataset.
//!
//! The Mississippi-basin soil-moisture data (1M training / 100K test
//! sites) is not redistributable; per DESIGN.md §2 we simulate a field with
//! the paper's *estimated* parameters — medium correlation, rough field:
//! `θ = (0.67, 0.17, 0.44)` — and fit the three variants. The pass
//! criterion is the paper's: near-identical estimates, log-likelihood, and
//! MSPE across variants.
//!
//! ```text
//! XGS_N=2000 cargo run -p xgs-bench --release --bin table1_soil_moisture
//! ```

use xgs_bench::env_usize;
use xgs_core::mle::FitOptimizer;
use xgs_core::{
    run_pipeline, FactorEngine, FitOptions, ModelFamily, NelderMeadOptions, PipelineConfig,
};
use xgs_tile::{FlopKernelModel, Variant};

fn main() {
    let n = env_usize("XGS_N", 1000);
    let cfg = PipelineConfig {
        family: ModelFamily::MaternSpace,
        true_params: vec![0.67, 0.17, 0.44],
        n_train: n,
        n_test: n / 10,
        time_slots: 1,
        domain_size: 14.0,
        tile_size: (n / 10).max(50),
        variants: vec![Variant::DenseF64, Variant::MpDense, Variant::MpDenseTlr],
        fit: FitOptions {
            optimizer: FitOptimizer::NelderMead(NelderMeadOptions {
                max_evals: env_usize("XGS_EVALS", 80),
                f_tol: 1e-5,
                initial_step: 0.3,
            }),
            start: Some(vec![1.0, 0.5, 0.5]),
            engine: FactorEngine::from_workers(env_usize("XGS_WORKERS", 0)),
        },
        seed: 20040101,
    };

    println!(
        "Table I reproduction (synthetic stand-in, {} train / {} test; paper: 1M / 100K)",
        cfg.n_train, cfg.n_test
    );
    println!("truth θ = (0.67, 0.17, 0.44) — the paper's soil-moisture estimates\n");
    // The CLI's kernel-time model at this tile size: at demo-size tiles it
    // drops the memory-bound TLR penalty so the structure decision engages.
    let model = FlopKernelModel::for_tile(cfg.tile_size);
    let report = run_pipeline(&cfg, &model);
    println!("{}", report.render(ModelFamily::MaternSpace));
    println!("paper Table I (for reference):");
    println!("  Dense FP64    0.6720 0.1730 0.4358  llh -52185.7336  MSPE 0.0330");
    println!("  MP+dense      0.6751 0.1740 0.4357  llh -52185.7643  MSPE 0.0330");
    println!("  MP+dense/TLR  0.6621 0.1882 0.3921  llh -52188.2341  MSPE 0.0332");

    // `--metrics <path>` (or XGS_METRICS): runtime metrics merged over
    // every factorization of every variant's fit.
    if let Some(path) = xgs_bench::metrics_path() {
        let mut merged: Option<xgs_runtime::MetricsReport> = None;
        for row in &report.rows {
            if let Some(m) = &row.fit.metrics {
                match merged.as_mut() {
                    Some(total) => total.merge(m),
                    None => merged = Some(m.clone()),
                }
            }
        }
        match merged {
            Some(m) => xgs_bench::write_metrics(&path, &m),
            None => eprintln!(
                "--metrics: no runtime metrics collected (sequential engine; \
                 set XGS_WORKERS > 1)"
            ),
        }
    }
}
