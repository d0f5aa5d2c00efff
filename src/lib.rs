//! # exageostat-rs
//!
//! A from-scratch Rust reproduction of *"Reshaping Geostatistical Modeling
//! and Prediction for Extreme-Scale Environmental Applications"* (SC '22
//! Gordon Bell finalist): geostatistical maximum-likelihood modeling and
//! kriging prediction through a **mixed-precision + tile-low-rank (TLR)
//! Cholesky** solver running on a **PaRSEC-style dynamic task runtime**.
//!
//! ## Quick start
//!
//! ```
//! use exageostat_rs::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // 1. Locations and a synthetic Matérn field (σ²=1, range=0.1, ν=0.5).
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut locs = jittered_grid(400, &mut rng);
//! morton_order(&mut locs);
//! let truth = Matern::new(MaternParams::new(1.0, 0.1, 0.5));
//! let z = simulate_field(&truth, &locs, 1);
//!
//! // 2. Evaluate the Gaussian log-likelihood through the adaptive
//! //    mixed-precision + TLR tile Cholesky.
//! let cfg = TlrConfig::new(Variant::MpDenseTlr, 100);
//! let model = FlopKernelModel::default();
//! let report = log_likelihood(&truth, &locs, &z, &cfg, &model, 1).unwrap();
//! assert!(report.llh.is_finite());
//!
//! // 3. Krige held-out points with uncertainty, reusing the factor.
//! let test = [Location::new(0.5, 0.5)];
//! let pred = krige(&truth, &locs, &z, &report.factor, &test, true);
//! assert!(pred.uncertainty.unwrap()[0] >= 0.0);
//! ```
//!
//! ## Crate map
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | application | [`xgs_core`] | MLE, kriging, optimizers, pipelines |
//! | solver | [`xgs_cholesky`] | the three tile-Cholesky variants, tiled solves |
//! | formats | [`xgs_tile`] | tile storage, precision/structure decisions, band tuning |
//! | runtime | [`xgs_runtime`] | dataflow DAG, workers, distributed simulation |
//! | statistics | [`xgs_covariance`] | Matérn, Gneiting space–time, Bessel, Morton |
//! | numerics | [`xgs_linalg`] | Matrix, QR, Jacobi SVD, ACA, low-rank algebra |
//! | kernels | [`xgs_kernels`] | GEMM/SYRK/TRSM/POTRF in FP64/FP32/emulated FP16 |
//! | modeling | [`xgs_perfmodel`] | A64FX calibration, Fugaku-scale projection |

pub mod cli;

pub use xgs_cholesky as cholesky;
pub use xgs_core as core;
pub use xgs_covariance as covariance;
pub use xgs_kernels as kernels;
pub use xgs_linalg as linalg;
pub use xgs_perfmodel as perfmodel;
pub use xgs_runtime as runtime;
pub use xgs_server as server;
pub use xgs_tile as tile;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use xgs_cholesky::{logdet, solve_lower, solve_lower_transpose, TiledFactor};
    pub use xgs_core::{
        fit, krige, log_likelihood, mspe, nelder_mead, particle_swarm, run_pipeline,
        simulate_field, simulate_fields, solve_weights, FitOptions, ModelFamily, PipelineConfig,
        PredictionPlan,
    };
    pub use xgs_covariance::{
        bessel_k, jittered_grid, matern_correlation, morton_order, spacetime_grid,
        uniform_locations, CovarianceKernel, GneitingSpaceTime, Location, Matern, MaternParams,
        SpaceTimeParams,
    };
    pub use xgs_kernels::{Half, Precision};
    pub use xgs_linalg::{LowRank, Matrix};
    pub use xgs_perfmodel::{
        project, project_with_metrics, Correlation, ScaleConfig, SolverVariant,
    };
    pub use xgs_runtime::{execute, parse_json, Access, DataId, JsonValue, TaskGraph};
    pub use xgs_server::{serve, LoadgenConfig, ModelRegistry, ServerConfig};
    pub use xgs_tile::{
        decision_heatmap, FlopKernelModel, KernelTimeModel, SymTileMatrix, TlrConfig, Variant,
    };
}
