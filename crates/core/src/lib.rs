//! The paper's primary contribution, as a library: ExaGeoStat-style
//! geostatistical **modeling** (maximum likelihood estimation of Matérn /
//! Gneiting space–time parameters through the adaptive mixed-precision +
//! tile-low-rank Cholesky) and **prediction** (kriging with uncertainty)
//! for large spatial and spatio-temporal datasets.
//!
//! The pipeline mirrors the paper end to end:
//!
//! 1. [`synthetic`] simulates Gaussian random fields (`Z = L ε`) at
//!    irregular locations — the data generator behind Fig. 6's boxplots and
//!    our stand-ins for the soil-moisture / evapotranspiration datasets;
//! 2. [`likelihood`] evaluates Eq. (1) via one tile Cholesky + solve per
//!    objective call, in any of the three solver variants;
//! 3. [`optimizer`] maximizes it (Nelder–Mead, or the particle-swarm
//!    scheme the paper uses for embarrassingly-parallel weak scaling);
//! 4. [`predict`] computes Eq. (4)/(5): kriging means, prediction
//!    uncertainty, and MSPE against held-out truth;
//! 5. [`pipeline`] wires those into the Table I / Table II experiment
//!    shape: train on one partition, predict the held-out one, compare
//!    variants;
//! 6. [`bayes`] implements the paper's §VIII extension: Bayesian UQ over
//!    the covariance parameters by MCMC through the same adaptive solver.

pub mod bayes;
pub mod conditional;
pub mod fisher;
pub mod likelihood;
pub mod mle;
pub mod model;
pub mod optimizer;
pub mod pipeline;
pub mod predict;
pub mod synthetic;

pub use bayes::{posterior_sample, McmcOptions, McmcResult};
pub use conditional::conditional_simulation;
pub use fisher::{fisher_information, FisherReport};
pub use likelihood::{log_likelihood_engine, FactorEngine, LikelihoodReport};
pub use mle::{fit, FitOptions, FitResult};
pub use model::ModelFamily;
pub use optimizer::neldermead::{nelder_mead, NelderMeadOptions, NelderMeadResult};
pub use optimizer::pso::{particle_swarm, PsoOptions, PsoResult};
pub use optimizer::transform::ParamTransform;
pub use pipeline::{run_pipeline, PipelineConfig, PipelineReport};
pub use predict::{krige, mspe, solve_weights, PredictionPlan, PredictionResult};
pub use synthetic::{simulate_field, simulate_fields};
