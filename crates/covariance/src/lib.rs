//! Geostatistics substrate: covariance functions and spatial data handling.
//!
//! Implements, from scratch, everything the paper's statistical model needs:
//! the modified Bessel function of the second kind `K_nu` (Temme series +
//! continued fraction, and a per-ν table of it for assembly), the Matérn
//! family (§IV-A.3), the Gneiting non-separable space–time covariance
//! (paper Eq. 6), irregular location generation in the style of
//! ExaGeoStat's synthetic datasets, Morton (Z-order) locality ordering —
//! the "proper ordering \[that\] clusters the most significant information
//! around the diagonal" — and (parallel) covariance matrix assembly.

pub mod assembly;
pub mod bessel;
pub mod kernels_extra;
pub mod locations;
pub mod matern;
pub mod spacetime;

pub use assembly::{cov_block, covariance_matrix, CovarianceKernel};
pub use bessel::{bessel_k, ln_gamma};
pub use kernels_extra::{GeneralizedCauchy, PoweredExponential, WithNugget};
pub use locations::{jittered_grid, morton_order, spacetime_grid, uniform_locations, Location};
pub use matern::{matern_correlation, Matern, MaternCorrelation, MaternParams};
pub use spacetime::{GneitingSpaceTime, SpaceTimeParams};
