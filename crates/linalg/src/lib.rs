//! LAPACK-like dense layer on top of the raw kernels.
//!
//! Provides the owned column-major [`Matrix`] type plus the numerical tools
//! the tile-low-rank (TLR) machinery needs: in-place Householder QR with
//! `Q` applied implicitly, one-sided Jacobi SVD, adaptive cross
//! approximation (ACA), low-rank factor algebra with QR-based
//! recompression ("rounding"), and a reference dense Cholesky.
//!
//! Everything here is FP64: precision emulation happens one level up, in the
//! tile storage (`xgs-tile`), by rounding buffers *through* FP32/FP16 — the
//! same place the paper's runtime takes its precision decisions.

pub mod aca;
pub mod cholesky;
pub mod lowrank;
pub mod matrix;
pub mod qr;
pub mod rsvd;
pub mod svd;

pub use aca::{aca, aca_partial, BlockEntries};
pub use cholesky::{cholesky_in_place, cholesky_logdet, cholesky_solve, CholeskyError};
pub use lowrank::LowRank;
pub use matrix::Matrix;
pub use qr::{householder_qr, QrFactors};
pub use rsvd::{rsvd_adaptive, rsvd_fixed_rank};
pub use svd::{jacobi_svd, truncated_svd, Svd};
