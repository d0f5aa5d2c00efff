//! From-scratch BLAS-like tile kernels for the mixed-precision tile Cholesky.
//!
//! This crate is the lowest substrate of the reproduction: LAPACK/BLAS-style
//! dense kernels (`GEMM`, `SYRK`, `TRSM`, `POTRF`) operating on column-major
//! slices, in three arithmetics:
//!
//! * **FP64** — the reference precision of the paper's dense variant,
//! * **FP32** — the intermediate precision,
//! * **FP16** — emulated IEEE binary16 ([`half::Half`]). Multiplication
//!   operands are *trimmed* to binary16 and products are accumulated in FP32,
//!   matching the paper's SHGEMM semantics (§VI-E and Fig. 8: "we trim the
//!   operands of the GEMM kernel to FP16 and call an SGEMM BLAS routine to
//!   accumulate in FP32").
//!
//! All matrices are column-major with an explicit leading dimension, exactly
//! like LAPACK, so a tile is addressed as `a[i + j * lda]`.

pub mod convert;
pub mod gemm;
pub mod half;
pub mod mixed;
pub mod potrf;
pub mod precision;
mod simd;
pub mod syrk;
pub mod trsm;

pub use gemm::{gemm, shgemm, Trans};
pub use half::Half;
pub use potrf::{potrf, PotrfError};
pub use precision::Precision;
pub use simd::{dispatch, dot_lanes, gram_lanes, Avx2};
pub use syrk::syrk_lower_notrans;
pub use trsm::{trsm_left_lower_notrans, trsm_left_lower_trans, trsm_right_lower_trans};

/// A real scalar type usable by the generic kernels (FP64 or FP32).
///
/// FP16 is intentionally *not* a `Real`: the emulated binary16 kernels
/// always accumulate in FP32 (see [`gemm::shgemm`]), so there is no
/// "pure f16" arithmetic anywhere, mirroring the paper's observation that
/// Fugaku's pure-FP16 HGEMM is unusable for MLE and FP32 accumulation is
/// required.
///
/// Sealed: the packed GEMM needs a register tile and pack buffers per
/// precision, which only this crate provides.
pub trait Real:
    simd::Micro
    + Copy
    + Send
    + Sync
    + PartialOrd
    + std::fmt::Debug
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Neg<Output = Self>
    + std::ops::AddAssign
    + std::ops::SubAssign
    + 'static
{
    const ZERO: Self;
    const ONE: Self;
    const PRECISION: Precision;
    fn from_f64(x: f64) -> Self;
    fn to_f64(self) -> f64;
    fn sqrt(self) -> Self;
    fn abs(self) -> Self;
    fn mul_add(self, a: Self, b: Self) -> Self;
}

impl Real for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const PRECISION: Precision = Precision::F64;
    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
}

impl Real for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const PRECISION: Precision = Precision::F32;
    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }
}

/// Number of floating-point operations of a real `m x n x k` GEMM
/// (`C <- alpha*A*B + beta*C`): `2mnk` plus lower-order terms, the
/// convention used throughout the paper's performance model.
#[inline]
pub fn gemm_flops(m: usize, n: usize, k: usize) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}

/// Flops of a Cholesky factorization of an `n x n` matrix: `n^3/3`.
#[inline]
pub fn potrf_flops(n: usize) -> f64 {
    let n = n as f64;
    n * n * n / 3.0
}

/// Flops of a triangular solve with an `m x m` triangle and `n` right-hand
/// sides: `m^2 n`.
#[inline]
pub fn trsm_flops(m: usize, n: usize) -> f64 {
    m as f64 * m as f64 * n as f64
}

/// Flops of a symmetric rank-k update `C(nxn) <- C - A(nxk) A^T`: `n^2 k`.
#[inline]
pub fn syrk_flops(n: usize, k: usize) -> f64 {
    n as f64 * n as f64 * k as f64
}
