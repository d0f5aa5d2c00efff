//! Low-rank factor algebra: the arithmetic of TLR tiles.
//!
//! A TLR tile stores `A ≈ U V^T` with `U (m x k)`, `V (n x k)`. The TLR
//! Cholesky needs products of low-rank and dense operands plus *rounded
//! addition*: sums of low-rank terms are recompressed back to the target
//! accuracy with the classical QR+SVD rounding, which is what keeps ranks —
//! and therefore the memory footprint the paper's Fig. 9 reports — bounded.

use crate::matrix::Matrix;
use crate::qr::householder_qr;
use crate::svd::{jacobi_svd, truncated_svd};
use xgs_kernels::trsm_left_lower_notrans;

/// A low-rank representation `U * V^T`.
#[derive(Clone, Debug)]
pub struct LowRank {
    /// `m x k` left factor (carries the singular-value scaling).
    pub u: Matrix,
    /// `n x k` right factor (orthonormal columns after recompression).
    pub v: Matrix,
}

impl LowRank {
    /// Compress a dense block to absolute Frobenius tolerance `tol` using
    /// the SVD oracle.
    pub fn compress_svd(a: &Matrix, tol: f64) -> LowRank {
        let (u, v, _k) = truncated_svd(a, tol);
        LowRank { u, v }
    }

    /// Compress with ACA followed by a rounding pass (the production path).
    pub fn compress_aca(a: &Matrix, tol: f64) -> LowRank {
        let (u, v) = crate::aca::aca(a, tol, a.rows().min(a.cols()));
        let lr = LowRank { u, v };
        // ACA overshoots rank slightly; round back to the target.
        lr.recompress(tol)
    }

    /// Exact zero block of the given shape (rank 0).
    pub fn zero(m: usize, n: usize) -> LowRank {
        LowRank {
            u: Matrix::zeros(m, 0),
            v: Matrix::zeros(n, 0),
        }
    }

    #[inline]
    pub fn rank(&self) -> usize {
        self.u.cols()
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.u.rows()
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.v.rows()
    }

    /// Dense reconstruction `U V^T`.
    pub fn reconstruct(&self) -> Matrix {
        if self.rank() == 0 {
            return Matrix::zeros(self.rows(), self.cols());
        }
        self.u.matmul_t(&self.v)
    }

    /// Frobenius norm of `U V^T` without reconstruction:
    /// `||U V^T||_F = ||Ru Rv^T||_F` via small QRs.
    pub fn norm_fro(&self) -> f64 {
        if self.rank() == 0 {
            return 0.0;
        }
        let qu = householder_qr(&self.u);
        let qv = householder_qr(&self.v);
        qu.r.matmul_t(&qv.r).norm_fro()
    }

    /// Storage in scalar elements (what the memory-footprint accounting
    /// sums): `k (m + n)`.
    pub fn storage_len(&self) -> usize {
        self.rank() * (self.rows() + self.cols())
    }

    /// Rounding / recompression: re-orthogonalize both factors and truncate
    /// the small core to tolerance `tol` (absolute Frobenius).
    pub fn recompress(&self, tol: f64) -> LowRank {
        let k = self.rank();
        if k == 0 {
            return self.clone();
        }
        let qu = householder_qr(&self.u);
        let qv = householder_qr(&self.v);
        let core = qu.r.matmul_t(&qv.r); // k x k
        let svd = jacobi_svd(&core);
        let r = svd.rank_for_tolerance(tol);
        let mut uc = svd.u.truncate_cols(r);
        for j in 0..r {
            let sj = svd.s[j];
            for x in uc.col_mut(j) {
                *x *= sj;
            }
        }
        let vc = svd.v.truncate_cols(r);
        LowRank {
            u: qu.q.matmul(&uc),
            v: qv.q.matmul(&vc),
        }
    }

    /// Rounded addition `self + alpha * other`, recompressed to `tol`.
    pub fn add_rounded(&self, alpha: f64, other: &LowRank, tol: f64) -> LowRank {
        assert_eq!(self.rows(), other.rows());
        assert_eq!(self.cols(), other.cols());
        if other.rank() == 0 {
            return self.clone();
        }
        if self.rank() == 0 {
            let mut u = other.u.clone();
            u.scale(alpha);
            return LowRank {
                u,
                v: other.v.clone(),
            }
            .recompress(tol);
        }
        let mut ou = other.u.clone();
        ou.scale(alpha);
        let stacked = LowRank {
            u: self.u.hcat(&ou),
            v: self.v.hcat(&other.v),
        };
        stacked.recompress(tol)
    }

    /// `(U V^T) * B` for dense `B` — stays low-rank with the same `U`.
    pub fn matmul_dense(&self, b: &Matrix) -> LowRank {
        assert_eq!(self.cols(), b.rows());
        // (U V^T) B = U (B^T V)^T.
        LowRank {
            u: self.u.clone(),
            v: b.t_matmul(&self.v),
        }
    }

    /// `A * (U V^T)` for dense `A` — stays low-rank with the same `V`.
    pub fn dense_matmul(a: &Matrix, lr: &LowRank) -> LowRank {
        assert_eq!(a.cols(), lr.rows());
        LowRank {
            u: a.matmul(&lr.u),
            v: lr.v.clone(),
        }
    }

    /// `(U1 V1^T) * (U2 V2^T)^T = U1 (V1^T V2) U2^T` — low-rank times
    /// transposed low-rank, the core product of the TLR GEMM in the Cholesky
    /// trailing update (`C -= A_ik * A_jk^T`).
    pub fn matmul_lr_transposed(&self, other: &LowRank) -> LowRank {
        assert_eq!(
            self.cols(),
            other.cols(),
            "inner dims (original columns) must match"
        );
        let k1 = self.rank();
        let k2 = other.rank();
        if k1 == 0 || k2 == 0 {
            return LowRank::zero(self.rows(), other.rows());
        }
        let core = self.v.t_matmul(&other.v); // k1 x k2
        if k1 <= k2 {
            // Fold the core into the right factor: U1 * (U2 core^T)^T.
            LowRank {
                u: self.u.clone(),
                v: other.u.matmul(&core.transpose()),
            }
        } else {
            LowRank {
                u: self.u.matmul(&core),
                v: other.u.clone(),
            }
        }
    }

    /// Apply `L^{-T}` on the right: `(U V^T) L^{-T} = U (L^{-1} V)^T`.
    ///
    /// This is the TLR `TRSM` — note it only touches the (small) `V` factor,
    /// which is why TLR TRSM costs `O(n k^2)` instead of `O(n^3)`.
    pub fn trsm_right_lower_trans(&mut self, l: &Matrix) {
        let n = self.cols();
        assert_eq!(l.shape(), (n, n));
        let k = self.rank();
        if k == 0 {
            return;
        }
        trsm_left_lower_notrans(n, k, 1.0, l.as_slice(), n, self.v.as_mut_slice(), n);
    }

    /// `A - U V^T` applied to a dense accumulator in place:
    /// `c -= alpha * U V^T` (used when a low-rank update hits a dense tile).
    pub fn subtract_from_dense(&self, alpha: f64, c: &mut Matrix) {
        assert_eq!(c.shape(), (self.rows(), self.cols()));
        let k = self.rank();
        if k == 0 {
            return;
        }
        xgs_kernels::gemm(
            xgs_kernels::Trans::No,
            xgs_kernels::Trans::Yes,
            self.rows(),
            self.cols(),
            k,
            -alpha,
            self.u.as_slice(),
            self.rows().max(1),
            self.v.as_slice(),
            self.cols().max(1),
            1.0,
            c.as_mut_slice(),
            self.rows().max(1),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rnd(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(0x5851F42D4C957F2D)
                .wrapping_add(0x14057B7EF767814F);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    fn lowrank(m: usize, n: usize, k: usize, seed: u64) -> LowRank {
        LowRank {
            u: rnd(m, k, seed),
            v: rnd(n, k, seed + 100),
        }
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn norm_matches_dense() {
        let lr = lowrank(14, 9, 3, 1);
        let dense = lr.reconstruct();
        assert!((lr.norm_fro() - dense.norm_fro()).abs() < 1e-10);
    }

    #[test]
    fn recompress_preserves_value_and_reduces_rank() {
        // Rank-2 content stored with redundant rank 6.
        let base = lowrank(12, 10, 2, 2);
        let dense = base.reconstruct();
        let redundant = LowRank {
            u: base.u.hcat(&base.u.clone()).hcat(&base.u.clone()),
            v: base.v.hcat(&base.v.clone()).hcat(&base.v.clone()),
        };
        let r = redundant.recompress(1e-12);
        assert!(r.rank() <= 2, "rank {}", r.rank());
        // value: redundant = 3 * base
        let mut expect = dense.clone();
        expect.scale(3.0);
        assert_close(&r.reconstruct(), &expect, 1e-9);
    }

    #[test]
    fn add_rounded_matches_dense_addition() {
        let a = lowrank(10, 8, 2, 3);
        let b = lowrank(10, 8, 3, 4);
        let sum = a.add_rounded(-0.5, &b, 1e-12);
        let expect = a.reconstruct().add_scaled(-0.5, &b.reconstruct());
        assert_close(&sum.reconstruct(), &expect, 1e-9);
        assert!(sum.rank() <= 5);
    }

    #[test]
    fn add_rounded_handles_zero_ranks() {
        let z = LowRank::zero(6, 5);
        let a = lowrank(6, 5, 2, 5);
        assert_close(
            &z.add_rounded(1.0, &a, 1e-12).reconstruct(),
            &a.reconstruct(),
            1e-10,
        );
        assert_close(
            &a.add_rounded(1.0, &z, 1e-12).reconstruct(),
            &a.reconstruct(),
            1e-10,
        );
    }

    #[test]
    fn products_match_dense_oracle() {
        let a = lowrank(9, 7, 2, 6);
        let b = rnd(7, 5, 7);
        assert_close(
            &a.matmul_dense(&b).reconstruct(),
            &a.reconstruct().matmul(&b),
            1e-10,
        );

        let c = rnd(4, 9, 8);
        assert_close(
            &LowRank::dense_matmul(&c, &a).reconstruct(),
            &c.matmul(&a.reconstruct()),
            1e-10,
        );

        let d = lowrank(6, 7, 3, 9);
        assert_close(
            &a.matmul_lr_transposed(&d).reconstruct(),
            &a.reconstruct().matmul_t(&d.reconstruct()),
            1e-10,
        );
    }

    #[test]
    fn lr_product_rank_is_min_of_operands() {
        let a = lowrank(20, 15, 2, 10);
        let b = lowrank(18, 15, 5, 11);
        assert_eq!(a.matmul_lr_transposed(&b).rank(), 2);
        assert_eq!(b.matmul_lr_transposed(&a).rank(), 2);
    }

    #[test]
    fn trsm_matches_dense_oracle() {
        let n = 8;
        let mut lmat = rnd(n, n, 12);
        for j in 0..n {
            for i in 0..j {
                lmat[(i, j)] = 0.0;
            }
            lmat[(j, j)] = 2.0 + lmat[(j, j)].abs();
        }
        let mut lr = lowrank(10, n, 3, 13);
        let dense = lr.reconstruct();
        lr.trsm_right_lower_trans(&lmat);
        // Oracle: dense * L^{-T} via kernel trsm.
        let mut oracle = dense.clone();
        xgs_kernels::trsm_right_lower_trans(
            10,
            n,
            1.0,
            lmat.as_slice(),
            n,
            oracle.as_mut_slice(),
            10,
        );
        assert_close(&lr.reconstruct(), &oracle, 1e-9);
    }

    #[test]
    fn subtract_from_dense_matches() {
        let lr = lowrank(7, 6, 2, 14);
        let mut c = rnd(7, 6, 15);
        let expect = c.add_scaled(-1.5, &lr.reconstruct());
        lr.subtract_from_dense(1.5, &mut c);
        assert_close(&c, &expect, 1e-10);
    }

    #[test]
    fn compressors_agree_on_smooth_kernel() {
        let a = Matrix::from_fn(32, 32, |i, j| {
            1.0 / (1.0 + (i as f64 / 32.0 - 3.0 - j as f64 / 32.0).abs())
        });
        let tol = 1e-8 * a.norm_fro();
        let svd_lr = LowRank::compress_svd(&a, tol);
        let aca_lr = LowRank::compress_aca(&a, tol);
        let esvd = a.add_scaled(-1.0, &svd_lr.reconstruct()).norm_fro();
        let eaca = a.add_scaled(-1.0, &aca_lr.reconstruct()).norm_fro();
        assert!(esvd <= tol * 1.01);
        assert!(eaca <= tol * 20.0, "ACA err {eaca} vs tol {tol}");
        // Ranks in the same ballpark.
        assert!(aca_lr.rank() <= svd_lr.rank() + 4);
        // The randomized compressor certifies its own residual and still
        // finds the low rank.
        let (u, v, rank) = crate::rsvd_adaptive(&a, tol, 7);
        let ersvd = a.add_scaled(-1.0, &u.matmul_t(&v)).norm_fro();
        assert!(ersvd <= tol * 1.01, "RSVD err {ersvd} vs tol {tol}");
        assert!(rank < 32 && rank <= svd_lr.rank() + 4, "RSVD rank {rank}");
    }
}
