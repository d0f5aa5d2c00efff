//! Low-rank factor algebra: the arithmetic of TLR tiles.
//!
//! A TLR tile stores `A ≈ U V^T` with `U (m x k)`, `V (n x k)`. The TLR
//! Cholesky needs products of low-rank and dense operands plus *rounded
//! addition*: sums of low-rank terms are recompressed back to the target
//! accuracy with the classical QR+SVD rounding, which is what keeps ranks —
//! and therefore the memory footprint the paper's Fig. 9 reports — bounded.
//!
//! The rounding of `U V^T` (`k` stacked columns) factors both factors in
//! place (`U = Q_u R_u`, `V = Q_v R_v`), takes the SVD of the small core
//! `R_u R_v^T`, truncates it, and maps the kept singular vectors back
//! through the QRs' implicit `Q`s: no thin `Q` is ever formed, and the
//! Frobenius norm needs only the two `R`s.

use crate::matrix::Matrix;
use crate::qr::HouseholderQr;
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
    /// the SVD oracle: the minimal rank at `tol` (Eckart–Young), at the
    /// cost of a one-sided Jacobi SVD of the whole block. No program path
    /// calls it; tests hold the production compressors against it.
    pub fn compress_svd(a: &Matrix, tol: f64) -> LowRank {
        let (u, v, _k) = truncated_svd(a, tol);
        LowRank { u, v }
    }

    /// Compress a dense block with full-pivot ACA followed by a rounding
    /// pass. No program path calls it (tile generation calls
    /// [`LowRank::compress_partial`]); the repository benchmark's
    /// `linalg.aca_*` rows time it.
    pub fn compress_aca(a: &Matrix, tol: f64) -> LowRank {
        let (u, v) = crate::aca::aca(a, tol, a.rows().min(a.cols()));
        let lr = LowRank { u, v };
        // ACA overshoots rank slightly; round back to the target.
        lr.recompress(tol)
    }

    /// Compress a dense block to absolute `tol` when it takes fewer than
    /// `max_rank` crosses: full-pivot ACA to an eighth of `tol` on the
    /// explicit residual, then one rounding with the rest, so
    /// `||A - U V^T||_F <= tol` holds outright. `None` when ACA reaches
    /// `max_rank` crosses below `min(m, n)`, since full pivoting cannot say
    /// whether its last cross met the tolerance.
    pub fn compress_full(a: &Matrix, tol: f64, max_rank: usize) -> Option<LowRank> {
        let limit = max_rank.min(a.rows().min(a.cols()));
        let (u, v) = crate::aca::aca(a, ACA_SHARE * tol, limit);
        if u.cols() == limit && limit < a.rows().min(a.cols()) {
            return None;
        }
        Some(LowRank { u, v }.recompress((1.0 - ACA_SHARE) * tol))
    }

    /// Compress an `m x n` block known only through its entries (see
    /// [`crate::aca::aca_partial`] for `max_rank`) to `rel_tol`
    /// of its own Frobenius norm: partial-pivot ACA to an eighth of that
    /// budget, then one rounding with the rest.
    ///
    /// Returns the rounded factors and `||U V^T||_F` of the crosses before
    /// truncation (the root sum of squares of the rounding core's singular
    /// values), or `None` when ACA takes `max_rank` crosses above the
    /// rounding's tolerance first.
    pub fn compress_partial(
        m: usize,
        n: usize,
        a: &mut impl crate::aca::BlockEntries,
        rel_tol: f64,
        max_rank: usize,
    ) -> Option<(LowRank, f64)> {
        let round_tol = (1.0 - ACA_SHARE) * rel_tol;
        let cap = (round_tol, max_rank);
        let (u, v) = crate::aca::aca_partial(m, n, a, ACA_SHARE * rel_tol, cap)?;
        if u.cols() == 0 {
            return Some((LowRank { u, v }, 0.0));
        }
        Some(round_to(u, v, |norm| round_tol * norm))
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
    /// `||U V^T||_F = ||Ru Rv^T||_F` via the `R`s of two small QRs.
    pub fn norm_fro(&self) -> f64 {
        if self.rank() == 0 {
            return 0.0;
        }
        let ru = HouseholderQr::factor(self.u.clone()).r();
        let rv = HouseholderQr::factor(self.v.clone()).r();
        ru.matmul_t(&rv).norm_fro()
    }

    /// Storage in scalar elements (what the memory-footprint accounting
    /// sums): `k (m + n)`.
    pub fn storage_len(&self) -> usize {
        self.rank() * (self.rows() + self.cols())
    }

    /// Rounding / recompression: QR-factor both factors and truncate the
    /// small core to tolerance `tol` (absolute Frobenius). Total over empty
    /// shapes: a factor with no rows rounds to rank 0.
    pub fn recompress(&self, tol: f64) -> LowRank {
        if self.rank() == 0 {
            return self.clone();
        }
        round(self.u.clone(), self.v.clone(), tol)
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
            return round(u, other.v.clone(), tol);
        }
        let mut ou = other.u.clone();
        ou.scale(alpha);
        round(self.u.hcat(&ou), self.v.hcat(&other.v), tol)
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
}

/// The share of [`LowRank::compress_partial`]'s and
/// [`LowRank::compress_full`]'s tolerance their crosses may leave as
/// residual; the rounding truncates with the rest, so the two errors add up
/// to at most the whole.
const ACA_SHARE: f64 = 0.125;

/// The rounding of `U V^T`, consuming the factors it overwrites. The core
/// `R_u R_v^T` is `min(m, k) x min(n, k)`: square unless a factor is wider
/// than it is tall.
fn round(u: Matrix, v: Matrix, tol: f64) -> LowRank {
    round_to(u, v, |_| tol).0
}

/// [`round`] with the absolute tolerance a function of `||U V^T||_F`, which
/// the core's singular values give for free; returns that norm too.
fn round_to(u: Matrix, v: Matrix, tol_of: impl FnOnce(f64) -> f64) -> (LowRank, f64) {
    let qu = HouseholderQr::factor(u);
    let qv = HouseholderQr::factor(v);
    let svd = jacobi_svd(&qu.r().matmul_t(&qv.r()));
    let norm = svd.s.iter().map(|s| s * s).sum::<f64>().sqrt();
    let r = svd.rank_for_tolerance(tol_of(norm));
    let mut uc = svd.u.truncate_cols(r);
    for j in 0..r {
        let sj = svd.s[j];
        for x in uc.col_mut(j) {
            *x *= sj;
        }
    }
    let lr = LowRank {
        u: qu.apply_q(&uc),
        v: qv.apply_q(&svd.v.truncate_cols(r)),
    };
    (lr, norm)
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

    /// The rounding this module replaced, kept as the oracle: explicit thin
    /// `Q`s, the square core's SVD preconditioned by a third explicit-`Q`
    /// QR, and the kept singular vectors multiplied by the explicit `Q`s.
    fn oracle_recompress(lr: &LowRank, tol: f64) -> LowRank {
        use crate::qr::tests::explicit_q_qr;
        let qu = explicit_q_qr(&lr.u);
        let qv = explicit_q_qr(&lr.v);
        let core = qu.r.matmul_t(&qv.r);
        let svd = if core.rows() == core.cols() {
            let pre = explicit_q_qr(&core);
            let svd = jacobi_svd(&pre.r);
            crate::svd::Svd {
                u: pre.q.matmul(&svd.u),
                ..svd
            }
        } else {
            jacobi_svd(&core)
        };
        let r = svd.rank_for_tolerance(tol);
        let mut uc = svd.u.truncate_cols(r);
        for j in 0..r {
            let sj = svd.s[j];
            for x in uc.col_mut(j) {
                *x *= sj;
            }
        }
        LowRank {
            u: qu.q.matmul(&uc),
            v: qv.q.matmul(&svd.v.truncate_cols(r)),
        }
    }

    /// `U` scaled by a decaying spectrum, so that rounding truncates.
    fn decaying(m: usize, n: usize, k: usize, seed: u64) -> LowRank {
        let mut lr = lowrank(m, n, k, seed);
        for j in 0..k {
            let d = 10f64.powf(-(j as f64) / 3.0);
            for x in lr.u.col_mut(j) {
                *x *= d;
            }
        }
        lr
    }

    /// `||U V^T - U' V'^T||_F <= tol + c eps ||U V^T||_F`, a rank no larger
    /// than the oracle's, and the oracle within the same bound.
    fn assert_rounds_like_the_oracle(lr: &LowRank, tol: f64, label: &str) {
        let dense = lr.reconstruct();
        let slack = 100.0 * f64::EPSILON * dense.norm_fro();
        let got = lr.recompress(tol);
        let want = oracle_recompress(lr, tol);
        assert_eq!((got.rows(), got.cols()), (lr.rows(), lr.cols()), "{label}");
        let err = dense.add_scaled(-1.0, &got.reconstruct()).norm_fro();
        assert!(
            err <= tol + slack,
            "{label}: err {err} > tol {tol} + {slack}"
        );
        let oracle_err = dense.add_scaled(-1.0, &want.reconstruct()).norm_fro();
        assert!(
            oracle_err <= tol + slack,
            "{label}: oracle err {oracle_err}"
        );
        assert!(
            got.rank() <= want.rank(),
            "{label}: rank {} > oracle's {}",
            got.rank(),
            want.rank()
        );
    }

    #[test]
    fn rounding_matches_the_oracle_on_stacked_shapes() {
        for k in 1..=40 {
            let lr = decaying(100, 100, k, 1000 + k as u64);
            let norm = lr.reconstruct().norm_fro();
            for rel in [1e-8, 1e-3] {
                assert_rounds_like_the_oracle(&lr, rel * norm, &format!("100x{k} at {rel}"));
            }
        }
    }

    #[test]
    fn rounding_matches_the_oracle_on_wide_factors() {
        // More stacked columns than rows: the core is not square.
        for (m, n, k) in [(10, 100, 40), (100, 10, 40), (7, 9, 12), (3, 3, 3)] {
            let lr = decaying(m, n, k, 2000 + k as u64);
            let norm = lr.reconstruct().norm_fro();
            assert_rounds_like_the_oracle(&lr, 1e-8 * norm, &format!("{m}x{n} rank {k}"));
            assert!(lr.recompress(1e-12 * norm).rank() <= m.min(n));
        }
    }

    #[test]
    fn rounding_handles_duplicated_and_zero_columns() {
        let base = lowrank(100, 80, 6, 3000);
        let dup = LowRank {
            u: base.u.hcat(&base.u),
            v: base.v.hcat(&base.v),
        };
        let norm = dup.reconstruct().norm_fro();
        assert_rounds_like_the_oracle(&dup, 1e-10 * norm, "duplicated");
        assert_eq!(dup.recompress(1e-10 * norm).rank(), 6);

        let zeros = LowRank {
            u: base.u.hcat(&Matrix::zeros(100, 3)),
            v: base.v.hcat(&rnd(80, 3, 3001)),
        };
        assert_rounds_like_the_oracle(&zeros, 1e-10 * norm, "zero columns");
        assert_eq!(zeros.recompress(1e-10 * norm).rank(), 6);

        let all_zero = LowRank {
            u: Matrix::zeros(100, 4),
            v: rnd(80, 4, 3002),
        };
        assert_eq!(all_zero.recompress(1e-12).rank(), 0);
        assert_eq!(all_zero.norm_fro(), 0.0);
    }

    #[test]
    fn exactly_rank_deficient_sums() {
        let a = lowrank(100, 90, 8, 4000);
        let norm = a.reconstruct().norm_fro();
        // a - a is zero: nothing survives any positive tolerance.
        let zero = a.add_rounded(-1.0, &a, 1e-12 * norm);
        assert_eq!(zero.rank(), 0, "a - a kept rank {}", zero.rank());
        // a + a and a + 2a stay rank 8.
        let twice = a.add_rounded(1.0, &a, 1e-12 * norm);
        assert_eq!(twice.rank(), 8);
        let mut expect = a.reconstruct();
        expect.scale(2.0);
        assert!(expect.add_scaled(-1.0, &twice.reconstruct()).norm_fro() <= 1e-12 * norm * 3.0);
        let thrice = twice.add_rounded(1.0, &a, 1e-12 * norm);
        assert_eq!(thrice.rank(), 8);
    }

    #[test]
    fn rounding_is_total_over_empty_shapes() {
        // Rank > 0 factors of a 0 x n, m x 0 or 0 x 0 block: the value is
        // empty, so the rounding keeps nothing.
        for (m, n) in [(0, 5), (5, 0), (0, 0)] {
            let lr = LowRank {
                u: Matrix::zeros(m, 3),
                v: Matrix::zeros(n, 3),
            };
            let r = lr.recompress(1e-12);
            assert_eq!((r.rows(), r.cols(), r.rank()), (m, n, 0), "{m}x{n}");
            assert_eq!(lr.norm_fro(), 0.0);
            let sum = lr.add_rounded(1.0, &lr, 1e-12);
            assert_eq!((sum.rows(), sum.cols(), sum.rank()), (m, n, 0), "{m}x{n}");
        }
    }

    #[test]
    fn norm_from_the_rs_matches_dense_on_stacked_shapes() {
        for k in [1, 7, 16, 32, 40] {
            let lr = decaying(100, 100, k, 5000 + k as u64);
            let dense = lr.reconstruct().norm_fro();
            assert!((lr.norm_fro() - dense).abs() <= 1e-13 * dense, "rank {k}");
        }
    }

    #[test]
    fn partial_compression_rounds_within_its_tolerance() {
        let a = Matrix::from_fn(100, 90, |i, j| {
            1.0 / (1.0 + (i as f64 / 100.0 - 3.0 - j as f64 / 90.0).abs())
        });
        let norm = a.norm_fro();
        for rel in [1e-6, 1e-8, 1e-10] {
            let (lr, crosses_norm) =
                LowRank::compress_partial(100, 90, &mut a.clone(), rel, 90).unwrap();
            let err = a.add_scaled(-1.0, &lr.reconstruct()).norm_fro();
            assert!(err <= rel * norm, "at {rel}: err {err}");
            // The norm the §VI-C rule reads is the tile's within the bound.
            assert!((crosses_norm - norm).abs() <= rel * norm, "at {rel}");
            // The rounding keeps at most two more than the minimal rank.
            let minimal = LowRank::compress_svd(&a, rel * norm).rank();
            assert!(
                lr.rank() <= minimal + 2,
                "at {rel}: {} vs {minimal}",
                lr.rank()
            );
        }
        // Past the cap: no tile.
        assert!(LowRank::compress_partial(100, 90, &mut a.clone(), 1e-10, 3).is_none());
        // The dense twin holds the same bound outright, and the same cap.
        for rel in [1e-6, 1e-8, 1e-10] {
            let lr = LowRank::compress_full(&a, rel * norm, 90).unwrap();
            let err = a.add_scaled(-1.0, &lr.reconstruct()).norm_fro();
            assert!(err <= rel * norm, "full at {rel}: err {err}");
        }
        assert!(LowRank::compress_full(&a, 1e-10 * norm, 3).is_none());
        // An all-zero block is rank 0 with norm 0.
        let (z, zn) = LowRank::compress_partial(10, 8, &mut Matrix::zeros(10, 8), 1e-8, 8).unwrap();
        assert_eq!((z.rank(), zn), (0, 0.0));
    }
}
