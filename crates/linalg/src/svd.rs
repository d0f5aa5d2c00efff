//! Singular value decomposition via one-sided Jacobi.
//!
//! One-sided Jacobi is simple, numerically robust, and plenty fast for the
//! tile sizes TLR compression works on (tens to a few hundred); it is the
//! oracle against which the faster ACA compressor is validated, and the
//! engine of the low-rank recompression ("rounding") step, whose input on
//! TLR tiles is a square core a few dozen columns wide. A square input is
//! rotated as it is; a tall one is reduced to its `R` first, and `U` comes
//! back through the QR's implicit `Q`. Each column pair's three Gram
//! entries come from one four-lane pass, and the sweeps run on the AVX2
//! side of [`xgs_kernels::dispatch`] (bitwise the plain side).

use crate::matrix::{norm2_scaled, Matrix};
use crate::qr::HouseholderQr;
use xgs_kernels::{dispatch, gram_lanes, Avx2};

/// Thin SVD: `A (m x n) = U (m x k) * diag(s) * V^T (k x n)`, `k = min(m,n)`,
/// singular values sorted descending.
pub struct Svd {
    pub u: Matrix,
    pub s: Vec<f64>,
    pub v: Matrix,
}

impl Svd {
    /// Reassemble `U * diag(s) * V^T`.
    pub fn reconstruct(&self) -> Matrix {
        let k = self.s.len();
        let mut us = self.u.clone();
        for j in 0..k {
            let sj = self.s[j];
            for x in us.col_mut(j) {
                *x *= sj;
            }
        }
        us.matmul_t(&self.v)
    }

    /// Smallest rank whose tail of singular values satisfies
    /// `sqrt(sum_{i>=r} s_i^2) <= tol` (absolute Frobenius tolerance).
    pub fn rank_for_tolerance(&self, tol: f64) -> usize {
        let mut tail = 0.0f64;
        // Walk from the smallest singular value backwards.
        let mut r = self.s.len();
        while r > 0 {
            let cand = tail + self.s[r - 1] * self.s[r - 1];
            if cand.sqrt() > tol {
                break;
            }
            tail = cand;
            r -= 1;
        }
        r
    }
}

/// One-sided Jacobi SVD.
///
/// A tall input is QR-preconditioned to an `n x n` problem; a square one
/// is rotated directly. Sweeps rotate column pairs until all off-diagonal
/// Gram entries are negligible.
pub fn jacobi_svd(a: &Matrix) -> Svd {
    let (m, n) = a.shape();
    if m < n {
        // Work on the transpose and swap U/V.
        let svd = jacobi_svd(&a.transpose());
        return Svd {
            u: svd.v,
            s: svd.s,
            v: svd.u,
        };
    }
    if n == 0 {
        return Svd {
            u: Matrix::zeros(m, 0),
            s: vec![],
            v: Matrix::zeros(0, 0),
        };
    }

    // Tall: A = Q R, SVD of R (n x n), U = Q * U_r. Square: SVD of A.
    let qr = (m > n).then(|| HouseholderQr::factor(a.clone()));
    // n x n working copy, columns become U*S.
    let mut w = match &qr {
        Some(qr) => qr.r(),
        None => a.clone(),
    };
    let mut v = Matrix::identity(n);
    dispatch(
        #[inline(always)]
        |simd| sweeps(simd, &mut w, &mut v),
    );

    // Column norms are the singular values; normalize to get U_r.
    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<f64> = (0..n).map(|j| norm2_scaled(w.col(j))).collect();
    order.sort_by(|&i, &j| norms[j].total_cmp(&norms[i]));

    let mut s = Vec::with_capacity(n);
    let mut ur = Matrix::zeros(n, n);
    let mut vs = Matrix::zeros(n, n);
    for (new_j, &old_j) in order.iter().enumerate() {
        let sj = norms[old_j];
        s.push(sj);
        if sj > 0.0 {
            let inv = 1.0 / sj;
            for (dst, src) in ur.col_mut(new_j).iter_mut().zip(w.col(old_j)) {
                *dst = src * inv;
            }
        }
        vs.col_mut(new_j).copy_from_slice(v.col(old_j));
    }

    Svd {
        u: match qr {
            Some(qr) => qr.apply_q(&ur),
            None => ur,
        },
        s,
        v: vs,
    }
}

/// Jacobi sweeps over the columns of the square `w`, the rotations
/// accumulated into `v`.
#[inline(always)]
fn sweeps(simd: Option<Avx2>, w: &mut Matrix, v: &mut Matrix) {
    let n = w.cols();
    let eps = f64::EPSILON;
    let max_sweeps = 60;
    for _sweep in 0..max_sweeps {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                // Gram entries of columns p, q, in one pass.
                let [app, aqq, apq] = match simd {
                    Some(s) => s.gram_f64(w.col(p), w.col(q)),
                    None => gram_lanes(w.col(p), w.col(q)),
                };
                let denom = (app * aqq).sqrt();
                if denom > 0.0 {
                    off = off.max(apq.abs() / denom);
                }
                if apq.abs() <= eps * denom || denom == 0.0 {
                    continue;
                }
                // Jacobi rotation zeroing the (p,q) Gram entry.
                let zeta = (aqq - app) / (2.0 * apq);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                rotate_cols(w, p, q, c, s);
                rotate_cols(v, p, q, c, s);
            }
        }
        if off <= eps * 8.0 {
            break;
        }
    }
}

#[inline(always)]
fn rotate_cols(m: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    let rows = m.rows();
    let (pc, qc) = {
        let data = m.as_mut_slice();
        let (lo, hi) = if p < q {
            let (a, b) = data.split_at_mut(q * rows);
            (&mut a[p * rows..p * rows + rows], &mut b[..rows])
        } else {
            let (a, b) = data.split_at_mut(p * rows);
            (&mut b[..rows], &mut a[q * rows..q * rows + rows])
        };
        (lo, hi)
    };
    for (x, y) in pc.iter_mut().zip(qc.iter_mut()) {
        let xp = c * *x - s * *y;
        let yq = s * *x + c * *y;
        *x = xp;
        *y = yq;
    }
}

/// Rank-truncated SVD approximation to absolute Frobenius tolerance `tol`:
/// returns `(U*sqrt(S), V*sqrt(S))`-style factors — concretely `(U_k scaled
/// by s_k, V_k)` such that `A ≈ U V^T` — along with the chosen rank.
///
/// This is the compression oracle: `||A - U V^T||_F <= tol` by the
/// Eckart–Young theorem.
pub fn truncated_svd(a: &Matrix, tol: f64) -> (Matrix, Matrix, usize) {
    let svd = jacobi_svd(a);
    let k = svd.rank_for_tolerance(tol);
    let mut u = svd.u.truncate_cols(k);
    let v = svd.v.truncate_cols(k);
    for j in 0..k {
        let sj = svd.s[j];
        for x in u.col_mut(j) {
            *x *= sj;
        }
    }
    (u, v, k)
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

    #[test]
    fn reconstructs_random_square() {
        let a = rnd(9, 9, 1);
        let svd = jacobi_svd(&a);
        let r = svd.reconstruct();
        for (x, y) in r.as_slice().iter().zip(a.as_slice()) {
            assert!((x - y).abs() < 1e-11);
        }
    }

    #[test]
    fn reconstructs_tall_and_wide() {
        for (m, n, seed) in [(12, 5, 2), (5, 12, 3)] {
            let a = rnd(m, n, seed);
            let svd = jacobi_svd(&a);
            assert_eq!(svd.u.shape(), (m, m.min(n)));
            assert_eq!(svd.v.shape(), (n, m.min(n)));
            let r = svd.reconstruct();
            for (x, y) in r.as_slice().iter().zip(a.as_slice()) {
                assert!((x - y).abs() < 1e-11);
            }
        }
    }

    #[test]
    fn singular_values_sorted_and_nonnegative() {
        let a = rnd(10, 7, 4);
        let svd = jacobi_svd(&a);
        for w in svd.s.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(svd.s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn orthonormal_factors() {
        let a = rnd(8, 6, 5);
        let svd = jacobi_svd(&a);
        let utu = svd.u.t_matmul(&svd.u);
        let vtv = svd.v.t_matmul(&svd.v);
        let i = Matrix::identity(6);
        for (x, y) in utu.as_slice().iter().zip(i.as_slice()) {
            assert!((x - y).abs() < 1e-11);
        }
        for (x, y) in vtv.as_slice().iter().zip(i.as_slice()) {
            assert!((x - y).abs() < 1e-11);
        }
    }

    #[test]
    fn recovers_known_singular_values() {
        // Diagonal matrix: singular values are |diag| sorted.
        let mut a = Matrix::zeros(5, 5);
        let d = [3.0, -7.0, 0.5, 2.0, 0.0];
        for (i, &v) in d.iter().enumerate() {
            a[(i, i)] = v;
        }
        let svd = jacobi_svd(&a);
        let expect = [7.0, 3.0, 2.0, 0.5, 0.0];
        for (got, want) in svd.s.iter().zip(&expect) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn exact_low_rank_is_detected() {
        // Rank-3 matrix built from outer products.
        let u = rnd(20, 3, 6);
        let v = rnd(15, 3, 7);
        let a = u.matmul_t(&v);
        let svd = jacobi_svd(&a);
        assert!(svd.s[2] > 1e-8);
        assert!(svd.s[3] < 1e-10 * svd.s[0]);
        let r = svd.rank_for_tolerance(1e-8 * svd.s[0]);
        assert_eq!(r, 3);
    }

    #[test]
    fn truncated_svd_meets_tolerance() {
        let a = rnd(16, 16, 8);
        let tol = 0.3 * a.norm_fro();
        let (u, v, k) = truncated_svd(&a, tol);
        assert!(k < 16);
        let err = a.add_scaled(-1.0, &u.matmul_t(&v)).norm_fro();
        assert!(err <= tol * (1.0 + 1e-10), "err {err} > tol {tol}");
    }

    #[test]
    fn truncated_svd_zero_tolerance_keeps_full_rank() {
        let a = rnd(6, 6, 9);
        let (u, v, k) = truncated_svd(&a, 0.0);
        assert_eq!(k, 6);
        let err = a.add_scaled(-1.0, &u.matmul_t(&v)).norm_fro();
        assert!(err < 1e-11);
    }

    #[test]
    fn rank_for_tolerance_edges() {
        let svd = Svd {
            u: Matrix::identity(3),
            s: vec![4.0, 2.0, 1.0],
            v: Matrix::identity(3),
        };
        assert_eq!(svd.rank_for_tolerance(0.5), 3);
        assert_eq!(svd.rank_for_tolerance(1.0), 2);
        // sqrt(1+4) ~ 2.236
        assert_eq!(svd.rank_for_tolerance(2.3), 1);
        assert_eq!(svd.rank_for_tolerance(100.0), 0);
    }

    #[test]
    fn square_input_matches_the_preconditioned_route() {
        // The square path rotates A itself; the old one rotated A's R and
        // mapped U back through Q. Same singular values, both orthonormal.
        for (n, seed) in [(1, 20), (5, 21), (17, 22), (32, 23)] {
            let a = rnd(n, n, seed);
            let direct = jacobi_svd(&a);
            let qr = crate::householder_qr(&a);
            let via_r = jacobi_svd(&qr.r);
            for (x, y) in direct.s.iter().zip(&via_r.s) {
                assert!((x - y).abs() <= 1e-13 * direct.s[0], "n {n}: {x} vs {y}");
            }
            let r = direct.reconstruct();
            for (x, y) in r.as_slice().iter().zip(a.as_slice()) {
                assert!((x - y).abs() < 1e-12, "n {n}");
            }
            let utu = direct.u.t_matmul(&direct.u);
            for (x, y) in utu.as_slice().iter().zip(Matrix::identity(n).as_slice()) {
                assert!((x - y).abs() < 1e-12, "n {n}");
            }
        }
    }

    #[test]
    fn seam_is_bitwise_invisible() {
        let Some(simd) = xgs_kernels::Avx2::detect() else {
            return; // no fast side on this CPU
        };
        for (n, seed) in [(1, 30), (2, 31), (5, 32), (17, 33), (32, 34), (41, 35)] {
            let a = rnd(n, n, seed);
            let (mut w_plain, mut v_plain) = (a.clone(), Matrix::identity(n));
            let (mut w_fast, mut v_fast) = (a.clone(), Matrix::identity(n));
            sweeps(None, &mut w_plain, &mut v_plain);
            simd.run(
                #[inline(always)]
                || sweeps(Some(simd), &mut w_fast, &mut v_fast),
            );
            let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&w_plain), bits(&w_fast), "w, n {n}");
            assert_eq!(bits(&v_plain), bits(&v_fast), "v, n {n}");
        }
    }
}
