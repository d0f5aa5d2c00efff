//! Householder QR factorization, in place, with `Q` applied implicitly.
//!
//! `HouseholderQr::factor` overwrites its matrix the LAPACK (`dgeqr2`)
//! way: `R` on and above the diagonal, the tail of reflector `j` below the
//! diagonal of column `j` (its leading 1 implicit) and `tau_j` aside, so
//! that `Q = H_0 H_1 ⋯ H_{k-1}` with `H_j = I - tau_j v_j v_j^T`. Nothing
//! is allocated per column, and the dot/axpy loops run four lanes wide on
//! the AVX2 side of [`xgs_kernels::dispatch`] (the dot through
//! [`Avx2::dot_f64`]), bitwise the plain side.
//!
//! The low-rank rounding (`LowRank::recompress`) never forms `Q`:
//! `HouseholderQr::apply_q` applies the reflectors to the kept `k × r`
//! singular vectors of its core. [`householder_qr`]'s explicit thin `Q` is
//! the same `apply_q` on the identity, for the callers that want `Q`
//! itself (the randomized range finder).

use crate::matrix::{norm2_scaled, Matrix};
use xgs_kernels::{dispatch, dot_lanes, Avx2};

/// Thin QR factors: `A (m x n) = Q (m x k) * R (k x n)` with `k = min(m,n)`.
pub struct QrFactors {
    pub q: Matrix,
    pub r: Matrix,
}

/// A Householder QR held in factored form (see the module docs).
pub(crate) struct HouseholderQr {
    /// `m x n`: `R` on and above the diagonal, reflector tails below it.
    a: Matrix,
    /// `tau_j` of each of the `min(m, n)` reflectors (0 for `H_j = I`).
    taus: Vec<f64>,
}

impl HouseholderQr {
    /// Factor `a` in place. Total over empty shapes: a `0 x n` or `m x 0`
    /// matrix has no reflectors.
    pub fn factor(mut a: Matrix) -> HouseholderQr {
        let m = a.rows();
        let mut taus = vec![0.0; m.min(a.cols())];
        dispatch(
            #[inline(always)]
            |simd| factor_in_place(simd, m, a.as_mut_slice(), &mut taus),
        );
        HouseholderQr { a, taus }
    }

    /// `k = min(m, n)`: the rows of `R` and the columns of the thin `Q`.
    pub fn k(&self) -> usize {
        self.taus.len()
    }

    /// The `k x n` upper-triangular factor.
    pub fn r(&self) -> Matrix {
        let k = self.k();
        let mut r = Matrix::zeros(k, self.a.cols());
        for j in 0..self.a.cols() {
            let top = (j + 1).min(k);
            r.col_mut(j)[..top].copy_from_slice(&self.a.col(j)[..top]);
        }
        r
    }

    /// `Q c` for a `k x r` block `c`: the thin `Q` times `c`, an `m x r`
    /// matrix, made by applying the reflectors to `c` padded with zero
    /// rows (`4 m k r` flops) without forming `Q`.
    pub fn apply_q(&self, c: &Matrix) -> Matrix {
        let (m, k) = (self.a.rows(), self.k());
        assert_eq!(c.rows(), k, "apply_q takes a k x r block");
        let mut y = Matrix::zeros(m, c.cols());
        if m == 0 {
            return y;
        }
        for j in 0..c.cols() {
            y.col_mut(j)[..k].copy_from_slice(c.col(j));
        }
        dispatch(
            #[inline(always)]
            |simd| apply_reflectors(simd, m, self.a.as_slice(), &self.taus, y.as_mut_slice()),
        );
        y
    }
}

/// Householder QR with explicit thin `Q`: `HouseholderQr::apply_q` on the
/// `k x k` identity.
pub fn householder_qr(a: &Matrix) -> QrFactors {
    let qr = HouseholderQr::factor(a.clone());
    QrFactors {
        q: qr.apply_q(&Matrix::identity(qr.k())),
        r: qr.r(),
    }
}

/// The factorization loop over a column-major `m x n` buffer with one
/// `tau` slot per reflector: build reflector `j` from column `j` below the
/// diagonal, then apply it to each trailing column (`s = tau (c_j + v·c)`,
/// `c -= s v`).
#[inline(always)]
fn factor_in_place(simd: Option<Avx2>, m: usize, a: &mut [f64], taus: &mut [f64]) {
    for (j, tau) in taus.iter_mut().enumerate() {
        let (head, trailing) = a.split_at_mut((j + 1) * m);
        let col = &mut head[j * m + j..];
        *tau = make_householder(simd, col);
        if *tau == 0.0 {
            continue;
        }
        let v = &col[1..];
        for c in trailing.chunks_exact_mut(m) {
            reflect(simd, *tau, v, &mut c[j..]);
        }
    }
}

/// `y ← H_0 ⋯ H_{k-1} y` for the `m`-row column-major block `y`, the
/// reflectors applied last to first.
#[inline(always)]
fn apply_reflectors(simd: Option<Avx2>, m: usize, a: &[f64], taus: &[f64], y: &mut [f64]) {
    for (j, &tau) in taus.iter().enumerate().rev() {
        if tau == 0.0 {
            continue;
        }
        let v = &a[j * m + j + 1..(j + 1) * m];
        for c in y.chunks_exact_mut(m) {
            reflect(simd, tau, v, &mut c[j..]);
        }
    }
}

/// `c ← (I - tau [1; v] [1; v]^T) c` for one column segment `c` of length
/// `1 + v.len()`.
#[inline(always)]
fn reflect(simd: Option<Avx2>, tau: f64, v: &[f64], c: &mut [f64]) {
    let (c0, rest) = c.split_at_mut(1);
    let s = tau * (c0[0] + dot(simd, v, rest));
    c0[0] -= s;
    for (ci, vi) in rest.iter_mut().zip(v) {
        *ci -= s * vi;
    }
}

/// `x·y`, four lanes wide on the side of the seam `simd` names:
/// [`Avx2::dot_f64`] with the token, its plain twin [`dot_lanes`] without.
/// The two give the same bits.
#[inline(always)]
fn dot(simd: Option<Avx2>, x: &[f64], y: &[f64]) -> f64 {
    match simd {
        Some(s) => s.dot_f64(x, y),
        None => dot_lanes(x, y),
    }
}

/// Sums of squares at or above this are normal numbers, and the squares
/// that fell below the normal range on the way changed them by far less
/// than a rounding; below it a sum may have lost its small entries.
const SAFE_SUM_SQ: f64 = f64::MIN_POSITIVE / f64::EPSILON;

/// Two-norm of a column tail: the root of its four-lane sum of squares
/// where that cannot have over- or underflowed, LAPACK's scaled loop
/// otherwise (and for a zero tail).
#[inline(always)]
fn norm2(simd: Option<Avx2>, x: &[f64]) -> f64 {
    let sum_sq = dot(simd, x, x);
    if sum_sq.is_finite() && sum_sq >= SAFE_SUM_SQ {
        sum_sq.sqrt()
    } else {
        norm2_scaled(x)
    }
}

/// Turn `x` into a Householder vector in place (LAPACK `dlarfg` style):
/// on return `x[0]` holds the resulting `R` diagonal entry, `x[1..]` the
/// reflector tail (with implicit leading 1); returns `tau`, 0 when `x` is
/// already zero below its head (the reflector is the identity).
#[inline(always)]
fn make_householder(simd: Option<Avx2>, x: &mut [f64]) -> f64 {
    let Some((head, tail)) = x.split_first_mut() else {
        return 0.0;
    };
    let xnorm = norm2(simd, tail);
    if xnorm == 0.0 {
        return 0.0;
    }
    let alpha = *head;
    let beta = -alpha.hypot(xnorm).copysign(alpha);
    let inv = 1.0 / (alpha - beta);
    for t in tail {
        *t *= inv;
    }
    *head = beta;
    (beta - alpha) / beta
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The explicit-`Q` Householder loop this module replaced, kept as the
    /// oracle: a fresh copy of the reflector per (column, trailing column)
    /// pair, the thin `Q` formed in full. Not total over `0 x n` inputs.
    #[allow(clippy::needless_range_loop)]
    pub(crate) fn explicit_q_qr(a: &Matrix) -> QrFactors {
        let (m, n) = a.shape();
        let k = m.min(n);
        let mut r = a.clone();
        // Householder vectors stored below the diagonal of `r`, taus aside
        // (H_j = I - tau_j v_j v_j^T).
        let mut taus = vec![0.0f64; k];

        for j in 0..k {
            // Build the reflector from r[j.., j].
            let (tau, _rdiag) = {
                let col = &mut r.as_mut_slice()[j * m + j..(j + 1) * m];
                make_householder_oracle(col)
            };
            taus[j] = tau;
            // Apply to trailing columns: r[j.., j+1..] -= tau * v (v^T r).
            if tau != 0.0 {
                for c in j + 1..n {
                    let mut dot = 0.0;
                    {
                        let vcol = &r.as_slice()[j * m + j..(j + 1) * m];
                        let ccol = &r.as_slice()[c * m + j..(c + 1) * m];
                        // v[0] is implicitly 1.
                        dot += ccol[0];
                        for t in 1..vcol.len() {
                            dot += vcol[t] * ccol[t];
                        }
                    }
                    let scaled = tau * dot;
                    // Split borrows: v lives in column j, target in column c.
                    let (vcopy, clen) = {
                        let vcol = &r.as_slice()[j * m + j..(j + 1) * m];
                        (vcol.to_vec(), m - j)
                    };
                    let ccol = &mut r.as_mut_slice()[c * m + j..c * m + j + clen];
                    ccol[0] -= scaled;
                    for t in 1..clen {
                        ccol[t] -= scaled * vcopy[t];
                    }
                }
            }
        }

        // Accumulate thin Q by applying reflectors to the first k columns of I,
        // in reverse order.
        let mut q = Matrix::zeros(m, k);
        for j in 0..k {
            q[(j, j)] = 1.0;
        }
        for j in (0..k).rev() {
            let tau = taus[j];
            if tau == 0.0 {
                continue;
            }
            let vcopy: Vec<f64> = r.as_slice()[j * m + j..(j + 1) * m].to_vec();
            for c in 0..k {
                let ccol = &mut q.as_mut_slice()[c * m + j..(c + 1) * m];
                let mut dot = ccol[0];
                for t in 1..vcopy.len() {
                    dot += vcopy[t] * ccol[t];
                }
                let scaled = tau * dot;
                ccol[0] -= scaled;
                for t in 1..vcopy.len() {
                    ccol[t] -= scaled * vcopy[t];
                }
            }
        }

        // Extract upper-triangular R (k x n).
        let mut rr = Matrix::zeros(k, n);
        for j in 0..n {
            for i in 0..=j.min(k - 1) {
                rr[(i, j)] = r[(i, j)];
            }
        }
        QrFactors { q, r: rr }
    }

    /// Turn `x` into a Householder vector in place (LAPACK `dlarfg` style):
    /// on return `x[0]` holds the resulting `R` diagonal entry, `x[1..]` the
    /// reflector tail (with implicit leading 1); returns `(tau, rdiag)`.
    #[allow(clippy::needless_range_loop)]
    fn make_householder_oracle(x: &mut [f64]) -> (f64, f64) {
        let n = x.len();
        if n == 0 {
            return (0.0, 0.0);
        }
        let alpha = x[0];
        let xnorm = crate::matrix::norm2_scaled(&x[1..]);
        if xnorm == 0.0 {
            // Already upper-triangular in this column; reflector is identity.
            return (0.0, alpha);
        }
        let mut beta_val = -(alpha.hypot(xnorm)).copysign(alpha);
        if beta_val == 0.0 {
            beta_val = -f64::MIN_POSITIVE;
        }
        let tau = (beta_val - alpha) / beta_val;
        let inv = 1.0 / (alpha - beta_val);
        for t in 1..n {
            x[t] *= inv;
        }
        x[0] = beta_val;
        (tau, beta_val)
    }

    fn rnd(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(0x5851F42D4C957F2D)
                .wrapping_add(0x14057B7EF767814F);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn reconstructs_tall_matrix() {
        let a = rnd(10, 4, 1);
        let QrFactors { q, r } = householder_qr(&a);
        assert_eq!(q.shape(), (10, 4));
        assert_eq!(r.shape(), (4, 4));
        assert_close(&q.matmul(&r), &a, 1e-12);
    }

    #[test]
    fn reconstructs_wide_matrix() {
        let a = rnd(3, 8, 2);
        let QrFactors { q, r } = householder_qr(&a);
        assert_eq!(q.shape(), (3, 3));
        assert_eq!(r.shape(), (3, 8));
        assert_close(&q.matmul(&r), &a, 1e-12);
    }

    #[test]
    fn q_has_orthonormal_columns() {
        let a = rnd(12, 5, 3);
        let QrFactors { q, .. } = householder_qr(&a);
        let qtq = q.t_matmul(&q);
        let i = Matrix::identity(5);
        assert_close(&qtq, &i, 1e-12);
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = rnd(6, 6, 4);
        let QrFactors { r, .. } = householder_qr(&a);
        for j in 0..6 {
            for i in j + 1..6 {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn handles_rank_deficient_input() {
        // Two identical columns.
        let mut a = rnd(5, 1, 5);
        a = a.hcat(&a.clone());
        let QrFactors { q, r } = householder_qr(&a);
        assert_close(&q.matmul(&r), &a, 1e-12);
        // Second diagonal of R must be (numerically) zero.
        assert!(r[(1, 1)].abs() < 1e-12);
    }

    #[test]
    fn single_column() {
        let a = rnd(7, 1, 6);
        let QrFactors { q, r } = householder_qr(&a);
        assert!((q.norm_fro() - 1.0).abs() < 1e-12);
        assert!((r[(0, 0)].abs() - a.norm_fro()).abs() < 1e-12);
        assert_close(&q.matmul(&r), &a, 1e-12);
    }

    fn max_abs_diff(a: &Matrix, b: &Matrix) -> f64 {
        assert_eq!(a.shape(), b.shape());
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .fold(0.0, |m, (x, y)| m.max((x - y).abs()))
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Shapes of the rounding (100-row stacked factors up to rank 40, a
    /// square core) and of the range finder, wide ones included.
    fn shapes() -> Vec<(usize, usize)> {
        let mut s: Vec<(usize, usize)> = (1..=40).map(|k| (100, k)).collect();
        s.extend([
            (32, 32),
            (17, 17),
            (1, 1),
            (1, 5),
            (5, 1),
            (3, 8),
            (40, 100),
        ]);
        s
    }

    #[test]
    fn matches_the_explicit_q_oracle() {
        for (seed, (m, n)) in shapes().into_iter().enumerate() {
            let a = rnd(m, n, 100 + seed as u64);
            let new = householder_qr(&a);
            let old = explicit_q_qr(&a);
            // Same reflectors and signs, so the same factors to rounding.
            let scale = a.norm_fro();
            assert!(
                max_abs_diff(&new.q, &old.q) < 1e-13 * scale.max(1.0),
                "{m}x{n}"
            );
            assert!(max_abs_diff(&new.r, &old.r) < 1e-13 * scale, "{m}x{n}");
            assert!(
                max_abs_diff(&new.q.matmul(&new.r), &a) < 1e-13 * scale,
                "{m}x{n}"
            );
        }
    }

    #[test]
    fn apply_q_has_orthonormal_columns_and_matches_explicit_q() {
        for (seed, (m, n)) in shapes().into_iter().enumerate() {
            let qr = HouseholderQr::factor(rnd(m, n, 200 + seed as u64));
            let k = qr.k();
            let q = qr.apply_q(&Matrix::identity(k));
            assert_eq!(q.shape(), (m, k));
            let qtq = q.t_matmul(&q);
            assert!(max_abs_diff(&qtq, &Matrix::identity(k)) < 1e-13, "{m}x{n}");
            // Q c for a k x r block is the explicit Q times it.
            let c = rnd(k, 5, 300 + seed as u64);
            assert!(
                max_abs_diff(&qr.apply_q(&c), &q.matmul(&c)) < 1e-13,
                "{m}x{n}"
            );
        }
    }

    #[test]
    fn zero_and_duplicated_columns() {
        let x = rnd(100, 3, 7);
        let a = x
            .hcat(&Matrix::zeros(100, 2))
            .hcat(&x)
            .hcat(&Matrix::zeros(100, 1));
        let QrFactors { q, r } = householder_qr(&a);
        assert!(max_abs_diff(&q.matmul(&r), &a) < 1e-13);
        assert!(max_abs_diff(&q.t_matmul(&q), &Matrix::identity(9)) < 1e-13);
        // Nothing new past the first three columns.
        for i in 3..9 {
            for j in 0..9 {
                assert!(r[(i, j)].abs() < 1e-13, "r[{i},{j}] = {}", r[(i, j)]);
            }
        }
    }

    #[test]
    fn tiny_and_huge_columns_keep_their_norm() {
        // Sums of squares that underflow or overflow take the scaled loop.
        let unit = rnd(30, 4, 8);
        let norm0 = unit.col(0).iter().map(|x| x * x).sum::<f64>().sqrt();
        for scale in [1e-160, 1e-300, 1e160, 1e300] {
            let mut a = unit.clone();
            a.scale(scale);
            let QrFactors { q, r } = householder_qr(&a);
            assert!(max_abs_diff(&q.matmul(&r), &a) < 1e-13 * scale, "{scale}");
            assert!((r[(0, 0)].abs() / scale - norm0).abs() < 1e-13, "{scale}");
        }
    }

    #[test]
    fn total_over_empty_shapes() {
        for (m, n) in [(0, 3), (4, 0), (0, 0)] {
            let QrFactors { q, r } = householder_qr(&Matrix::zeros(m, n));
            assert_eq!(q.shape(), (m, 0), "{m}x{n}");
            assert_eq!(r.shape(), (0, n), "{m}x{n}");
            let qr = HouseholderQr::factor(Matrix::zeros(m, n));
            assert_eq!(qr.apply_q(&Matrix::zeros(0, 2)).shape(), (m, 2));
        }
    }

    #[test]
    fn seam_is_bitwise_invisible() {
        let Some(simd) = xgs_kernels::Avx2::detect() else {
            return; // no fast side on this CPU
        };
        for (seed, (m, n)) in shapes().into_iter().enumerate() {
            let a = rnd(m, n, 400 + seed as u64);
            let mut plain = a.clone();
            let mut fast = a.clone();
            let mut taus_plain = vec![0.0; m.min(n)];
            let mut taus_fast = taus_plain.clone();
            factor_in_place(None, m, plain.as_mut_slice(), &mut taus_plain);
            simd.run(
                #[inline(always)]
                || factor_in_place(Some(simd), m, fast.as_mut_slice(), &mut taus_fast),
            );
            assert_eq!(bits(&plain), bits(&fast), "factor {m}x{n}");
            assert_eq!(taus_plain, taus_fast, "taus {m}x{n}");

            let k = m.min(n);
            let mut y_plain = Matrix::zeros(m, 6);
            for j in 0..6 {
                y_plain.col_mut(j)[..k].copy_from_slice(rnd(k, 1, 500 + j as u64).col(0));
            }
            let mut y_fast = y_plain.clone();
            apply_reflectors(
                None,
                m,
                plain.as_slice(),
                &taus_plain,
                y_plain.as_mut_slice(),
            );
            simd.run(
                #[inline(always)]
                || {
                    apply_reflectors(
                        Some(simd),
                        m,
                        plain.as_slice(),
                        &taus_plain,
                        y_fast.as_mut_slice(),
                    )
                },
            );
            assert_eq!(bits(&y_plain), bits(&y_fast), "apply_q {m}x{n}");
        }
    }
}
