//! Adaptive Cross Approximation (ACA).
//!
//! The production compressor of TLR solvers (HiCMA uses the same family):
//! builds a low-rank approximation `A ≈ U V^T` one cross (rank-1 update) at
//! a time. Because the tile generation path materializes each tile densely
//! anyway, we use *full pivoting* on an explicit residual: pick the largest
//! remaining entry, subtract its cross, and stop when the residual's
//! Frobenius norm is at or below the tolerance. This costs `O(m n k)` — the
//! same order as generating the tile — and, unlike partially pivoted ACA,
//! gives a *guaranteed* `||A - U V^T||_F <= tol` (partial pivoting's
//! heuristic stopping rule can terminate early on covariance tiles whose
//! leading rows are nearly zero). The SVD compressor
//! ([`crate::svd::truncated_svd`]) remains the minimal-rank oracle in
//! tests.
//!
//! Each cross costs **one pass** over the residual: the loop that subtracts
//! it also accumulates the residual's squared norm and finds the next full
//! pivot, and one scan of the input block seeds both. The pivot rule is
//! "the first largest `|x|` in column-major order, the first nonzero while
//! the pivot is still 0", applied to the same values in the same order as a
//! separate search pass would, so the factors are bit-for-bit those of the
//! two-pass loop (the tests keep it as the oracle).

use crate::matrix::Matrix;

/// Running full-pivot search over a column-major sweep.
struct Pivot {
    i: usize,
    j: usize,
    val: f64,
    /// `|val|`, kept beside it: recomputing it on every offer made `aca`
    /// twice as slow on `field`-shaped covariance tiles.
    abs: f64,
}

impl Pivot {
    const NONE: Pivot = Pivot {
        i: 0,
        j: 0,
        val: 0.0,
        abs: 0.0,
    };

    /// Offer entry `(i, j)` holding `x`: it wins when strictly larger in
    /// magnitude, or when it is the first nonzero seen.
    #[inline(always)]
    fn offer(&mut self, i: usize, j: usize, x: f64) {
        if x.abs() > self.abs || (self.val == 0.0 && x != 0.0) {
            *self = Pivot {
                i,
                j,
                val: x,
                abs: x.abs(),
            };
        }
    }
}

/// Full-pivot ACA to absolute Frobenius tolerance `tol`.
///
/// Returns `(U, V)` with `||A - U V^T||_F <= tol`, rank at most `max_rank`
/// (at `max_rank` the guarantee is only best-effort; callers cap with
/// `min(m, n)` for an exact fallback).
pub fn aca(a: &Matrix, tol: f64, max_rank: usize) -> (Matrix, Matrix) {
    let (m, n) = a.shape();
    let kmax = max_rank.min(m.min(n));
    let mut residual = a.clone();
    // The crosses, appended column by column: `U` is `m x k`, `V` `n x k`.
    let mut us: Vec<f64> = Vec::new();
    let mut vs: Vec<f64> = Vec::new();
    let mut k = 0;

    // Residual norm^2 and the first pivot, in one scan of the block.
    let mut res_sq = 0.0f64;
    let mut pivot = Pivot::NONE;
    for j in 0..n {
        for (i, &x) in residual.col(j).iter().enumerate() {
            res_sq += x * x;
            pivot.offer(i, j, x);
        }
    }

    while k < kmax {
        if res_sq.max(0.0).sqrt() <= tol {
            break;
        }
        if pivot.val == 0.0 {
            break; // residual exactly zero
        }
        // Cross: u = R[:, pj] / pivot, v = R[pi, :].
        let inv = 1.0 / pivot.val;
        let u0 = us.len();
        us.extend(residual.col(pivot.j).iter().map(|&x| x * inv));
        let v0 = vs.len();
        vs.extend((0..n).map(|j| residual[(pivot.i, j)]));
        let (u, v) = (&us[u0..], &vs[v0..]);
        // R -= u v^T, recomputing the norm and finding the next pivot on
        // the fly.
        res_sq = 0.0;
        pivot = Pivot::NONE;
        for (j, &vj) in v.iter().enumerate() {
            let col = residual.col_mut(j);
            for (i, (x, &ui)) in col.iter_mut().zip(u).enumerate() {
                *x -= ui * vj;
                res_sq += *x * *x;
                pivot.offer(i, j, *x);
            }
        }
        k += 1;
    }

    (Matrix::from_vec(m, k, us), Matrix::from_vec(n, k, vs))
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

    /// A smooth kernel matrix (what covariance tiles look like off-diagonal):
    /// K[i,j] = 1 / (1 + |x_i - y_j|), x in [0,1], y in [3,4] — well separated
    /// clusters give rapidly decaying singular values.
    fn smooth_kernel(m: usize, n: usize) -> Matrix {
        Matrix::from_fn(m, n, |i, j| {
            let x = i as f64 / m as f64;
            let y = 3.0 + j as f64 / n as f64;
            1.0 / (1.0 + (x - y).abs())
        })
    }

    #[test]
    fn exact_recovery_of_low_rank() {
        let u = rnd(30, 4, 1);
        let v = rnd(25, 4, 2);
        let a = u.matmul_t(&v);
        let (au, av) = aca(&a, 1e-12 * a.norm_fro(), 30);
        assert!(au.cols() <= 6, "rank blew up: {}", au.cols());
        let err = a.add_scaled(-1.0, &au.matmul_t(&av)).norm_fro();
        assert!(err < 1e-10 * a.norm_fro(), "err {err}");
    }

    #[test]
    fn error_bound_is_guaranteed() {
        // Full pivoting with explicit residual: the tolerance is a hard
        // bound, not a heuristic.
        for seed in 0..10u64 {
            let a = rnd(24, 18, seed);
            let tol = 0.05 * a.norm_fro();
            let (u, v) = aca(&a, tol, 24);
            let err = a.add_scaled(-1.0, &u.matmul_t(&v)).norm_fro();
            assert!(err <= tol * (1.0 + 1e-12), "seed {seed}: {err} > {tol}");
        }
    }

    #[test]
    fn smooth_kernel_compresses_hard() {
        let a = smooth_kernel(64, 64);
        let tol = 1e-8 * a.norm_fro();
        let (u, v) = aca(&a, tol, 64);
        assert!(u.cols() < 20, "rank {}", u.cols());
        let err = a.add_scaled(-1.0, &u.matmul_t(&v)).norm_fro();
        assert!(err <= tol, "err {err} vs tol {tol}");
    }

    #[test]
    fn handles_zero_leading_rows() {
        // Partial pivoting's classic failure: leading rows ~ zero while the
        // mass sits elsewhere.
        let mut a = Matrix::zeros(16, 16);
        for j in 0..16 {
            for i in 8..16 {
                a[(i, j)] = 1.0 / (1.0 + (i + j) as f64);
            }
        }
        let tol = 1e-10 * a.norm_fro();
        let (u, v) = aca(&a, tol, 16);
        let err = a.add_scaled(-1.0, &u.matmul_t(&v)).norm_fro();
        assert!(err <= tol, "err {err}");
    }

    #[test]
    fn full_rank_fallback_is_exact() {
        let a = rnd(12, 12, 3);
        let (u, v) = aca(&a, 0.0, 12);
        let err = a.add_scaled(-1.0, &u.matmul_t(&v)).norm_fro();
        assert!(err < 1e-9 * a.norm_fro(), "err {err}");
    }

    #[test]
    fn zero_matrix_gives_zero_rank_quickly() {
        let a = Matrix::zeros(10, 8);
        let (u, _v) = aca(&a, 1e-8, 10);
        assert_eq!(u.cols(), 0);
    }

    #[test]
    fn respects_max_rank() {
        let a = rnd(20, 20, 4);
        let (u, _v) = aca(&a, 0.0, 5);
        assert_eq!(u.cols(), 5);
    }

    #[test]
    fn rectangular_shapes() {
        for (m, n) in [(40, 10), (10, 40)] {
            let a = smooth_kernel(m, n);
            let tol = 1e-6 * a.norm_fro();
            let (u, v) = aca(&a, tol, m.min(n));
            let err = a.add_scaled(-1.0, &u.matmul_t(&v)).norm_fro();
            assert!(err <= tol, "({m},{n}) err {err}");
        }
    }

    // ---- The two-pass loop the fused one replaced, kept as the oracle: a
    // separate full-pivot search over the residual before each cross.

    #[allow(clippy::needless_range_loop)]
    fn aca_two_pass(a: &Matrix, tol: f64, max_rank: usize) -> (Matrix, Matrix) {
        let (m, n) = a.shape();
        let kmax = max_rank.min(m.min(n));
        let mut residual = a.clone();
        let mut us: Vec<Vec<f64>> = Vec::new();
        let mut vs: Vec<Vec<f64>> = Vec::new();
        let mut res_sq: f64 = residual.as_slice().iter().map(|x| x * x).sum();
        for _k in 0..kmax {
            if res_sq.max(0.0).sqrt() <= tol {
                break;
            }
            let (mut pi, mut pj, mut pval) = (0usize, 0usize, 0.0f64);
            for j in 0..n {
                let col = residual.col(j);
                for (i, &x) in col.iter().enumerate() {
                    if x.abs() > pval.abs() || (pval == 0.0 && x != 0.0) {
                        pi = i;
                        pj = j;
                        pval = x;
                    }
                }
            }
            if pval == 0.0 {
                break;
            }
            let inv = 1.0 / pval;
            let u: Vec<f64> = residual.col(pj).iter().map(|&x| x * inv).collect();
            let v: Vec<f64> = (0..n).map(|j| residual[(pi, j)]).collect();
            res_sq = 0.0;
            for j in 0..n {
                let vj = v[j];
                let col = residual.col_mut(j);
                for (i, x) in col.iter_mut().enumerate() {
                    *x -= u[i] * vj;
                    res_sq += *x * *x;
                }
            }
            us.push(u);
            vs.push(v);
        }
        let k = us.len();
        let mut u = Matrix::zeros(m, k);
        let mut v = Matrix::zeros(n, k);
        for (j, (ucol, vcol)) in us.iter().zip(&vs).enumerate() {
            u.col_mut(j).copy_from_slice(ucol);
            v.col_mut(j).copy_from_slice(vcol);
        }
        (u, v)
    }

    /// Bit patterns of both factors, so that `-0.0` vs `0.0` cannot hide.
    fn bits(f: &(Matrix, Matrix)) -> (usize, usize, usize, Vec<u64>) {
        let (u, v) = f;
        let b = u.as_slice().iter().chain(v.as_slice()).map(|x| x.to_bits());
        (u.rows(), v.rows(), u.cols(), b.collect())
    }

    fn assert_fused_is_two_pass(a: &Matrix, tol: f64, max_rank: usize, label: &str) {
        let fused = aca(a, tol, max_rank);
        let oracle = aca_two_pass(a, tol, max_rank);
        assert_eq!(bits(&fused), bits(&oracle), "{label}");
    }

    #[test]
    fn fused_pass_is_bitwise_the_two_pass_loop() {
        for seed in 0..6u64 {
            let a = rnd(23, 17, seed);
            for rel in [0.0, 1e-12, 1e-3, 0.3] {
                let tol = rel * a.norm_fro();
                assert_fused_is_two_pass(&a, tol, 17, &format!("random seed {seed} rel {rel}"));
            }
        }
        for (m, n) in [(64, 64), (40, 10), (10, 40)] {
            let a = smooth_kernel(m, n);
            for rel in [1e-14, 1e-8, 1e-4] {
                let tol = rel * a.norm_fro();
                assert_fused_is_two_pass(&a, tol, m.min(n), &format!("smooth ({m},{n}) rel {rel}"));
            }
        }
        for k in [1, 3, 7] {
            let a = rnd(30, k, 10 + k as u64).matmul_t(&rnd(25, k, 20 + k as u64));
            for tol in [0.0, 1e-12 * a.norm_fro()] {
                assert_fused_is_two_pass(&a, tol, 25, &format!("exact rank {k} tol {tol}"));
            }
        }
    }

    #[test]
    fn fused_pass_matches_on_degenerate_blocks() {
        // All zero: no cross at all, from either loop.
        let zero = Matrix::zeros(9, 7);
        assert_fused_is_two_pass(&zero, 0.0, 7, "all zero");
        assert_eq!(aca(&zero, 0.0, 7).0.cols(), 0);
        // Ties in |x| (with both signs): the first in column-major order
        // wins, so a last-max rule would pick another cross and differ.
        let tied = Matrix::from_fn(8, 6, |i, j| match (i + 2 * j) % 4 {
            0 => 1.0,
            1 => -1.0,
            2 => 0.5,
            _ => 0.0,
        });
        assert_fused_is_two_pass(&tied, 0.0, 6, "tied entries");
        let (u, v) = aca(&tied, 0.0, 1);
        assert_eq!((u[(0, 0)], v[(0, 0)]), (1.0, 1.0), "first max is (0, 0)");
        // A cap below the true rank stops both loops at the same cross.
        let a = rnd(20, 20, 4);
        for cap in [0, 1, 5, 19] {
            assert_fused_is_two_pass(&a, 0.0, cap, &format!("cap {cap}"));
            assert_eq!(aca(&a, 0.0, cap).0.cols(), cap);
        }
        // Empty shapes.
        for (m, n) in [(0, 5), (5, 0), (0, 0)] {
            let a = Matrix::zeros(m, n);
            assert_fused_is_two_pass(&a, 1e-8, 4, &format!("({m},{n})"));
            let (u, v) = aca(&a, 1e-8, 4);
            assert_eq!((u.shape(), v.shape()), ((m, 0), (n, 0)));
        }
    }
}
