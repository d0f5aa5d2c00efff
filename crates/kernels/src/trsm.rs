//! Triangular solves, the `TRSM` kernels of the tile Cholesky and the
//! kriging forward/backward substitutions.
//!
//! Only the variants the application needs are implemented (all with a
//! *lower* triangular, non-unit-diagonal `L` coming out of `POTRF`):
//!
//! * [`trsm_right_lower_trans`] — `B <- B * L^{-T}`: the panel update of the
//!   tile Cholesky (Algorithm 1's `TRSM`).
//! * [`trsm_left_lower_notrans`] — `B <- L^{-1} B`: forward substitution for
//!   the log-likelihood quadratic form and the prediction solves.
//! * [`trsm_left_lower_trans`] — `B <- L^{-T} B`: backward substitution.
//!
//! Each has a blocked path that solves `NB`-order diagonal blocks with the
//! unblocked substitution and pushes the rank-`NB` cross-block updates
//! through the cache-blocked [`gemm`]. The blocking depends only on the
//! triangle's order, the substitutions process every right-hand-side
//! column independently, and [`gemm`] lets the number of columns choose
//! only between paths that compute a column identically. So a batched
//! multi-RHS solve stays bitwise identical to solving each column alone
//! (the server's batched==singleton guarantee).
//!
//! Each solve runs through the crate's AVX2+FMA seam (`simd.rs`) once per
//! call: the public function checks bounds and dispatches, and everything
//! below it is `#[inline(always)]` so that it compiles on whichever side
//! of the seam its caller is. Bitwise-neutral.

use crate::gemm::{gemm, Trans};
use crate::simd;
use crate::Real;

/// Diagonal-block order of the blocked solves; at or below this the
/// unblocked substitution runs directly.
const NB: usize = 64;

#[inline(always)]
fn scale<T: Real>(m: usize, n: usize, alpha: T, b: &mut [T], ldb: usize) {
    if alpha == T::ONE {
        return;
    }
    for j in 0..n {
        for x in b[j * ldb..j * ldb + m].iter_mut() {
            *x = *x * alpha;
        }
    }
}

/// `B <- alpha * B * L^{-T}` with `L` lower triangular `n x n`, `B` `m x n`.
pub fn trsm_right_lower_trans<T: Real>(
    m: usize,
    n: usize,
    alpha: T,
    l: &[T],
    ldl: usize,
    b: &mut [T],
    ldb: usize,
) {
    assert!(ldl >= n.max(1));
    assert!(ldb >= m.max(1));
    if n > 0 {
        assert!(l.len() >= ldl * (n - 1) + n);
        assert!(b.len() >= ldb * (n - 1) + m);
    }
    simd::dispatch(
        #[inline(always)]
        |_| trsm_right_lower_trans_blocked(m, n, alpha, l, ldl, b, ldb),
    )
}

/// [`trsm_right_lower_trans`] after its bounds checks.
#[inline(always)]
fn trsm_right_lower_trans_blocked<T: Real>(
    m: usize,
    n: usize,
    alpha: T,
    l: &[T],
    ldl: usize,
    b: &mut [T],
    ldb: usize,
) {
    if n <= NB {
        return trsm_right_lower_trans_unblocked(m, n, alpha, l, ldl, b, ldb);
    }
    scale(m, n, alpha, b, ldb);
    for j0 in (0..n).step_by(NB) {
        let nb = NB.min(n - j0);
        if j0 > 0 {
            // B[:, j0 block] -= X[:, <j0] * L[j0 block, <j0]^T. The solved
            // columns live strictly left of the block, so a column split
            // gives disjoint borrows.
            let (solved, rest) = b.split_at_mut(j0 * ldb);
            gemm(
                Trans::No,
                Trans::Yes,
                m,
                nb,
                j0,
                -T::ONE,
                solved,
                ldb,
                &l[j0..],
                ldl,
                T::ONE,
                rest,
                ldb,
            );
        }
        trsm_right_lower_trans_unblocked(
            m,
            nb,
            T::ONE,
            &l[j0 + j0 * ldl..],
            ldl,
            &mut b[j0 * ldb..],
            ldb,
        );
    }
}

/// Unblocked reference for [`trsm_right_lower_trans`] (also the
/// diagonal-block solver of the blocked path).
#[inline(always)]
fn trsm_right_lower_trans_unblocked<T: Real>(
    m: usize,
    n: usize,
    alpha: T,
    l: &[T],
    ldl: usize,
    b: &mut [T],
    ldb: usize,
) {
    assert!(ldl >= n.max(1));
    assert!(ldb >= m.max(1));
    if n > 0 {
        assert!(l.len() >= ldl * (n - 1) + n);
        assert!(b.len() >= ldb * (n - 1) + m);
    }
    // Solve X * L^T = alpha * B column by column of X (j increasing):
    // X[:,j] = (alpha*B[:,j] - sum_{p<j} X[:,p] * L[j,p]) / L[j,j].
    for j in 0..n {
        if alpha != T::ONE {
            for i in 0..m {
                let idx = i + j * ldb;
                b[idx] = b[idx] * alpha;
            }
        }
        for p in 0..j {
            let ljp = l[j + p * ldl];
            if ljp == T::ZERO {
                continue;
            }
            // b[:,j] -= ljp * b[:,p] ... need two disjoint columns.
            let (lo, hi) = b.split_at_mut(j * ldb);
            let xcol = &lo[p * ldb..p * ldb + m];
            let bcol = &mut hi[..m];
            for (bi, xi) in bcol.iter_mut().zip(xcol) {
                *bi = (-ljp).mul_add(*xi, *bi);
            }
        }
        let inv = T::ONE / l[j + j * ldl];
        for i in 0..m {
            let idx = i + j * ldb;
            b[idx] = b[idx] * inv;
        }
    }
}

/// `B <- alpha * L^{-1} B` with `L` lower triangular `m x m`, `B` `m x n`
/// (forward substitution).
pub fn trsm_left_lower_notrans<T: Real>(
    m: usize,
    n: usize,
    alpha: T,
    l: &[T],
    ldl: usize,
    b: &mut [T],
    ldb: usize,
) {
    assert!(ldl >= m.max(1));
    assert!(ldb >= m.max(1));
    if m > 0 && n > 0 {
        assert!(l.len() >= ldl * (m - 1) + m);
        assert!(b.len() >= ldb * (n - 1) + m);
    }
    simd::dispatch(
        #[inline(always)]
        |_| trsm_left_lower_notrans_blocked(m, n, alpha, l, ldl, b, ldb),
    )
}

/// [`trsm_left_lower_notrans`] after its bounds checks.
#[inline(always)]
fn trsm_left_lower_notrans_blocked<T: Real>(
    m: usize,
    n: usize,
    alpha: T,
    l: &[T],
    ldl: usize,
    b: &mut [T],
    ldb: usize,
) {
    if m <= NB {
        return trsm_left_lower_notrans_unblocked(m, n, alpha, l, ldl, b, ldb);
    }
    scale(m, n, alpha, b, ldb);
    for i0 in (0..m).step_by(NB) {
        let nb = NB.min(m - i0);
        trsm_left_lower_notrans_unblocked(
            nb,
            n,
            T::ONE,
            &l[i0 + i0 * ldl..],
            ldl,
            &mut b[i0..],
            ldb,
        );
        let mb = m - i0 - nb;
        if mb > 0 {
            // B[i0+nb.., :] -= L[i0+nb.., i0 block] * X[i0 block, :]. The
            // solved rows interleave with the updated rows inside each
            // column, so copy the solved block (nb x n) out before the
            // rectangular update.
            let xblk = copy_rows(b, i0, nb, n, ldb);
            gemm(
                Trans::No,
                Trans::No,
                mb,
                n,
                nb,
                -T::ONE,
                &l[i0 + nb + i0 * ldl..],
                ldl,
                &xblk,
                nb,
                T::ONE,
                &mut b[i0 + nb..],
                ldb,
            );
        }
    }
}

/// Unblocked reference for [`trsm_left_lower_notrans`].
#[inline(always)]
fn trsm_left_lower_notrans_unblocked<T: Real>(
    m: usize,
    n: usize,
    alpha: T,
    l: &[T],
    ldl: usize,
    b: &mut [T],
    ldb: usize,
) {
    assert!(ldl >= m.max(1));
    assert!(ldb >= m.max(1));
    if m > 0 && n > 0 {
        assert!(l.len() >= ldl * (m - 1) + m);
        assert!(b.len() >= ldb * (n - 1) + m);
    }
    for j in 0..n {
        let col = &mut b[j * ldb..j * ldb + m];
        if alpha != T::ONE {
            for x in col.iter_mut() {
                *x = *x * alpha;
            }
        }
        for i in 0..m {
            let xi = col[i] / l[i + i * ldl];
            col[i] = xi;
            if xi == T::ZERO {
                continue;
            }
            let lcol = &l[i * ldl + i + 1..i * ldl + m];
            let (_, rest) = col.split_at_mut(i + 1);
            for (bk, lk) in rest.iter_mut().zip(lcol) {
                *bk = (-xi).mul_add(*lk, *bk);
            }
        }
    }
}

/// `B <- alpha * L^{-T} B` with `L` lower triangular `m x m`, `B` `m x n`
/// (backward substitution).
pub fn trsm_left_lower_trans<T: Real>(
    m: usize,
    n: usize,
    alpha: T,
    l: &[T],
    ldl: usize,
    b: &mut [T],
    ldb: usize,
) {
    assert!(ldl >= m.max(1));
    assert!(ldb >= m.max(1));
    if m > 0 && n > 0 {
        assert!(l.len() >= ldl * (m - 1) + m);
        assert!(b.len() >= ldb * (n - 1) + m);
    }
    simd::dispatch(
        #[inline(always)]
        |_| trsm_left_lower_trans_blocked(m, n, alpha, l, ldl, b, ldb),
    )
}

/// [`trsm_left_lower_trans`] after its bounds checks.
#[inline(always)]
fn trsm_left_lower_trans_blocked<T: Real>(
    m: usize,
    n: usize,
    alpha: T,
    l: &[T],
    ldl: usize,
    b: &mut [T],
    ldb: usize,
) {
    if m <= NB {
        return trsm_left_lower_trans_unblocked(m, n, alpha, l, ldl, b, ldb);
    }
    scale(m, n, alpha, b, ldb);
    let nblocks = m.div_ceil(NB);
    for blk in (0..nblocks).rev() {
        let i0 = blk * NB;
        let nb = NB.min(m - i0);
        let mb = m - i0 - nb;
        // Work on a copy of the block rows: they alias the already-solved
        // rows below within each column of `b`.
        let mut rows = copy_rows(b, i0, nb, n, ldb);
        if mb > 0 {
            // rows -= L[i0+nb.., i0 block]^T * X[i0+nb.., :].
            gemm(
                Trans::Yes,
                Trans::No,
                nb,
                n,
                mb,
                -T::ONE,
                &l[i0 + nb + i0 * ldl..],
                ldl,
                &b[i0 + nb..],
                ldb,
                T::ONE,
                &mut rows,
                nb,
            );
        }
        trsm_left_lower_trans_unblocked(nb, n, T::ONE, &l[i0 + i0 * ldl..], ldl, &mut rows, nb);
        for j in 0..n {
            b[i0 + j * ldb..i0 + j * ldb + nb].copy_from_slice(&rows[j * nb..j * nb + nb]);
        }
    }
}

/// Unblocked reference for [`trsm_left_lower_trans`].
#[inline(always)]
fn trsm_left_lower_trans_unblocked<T: Real>(
    m: usize,
    n: usize,
    alpha: T,
    l: &[T],
    ldl: usize,
    b: &mut [T],
    ldb: usize,
) {
    assert!(ldl >= m.max(1));
    assert!(ldb >= m.max(1));
    if m > 0 && n > 0 {
        assert!(l.len() >= ldl * (m - 1) + m);
        assert!(b.len() >= ldb * (n - 1) + m);
    }
    for j in 0..n {
        let col = &mut b[j * ldb..j * ldb + m];
        if alpha != T::ONE {
            for x in col.iter_mut() {
                *x = *x * alpha;
            }
        }
        for i in (0..m).rev() {
            // x_i = (b_i - sum_{k>i} L[k,i] x_k) / L[i,i]
            let lcol = &l[i * ldl + i + 1..i * ldl + m];
            let mut s = col[i];
            for (lk, xk) in lcol.iter().zip(&col[i + 1..]) {
                s = (-*lk).mul_add(*xk, s);
            }
            col[i] = s / l[i + i * ldl];
        }
    }
}

/// Copy rows `i0..i0+nb` of the `? x n` matrix `b` into a dense `nb x n`
/// buffer (leading dimension `nb`).
fn copy_rows<T: Real>(b: &[T], i0: usize, nb: usize, n: usize, ldb: usize) -> Vec<T> {
    let mut out = vec![T::ZERO; nb * n.max(1)];
    for j in 0..n {
        out[j * nb..j * nb + nb].copy_from_slice(&b[i0 + j * ldb..i0 + j * ldb + nb]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, Trans};

    fn fill(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(0x5851F42D4C957F2D)
                    .wrapping_add(0x14057B7EF767814F);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    /// Well-conditioned random lower triangle (unit-ish diagonal).
    fn lower(n: usize, seed: u64) -> Vec<f64> {
        let mut l = fill(n * n, seed);
        for j in 0..n {
            for i in 0..j {
                l[i + j * n] = 0.0;
            }
            l[j + j * n] = 2.0 + l[j + j * n].abs();
        }
        l
    }

    #[test]
    fn right_lower_trans_inverts_multiplication() {
        let (m, n) = (6, 5);
        let l = lower(n, 1);
        let x = fill(m * n, 2);
        // B = X * L^T, then solving must return X.
        let mut b = vec![0f64; m * n];
        gemm(
            Trans::No,
            Trans::Yes,
            m,
            n,
            n,
            1.0,
            &x,
            m,
            &l,
            n,
            0.0,
            &mut b,
            m,
        );
        trsm_right_lower_trans(m, n, 1.0, &l, n, &mut b, m);
        for (bi, xi) in b.iter().zip(&x) {
            assert!((bi - xi).abs() < 1e-12, "{bi} vs {xi}");
        }
    }

    #[test]
    fn left_lower_notrans_inverts_multiplication() {
        let (m, n) = (7, 3);
        let l = lower(m, 3);
        let x = fill(m * n, 4);
        let mut b = vec![0f64; m * n];
        gemm(
            Trans::No,
            Trans::No,
            m,
            n,
            m,
            1.0,
            &l,
            m,
            &x,
            m,
            0.0,
            &mut b,
            m,
        );
        trsm_left_lower_notrans(m, n, 1.0, &l, m, &mut b, m);
        for (bi, xi) in b.iter().zip(&x) {
            assert!((bi - xi).abs() < 1e-12);
        }
    }

    #[test]
    fn left_lower_trans_inverts_multiplication() {
        let (m, n) = (8, 2);
        let l = lower(m, 5);
        let x = fill(m * n, 6);
        let mut b = vec![0f64; m * n];
        gemm(
            Trans::Yes,
            Trans::No,
            m,
            n,
            m,
            1.0,
            &l,
            m,
            &x,
            m,
            0.0,
            &mut b,
            m,
        );
        trsm_left_lower_trans(m, n, 1.0, &l, m, &mut b, m);
        for (bi, xi) in b.iter().zip(&x) {
            assert!((bi - xi).abs() < 1e-12);
        }
    }

    #[test]
    fn blocked_variants_match_unblocked_beyond_block_size() {
        // Triangle order > NB with an awkward remainder, padded leading
        // dimensions, several right-hand sides, alpha != 1.
        let mt = NB * 2 + 11; // triangle order for the left solves
        let nrhs = 7;
        let ldl = mt + 4;
        let mut l = vec![0f64; ldl * mt];
        let dense = lower(mt, 21);
        for j in 0..mt {
            l[j * ldl..j * ldl + mt].copy_from_slice(&dense[j * mt..j * mt + mt]);
        }
        // Left notrans.
        let ldb = mt + 2;
        let b0 = fill(ldb * nrhs, 22);
        let mut b1 = b0.clone();
        let mut b2 = b0.clone();
        trsm_left_lower_notrans(mt, nrhs, 1.5, &l, ldl, &mut b1, ldb);
        trsm_left_lower_notrans_unblocked(mt, nrhs, 1.5, &l, ldl, &mut b2, ldb);
        for (x, y) in b1.iter().zip(&b2) {
            assert!((x - y).abs() < 1e-9, "notrans: {x} vs {y}");
        }
        // Left trans.
        let mut b1 = b0.clone();
        let mut b2 = b0.clone();
        trsm_left_lower_trans(mt, nrhs, 0.7, &l, ldl, &mut b1, ldb);
        trsm_left_lower_trans_unblocked(mt, nrhs, 0.7, &l, ldl, &mut b2, ldb);
        for (x, y) in b1.iter().zip(&b2) {
            assert!((x - y).abs() < 1e-9, "trans: {x} vs {y}");
        }
        // Right trans: B is rows x mt.
        let rows = 9;
        let ldb = rows + 3;
        let b0 = fill(ldb * mt, 23);
        let mut b1 = b0.clone();
        let mut b2 = b0.clone();
        trsm_right_lower_trans(rows, mt, -0.9, &l, ldl, &mut b1, ldb);
        trsm_right_lower_trans_unblocked(rows, mt, -0.9, &l, ldl, &mut b2, ldb);
        for (x, y) in b1.iter().zip(&b2) {
            assert!((x - y).abs() < 1e-9, "right: {x} vs {y}");
        }
    }

    #[test]
    fn left_solves_batched_rhs_bitwise_equals_singleton() {
        // The server's batched==singleton guarantee must survive blocking:
        // each RHS column of a multi-RHS solve is bitwise identical to a
        // one-column solve.
        let m = NB + 33;
        let nrhs = 5;
        let l = lower(m, 31);
        let b0 = fill(m * nrhs, 32);
        for solve in [
            trsm_left_lower_notrans::<f64>
                as fn(usize, usize, f64, &[f64], usize, &mut [f64], usize),
            trsm_left_lower_trans::<f64>,
        ] {
            let mut batched = b0.clone();
            solve(m, nrhs, 1.0, &l, m, &mut batched, m);
            for j in 0..nrhs {
                let mut single = b0[j * m..(j + 1) * m].to_vec();
                solve(m, 1, 1.0, &l, m, &mut single, m);
                assert_eq!(&batched[j * m..(j + 1) * m], &single[..], "rhs {j}");
            }
        }
    }

    #[test]
    fn alpha_scales_solution() {
        let (m, n) = (4, 4);
        let l = lower(m, 7);
        let b0 = fill(m * n, 8);
        let mut b1 = b0.clone();
        let mut b2 = b0.clone();
        trsm_left_lower_notrans(m, n, 2.0, &l, m, &mut b1, m);
        trsm_left_lower_notrans(m, n, 1.0, &l, m, &mut b2, m);
        for (x1, x2) in b1.iter().zip(&b2) {
            assert!((x1 - 2.0 * x2).abs() < 1e-12);
        }
    }

    #[test]
    fn forward_then_backward_solves_normal_equations() {
        // L L^T x = b  <=>  x = L^{-T} (L^{-1} b).
        let m = 6;
        let l = lower(m, 9);
        let xtrue = fill(m, 10);
        // b = L L^T xtrue
        let mut tmp = xtrue.clone();
        // tmp = L^T x
        let mut t2 = vec![0f64; m];
        gemm(
            Trans::Yes,
            Trans::No,
            m,
            1,
            m,
            1.0,
            &l,
            m,
            &tmp,
            m,
            0.0,
            &mut t2,
            m,
        );
        gemm(
            Trans::No,
            Trans::No,
            m,
            1,
            m,
            1.0,
            &l,
            m,
            &t2,
            m,
            0.0,
            &mut tmp,
            m,
        );
        trsm_left_lower_notrans(m, 1, 1.0, &l, m, &mut tmp, m);
        trsm_left_lower_trans(m, 1, 1.0, &l, m, &mut tmp, m);
        for (xi, ti) in xtrue.iter().zip(&tmp) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    /// One unblocked substitution on each side of the seam, bit for bit,
    /// in precision `T`, at triangle orders straddling `NB`. `solve` must
    /// be an `#[inline(always)]` closure (not a function pointer), or the
    /// fast side would run code compiled for the plain one.
    fn unblocked_solve_is_bitwise_the_same_through_the_seam<T: Real>(
        name: &str,
        right: bool,
        solve: impl Fn(usize, usize, T, &[T], usize, &mut [T], usize),
    ) {
        let Some(s) = simd::Avx2::detect() else {
            return; // no fast side on this CPU
        };
        for order in [1, 7, NB - 1, NB, NB + 1, 100] {
            let other = 37;
            let (m, n) = if right {
                (other, order)
            } else {
                (order, other)
            };
            let (ldl, ldb) = (order + 3, m + 2);
            let mut l = vec![T::ZERO; ldl * order];
            let dense = lower(order, order as u64);
            for j in 0..order {
                for i in 0..order {
                    l[i + j * ldl] = T::from_f64(dense[i + j * order]);
                }
            }
            let b: Vec<T> = fill(ldb * n, 95).into_iter().map(T::from_f64).collect();
            let alpha = T::from_f64(0.75);
            let (mut plain, mut fast) = (b.clone(), b);
            solve(m, n, alpha, &l, ldl, &mut plain, ldb);
            s.run(
                #[inline(always)]
                || solve(m, n, alpha, &l, ldl, &mut fast, ldb),
            );
            let bits = |v: &[T]| v.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&plain), bits(&fast), "{name}, order {order}");
        }
    }

    fn unblocked_solves_are_bitwise_the_same_through_the_seam<T: Real>() {
        unblocked_solve_is_bitwise_the_same_through_the_seam::<T>(
            "right_lower_trans",
            true,
            #[inline(always)]
            |m, n, al, l, ldl, b, ldb| trsm_right_lower_trans_unblocked(m, n, al, l, ldl, b, ldb),
        );
        unblocked_solve_is_bitwise_the_same_through_the_seam::<T>(
            "left_lower_notrans",
            false,
            #[inline(always)]
            |m, n, al, l, ldl, b, ldb| trsm_left_lower_notrans_unblocked(m, n, al, l, ldl, b, ldb),
        );
        unblocked_solve_is_bitwise_the_same_through_the_seam::<T>(
            "left_lower_trans",
            false,
            #[inline(always)]
            |m, n, al, l, ldl, b, ldb| trsm_left_lower_trans_unblocked(m, n, al, l, ldl, b, ldb),
        );
    }

    #[test]
    fn seam_is_bitwise_invisible_f64() {
        unblocked_solves_are_bitwise_the_same_through_the_seam::<f64>();
    }

    #[test]
    fn seam_is_bitwise_invisible_f32() {
        unblocked_solves_are_bitwise_the_same_through_the_seam::<f32>();
    }
}
