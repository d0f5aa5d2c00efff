//! Tiled triangular solves and log-determinant over a completed factor.
//!
//! These drive the log-likelihood evaluation (Eq. 1: `log|Σ|` and
//! `Z^T Σ^{-1} Z`) and the prediction solves (Eq. 4/5). Off-diagonal
//! factor tiles may be dense (any precision) or low-rank; both apply as
//! FP64 matrix-vector products against the promoted payload — the vectors
//! stay FP64 end to end, as in the paper (only Σ's tiles are approximated).

use crate::factor::TiledFactor;
use xgs_kernels::{trsm_left_lower_notrans, trsm_left_lower_trans};
use xgs_linalg::Matrix;
use xgs_tile::{Tile, TileStorage};

/// The factored diagonal tile's payload, borrowed (diagonal tiles are
/// always dense FP64).
fn diag(t: &Tile) -> &Matrix {
    let TileStorage::Dense(l) = &t.storage else {
        panic!("diagonal tiles are always dense");
    };
    l
}

/// `log det(A) = 2 Σ log L_kk[i,i]` from the factored diagonal tiles.
pub fn logdet(f: &TiledFactor) -> f64 {
    let nt = f.nt();
    let mut acc = 0.0;
    for k in 0..nt {
        acc += f.with_tile(k, k, |t| {
            let d = diag(t);
            (0..d.rows()).map(|i| d[(i, i)].ln()).sum::<f64>()
        });
    }
    2.0 * acc
}

/// Forward substitution `x <- L^{-1} x` with `x` holding `nrhs` columns of
/// length `n` (column-major).
pub fn solve_lower(f: &TiledFactor, x: &mut [f64], nrhs: usize) {
    let n = f.n();
    assert_eq!(x.len(), n * nrhs);
    let layout = f.layout();
    let nt = f.nt();
    for j in 0..nt {
        let rj = layout.tile_range(j);
        // x_j -= L_jk x_k for k < j.
        for k in 0..j {
            let rk = layout.tile_range(k);
            f.with_tile(j, k, |t| {
                apply_tile(t, x, n, nrhs, rj.start, rk.start, rk.len());
            });
        }
        // x_j <- L_jj^{-1} x_j: all right-hand sides in one strided call
        // (ldb = n walks from column to column). Each column is solved
        // independently, so this is bitwise identical to a per-column loop.
        f.with_tile(j, j, |t| {
            let l = diag(t);
            let m = l.rows();
            trsm_left_lower_notrans(m, nrhs, 1.0, l.as_slice(), m, &mut x[rj.start..], n);
        });
    }
}

/// Backward substitution `x <- L^{-T} x`.
pub fn solve_lower_transpose(f: &TiledFactor, x: &mut [f64], nrhs: usize) {
    let n = f.n();
    assert_eq!(x.len(), n * nrhs);
    let layout = f.layout();
    let nt = f.nt();
    for j in (0..nt).rev() {
        let rj = layout.tile_range(j);
        // x_j -= L_ij^T x_i for i > j.
        for i in j + 1..nt {
            let ri = layout.tile_range(i);
            f.with_tile(i, j, |t| {
                apply_tile_transpose(t, x, n, nrhs, rj.start, ri.start, ri.len());
            });
        }
        f.with_tile(j, j, |t| {
            let l = diag(t);
            let m = l.rows();
            trsm_left_lower_trans(m, nrhs, 1.0, l.as_slice(), m, &mut x[rj.start..], n);
        });
    }
}

/// `x[dst..] -= T * x[src..]` for a stored tile `T` (rows at `dst`, cols at
/// `src`).
fn apply_tile(
    t: &Tile,
    x: &mut [f64],
    n: usize,
    nrhs: usize,
    dst: usize,
    src: usize,
    src_len: usize,
) {
    match &t.storage {
        TileStorage::Dense(m) => {
            // Column-outer: one tile column serves every right-hand side
            // while it sits in L1. Each entry of `x` still takes its
            // updates in ascending `col` order, so the result is bitwise
            // that of solving the columns one by one.
            let rows = m.rows();
            for col in 0..src_len {
                let mcol = m.col(col);
                for c in 0..nrhs {
                    let xv = x[c * n + src + col];
                    if xv == 0.0 {
                        continue;
                    }
                    let out = &mut x[c * n + dst..c * n + dst + rows];
                    for (o, a) in out.iter_mut().zip(mcol) {
                        *o -= a * xv;
                    }
                }
            }
        }
        TileStorage::LowRank(lr) => {
            // U (V^T x): two skinny products.
            let k = lr.rank();
            if k == 0 {
                return;
            }
            for c in 0..nrhs {
                let mut w = vec![0.0f64; k];
                for (kk, wk) in w.iter_mut().enumerate() {
                    let vcol = lr.v.col(kk);
                    let mut s = 0.0;
                    for col in 0..src_len {
                        s += vcol[col] * x[c * n + src + col];
                    }
                    *wk = s;
                }
                for (kk, &wk) in w.iter().enumerate() {
                    if wk == 0.0 {
                        continue;
                    }
                    let ucol = lr.u.col(kk);
                    for row in 0..ucol.len() {
                        x[c * n + dst + row] -= ucol[row] * wk;
                    }
                }
            }
        }
    }
}

/// `x[dst..] -= T^T * x[src..]`.
fn apply_tile_transpose(
    t: &Tile,
    x: &mut [f64],
    n: usize,
    nrhs: usize,
    dst: usize,
    src: usize,
    src_len: usize,
) {
    match &t.storage {
        TileStorage::Dense(m) => {
            for c in 0..nrhs {
                for col in 0..m.cols() {
                    let mut s = 0.0;
                    for row in 0..src_len {
                        s += m[(row, col)] * x[c * n + src + row];
                    }
                    x[c * n + dst + col] -= s;
                }
            }
        }
        TileStorage::LowRank(lr) => {
            // (U V^T)^T x = V (U^T x).
            let k = lr.rank();
            if k == 0 {
                return;
            }
            for c in 0..nrhs {
                let mut w = vec![0.0f64; k];
                for (kk, wk) in w.iter_mut().enumerate() {
                    let ucol = lr.u.col(kk);
                    let mut s = 0.0;
                    for row in 0..src_len {
                        s += ucol[row] * x[c * n + src + row];
                    }
                    *wk = s;
                }
                for (kk, &wk) in w.iter().enumerate() {
                    if wk == 0.0 {
                        continue;
                    }
                    let vcol = lr.v.col(kk);
                    for col in 0..vcol.len() {
                        x[c * n + dst + col] -= vcol[col] * wk;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xgs_covariance::{jittered_grid, morton_order, Matern, MaternParams};
    use xgs_tile::{FlopKernelModel, SymTileMatrix, TlrConfig, Variant};

    fn factored(n: usize, nb: usize, variant: Variant) -> (TiledFactor, xgs_linalg::Matrix) {
        let mut rng = StdRng::seed_from_u64(21);
        let mut locs = jittered_grid(n, &mut rng);
        morton_order(&mut locs);
        let kernel = Matern::new(MaternParams::new(1.2, 0.05, 0.5));
        let exact = xgs_covariance::covariance_matrix(&kernel, &locs);
        let model = FlopKernelModel {
            dense_rate: 45.0e9,
            mem_factor: 1.0,
        };
        let m = SymTileMatrix::generate(&kernel, &locs, TlrConfig::new(variant, nb), &model);
        let mut f = TiledFactor::from_matrix(m);
        f.factorize_seq().unwrap();
        (f, exact)
    }

    #[test]
    fn logdet_matches_dense_reference() {
        let (f, exact) = factored(180, 60, Variant::DenseF64);
        let mut l = exact.clone();
        xgs_linalg::cholesky_in_place(&mut l).unwrap();
        let expect = xgs_linalg::cholesky_logdet(&l);
        assert!((logdet(&f) - expect).abs() < 1e-8 * expect.abs());
    }

    #[test]
    fn forward_backward_solves_linear_system() {
        let (f, exact) = factored(210, 70, Variant::DenseF64);
        let n = exact.rows();
        let xtrue: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut b = exact.matvec(&xtrue);
        solve_lower(&f, &mut b, 1);
        solve_lower_transpose(&f, &mut b, 1);
        for (got, want) in b.iter().zip(&xtrue) {
            assert!((got - want).abs() < 1e-7, "{got} vs {want}");
        }
    }

    #[test]
    fn multiple_rhs_solve() {
        let (f, exact) = factored(150, 50, Variant::DenseF64);
        let n = exact.rows();
        let nrhs = 3;
        let xs: Vec<f64> = (0..n * nrhs).map(|i| ((i as f64) * 0.11).cos()).collect();
        let mut b = vec![0.0; n * nrhs];
        for c in 0..nrhs {
            let bx = exact.matvec(&xs[c * n..(c + 1) * n]);
            b[c * n..(c + 1) * n].copy_from_slice(&bx);
        }
        solve_lower(&f, &mut b, nrhs);
        solve_lower_transpose(&f, &mut b, nrhs);
        for (got, want) in b.iter().zip(&xs) {
            assert!((got - want).abs() < 1e-7);
        }
    }

    #[test]
    fn multi_rhs_solve_is_bitwise_identical_to_per_column() {
        // The batched prediction path leans on this: solving k right-hand
        // sides together must give exactly the floats of k single solves,
        // for every storage variant.
        for variant in [Variant::DenseF64, Variant::MpDense, Variant::MpDenseTlr] {
            let (f, exact) = factored(256, 32, variant);
            let n = exact.rows();
            let nrhs = 5;
            let b0: Vec<f64> = (0..n * nrhs).map(|i| ((i as f64) * 0.19).sin()).collect();
            let mut batched = b0.clone();
            solve_lower(&f, &mut batched, nrhs);
            solve_lower_transpose(&f, &mut batched, nrhs);
            for c in 0..nrhs {
                let mut single = b0[c * n..(c + 1) * n].to_vec();
                solve_lower(&f, &mut single, 1);
                solve_lower_transpose(&f, &mut single, 1);
                for (a, b) in batched[c * n..(c + 1) * n].iter().zip(&single) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{variant:?} col {c}");
                }
            }
        }
    }

    #[test]
    fn tlr_solve_accuracy_within_tolerance_regime() {
        let (f, exact) = factored(512, 32, Variant::MpDenseTlr);
        let n = exact.rows();
        let xtrue: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin()).collect();
        let mut b = exact.matvec(&xtrue);
        solve_lower(&f, &mut b, 1);
        solve_lower_transpose(&f, &mut b, 1);
        let mut err = 0.0f64;
        let mut nrm = 0.0f64;
        for (got, want) in b.iter().zip(&xtrue) {
            err += (got - want) * (got - want);
            nrm += want * want;
        }
        let rel = (err / nrm).sqrt();
        assert!(rel < 1e-4, "TLR solve relative error {rel}");
    }

    #[test]
    fn quadratic_form_is_positive() {
        let (f, exact) = factored(160, 40, Variant::MpDense);
        let n = exact.rows();
        let z: Vec<f64> = (0..n).map(|i| ((i * i) as f64 * 0.01).sin()).collect();
        let mut w = z.clone();
        solve_lower(&f, &mut w, 1);
        let quad: f64 = w.iter().map(|x| x * x).sum();
        assert!(quad > 0.0);
        // Matches z^T A^{-1} z computed densely.
        let mut l = exact.clone();
        xgs_linalg::cholesky_in_place(&mut l).unwrap();
        let mut zz = z.clone();
        xgs_linalg::cholesky_solve(&l, &mut zz);
        let expect: f64 = z.iter().zip(&zz).map(|(a, b)| a * b).sum();
        assert!((quad - expect).abs() < 1e-6 * expect, "{quad} vs {expect}");
    }
}
