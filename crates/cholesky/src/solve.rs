//! Tiled triangular solves and log-determinant over a completed factor.
//!
//! These drive the log-likelihood evaluation (Eq. 1: `log|Σ|` and
//! `Z^T Σ^{-1} Z`) and the prediction solves (Eq. 4/5). Both solves run
//! left-looking, one block row of the right-hand sides at a time: the row
//! is gathered into a contiguous buffer, every off-diagonal factor tile of
//! that row applies to it as FP64 [`gemm()`] calls against the tile's
//! f64-backed payload (one for a dense tile of any precision, two through
//! a `rank × nrhs` buffer for a low-rank one), the diagonal tile's `trsm`
//! finishes it, and it is scattered back. The right-hand sides stay FP64
//! end to end, as in the paper (only Σ's tiles are approximated), and
//! since the kernels compute every column alone, `nrhs` columns solved
//! together are bitwise those columns solved one by one.

use crate::factor::TiledFactor;
use xgs_kernels::{gemm, trsm_left_lower_notrans, trsm_left_lower_trans, Trans};
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
    solve(f, x, nrhs, Trans::No);
}

/// Backward substitution `x <- L^{-T} x`.
pub fn solve_lower_transpose(f: &TiledFactor, x: &mut [f64], nrhs: usize) {
    solve(f, x, nrhs, Trans::Yes);
}

/// `x <- op(L)^{-1} x`, left-looking: block row `j` of `x` takes
/// `x_j -= op(L)_jk x_k` from every already solved block row `k` in
/// ascending `k` (`k < j` forward, `k > j` backward), then the diagonal
/// solve.
fn solve(f: &TiledFactor, x: &mut [f64], nrhs: usize, trans: Trans) {
    let n = f.n();
    assert_eq!(x.len(), n * nrhs);
    let layout = f.layout();
    let nt = f.nt();
    let mut row = Vec::new();
    let mut w = Vec::new();
    for step in 0..nt {
        let (j, solved) = match trans {
            Trans::No => (step, 0..step),
            Trans::Yes => (nt - 1 - step, nt - step..nt),
        };
        let rj = layout.tile_range(j);
        let mj = rj.len();
        row.clear();
        for c in 0..nrhs {
            row.extend_from_slice(&x[c * n + rj.start..c * n + rj.end]);
        }
        for k in solved {
            // op(L)_jk is the stored tile (j, k) forward and (k, j)^T backward.
            let (ti, tj) = if trans == Trans::No { (j, k) } else { (k, j) };
            let xk = &x[layout.tile_range(k).start..];
            f.with_tile(ti, tj, |t| {
                apply_tile(t, trans, xk, n, nrhs, &mut row, &mut w)
            });
        }
        f.with_tile(j, j, |t| {
            let l = diag(t).as_slice();
            match trans {
                Trans::No => trsm_left_lower_notrans(mj, nrhs, 1.0, l, mj, &mut row, mj),
                Trans::Yes => trsm_left_lower_trans(mj, nrhs, 1.0, l, mj, &mut row, mj),
            }
        });
        for (c, col) in row.chunks_exact(mj).enumerate() {
            x[c * n + rj.start..c * n + rj.end].copy_from_slice(col);
        }
    }
}

/// `c -= op(T) x_k` for the `mj x nrhs` block row buffer `c`, with `x_k`
/// the solved block row read in place (leading dimension `n`). A low-rank
/// `T = U V^T` applies as `W = V^T x_k`, `c -= U W` (transposed: `U` and
/// `V` swap), through the caller's buffer `w`.
fn apply_tile(
    t: &Tile,
    trans: Trans,
    xk: &[f64],
    n: usize,
    nrhs: usize,
    c: &mut [f64],
    w: &mut Vec<f64>,
) {
    let (mj, mk) = match trans {
        Trans::No => (t.rows(), t.cols()),
        Trans::Yes => (t.cols(), t.rows()),
    };
    match &t.storage {
        TileStorage::Dense(l) => {
            gemm(
                trans,
                Trans::No,
                mj,
                nrhs,
                mk,
                -1.0,
                l.as_slice(),
                t.rows(),
                xk,
                n,
                1.0,
                c,
                mj,
            );
        }
        TileStorage::LowRank(lr) => {
            let (outer, inner) = match trans {
                Trans::No => (&lr.u, &lr.v),
                Trans::Yes => (&lr.v, &lr.u),
            };
            let r = lr.rank();
            if r == 0 {
                return;
            }
            w.resize(r * nrhs, 0.0);
            gemm(
                Trans::Yes,
                Trans::No,
                r,
                nrhs,
                mk,
                1.0,
                inner.as_slice(),
                mk,
                xk,
                n,
                0.0,
                w,
                r,
            );
            gemm(
                Trans::No,
                Trans::No,
                mj,
                nrhs,
                r,
                -1.0,
                outer.as_slice(),
                mj,
                w,
                r,
                1.0,
                c,
                mj,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xgs_covariance::{jittered_grid, morton_order, Matern, MaternParams};
    use xgs_tile::{FlopKernelModel, PrecisionRule, SymTileMatrix, TlrConfig, Variant};

    fn factored(n: usize, nb: usize, variant: Variant) -> (TiledFactor, xgs_linalg::Matrix) {
        let model = FlopKernelModel {
            dense_rate: 45.0e9,
            mem_factor: 1.0,
        };
        factored_with(n, TlrConfig::new(variant, nb), model)
    }

    fn factored_with(
        n: usize,
        cfg: TlrConfig,
        model: FlopKernelModel,
    ) -> (TiledFactor, xgs_linalg::Matrix) {
        let mut rng = StdRng::seed_from_u64(21);
        let mut locs = jittered_grid(n, &mut rng);
        morton_order(&mut locs);
        let kernel = Matern::new(MaternParams::new(1.2, 0.05, 0.5));
        let exact = xgs_covariance::covariance_matrix(&kernel, &locs);
        let m = SymTileMatrix::generate(&kernel, &locs, cfg, &model);
        let mut f = TiledFactor::from_matrix(m);
        f.factorize_seq().unwrap();
        (f, exact)
    }

    /// The factor of `variant` as [`factored`] builds it, and the same
    /// with every storage kind its variant allows forced in: no dense band
    /// beyond the diagonal, a kernel model under which every compressed
    /// tile stays low-rank (MP+TLR), FP32 next to the diagonal and FP16
    /// beyond (MP).
    fn factors(n: usize, nb: usize, variant: Variant) -> [(TiledFactor, xgs_linalg::Matrix); 2] {
        let forced = TlrConfig {
            band_size_dense: Some(1),
            precision_rule: PrecisionRule::Band {
                f64_band: 1,
                f32_band: 2,
            },
            ..TlrConfig::new(variant, nb)
        };
        let low_rank_wins = FlopKernelModel {
            dense_rate: 45.0e9,
            mem_factor: 1e-3,
        };
        [
            factored(n, nb, variant),
            factored_with(n, forced, low_rank_wins),
        ]
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
        // for every storage variant — at tile orders on both sides of the
        // kernels' blocking, with a short last tile, and with k on both
        // sides of the GEMM register tile's width (packed vs column path).
        for (n, nb) in [(256, 32), (250, 64), (250, 100)] {
            for variant in [Variant::DenseF64, Variant::MpDense, Variant::MpDenseTlr] {
                for (f, exact) in factors(n, nb, variant) {
                    let n = exact.rows();
                    for nrhs in [3, 4, 5, 9] {
                        let b0: Vec<f64> =
                            (0..n * nrhs).map(|i| ((i as f64) * 0.19).sin()).collect();
                        let mut batched = b0.clone();
                        solve_lower(&f, &mut batched, nrhs);
                        solve_lower_transpose(&f, &mut batched, nrhs);
                        for c in 0..nrhs {
                            let mut single = b0[c * n..(c + 1) * n].to_vec();
                            solve_lower(&f, &mut single, 1);
                            solve_lower_transpose(&f, &mut single, 1);
                            for (a, b) in batched[c * n..(c + 1) * n].iter().zip(&single) {
                                assert_eq!(
                                    a.to_bits(),
                                    b.to_bits(),
                                    "{variant:?} n {n} nb {nb} nrhs {nrhs} col {c}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ragged_solves_match_dense_solve_of_the_same_factor() {
        // A short last tile (250 = 3·64 + 58, and 2·100 + 50 where the
        // diagonal solves block), every variant, right-hand-side counts
        // from one to past the register tile: forward then backward
        // substitution against the dense solve with the factor the tiles
        // hold, so approximated tiles are the operator on both sides.
        for nb in [64, 100] {
            for variant in [Variant::DenseF64, Variant::MpDense, Variant::MpDenseTlr] {
                for (f, exact) in factors(250, nb, variant) {
                    let n = exact.rows();
                    assert_ne!(n % nb, 0, "the last tile must be short");
                    let l = f.to_dense_lower();
                    for nrhs in [1, 3, 4, 5, 64] {
                        let b0: Vec<f64> =
                            (0..n * nrhs).map(|i| ((i as f64) * 0.37).cos()).collect();
                        let mut x = b0.clone();
                        solve_lower(&f, &mut x, nrhs);
                        solve_lower_transpose(&f, &mut x, nrhs);
                        let mut dense = b0;
                        xgs_linalg::cholesky_solve(&l, &mut dense);
                        for c in 0..nrhs {
                            let (got, want) = (&x[c * n..(c + 1) * n], &dense[c * n..(c + 1) * n]);
                            let err: f64 = got.iter().zip(want).map(|(a, b)| (a - b).powi(2)).sum();
                            let nrm: f64 = want.iter().map(|b| b * b).sum();
                            let rel = (err / nrm).sqrt();
                            assert!(
                                rel < 1e-10,
                                "{variant:?} nb {nb} nrhs {nrhs} col {c}: {rel:e}"
                            );
                        }
                    }
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
