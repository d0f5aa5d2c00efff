//! Mixed-precision, structure-aware tile kernel implementations.
//!
//! Each kernel follows Algorithm 1's operand convention: the *written* tile
//! is the precision lead (`+`), and every other operand is converted on
//! demand to the execution precision (`*`), with conversions recorded in
//! the global counters. Tiles are f64-backed, so the dense kernels hand
//! borrowed payloads and the receiver's precision to `xgs_kernels::mixed`,
//! which runs FP64 as is, FP32 on demoted operands, and FP16 on operands
//! trimmed through binary16 with FP32 accumulation (SHGEMM semantics) —
//! converting while it packs and rounding the result through the
//! receiver's format as it writes back. Nothing is cloned, allocated or
//! re-rounded per task here.
//!
//! Low-rank kernels run FP64/FP32 only (the paper's TLR path) and keep the
//! HiCMA shapes: TRSM solves against the `V` factor; GEMM forms low-rank
//! products and adds them with QR+SVD rounding.

use std::borrow::Cow;
use xgs_kernels::{gemm, mixed, syrk_lower_notrans, Precision, Trans};
use xgs_linalg::{LowRank, Matrix};
use xgs_runtime::count_conversion;
use xgs_tile::{Tile, TileStorage};

/// Factor the diagonal tile in place (always dense FP64: it carries the
/// pivots). Returns LAPACK-style error on loss of positive definiteness.
pub fn potrf_diag(tile: &mut Tile) -> Result<(), xgs_kernels::PotrfError> {
    let TileStorage::Dense(a) = &mut tile.storage else {
        panic!("diagonal tiles are always dense");
    };
    debug_assert_eq!(tile.precision, Precision::F64, "diagonal pinned to FP64");
    let n = a.rows();
    xgs_kernels::potrf(n, a.as_mut_slice(), n)?;
    // Zero the strict upper triangle so to_dense() views stay clean.
    for j in 0..n {
        for i in 0..j {
            a[(i, j)] = 0.0;
        }
    }
    Ok(())
}

/// Effective compute precision for a tile's kernels: FP16 computes via the
/// FP32-accumulating path.
fn compute_precision(p: Precision) -> Precision {
    match p {
        Precision::F16 => Precision::F32,
        other => other,
    }
}

/// `TRSM`: `A_ik <- A_ik * L_kk^{-T}` where `L_kk` is the factored diagonal
/// tile (dense FP64) and `A_ik` the panel tile in any format.
pub fn trsm_panel(l_kk: &Tile, a_ik: &mut Tile) {
    let TileStorage::Dense(l) = &l_kk.storage else {
        panic!("TRSM triangle must be dense");
    };
    let n = l.rows();
    let p = a_ik.precision;
    match &mut a_ik.storage {
        TileStorage::Dense(a) => {
            let m = a.rows();
            // The FP64 triangle converts down to the lead precision.
            count_conversion(Precision::F64, p, (n * n) as u64);
            mixed::trsm_right_lower_trans(p, m, n, l.as_slice(), n, a.as_mut_slice(), m);
        }
        TileStorage::LowRank(lr) => {
            // (U V^T) L^{-T} = U (L^{-1} V)^T: only V is touched, so only
            // V needs rounding back through `p` (the kernel does it).
            let k = lr.rank();
            if k == 0 {
                return;
            }
            count_conversion(Precision::F64, compute_precision(p), (n * n) as u64);
            mixed::trsm_left_lower_notrans(p, n, k, l.as_slice(), n, lr.v.as_mut_slice(), n);
        }
    }
}

/// `SYRK`: `C_ii <- C_ii - A_ik * A_ik^T` with `C_ii` the dense FP64
/// diagonal tile and `A_ik` in any format.
pub fn syrk_diag(a_ik: &Tile, c_ii: &mut Tile) {
    let TileStorage::Dense(c) = &mut c_ii.storage else {
        panic!("diagonal tiles are always dense");
    };
    let n = c.rows();
    match &a_ik.storage {
        TileStorage::Dense(a) => {
            let k = a.cols();
            if a_ik.precision != Precision::F64 {
                // Receiver leads in FP64: promote the operand (exact).
                count_conversion(a_ik.precision, Precision::F64, (a.rows() * k) as u64);
            }
            syrk_lower_notrans(n, k, -1.0, a.as_slice(), a.rows(), 1.0, c.as_mut_slice(), n);
        }
        TileStorage::LowRank(lr) => {
            // C -= U (V^T V) U^T, all small intermediates.
            let k = lr.rank();
            if k == 0 {
                return;
            }
            if a_ik.precision != Precision::F64 {
                count_conversion(a_ik.precision, Precision::F64, lr.storage_len() as u64);
            }
            let w = lr.v.t_matmul(&lr.v); // k x k
            let x = lr.u.matmul(&w); // n x k
            gemm(
                Trans::No,
                Trans::Yes,
                n,
                n,
                k,
                -1.0,
                x.as_slice(),
                n,
                lr.u.as_slice(),
                n,
                1.0,
                c.as_mut_slice(),
                n,
            );
        }
    }
    // Keep strictly the lower triangle meaningful; mirror not needed.
}

/// `GEMM`: `C_ij <- C_ij - A_ik * B_jk^T`, the trailing update. The written
/// tile `C_ij` leads: its structure decides the low-rank vs dense path and
/// its precision decides the arithmetic.
///
/// `tol` is the absolute rounding tolerance for low-rank additions on this
/// tile (frozen at generation).
pub fn gemm_update(a_ik: &Tile, b_jk: &Tile, c_ij: &mut Tile, tol: f64) {
    let p = c_ij.precision;
    note_operand_conversion(a_ik, p);
    note_operand_conversion(b_jk, p);
    match &mut c_ij.storage {
        TileStorage::Dense(c) => gemm_into_dense(a_ik, b_jk, c, p),
        TileStorage::LowRank(c_lr) => {
            // Form the product as a low-rank object, then rounded-add.
            let prod: LowRank = match (&a_ik.storage, &b_jk.storage) {
                (TileStorage::LowRank(a), TileStorage::LowRank(b)) => a.matmul_lr_transposed(b),
                // (U V^T) B^T = U (B V)^T.
                (TileStorage::LowRank(a), TileStorage::Dense(b)) => LowRank {
                    u: a.u.clone(),
                    v: b.matmul(&a.v),
                },
                // A (U V^T)^T = A V U^T = (A V) U^T.
                (TileStorage::Dense(a), TileStorage::LowRank(b)) => LowRank {
                    u: a.matmul(&b.v),
                    v: b.u.clone(),
                },
                // Dense x dense hitting a low-rank tile: form the dense
                // product and compress at the tile tolerance (rare; only
                // when the structure rule reverted both panel tiles).
                (TileStorage::Dense(a), TileStorage::Dense(b)) => {
                    LowRank::compress_svd(&a.matmul_t(b), tol)
                }
            };
            *c_lr = c_lr.add_rounded(-1.0, &prod, tol);
            c_ij.enforce_precision();
        }
    }
}

/// The logical dense value of an operand tile: the payload itself when it
/// is dense, the reconstruction when it is low-rank.
///
/// Low-rank operands are deliberately *materialized* rather than applied as
/// `U (B V)^T` fast paths: precision emulation trims/demotes the logical
/// tile value the kernel consumes, and the materialized block is exactly
/// that value. (A production port on real low-precision hardware would use
/// the factored forms; here fidelity of the rounding semantics wins.)
fn dense_value(t: &Tile) -> Cow<'_, Matrix> {
    match &t.storage {
        TileStorage::Dense(m) => Cow::Borrowed(m),
        TileStorage::LowRank(lr) => Cow::Owned(lr.reconstruct()),
    }
}

/// Dense-receiver GEMM in the receiver's precision.
fn gemm_into_dense(a_ik: &Tile, b_jk: &Tile, c: &mut Matrix, p: Precision) {
    let (m, n) = c.shape();
    let a = dense_value(a_ik);
    let b = dense_value(b_jk);
    mixed::gemm(
        p,
        Trans::No,
        Trans::Yes,
        m,
        n,
        a.cols(),
        -1.0,
        a.as_slice(),
        m,
        b.as_slice(),
        n,
        c.as_mut_slice(),
        m,
    );
}

/// Record the on-demand conversion of an operand tile into the receiver's
/// compute precision.
fn note_operand_conversion(operand: &Tile, receiver: Precision) {
    let target = compute_precision(receiver);
    let from = operand.precision;
    // FP16 operands promoting exactly into the FP32 compute path still count:
    // the data arrives in a different format than the kernel consumes.
    if from != target {
        let elems = match &operand.storage {
            TileStorage::Dense(mt) => mt.rows() * mt.cols(),
            TileStorage::LowRank(lr) => lr.storage_len(),
        };
        count_conversion(from, target, elems as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xgs_kernels::convert::round_through;
    use xgs_kernels::{trsm_left_lower_notrans, trsm_right_lower_trans, Half};
    use xgs_tile::Tile;

    fn rnd(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(0x5851F42D4C957F2D)
                .wrapping_add(0x14057B7EF767814F);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    fn spd_tile(n: usize, seed: u64) -> Tile {
        let b = rnd(n, n, seed);
        let mut a = b.matmul_t(&b);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        Tile::dense(a, Precision::F64)
    }

    #[test]
    fn potrf_diag_factors() {
        let mut t = spd_tile(16, 1);
        let orig = t.to_dense();
        potrf_diag(&mut t).unwrap();
        let l = t.to_dense();
        let rec = l.matmul_t(&l);
        for j in 0..16 {
            for i in j..16 {
                assert!((rec[(i, j)] - orig[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn trsm_dense_f64_matches_oracle() {
        let mut lkk = spd_tile(8, 2);
        potrf_diag(&mut lkk).unwrap();
        let a0 = rnd(8, 8, 3);
        let mut tile = Tile::dense(a0.clone(), Precision::F64);
        trsm_panel(&lkk, &mut tile);
        let l = lkk.to_dense();
        let mut oracle = a0.clone();
        trsm_right_lower_trans(8, 8, 1.0, l.as_slice(), 8, oracle.as_mut_slice(), 8);
        let err = tile.to_dense().add_scaled(-1.0, &oracle).norm_fro();
        assert!(err < 1e-12);
    }

    #[test]
    fn trsm_dense_f32_close_to_f64_oracle() {
        let mut lkk = spd_tile(8, 4);
        potrf_diag(&mut lkk).unwrap();
        let a0 = rnd(8, 8, 5);
        let mut tile = Tile::dense(a0.clone(), Precision::F32);
        trsm_panel(&lkk, &mut tile);
        let l = lkk.to_dense();
        let mut oracle = a0.clone();
        round_through(oracle.as_mut_slice(), Precision::F32);
        trsm_right_lower_trans(8, 8, 1.0, l.as_slice(), 8, oracle.as_mut_slice(), 8);
        let err = tile.to_dense().add_scaled(-1.0, &oracle).norm_fro();
        assert!(err < 1e-5 * oracle.norm_fro(), "err {err}");
        // And the result really is f32-representable.
        for &x in tile.to_dense().as_slice() {
            assert_eq!(x, (x as f32) as f64);
        }
    }

    #[test]
    fn trsm_low_rank_matches_dense_oracle() {
        let mut lkk = spd_tile(10, 6);
        potrf_diag(&mut lkk).unwrap();
        let u = rnd(12, 3, 7);
        let v = rnd(10, 3, 8);
        let dense0 = u.matmul_t(&v);
        let mut tile = Tile::low_rank(LowRank { u, v }, Precision::F64);
        trsm_panel(&lkk, &mut tile);
        let l = lkk.to_dense();
        let mut oracle = dense0.clone();
        trsm_right_lower_trans(12, 10, 1.0, l.as_slice(), 10, oracle.as_mut_slice(), 12);
        let err = tile.to_dense().add_scaled(-1.0, &oracle).norm_fro();
        assert!(err < 1e-10, "err {err}");
    }

    #[test]
    fn syrk_dense_and_lowrank_agree() {
        let a_dense = rnd(9, 9, 9);
        // Use an exactly low-rank A so both paths compute the same update.
        let u = rnd(9, 2, 10);
        let v = rnd(9, 2, 11);
        let a_lr_dense = u.matmul_t(&v);
        let t_dense = Tile::dense(a_lr_dense.clone(), Precision::F64);
        let t_lr = Tile::low_rank(LowRank { u, v }, Precision::F64);
        let mut c1 = spd_tile(9, 12);
        let mut c2 = c1.clone();
        syrk_diag(&t_dense, &mut c1);
        syrk_diag(&t_lr, &mut c2);
        let (d1, d2) = (c1.to_dense(), c2.to_dense());
        for j in 0..9 {
            for i in j..9 {
                assert!((d1[(i, j)] - d2[(i, j)]).abs() < 1e-10);
            }
        }
        let _ = a_dense;
    }

    #[test]
    fn gemm_dense_receiver_matches_oracle() {
        let a = rnd(7, 5, 13);
        let b = rnd(7, 5, 14);
        let c0 = rnd(7, 7, 15);
        let ta = Tile::dense(a.clone(), Precision::F64);
        let tb = Tile::dense(b.clone(), Precision::F64);
        let mut tc = Tile::dense(c0.clone(), Precision::F64);
        gemm_update(&ta, &tb, &mut tc, 1e-12);
        let oracle = c0.add_scaled(-1.0, &a.matmul_t(&b));
        let err = tc.to_dense().add_scaled(-1.0, &oracle).norm_fro();
        assert!(err < 1e-12);
    }

    #[test]
    fn gemm_lowrank_receiver_all_operand_combos() {
        let mk_lr = |m: usize, k: usize, s: u64| {
            let u = rnd(m, k, s);
            let v = rnd(8, k, s + 50);
            Tile::low_rank(LowRank { u, v }, Precision::F64)
        };
        let mk_dense = |m: usize, s: u64| Tile::dense(rnd(m, 8, s), Precision::F64);
        let c0u = rnd(10, 2, 100);
        let c0v = rnd(9, 2, 101);
        let c0 = Tile::low_rank(LowRank { u: c0u, v: c0v }, Precision::F64);

        for (ta, tb, label) in [
            (mk_lr(10, 3, 1), mk_lr(9, 2, 2), "lr-lr"),
            (mk_lr(10, 3, 3), mk_dense(9, 4), "lr-dense"),
            (mk_dense(10, 5), mk_lr(9, 2, 6), "dense-lr"),
            (mk_dense(10, 7), mk_dense(9, 8), "dense-dense"),
        ] {
            let mut c = c0.clone();
            gemm_update(&ta, &tb, &mut c, 1e-11);
            let oracle = c0
                .to_dense()
                .add_scaled(-1.0, &ta.to_dense().matmul_t(&tb.to_dense()));
            let err = c.to_dense().add_scaled(-1.0, &oracle).norm_fro();
            assert!(
                err < 1e-8 * oracle.norm_fro().max(1.0),
                "{label}: err {err}"
            );
        }
    }

    #[test]
    fn gemm_f16_receiver_result_is_f16_representable() {
        let a = rnd(6, 6, 20);
        let b = rnd(6, 6, 21);
        let ta = Tile::dense(a, Precision::F64);
        let tb = Tile::dense(b, Precision::F64);
        let mut tc = Tile::dense(rnd(6, 6, 22), Precision::F16);
        gemm_update(&ta, &tb, &mut tc, 1e-12);
        for &x in tc.to_dense().as_slice() {
            let h = xgs_kernels::Half::from_f64(x);
            assert_eq!(h.to_f64(), x, "value {x} not binary16-representable");
        }
    }

    #[test]
    fn conversions_are_counted() {
        xgs_runtime::reset_conversion_counts();
        let a = rnd(6, 6, 30);
        let b = rnd(6, 6, 31);
        let ta = Tile::dense(a, Precision::F64);
        let tb = Tile::dense(b, Precision::F16);
        let mut tc = Tile::dense(rnd(6, 6, 32), Precision::F32);
        gemm_update(&ta, &tb, &mut tc, 1e-12);
        let c = xgs_runtime::conversion_counts();
        assert!(c.f64_to_f32 >= 36, "A should be demoted: {c:?}");
        assert!(c.f16_to_f32 >= 36, "B should be promoted: {c:?}");
    }

    // ---- The composed path the fused kernels replaced, kept as the oracle:
    // clone the operands, demote, trim through the software binary16, run
    // the f32 kernel, copy back, re-round the whole tile.

    fn to_f32_buf(m: &Matrix) -> Vec<f32> {
        m.as_slice().iter().map(|&x| x as f32).collect()
    }

    fn from_f32_buf(buf: &[f32], m: &mut Matrix) {
        for (dst, &src) in m.as_mut_slice().iter_mut().zip(buf) {
            *dst = src as f64;
        }
    }

    fn trim_f32_through_f16(buf: &mut [f32]) {
        for x in buf.iter_mut() {
            *x = Half::from_f32(*x).to_f32();
        }
    }

    fn trsm_panel_composed(l_kk: &Tile, a_ik: &mut Tile) {
        let l = l_kk.to_dense();
        let n = l.rows();
        let p = a_ik.precision;
        match &mut a_ik.storage {
            TileStorage::Dense(a) => {
                let m = a.rows();
                if p == Precision::F64 {
                    trsm_right_lower_trans(m, n, 1.0, l.as_slice(), n, a.as_mut_slice(), m);
                } else {
                    let mut lf = to_f32_buf(&l);
                    let mut af = to_f32_buf(a);
                    if p == Precision::F16 {
                        trim_f32_through_f16(&mut lf);
                        trim_f32_through_f16(&mut af);
                    }
                    trsm_right_lower_trans(m, n, 1.0f32, &lf, n, &mut af, m);
                    from_f32_buf(&af, a);
                }
            }
            TileStorage::LowRank(lr) => {
                let k = lr.rank();
                if p == Precision::F64 {
                    trsm_left_lower_notrans(n, k, 1.0, l.as_slice(), n, lr.v.as_mut_slice(), n);
                } else {
                    let lf = to_f32_buf(&l);
                    let mut vf = to_f32_buf(&lr.v);
                    trsm_left_lower_notrans(n, k, 1.0f32, &lf, n, &mut vf, n);
                    from_f32_buf(&vf, &mut lr.v);
                }
            }
        }
        a_ik.enforce_precision();
    }

    fn gemm_update_composed(a_ik: &Tile, b_jk: &Tile, c_ij: &mut Tile) {
        let p = c_ij.precision;
        let TileStorage::Dense(c) = &mut c_ij.storage else {
            panic!("the oracle covers dense receivers");
        };
        let (m, n) = c.shape();
        let a = a_ik.to_dense();
        let b = b_jk.to_dense();
        let k = a.cols();
        let mut af = to_f32_buf(&a);
        let mut bf = to_f32_buf(&b);
        let mut cf = to_f32_buf(c);
        if p == Precision::F16 {
            trim_f32_through_f16(&mut af);
            trim_f32_through_f16(&mut bf);
        }
        gemm(
            Trans::No,
            Trans::Yes,
            m,
            n,
            k,
            -1.0f32,
            &af,
            m,
            &bf,
            n,
            1.0f32,
            &mut cf,
            m,
        );
        from_f32_buf(&cf, c);
        c_ij.enforce_precision();
    }

    const ALL: [Precision; 3] = [Precision::F64, Precision::F32, Precision::F16];

    /// Bit patterns, so that `-0.0` vs `0.0` or a NaN cannot hide.
    fn bits(t: &Tile) -> Vec<u64> {
        let (u, v) = match &t.storage {
            TileStorage::Dense(m) => (m.as_slice(), &[][..]),
            TileStorage::LowRank(lr) => (lr.u.as_slice(), lr.v.as_slice()),
        };
        u.iter().chain(v).map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fused_gemm_update_is_bitwise_the_composed_path() {
        // (m, n, k): naive path, blocked path with every edge panel, and
        // k beyond one KC block (the FP16 re-round must wait for the last).
        for &(m, n, k) in &[(20, 17, 19), (70, 50, 60), (100, 100, 100), (12, 10, 300)] {
            for receiver in [Precision::F32, Precision::F16] {
                for pa in ALL {
                    for pb in ALL {
                        for lowrank in [false, true] {
                            let operand = |rows: usize, p: Precision, seed: u64| {
                                if lowrank {
                                    let lr = LowRank {
                                        u: rnd(rows, 3, seed),
                                        v: rnd(k, 3, seed + 1),
                                    };
                                    Tile::low_rank(lr, p)
                                } else {
                                    Tile::dense(rnd(rows, k, seed), p)
                                }
                            };
                            let ta = operand(m, pa, 40);
                            let tb = operand(n, pb, 50);
                            let mut fused = Tile::dense(rnd(m, n, 60), receiver);
                            let mut composed = fused.clone();
                            gemm_update(&ta, &tb, &mut fused, 1e-12);
                            gemm_update_composed(&ta, &tb, &mut composed);
                            assert_eq!(
                                bits(&fused),
                                bits(&composed),
                                "({m},{n},{k}) {receiver:?} <- {pa:?} x {pb:?}, low-rank {lowrank}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_trsm_panel_is_bitwise_the_composed_path() {
        // Triangle orders on both sides of the kernels' NB = 64.
        for &(m, n) in &[(9, 20), (64, 64), (80, 100)] {
            let mut lkk = spd_tile(n, 70);
            potrf_diag(&mut lkk).unwrap();
            for p in ALL {
                let dense = Tile::dense(rnd(m, n, 71), p);
                let lr = LowRank {
                    u: rnd(m, 4, 72),
                    v: rnd(n, 4, 73),
                };
                for tile in [dense, Tile::low_rank(lr, p)] {
                    let mut fused = tile.clone();
                    let mut composed = tile;
                    trsm_panel(&lkk, &mut fused);
                    trsm_panel_composed(&lkk, &mut composed);
                    assert_eq!(
                        bits(&fused),
                        bits(&composed),
                        "({m},{n}) {p:?}, dense {}",
                        fused.is_dense()
                    );
                }
            }
        }
    }
}
