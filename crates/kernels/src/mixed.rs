//! The tile kernels as the mixed-precision Cholesky calls them: every tile
//! is f64-backed (its values already rounded through its storage
//! precision), the *written* tile's precision decides the arithmetic, and
//! the other operands are converted on demand.
//!
//! * FP64 receiver → the `f64` kernel on the tiles as they are;
//! * FP32 receiver → operands demoted to `f32`, `f32` kernel, result
//!   widened back (exact);
//! * FP16 receiver → operands demoted and *trimmed through binary16*,
//!   `f32` kernel (SHGEMM semantics: FP32 accumulation), result rounded
//!   back through binary16.
//!
//! The conversions happen inside the kernel — for GEMM while the operands
//! are packed and in the write-back of each register tile, for TRSM on the
//! way into and out of the worker's solve scratch — so callers borrow
//! their tiles and nothing is allocated per call. Element by element the
//! arithmetic is that of "copy, demote, trim, run the `f32` kernel, copy
//! back, round", which the Cholesky crate keeps as a test oracle.

use crate::gemm::{gemm_fed, load_each, Feed, Trans};
use crate::simd::{self, Avx2};
use crate::Precision;
use std::cell::RefCell;

/// FP32 receivers: demote in, widen out.
struct Demoted;

impl Feed for Demoted {
    type T = f32;
    type Src = f64;
    type Dst = f64;
    #[inline(always)]
    fn get(x: f64) -> f32 {
        x as f32
    }
}

/// FP16 receivers: demote and trim through binary16 in, widen and round
/// through binary16 out (F16C where the seam is open).
struct Trimmed;

impl Feed for Trimmed {
    type T = f32;
    type Src = f64;
    type Dst = f64;
    #[inline(always)]
    fn get(x: f64) -> f32 {
        simd::trim(x as f32)
    }
    #[inline(always)]
    fn load(simd: Option<Avx2>, src: &[f64], dst: &mut [f32]) {
        match simd {
            Some(s) => s.demote_trim(src, dst),
            None => load_each::<Self>(src, dst),
        }
    }
    #[inline(always)]
    fn finish(simd: Option<Avx2>, c: &mut [f64]) {
        round_through_half(simd, c);
    }
}

/// Round an f64 buffer through binary16 in place (via `f32`, like
/// [`crate::Half::from_f64`]).
#[inline(always)]
pub(crate) fn round_through_half(simd: Option<Avx2>, buf: &mut [f64]) {
    match simd {
        Some(s) => s.round_through_half(buf),
        None => buf
            .iter_mut()
            .for_each(|x| *x = simd::trim(*x as f32) as f64),
    }
}

/// `C <- C + alpha * op(A) * op(B)` at the precision `storage` of the
/// receiver `C`.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    storage: Precision,
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    match storage {
        Precision::F64 => crate::gemm(transa, transb, m, n, k, alpha, a, lda, b, ldb, 1.0, c, ldc),
        Precision::F32 => gemm_fed::<Demoted>(
            transa,
            transb,
            m,
            n,
            k,
            alpha as f32,
            a,
            lda,
            b,
            ldb,
            1.0,
            c,
            ldc,
        ),
        Precision::F16 => gemm_fed::<Trimmed>(
            transa,
            transb,
            m,
            n,
            k,
            alpha as f32,
            a,
            lda,
            b,
            ldb,
            1.0,
            c,
            ldc,
        ),
    }
}

/// `B <- B * L^{-T}` (`L` lower `n x n`, `B` `m x n`) at the precision
/// `storage` of the receiver `B`: the dense panel solve of the tile
/// Cholesky. An FP16 receiver trims the triangle too.
pub fn trsm_right_lower_trans(
    storage: Precision,
    m: usize,
    n: usize,
    l: &[f64],
    ldl: usize,
    b: &mut [f64],
    ldb: usize,
) {
    if storage == Precision::F64 {
        return crate::trsm_right_lower_trans(m, n, 1.0, l, ldl, b, ldb);
    }
    let f16 = storage == Precision::F16;
    solve_f32(f16, f16, n, m, n, l, ldl, b, ldb, |lf, bf| {
        crate::trsm_right_lower_trans(m, n, 1.0f32, lf, n.max(1), bf, m.max(1))
    });
}

/// `B <- L^{-1} B` (`L` lower `m x m`, `B` `m x n`) at the precision
/// `storage` of the receiver `B`: the solve against the `V` factor of a
/// low-rank panel tile. The TLR path runs FP32 at its lowest, so the
/// triangle is demoted but never trimmed; the result is still rounded
/// through `storage`.
pub fn trsm_left_lower_notrans(
    storage: Precision,
    m: usize,
    n: usize,
    l: &[f64],
    ldl: usize,
    b: &mut [f64],
    ldb: usize,
) {
    if storage == Precision::F64 {
        return crate::trsm_left_lower_notrans(m, n, 1.0, l, ldl, b, ldb);
    }
    let f16 = storage == Precision::F16;
    solve_f32(false, f16, m, m, n, l, ldl, b, ldb, |lf, bf| {
        crate::trsm_left_lower_notrans(m, n, 1.0f32, lf, m.max(1), bf, m.max(1))
    });
}

/// Demote the order-`order` triangle `l` and the `rows x cols` panel `b`
/// into this worker's scratch (trimming through binary16 when `trim`), run
/// `solve` on the dense `f32` copies, and widen the panel back into `b`
/// (rounding through binary16 when `round16`). The scratch is grow-only
/// and separate from GEMM's pack buffers, which `solve` uses.
#[allow(clippy::too_many_arguments)]
fn solve_f32(
    trim: bool,
    round16: bool,
    order: usize,
    rows: usize,
    cols: usize,
    l: &[f64],
    ldl: usize,
    b: &mut [f64],
    ldb: usize,
    solve: impl FnOnce(&[f32], &mut [f32]),
) {
    thread_local! {
        static SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    }
    assert!(ldl >= order.max(1) && ldb >= rows.max(1));
    if order == 0 || rows == 0 || cols == 0 {
        return;
    }
    SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let need = order * order + rows * cols;
        if scratch.len() < need {
            scratch.resize(need, 0.0);
        }
        let (lf, bf) = scratch[..need].split_at_mut(order * order);
        simd::dispatch(
            #[inline(always)]
            |s| {
                if trim {
                    Trimmed::operand(s, l, order, order, ldl, lf);
                    Trimmed::operand(s, b, rows, cols, ldb, bf);
                } else {
                    Demoted::operand(s, l, order, order, ldl, lf);
                    Demoted::operand(s, b, rows, cols, ldb, bf);
                }
            },
        );
        solve(lf, bf);
        simd::dispatch(
            #[inline(always)]
            |s| {
                for (bcol, fcol) in b.chunks_mut(ldb).zip(bf.chunks_exact(rows)) {
                    let bcol = &mut bcol[..rows];
                    for (d, x) in bcol.iter_mut().zip(fcol) {
                        *d = *x as f64;
                    }
                    if round16 {
                        round_through_half(s, bcol);
                    }
                }
            },
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::on_both_sides_of_the_seam;
    use crate::gemm::tests::per_column_is_independent_of_n;

    fn fill(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    /// The conversions fused into packing and write-back — `vcvtpd2ps`,
    /// F16C — against their scalar and software forms, through the whole
    /// kernel: blocked with edge panels and two KC blocks, and naive.
    fn seam_is_bitwise_invisible<F: Feed<T = f32, Src = f64, Dst = f64>>(storage: Precision) {
        for &(m, n, k) in &[(131, 67, 259), (100, 100, 100), (12, 10, 300), (13, 7, 9)] {
            let (lda, ldb, ldc) = (m + 3, n + 1, m + 2);
            let a = fill(lda * k, 80);
            let b = fill(ldb * k, 81);
            // C holds values of its storage format, as a tile does.
            let mut c = fill(ldc * n, 82);
            crate::convert::round_through(&mut c, storage);
            let Some((plain, fast)) = on_both_sides_of_the_seam::<F>(
                Trans::No,
                Trans::Yes,
                m,
                n,
                k,
                -1.0,
                &a,
                lda,
                &b,
                ldb,
                &c,
                ldc,
            ) else {
                return; // no fast side on this CPU
            };
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&plain), bits(&fast), "{storage:?} ({m},{n},{k})");
            // The receiver's invariant survives the update.
            let mut again = fast.clone();
            crate::convert::round_through(&mut again, storage);
            assert_eq!(
                bits(&again),
                bits(&fast),
                "{storage:?} result not representable"
            );
        }
    }

    #[test]
    fn demoting_pack_is_bitwise_the_scalar_one() {
        seam_is_bitwise_invisible::<Demoted>(Precision::F32);
    }

    #[test]
    fn f16c_trimming_pack_and_write_back_are_bitwise_the_software_ones() {
        seam_is_bitwise_invisible::<Trimmed>(Precision::F16);
    }

    #[test]
    fn mixed_feeds_per_column_are_independent_of_n() {
        let half = |x: f64| crate::Half::from_f64(x).to_f64();
        per_column_is_independent_of_n::<Demoted>(|x| x, |x| x as f32 as f64);
        per_column_is_independent_of_n::<Trimmed>(|x| x, half);
    }
}
