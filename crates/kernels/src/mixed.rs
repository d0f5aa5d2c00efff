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
//!
//! **Flush contract.** The `f32` region — the FP32/FP16 arms of [`gemm`]
//! and the solve both TRSMs share — runs under flush-to-zero with
//! denormals-are-zero (`simd::flush_to_zero`, MXCSR on x86-64), the
//! caller's mode restored on return and on unwind. Far-field covariances
//! of 1e-13…1e-36 demoted to `f32` have products below `f32::MIN_POSITIVE`,
//! and each FMA that writes a subnormal takes a microcode assist; flushed,
//! such a product, a demoted operand or a receiver entry below the normal
//! range is zero. So an FP32/FP16 receiver never holds an `f32` subnormal,
//! and results differ from gradual underflow only where an `f32`
//! intermediate was subnormal (FP16 receivers, whose operands binary16
//! already rounds to zero that far down, do not change at all). Zeroing
//! small operands while packing would not do: two normal `1e-20` operands
//! already make a subnormal product. The FP64 arms, and every kernel
//! outside this module (`xgs_kernels::gemm::<f32>` included), keep IEEE
//! gradual underflow. Every engine calls these same kernels on whatever
//! thread runs the task, so the flush never tells two engines apart.

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
/// receiver `C`; FP32/FP16 receivers under flush-to-zero.
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
        Precision::F32 => simd::flush_to_zero(|| {
            gemm_fed::<Demoted>(
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
            )
        }),
        Precision::F16 => simd::flush_to_zero(|| {
            gemm_fed::<Trimmed>(
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
            )
        }),
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
/// (rounding through binary16 when `round16`), all under flush-to-zero.
/// The scratch is grow-only and separate from GEMM's pack buffers, which
/// `solve` uses.
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
    simd::flush_to_zero(|| {
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
        })
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

    fn scaled(seed: u64, len: usize, by: f64) -> Vec<f64> {
        fill(len, seed).into_iter().map(|x| x * by).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The conversions fused into packing and write-back — `vcvtpd2ps`,
    /// F16C — against their scalar and software forms, through the whole
    /// kernel: blocked with edge panels and two KC blocks, and naive. Both
    /// sides run under flush-to-zero, as [`gemm`] runs them, and equal what
    /// [`gemm`] computes. Operands come O(1) and scaled by 1e-20, where
    /// every product is below `f32::MIN_POSITIVE`, against a C of O(1)
    /// values and one of 1e-37 values (some f32 subnormals as stored):
    /// then no receiver entry is subnormal, and on the O(1) C the update
    /// changes nothing. This pins the flush on any CPU.
    fn seam_is_bitwise_invisible<F: Feed<T = f32, Src = f64, Dst = f64>>(storage: Precision) {
        for &(m, n, k) in &[(131, 67, 259), (100, 100, 100), (12, 10, 300), (13, 7, 9)] {
            let (lda, ldb, ldc) = (m + 3, n + 1, m + 2);
            for (by, c_by) in [(1.0, 1.0), (1e-20, 1.0), (1e-20, 1e-37)] {
                let a = scaled(80, lda * k, by);
                let b = scaled(81, ldb * k, by);
                // C holds values of its storage format, as a tile does.
                let mut c = scaled(82, ldc * n, c_by);
                crate::convert::round_through(&mut c, storage);
                let context = format!("{storage:?} ({m},{n},{k}) operands x{by:e}, C x{c_by:e}");
                let mut public = c.clone();
                gemm(
                    storage,
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
                    &mut public,
                    ldc,
                );
                let sides = simd::flush_to_zero(|| {
                    on_both_sides_of_the_seam::<F>(
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
                    )
                });
                // `None`: no fast side on this CPU.
                if let Some((plain, fast)) = sides {
                    assert_eq!(bits(&plain), bits(&fast), "{context}");
                    assert_eq!(
                        bits(&fast),
                        bits(&public),
                        "{context}: not what gemm computes"
                    );
                }
                // The receiver's invariant survives the update.
                let mut again = public.clone();
                crate::convert::round_through(&mut again, storage);
                assert_eq!(
                    bits(&again),
                    bits(&public),
                    "{context}: result not representable"
                );
                for (j, col) in public.chunks(ldc).enumerate() {
                    for (i, x) in col[..m].iter().enumerate() {
                        assert!(
                            !(*x as f32).is_subnormal(),
                            "{context}: C[{i},{j}] = {x:e} is an f32 subnormal"
                        );
                    }
                }
                if by < 1.0 && c_by == 1.0 {
                    assert_eq!(
                        bits(&public),
                        bits(&c),
                        "{context}: underflowed products moved C"
                    );
                }
            }
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

    /// The flush ends with the f32 region. After `gemm` (FP32, FP16) and
    /// both TRSMs (FP32) return, this thread has gradual underflow again,
    /// in `f32` and in an f64 `crate::gemm` whose results are f64
    /// subnormals: it computes the bits of a thread that never flushed.
    /// The TRSMs, on right-hand sides whose solutions lie mostly in f32's
    /// subnormal range, show they ran flushed.
    #[test]
    fn f32_region_leaves_the_caller_with_gradual_underflow() {
        let n = 60;
        let (a, b) = (scaled(1, n * n, 1e-160), scaled(2, n * n, 1e-160));
        let f64_gemm = move || {
            let mut c = vec![0.0; n * n];
            crate::gemm(
                Trans::No,
                Trans::Yes,
                n,
                n,
                n,
                1.0,
                &a,
                n,
                &b,
                n,
                0.0,
                &mut c,
                n,
            );
            c
        };
        let unflushed = std::thread::spawn(f64_gemm.clone()).join().unwrap();
        assert!(
            unflushed.iter().any(|x| x.is_subnormal()),
            "f64 products must underflow"
        );

        let mut c = fill(n * n, 3);
        for storage in [Precision::F32, Precision::F16] {
            gemm(
                storage,
                Trans::No,
                Trans::Yes,
                n,
                n,
                n,
                -1.0,
                &fill(n * n, 4),
                n,
                &fill(n * n, 5),
                n,
                &mut c,
                n,
            );
        }
        let mut l = fill(n * n, 6);
        for j in 0..n {
            l[j + j * n] = n as f64;
        }
        let mut right = scaled(7, n * n, 1e-37);
        trsm_right_lower_trans(Precision::F32, n, n, &l, n, &mut right, n);
        let mut left = scaled(8, n * n, 1e-37);
        trsm_left_lower_notrans(Precision::F32, n, n, &l, n, &mut left, n);
        for x in right.iter().chain(&left) {
            assert!(!(*x as f32).is_subnormal(), "TRSM left {x:e} unflushed");
        }

        let half_min = std::hint::black_box(f32::MIN_POSITIVE) / 2.0;
        assert_eq!(half_min.to_bits(), 0x0040_0000, "f32 flushed after return");
        assert_eq!(
            bits(&f64_gemm()),
            bits(&unflushed),
            "f64 flushed after return"
        );
    }

    /// The tripwire for a lost flush: an FP32 update whose every product is
    /// an f32 subnormal runs within 4× of the same update on O(1) operands,
    /// best of 20 each, interleaved. Under gradual underflow each such FMA
    /// takes a microcode assist on x86 and the ratio is about 130; on a CPU
    /// without the assist it passes either way. Release only, where the
    /// kernel runs at speed.
    #[cfg(not(debug_assertions))]
    #[test]
    fn subnormal_products_cost_what_normal_ones_cost() {
        use std::time::{Duration, Instant};
        let n = 100;
        let time = |by: f64| {
            let (a, b) = (scaled(90, n * n, by), scaled(91, n * n, by));
            let mut c = vec![0.0; n * n];
            let start = Instant::now();
            gemm(
                Precision::F32,
                Trans::No,
                Trans::Yes,
                n,
                n,
                n,
                -1.0,
                &a,
                n,
                &b,
                n,
                &mut c,
                n,
            );
            start.elapsed()
        };
        let (mut normal, mut subnormal) = (Duration::MAX, Duration::MAX);
        for _ in 0..20 {
            normal = normal.min(time(1.0));
            subnormal = subnormal.min(time(1e-20));
        }
        assert!(
            subnormal <= normal * 4,
            "1e-20-scaled operands took {subnormal:?}, O(1) ones {normal:?}"
        );
    }
}
