//! General matrix-matrix multiply: `C <- alpha * op(A) * op(B) + beta * C`.
//!
//! Column-major with explicit leading dimensions, like BLAS `xGEMM`. The
//! FP64/FP32 entry point ([`gemm`]) is generic over [`Real`]; [`shgemm`]
//! reads binary16 operands and accumulates in FP32 (the paper's SHGEMM);
//! [`crate::mixed`] runs FP32 on the f64-backed tiles of the mixed-
//! precision Cholesky. All of them are one engine fed three ways (the
//! crate-private `Feed`): the operand element type is converted to the
//! compute type *while it is packed*, and the write-back converts into C's
//! storage type, so no caller materializes a converted copy.
//!
//! Two loop nests share the same BLAS semantics:
//!
//! * the naive path — the original axpy/dot loop nest, kept as the test
//!   oracle and as the small-problem path (no packing overhead).
//! * the cache-blocked path — BLIS-style `NC/KC/MC` loop blocking around an
//!   `MR x NR` register microkernel over zero-padded packed micro-panels;
//!   the pack buffers belong to the worker thread and are reused across
//!   calls. The register tile is per precision (f64 8×4, f32 16×4). Fewer
//!   than `NR` columns skip the packing and run the same per-column
//!   arithmetic straight off the operands (the column path): a one-column
//!   solve would otherwise pack all of `op(A)` and pad the register tile
//!   with three zero columns.
//!
//! The whole call — `beta` scaling, packing, microkernel, `alpha`
//! write-back — runs through the crate's AVX2+FMA seam (`simd.rs`),
//! selected once per call. Both sides of the seam compute the same fused
//! multiply-adds in the same order, so the selection never changes a
//! result bitwise.
//!
//! **Determinism contract**: for a fixed `(m, k)` and fixed inputs, every
//! output column is computed by the exact same arithmetic regardless of `n`.
//! `(m, k)` choose between the naive and the blocked arithmetic; `n` may
//! only choose between paths whose per-column arithmetic is identical (the
//! packed and the column path), and every path processes each column
//! independently. This is what keeps the server's batched multi-RHS solves
//! bitwise identical to singleton solves on top of a blocked kernel.

use crate::half::Half;
use crate::simd::{self, Avx2, Micro, ACC, NR};
use crate::Real;
use std::marker::PhantomData;

/// Transposition flag for a GEMM operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trans {
    No,
    Yes,
}

/// Loop blocking: a `KC`-deep slice of the inner dimension is packed once
/// and reused across the whole `MC x NC` block of C (packed A panel:
/// `MC x KC` ≈ L2-resident, packed B panel: `KC x NC` ≈ L3-resident).
/// `MC` is a multiple of every precision's register-tile height.
const KC: usize = 256;
const MC: usize = 128;
const NC: usize = 512;

/// Below this `m * k` footprint the packed panels cannot be amortized and
/// the naive loop nest wins. The arithmetic is chosen from `m` and `k` only
/// — never `n` — so per-column results are independent of how many columns
/// ride in one call (see the module-level determinism contract).
const BLOCK_MIN_MK: usize = 48 * 48;

/// Column path, `op(A)` transposed: rows of C whose dot-product chains run
/// side by side so that their fused multiply-adds overlap.
const DOT_ROWS: usize = 8;

/// One way of feeding the engine: what the operands are stored as, what
/// the kernel computes in, and what C is stored as. Every conversion is
/// per element and exact or correctly rounded, so a feed computes what
/// "convert the operands, run [`gemm`] in `T`, convert C back" computes,
/// bit for bit, without the copies.
pub(crate) trait Feed {
    /// Compute type.
    type T: Real;
    /// Operand storage.
    type Src: Copy;
    /// Storage of C: the compute type or a wider one, so [`read`] and
    /// [`write`] are exact.
    type Dst: Real;
    /// Whether operands need converting at all; `false` lets the naive
    /// loops read them in place.
    const CONVERTS: bool = true;

    /// One operand element in the compute type.
    fn get(x: Self::Src) -> Self::T;

    /// `dst[i] = get(src[i])` over a contiguous run; overridden where the
    /// seam has a vector conversion.
    #[inline(always)]
    fn load(_simd: Option<Avx2>, src: &[Self::Src], dst: &mut [Self::T]) {
        load_each::<Self>(src, dst);
    }

    /// The `rows x cols` operand at `src` (leading dimension `ld`) as a
    /// compute-type matrix for the loops that read operands unpacked (the
    /// naive and the column path): converted into `scratch` unless it
    /// already is one.
    #[inline(always)]
    fn operand<'a>(
        simd: Option<Avx2>,
        src: &'a [Self::Src],
        rows: usize,
        cols: usize,
        ld: usize,
        scratch: &'a mut [Self::T],
    ) -> (&'a [Self::T], usize) {
        for j in 0..cols {
            let col = &mut scratch[j * rows..j * rows + rows];
            Self::load(simd, &src[j * ld..j * ld + rows], col);
        }
        (scratch, rows.max(1))
    }

    /// Storage rounding of a finished run of C (FP16 receivers).
    #[inline(always)]
    fn finish(_simd: Option<Avx2>, _c: &mut [Self::Dst]) {}
}

/// The scalar form of [`Feed::load`].
#[inline(always)]
pub(crate) fn load_each<F: Feed + ?Sized>(src: &[F::Src], dst: &mut [F::T]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = F::get(*s);
    }
}

/// An element of C in the compute type.
#[inline(always)]
fn read<F: Feed>(c: F::Dst) -> F::T {
    F::T::from_f64(c.to_f64())
}

/// A computed element in C's storage type.
#[inline(always)]
fn write<F: Feed>(v: F::T) -> F::Dst {
    F::Dst::from_f64(v.to_f64())
}

/// Operands and C already in the compute type: [`gemm`].
pub(crate) struct Same<T>(PhantomData<T>);

impl<T: Real> Feed for Same<T> {
    type T = T;
    type Src = T;
    type Dst = T;
    const CONVERTS: bool = false;
    #[inline(always)]
    fn get(x: T) -> T {
        x
    }
    #[inline(always)]
    fn operand<'a>(
        _simd: Option<Avx2>,
        src: &'a [T],
        _rows: usize,
        _cols: usize,
        ld: usize,
        _scratch: &'a mut [T],
    ) -> (&'a [T], usize) {
        (src, ld)
    }
}

/// Binary16 operands promoted (exactly) while packing, FP32 C: [`shgemm`].
struct FromHalf;

impl Feed for FromHalf {
    type T = f32;
    type Src = Half;
    type Dst = f32;
    #[inline(always)]
    fn get(x: Half) -> f32 {
        x.to_f32()
    }
    #[inline(always)]
    fn load(simd: Option<Avx2>, src: &[Half], dst: &mut [f32]) {
        match simd {
            Some(s) => s.promote_half(src, dst),
            None => load_each::<Self>(src, dst),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn check_dims(
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    a_len: usize,
    lda: usize,
    b_len: usize,
    ldb: usize,
    c_len: usize,
    ldc: usize,
) {
    let (a_rows, a_cols) = match transa {
        Trans::No => (m, k),
        Trans::Yes => (k, m),
    };
    let (b_rows, b_cols) = match transb {
        Trans::No => (k, n),
        Trans::Yes => (n, k),
    };
    assert!(lda >= a_rows.max(1), "lda {lda} < rows of A {a_rows}");
    assert!(ldb >= b_rows.max(1), "ldb {ldb} < rows of B {b_rows}");
    assert!(ldc >= m.max(1), "ldc {ldc} < m {m}");
    if a_cols > 0 && a_rows > 0 {
        assert!(a_len >= lda * (a_cols - 1) + a_rows);
    }
    if b_cols > 0 && b_rows > 0 {
        assert!(b_len >= ldb * (b_cols - 1) + b_rows);
    }
    if n > 0 {
        assert!(c_len >= ldc * (n - 1) + m);
    }
}

/// `C <- beta * C` over the `m x n` window (beta == 0 overwrites NaN too).
#[inline(always)]
fn scale_beta<T: Real>(m: usize, n: usize, beta: T, c: &mut [T], ldc: usize) {
    if beta == T::ONE {
        return;
    }
    for j in 0..n {
        let col = &mut c[j * ldc..j * ldc + m];
        if beta == T::ZERO {
            for x in col.iter_mut() {
                *x = T::ZERO;
            }
        } else {
            for x in col.iter_mut() {
                *x = *x * beta;
            }
        }
    }
}

/// `C <- alpha * op(A) * op(B) + beta * C`.
///
/// * `m, n` — dimensions of `C`; `k` — inner dimension.
/// * `op(A)` is `m x k`, `op(B)` is `k x n`.
///
/// Panics if a leading dimension is smaller than the operand's row count.
#[allow(clippy::too_many_arguments)]
pub fn gemm<T: Real>(
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) {
    gemm_fed::<Same<T>>(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

/// `C <- beta * C`, then `C += alpha * op(A) * op(B)` through feed `F`:
/// bounds checks, this thread's pack buffers, one trip through the seam.
/// `beta` scales C's storage directly, so a feed whose C is not stored in
/// the compute type passes one.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_fed<F: Feed>(
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: F::T,
    a: &[F::Src],
    lda: usize,
    b: &[F::Src],
    ldb: usize,
    beta: F::Dst,
    c: &mut [F::Dst],
    ldc: usize,
) {
    check_dims(
        transa,
        transb,
        m,
        n,
        k,
        a.len(),
        lda,
        b.len(),
        ldb,
        c.len(),
        ldc,
    );
    let (alen, blen) = pack_lens::<F>(m, n, k);
    F::T::with_pack_bufs(alen, blen, |apack, bpack| {
        simd::dispatch(
            #[inline(always)]
            |s| {
                scale_beta(m, n, beta, c, ldc);
                gemm_core::<F>(
                    s, transa, transb, m, n, k, alpha, a, lda, b, ldb, c, ldc, apack, bpack,
                )
            },
        )
    })
}

/// Pack-buffer lengths [`gemm_core`] needs for this shape: the blocked
/// path's two panels, the column path's converted operand pieces, or the
/// naive path's converted operands (nothing for a feed that borrows them).
fn pack_lens<F: Feed>(m: usize, n: usize, k: usize) -> (usize, usize) {
    if m * k >= BLOCK_MIN_MK && n < NR {
        let kc = KC.min(k);
        ((2 * m).max(DOT_ROWS * kc), kc)
    } else if m * k >= BLOCK_MIN_MK {
        let mr = <F::T as Micro>::MR;
        let kc = KC.min(k);
        (
            MC.min(m).div_ceil(mr) * mr * kc,
            NC.min(n).div_ceil(NR) * NR * kc,
        )
    } else if F::CONVERTS {
        (m * k, k * n)
    } else {
        (0, 0)
    }
}

/// The original unblocked loop nest with full BLAS semantics — the test
/// oracle for the blocked path.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_naive<T: Real>(
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) {
    check_dims(
        transa,
        transb,
        m,
        n,
        k,
        a.len(),
        lda,
        b.len(),
        ldb,
        c.len(),
        ldc,
    );
    scale_beta(m, n, beta, c, ldc);
    if k == 0 || m == 0 || n == 0 || alpha == T::ZERO {
        return;
    }
    gemm_core_naive::<Same<T>>(
        None,
        transa,
        transb,
        m,
        n,
        k,
        alpha,
        a,
        lda,
        b,
        ldb,
        c,
        ldc,
        &mut [],
        &mut [],
    );
}

/// `C += alpha * op(A) * op(B)` (beta already applied): the path choice.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_core<F: Feed>(
    simd: Option<Avx2>,
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: F::T,
    a: &[F::Src],
    lda: usize,
    b: &[F::Src],
    ldb: usize,
    c: &mut [F::Dst],
    ldc: usize,
    apack: &mut [F::T],
    bpack: &mut [F::T],
) {
    if k == 0 || m == 0 || n == 0 || alpha == F::T::ZERO {
        return;
    }
    if m * k >= BLOCK_MIN_MK && n < NR {
        gemm_core_columns::<F>(
            simd, transa, transb, m, n, k, alpha, a, lda, b, ldb, c, ldc, apack, bpack,
        );
    } else if m * k >= BLOCK_MIN_MK {
        gemm_core_blocked::<F>(
            simd, transa, transb, m, n, k, alpha, a, lda, b, ldb, c, ldc, apack, bpack,
        );
    } else {
        gemm_core_naive::<F>(
            simd, transa, transb, m, n, k, alpha, a, lda, b, ldb, c, ldc, apack, bpack,
        );
    }
}

/// Unblocked update `C += alpha * op(A) * op(B)` (beta already applied).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_core_naive<F: Feed>(
    simd: Option<Avx2>,
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: F::T,
    a: &[F::Src],
    lda: usize,
    b: &[F::Src],
    ldb: usize,
    c: &mut [F::Dst],
    ldc: usize,
    ascratch: &mut [F::T],
    bscratch: &mut [F::T],
) {
    let (a_rows, a_cols) = match transa {
        Trans::No => (m, k),
        Trans::Yes => (k, m),
    };
    let (b_rows, b_cols) = match transb {
        Trans::No => (k, n),
        Trans::Yes => (n, k),
    };
    let (a, lda) = F::operand(simd, a, a_rows, a_cols, lda, ascratch);
    let (b, ldb) = F::operand(simd, b, b_rows, b_cols, ldb, bscratch);
    for j in 0..n {
        let ccol = &mut c[j * ldc..j * ldc + m];
        match transa {
            // C[:,j] += alpha * A[:,l] * op(B)[l,j] — pure axpy over
            // columns of A and C, vectorizes along m.
            Trans::No => {
                for l in 0..k {
                    let blj = alpha
                        * match transb {
                            Trans::No => b[l + j * ldb],
                            Trans::Yes => b[j + l * ldb],
                        };
                    if blj == F::T::ZERO {
                        continue;
                    }
                    let acol = &a[l * lda..l * lda + m];
                    for (ci, ai) in ccol.iter_mut().zip(acol) {
                        *ci = write::<F>(ai.mul_add(blj, read::<F>(*ci)));
                    }
                }
            }
            // C[i,j] += alpha * dot(A[:,i], op(B)[:,j]) — dot products
            // down contiguous columns of A.
            Trans::Yes => {
                for (i, ci) in ccol.iter_mut().enumerate() {
                    let acol = &a[i * lda..i * lda + k];
                    let mut s = F::T::ZERO;
                    match transb {
                        Trans::No => {
                            for (ai, bi) in acol.iter().zip(&b[j * ldb..j * ldb + k]) {
                                s = ai.mul_add(*bi, s);
                            }
                        }
                        Trans::Yes => {
                            for (l, ai) in acol.iter().enumerate() {
                                s = ai.mul_add(b[j + l * ldb], s);
                            }
                        }
                    }
                    *ci = write::<F>(read::<F>(*ci) + alpha * s);
                }
            }
        }
        F::finish(simd, ccol);
    }
}

/// Pack `op(A)[ic.., pc..]` (`mc x kc`) into row micro-panels of height
/// `MR`: panel `p` holds rows `p*MR..(p+1)*MR` stored column-by-column
/// (`apack[p*MR*kc + l*MR + r]`), rows past `mc` zero-padded so the
/// microkernel never branches on the row edge. Elements are converted to
/// the compute type on the way in.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn pack_a<F: Feed>(
    simd: Option<Avx2>,
    transa: Trans,
    mc: usize,
    kc: usize,
    a: &[F::Src],
    lda: usize,
    ic: usize,
    pc: usize,
    apack: &mut [F::T],
) {
    let mr = <F::T as Micro>::MR;
    for p in 0..mc.div_ceil(mr) {
        let rows = mr.min(mc - p * mr);
        let row0 = ic + p * mr;
        for l in 0..kc {
            let dst = &mut apack[p * mr * kc + l * mr..][..mr];
            match transa {
                // A full panel's run has the register tile's constant
                // length, which is what lets the conversion unroll.
                Trans::No if rows == mr => {
                    F::load(simd, &a[row0 + (pc + l) * lda..][..mr], dst);
                }
                Trans::No => {
                    let at = row0 + (pc + l) * lda;
                    F::load(simd, &a[at..at + rows], &mut dst[..rows]);
                }
                Trans::Yes => {
                    for (r, d) in dst[..rows].iter_mut().enumerate() {
                        *d = F::get(a[(pc + l) + (row0 + r) * lda]);
                    }
                }
            }
            dst[rows..].fill(F::T::ZERO);
        }
    }
}

/// Pack `op(B)[pc.., jc..]` (`kc x nc`) into column micro-panels of width
/// `NR` (`bpack[q*NR*kc + l*NR + c]`), columns past `nc` zero-padded.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn pack_b<F: Feed>(
    simd: Option<Avx2>,
    transb: Trans,
    kc: usize,
    nc: usize,
    b: &[F::Src],
    ldb: usize,
    pc: usize,
    jc: usize,
    bpack: &mut [F::T],
) {
    for q in 0..nc.div_ceil(NR) {
        let cols = NR.min(nc - q * NR);
        let col0 = jc + q * NR;
        for l in 0..kc {
            let dst = &mut bpack[q * NR * kc + l * NR..][..NR];
            match transb {
                Trans::No => {
                    for (col, d) in dst[..cols].iter_mut().enumerate() {
                        *d = F::get(b[(pc + l) + (col0 + col) * ldb]);
                    }
                }
                Trans::Yes if cols == NR => {
                    F::load(simd, &b[col0 + (pc + l) * ldb..][..NR], dst);
                }
                Trans::Yes => {
                    let at = col0 + (pc + l) * ldb;
                    F::load(simd, &b[at..at + cols], &mut dst[..cols]);
                }
            }
            dst[cols..].fill(F::T::ZERO);
        }
    }
}

/// Generic `MR x NR` microkernel: `acc[c][r] += ap[l][r] * bp[l][c]` over
/// `l`, one fused multiply-add per element per step — the plain side of
/// the seam; the AVX2 register tiles perform the identical operations in
/// the identical order.
#[inline(always)]
fn microkernel<T: Real>(kc: usize, ap: &[T], bp: &[T], acc: &mut [T; ACC]) {
    let mr = T::MR;
    for l in 0..kc {
        let av = &ap[l * mr..l * mr + mr];
        let bv = &bp[l * NR..l * NR + NR];
        for (col, bc) in acc.chunks_exact_mut(mr).zip(bv) {
            for (accr, ar) in col.iter_mut().zip(av) {
                *accr = ar.mul_add(*bc, *accr);
            }
        }
    }
}

/// Cache-blocked update `C += alpha * op(A) * op(B)` (beta already
/// applied): BLIS-style `jc/pc/ic` loop blocking over packed, zero-padded
/// micro-panels with an `MR x NR` register microkernel.
///
/// Per-column arithmetic depends only on `(m, k)` and the column's data:
/// the `pc` loop fixes the k-summation grouping from `KC` alone, and a
/// column's register-tile membership never changes what is accumulated
/// into it — which keeps batched and singleton calls bitwise identical,
/// and makes the register-tile height invisible in the result.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_core_blocked<F: Feed>(
    simd: Option<Avx2>,
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: F::T,
    a: &[F::Src],
    lda: usize,
    b: &[F::Src],
    ldb: usize,
    c: &mut [F::Dst],
    ldc: usize,
    apack: &mut [F::T],
    bpack: &mut [F::T],
) {
    let mr_full = <F::T as Micro>::MR;
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let last = pc + kc == k;
            pack_b::<F>(simd, transb, kc, nc, b, ldb, pc, jc, bpack);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                pack_a::<F>(simd, transa, mc, kc, a, lda, ic, pc, apack);
                for jr in (0..nc).step_by(NR) {
                    let nr = NR.min(nc - jr);
                    let bp = &bpack[(jr / NR) * NR * kc..][..NR * kc];
                    for ir in (0..mc).step_by(mr_full) {
                        let mr = mr_full.min(mc - ir);
                        let ap = &apack[(ir / mr_full) * mr_full * kc..][..mr_full * kc];
                        let mut acc = [F::T::ZERO; ACC];
                        match simd {
                            Some(s) => F::T::microkernel_avx2(s, kc, ap, bp, &mut acc),
                            None => microkernel(kc, ap, bp, &mut acc),
                        }
                        // Write back only the real rows/cols; padded lanes
                        // hold exact zeros and are dropped.
                        for (cq, col) in acc.chunks_exact(mr_full).enumerate().take(nr) {
                            let cbase = (jc + jr + cq) * ldc + ic + ir;
                            let ccol = &mut c[cbase..cbase + mr];
                            write_back::<F>(alpha, col, ccol);
                            if last {
                                F::finish(simd, ccol);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The blocked path's arithmetic for fewer than `NR` columns, without
/// packing: per column and `KC` slice an accumulator started from zero,
/// one fused multiply-add per `l` in ascending order, the write-back
/// `c = fma(acc, alpha, c)`, and `F::finish` after the last slice — what
/// the register tile does to each of its columns, so a column comes out
/// bit for bit as it would from [`gemm_core_blocked`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_core_columns<F: Feed>(
    simd: Option<Avx2>,
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: F::T,
    a: &[F::Src],
    lda: usize,
    b: &[F::Src],
    ldb: usize,
    c: &mut [F::Dst],
    ldc: usize,
    ascratch: &mut [F::T],
    bscratch: &mut [F::T],
) {
    for j in 0..n {
        let ccol = &mut c[j * ldc..j * ldc + m];
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let bj = &mut bscratch[..kc];
            match transb {
                Trans::No => F::load(simd, &b[pc + j * ldb..][..kc], bj),
                Trans::Yes => {
                    for (l, d) in bj.iter_mut().enumerate() {
                        *d = F::get(b[j + (pc + l) * ldb]);
                    }
                }
            }
            match transa {
                // op(A)'s columns are A's: one axpy per `l` down a whole
                // column into `acc`, so A streams through once, in order.
                Trans::No => {
                    let (acc, conv) = ascratch[..2 * m].split_at_mut(m);
                    acc.fill(F::T::ZERO);
                    for (l, bl) in bj.iter().enumerate() {
                        let (acol, _) = F::operand(simd, &a[(pc + l) * lda..], m, 1, lda, conv);
                        for (s, av) in acc.iter_mut().zip(&acol[..m]) {
                            *s = av.mul_add(*bl, *s);
                        }
                    }
                    write_back::<F>(alpha, acc, ccol);
                }
                // op(A)'s rows are A's columns: one dot product per row of
                // C, `DOT_ROWS` of them interleaved.
                Trans::Yes => {
                    let full = m - m % DOT_ROWS;
                    for r0 in (0..full).step_by(DOT_ROWS) {
                        column_dots::<F, DOT_ROWS>(
                            simd,
                            r0,
                            &a[pc..],
                            lda,
                            bj,
                            alpha,
                            ccol,
                            ascratch,
                        );
                    }
                    for r0 in full..m {
                        column_dots::<F, 1>(simd, r0, &a[pc..], lda, bj, alpha, ccol, ascratch);
                    }
                }
            }
            if pc + kc == k {
                F::finish(simd, ccol);
            }
        }
    }
}

/// `ccol[r0..r0 + R] = fma(dot(A[.., r0 + i], bj), alpha, ccol)` for a
/// transposed `op(A)` whose `KC` slice starts at `a`: `R` independent
/// chains, each in ascending `l` from zero.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn column_dots<F: Feed, const R: usize>(
    simd: Option<Avx2>,
    r0: usize,
    a: &[F::Src],
    lda: usize,
    bj: &[F::T],
    alpha: F::T,
    ccol: &mut [F::Dst],
    scratch: &mut [F::T],
) {
    let kc = bj.len();
    let (arows, ld) = F::operand(simd, &a[r0 * lda..], kc, R, lda, scratch);
    let arows: [&[F::T]; R] = std::array::from_fn(|i| &arows[i * ld..i * ld + kc]);
    let mut acc = [F::T::ZERO; R];
    for (l, bl) in bj.iter().enumerate() {
        for (s, arow) in acc.iter_mut().zip(&arows) {
            *s = arow[l].mul_add(*bl, *s);
        }
    }
    write_back::<F>(alpha, &acc, &mut ccol[r0..r0 + R]);
}

/// `c = fma(acc, alpha, c)` in C's storage type: the register tile's
/// write-back.
#[inline(always)]
fn write_back<F: Feed>(alpha: F::T, acc: &[F::T], c: &mut [F::Dst]) {
    for (ci, s) in c.iter_mut().zip(acc) {
        *ci = write::<F>(s.mul_add(alpha, read::<F>(*ci)));
    }
}

/// SHGEMM: `C(f32) <- alpha * op(f16(A)) * op(f16(B)) + beta * C`.
///
/// Operands arrive already trimmed to binary16 tiles; every product
/// `a_il * b_lj` is computed on the exact `f32` values of the halves and
/// accumulated in `f32`, reproducing the mixed-precision HGEMM-with-FP32-
/// accumulation the paper obtains from BLIS on A64FX (Fig. 8) and from
/// trimmed SGEMM on Shaheen II. The halves are promoted as they are packed
/// (`vcvtph2ps` where the seam is open) into the FP32 register tile's own
/// panels — "call an SGEMM BLAS routine to accumulate in FP32" without a
/// promoted copy of either operand.
#[allow(clippy::too_many_arguments)]
pub fn shgemm(
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[Half],
    lda: usize,
    b: &[Half],
    ldb: usize,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
) {
    gemm_fed::<FromHalf>(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

/// `C += alpha * op(A) * op(B)` through feed `F` on each side of the seam
/// — plain code, then the AVX2+FMA+F16C region — for the bitwise
/// plain == SIMD tests. `None` when the CPU has no fast side.
#[cfg(test)]
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
pub(crate) fn on_both_sides_of_the_seam<F: Feed>(
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: F::T,
    a: &[F::Src],
    lda: usize,
    b: &[F::Src],
    ldb: usize,
    c: &[F::Dst],
    ldc: usize,
) -> Option<(Vec<F::Dst>, Vec<F::Dst>)> {
    let s = Avx2::detect()?;
    let (alen, blen) = pack_lens::<F>(m, n, k);
    let (mut apack, mut bpack) = (vec![F::T::ZERO; alen], vec![F::T::ZERO; blen]);
    let (mut plain, mut fast) = (c.to_vec(), c.to_vec());
    gemm_core::<F>(
        None, transa, transb, m, n, k, alpha, a, lda, b, ldb, &mut plain, ldc, &mut apack,
        &mut bpack,
    );
    s.run(
        #[inline(always)]
        || {
            gemm_core::<F>(
                Some(s),
                transa,
                transb,
                m,
                n,
                k,
                alpha,
                a,
                lda,
                b,
                ldb,
                &mut fast,
                ldc,
                &mut apack,
                &mut bpack,
            )
        },
    );
    Some((plain, fast))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Unoptimized triple loop used as the oracle.
    #[allow(clippy::too_many_arguments)]
    fn gemm_ref(
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
        beta: f64,
        c: &mut [f64],
        ldc: usize,
    ) {
        for j in 0..n {
            for i in 0..m {
                let mut s = 0.0;
                for l in 0..k {
                    let av = match transa {
                        Trans::No => a[i + l * lda],
                        Trans::Yes => a[l + i * lda],
                    };
                    let bv = match transb {
                        Trans::No => b[l + j * ldb],
                        Trans::Yes => b[j + l * ldb],
                    };
                    s += av * bv;
                }
                c[i + j * ldc] = alpha * s + beta * c[i + j * ldc];
            }
        }
    }

    fn fill(n: usize, seed: u64) -> Vec<f64> {
        // Tiny deterministic LCG so the kernel crate stays dependency-free.
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

    #[test]
    fn all_transpose_combinations_match_reference() {
        let (m, n, k) = (13, 7, 9);
        for (ta, tb) in [
            (Trans::No, Trans::No),
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::No),
            (Trans::Yes, Trans::Yes),
        ] {
            let (ar, ac) = if ta == Trans::No { (m, k) } else { (k, m) };
            let (br, bc) = if tb == Trans::No { (k, n) } else { (n, k) };
            let a = fill(ar * ac, 1);
            let b = fill(br * bc, 2);
            let mut c1 = fill(m * n, 3);
            let mut c2 = c1.clone();
            gemm(ta, tb, m, n, k, 0.7, &a, ar, &b, br, -1.3, &mut c1, m);
            gemm_ref(ta, tb, m, n, k, 0.7, &a, ar, &b, br, -1.3, &mut c2, m);
            for (x, y) in c1.iter().zip(&c2) {
                assert!((x - y).abs() < 1e-12, "{ta:?} {tb:?}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn blocked_matches_naive_all_transposes_awkward_sizes() {
        // Sizes chosen to be far from multiples of MR/NR/KC/MC and large
        // enough to force the blocked path and exercise every edge panel.
        for &(m, n, k) in &[(131, 67, 259), (130, 3, 300), (97, 129, 49)] {
            for (ta, tb) in [
                (Trans::No, Trans::No),
                (Trans::No, Trans::Yes),
                (Trans::Yes, Trans::No),
                (Trans::Yes, Trans::Yes),
            ] {
                let (ar, ac) = if ta == Trans::No { (m, k) } else { (k, m) };
                let (br, bc) = if tb == Trans::No { (k, n) } else { (n, k) };
                assert!(m * k >= super::BLOCK_MIN_MK, "test must hit blocked path");
                let a = fill(ar * ac, m as u64 ^ 11);
                let b = fill(br * bc, n as u64 ^ 22);
                let mut c1 = fill(m * n, 33);
                let mut c2 = c1.clone();
                gemm(ta, tb, m, n, k, 1.1, &a, ar, &b, br, 0.3, &mut c1, m);
                gemm_naive(ta, tb, m, n, k, 1.1, &a, ar, &b, br, 0.3, &mut c2, m);
                for (idx, (x, y)) in c1.iter().zip(&c2).enumerate() {
                    assert!(
                        (x - y).abs() < 1e-10 * (k as f64),
                        "{ta:?} {tb:?} ({m},{n},{k}) idx {idx}: {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_respects_leading_dimension_padding() {
        let (m, n, k) = (61, 9, 83);
        let (lda, ldb, ldc) = (m + 5, k + 3, m + 7);
        assert!(m * k >= super::BLOCK_MIN_MK);
        let a = fill(lda * k, 40);
        let b = fill(ldb * n, 41);
        let mut c = fill(ldc * n, 42);
        let c_orig = c.clone();
        let mut cref = c.clone();
        gemm(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            0.9,
            &a,
            lda,
            &b,
            ldb,
            1.4,
            &mut c,
            ldc,
        );
        gemm_naive(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            0.9,
            &a,
            lda,
            &b,
            ldb,
            1.4,
            &mut cref,
            ldc,
        );
        for j in 0..n {
            for i in 0..ldc {
                let idx = i + j * ldc;
                if i < m {
                    assert!((c[idx] - cref[idx]).abs() < 1e-10);
                } else {
                    // Padding rows between columns must be untouched.
                    assert_eq!(c[idx], c_orig[idx]);
                }
            }
        }
    }

    /// The determinism contract for feed `F`: on blocked-class shapes (one
    /// `KC` slice, and three with a ragged last one), every column of an
    /// 11-column call — the packed path — equals bit for bit the same
    /// column computed in calls of 1 to 5 columns and alone, which below
    /// `NR` take the column path; and each call gives the same bits on
    /// both sides of the seam.
    pub(crate) fn per_column_is_independent_of_n<F: Feed>(
        src: impl Fn(f64) -> F::Src,
        dst: impl Fn(f64) -> F::Dst,
    ) {
        const WIDE: usize = 11;
        let bits = |v: &[F::Dst]| v.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();
        for &(m, k) in &[(96, 100), (37, 600)] {
            assert!(
                m * k >= super::BLOCK_MIN_MK,
                "must take a blocked-class path"
            );
            for (ta, tb) in TRANSPOSES {
                let (ar, ac) = if ta == Trans::No { (m, k) } else { (k, m) };
                let (br, bc) = if tb == Trans::No {
                    (k, WIDE)
                } else {
                    (WIDE, k)
                };
                let (lda, ldb, ldc) = (ar + 3, br + 1, m + 2);
                let a: Vec<F::Src> = fill(lda * ac, 90).into_iter().map(&src).collect();
                let b: Vec<F::Src> = fill(ldb * bc, 91).into_iter().map(&src).collect();
                let c: Vec<F::Dst> = fill(ldc * WIDE, 92).into_iter().map(&dst).collect();
                let alpha = F::T::from_f64(-0.75);
                let update = |n: usize, b: &[F::Src], c: &[F::Dst]| {
                    let c = &c[..ldc * (n - 1) + m];
                    match on_both_sides_of_the_seam::<F>(
                        ta, tb, m, n, k, alpha, &a, lda, b, ldb, c, ldc,
                    ) {
                        Some((plain, fast)) => {
                            assert_eq!(bits(&plain), bits(&fast), "{ta:?} {tb:?} ({m},{n},{k})");
                            plain
                        }
                        None => {
                            let mut plain = c.to_vec();
                            gemm_fed::<F>(
                                ta,
                                tb,
                                m,
                                n,
                                k,
                                alpha,
                                &a,
                                lda,
                                b,
                                ldb,
                                F::Dst::ONE,
                                &mut plain,
                                ldc,
                            );
                            plain
                        }
                    }
                };
                let wide = bits(&update(WIDE, &b, &c));
                for n in 1..=5 {
                    let narrow = bits(&update(n, &b, &c));
                    assert_eq!(
                        narrow,
                        wide[..narrow.len()],
                        "{ta:?} {tb:?} ({m},{k}) n = {n}"
                    );
                }
                for j in 0..WIDE {
                    let bj = if tb == Trans::No {
                        &b[j * ldb..]
                    } else {
                        &b[j..]
                    };
                    let alone = bits(&update(1, bj, &c[j * ldc..]));
                    assert_eq!(
                        alone,
                        wide[j * ldc..j * ldc + m],
                        "{ta:?} {tb:?} ({m},{k}) column {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_per_column_is_independent_of_n() {
        per_column_is_independent_of_n::<Same<f64>>(|x| x, |x| x);
        per_column_is_independent_of_n::<Same<f32>>(|x| x as f32, |x| x as f32);
        per_column_is_independent_of_n::<FromHalf>(Half::from_f64, |x| x as f32);
    }

    #[test]
    fn respects_leading_dimension_padding() {
        let (m, n, k) = (4, 3, 5);
        let (lda, ldb, ldc) = (7, 8, 6);
        let a = fill(lda * k, 4);
        let b = fill(ldb * n, 5);
        let mut c = fill(ldc * n, 6);
        let c_orig = c.clone();
        let mut cref = c.clone();
        gemm(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            1.0,
            &a,
            lda,
            &b,
            ldb,
            0.5,
            &mut c,
            ldc,
        );
        gemm_ref(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            1.0,
            &a,
            lda,
            &b,
            ldb,
            0.5,
            &mut cref,
            ldc,
        );
        for j in 0..n {
            for i in 0..ldc {
                let idx = i + j * ldc;
                if i < m {
                    assert!((c[idx] - cref[idx]).abs() < 1e-12);
                } else {
                    // Padding rows between columns must be untouched.
                    assert_eq!(c[idx], c_orig[idx]);
                }
            }
        }
    }

    #[test]
    fn beta_zero_overwrites_even_nan() {
        let a = [1.0f64, 0.0, 0.0, 1.0];
        let b = [2.0f64, 3.0, 4.0, 5.0];
        let mut c = [f64::NAN; 4];
        gemm(
            Trans::No,
            Trans::No,
            2,
            2,
            2,
            1.0,
            &a,
            2,
            &b,
            2,
            0.0,
            &mut c,
            2,
        );
        assert_eq!(c, [2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn k_zero_is_a_scaling() {
        let a: [f64; 0] = [];
        let b: [f64; 0] = [];
        let mut c = [1.0f64, 2.0, 3.0, 4.0];
        gemm(
            Trans::No,
            Trans::No,
            2,
            2,
            0,
            1.0,
            &a,
            2,
            &b,
            1,
            2.0,
            &mut c,
            2,
        );
        assert_eq!(c, [2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn f32_kernel_matches_f64_within_single_precision() {
        let (m, n, k) = (16, 16, 16);
        let a = fill(m * k, 7);
        let b = fill(k * n, 8);
        let a32: Vec<f32> = a.iter().map(|&x| x as f32).collect();
        let b32: Vec<f32> = b.iter().map(|&x| x as f32).collect();
        let mut c64 = vec![0f64; m * n];
        let mut c32 = vec![0f32; m * n];
        gemm(
            Trans::No,
            Trans::Yes,
            m,
            n,
            k,
            1.0,
            &a,
            m,
            &b,
            n,
            0.0,
            &mut c64,
            m,
        );
        gemm(
            Trans::No,
            Trans::Yes,
            m,
            n,
            k,
            1.0f32,
            &a32,
            m,
            &b32,
            n,
            0.0,
            &mut c32,
            m,
        );
        for (x, y) in c64.iter().zip(&c32) {
            assert!((x - *y as f64).abs() < 1e-5);
        }
    }

    #[test]
    fn blocked_f32_matches_naive_f32() {
        let (m, n, k) = (80, 30, 70);
        assert!(m * k >= super::BLOCK_MIN_MK);
        let a64 = fill(m * k, 60);
        let b64 = fill(k * n, 61);
        let a: Vec<f32> = a64.iter().map(|&x| x as f32).collect();
        let b: Vec<f32> = b64.iter().map(|&x| x as f32).collect();
        let mut c1 = vec![0f32; m * n];
        let mut c2 = vec![0f32; m * n];
        gemm(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            1.0f32,
            &a,
            m,
            &b,
            k,
            0.0,
            &mut c1,
            m,
        );
        gemm_naive(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            1.0f32,
            &a,
            m,
            &b,
            k,
            0.0,
            &mut c2,
            m,
        );
        for (x, y) in c1.iter().zip(&c2) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn shgemm_accumulates_in_f32_not_f16() {
        // Sum of 1000 copies of 0.001: pure f16 accumulation would stall far
        // from 1.0 (0.001 rounds to ~0.0010004, and adding tiny increments to
        // a growing sum loses them); f32 accumulation stays within ~1e-4.
        let k = 1000;
        let a: Vec<Half> = (0..k).map(|_| Half::from_f32(0.001)).collect();
        let b: Vec<Half> = (0..k).map(|_| Half::ONE).collect();
        let mut c = [0f32];
        shgemm(
            Trans::Yes,
            Trans::No,
            1,
            1,
            k,
            1.0,
            &a,
            k,
            &b,
            k,
            0.0,
            &mut c,
            1,
        );
        assert!((c[0] - 1.0).abs() < 5e-4, "got {}", c[0]);
    }

    #[test]
    fn shgemm_matches_promoted_sgemm() {
        let (m, n, k) = (8, 5, 6);
        let af = fill(m * k, 10);
        let bf = fill(n * k, 11);
        let a: Vec<Half> = af.iter().map(|&x| Half::from_f64(x)).collect();
        let b: Vec<Half> = bf.iter().map(|&x| Half::from_f64(x)).collect();
        let mut c = vec![0f32; m * n];
        shgemm(
            Trans::No,
            Trans::Yes,
            m,
            n,
            k,
            1.0,
            &a,
            m,
            &b,
            n,
            0.0,
            &mut c,
            m,
        );
        // Oracle: promote halves exactly, run f32 gemm.
        let ap: Vec<f32> = a.iter().map(|h| h.to_f32()).collect();
        let bp: Vec<f32> = b.iter().map(|h| h.to_f32()).collect();
        let mut cref = vec![0f32; m * n];
        gemm(
            Trans::No,
            Trans::Yes,
            m,
            n,
            k,
            1.0f32,
            &ap,
            m,
            &bp,
            n,
            0.0f32,
            &mut cref,
            m,
        );
        assert_eq!(c, cref);
    }

    #[test]
    fn shgemm_blocked_path_still_accumulates_in_f32_exactly() {
        // Big enough to take the blocked path: the promoted-oracle identity
        // must still hold bit-for-bit.
        let (m, n, k) = (64, 17, 80);
        assert!(m * k >= super::BLOCK_MIN_MK);
        let af = fill(m * k, 12);
        let bf = fill(n * k, 13);
        let a: Vec<Half> = af.iter().map(|&x| Half::from_f64(x)).collect();
        let b: Vec<Half> = bf.iter().map(|&x| Half::from_f64(x)).collect();
        let mut c = vec![0f32; m * n];
        shgemm(
            Trans::No,
            Trans::Yes,
            m,
            n,
            k,
            1.0,
            &a,
            m,
            &b,
            n,
            0.0,
            &mut c,
            m,
        );
        let ap: Vec<f32> = a.iter().map(|h| h.to_f32()).collect();
        let bp: Vec<f32> = b.iter().map(|h| h.to_f32()).collect();
        let mut cref = vec![0f32; m * n];
        gemm(
            Trans::No,
            Trans::Yes,
            m,
            n,
            k,
            1.0f32,
            &ap,
            m,
            &bp,
            n,
            0.0f32,
            &mut cref,
            m,
        );
        assert_eq!(c, cref);
    }

    const TRANSPOSES: [(Trans, Trans); 4] = [
        (Trans::No, Trans::No),
        (Trans::No, Trans::Yes),
        (Trans::Yes, Trans::No),
        (Trans::Yes, Trans::Yes),
    ];

    /// Plain == AVX2 register tile, bit for bit, for feed `F` on shapes
    /// far from multiples of MR/NR/KC/MC (every edge panel, two KC
    /// blocks) and on one below the blocked path.
    fn seam_is_bitwise_invisible<F: Feed>(
        src: impl Fn(f64) -> F::Src,
        dst: impl Fn(f64) -> F::Dst,
    ) {
        for &(m, n, k) in &[(131, 67, 259), (130, 3, 300), (97, 129, 49), (13, 7, 9)] {
            for (ta, tb) in TRANSPOSES {
                let (ar, ac) = if ta == Trans::No { (m, k) } else { (k, m) };
                let (br, bc) = if tb == Trans::No { (k, n) } else { (n, k) };
                let (lda, ldb, ldc) = (ar + 3, br + 1, m + 2);
                let a: Vec<F::Src> = fill(lda * ac, 70).into_iter().map(&src).collect();
                let b: Vec<F::Src> = fill(ldb * bc, 71).into_iter().map(&src).collect();
                let c: Vec<F::Dst> = fill(ldc * n, 72).into_iter().map(&dst).collect();
                let alpha = F::T::from_f64(-0.75);
                let Some((plain, fast)) = on_both_sides_of_the_seam::<F>(
                    ta, tb, m, n, k, alpha, &a, lda, &b, ldb, &c, ldc,
                ) else {
                    return; // no fast side on this CPU
                };
                let bits =
                    |v: &[F::Dst]| v.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&plain), bits(&fast), "{ta:?} {tb:?} ({m},{n},{k})");
                assert_ne!(bits(&plain), bits(&c), "the update did something");
            }
        }
    }

    #[test]
    fn avx2_register_tile_is_bitwise_the_generic_one_f64() {
        seam_is_bitwise_invisible::<Same<f64>>(|x| x, |x| x);
    }

    #[test]
    fn avx2_register_tile_is_bitwise_the_generic_one_f32() {
        seam_is_bitwise_invisible::<Same<f32>>(|x| x as f32, |x| x as f32);
    }

    #[test]
    fn f16c_packing_is_bitwise_the_software_promotion() {
        // Scaled so that subnormal halves are packed too.
        seam_is_bitwise_invisible::<FromHalf>(|x| Half::from_f64(x * 1e-4), |x| x as f32);
    }
}
