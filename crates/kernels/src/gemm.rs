//! General matrix-matrix multiply: `C <- alpha * op(A) * op(B) + beta * C`.
//!
//! Column-major with explicit leading dimensions, like BLAS `xGEMM`. The
//! FP64/FP32 path is generic over [`Real`]; the FP16 path ([`shgemm`]) trims
//! operands to binary16 and accumulates in FP32 (the paper's SHGEMM).
//!
//! Two execution paths share the same BLAS semantics:
//!
//! * the naive path — the original axpy/dot loop nest, kept as the test
//!   oracle and as the small-problem path (no packing overhead).
//! * the cache-blocked path — BLIS-style `NC/KC/MC` loop blocking around an
//!   `MR x NR` register microkernel over zero-padded packed micro-panels.
//!   The generic microkernel is an 8-wide `mul_add` accumulator unroll that
//!   autovectorizes under `-C target-cpu=native`; on x86-64 with AVX2+FMA an
//!   explicit `std::arch` f64x4 microkernel is selected at runtime. Both
//!   compute fused multiply-adds in the identical order, so the runtime
//!   selection never changes results bitwise.
//!
//! **Determinism contract**: for a fixed `(m, k)` and fixed inputs, every
//! output column is computed by the exact same arithmetic regardless of `n`
//! — path dispatch deliberately ignores `n`, and the blocked path processes
//! each column independently. This is what keeps the server's batched
//! multi-RHS solves bitwise identical to singleton solves on top of a
//! blocked kernel.

use crate::half::Half;
use crate::Real;

/// Transposition flag for a GEMM operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trans {
    No,
    Yes,
}

/// Microkernel register tile: `MR x NR` accumulators.
const MR: usize = 8;
const NR: usize = 4;
/// Loop blocking: a `KC`-deep slice of the inner dimension is packed once
/// and reused across the whole `MC x NC` block of C (packed A panel:
/// `MC x KC` ≈ L2-resident, packed B panel: `KC x NC` ≈ L3-resident).
const KC: usize = 256;
const MC: usize = 128;
const NC: usize = 512;

/// Below this `m * k` footprint the packed panels cannot be amortized and
/// the naive loop nest wins. Dispatch looks only at `m` and `k` — never `n`
/// — so per-column arithmetic is independent of how many columns ride in
/// one call (see the module-level determinism contract).
const BLOCK_MIN_MK: usize = 48 * 48;

#[allow(clippy::too_many_arguments)]
fn check_dims<T: Real>(
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &[T],
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
        assert!(a.len() >= lda * (a_cols - 1) + a_rows);
    }
    if b_cols > 0 && b_rows > 0 {
        assert!(b.len() >= ldb * (b_cols - 1) + b_rows);
    }
    if n > 0 {
        assert!(c.len() >= ldc * (n - 1) + m);
    }
}

/// `C <- beta * C` over the `m x n` window (beta == 0 overwrites NaN too).
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
    check_dims(transa, transb, m, n, k, a, lda, b, ldb, c, ldc);
    scale_beta(m, n, beta, c, ldc);
    if k == 0 || m == 0 || n == 0 || alpha == T::ZERO {
        return;
    }
    if m * k >= BLOCK_MIN_MK {
        gemm_core_blocked(transa, transb, m, n, k, alpha, a, lda, b, ldb, c, ldc);
    } else {
        gemm_core_naive(transa, transb, m, n, k, alpha, a, lda, b, ldb, c, ldc);
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
    check_dims(transa, transb, m, n, k, a, lda, b, ldb, c, ldc);
    scale_beta(m, n, beta, c, ldc);
    if k == 0 || m == 0 || n == 0 || alpha == T::ZERO {
        return;
    }
    gemm_core_naive(transa, transb, m, n, k, alpha, a, lda, b, ldb, c, ldc);
}

/// Unblocked update `C += alpha * op(A) * op(B)` (beta already applied).
#[allow(clippy::too_many_arguments)]
fn gemm_core_naive<T: Real>(
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
    c: &mut [T],
    ldc: usize,
) {
    match (transa, transb) {
        (Trans::No, Trans::No) => {
            // C[:,j] += alpha * A[:,l] * B[l,j] — pure axpy over columns,
            // vectorizes along m.
            for j in 0..n {
                for l in 0..k {
                    let blj = alpha * b[l + j * ldb];
                    if blj == T::ZERO {
                        continue;
                    }
                    let acol = &a[l * lda..l * lda + m];
                    let ccol = &mut c[j * ldc..j * ldc + m];
                    for (ci, ai) in ccol.iter_mut().zip(acol) {
                        *ci = ai.mul_add(blj, *ci);
                    }
                }
            }
        }
        (Trans::No, Trans::Yes) => {
            // C[:,j] += alpha * A[:,l] * B[j,l]; B accessed row-wise but the
            // inner loop still streams columns of A and C.
            for j in 0..n {
                for l in 0..k {
                    let blj = alpha * b[j + l * ldb];
                    if blj == T::ZERO {
                        continue;
                    }
                    let acol = &a[l * lda..l * lda + m];
                    let ccol = &mut c[j * ldc..j * ldc + m];
                    for (ci, ai) in ccol.iter_mut().zip(acol) {
                        *ci = ai.mul_add(blj, *ci);
                    }
                }
            }
        }
        (Trans::Yes, Trans::No) => {
            // C[i,j] += alpha * dot(A[:,i], B[:,j]) — dot products down
            // contiguous columns.
            for j in 0..n {
                let bcol = &b[j * ldb..j * ldb + k];
                for i in 0..m {
                    let acol = &a[i * lda..i * lda + k];
                    let mut s = T::ZERO;
                    for (ai, bi) in acol.iter().zip(bcol) {
                        s = ai.mul_add(*bi, s);
                    }
                    c[i + j * ldc] += alpha * s;
                }
            }
        }
        (Trans::Yes, Trans::Yes) => {
            // C[i,j] += alpha * sum_l A[l,i] * B[j,l].
            for j in 0..n {
                for i in 0..m {
                    let acol = &a[i * lda..i * lda + k];
                    let mut s = T::ZERO;
                    for (l, ai) in acol.iter().enumerate() {
                        s = ai.mul_add(b[j + l * ldb], s);
                    }
                    c[i + j * ldc] += alpha * s;
                }
            }
        }
    }
}

/// Pack `op(A)[ic.., pc..]` (`mc x kc`) into row micro-panels of height
/// `MR`: panel `p` holds rows `p*MR..(p+1)*MR` stored column-by-column
/// (`apack[p*MR*kc + l*MR + r]`), rows past `mc` zero-padded so the
/// microkernel never branches on the row edge.
#[allow(clippy::too_many_arguments)]
fn pack_a<T: Real>(
    transa: Trans,
    mc: usize,
    kc: usize,
    a: &[T],
    lda: usize,
    ic: usize,
    pc: usize,
    apack: &mut [T],
) {
    let panels = mc.div_ceil(MR);
    for p in 0..panels {
        let base = p * MR * kc;
        for l in 0..kc {
            for r in 0..MR {
                let row = p * MR + r;
                apack[base + l * MR + r] = if row < mc {
                    match transa {
                        Trans::No => a[(ic + row) + (pc + l) * lda],
                        Trans::Yes => a[(pc + l) + (ic + row) * lda],
                    }
                } else {
                    T::ZERO
                };
            }
        }
    }
}

/// Pack `op(B)[pc.., jc..]` (`kc x nc`) into column micro-panels of width
/// `NR` (`bpack[q*NR*kc + l*NR + c]`), columns past `nc` zero-padded.
#[allow(clippy::too_many_arguments)]
fn pack_b<T: Real>(
    transb: Trans,
    kc: usize,
    nc: usize,
    b: &[T],
    ldb: usize,
    pc: usize,
    jc: usize,
    bpack: &mut [T],
) {
    let panels = nc.div_ceil(NR);
    for q in 0..panels {
        let base = q * NR * kc;
        for l in 0..kc {
            for col in 0..NR {
                let j = q * NR + col;
                bpack[base + l * NR + col] = if j < nc {
                    match transb {
                        Trans::No => b[(pc + l) + (jc + j) * ldb],
                        Trans::Yes => b[(jc + j) + (pc + l) * ldb],
                    }
                } else {
                    T::ZERO
                };
            }
        }
    }
}

/// Generic `MR x NR` microkernel: `acc[c][r] += ap[l][r] * bp[l][c]` over
/// `l`, one fused multiply-add per element per step. The `MR`-wide inner
/// unroll over a contiguous packed panel autovectorizes (vfmadd under
/// `-C target-cpu=native`); the explicit AVX2 kernel below performs the
/// identical operations in the identical order.
#[inline(always)]
fn microkernel<T: Real>(kc: usize, ap: &[T], bp: &[T], acc: &mut [[T; MR]; NR]) {
    for l in 0..kc {
        let av = &ap[l * MR..l * MR + MR];
        let bv = &bp[l * NR..l * NR + NR];
        for (col, bc) in acc.iter_mut().zip(bv) {
            for (accr, ar) in col.iter_mut().zip(av) {
                *accr = ar.mul_add(*bc, *accr);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx {
    use super::{MR, NR};
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    /// Runtime AVX2+FMA probe, cached after the first call.
    pub(super) fn available() -> bool {
        static HAVE: OnceLock<bool> = OnceLock::new();
        *HAVE.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
    }

    /// f64x4 microkernel: rows 0..4 and 4..8 of each accumulator column are
    /// one `__m256d` each, updated with `vfmadd231pd` per `l` — the same
    /// fused operation, in the same order, as the generic kernel, so the
    /// two are bitwise interchangeable.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available ([`available`]) and that
    /// `ap`/`bp` hold at least `kc * MR` / `kc * NR` elements.
    #[target_feature(enable = "avx2", enable = "fma")]
    // xgs-lint: allow(no-unjustified-unsafe): target_feature fn; callers check avx::available() and slice lengths per the Safety contract
    pub(super) unsafe fn microkernel_f64(
        kc: usize,
        ap: &[f64],
        bp: &[f64],
        acc: &mut [[f64; MR]; NR],
    ) {
        debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
        let mut lo = [_mm256_setzero_pd(); NR];
        let mut hi = [_mm256_setzero_pd(); NR];
        let ap = ap.as_ptr();
        let bp = bp.as_ptr();
        for l in 0..kc {
            let a_lo = _mm256_loadu_pd(ap.add(l * MR));
            let a_hi = _mm256_loadu_pd(ap.add(l * MR + 4));
            for c in 0..NR {
                let b = _mm256_broadcast_sd(&*bp.add(l * NR + c));
                lo[c] = _mm256_fmadd_pd(a_lo, b, lo[c]);
                hi[c] = _mm256_fmadd_pd(a_hi, b, hi[c]);
            }
        }
        for c in 0..NR {
            _mm256_storeu_pd(acc[c].as_mut_ptr(), lo[c]);
            _mm256_storeu_pd(acc[c].as_mut_ptr().add(4), hi[c]);
        }
    }
}

/// Run the microkernel for one register tile, dispatching to the AVX2 f64
/// kernel when the CPU has it (bitwise-identical to the generic one).
#[inline(always)]
fn run_microkernel<T: Real>(kc: usize, ap: &[T], bp: &[T], acc: &mut [[T; MR]; NR]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::any::TypeId;
        if TypeId::of::<T>() == TypeId::of::<f64>() && avx::available() {
            // SAFETY: T is exactly f64 (TypeId match on 'static types), so
            // these are plain same-type reborrows; AVX2+FMA presence was
            // just checked.
            // xgs-lint: allow(no-unjustified-unsafe): same-type reborrow proven by TypeId equality; feature presence checked one line up
            unsafe {
                let ap64 = std::slice::from_raw_parts(ap.as_ptr() as *const f64, ap.len());
                let bp64 = std::slice::from_raw_parts(bp.as_ptr() as *const f64, bp.len());
                let acc64 = &mut *(acc as *mut [[T; MR]; NR] as *mut [[f64; MR]; NR]);
                avx::microkernel_f64(kc, ap64, bp64, acc64);
            }
            return;
        }
    }
    microkernel(kc, ap, bp, acc);
}

/// Cache-blocked update `C += alpha * op(A) * op(B)` (beta already
/// applied): BLIS-style `jc/pc/ic` loop blocking over packed, zero-padded
/// micro-panels with an `MR x NR` register microkernel.
///
/// Per-column arithmetic depends only on `(m, k)` and the column's data:
/// the `pc` loop fixes the k-summation grouping from `KC` alone, and a
/// column's register-tile membership never changes what is accumulated
/// into it — which keeps batched and singleton calls bitwise identical.
#[allow(clippy::too_many_arguments)]
fn gemm_core_blocked<T: Real>(
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
    c: &mut [T],
    ldc: usize,
) {
    let kc_max = KC.min(k);
    let mut apack = vec![T::ZERO; MC.min(m).div_ceil(MR) * MR * kc_max];
    let mut bpack = vec![T::ZERO; NC.min(n).div_ceil(NR) * NR * kc_max];
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(transb, kc, nc, b, ldb, pc, jc, &mut bpack);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                pack_a(transa, mc, kc, a, lda, ic, pc, &mut apack);
                for jr in (0..nc).step_by(NR) {
                    let nr = NR.min(nc - jr);
                    let bp = &bpack[(jr / NR) * NR * kc..][..NR * kc];
                    for ir in (0..mc).step_by(MR) {
                        let mr = MR.min(mc - ir);
                        let ap = &apack[(ir / MR) * MR * kc..][..MR * kc];
                        let mut acc = [[T::ZERO; MR]; NR];
                        run_microkernel(kc, ap, bp, &mut acc);
                        // Write back only the real rows/cols; padded lanes
                        // hold exact zeros and are dropped.
                        for (cq, col) in acc.iter().enumerate().take(nr) {
                            let cbase = (jc + jr + cq) * ldc + ic + ir;
                            let ccol = &mut c[cbase..cbase + mr];
                            for (ci, acci) in ccol.iter_mut().zip(col) {
                                *ci = acci.mul_add(alpha, *ci);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Convenience wrapper for the common `C <- beta*C + alpha*A*B` case.
#[allow(clippy::too_many_arguments)]
pub fn gemm_notrans<T: Real>(
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
    gemm(
        Trans::No,
        Trans::No,
        m,
        n,
        k,
        alpha,
        a,
        lda,
        b,
        ldb,
        beta,
        c,
        ldc,
    )
}

/// SHGEMM: `C(f32) <- alpha * op(f16(A)) * op(f16(B)) + beta * C`.
///
/// Operands arrive already trimmed to binary16 tiles; every product
/// `a_il * b_lj` is computed on the exact `f32` values of the halves and
/// accumulated in `f32`, reproducing the mixed-precision HGEMM-with-FP32-
/// accumulation the paper obtains from BLIS on A64FX (Fig. 8) and from
/// trimmed SGEMM on Shaheen II. The promoted panels run through the same
/// blocked [`gemm`] as the FP32 path.
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
    // Promote operand panels once (exact), then run the f32 kernel. This is
    // precisely "call an SGEMM BLAS routine to accumulate in FP32".
    let (a_rows, a_cols) = match transa {
        Trans::No => (m, k),
        Trans::Yes => (k, m),
    };
    let (b_rows, b_cols) = match transb {
        Trans::No => (k, n),
        Trans::Yes => (n, k),
    };
    let af = Half::promote_panel(a, a_rows, a_cols, lda);
    let bf = Half::promote_panel(b, b_rows, b_cols, ldb);
    gemm(
        transa,
        transb,
        m,
        n,
        k,
        alpha,
        &af,
        a_rows.max(1),
        &bf,
        b_rows.max(1),
        beta,
        c,
        ldc,
    );
}

#[cfg(test)]
mod tests {
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

    #[test]
    fn blocked_per_column_is_independent_of_n() {
        // The determinism contract: column j of a wide call must be
        // bitwise identical to a single-column call on that column.
        let (m, n, k) = (96, 11, 100);
        assert!(m * k >= super::BLOCK_MIN_MK);
        let a = fill(m * k, 50);
        let b = fill(k * n, 51);
        let mut wide = vec![0f64; m * n];
        gemm(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            1.0,
            &a,
            m,
            &b,
            k,
            0.0,
            &mut wide,
            m,
        );
        for j in 0..n {
            let mut single = vec![0f64; m];
            gemm(
                Trans::No,
                Trans::No,
                m,
                1,
                k,
                1.0,
                &a,
                m,
                &b[j * k..j * k + k],
                k,
                0.0,
                &mut single,
                m,
            );
            assert_eq!(&wide[j * m..(j + 1) * m], &single[..], "column {j}");
        }
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
}
