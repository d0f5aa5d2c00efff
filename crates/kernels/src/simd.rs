//! The one AVX2+FMA(+F16C) seam under every kernel of this crate.
//!
//! The repo is built with default `RUSTFLAGS`, so outside this seam every
//! `mul_add` is a call to libm's `fma`/`fmaf` and nothing vectorizes
//! beyond SSE2. A kernel therefore wraps its whole body in [`dispatch`]:
//! when the CPU has AVX2, FMA and F16C (one cached probe), the body runs
//! *inlined into* a `#[target_feature]` function, so its `mul_add`s
//! compile to `vfmadd`, its axpy loops vectorize eight/four lanes wide,
//! and the explicit register tiles and F16C conversions below become
//! reachable through the [`Avx2`] proof token; otherwise the very same
//! body runs as plain code. A hardware FMA and libm's `fma` are both
//! correctly rounded, `vcvtps2ph`/`vcvtph2ps` agree with the software
//! [`Half`] on every input, and no loop order changes — so which side of
//! the seam ran is never visible in a result, bit for bit. The tests call
//! both sides directly; there is no switch.
//!
//! For the seam to work the wrapped body must be `#[inline(always)]` all
//! the way down to its inner loops (a function left out of line keeps the
//! baseline features it was compiled with), and closures handed to
//! [`dispatch`]/[`Avx2::run`] carry the same attribute.
//!
//! All of the crate's `unsafe` lives in this file.

use crate::half::Half;
use std::cell::RefCell;

/// Columns of every register tile (and of a packed B micro-panel).
pub const NR: usize = 4;
/// Accumulator storage of one register tile: the widest `MR` times `NR`,
/// column-major with the precision's own `MR` as leading dimension.
pub const ACC: usize = 16 * NR;

/// Proof that the running CPU has AVX2, FMA and F16C. Only [`Avx2::detect`]
/// makes one, so holding it is what makes the methods below safe to call.
#[derive(Clone, Copy, Debug)]
pub struct Avx2(());

/// What the packed GEMM needs from a compute precision: its register-tile
/// height, its AVX2 register tile, and its per-worker pack buffers. Lives
/// in this private module so that [`crate::Real`] is sealed by it.
pub trait Micro: Copy + 'static {
    /// Rows of the register tile (and of a packed A micro-panel).
    const MR: usize;

    /// `acc[c * MR + r] = sum_l ap[l * MR + r] * bp[l * NR + c]`, one fused
    /// multiply-add per element per `l`, in ascending `l` from zero — the
    /// operations of `gemm::microkernel`, in its order.
    fn microkernel_avx2(simd: Avx2, kc: usize, ap: &[Self], bp: &[Self], acc: &mut [Self; ACC]);

    /// Lend this thread's two pack buffers, grown (never shrunk) to at
    /// least `alen`/`blen` elements. They are at most `MC·KC` and `NC·KC`
    /// long, so a worker holds them for its lifetime instead of
    /// allocating per call. Not re-entrant: `f` must not call back in.
    fn with_pack_bufs<R>(
        alen: usize,
        blen: usize,
        f: impl FnOnce(&mut [Self], &mut [Self]) -> R,
    ) -> R;
}

macro_rules! impl_micro {
    ($t:ty, $mr:expr, $kernel:ident) => {
        impl Micro for $t {
            const MR: usize = $mr;

            #[inline(always)]
            fn microkernel_avx2(simd: Avx2, kc: usize, ap: &[$t], bp: &[$t], acc: &mut [$t; ACC]) {
                simd.$kernel(kc, ap, bp, acc)
            }

            fn with_pack_bufs<R>(
                alen: usize,
                blen: usize,
                f: impl FnOnce(&mut [$t], &mut [$t]) -> R,
            ) -> R {
                thread_local! {
                    static BUFS: RefCell<(Vec<$t>, Vec<$t>)> =
                        const { RefCell::new((Vec::new(), Vec::new())) };
                }
                BUFS.with(|bufs| {
                    let (a, b) = &mut *bufs.borrow_mut();
                    if a.len() < alen {
                        a.resize(alen, 0.0);
                    }
                    if b.len() < blen {
                        b.resize(blen, 0.0);
                    }
                    f(&mut a[..alen], &mut b[..blen])
                })
            }
        }
    };
}
impl_micro!(f64, 8, microkernel_f64);
impl_micro!(f32, 16, microkernel_f32);

/// Run `body` on the fast side of the seam when the CPU allows it, on the
/// plain side otherwise; `body` learns which through its argument. Put
/// this at the top of a kernel — once per call, not per inner step.
#[inline(always)]
pub fn dispatch<R>(body: impl FnOnce(Option<Avx2>) -> R) -> R {
    match Avx2::detect() {
        Some(simd) => simd.run(
            #[inline(always)]
            || body(Some(simd)),
        ),
        None => body(None),
    }
}

/// Software binary16 round trip of one `f32` — what F16C does eight at a
/// time, and the tail of every vector loop below.
#[inline(always)]
pub fn trim(x: f32) -> f32 {
    Half::from_f32(x).to_f32()
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Avx2, Half, ACC, NR};
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    impl Avx2 {
        /// The runtime probe, cached after the first call. F16C is part of
        /// it so that there is one seam, not two: every CPU that shipped
        /// AVX2 has F16C, and one that hides it takes the plain side.
        #[inline]
        pub fn detect() -> Option<Avx2> {
            static HAVE: OnceLock<bool> = OnceLock::new();
            HAVE.get_or_init(|| {
                is_x86_feature_detected!("avx2")
                    && is_x86_feature_detected!("fma")
                    && is_x86_feature_detected!("f16c")
            })
            .then_some(Avx2(()))
        }

        /// Run `f` compiled for AVX2+FMA+F16C (given `f` inlines).
        #[inline(always)]
        pub fn run<R>(self, f: impl FnOnce() -> R) -> R {
            // SAFETY: `self` exists, so `detect` saw all three features.
            // xgs-lint: allow(no-unjustified-unsafe): target_feature call guarded by the Avx2 token, which only detect() creates
            unsafe { region(f) }
        }

        /// f64 8×4 register tile.
        #[inline(always)]
        pub fn microkernel_f64(self, kc: usize, ap: &[f64], bp: &[f64], acc: &mut [f64; ACC]) {
            assert!(ap.len() >= kc * 8 && bp.len() >= kc * NR);
            // SAFETY: features proven by `self`; the assert bounds every load.
            // xgs-lint: allow(no-unjustified-unsafe): token-guarded target_feature call; panel lengths asserted one line up
            unsafe { microkernel_f64(kc, ap.as_ptr(), bp.as_ptr(), acc) }
        }

        /// f32 16×4 register tile: twice the lanes of the f64 one.
        #[inline(always)]
        pub fn microkernel_f32(self, kc: usize, ap: &[f32], bp: &[f32], acc: &mut [f32; ACC]) {
            assert!(ap.len() >= kc * 16 && bp.len() >= kc * NR);
            // SAFETY: features proven by `self`; the assert bounds every load.
            // xgs-lint: allow(no-unjustified-unsafe): token-guarded target_feature call; panel lengths asserted one line up
            unsafe { microkernel_f32(kc, ap.as_ptr(), bp.as_ptr(), acc) }
        }

        /// `dst[i] = f32(src[i])` rounded through binary16 (`vcvtpd2ps`,
        /// `vcvtps2ph`, `vcvtph2ps`): the FP16 receiver's operand trim.
        #[inline(always)]
        pub fn demote_trim(self, src: &[f64], dst: &mut [f32]) {
            assert_eq!(src.len(), dst.len());
            // SAFETY: features proven by `self`; equal lengths asserted.
            // xgs-lint: allow(no-unjustified-unsafe): token-guarded target_feature call; slice lengths asserted equal
            unsafe { demote_trim(src, dst) }
        }

        /// `dst[i] = f32(src[i])`, exact (`vcvtph2ps`).
        #[inline(always)]
        pub fn promote_half(self, src: &[Half], dst: &mut [f32]) {
            assert_eq!(src.len(), dst.len());
            // SAFETY: features proven by `self`; equal lengths asserted.
            // xgs-lint: allow(no-unjustified-unsafe): token-guarded target_feature call; slice lengths asserted equal
            unsafe { promote_half(src, dst) }
        }

        /// Round an f64 buffer through binary16 in place, via `f32` like
        /// [`Half::from_f64`].
        #[inline(always)]
        pub fn round_through_half(self, buf: &mut [f64]) {
            // SAFETY: features proven by `self`; the loop stays in `buf`.
            // xgs-lint: allow(no-unjustified-unsafe): token-guarded target_feature call on one in-bounds slice
            unsafe { round_through_half(buf) }
        }
    }

    /// # Safety
    /// The CPU must have AVX2, FMA and F16C.
    #[target_feature(enable = "avx2,fma,f16c")]
    // xgs-lint: allow(no-unjustified-unsafe): target_feature fn, reached only through Avx2::run
    unsafe fn region<R>(f: impl FnOnce() -> R) -> R {
        f()
    }

    /// Rows 0..4 and 4..8 of each accumulator column are one `__m256d`
    /// each, updated with `vfmadd231pd` per `l`.
    ///
    /// # Safety
    /// AVX2+FMA present; `ap`/`bp` readable for `kc * 8`/`kc * NR` elements.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    // xgs-lint: allow(no-unjustified-unsafe): target_feature fn, reached only through the token method that asserts the lengths
    unsafe fn microkernel_f64(kc: usize, ap: *const f64, bp: *const f64, acc: &mut [f64; ACC]) {
        let mut lo = [_mm256_setzero_pd(); NR];
        let mut hi = [_mm256_setzero_pd(); NR];
        for l in 0..kc {
            let a_lo = _mm256_loadu_pd(ap.add(l * 8));
            let a_hi = _mm256_loadu_pd(ap.add(l * 8 + 4));
            for c in 0..NR {
                let b = _mm256_broadcast_sd(&*bp.add(l * NR + c));
                lo[c] = _mm256_fmadd_pd(a_lo, b, lo[c]);
                hi[c] = _mm256_fmadd_pd(a_hi, b, hi[c]);
            }
        }
        for c in 0..NR {
            _mm256_storeu_pd(acc.as_mut_ptr().add(c * 8), lo[c]);
            _mm256_storeu_pd(acc.as_mut_ptr().add(c * 8 + 4), hi[c]);
        }
    }

    /// Rows 0..8 and 8..16 of each accumulator column are one `__m256`
    /// each, updated with `vfmadd231ps` per `l`.
    ///
    /// # Safety
    /// AVX2+FMA present; `ap`/`bp` readable for `kc * 16`/`kc * NR` elements.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    // xgs-lint: allow(no-unjustified-unsafe): target_feature fn, reached only through the token method that asserts the lengths
    unsafe fn microkernel_f32(kc: usize, ap: *const f32, bp: *const f32, acc: &mut [f32; ACC]) {
        let mut lo = [_mm256_setzero_ps(); NR];
        let mut hi = [_mm256_setzero_ps(); NR];
        for l in 0..kc {
            let a_lo = _mm256_loadu_ps(ap.add(l * 16));
            let a_hi = _mm256_loadu_ps(ap.add(l * 16 + 8));
            for c in 0..NR {
                let b = _mm256_broadcast_ss(&*bp.add(l * NR + c));
                lo[c] = _mm256_fmadd_ps(a_lo, b, lo[c]);
                hi[c] = _mm256_fmadd_ps(a_hi, b, hi[c]);
            }
        }
        for c in 0..NR {
            _mm256_storeu_ps(acc.as_mut_ptr().add(c * 16), lo[c]);
            _mm256_storeu_ps(acc.as_mut_ptr().add(c * 16 + 8), hi[c]);
        }
    }

    /// # Safety
    /// AVX2+F16C present; `src.len() == dst.len()`.
    #[inline]
    #[target_feature(enable = "avx2,f16c")]
    // xgs-lint: allow(no-unjustified-unsafe): target_feature fn, reached only through the token method that asserts the lengths
    unsafe fn demote_trim(src: &[f64], dst: &mut [f32]) {
        let n = src.len();
        let body = n - n % 4;
        for i in (0..body).step_by(4) {
            let x = _mm256_cvtpd_ps(_mm256_loadu_pd(src.as_ptr().add(i)));
            let h = _mm_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(x);
            _mm_storeu_ps(dst.as_mut_ptr().add(i), _mm_cvtph_ps(h));
        }
        for i in body..n {
            dst[i] = super::trim(src[i] as f32);
        }
    }

    /// # Safety
    /// F16C present; `src.len() == dst.len()`.
    #[inline]
    #[target_feature(enable = "avx2,f16c")]
    // xgs-lint: allow(no-unjustified-unsafe): target_feature fn, reached only through the token method that asserts the lengths
    unsafe fn promote_half(src: &[Half], dst: &mut [f32]) {
        let n = src.len();
        let body = n - n % 4;
        for i in (0..body).step_by(4) {
            // `Half` is `repr(transparent)` over `u16`: four of them are
            // the low 64 bits `vcvtph2ps` reads.
            let h = _mm_loadl_epi64(src.as_ptr().add(i) as *const __m128i);
            _mm_storeu_ps(dst.as_mut_ptr().add(i), _mm_cvtph_ps(h));
        }
        for i in body..n {
            dst[i] = src[i].to_f32();
        }
    }

    /// # Safety
    /// AVX2+F16C present.
    #[inline]
    #[target_feature(enable = "avx2,f16c")]
    // xgs-lint: allow(no-unjustified-unsafe): target_feature fn, reached only through its token method
    unsafe fn round_through_half(buf: &mut [f64]) {
        let n = buf.len();
        let body = n - n % 4;
        for i in (0..body).step_by(4) {
            let p = buf.as_mut_ptr().add(i);
            let h = _mm_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(_mm256_cvtpd_ps(_mm256_loadu_pd(p)));
            _mm256_storeu_pd(p, _mm256_cvtps_pd(_mm_cvtph_ps(h)));
        }
        for x in &mut buf[body..] {
            *x = super::trim(*x as f32) as f64;
        }
    }
}

/// Off x86-64 nothing makes an [`Avx2`], so only `detect` has a body worth
/// reading; the rest exist to keep callers free of `cfg`.
#[cfg(not(target_arch = "x86_64"))]
impl Avx2 {
    pub fn detect() -> Option<Avx2> {
        None
    }
    pub fn run<R>(self, f: impl FnOnce() -> R) -> R {
        f()
    }
    pub fn microkernel_f64(self, _: usize, _: &[f64], _: &[f64], _: &mut [f64; ACC]) {
        unreachable!("no Avx2 token off x86-64")
    }
    pub fn microkernel_f32(self, _: usize, _: &[f32], _: &[f32], _: &mut [f32; ACC]) {
        unreachable!("no Avx2 token off x86-64")
    }
    pub fn demote_trim(self, _: &[f64], _: &mut [f32]) {
        unreachable!("no Avx2 token off x86-64")
    }
    pub fn promote_half(self, _: &[Half], _: &mut [f32]) {
        unreachable!("no Avx2 token off x86-64")
    }
    pub fn round_through_half(self, _: &mut [f64]) {
        unreachable!("no Avx2 token off x86-64")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `f32 -> binary16 -> f32` both ways over `xs`, bit for bit. With
    /// `vcvtph2ps` shown equal to `Half::to_f32` on every binary16 (and
    /// that map one-to-one), equal round trips mean `vcvtps2ph` equals
    /// `Half::from_f32`. Inputs arrive as `f64`, the way the kernels
    /// convert (`vcvtpd2ps` first), and the in-place `f64` round-through
    /// is held to the same answer.
    fn assert_trim_agrees(simd: Avx2, xs: &[f32]) {
        let wide: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
        let mut trimmed = vec![0f32; wide.len()];
        simd.demote_trim(&wide, &mut trimmed);
        let mut rounded = wide.clone();
        simd.round_through_half(&mut rounded);
        for ((x, t), r) in wide.iter().zip(&trimmed).zip(&rounded) {
            let want = trim(*x as f32);
            assert_eq!(
                t.to_bits(),
                want.to_bits(),
                "f32 {:#010x}: F16C {:#010x}, software {:#010x}",
                (*x as f32).to_bits(),
                t.to_bits(),
                want.to_bits()
            );
            assert_eq!(
                r.to_bits(),
                (want as f64).to_bits(),
                "round-through of {x:e}"
            );
        }
    }

    /// The same value with its two `f32` neighbours, both signs.
    fn around(x: f32) -> [f32; 6] {
        let b = x.to_bits();
        [b - 1, b, b + 1]
            .map(f32::from_bits)
            .map(|v| [v, -v])
            .concat()
            .try_into()
            .unwrap()
    }

    #[test]
    fn f16c_is_the_software_half_on_every_input_that_matters() {
        let Some(simd) = Avx2::detect() else {
            return; // nothing to compare against on this CPU
        };
        // Every binary16 promotes to the same f32 bits (NaN payloads
        // included, signalling ones quieted) and survives the round trip.
        let halves: Vec<Half> = (0..=u16::MAX).map(Half).collect();
        let mut promoted = vec![0f32; halves.len()];
        simd.promote_half(&halves, &mut promoted);
        for (h, x) in halves.iter().zip(&promoted) {
            assert_eq!(x.to_bits(), h.to_f32().to_bits(), "half {:#06x}", h.0);
            let quiet = if h.is_nan() { h.0 | 0x0200 } else { h.0 };
            assert_eq!(Half::from_f32(*x).0, quiet, "half {:#06x}", h.0);
        }
        assert_trim_agrees(simd, &promoted);

        // Every midpoint between adjacent finite halves (the ties), with
        // its two f32 neighbours: subnormals, the normal range, and the
        // overflow boundary 65520 between MAX and infinity.
        let mut edges = Vec::new();
        for bits in 0..=Half::MAX.0 {
            let lo = Half(bits).to_f32();
            let hi = if bits == Half::MAX.0 {
                65536.0
            } else {
                Half(bits + 1).to_f32()
            };
            edges.extend(around(lo + (hi - lo) / 2.0));
        }
        // Underflow (half the smallest subnormal ties to zero), the
        // subnormal/normal seam of both formats, zeros, infinities.
        for x in [
            2.0f32.powi(-25),
            2.0f32.powi(-24),
            2.0f32.powi(-14),
            f32::MIN_POSITIVE,
        ] {
            edges.extend(around(x));
        }
        edges.extend([
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
        ]);
        // f32 subnormals and NaNs, payload in the bits binary16 keeps and
        // in the bits it drops.
        for payload in [
            1u32, 0x1FFF, 0x2000, 0x3F_FFFF, 0x40_0000, 0x40_0001, 0x7F_FFFF,
        ] {
            for sign in [0u32, 0x8000_0000] {
                edges.push(f32::from_bits(sign | payload));
                edges.push(f32::from_bits(sign | 0x7F80_0000 | payload));
            }
        }
        assert_trim_agrees(simd, &edges);

        // A million seeded random bit patterns: every exponent, sign and
        // NaN-ness equally likely.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let random: Vec<f32> = (0..1_000_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                f32::from_bits((state >> 32) as u32)
            })
            .collect();
        assert_trim_agrees(simd, &random);
    }
}
