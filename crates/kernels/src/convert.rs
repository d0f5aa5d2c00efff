//! On-demand precision conversion of tile buffers.
//!
//! The paper's runtime "will move and convert on-the-fly the operands ...
//! to match the precision at the receiver side" (Algorithm 1). These are the
//! scalar-buffer conversions that back that mechanism; the runtime layer
//! counts how often they run.

use crate::half::Half;
use crate::simd;

/// Demote an FP64 buffer to FP32 (round-to-nearest-even).
pub fn demote_f64_to_f32(src: &[f64], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d = *s as f32;
    }
}

/// Promote an FP32 buffer to FP64 (exact).
pub fn promote_f32_to_f64(src: &[f32], dst: &mut [f64]) {
    assert_eq!(src.len(), dst.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d = *s as f64;
    }
}

/// Demote an FP64 buffer to emulated FP16.
pub fn demote_f64_to_f16(src: &[f64], dst: &mut [Half]) {
    assert_eq!(src.len(), dst.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d = Half::from_f64(*s);
    }
}

/// Demote an FP32 buffer to emulated FP16.
pub fn demote_f32_to_f16(src: &[f32], dst: &mut [Half]) {
    assert_eq!(src.len(), dst.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d = Half::from_f32(*s);
    }
}

/// Promote an FP16 buffer to FP32 (exact).
pub fn promote_f16_to_f32(src: &[Half], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d = s.to_f32();
    }
}

/// Promote an FP16 buffer to FP64 (exact).
pub fn promote_f16_to_f64(src: &[Half], dst: &mut [f64]) {
    assert_eq!(src.len(), dst.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d = s.to_f64();
    }
}

/// Round an FP64 buffer *through* a lower precision in place: the storage
/// operation applied when the adaptive rule decides a tile can live in
/// `f32`/`f16`. Values come back as `f64` but carry the low-precision
/// rounding error, which is how the simulation-facing code observes
/// precision loss without templating everything on element type. Runs
/// through the crate's SIMD seam (`vcvtpd2ps`, F16C), bitwise-neutrally.
pub fn round_through(buf: &mut [f64], precision: crate::Precision) {
    simd::dispatch(
        #[inline(always)]
        |s| match precision {
            crate::Precision::F64 => {}
            crate::Precision::F32 => {
                for x in buf.iter_mut() {
                    *x = (*x as f32) as f64;
                }
            }
            crate::Precision::F16 => crate::mixed::round_through_half(s, buf),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Precision;

    #[test]
    fn roundtrip_f32_is_lossy_one_way_only() {
        let src = vec![1.0f64 + 1e-12, 2.5, -3.75];
        let mut mid = vec![0f32; 3];
        let mut back = vec![0f64; 3];
        demote_f64_to_f32(&src, &mut mid);
        promote_f32_to_f64(&mid, &mut back);
        assert_ne!(back[0], src[0]); // 1e-12 below f32 resolution at 1.0
        assert_eq!(back[1], 2.5); // exactly representable
        assert_eq!(back[2], -3.75);
    }

    #[test]
    fn round_through_matches_explicit_conversion() {
        let src: Vec<f64> = (0..100).map(|i| (i as f64) * 0.017 - 0.5).collect();
        let mut via_f16 = src.clone();
        round_through(&mut via_f16, Precision::F16);
        for (orig, r) in src.iter().zip(&via_f16) {
            assert_eq!(*r, Half::from_f64(*orig).to_f64());
        }
        let mut via_f64 = src.clone();
        round_through(&mut via_f64, Precision::F64);
        assert_eq!(via_f64, src);
    }
}
