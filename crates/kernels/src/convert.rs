//! Storage rounding of tile buffers.
//!
//! The paper's runtime "will move and convert on-the-fly the operands ...
//! to match the precision at the receiver side" (Algorithm 1). Operand
//! conversion itself is fused into GEMM packing (`mixed`); what stays here
//! is the rounding a tile's storage format applies to its buffer.

use crate::simd;

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
    use crate::half::Half;
    use crate::Precision;

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
