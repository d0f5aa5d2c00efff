//! Software IEEE-754 binary16 ("half precision").
//!
//! Fugaku's A64FX supports FP16 natively; we reproduce its *storage and
//! rounding* semantics in software. Every conversion rounds to
//! nearest-even, exactly like an SVE `fcvt`, so the numerical behaviour of
//! the paper's FP16 tiles — including the precision loss its Fig. 6 boxplots
//! probe — is faithfully reproduced. Arithmetic on halves always promotes to
//! FP32 (there is deliberately no `impl Mul for Half`): the paper found pure
//! FP16 accumulation unusable for MLE and fell back to FP32 accumulation.

/// An IEEE-754 binary16 value stored as its raw bit pattern.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
#[repr(transparent)]
pub struct Half(pub u16);

impl Half {
    pub const ZERO: Half = Half(0);
    pub const ONE: Half = Half(0x3C00);
    /// Largest finite binary16 value, 65504.
    pub const MAX: Half = Half(0x7BFF);
    /// Smallest positive normal, 2^-14.
    pub const MIN_POSITIVE: Half = Half(0x0400);
    pub const INFINITY: Half = Half(0x7C00);
    pub const NEG_INFINITY: Half = Half(0xFC00);
    pub const NAN: Half = Half(0x7E00);

    /// Convert an `f32` to binary16 with round-to-nearest-even, overflow to
    /// infinity, and gradual underflow to subnormals — bit-exact with the
    /// hardware conversion on A64FX / x86 F16C (`simd.rs` tests every
    /// binary16, every rounding boundary and a million random patterns
    /// against `vcvtps2ph`/`vcvtph2ps`).
    #[inline]
    pub fn from_f32(x: f32) -> Half {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let frac = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf or NaN. Preserve NaN-ness (quiet it), propagate infinity.
            return if frac != 0 {
                Half(sign | 0x7E00 | ((frac >> 13) as u16 & 0x03FF) | 0x0200)
            } else {
                Half(sign | 0x7C00)
            };
        }

        // Unbiased exponent.
        let e = exp - 127;
        if e > 15 {
            // Overflow to infinity.
            return Half(sign | 0x7C00);
        }
        if e >= -14 {
            // Normal range: round 23-bit fraction to 10 bits (RNE).
            let mut mant = frac >> 13;
            let rest = frac & 0x1FFF;
            let halfway = 0x1000;
            if rest > halfway || (rest == halfway && (mant & 1) == 1) {
                mant += 1;
            }
            let mut he = (e + 15) as u32;
            if mant == 0x400 {
                // Rounded up past the fraction: bump exponent.
                mant = 0;
                he += 1;
                if he >= 31 {
                    return Half(sign | 0x7C00);
                }
            }
            return Half(sign | ((he as u16) << 10) | mant as u16);
        }
        if e < -25 {
            // Too small even for the largest subnormal rounding: signed zero.
            return Half(sign);
        }
        // Subnormal: implicit leading 1 becomes explicit, shift right.
        let full = frac | 0x0080_0000; // 24-bit significand
        let shift = (-14 - e + 13) as u32; // bits to discard
        let mant = full >> shift;
        let rest = full & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let mut mant = mant;
        if rest > halfway || (rest == halfway && (mant & 1) == 1) {
            mant += 1;
        }
        // mant may have carried into the normal range (0x400), which is the
        // correct encoding of the smallest normal, so no special case needed.
        Half(sign | mant as u16)
    }

    /// Convert binary16 to `f32` (exact — every half is representable).
    #[inline]
    pub fn to_f32(self) -> f32 {
        let h = self.0 as u32;
        let sign = (h & 0x8000) << 16;
        let exp = (h >> 10) & 0x1F;
        let frac = h & 0x03FF;
        let bits = if exp == 0x1F {
            // Inf/NaN; a NaN comes out quiet, as the hardware conversion
            // (and `from_f32`) leaves it.
            let quiet = if frac != 0 { 0x0040_0000 } else { 0 };
            sign | 0x7F80_0000 | quiet | (frac << 13)
        } else if exp != 0 {
            // Normal.
            sign | ((exp + 112) << 23) | (frac << 13)
        } else if frac != 0 {
            // Subnormal: normalize.
            let lead = frac.leading_zeros() - 22; // zeros within the 10-bit field
            let frac = (frac << (lead + 1)) & 0x03FF;
            let exp = 113 - (lead + 1);
            sign | (exp << 23) | (frac << 13)
        } else {
            sign // signed zero
        };
        f32::from_bits(bits)
    }

    /// Convert via `f32` from a double.
    ///
    /// Double rounding (f64→f32→f16) can differ from direct f64→f16 rounding
    /// in rare ties, but this is exactly what hardware pipelines (and the
    /// paper's trimming path) do, so we keep it.
    #[inline]
    pub fn from_f64(x: f64) -> Half {
        Half::from_f32(x as f32)
    }

    #[inline]
    pub fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }
}

impl std::fmt::Debug for Half {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Half({})", self.to_f32())
    }
}

impl std::fmt::Display for Half {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl From<f32> for Half {
    fn from(x: f32) -> Half {
        Half::from_f32(x)
    }
}

impl From<Half> for f32 {
    fn from(h: Half) -> f32 {
        h.to_f32()
    }
}

impl From<Half> for f64 {
    fn from(h: Half) -> f64 {
        h.to_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(x: f32) -> f32 {
        Half::from_f32(x).to_f32()
    }

    #[test]
    fn exact_small_integers_roundtrip() {
        for i in -2048..=2048 {
            let x = i as f32;
            assert_eq!(roundtrip(x), x, "integer {i} must be exact in binary16");
        }
    }

    #[test]
    fn known_bit_patterns() {
        assert_eq!(Half::from_f32(1.0).0, 0x3C00);
        assert_eq!(Half::from_f32(-2.0).0, 0xC000);
        assert_eq!(Half::from_f32(0.5).0, 0x3800);
        assert_eq!(Half::from_f32(65504.0).0, 0x7BFF);
        assert_eq!(Half::from_f32(2.0f32.powi(-14)).0, 0x0400);
        // Largest subnormal: (1023/1024) * 2^-14.
        let sub = 1023.0f32 / 1024.0 * 2.0f32.powi(-14);
        assert_eq!(Half::from_f32(sub).0, 0x03FF);
    }

    #[test]
    fn overflow_goes_to_infinity() {
        assert_eq!(Half::from_f32(1.0e6), Half::INFINITY);
        assert_eq!(Half::from_f32(-1.0e6), Half::NEG_INFINITY);
        // 65520 is the rounding boundary: ties-to-even rounds to infinity.
        assert_eq!(Half::from_f32(65520.0), Half::INFINITY);
        assert_eq!(Half::from_f32(65519.0).0, 0x7BFF);
    }

    #[test]
    fn underflow_and_subnormals() {
        // 2^-24 is the smallest subnormal.
        assert_eq!(Half::from_f32(2.0f32.powi(-24)).0, 0x0001);
        // Half of it ties to even -> zero.
        assert_eq!(Half::from_f32(2.0f32.powi(-25)).0, 0x0000);
        // Just above the tie rounds up.
        assert_eq!(Half::from_f32(2.0f32.powi(-25) * 1.5).0, 0x0001);
        assert_eq!(Half::from_f32(-0.0).0, 0x8000);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next half
        // (1 + 2^-10); RNE keeps the even significand (1.0).
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(Half::from_f32(halfway).0, 0x3C00);
        // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9 -> rounds to
        // even significand 0b10 -> 1 + 2^-9.
        let halfway2 = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(Half::from_f32(halfway2).0, 0x3C02);
    }

    #[test]
    fn nan_propagates() {
        assert!(Half::from_f32(f32::NAN).is_nan());
        assert!(Half::NAN.to_f32().is_nan());
    }

    #[test]
    fn exhaustive_roundtrip_all_finite_halves() {
        // Every finite binary16 must survive f16 -> f32 -> f16 unchanged.
        for bits in 0u16..=0xFFFF {
            let h = Half(bits);
            if h.is_nan() {
                continue;
            }
            let back = Half::from_f32(h.to_f32());
            assert_eq!(back.0, bits, "bits {bits:#06x} changed to {:#06x}", back.0);
        }
    }

    #[test]
    fn relative_error_within_unit_roundoff() {
        // RNE guarantees |fl(x) - x| <= u * |x| for normal-range x.
        let u = 2.0f64.powi(-11);
        let mut x = 1.0e-4f64;
        while x < 6.0e4 {
            let r = Half::from_f64(x).to_f64();
            if x >= 2.0f64.powi(-14) {
                assert!(((r - x) / x).abs() <= u, "x={x} r={r}");
            }
            x *= 1.7;
        }
    }
}
