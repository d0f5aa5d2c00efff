//! The three floating-point precisions the paper's adaptive solver juggles.

/// IEEE-754 precision of a tile's storage.
///
/// The paper's runtime stores each covariance tile in one of these formats
/// and converts operands *on demand* when a consumer task runs in a higher
/// precision (its Algorithm 1 marks the precision-lead operand with `+` and
/// converted operands with `*`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Precision {
    /// IEEE binary16 (emulated; FP32 accumulation, see [`crate::shgemm`]).
    F16,
    /// IEEE binary32.
    F32,
    /// IEEE binary64 — the reference precision.
    F64,
}

impl Precision {
    /// Unit roundoff `u` (half the machine epsilon) of the format.
    ///
    /// These are the `u_high` / `u_low` constants of the paper's §VI-C
    /// adaptive rule: a tile may be stored in a lower precision when
    /// `||A_ij||_F < u_high * ||A||_F / (NT * u_low)`.
    #[inline]
    pub fn unit_roundoff(self) -> f64 {
        match self {
            // 2^-11, 2^-24, 2^-53
            Precision::F16 => 4.8828125e-4,
            Precision::F32 => 5.960464477539063e-8,
            Precision::F64 => 1.1102230246251565e-16,
        }
    }

    /// Storage bytes per element.
    #[inline]
    pub fn bytes(self) -> usize {
        match self {
            Precision::F16 => 2,
            Precision::F32 => 4,
            Precision::F64 => 8,
        }
    }

    /// Relative arithmetic throughput versus FP64 on the modeled A64FX
    /// (512-bit SVE: FP32 runs 2x faster, FP16 4x — the peak ratios the
    /// paper's Fig. 7 mixed-precision runs exploit).
    #[inline]
    pub fn speedup_vs_f64(self) -> f64 {
        match self {
            Precision::F16 => 4.0,
            Precision::F32 => 2.0,
            Precision::F64 => 1.0,
        }
    }

    /// Short lowercase name (`"fp64"` etc.) used in reports and heat-maps.
    #[inline]
    pub fn name(self) -> &'static str {
        match self {
            Precision::F16 => "fp16",
            Precision::F32 => "fp32",
            Precision::F64 => "fp64",
        }
    }

    /// The precision a low-rank tile of this precision is stored and
    /// computed in: the paper's TLR path is FP64/FP32 only, so FP16 maps to
    /// FP32. The one place that rule is written.
    #[inline]
    pub fn low_rank(self) -> Precision {
        match self {
            Precision::F16 => Precision::F32,
            other => other,
        }
    }

    /// The lower of two precisions.
    #[inline]
    pub fn min(self, other: Precision) -> Precision {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The higher of two precisions.
    #[inline]
    pub fn max(self, other: Precision) -> Precision {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// All precisions from lowest to highest.
    pub const ALL: [Precision; 3] = [Precision::F16, Precision::F32, Precision::F64];
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_by_width() {
        assert!(Precision::F16 < Precision::F32);
        assert!(Precision::F32 < Precision::F64);
        assert_eq!(Precision::F16.max(Precision::F64), Precision::F64);
        assert_eq!(Precision::F64.min(Precision::F32), Precision::F32);
    }

    #[test]
    fn unit_roundoffs_match_ieee() {
        assert_eq!(Precision::F64.unit_roundoff(), (f64::EPSILON / 2.0));
        assert_eq!(Precision::F32.unit_roundoff(), (f32::EPSILON as f64 / 2.0));
        // binary16 epsilon is 2^-10; unit roundoff 2^-11.
        assert_eq!(Precision::F16.unit_roundoff(), 2.0f64.powi(-11));
    }

    #[test]
    fn bytes_and_speedups() {
        assert_eq!(Precision::F64.bytes(), 8);
        assert_eq!(Precision::F32.bytes(), 4);
        assert_eq!(Precision::F16.bytes(), 2);
        assert_eq!(Precision::F64.speedup_vs_f64(), 1.0);
        assert!(Precision::F16.speedup_vs_f64() > Precision::F32.speedup_vs_f64());
    }

    #[test]
    fn low_rank_is_never_fp16() {
        assert_eq!(Precision::F16.low_rank(), Precision::F32);
        assert_eq!(Precision::F32.low_rank(), Precision::F32);
        assert_eq!(Precision::F64.low_rank(), Precision::F64);
    }
}
