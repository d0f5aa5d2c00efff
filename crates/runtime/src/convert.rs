//! Global counters for on-demand precision conversions.
//!
//! Algorithm 1 marks the precision-lead operand of each kernel with `+`;
//! PaRSEC "will move and convert on-the-fly the operands with the `*` sign
//! to match the precision at the receiver side". The solver calls
//! [`count_conversion`] every time it performs such a cast, so runs can
//! report how much conversion traffic the adaptive format mix generated.

use std::sync::atomic::{AtomicU64, Ordering};
use xgs_kernels::Precision;

static F64_TO_F32: AtomicU64 = AtomicU64::new(0);
static F64_TO_F16: AtomicU64 = AtomicU64::new(0);
static F32_TO_F64: AtomicU64 = AtomicU64::new(0);
static F32_TO_F16: AtomicU64 = AtomicU64::new(0);
static F16_TO_F32: AtomicU64 = AtomicU64::new(0);
static F16_TO_F64: AtomicU64 = AtomicU64::new(0);

/// Record a conversion of `elements` scalars from `from` to `to`.
/// Same-precision "conversions" are ignored.
pub fn count_conversion(from: Precision, to: Precision, elements: u64) {
    let counter = match (from, to) {
        (Precision::F64, Precision::F32) => &F64_TO_F32,
        (Precision::F64, Precision::F16) => &F64_TO_F16,
        (Precision::F32, Precision::F64) => &F32_TO_F64,
        (Precision::F32, Precision::F16) => &F32_TO_F16,
        (Precision::F16, Precision::F32) => &F16_TO_F32,
        (Precision::F16, Precision::F64) => &F16_TO_F64,
        _ => return,
    };
    counter.fetch_add(elements, Ordering::Relaxed);
}

/// Snapshot of all conversion counters (elements converted).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConversionCounts {
    pub f64_to_f32: u64,
    pub f64_to_f16: u64,
    pub f32_to_f64: u64,
    pub f32_to_f16: u64,
    pub f16_to_f32: u64,
    pub f16_to_f64: u64,
}

impl ConversionCounts {
    pub fn total(&self) -> u64 {
        self.f64_to_f32
            + self.f64_to_f16
            + self.f32_to_f64
            + self.f32_to_f16
            + self.f16_to_f32
            + self.f16_to_f64
    }

    /// Total demotions (information-losing casts).
    pub fn demotions(&self) -> u64 {
        self.f64_to_f32 + self.f64_to_f16 + self.f32_to_f16
    }

    /// Total promotions (exact casts).
    pub fn promotions(&self) -> u64 {
        self.f32_to_f64 + self.f16_to_f32 + self.f16_to_f64
    }

    /// Bytes each direction moved, under its JSON name: every element is
    /// read once in the source format and written once in the target's.
    /// (The solver converts while it packs its operands, so there is no
    /// separate pass to time; bytes are the cost that can be stated.)
    pub fn bytes(&self) -> [(&'static str, u64); 6] {
        use Precision::{F16, F32, F64};
        let moved = |elements: u64, from: Precision, to: Precision| {
            elements * (from.bytes() + to.bytes()) as u64
        };
        [
            ("f64_to_f32", moved(self.f64_to_f32, F64, F32)),
            ("f64_to_f16", moved(self.f64_to_f16, F64, F16)),
            ("f32_to_f64", moved(self.f32_to_f64, F32, F64)),
            ("f32_to_f16", moved(self.f32_to_f16, F32, F16)),
            ("f16_to_f32", moved(self.f16_to_f32, F16, F32)),
            ("f16_to_f64", moved(self.f16_to_f64, F16, F64)),
        ]
    }

    /// Sum of [`ConversionCounts::bytes`].
    pub fn total_bytes(&self) -> u64 {
        self.bytes().iter().map(|(_, b)| b).sum()
    }

    /// Counter growth since `baseline` (a snapshot taken earlier in the
    /// same process). Saturating, so a [`reset_conversion_counts`]
    /// between the snapshots yields zeros rather than wrap-around.
    pub fn since(&self, baseline: &ConversionCounts) -> ConversionCounts {
        ConversionCounts {
            f64_to_f32: self.f64_to_f32.saturating_sub(baseline.f64_to_f32),
            f64_to_f16: self.f64_to_f16.saturating_sub(baseline.f64_to_f16),
            f32_to_f64: self.f32_to_f64.saturating_sub(baseline.f32_to_f64),
            f32_to_f16: self.f32_to_f16.saturating_sub(baseline.f32_to_f16),
            f16_to_f32: self.f16_to_f32.saturating_sub(baseline.f16_to_f32),
            f16_to_f64: self.f16_to_f64.saturating_sub(baseline.f16_to_f64),
        }
    }
}

/// Read the current counters.
pub fn conversion_counts() -> ConversionCounts {
    ConversionCounts {
        f64_to_f32: F64_TO_F32.load(Ordering::Relaxed),
        f64_to_f16: F64_TO_F16.load(Ordering::Relaxed),
        f32_to_f64: F32_TO_F64.load(Ordering::Relaxed),
        f32_to_f16: F32_TO_F16.load(Ordering::Relaxed),
        f16_to_f32: F16_TO_F32.load(Ordering::Relaxed),
        f16_to_f64: F16_TO_F64.load(Ordering::Relaxed),
    }
}

/// Zero all counters (start of a measured region).
pub fn reset_conversion_counts() {
    F64_TO_F32.store(0, Ordering::Relaxed);
    F64_TO_F16.store(0, Ordering::Relaxed);
    F32_TO_F64.store(0, Ordering::Relaxed);
    F32_TO_F16.store(0, Ordering::Relaxed);
    F16_TO_F32.store(0, Ordering::Relaxed);
    F16_TO_F64.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate_and_reset() {
        reset_conversion_counts();
        count_conversion(Precision::F64, Precision::F32, 100);
        count_conversion(Precision::F16, Precision::F64, 7);
        count_conversion(Precision::F64, Precision::F64, 999); // ignored
        let c = conversion_counts();
        assert_eq!(c.f64_to_f32, 100);
        assert_eq!(c.f16_to_f64, 7);
        assert_eq!(c.total(), 107);
        assert_eq!(c.demotions(), 100);
        assert_eq!(c.promotions(), 7);
        // 100 x (8 + 4) bytes one way, 7 x (2 + 8) the other.
        assert_eq!(c.bytes()[0], ("f64_to_f32", 1200));
        assert_eq!(c.bytes()[5], ("f16_to_f64", 70));
        assert_eq!(c.total_bytes(), 1270);
        reset_conversion_counts();
        assert_eq!(conversion_counts().total(), 0);
    }
}
