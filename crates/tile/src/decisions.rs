//! The paper's two tile-centric runtime decisions.
//!
//! * **Precision-aware** (§VI-C): a tile may be stored in a lower precision
//!   with unit roundoff `u_low` when
//!   `||A_ij||_F < u_high * ||A||_F / (NT * u_low)`.
//!   The resulting perturbed matrix `Â` satisfies
//!   `||Â − A||_F ≤ u_high ||A||_F` — FP64-worthy accuracy from
//!   majority-low-precision storage.
//!
//! * **Structure-aware** (§V-B.2, §VI-B): right after generation/compression
//!   and before the factorization starts, estimate per tile whether dense or
//!   TLR execution of its TRSM+GEMM work is faster, given its rank and
//!   precision; high-rank tiles are translated back to dense. The time
//!   estimates come from a [`KernelTimeModel`], so the same logic runs with
//!   the analytic flop model here or the calibrated A64FX model in
//!   `xgs-perfmodel`.

use xgs_kernels::Precision;

/// How tile precisions are assigned.
///
/// The paper contrasts two schemes (Figs. 2(c) and 2(d)):
/// * the **brute-force band** structure used in its earlier work \[11,12\]:
///   FP64 inside a diagonal band, FP32 in a second band, FP16 beyond —
///   simple, but "may engender more operations than required in case
///   actual low precision tiles reside in a band region with high
///   precision";
/// * the **adaptive tile-centric** Frobenius-norm rule (§VI-C), this
///   paper's contribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrecisionRule {
    /// §VI-C norm-based rule (the default).
    AdaptiveNorm,
    /// Fixed bands: `|i-j| < f64_band` → FP64, `< f32_band` → FP32,
    /// beyond → FP16 (if allowed, else FP32).
    Band { f64_band: usize, f32_band: usize },
}

/// Apply a [`PrecisionRule`] to tile `(i, j)`.
#[allow(clippy::too_many_arguments)]
pub fn precision_for_tile_with_rule(
    rule: PrecisionRule,
    i: usize,
    j: usize,
    band_pin: usize,
    tile_norm: f64,
    global_norm: f64,
    nt: usize,
    allow_fp16: bool,
) -> Precision {
    match rule {
        PrecisionRule::AdaptiveNorm => {
            precision_for_tile(i, j, band_pin, tile_norm, global_norm, nt, allow_fp16)
        }
        PrecisionRule::Band { f64_band, f32_band } => {
            let d = i.abs_diff(j);
            if d < f64_band.max(band_pin) {
                Precision::F64
            } else if d < f32_band || !allow_fp16 {
                Precision::F32
            } else {
                Precision::F16
            }
        }
    }
}

/// Decide storage precision for tile `(i, j)` with Frobenius norm
/// `tile_norm`, given the global matrix Frobenius norm and tile count `NT`.
///
/// Diagonal tiles and tiles inside the dense band (`|i - j| < band_pin`)
/// are pinned to FP64: they carry the Cholesky pivots.
/// `u_high` is FP64's unit roundoff; the candidate low precisions are tried
/// lowest-first so each tile gets the cheapest format that keeps the global
/// bound.
pub fn precision_for_tile(
    i: usize,
    j: usize,
    band_pin: usize,
    tile_norm: f64,
    global_norm: f64,
    nt: usize,
    allow_fp16: bool,
) -> Precision {
    if i.abs_diff(j) < band_pin {
        return Precision::F64;
    }
    let u_high = Precision::F64.unit_roundoff();
    let budget = |u_low: f64| u_high * global_norm / (nt as f64 * u_low);
    if allow_fp16 && tile_norm < budget(Precision::F16.unit_roundoff()) {
        return Precision::F16;
    }
    if tile_norm < budget(Precision::F32.unit_roundoff()) {
        return Precision::F32;
    }
    Precision::F64
}

/// Time model for the two kernel families the structure decision compares.
///
/// All times are per-kernel seconds on one core; only ratios matter for the
/// decision, so an analytic flop model works, and a measured model
/// (xgs-perfmodel's A64FX calibration) slots in for the paper-scale
/// simulations.
pub trait KernelTimeModel: Send + Sync {
    /// Dense `nb x nb x nb` GEMM in the given precision.
    fn dense_gemm_time(&self, nb: usize, precision: Precision) -> f64;

    /// TLR GEMM between rank-`k` tiles of size `nb` (includes the
    /// recompression of the product), FP64/FP32 only.
    fn tlr_gemm_time(&self, nb: usize, rank: usize, precision: Precision) -> f64;

    /// Dense TRSM on an `nb x nb` tile.
    fn dense_trsm_time(&self, nb: usize, precision: Precision) -> f64 {
        // TRSM is ~half a GEMM in flops.
        0.5 * self.dense_gemm_time(nb, precision)
    }

    /// TLR TRSM: triangular solve against the `V` factor only
    /// (`nb x k` panel -> nb k^2-ish work, folded into the GEMM model).
    fn tlr_trsm_time(&self, nb: usize, rank: usize, precision: Precision) -> f64 {
        self.tlr_gemm_time(nb, rank, precision) * 0.25
    }
}

/// Pure flop-count model with per-precision peak ratios; the default used
/// in tests and small runs.
///
/// Dense GEMM: `2 nb^3` flops at a compute-bound rate.
/// TLR GEMM (rank k): `~ 6 nb k^2 + 36 k^3` flops (LR product + QR/SVD
/// rounding of a 2k-wide stack) at a memory-bound rate `mem_factor` times
/// slower per flop — this produces the Fig. 5 crossover shape: TLR wins at
/// low rank, dense wins past the crossover rank.
#[derive(Clone, Copy, Debug)]
pub struct FlopKernelModel {
    /// FP64 flops/second achieved by the dense GEMM.
    pub dense_rate: f64,
    /// Effective slowdown of memory-bound TLR flops vs dense flops.
    pub mem_factor: f64,
}

impl Default for FlopKernelModel {
    fn default() -> Self {
        // Single A64FX core, SSL without sector cache (paper §VI): ~65% of
        // the ~70 Gflop/s FP64 core peak. TLR kernels observed an order of
        // magnitude lower per-flop efficiency (memory-bound).
        FlopKernelModel {
            dense_rate: 45.0e9,
            mem_factor: 9.0,
        }
    }
}

impl FlopKernelModel {
    /// The model every entry point (CLI, server, paper drivers, examples)
    /// hands the structure decision for tile size `nb`. From `nb` = 512 on
    /// it is the A64FX calibration of [`FlopKernelModel::default`]; below,
    /// the memory-bound TLR penalty is dropped, because the calibrated
    /// crossover (rank ≈ nb/13.5) would keep every demo-size tile dense and
    /// hide the TLR machinery (DESIGN.md §5a "Demo-scale regimes").
    pub fn for_tile(nb: usize) -> FlopKernelModel {
        if nb >= 512 {
            FlopKernelModel::default()
        } else {
            FlopKernelModel {
                dense_rate: 45.0e9,
                mem_factor: 1.0,
            }
        }
    }
}

impl KernelTimeModel for FlopKernelModel {
    fn dense_gemm_time(&self, nb: usize, precision: Precision) -> f64 {
        let flops = 2.0 * (nb as f64).powi(3);
        flops / (self.dense_rate * precision.speedup_vs_f64())
    }

    fn tlr_gemm_time(&self, nb: usize, rank: usize, precision: Precision) -> f64 {
        let nb = nb as f64;
        let k = rank as f64;
        // Product of two rank-k tiles: V1^T V2 (2 nb k^2), fold (2 nb k^2),
        // rounded addition: QR on two (nb x 2k) stacks (~2 * 4 nb (2k)^2 =
        // 32 nb k^2 .. keep leading terms) + small SVD (O(k^3)).
        let flops = 6.0 * nb * k * k + 36.0 * k * k * k + 30.0 * nb * k * k;
        // TLR runs memory-bound: no FP16 and a mem_factor penalty.
        flops * self.mem_factor / (self.dense_rate * precision.low_rank().speedup_vs_f64())
    }
}

/// The structure decision for one tile: `true` = keep/revert to dense.
///
/// Compares the modeled TRSM+GEMM time of the tile over the factorization
/// in both formats (the paper's Algorithm 2 aggregates exactly these two
/// kernels) at the tile's assigned precision, the low-rank side at
/// [`Precision::low_rank`] of it.
pub fn tile_prefers_dense(
    model: &dyn KernelTimeModel,
    nb: usize,
    rank: usize,
    precision: Precision,
) -> bool {
    let dense = model.dense_gemm_time(nb, precision) + model.dense_trsm_time(nb, precision);
    let p = precision.low_rank();
    let tlr = model.tlr_gemm_time(nb, rank, p) + model.tlr_trsm_time(nb, rank, p);
    dense <= tlr
}

/// Algorithm 2's crossover for `nb`-wide tiles: the largest rank at which
/// [`tile_prefers_dense`] still keeps a tile low-rank in some precision
/// (`nb` when it always does). Past it no tile is stored low-rank, so TLR
/// generation stops compressing there.
pub fn crossover_rank(model: &dyn KernelTimeModel, nb: usize) -> usize {
    [Precision::F64, Precision::F32, Precision::F16]
        .into_iter()
        .map(|p| {
            (1..=nb)
                .find(|&k| tile_prefers_dense(model, nb, k, p))
                .map_or(nb, |k| k - 1)
        })
        .max()
        .unwrap_or(nb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_pinned_to_f64() {
        let p = precision_for_tile(3, 3, 1, 1e-30, 1.0, 10, true);
        assert_eq!(p, Precision::F64);
    }

    #[test]
    fn band_pinned_to_f64() {
        assert_eq!(
            precision_for_tile(4, 2, 3, 1e-30, 1.0, 10, true),
            Precision::F64
        );
        assert_ne!(
            precision_for_tile(5, 1, 3, 1e-30, 1.0, 10, true),
            Precision::F64
        );
    }

    #[test]
    fn tiny_norm_gets_fp16_large_norm_stays_fp64() {
        let nt = 16;
        let global = 100.0;
        // Budget for FP16: u64 * 100 / (16 * u16) ~ 1.4e-12.
        assert_eq!(
            precision_for_tile(10, 0, 1, 1e-13, global, nt, true),
            Precision::F16
        );
        // Between the FP16 and FP32 budgets.
        assert_eq!(
            precision_for_tile(10, 0, 1, 1e-9, global, nt, true),
            Precision::F32
        );
        // Above the FP32 budget (~1.16e-8 * 100 / 16 ~ 1.16e-8... compute):
        assert_eq!(
            precision_for_tile(10, 0, 1, 1.0, global, nt, true),
            Precision::F64
        );
    }

    #[test]
    fn band_rule_ignores_norms() {
        let rule = PrecisionRule::Band {
            f64_band: 2,
            f32_band: 5,
        };
        // Huge-norm tile far from the diagonal still demoted by the band
        // rule (the failure mode the adaptive rule fixes).
        assert_eq!(
            precision_for_tile_with_rule(rule, 9, 0, 1, 1e9, 1.0, 10, true),
            Precision::F16
        );
        assert_eq!(
            precision_for_tile_with_rule(rule, 3, 0, 1, 1e-30, 1.0, 10, true),
            Precision::F32
        );
        assert_eq!(
            precision_for_tile_with_rule(rule, 1, 0, 1, 1e-30, 1.0, 10, true),
            Precision::F64
        );
        // Without FP16 the far band falls back to FP32.
        assert_eq!(
            precision_for_tile_with_rule(rule, 9, 0, 1, 1.0, 1.0, 10, false),
            Precision::F32
        );
    }

    #[test]
    fn adaptive_rule_via_dispatcher_matches_direct_call() {
        for norm in [1e-20, 1e-9, 1.0] {
            assert_eq!(
                precision_for_tile_with_rule(
                    PrecisionRule::AdaptiveNorm,
                    8,
                    0,
                    1,
                    norm,
                    100.0,
                    16,
                    true
                ),
                precision_for_tile(8, 0, 1, norm, 100.0, 16, true)
            );
        }
    }

    #[test]
    fn fp16_can_be_disabled() {
        assert_eq!(
            precision_for_tile(10, 0, 1, 1e-13, 100.0, 16, false),
            Precision::F32
        );
    }

    #[test]
    fn global_error_bound_holds() {
        // Synthetic: NT tiles all at their budget edge still satisfy the
        // global bound sum_ij ||E_ij||_F <= u_high ||A||_F.
        let nt = 8usize;
        let global = 1.0;
        let u_high = Precision::F64.unit_roundoff();
        let mut total_err = 0.0;
        for i in 0..nt {
            for j in 0..=i {
                // Worst-case tile: norm just below the fp16 budget, error
                // u16 * norm.
                let u_low = Precision::F16.unit_roundoff();
                let norm = u_high * global / (nt as f64 * u_low) * 0.999;
                let p = precision_for_tile(i, j, 1, norm, global, nt, true);
                let u = p.unit_roundoff();
                if i.abs_diff(j) >= 1 {
                    total_err += u * norm;
                }
            }
        }
        // NT(NT-1)/2 off-diagonal tiles, each contributing < u_high*global/NT:
        // the rule is conservative by ~2/(NT-1) here.
        assert!(total_err <= u_high * global * nt as f64);
    }

    #[test]
    fn flop_model_has_a_rank_crossover() {
        let m = FlopKernelModel::default();
        let nb = 512;
        // Low rank: TLR much faster.
        assert!(!tile_prefers_dense(&m, nb, 10, Precision::F64));
        // Full-ish rank: dense faster.
        assert!(tile_prefers_dense(&m, nb, nb / 2, Precision::F64));
        // Crossover is monotone: find it and check ordering.
        let mut crossover = None;
        for k in 1..nb {
            if tile_prefers_dense(&m, nb, k, Precision::F64) {
                crossover = Some(k);
                break;
            }
        }
        let k0 = crossover.expect("crossover must exist");
        assert!(k0 > 16 && k0 < nb, "crossover {k0} out of plausible range");
    }

    #[test]
    fn tile_model_switches_to_the_calibration_at_512() {
        let calibrated = FlopKernelModel::default();
        for nb in [32, 100, 511] {
            let m = FlopKernelModel::for_tile(nb);
            assert_eq!((m.dense_rate, m.mem_factor), (calibrated.dense_rate, 1.0));
        }
        for nb in [512, 2700] {
            let m = FlopKernelModel::for_tile(nb);
            assert_eq!(
                (m.dense_rate, m.mem_factor),
                (calibrated.dense_rate, calibrated.mem_factor)
            );
        }
    }

    #[test]
    fn crossover_rank_is_the_last_low_rank_win() {
        // The benchmark's and the CLI's model at its `field` tile size.
        let m = FlopKernelModel::for_tile(100);
        assert_eq!(crossover_rank(&m, 100), 23);
        for nb in [32, 100, 512] {
            let m = FlopKernelModel::for_tile(nb);
            let k = crossover_rank(&m, nb);
            assert!(!tile_prefers_dense(&m, nb, k, Precision::F64), "nb {nb}");
            assert!(tile_prefers_dense(&m, nb, k + 1, Precision::F64), "nb {nb}");
            for p in [Precision::F32, Precision::F16] {
                assert!(tile_prefers_dense(&m, nb, k + 1, p), "nb {nb} {p:?}");
            }
        }
    }

    #[test]
    fn lower_precision_shrinks_the_crossover_window_for_dense() {
        // FP16 makes dense cheaper but TLR caps at FP32, so the dense
        // format wins from a smaller rank on.
        let m = FlopKernelModel::default();
        let nb = 512;
        let cross = |p: Precision| {
            (1..nb)
                .find(|&k| tile_prefers_dense(&m, nb, k, p))
                .unwrap_or(nb)
        };
        assert!(cross(Precision::F16) <= cross(Precision::F32));
        assert!(cross(Precision::F32) <= cross(Precision::F64));
    }
}
