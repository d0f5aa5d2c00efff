//! Synthetic tile-format profiles for paper-scale simulation.
//!
//! At 1M–10M locations we cannot materialize the covariance matrix, but the
//! *decision maps* (Fig. 9) have simple structure once locations are
//! Morton-ordered: format depends (to first order) on the normalized
//! tile-index distance `u = |i-j| / NT`. These profiles encode that
//! structure for the paper's weak/medium/strong correlation regimes,
//! calibrated so the resulting memory footprints land near the Fig. 9
//! annotations (dense FP64 4356 GB; WC: MP 1607 GB, MP+TLR 915 GB; SC: MP
//! 3877 GB, MP+TLR 1830 GB for the 1M matrix at tile 2700).

use xgs_cholesky::dag::TileMetaSource;
use xgs_kernels::Precision;

/// Correlation strength of the underlying field (paper: a = 0.03 / 0.1 /
/// 0.3 on the unit square).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Correlation {
    Weak,
    Medium,
    Strong,
    /// The space–time regime of Fig. 11: strong *spatial* correlation (rare
    /// low-precision opportunities) but a temporally-blocked structure that
    /// compresses well, giving close to an order of magnitude TLR gain.
    SpaceTimeStrong,
}

impl Correlation {
    pub fn name(self) -> &'static str {
        match self {
            Correlation::Weak => "weak",
            Correlation::Medium => "medium",
            Correlation::Strong => "strong",
            Correlation::SpaceTimeStrong => "space-time strong",
        }
    }

    /// Matérn range parameter the regime corresponds to.
    pub fn range(self) -> f64 {
        match self {
            Correlation::Weak => 0.03,
            Correlation::Medium => 0.1,
            Correlation::Strong | Correlation::SpaceTimeStrong => 0.3,
        }
    }
}

/// Piecewise-in-`u` format profile.
#[derive(Clone, Copy, Debug)]
pub struct TileFormatProfile {
    pub nt: usize,
    pub nb: usize,
    /// Tiles with `|i-j| < dense_band` stay dense (structure decision).
    pub dense_band: usize,
    /// Below this `u`, dense tiles are FP64.
    pub u_f64: f64,
    /// Below this `u` (and above `u_f64`), FP32; beyond, FP16.
    pub u_f32: f64,
    /// Rank model: `rank(u) = max(rank_floor, rank0 * exp(-u / tau))`,
    /// capped at `nb`.
    pub rank0: f64,
    pub tau: f64,
    pub rank_floor: usize,
    /// When false (dense variants), every tile is dense.
    pub tlr: bool,
}

impl TileFormatProfile {
    /// Profile for a correlation regime. `tlr = false` reproduces the MP
    /// dense variant's precision map with no low-rank tiles.
    pub fn new(c: Correlation, nt: usize, nb: usize, tlr: bool) -> TileFormatProfile {
        // Precision thresholds calibrated to the Fig. 9 footprints; rank
        // decay calibrated to the paper's band sizes (~3 tiles at WC) and
        // far-field ranks at accuracy 1e-8.
        let (u_f64, u_f32, rank0, tau, rank_floor, dense_band) = match c {
            Correlation::Weak => (0.02, 0.15, 0.15 * nb as f64, 0.025, 10, 3),
            Correlation::Medium => (0.10, 0.40, 0.28 * nb as f64, 0.08, 18, 4),
            Correlation::Strong => (0.50, 0.90, 0.40 * nb as f64, 0.15, 30, 6),
            Correlation::SpaceTimeStrong => (0.50, 0.90, 0.15 * nb as f64, 0.04, 14, 5),
        };
        TileFormatProfile {
            nt,
            nb,
            dense_band,
            u_f64,
            u_f32,
            rank0,
            tau,
            rank_floor,
            tlr,
        }
    }

    #[inline]
    fn u(&self, i: usize, j: usize) -> f64 {
        i.abs_diff(j) as f64 / self.nt as f64
    }

    /// The rank the TLR compressor would produce at tile distance `u`.
    pub fn rank_at(&self, u: f64) -> usize {
        let r = (self.rank0 * (-u / self.tau).exp()).max(self.rank_floor as f64);
        (r as usize).min(self.nb)
    }
}

impl TileMetaSource for TileFormatProfile {
    fn is_dense(&self, i: usize, j: usize) -> bool {
        if !self.tlr || i == j {
            return true;
        }
        if i.abs_diff(j) < self.dense_band {
            return true;
        }
        // Structure rule: revert to dense past the Fig. 5 crossover
        // (rank ~ nb/13.5 with the calibrated model).
        let crossover = (self.nb as f64 / 13.5) as usize;
        self.rank(i, j) >= crossover.max(1)
    }

    fn rank(&self, i: usize, j: usize) -> usize {
        self.rank_at(self.u(i, j))
    }

    fn precision(&self, i: usize, j: usize) -> Precision {
        if i == j {
            return Precision::F64;
        }
        let u = self.u(i, j);
        let p = if u < self.u_f64 {
            Precision::F64
        } else if u < self.u_f32 {
            Precision::F32
        } else {
            Precision::F16
        };
        if self.is_dense(i, j) {
            p
        } else {
            p.low_rank()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weak_has_more_low_precision_than_strong() {
        let nt = 370;
        let frac_fp16 = |c: Correlation| {
            let p = TileFormatProfile::new(c, nt, 2700, false);
            let mut n16 = 0usize;
            let mut total = 0usize;
            for j in 0..nt {
                for i in j..nt {
                    total += 1;
                    if p.precision(i, j) == Precision::F16 {
                        n16 += 1;
                    }
                }
            }
            n16 as f64 / total as f64
        };
        assert!(frac_fp16(Correlation::Weak) > 0.5);
        assert!(frac_fp16(Correlation::Weak) > frac_fp16(Correlation::Medium));
        assert!(frac_fp16(Correlation::Medium) > frac_fp16(Correlation::Strong));
    }

    #[test]
    fn ranks_decay_with_distance_and_respect_floor() {
        let p = TileFormatProfile::new(Correlation::Weak, 370, 2700, true);
        assert!(p.rank_at(0.01) > p.rank_at(0.1));
        assert!(p.rank_at(0.9) >= p.rank_floor);
        assert!(p.rank_at(0.0) <= 2700);
    }

    #[test]
    fn dense_band_and_diagonal_always_dense_fp64() {
        let p = TileFormatProfile::new(Correlation::Medium, 100, 2700, true);
        for k in 0..100 {
            assert!(p.is_dense(k, k));
            assert_eq!(p.precision(k, k), Precision::F64);
        }
        assert!(p.is_dense(5, 3)); // within band 4
    }

    #[test]
    fn tlr_disabled_means_all_dense() {
        let p = TileFormatProfile::new(Correlation::Weak, 50, 2700, false);
        for j in 0..50 {
            for i in j..50 {
                assert!(p.is_dense(i, j));
            }
        }
    }

    #[test]
    fn space_time_profile_compresses_harder_than_space_strong() {
        // Fig. 11's premise: the space-time SC matrix has lower TLR ranks
        // than the pure-space SC matrix, despite the same precision map.
        let nt = 200;
        let st = TileFormatProfile::new(Correlation::SpaceTimeStrong, nt, 800, true);
        let sc = TileFormatProfile::new(Correlation::Strong, nt, 800, true);
        let avg_rank = |p: &TileFormatProfile| {
            let mut total = 0usize;
            let mut count = 0usize;
            for j in 0..nt {
                for i in j + 1..nt {
                    if !p.is_dense(i, j) {
                        total += p.rank(i, j);
                        count += 1;
                    }
                }
            }
            (total as f64 / count.max(1) as f64, count)
        };
        let (r_st, n_st) = avg_rank(&st);
        let (r_sc, n_sc) = avg_rank(&sc);
        assert!(
            n_st > n_sc,
            "space-time must have more LR tiles: {n_st} vs {n_sc}"
        );
        assert!(
            r_st < r_sc,
            "space-time ranks must be lower: {r_st} vs {r_sc}"
        );
        // Precision maps match (both are strong-correlation regimes).
        assert_eq!(st.u_f64, sc.u_f64);
    }

    #[test]
    fn tlr_profile_has_low_rank_majority_at_weak_correlation() {
        let nt = 370;
        let p = TileFormatProfile::new(Correlation::Weak, nt, 2700, true);
        let mut lr = 0usize;
        let mut total = 0usize;
        for j in 0..nt {
            for i in j + 1..nt {
                total += 1;
                if !p.is_dense(i, j) {
                    lr += 1;
                }
            }
        }
        assert!(
            lr as f64 / total as f64 > 0.6,
            "only {lr}/{total} tiles low-rank"
        );
    }
}
