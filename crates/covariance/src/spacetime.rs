//! The Gneiting non-separable space–time covariance (paper Eq. 6).
//!
//! `ψ(u) = a_t |u|^{2α} + 1`
//! `C(h, u) = σ² / ψ(u) · M_ν( ‖h‖ / (a_s ψ(u)^{β/2}) )`
//!
//! with six parameters `θ = (σ², a_s, ν, a_t, α, β)`: variance, spatial
//! range, spatial smoothness, temporal range, temporal smoothness and the
//! space–time interaction ("non-separability") parameter. `β = 0` factors
//! the model into purely spatial × purely temporal components (separable);
//! `β > 0` couples them — the case the paper's Table II finds (`β ≈ 0.186`)
//! and argues is more realistic.

use crate::matern::MaternCorrelation;

/// Parameter vector of the space–time model — the six estimands of the
/// paper's Table II.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpaceTimeParams {
    /// Variance `σ² = θ_0 > 0`.
    pub sigma2: f64,
    /// Spatial range `a_s = θ_1 > 0`.
    pub range_space: f64,
    /// Spatial smoothness `ν = θ_2 > 0`.
    pub smoothness_space: f64,
    /// Temporal range `a_t = θ_3 > 0`.
    pub range_time: f64,
    /// Temporal smoothness `α = θ_4 ∈ (0, 1]` in Gneiting's construction
    /// (`2α` is the exponent of the temporal lag).
    pub smoothness_time: f64,
    /// Space–time interaction `β = θ_5 ∈ [0, 1]`; 0 = separable.
    pub beta: f64,
}

impl SpaceTimeParams {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        sigma2: f64,
        range_space: f64,
        smoothness_space: f64,
        range_time: f64,
        smoothness_time: f64,
        beta: f64,
    ) -> SpaceTimeParams {
        assert!(sigma2 > 0.0 && range_space > 0.0 && smoothness_space > 0.0);
        assert!(range_time > 0.0 && smoothness_time > 0.0);
        assert!((0.0..=1.0).contains(&beta), "beta must be in [0,1]");
        SpaceTimeParams {
            sigma2,
            range_space,
            smoothness_space,
            range_time,
            smoothness_time,
            beta,
        }
    }

    pub fn to_vec(self) -> Vec<f64> {
        vec![
            self.sigma2,
            self.range_space,
            self.smoothness_space,
            self.range_time,
            self.smoothness_time,
            self.beta,
        ]
    }

    pub fn from_slice(v: &[f64]) -> SpaceTimeParams {
        SpaceTimeParams::new(v[0], v[1], v[2], v[3], v[4], v[5])
    }
}

/// The Gneiting space–time kernel; holds the per-ν Matérn evaluator like
/// [`crate::matern::Matern`].
#[derive(Clone, Copy, Debug)]
pub struct GneitingSpaceTime {
    pub params: SpaceTimeParams,
    corr: MaternCorrelation,
}

impl GneitingSpaceTime {
    pub fn new(params: SpaceTimeParams) -> GneitingSpaceTime {
        GneitingSpaceTime {
            params,
            corr: MaternCorrelation::new(params.smoothness_space),
        }
    }

    /// Covariance at spatial distance `h >= 0` and temporal lag `u`.
    pub fn cov(&self, h: f64, u: f64) -> f64 {
        let p = &self.params;
        let psi = p.range_time * u.abs().powf(2.0 * p.smoothness_time.min(1.0)) + 1.0;
        let scaled_h = h / (p.range_space * psi.powf(0.5 * p.beta));
        p.sigma2 / psi * self.corr.eval(scaled_h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(beta: f64) -> SpaceTimeParams {
        SpaceTimeParams::new(1.0, 0.5, 1.0, 0.8, 0.9, beta)
    }

    #[test]
    fn variance_at_origin() {
        let k = GneitingSpaceTime::new(params(0.5));
        assert!((k.cov(0.0, 0.0) - 1.0).abs() < 1e-15);
        let k2 = GneitingSpaceTime::new(SpaceTimeParams::new(3.2, 0.5, 1.0, 0.8, 0.9, 0.2));
        assert!((k2.cov(0.0, 0.0) - 3.2).abs() < 1e-15);
    }

    #[test]
    fn decays_in_both_space_and_time() {
        let k = GneitingSpaceTime::new(params(0.3));
        let c00 = k.cov(0.0, 0.0);
        let ch = k.cov(0.4, 0.0);
        let cu = k.cov(0.0, 1.0);
        let chu = k.cov(0.4, 1.0);
        assert!(ch < c00 && cu < c00 && chu < ch && chu < cu);
        assert!(chu > 0.0);
    }

    #[test]
    fn separable_case_factorizes() {
        // With beta = 0: C(h,u) = [sigma2/psi(u)] * M(h/a_s) — the product of
        // the purely temporal and purely spatial parts divided by sigma2.
        let k = GneitingSpaceTime::new(params(0.0));
        for &(h, u) in &[(0.2f64, 0.5f64), (0.7, 1.5), (1.3, 0.2)] {
            let joint = k.cov(h, u);
            let spatial = k.cov(h, 0.0);
            let temporal = k.cov(0.0, u);
            assert!(
                (joint - spatial * temporal / k.params.sigma2).abs() < 1e-14,
                "separability violated at ({h},{u})"
            );
        }
    }

    #[test]
    fn nonseparable_case_does_not_factorize() {
        let k = GneitingSpaceTime::new(params(1.0));
        let (h, u) = (0.7, 1.5);
        let joint = k.cov(h, u);
        let product = k.cov(h, 0.0) * k.cov(0.0, u) / k.params.sigma2;
        assert!((joint - product).abs() > 1e-6);
    }

    #[test]
    fn interaction_increases_cross_covariance() {
        // Larger beta stretches the effective spatial range at nonzero
        // temporal lag, raising C(h, u) for h, u > 0.
        let k0 = GneitingSpaceTime::new(params(0.0));
        let k1 = GneitingSpaceTime::new(params(1.0));
        assert!(k1.cov(0.5, 2.0) > k0.cov(0.5, 2.0));
    }

    #[test]
    fn time_symmetry() {
        let k = GneitingSpaceTime::new(params(0.4));
        assert_eq!(k.cov(0.3, 1.2), k.cov(0.3, -1.2));
    }

    #[test]
    fn params_roundtrip() {
        let p = SpaceTimeParams::new(1.01, 3.79, 0.32, 0.0101, 0.9, 0.186);
        assert_eq!(SpaceTimeParams::from_slice(&p.to_vec()), p);
    }
}
