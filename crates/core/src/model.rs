//! Model families: the parameter-vector ↔ covariance-kernel mapping.

use crate::optimizer::transform::ParamTransform;
use xgs_covariance::{CovarianceKernel, GneitingSpaceTime, Matern, MaternParams, SpaceTimeParams};

/// Which covariance model is being fitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelFamily {
    /// 2D space, Matérn: `θ = (σ², a, ν)` (paper Table I / Fig. 6).
    MaternSpace,
    /// 2D space × time, Gneiting: `θ = (σ², a_s, ν, a_t, α, β)`
    /// (paper Table II / Fig. 11).
    GneitingSpaceTime,
}

impl ModelFamily {
    pub fn n_params(self) -> usize {
        match self {
            ModelFamily::MaternSpace => 3,
            ModelFamily::GneitingSpaceTime => 6,
        }
    }

    /// Human-readable parameter names, in vector order (matching the
    /// paper's table headers).
    pub fn param_names(self) -> &'static [&'static str] {
        match self {
            ModelFamily::MaternSpace => &["variance", "range", "smoothness"],
            ModelFamily::GneitingSpaceTime => &[
                "variance",
                "range-space",
                "smoothness-space",
                "range-time",
                "smoothness-time",
                "nonsep-param",
            ],
        }
    }

    /// Per-parameter transforms to unconstrained optimizer space.
    pub fn transforms(self) -> Vec<ParamTransform> {
        match self {
            ModelFamily::MaternSpace => vec![
                ParamTransform::LogPositive,
                ParamTransform::LogPositive,
                ParamTransform::LogPositive,
            ],
            ModelFamily::GneitingSpaceTime => vec![
                ParamTransform::LogPositive,
                ParamTransform::LogPositive,
                ParamTransform::LogPositive,
                ParamTransform::LogPositive,
                // α ∈ (0,1] and β ∈ [0,1] live on the unit interval.
                ParamTransform::LogitUnit,
                ParamTransform::LogitUnit,
            ],
        }
    }

    /// `Err` unless [`kernel`](ModelFamily::kernel) accepts `theta`: the
    /// conditions its constructors assert, as a message naming the
    /// offending parameter. Every boundary that takes θ from outside the
    /// program (CLI flags, the server's `load`) calls this first.
    pub fn check_domain(self, theta: &[f64]) -> Result<(), String> {
        let names = self.param_names();
        if theta.len() != names.len() {
            return Err(format!(
                "expects {} values for this kernel, got {}",
                names.len(),
                theta.len()
            ));
        }
        for (idx, (&value, name)) in theta.iter().zip(names).enumerate() {
            // Gneiting's non-separability β lives on [0, 1]; every other
            // parameter (variances, ranges, smoothnesses) is positive.
            let (ok, domain) = if self == ModelFamily::GneitingSpaceTime && idx == 5 {
                ((0.0..=1.0).contains(&value), "in [0, 1]")
            } else {
                (value > 0.0, "> 0")
            };
            if !ok {
                return Err(format!("expects {name} {domain}, got {value}"));
            }
        }
        Ok(())
    }

    /// Build the kernel for a (natural-space) parameter vector that passes
    /// [`check_domain`](ModelFamily::check_domain); panics otherwise.
    pub fn kernel(self, theta: &[f64]) -> Box<dyn CovarianceKernel> {
        assert_eq!(theta.len(), self.n_params());
        match self {
            ModelFamily::MaternSpace => {
                Box::new(Matern::new(MaternParams::new(theta[0], theta[1], theta[2])))
            }
            ModelFamily::GneitingSpaceTime => Box::new(GneitingSpaceTime::new(
                SpaceTimeParams::new(theta[0], theta[1], theta[2], theta[3], theta[4], theta[5]),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xgs_covariance::Location;

    #[test]
    fn matern_kernel_roundtrip() {
        let k = ModelFamily::MaternSpace.kernel(&[1.5, 0.2, 0.7]);
        assert_eq!(k.n_params(), 3);
        assert!((k.variance() - 1.5).abs() < 1e-15);
        let a = Location::new(0.1, 0.1);
        let b = Location::new(0.3, 0.4);
        assert!(k.cov(&a, &b) > 0.0 && k.cov(&a, &b) < 1.5);
    }

    #[test]
    fn spacetime_kernel_roundtrip() {
        let k = ModelFamily::GneitingSpaceTime.kernel(&[1.0, 0.5, 1.0, 0.3, 0.9, 0.2]);
        assert_eq!(k.n_params(), 6);
        let a = Location::new_st(0.1, 0.1, 1.0);
        let b = Location::new_st(0.2, 0.2, 3.0);
        assert!(k.cov(&a, &b) > 0.0);
    }

    #[test]
    fn check_domain_is_exactly_what_kernel_asserts() {
        let (m, g) = (ModelFamily::MaternSpace, ModelFamily::GneitingSpaceTime);
        let good = [1.0, 0.5, 1.0, 0.3, 0.9, 0.2];
        assert_eq!(m.check_domain(&good[..3]), Ok(()));
        assert_eq!(g.check_domain(&good), Ok(()));
        for beta in [0.0, 1.0] {
            let mut theta = good;
            theta[5] = beta;
            assert_eq!(g.check_domain(&theta), Ok(()));
        }
        assert!(m.check_domain(&good[..2]).unwrap_err().contains("3 values"));
        for (idx, bad) in [
            (0, -1.0),
            (1, 0.0),
            (2, f64::NAN),
            (4, -0.5),
            (5, 1.5),
            (5, -0.1),
        ] {
            let mut theta = good;
            theta[idx] = bad;
            let err = g.check_domain(&theta).unwrap_err();
            assert!(err.contains(g.param_names()[idx]), "{err}");
            assert!(std::panic::catch_unwind(|| g.kernel(&theta)).is_err());
            if idx < 3 {
                let err = m.check_domain(&theta[..3]).unwrap_err();
                assert!(err.contains(m.param_names()[idx]), "{err}");
            }
        }
    }

    #[test]
    fn names_align_with_dimensions() {
        for fam in [ModelFamily::MaternSpace, ModelFamily::GneitingSpaceTime] {
            assert_eq!(fam.param_names().len(), fam.n_params());
            assert_eq!(fam.transforms().len(), fam.n_params());
        }
    }
}
