//! Modified Bessel function of the second kind `K_nu(x)` for real order
//! `nu >= 0`, plus the log-gamma function it needs.
//!
//! Algorithm: Temme's power series for small arguments (`x <= 2`) and the
//! Steed/Thompson–Barnett continued fraction CF2 for large arguments, with
//! upward recurrence from the fractional order `|mu| <= 1/2` — the classical
//! scheme (cf. Numerical Recipes `bessik`), reimplemented from the formulas.
//! Accuracy is ~1e-13 relative over the ranges the Matérn kernel uses, and
//! the test suite cross-checks against the integral representation
//! `K_nu(x) = ∫_0^∞ exp(-x cosh t) cosh(nu t) dt`.
//!
//! [`bessel_k`] is the scalar reference. Covariance assembly does not call
//! it per entry: [`crate::matern::MaternCorrelation`] hoists the per-order
//! pieces (`Temme`, `split_order`, `recur_up`) and reads the `x > 2` range
//! from a table that `steed_cf2` fills once per order.

const EPS: f64 = 1e-16;
/// Temme's terms fall like `(x/2)^{2i} / (i!)²`: 13 iterations at `x = 2`,
/// fewer below.
const TEMME_MAX_ITER: usize = 32;
/// CF2 needs the most iterations just above `x = 2` — 81 there, for every
/// `|mu| <= 1/2` — and fewer as `x` grows.
const CF2_MAX_ITER: usize = 128;

/// Natural log of the gamma function (Lanczos approximation, g = 7, n = 9),
/// valid for `x > 0` with ~1e-13 relative accuracy.
pub fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients (g = 7).
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.5203681218851,
        -1259.1392167224028,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507343278686905,
        -0.13857109526572012,
        9.984_369_578_019_572e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1-x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Gamma function via [`ln_gamma`].
pub fn gamma(x: f64) -> f64 {
    if x > 0.0 {
        ln_gamma(x).exp()
    } else {
        let pi = std::f64::consts::PI;
        pi / ((pi * x).sin() * ln_gamma(1.0 - x).exp())
    }
}

/// Split `nu = n + mu` with integer `n >= 0` and `|mu| <= 1/2`.
pub(crate) fn split_order(nu: f64) -> (usize, f64) {
    let n = (nu + 0.5).floor() as usize;
    (n, nu - n as f64)
}

/// `n` steps of the upward recurrence `K_{v+1} = K_{v-1} + (2v/x) K_v` from
/// the pair at orders `(mu, mu + 1)`, with `xi2 = 2/x`: returns the value at
/// order `mu + n`. Linear, so it carries any common scaling of the pair.
#[inline]
pub(crate) fn recur_up(mu: f64, n: usize, xi2: f64, mut k_mu: f64, mut k_mu1: f64) -> f64 {
    let mut v = mu;
    for _ in 0..n {
        let next = (v + 1.0) * xi2 * k_mu1 + k_mu;
        k_mu = k_mu1;
        k_mu1 = next;
        v += 1.0;
    }
    k_mu
}

/// `K_nu(x)` for `nu >= 0`, `x > 0`.
///
/// Returns `f64::INFINITY` as `x -> 0+` (the true singular limit) and 0 for
/// very large `x` (underflow).
pub fn bessel_k(nu: f64, x: f64) -> f64 {
    assert!(nu >= 0.0, "order must be nonnegative (K_-nu = K_nu anyway)");
    assert!(x > 0.0, "argument must be positive");

    let (n, mu) = split_order(nu);
    let (k_mu, k_mu1) = if x <= 2.0 {
        Temme::new(mu).series(x)
    } else {
        let (g_mu, g_mu1) = steed_cf2(mu, x);
        let scale = (std::f64::consts::PI / (2.0 * x)).sqrt() * (-x).exp();
        (scale * g_mu, scale * g_mu1)
    };
    recur_up(mu, n, 2.0 / x, k_mu, k_mu1)
}

/// The constants of Temme's series that depend on the order alone, for
/// `|mu| <= 1/2`: `gam1 = (1/Γ(1-mu) - 1/Γ(1+mu)) / (2 mu)` (limit `-γ_E`
/// at 0), `gam2 = (1/Γ(1-mu) + 1/Γ(1+mu)) / 2`, `gampl = 1/Γ(1+mu)`,
/// `gammi = 1/Γ(1-mu)` and `fact = πmu / sin πmu`. Two `Γ` evaluations and
/// a `sin`: a caller evaluating one order many times keeps the struct.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Temme {
    mu: f64,
    fact: f64,
    gam1: f64,
    gam2: f64,
    gampl: f64,
    gammi: f64,
}

impl Temme {
    pub(crate) fn new(mu: f64) -> Temme {
        const EULER: f64 = 0.5772156649015329;
        let pimu = std::f64::consts::PI * mu;
        let fact = if pimu.abs() < EPS {
            1.0
        } else {
            pimu / pimu.sin()
        };
        let gampl = 1.0 / gamma(1.0 + mu);
        let gammi = 1.0 / gamma(1.0 - mu);
        let gam1 = if mu.abs() < 1e-7 {
            // Series: (gammi - gampl)/(2mu) = -γ + O(mu^2); the O(mu^2) term is
            // below 1e-14 here.
            -EULER
        } else {
            (gammi - gampl) / (2.0 * mu)
        };
        let gam2 = 0.5 * (gammi + gampl);
        Temme {
            mu,
            fact,
            gam1,
            gam2,
            gampl,
            gammi,
        }
    }

    /// Temme's series for `K_mu(x)` and `K_{mu+1}(x)`, `0 < x <= 2`. NaN if
    /// the series has not converged within its bound (an `x` far outside
    /// the domain).
    pub(crate) fn series(&self, x: f64) -> (f64, f64) {
        let mu = self.mu;
        let x2 = 0.5 * x;
        let d = -x2.ln();
        let e = mu * d;
        let fact2 = if e.abs() < EPS { 1.0 } else { e.sinh() / e };
        let mut ff = self.fact * (self.gam1 * e.cosh() + self.gam2 * fact2 * d);
        let mut sum = ff;
        let e_exp = e.exp();
        let mut p = 0.5 * e_exp / self.gampl;
        let mut q = 0.5 / (e_exp * self.gammi);
        let mut c = 1.0;
        let dd = x2 * x2;
        let mut sum1 = p;
        for i in 1..=TEMME_MAX_ITER {
            let fi = i as f64;
            ff = (fi * ff + p + q) / (fi * fi - mu * mu);
            c *= dd / fi;
            p /= fi - mu;
            q /= fi + mu;
            let del = c * ff;
            sum += del;
            let del1 = c * (p - fi * ff);
            sum1 += del1;
            if del.abs() < sum.abs() * EPS {
                return (sum, sum1 * 2.0 / x);
            }
        }
        (f64::NAN, f64::NAN)
    }
}

/// Steed's continued fraction CF2 for the *scaled* pair
/// `g_v(x) = sqrt(2x/π) e^x K_v(x)` at `v = mu` and `v = mu + 1`,
/// `|mu| <= 1/2`, `x > 2`. The scaling keeps the pair O(1) however large
/// `x` is (`g_v -> 1`). NaN if the fraction has not converged within its
/// bound (an `x` well below the domain).
pub(crate) fn steed_cf2(mu: f64, x: f64) -> (f64, f64) {
    let mut b = 2.0 * (1.0 + x);
    let mut d = 1.0 / b;
    let mut h = d;
    let mut delh = d;
    let mut q1 = 0.0;
    let mut q2 = 1.0;
    let a1 = 0.25 - mu * mu;
    let mut q = a1;
    let mut c = a1;
    let mut a = -a1;
    let mut s = 1.0 + q * delh;
    for i in 2..=CF2_MAX_ITER {
        let fi = i as f64;
        a -= 2.0 * (fi - 1.0);
        c = -a * c / fi;
        let qnew = (q1 - b * q2) / a;
        q1 = q2;
        q2 = qnew;
        q += c * qnew;
        b += 2.0;
        d = 1.0 / (b + a * d);
        delh *= b * d - 1.0;
        h += delh;
        let dels = q * delh;
        s += dels;
        if (dels / s).abs() < EPS {
            let g_mu = 1.0 / s;
            return (g_mu, g_mu * (mu + x + 0.5 - a1 * h) / x);
        }
    }
    (f64::NAN, f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle: K_nu(x) = ∫_0^∞ exp(-x cosh t) cosh(nu t) dt by adaptive-ish
    /// fixed-step Simpson on [0, T] with T chosen so the tail is negligible.
    fn bessel_k_quadrature(nu: f64, x: f64) -> f64 {
        // exp(-x cosh T) decays doubly-exponentially; T = 30/x^(1/3)+5 is
        // overkill for the ranges tested.
        let t_max = (700.0f64 / x).max(4.0).ln().max(2.0) + 6.0;
        let steps = 400_000;
        let h = t_max / steps as f64;
        let f = |t: f64| (-x * t.cosh()).exp() * (nu * t).cosh();
        let mut s = f(0.0) + f(t_max);
        for i in 1..steps {
            let t = i as f64 * h;
            s += f(t) * if i % 2 == 1 { 4.0 } else { 2.0 };
        }
        s * h / 3.0
    }

    #[test]
    fn half_integer_closed_forms() {
        // K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
        for &x in &[0.1, 0.5, 1.0, 2.0, 5.0, 20.0] {
            let expect = (std::f64::consts::PI / (2.0 * x)).sqrt() * (-x).exp();
            let got = bessel_k(0.5, x);
            assert!(
                ((got - expect) / expect).abs() < 1e-12,
                "x={x}: {got} vs {expect}"
            );
        }
        // K_{3/2}(x) = sqrt(pi/(2x)) e^{-x} (1 + 1/x)
        for &x in &[0.3, 1.0, 3.0, 10.0] {
            let expect = (std::f64::consts::PI / (2.0 * x)).sqrt() * (-x).exp() * (1.0 + 1.0 / x);
            let got = bessel_k(1.5, x);
            assert!(((got - expect) / expect).abs() < 1e-12, "x={x}");
        }
        // K_{5/2}(x) = sqrt(pi/(2x)) e^{-x} (1 + 3/x + 3/x^2)
        for &x in &[0.7, 2.0, 8.0] {
            let expect = (std::f64::consts::PI / (2.0 * x)).sqrt()
                * (-x).exp()
                * (1.0 + 3.0 / x + 3.0 / (x * x));
            let got = bessel_k(2.5, x);
            assert!(((got - expect) / expect).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn known_integer_order_values() {
        // Reference values (Abramowitz & Stegun / standard tables).
        let cases = [
            (0.0, 1.0, 0.421_024_438_240_708_4),
            (1.0, 1.0, 0.6019072301972346),
            (0.0, 0.1, 2.427_069_024_702_017),
            (1.0, 0.1, 9.853844780870606),
            (0.0, 5.0, 0.003691098334042594),
            (2.0, 3.0, 0.06151045847174205),
        ];
        for (nu, x, expect) in cases {
            let got = bessel_k(nu, x);
            assert!(
                ((got - expect) / expect).abs() < 1e-10,
                "K_{nu}({x}) = {got}, expected {expect}"
            );
        }
    }

    #[test]
    fn fractional_orders_match_integral_representation() {
        for &nu in &[0.17f64, 0.44, 0.73, 1.3, 2.8, 4.6] {
            for &x in &[0.2f64, 0.9, 1.9, 2.5, 6.0] {
                let got = bessel_k(nu, x);
                let oracle = bessel_k_quadrature(nu, x);
                assert!(
                    ((got - oracle) / oracle).abs() < 1e-7,
                    "K_{nu}({x}) = {got}, quadrature {oracle}"
                );
            }
        }
    }

    #[test]
    fn recurrence_identity_holds() {
        // K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x)
        for &nu in &[1.0f64, 1.37, 2.5, 3.9] {
            for &x in &[0.5f64, 1.5, 4.0, 12.0] {
                let lhs = bessel_k(nu + 1.0, x);
                let rhs = bessel_k(nu - 1.0, x) + 2.0 * nu / x * bessel_k(nu, x);
                assert!(((lhs - rhs) / lhs).abs() < 1e-10, "nu={nu} x={x}");
            }
        }
    }

    #[test]
    fn monotone_decreasing_in_x() {
        for &nu in &[0.0f64, 0.5, 1.7] {
            let mut prev = bessel_k(nu, 0.05);
            let mut x = 0.1;
            while x < 20.0 {
                let cur = bessel_k(nu, x);
                assert!(cur < prev, "K_{nu} must decrease: K({x}) = {cur} >= {prev}");
                prev = cur;
                x *= 1.5;
            }
        }
    }

    #[test]
    fn increasing_in_order() {
        for &x in &[0.3f64, 1.0, 3.0] {
            assert!(bessel_k(1.0, x) > bessel_k(0.5, x));
            assert!(bessel_k(2.0, x) > bessel_k(1.0, x));
        }
    }

    #[test]
    fn ln_gamma_known_values() {
        assert!((ln_gamma(1.0)).abs() < 1e-13);
        assert!((ln_gamma(2.0)).abs() < 1e-13);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-12);
        assert!((ln_gamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-13);
        // Γ(1/3) = 2.678938534707747
        assert!((gamma(1.0 / 3.0) - 2.678938534707747).abs() < 1e-12);
    }

    #[test]
    fn both_expansions_converge_within_their_bounds_over_their_domains() {
        // Non-convergence is NaN (in release too), so finite here is the
        // statement that the iteration bounds cover the domains.
        for i in 0..=200 {
            let mu = -0.5 + i as f64 / 200.0;
            let temme = Temme::new(mu);
            for j in 0..400 {
                // x in (2, 1e3], densest just above 2 where CF2 is slowest.
                let x = 2.0 + 998.0 * ((j + 1) as f64 / 400.0).powi(6);
                let (g, g1) = steed_cf2(mu, x);
                assert!(g.is_finite() && g1.is_finite(), "CF2 mu={mu} x={x}");
                // x in (0, 2], down to 1e-150 (K_{mu+1} ~ x^{-3/2} overflows
                // not far below).
                let x = 2.0 * 10f64.powf(-150.0 * j as f64 / 400.0);
                let (k, k1) = temme.series(x);
                assert!(k.is_finite() && k1.is_finite(), "Temme mu={mu} x={x}");
            }
            let next_up = f64::from_bits(2.0f64.to_bits() + 1);
            assert!(steed_cf2(mu, next_up).0.is_finite(), "CF2 mu={mu} at 2+ulp");
        }
    }

    #[test]
    fn non_convergence_is_nan_not_a_half_summed_value() {
        // Far outside their domains both expansions need more iterations
        // than their bounds allow.
        for (k, k1) in [steed_cf2(0.3, 0.05), Temme::new(0.3).series(60.0)] {
            assert!(k.is_nan() && k1.is_nan(), "{k}, {k1}");
        }
    }

    #[test]
    fn small_x_singularity_grows() {
        assert!(bessel_k(0.0, 1e-8) > 17.0); // ~ -ln(x/2) - gamma
        assert!(bessel_k(1.0, 1e-6) > 9.0e5); // ~ 1/x
    }
}
