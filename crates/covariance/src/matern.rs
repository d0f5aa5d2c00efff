//! The Matérn covariance family (paper §IV-A.3).
//!
//! Parametrized ExaGeoStat-style as `θ = (σ², a, ν)`: variance, spatial
//! range, and smoothness, with
//! `C(r) = σ² · 2^{1-ν}/Γ(ν) · (r/a)^ν · K_ν(r/a)` and `C(0) = σ²`.

use crate::bessel::{bessel_k, ln_gamma, recur_up, split_order, steed_cf2, Temme};
use std::f64::consts::{FRAC_PI_2, LN_2, PI};

/// Matérn parameter vector `θ = (σ², a, ν)` — the three parameters the
/// paper's Fig. 6 boxplots and Table I estimate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MaternParams {
    /// Variance `σ² = θ_0 > 0`.
    pub sigma2: f64,
    /// Spatial range `a = θ_1 > 0` (the paper's weak/medium/strong
    /// correlations are `a = 0.03 / 0.1 / 0.3` on the unit square).
    pub range: f64,
    /// Smoothness `ν = θ_2 > 0` (field is `⌈ν⌉-1` times differentiable).
    pub smoothness: f64,
}

impl MaternParams {
    pub fn new(sigma2: f64, range: f64, smoothness: f64) -> MaternParams {
        assert!(sigma2 > 0.0 && range > 0.0 && smoothness > 0.0);
        MaternParams {
            sigma2,
            range,
            smoothness,
        }
    }

    /// As a flat vector for the optimizer.
    pub fn to_vec(self) -> Vec<f64> {
        vec![self.sigma2, self.range, self.smoothness]
    }

    pub fn from_slice(v: &[f64]) -> MaternParams {
        MaternParams::new(v[0], v[1], v[2])
    }
}

/// `ln(2^{1-ν}/Γ(ν))`, the Matérn normalization.
fn ln_coef(nu: f64) -> f64 {
    (1.0 - nu) * LN_2 - ln_gamma(nu)
}

/// `2^{1-ν}/Γ(ν) · t^ν · k` for `k = K_ν(t) > 0`. Where `K_ν` overflows
/// (`t^ν` below 1e-308) the product is at its `t → 0` limit, 1.
#[inline]
fn normalize(ln_coef: f64, nu: f64, t: f64, k: f64) -> f64 {
    if k == f64::INFINITY {
        return 1.0;
    }
    (ln_coef + nu * t.ln()).exp() * k
}

/// The classical closed forms at `ν ∈ {1/2, 3/2, 5/2}`, `None` elsewhere.
#[inline]
fn half_integer_form(nu: f64, t: f64) -> Option<f64> {
    if nu == 0.5 {
        Some((-t).exp())
    } else if nu == 1.5 {
        Some((1.0 + t) * (-t).exp())
    } else if nu == 2.5 {
        Some((1.0 + t + t * t / 3.0) * (-t).exp())
    } else {
        None
    }
}

/// The Matérn *correlation* `M_ν(t)` for normalized distance `t = r/a`
/// (so `M_ν(0) = 1`). Closed forms for half-integer ν, Bessel otherwise.
///
/// The scalar reference: every call pays for `ln Γ(ν)` and a full
/// [`bessel_k`]. Kernels evaluate through [`MaternCorrelation`], which the
/// tests hold against this function.
pub fn matern_correlation(nu: f64, t: f64) -> f64 {
    debug_assert!(nu > 0.0);
    if t == 0.0 {
        return 1.0;
    }
    if !(0.0..f64::INFINITY).contains(&t) {
        return f64::NAN;
    }
    if let Some(c) = half_integer_form(nu, t) {
        return c;
    }
    let k = bessel_k(nu, t);
    if k == 0.0 {
        // K_nu underflows around t ~ 700 (and t^nu may overflow far beyond).
        return 0.0;
    }
    normalize(ln_coef(nu), nu, t, k)
}

/// Panels of the scaled-`K` table: `t ∈ [2^k, 2^{k+1})` for `k = 1..=6`,
/// then `[128, ∞)` — in `u = 1/t`, six octaves below `1/2` and `(0, 1/128]`.
const PANELS: usize = 7;
/// Polynomial coefficients per panel. The tabulated function is analytic
/// on `u > 0` and its expansion at `u = 0` is asymptotic, so an octave
/// needs few: the interpolation error is below 1e-15 from 12 on, and 14
/// leaves the table at the accuracy of the continued fraction that fills
/// it (4e-15 relative).
const COEFS: usize = 14;
// `poly` pairs the coefficients off into an even and an odd chain.
const _: () = assert!(COEFS.is_multiple_of(2));
/// `y = u · Y_SCALE[p] − Y_SHIFT[p]` maps panel `p` onto `[-1, 1]`.
const Y_SCALE: [f64; PANELS] = [8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 256.0];
const Y_SHIFT: [f64; PANELS] = [3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 1.0];

/// Degree-`COEFS − 1` polynomial in `y`, even and odd powers as two
/// Horner chains so that neither waits on the other.
#[inline]
fn poly(a: &[f64; COEFS], y: f64) -> f64 {
    let y2 = y * y;
    let mut even = a[COEFS - 2];
    let mut odd = a[COEFS - 1];
    for k in (0..COEFS - 2).step_by(2).rev() {
        even = even * y2 + a[k];
        odd = odd * y2 + a[k + 1];
    }
    even + y * odd
}

/// Power-basis coefficients of the polynomial through `f` at the `COEFS`
/// Chebyshev nodes `y_j = cos(π(j+½)/COEFS)`: the Chebyshev coefficients by
/// the discrete cosine sum, then each `T_k` expanded by its recurrence.
/// (The tabulated functions' Chebyshev coefficients fall by more than 5×
/// per degree, so the power basis loses nothing against Clenshaw here —
/// the evaluator tests hold the result to the noise of CF2 itself.)
fn interpolate(f: &[f64; COEFS]) -> [f64; COEFS] {
    let cheb: [f64; COEFS] = std::array::from_fn(|k| {
        let sum: f64 = f
            .iter()
            .enumerate()
            .map(|(j, fj)| fj * (k as f64 * PI * (j as f64 + 0.5) / COEFS as f64).cos())
            .sum();
        sum * if k == 0 { 1.0 } else { 2.0 } / COEFS as f64
    });
    let mut power = [0.0; COEFS];
    // Power-basis coefficients of T_{k-1} and T_k, from T_0 = 1.
    let mut t_prev = [0.0; COEFS];
    let mut t_cur = [0.0; COEFS];
    t_cur[0] = 1.0;
    for (k, c_k) in cheb.iter().enumerate() {
        for (p, t) in power.iter_mut().zip(&t_cur) {
            *p += c_k * t;
        }
        // T_{k+1} = 2y T_k − T_{k-1}, except T_1 = y T_0.
        let mut t_next = [0.0; COEFS];
        for j in 1..COEFS {
            t_next[j] = if k == 0 { 1.0 } else { 2.0 } * t_cur[j - 1] - t_prev[j];
        }
        t_next[0] = -t_prev[0];
        t_prev = t_cur;
        t_cur = t_next;
    }
    power
}

/// The general-ν half of [`MaternCorrelation`]: everything that depends on
/// ν alone.
#[derive(Clone, Copy, Debug)]
struct General {
    /// `ν = n + mu`, `|mu| ≤ 1/2`.
    n: usize,
    mu: f64,
    /// `ln(2^{1-ν}/Γ(ν))`, and the same plus `½ln(π/2)` for the scaled form.
    ln_coef: f64,
    ln_coef_scaled: f64,
    temme: Temme,
    /// `[panel][0 | 1]`: the scaled pair `g_v(t) = sqrt(2t/π) e^t K_v(t)` at
    /// `v = mu` and `v = mu + 1` as polynomials in the panel's `y`.
    table: [[[f64; COEFS]; 2]; PANELS],
}

impl General {
    fn new(nu: f64) -> General {
        let (n, mu) = split_order(nu);
        let mut table = [[[0.0; COEFS]; 2]; PANELS];
        for (p, pair) in table.iter_mut().enumerate() {
            let mut g_mu = [0.0; COEFS];
            let mut g_mu1 = [0.0; COEFS];
            for j in 0..COEFS {
                let y = (PI * (j as f64 + 0.5) / COEFS as f64).cos();
                let u = (y + Y_SHIFT[p]) / Y_SCALE[p];
                (g_mu[j], g_mu1[j]) = steed_cf2(mu, 1.0 / u);
            }
            *pair = [interpolate(&g_mu), interpolate(&g_mu1)];
        }
        let ln_coef = ln_coef(nu);
        General {
            n,
            mu,
            ln_coef,
            ln_coef_scaled: ln_coef + 0.5 * FRAC_PI_2.ln(),
            temme: Temme::new(mu),
            table,
        }
    }

    /// `K_ν(t)` for `0 < t ≤ 2`: [`bessel_k`]'s arithmetic with the order's
    /// constants already in hand.
    #[inline]
    fn k_near(&self, t: f64) -> f64 {
        let (k_mu, k_mu1) = self.temme.series(t);
        recur_up(self.mu, self.n, 2.0 / t, k_mu, k_mu1)
    }

    /// `g_ν(t)` for finite `t > 2`, from the table.
    #[inline]
    fn g_far(&self, t: f64) -> f64 {
        let u = 1.0 / t;
        // The binary exponent of t picks the panel.
        let p = ((t.to_bits() >> 52) as usize - 1023).min(PANELS) - 1;
        let y = u * Y_SCALE[p] - Y_SHIFT[p];
        let [g_mu, g_mu1] = &self.table[p];
        if self.n == 0 {
            poly(g_mu, y)
        } else {
            recur_up(self.mu, self.n, 2.0 * u, poly(g_mu, y), poly(g_mu1, y))
        }
    }
}

/// The Matérn correlation `M_ν(t) = 2^{1-ν}/Γ(ν) · t^ν K_ν(t)` at one fixed
/// ν, with everything that depends on ν alone computed once in [`new`] —
/// what a kernel holds, since assembly evaluates `O(n²)` entries per θ.
///
/// * `ν ∈ {1/2, 3/2, 5/2}`: the closed forms.
/// * `t ≤ 2`: Temme's series with its gammas cached — [`matern_correlation`]
///   bit for bit.
/// * `t > 2`: `exp(ln_coef + ½ln(π/2) + (ν−½)ln t − t) · g_ν(t)` with the
///   scaled `g_v(t) = sqrt(2t/π) e^t K_v(t)` read from a table — per
///   octave of `t`, a degree-13 polynomial in `1/t` through Steed's CF2 at
///   the Chebyshev nodes, for the fractional orders `mu` and `mu + 1`, with
///   the upward recurrence to `ν = mu + n` done per entry. One `ln`, one
///   `exp`, two short Horner chains; no continued fraction per entry.
///
/// Agrees with [`matern_correlation`] to 1e-13 relative (the accuracy
/// [`crate::bessel`] documents; the table itself holds 4e-15 against CF2).
/// Building the table costs ~100 CF2 evaluations, 50–100 µs, once per θ;
/// it is 1.6 KB.
///
/// [`new`]: MaternCorrelation::new
#[derive(Clone, Copy, Debug)]
pub struct MaternCorrelation {
    nu: f64,
    /// `None` at the closed-form orders.
    general: Option<General>,
}

impl MaternCorrelation {
    pub fn new(nu: f64) -> MaternCorrelation {
        assert!(nu > 0.0, "smoothness must be positive");
        let general = half_integer_form(nu, 1.0)
            .is_none()
            .then(|| General::new(nu));
        MaternCorrelation { nu, general }
    }

    /// `M_ν(t)`: 1 at `t = 0`, NaN for a negative or non-finite `t`, 0 once
    /// it underflows.
    #[inline]
    pub fn eval(&self, t: f64) -> f64 {
        if t == 0.0 {
            return 1.0;
        }
        if !(0.0..f64::INFINITY).contains(&t) {
            return f64::NAN;
        }
        let Some(g) = &self.general else {
            return half_integer_form(self.nu, t).expect("no table only at a closed-form order");
        };
        if t <= 2.0 {
            normalize(g.ln_coef, self.nu, t, g.k_near(t))
        } else {
            (g.ln_coef_scaled + (self.nu - 0.5) * t.ln() - t).exp() * g.g_far(t)
        }
    }
}

/// A concrete Matérn kernel over 2D Euclidean distance.
#[derive(Clone, Copy, Debug)]
pub struct Matern {
    pub params: MaternParams,
    corr: MaternCorrelation,
}

impl Matern {
    pub fn new(params: MaternParams) -> Matern {
        Matern {
            params,
            corr: MaternCorrelation::new(params.smoothness),
        }
    }

    /// Covariance at Euclidean distance `r` (NaN for a NaN distance).
    #[inline]
    pub fn cov_at_distance(&self, r: f64) -> f64 {
        self.params.sigma2 * self.corr.eval(r / self.params.range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correlation_is_one_at_zero_and_decays() {
        for &nu in &[0.3f64, 0.5, 1.0, 1.5, 2.5, 3.7] {
            assert_eq!(matern_correlation(nu, 0.0), 1.0);
            let mut prev = 1.0;
            for i in 1..60 {
                let t = i as f64 * 0.25;
                let c = matern_correlation(nu, t);
                assert!(c > 0.0 && c < prev, "nu={nu} t={t}: {c} !< {prev}");
                prev = c;
            }
        }
    }

    #[test]
    fn closed_forms_match_bessel_path() {
        // Evaluate the generic Bessel formula at ν slightly off the
        // half-integers and check continuity with the fast paths.
        for &(nu, _) in &[(0.5f64, ()), (1.5, ()), (2.5, ())] {
            for &t in &[0.1f64, 0.7, 2.0, 5.0] {
                let exact = matern_correlation(nu, t);
                let generic = {
                    // Bypass the fast path by nudging nu by 1e-9.
                    matern_correlation(nu + 1e-9, t)
                };
                assert!(
                    (exact - generic).abs() < 1e-6,
                    "nu={nu} t={t}: {exact} vs {generic}"
                );
            }
        }
    }

    #[test]
    fn smoother_fields_have_heavier_near_origin_correlation() {
        // At small t, larger ν keeps correlation closer to 1.
        let t = 0.3;
        let c1 = matern_correlation(0.5, t);
        let c2 = matern_correlation(1.5, t);
        let c3 = matern_correlation(2.5, t);
        assert!(c1 < c2 && c2 < c3);
    }

    #[test]
    fn underflow_far_field_is_zero_not_nan() {
        let c = matern_correlation(0.8, 1.0e4);
        assert!((0.0..1e-300).contains(&c));
        assert!(!c.is_nan());
    }

    /// The orders the evaluator tests sweep: both signs of `mu`, `n` from 0
    /// to 30.
    const ORDERS: [f64; 8] = [0.17, 0.44, 0.73, 1.3, 2.8, 4.6, 10.0, 30.0];

    fn ulp_neighbours(t: f64) -> [f64; 3] {
        [
            f64::from_bits(t.to_bits() - 1),
            t,
            f64::from_bits(t.to_bits() + 1),
        ]
    }

    /// `t = 2` and every panel edge of the table.
    fn seams() -> impl Iterator<Item = f64> {
        (1..=PANELS as i32).map(|k| 2f64.powi(k))
    }

    #[test]
    fn evaluator_agrees_with_the_untabulated_reference() {
        // Log-spaced over (0, 1e3], plus each seam and its ulp neighbours.
        let grid = (0..=4000).map(|i| 10f64.powf(-9.0 + 12.0 * i as f64 / 4000.0));
        let ts: Vec<f64> = grid.chain(seams().flat_map(ulp_neighbours)).collect();
        for nu in ORDERS {
            let eval = MaternCorrelation::new(nu);
            for &t in &ts {
                let want = matern_correlation(nu, t);
                let got = eval.eval(t);
                // Past t ~ 704 the reference's K_mu seed is subnormal and its
                // recurrence amplifies that; the evaluator's scaled pair is not.
                if want >= f64::MIN_POSITIVE && t <= 700.0 {
                    let rel = ((got - want) / want).abs();
                    assert!(rel <= 1e-13, "nu={nu} t={t}: {got} vs {want} ({rel:e})");
                } else {
                    // Underflow is 0 (or on its way there), not NaN; the
                    // monotonicity test holds the shape out here.
                    assert!((0.0..1e-200).contains(&got), "nu={nu} t={t}: {got}");
                }
            }
        }
    }

    #[test]
    fn evaluator_is_the_reference_bit_for_bit_below_the_table() {
        // Hoisting the order's constants must not change Temme's arithmetic.
        for nu in ORDERS {
            let eval = MaternCorrelation::new(nu);
            let general = eval.general.as_ref().expect("general order");
            for i in 0..=2000 {
                let t = 2.0 * 10f64.powf(-12.0 * i as f64 / 2000.0);
                assert_eq!(general.k_near(t), bessel_k(nu, t), "K_{nu}({t})");
                assert_eq!(eval.eval(t), matern_correlation(nu, t), "M_{nu}({t})");
            }
        }
        for nu in [0.5, 1.5, 2.5] {
            let eval = MaternCorrelation::new(nu);
            assert!(eval.general.is_none());
            for t in [1e-9, 0.3, 2.0, 2.5, 40.0, 900.0] {
                assert_eq!(eval.eval(t), matern_correlation(nu, t));
            }
        }
    }

    #[test]
    fn evaluator_decreases_strictly_through_every_seam() {
        for nu in ORDERS {
            let eval = MaternCorrelation::new(nu);
            // A step of 1e-9 relative moves M by >= 1e-9 relative for t >= 2,
            // four orders above the evaluation noise; one ulp does not, so
            // the ulp neighbours are held between the two.
            for seam in seams() {
                let (above, below) = (
                    eval.eval(seam * (1.0 - 1e-9)),
                    eval.eval(seam * (1.0 + 1e-9)),
                );
                for t in ulp_neighbours(seam) {
                    let c = eval.eval(t);
                    assert!(
                        above > c && c > below,
                        "nu={nu}: {above} > M({t}) = {c} > {below}"
                    );
                }
            }
            // And along a grid fine enough to have points in every panel,
            // from where M has left 1 to where it underflows.
            let mut prev = eval.eval(0.049);
            for i in 0..=3000 {
                let t = 0.05 * 10f64.powf(4.4 * i as f64 / 3000.0);
                let c = eval.eval(t);
                assert!(
                    c < prev || (c == 0.0 && prev == 0.0),
                    "nu={nu} t={t}: {c} !< {prev}"
                );
                prev = c;
            }
            assert_eq!(prev, 0.0, "nu={nu}: underflows by t = 1250");
        }
    }

    #[test]
    fn evaluator_edge_arguments_do_not_panic() {
        let general = Matern::new(MaternParams::new(0.67, 0.17, 0.44));
        let closed = Matern::new(MaternParams::new(1.0, 0.1, 0.5));
        for k in [general, closed] {
            assert!(k.cov_at_distance(f64::NAN).is_nan());
            assert!(k.cov_at_distance(f64::INFINITY).is_nan());
            assert!(k.cov_at_distance(-1.0).is_nan());
            assert_eq!(k.cov_at_distance(0.0), k.params.sigma2);
            assert_eq!(k.cov_at_distance(1e300), 0.0);
        }
        // Where K_nu itself overflows the correlation is at its limit.
        assert_eq!(MaternCorrelation::new(30.0).eval(1e-11), 1.0);
        assert_eq!(matern_correlation(30.0, 1e-11), 1.0);
    }

    #[test]
    fn kernel_scales_by_variance_and_range() {
        let k = Matern::new(MaternParams::new(2.5, 0.1, 0.5));
        assert!((k.cov_at_distance(0.0) - 2.5).abs() < 1e-15);
        // exp decay with range 0.1: C(r) = 2.5 exp(-r/0.1)
        let r = 0.05;
        assert!((k.cov_at_distance(r) - 2.5 * (-0.5f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn params_roundtrip() {
        let p = MaternParams::new(0.67, 0.17, 0.44);
        assert_eq!(MaternParams::from_slice(&p.to_vec()), p);
    }
}
