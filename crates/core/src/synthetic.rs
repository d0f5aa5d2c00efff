//! Synthetic Gaussian random field simulation.
//!
//! `Z = L ε` with `Σ = L Lᵀ` and `ε ~ N(0, I)` — the exact sampler
//! ExaGeoStat uses for its synthetic datasets (paper §VII-A: "These sets of
//! parameters combinations have been used to generate synthetic datasets
//! using the ExaGeoStat software"). Exact dense Cholesky is fine at the
//! scales we materialize (the sampler is not the bottleneck under study).
//! [`sites`] is the one site set every synthetic dataset is drawn at.

use crate::model::ModelFamily;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xgs_covariance::{
    covariance_matrix, jittered_grid, morton_order, spacetime_grid, CovarianceKernel, Location,
};
use xgs_linalg::cholesky_in_place;

/// `n` synthetic sites, deterministic in `seed`: a jittered grid on the
/// unit square (for the space-time family, `n / slots` spatial sites
/// replicated over `slots` time slots and cut to `n`; the spatial family
/// ignores `slots`), scaled to a `domain`-wide square, then Morton-ordered.
/// A wide domain keeps the paper's domain-to-range ratio at demo scale
/// (see `PipelineConfig::domain_size`).
pub fn sites(family: ModelFamily, n: usize, slots: usize, domain: f64, seed: u64) -> Vec<Location> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut locs = match family {
        ModelFamily::MaternSpace => jittered_grid(n, &mut rng),
        ModelFamily::GneitingSpaceTime => {
            let slots = slots.max(1);
            let mut st = spacetime_grid(&jittered_grid(n.div_ceil(slots), &mut rng), slots);
            st.truncate(n);
            st
        }
    };
    for l in &mut locs {
        l.x *= domain;
        l.y *= domain;
    }
    morton_order(&mut locs);
    locs
}

/// Draw one field realization at `locs` under `kernel`, deterministic in
/// `seed`.
#[allow(clippy::needless_range_loop)]
pub fn simulate_field(kernel: &dyn CovarianceKernel, locs: &[Location], seed: u64) -> Vec<f64> {
    let n = locs.len();
    let mut c = covariance_matrix(kernel, locs);
    cholesky_in_place(&mut c).expect("covariance must be SPD for simulation");
    let mut rng = StdRng::seed_from_u64(seed);
    let eps: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
    // z = L * eps (lower triangular product).
    let mut z = vec![0.0; n];
    for j in 0..n {
        let ej = eps[j];
        if ej == 0.0 {
            continue;
        }
        let col = c.col(j);
        for (i, zi) in z.iter_mut().enumerate().skip(j) {
            *zi += col[i] * ej;
        }
    }
    z
}

/// `reps` independent realizations (seeds `seed..seed+reps`).
#[allow(clippy::needless_range_loop)]
pub fn simulate_fields(
    kernel: &dyn CovarianceKernel,
    locs: &[Location],
    seed: u64,
    reps: usize,
) -> Vec<Vec<f64>> {
    // Factor once, sample many.
    let n = locs.len();
    let mut c = covariance_matrix(kernel, locs);
    cholesky_in_place(&mut c).expect("covariance must be SPD for simulation");
    (0..reps)
        .map(|r| {
            let mut rng = StdRng::seed_from_u64(seed + r as u64);
            let eps: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
            let mut z = vec![0.0; n];
            for j in 0..n {
                let ej = eps[j];
                if ej == 0.0 {
                    continue;
                }
                let col = c.col(j);
                for (i, zi) in z.iter_mut().enumerate().skip(j) {
                    *zi += col[i] * ej;
                }
            }
            z
        })
        .collect()
}

/// Box–Muller standard normal.
pub fn standard_normal<R: rand::Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.random_range(0.0..1.0);
        let u2: f64 = rng.random_range(0.0..1.0);
        if u1 > 1e-300 {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use xgs_covariance::{jittered_grid, morton_order, Matern, MaternParams};

    fn locs(n: usize) -> Vec<Location> {
        let mut rng = StdRng::seed_from_u64(31);
        let mut l = jittered_grid(n, &mut rng);
        morton_order(&mut l);
        l
    }

    /// `sites` draws exactly the sites the CLI, the pipeline and the paper
    /// jobs drew before it was shared: the bits below were written by
    /// `simulate --n 6 --domain 3 --seed 4` and by `simulate --kernel
    /// gneiting --n 7 --slots 3 --domain 2 --seed 4` ahead of the change.
    #[test]
    fn sites_are_pinned_for_both_families() {
        let bits = |locs: Vec<Location>| -> Vec<[u64; 3]> {
            let bits = |l: &Location| [l.x.to_bits(), l.y.to_bits(), l.t.to_bits()];
            locs.iter().map(bits).collect()
        };
        let matern = vec![
            [0x3fe498d8b875775e, 0x3fe2b7d4e2dc00ec, 0],
            [0x3ff9cceeda6a87de, 0x3febbf7daccbae9b, 0],
            [0x3ff6f944c4025281, 0x3ff3ece9b241cdf8, 0],
            [0x3fd343f04c4ef716, 0x3ffae3397acd146e, 0],
            [0x3fccd8636075e77c, 0x4005adaa5e563a06, 0],
            [0x3ff42d5a66c1443a, 0x40058e74112bc234, 0],
        ];
        assert_eq!(bits(sites(ModelFamily::MaternSpace, 6, 3, 3.0, 4)), matern);
        // Three spatial sites over slots t = 1, 2, 3, cut to seven.
        let [a, b, c] = [
            [0x3fe498d8b875775e, 0x3fe2b7d4e2dc00ec],
            [0x3ff39b0c6c0ebcf0, 0x3fe6b6a97958e81a],
            [0x3fd343f04c4ef716, 0x3ffae3397acd146d],
        ];
        let [t1, t2, t3] = [1f64, 2.0, 3.0].map(f64::to_bits);
        let gneiting = vec![
            [a[0], a[1], t1],
            [a[0], a[1], t2],
            [b[0], b[1], t1],
            [b[0], b[1], t2],
            [c[0], c[1], t1],
            [c[0], c[1], t2],
            [a[0], a[1], t3],
        ];
        let st = sites(ModelFamily::GneitingSpaceTime, 7, 3, 2.0, 4);
        assert_eq!(bits(st), gneiting);
    }

    #[test]
    fn deterministic_in_seed() {
        let kernel = Matern::new(MaternParams::new(1.0, 0.1, 0.5));
        let ls = locs(100);
        let a = simulate_field(&kernel, &ls, 7);
        let b = simulate_field(&kernel, &ls, 7);
        let c = simulate_field(&kernel, &ls, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn marginal_variance_is_sigma2() {
        // Average sample variance across many reps approaches sigma^2.
        let sigma2 = 2.0;
        let kernel = Matern::new(MaternParams::new(sigma2, 0.05, 0.5));
        let ls = locs(150);
        let fields = simulate_fields(&kernel, &ls, 1, 60);
        let mut total = 0.0;
        let mut count = 0usize;
        for f in &fields {
            for &v in f {
                total += v * v;
                count += 1;
            }
        }
        let var = total / count as f64;
        assert!(
            (var - sigma2).abs() < 0.25 * sigma2,
            "sample variance {var} vs {sigma2}"
        );
    }

    #[test]
    fn nearby_points_are_correlated() {
        // With a long range the field must be smooth: neighbour differences
        // much smaller than the marginal spread.
        let kernel = Matern::new(MaternParams::new(1.0, 0.5, 1.5));
        let ls = locs(200);
        let fields = simulate_fields(&kernel, &ls, 3, 20);
        let mut diff = 0.0;
        let mut marg = 0.0;
        for f in &fields {
            for w in f.windows(2) {
                diff += (w[1] - w[0]).powi(2);
            }
            for &v in f {
                marg += v * v;
            }
        }
        // Morton-adjacent points are spatially adjacent.
        assert!(diff / marg < 0.2, "field not smooth: ratio {}", diff / marg);
    }

    #[test]
    fn fields_are_independent_across_reps() {
        let kernel = Matern::new(MaternParams::new(1.0, 0.1, 0.5));
        let ls = locs(120);
        let fields = simulate_fields(&kernel, &ls, 11, 2);
        // Cross-correlation of two independent reps should be small.
        let n = ls.len() as f64;
        let dot: f64 = fields[0].iter().zip(&fields[1]).map(|(a, b)| a * b).sum();
        let n0: f64 = fields[0].iter().map(|x| x * x).sum::<f64>().sqrt();
        let n1: f64 = fields[1].iter().map(|x| x * x).sum::<f64>().sqrt();
        let corr = dot / (n0 * n1);
        assert!(corr.abs() < 3.5 / n.sqrt() * 3.0, "cross-corr {corr}");
    }
}
