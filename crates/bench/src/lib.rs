//! Shared helpers for the paper driver (`src/bin/xgs-paper/`, one
//! subcommand per table and figure; see DESIGN.md's experiment index).
//! Speed is measured by the repo benchmark (`examples/benchmark/`), not
//! here.

use rand::rngs::StdRng;
use rand::SeedableRng;
use xgs_covariance::{jittered_grid, morton_order, Location};

/// Write a runtime metrics report as JSON, with a console note.
pub fn write_metrics(path: &str, report: &xgs_runtime::MetricsReport) {
    match std::fs::write(path, report.to_json()) {
        Ok(()) => println!("wrote runtime metrics to {path}"),
        Err(e) => eprintln!("could not write metrics to {path}: {e}"),
    }
}

/// Deterministic Morton-ordered site set, optionally on a widened domain
/// (see `PipelineConfig::domain_size`).
pub fn sites(n: usize, domain: f64, seed: u64) -> Vec<Location> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut locs = jittered_grid(n, &mut rng);
    if domain != 1.0 {
        for l in &mut locs {
            l.x *= domain;
            l.y *= domain;
        }
    }
    morton_order(&mut locs);
    locs
}

/// Column-major random buffer for kernel benchmarks.
pub fn random_buffer(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(0x5851F42D4C957F2D)
                .wrapping_add(0x14057B7EF767814F);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
        .collect()
}

/// Median/quartiles of a sample (for the Fig. 6 boxplot tables).
pub fn quartiles(xs: &mut [f64]) -> (f64, f64, f64) {
    xs.sort_by(|a, b| a.total_cmp(b));
    let q = |f: f64| -> f64 {
        let pos = f * (xs.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let w = pos - lo as f64;
        xs[lo] * (1.0 - w) + xs[hi] * w
    };
    (q(0.25), q(0.5), q(0.75))
}

/// Wall-time a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = std::time::Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Best wall time of three runs of a closure, in seconds.
pub fn best_of_3(mut f: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| timed(&mut f).1)
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_known_sample() {
        let mut xs = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let (q1, q2, q3) = quartiles(&mut xs);
        assert_eq!(q2, 3.0);
        assert_eq!(q1, 2.0);
        assert_eq!(q3, 4.0);
    }

    #[test]
    fn sites_scale_with_domain() {
        let a = sites(100, 1.0, 3);
        let b = sites(100, 5.0, 3);
        let max_a = a.iter().map(|l| l.x.max(l.y)).fold(0.0f64, f64::max);
        let max_b = b.iter().map(|l| l.x.max(l.y)).fold(0.0f64, f64::max);
        assert!(max_b > 4.0 * max_a);
    }
}
