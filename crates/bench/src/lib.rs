//! Shared helpers for the benchmark harness.
//!
//! Each paper table/figure has a dedicated binary in `src/bin/` (see
//! DESIGN.md's experiment index); speed is measured by the repo benchmark
//! (`examples/benchmark/`), not here. Binaries honour a few environment
//! variables so the full campaign can be scaled to the machine at hand:
//!
//! * `XGS_REPS` — replicate count for the Fig. 6 boxplots (default 25;
//!   paper: 100),
//! * `XGS_N` — location count for the locally-executed accuracy studies
//!   (default 1000),
//! * `XGS_WORKERS` — worker threads for parallel factorization (default:
//!   all cores).

use rand::rngs::StdRng;
use rand::SeedableRng;
use xgs_covariance::{jittered_grid, morton_order, Location};

/// Environment-variable override with default.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// `--metrics <path>` from the binary's own argv (bench binaries take no
/// other arguments), with `XGS_METRICS=<path>` as the env-style spelling.
pub fn metrics_path() -> Option<String> {
    let argv: Vec<String> = std::env::args().collect();
    argv.iter()
        .position(|a| a == "--metrics")
        .and_then(|i| argv.get(i + 1).cloned())
        .or_else(|| std::env::var("XGS_METRICS").ok())
}

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

/// The kernel-time model for demo-scale tile sizes: drops the memory-bound
/// TLR penalty so the structure decision engages below tile ~512 (the
/// calibrated A64FX crossover ~nb/13.5 correctly rejects TLR for small
/// tiles; see DESIGN.md §5a).
pub fn demo_model() -> xgs_tile::FlopKernelModel {
    xgs_tile::FlopKernelModel {
        dense_rate: 45.0e9,
        mem_factor: 1.0,
    }
}

/// Wall-time a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = std::time::Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
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
    fn env_default_used_when_unset() {
        assert_eq!(env_usize("XGS_DOES_NOT_EXIST_X", 7), 7);
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
