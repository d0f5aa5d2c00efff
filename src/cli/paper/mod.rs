//! `exageostat paper <name>`: regenerates the paper's evaluation — the §II
//! attributes table, Figs. 5–11, Tables I–II, the design ablations, PSO
//! weak scaling and the schedule-validator overhead — one job each.
//!
//! ```text
//! cargo run --release -- paper fig9
//! cargo run --release -- paper table1 --metrics m.json
//! ```
//!
//! Every job runs at the size its `results/` file records and takes no
//! option; `table1 --metrics <path>` is the one exception. Jobs print as
//! they go. Speed is measured by the repo benchmark
//! (`examples/benchmark/`), not here.

mod accuracy;
mod decisions;
mod kernels;
mod scale;

use crate::cli::commands::{CmdError, Command};

/// The summary suffix of a job that takes `--metrics <path>`, so the usage
/// text lists exactly what the flag check accepts.
pub(crate) const METRICS_OPTION: &str = "[--metrics <path>]";

/// `(name, summary, job)`: the one list of paper jobs, behind both the
/// `paper <name>` command paths and the usage text.
pub(crate) const JOBS: [(&str, &str, Command); 13] = [
    ("attributes", "§II performance-attributes table", |_| {
        printed(scale::attributes)
    }),
    ("fig5", "dense vs TLR GEMM by rank; Algorithm 2", |_| {
        printed(kernels::fig5)
    }),
    ("fig6", "parameter-estimate boxplots", |_| {
        printed(accuracy::fig6)
    }),
    ("fig7", "MP Cholesky on 1024 modeled nodes", |_| {
        printed(scale::fig7)
    }),
    ("fig8", "SHGEMM vs SGEMM vs DGEMM", |_| {
        printed(kernels::fig8)
    }),
    ("fig9", "decision maps and footprints", |_| {
        printed(decisions::fig9)
    }),
    ("fig10", "space Cholesky on Fugaku nodes", |_| {
        printed(|| scale::scale(scale::Figure::Space))
    }),
    ("fig11", "space-time Cholesky on Fugaku nodes", |_| {
        printed(|| scale::scale(scale::Figure::SpaceTime))
    }),
    ("table1", "soil-moisture MLE [--metrics <path>]", |a| {
        accuracy::table(&accuracy::TABLE_I, a)
    }),
    ("table2", "space-time ET MLE", |a| {
        accuracy::table(&accuracy::TABLE_II, a)
    }),
    (
        "ablations",
        "precision rule, TLR tolerance, tile size",
        |_| printed(decisions::ablations),
    ),
    ("pso", "PSO training weak scaling (§VI-D)", |_| {
        printed(accuracy::pso)
    }),
    (
        "validator-overhead",
        "schedule validator and race checker cost",
        |_| printed(decisions::validator_overhead),
    ),
];

/// Run a job that prints all it has to say and cannot fail: its report is
/// empty, so nothing is appended to what it printed.
fn printed(job: fn()) -> Result<String, CmdError> {
    job();
    Ok(String::new())
}

/// Column-major random buffer for kernel benchmarks.
fn random_buffer(len: usize, seed: u64) -> Vec<f64> {
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
fn quartiles(xs: &mut [f64]) -> (f64, f64, f64) {
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
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = std::time::Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Best wall time of three runs of a closure, in seconds.
fn best_of_3(mut f: impl FnMut()) -> f64 {
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

    /// The jobs' site sets widen with their domain.
    #[test]
    fn sites_scale_with_domain() {
        use xgs_core::{synthetic::sites, ModelFamily::MaternSpace};
        let a = sites(MaternSpace, 100, 1, 1.0, 3);
        let b = sites(MaternSpace, 100, 1, 5.0, 3);
        let max_a = a.iter().map(|l| l.x.max(l.y)).fold(0.0f64, f64::max);
        let max_b = b.iter().map(|l| l.x.max(l.y)).fold(0.0f64, f64::max);
        assert!(max_b > 4.0 * max_a);
    }
}
