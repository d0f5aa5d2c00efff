//! The Gaussian log-likelihood (paper Eq. 1) through the tile solver.
//!
//! `ℓ(θ) = -(n/2) log 2π - (1/2) log|Σ(θ)| - (1/2) Z^T Σ(θ)^{-1} Z`
//!
//! One evaluation = generate Σ(θ) tile-wise (with the adaptive format
//! decisions), tile-Cholesky it in the chosen variant, take the
//! log-determinant off the factored diagonal, and a forward solve for the
//! quadratic form `‖L^{-1}Z‖²`.

use std::sync::Arc;
use xgs_cholesky::{logdet, solve_lower, ShardBackend, ShardError, TiledFactor};
use xgs_covariance::{CovarianceKernel, Location};
use xgs_runtime::MetricsReport;
use xgs_tile::{KernelTimeModel, SymTileMatrix, TlrConfig};

/// Which execution backend factorizes Σ(θ).
#[derive(Clone, Debug)]
pub enum FactorEngine {
    /// In-process, single-threaded reference loop.
    Sequential,
    /// In-process task runtime with this many worker loops on the shared
    /// pool (0 = one per core).
    Threads(usize),
    /// Multi-process 2D block-cyclic sharding on the backend's fleet:
    /// the `xgs-fleet` supervisor keeps its workers warm between
    /// factorizations, with standby promotion and panel-replay recovery.
    Sharded(Arc<dyn ShardBackend>),
}

impl FactorEngine {
    /// The one worker-count convention (`--workers`, `build_plan`): 1 =
    /// sequential, anything else is the threaded runtime (0 = one worker
    /// loop per core).
    pub fn from_workers(workers: usize) -> FactorEngine {
        if workers == 1 {
            FactorEngine::Sequential
        } else {
            FactorEngine::Threads(workers)
        }
    }
}

/// Result of one likelihood evaluation. Keeps the factor so callers
/// (prediction, uncertainty) can reuse it without refactorizing.
pub struct LikelihoodReport {
    /// `ℓ(θ)`.
    pub llh: f64,
    /// `log|Σ|`.
    pub logdet: f64,
    /// `Z^T Σ^{-1} Z`.
    pub quad: f64,
    /// The Cholesky factor of Σ(θ).
    pub factor: Arc<TiledFactor>,
    /// What the task runtime or the fleet observed (`None` for the
    /// sequential engine).
    pub metrics: Option<MetricsReport>,
    /// Matrix storage footprint under the variant's formats, bytes.
    pub footprint_bytes: usize,
    /// Footprint the same tiled matrix would need fully dense in FP64.
    pub dense_footprint_bytes: usize,
}

/// Evaluate the log-likelihood with Σ(θ) factorized on `engine`. Every
/// engine produces bitwise-identical factors; they differ only in where
/// the tile kernels run and in what the [`MetricsReport`] observes. The
/// in-process engines fail only numerically ([`ShardError::Factor`]).
pub fn log_likelihood_engine(
    kernel: &dyn CovarianceKernel,
    locs: &[Location],
    z: &[f64],
    cfg: &TlrConfig,
    model: &dyn KernelTimeModel,
    engine: &FactorEngine,
) -> Result<LikelihoodReport, ShardError> {
    let n = locs.len();
    assert_eq!(z.len(), n, "observation vector must match locations");

    let matrix = SymTileMatrix::generate(kernel, locs, *cfg, model);
    let footprint = matrix.footprint_bytes();
    let dense_footprint = matrix.dense_f64_footprint_bytes();
    let (factor, metrics) = match engine {
        FactorEngine::Sequential => {
            let mut f = TiledFactor::from_matrix(matrix);
            f.factorize_seq()?;
            (Arc::new(f), None)
        }
        FactorEngine::Threads(workers) => {
            let f = Arc::new(TiledFactor::from_matrix(matrix));
            let (res, report) = f.factorize_parallel(*workers);
            res?;
            (f, Some(report))
        }
        FactorEngine::Sharded(runner) => {
            let mut f = TiledFactor::from_matrix(matrix);
            // Busy time is worker-process compute time as reported in
            // DONEs.
            let rep = runner.factorize(&mut f)?;
            (Arc::new(f), Some(rep.metrics))
        }
    };

    let ld = logdet(&factor);
    let mut w = z.to_vec();
    solve_lower(&factor, &mut w, 1);
    let quad: f64 = w.iter().map(|x| x * x).sum();

    let llh = -0.5 * (n as f64) * (2.0 * std::f64::consts::PI).ln() - 0.5 * ld - 0.5 * quad;
    Ok(LikelihoodReport {
        llh,
        logdet: ld,
        quad,
        factor,
        metrics,
        footprint_bytes: footprint,
        dense_footprint_bytes: dense_footprint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xgs_covariance::{jittered_grid, morton_order, Matern, MaternParams};
    use xgs_tile::{FlopKernelModel, Variant};

    const SEQ: &FactorEngine = &FactorEngine::Sequential;

    fn setup(n: usize) -> (Matern, Vec<Location>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(5);
        let mut locs = jittered_grid(n, &mut rng);
        morton_order(&mut locs);
        let params = MaternParams::new(1.0, 0.1, 0.5);
        let kernel = Matern::new(params);
        let z = crate::synthetic::simulate_field(&kernel, &locs, 99);
        (kernel, locs, z)
    }

    /// Dense FP64 oracle computed without tiles.
    fn llh_oracle(kernel: &Matern, locs: &[Location], z: &[f64]) -> f64 {
        let mut c = xgs_covariance::covariance_matrix(kernel, locs);
        xgs_linalg::cholesky_in_place(&mut c).unwrap();
        let ld = xgs_linalg::cholesky_logdet(&c);
        let mut w = z.to_vec();
        // Only forward substitution: quad = || L^{-1} z ||^2.
        xgs_kernels::trsm_left_lower_notrans(
            z.len(),
            1,
            1.0,
            c.as_slice(),
            z.len(),
            &mut w,
            z.len(),
        );
        let quad: f64 = w.iter().map(|x| x * x).sum();
        -0.5 * z.len() as f64 * (2.0 * std::f64::consts::PI).ln() - 0.5 * ld - 0.5 * quad
    }

    #[test]
    fn dense_f64_matches_oracle() {
        let (kernel, locs, z) = setup(200);
        let cfg = TlrConfig::new(Variant::DenseF64, 64);
        let r = log_likelihood_engine(&kernel, &locs, &z, &cfg, &FlopKernelModel::default(), SEQ)
            .unwrap();
        let oracle = llh_oracle(&kernel, &locs, &z);
        assert!(
            (r.llh - oracle).abs() < 1e-6 * oracle.abs().max(1.0),
            "{} vs {}",
            r.llh,
            oracle
        );
    }

    #[test]
    fn parallel_equals_sequential() {
        let (kernel, locs, z) = setup(240);
        let cfg = TlrConfig::new(Variant::MpDense, 60);
        let model = FlopKernelModel::default();
        let seq = log_likelihood_engine(&kernel, &locs, &z, &cfg, &model, SEQ).unwrap();
        let par =
            log_likelihood_engine(&kernel, &locs, &z, &cfg, &model, &FactorEngine::Threads(4))
                .unwrap();
        assert_eq!(seq.llh, par.llh, "engines must agree bitwise");
        // The runtime's observability layer rides along: metrics always,
        // schedule validation by default under debug_assertions only.
        let m = par.metrics.expect("parallel engine reports");
        let nt = locs.len().div_ceil(cfg.tile_size);
        assert_eq!(m.tasks, nt + nt * (nt - 1) / 2 + nt * (nt * nt - 1) / 6);
        if cfg!(debug_assertions) {
            assert!(m.validation.expect("validated in debug").edges_checked > 0);
        } else {
            assert!(m.validation.is_none(), "validator is opt-in in release");
        }
    }

    #[test]
    fn approximate_variants_stay_close() {
        let (kernel, locs, z) = setup(300);
        let model = FlopKernelModel {
            dense_rate: 45.0e9,
            mem_factor: 1.0,
        };
        let exact = log_likelihood_engine(
            &kernel,
            &locs,
            &z,
            &TlrConfig::new(Variant::DenseF64, 50),
            &model,
            SEQ,
        )
        .unwrap();
        for variant in [Variant::MpDense, Variant::MpDenseTlr] {
            let cfg = TlrConfig::new(variant, 50);
            let r = log_likelihood_engine(&kernel, &locs, &z, &cfg, &model, SEQ).unwrap();
            let drift = (r.llh - exact.llh).abs() / exact.llh.abs();
            assert!(drift < 1e-4, "{variant:?} drifted {drift}");
        }
    }

    #[test]
    fn quad_and_logdet_decompose_llh() {
        let (kernel, locs, z) = setup(150);
        let cfg = TlrConfig::new(Variant::DenseF64, 50);
        let r = log_likelihood_engine(&kernel, &locs, &z, &cfg, &FlopKernelModel::default(), SEQ)
            .unwrap();
        let n = locs.len() as f64;
        let recomposed =
            -0.5 * n * (2.0 * std::f64::consts::PI).ln() - 0.5 * r.logdet - 0.5 * r.quad;
        assert!((recomposed - r.llh).abs() < 1e-12);
        assert!(r.quad > 0.0);
        assert!(r.footprint_bytes > 0);
    }
}
