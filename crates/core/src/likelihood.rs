//! The Gaussian log-likelihood (paper Eq. 1) through the tile solver.
//!
//! `ℓ(θ) = -(n/2) log 2π - (1/2) log|Σ(θ)| - (1/2) Z^T Σ(θ)^{-1} Z`
//!
//! One evaluation = generate Σ(θ) tile-wise (with the adaptive format
//! decisions), tile-Cholesky it in the chosen variant, take the
//! log-determinant off the factored diagonal, and a forward solve for the
//! quadratic form `‖L^{-1}Z‖²`.
//!
//! On the threaded engine generation and factorization are one task graph
//! (`TiledFactor::generate_and_factorize`): each tile is a `GEN` task, the
//! format decisions are one `DECIDE` task that the factor's tasks on
//! off-diagonal tiles wait on (none under dense FP64), and the Cholesky
//! starts on the first tiles generated. The sequential and sharded engines
//! generate the whole matrix first (`SymTileMatrix::generate`, the same
//! `GEN` and `DECIDE` bodies), then factor it.

use std::sync::Arc;
use xgs_cholesky::{logdet, solve_lower, ShardBackend, ShardError, TiledFactor};
use xgs_covariance::{CovarianceKernel, Location};
use xgs_runtime::{ExecOptions, MetricsReport};
use xgs_tile::{KernelTimeModel, SymTileMatrix, TileGen, TlrConfig};

/// Which execution backend factorizes Σ(θ).
#[derive(Clone, Debug)]
pub enum FactorEngine {
    /// In-process, single-threaded reference loop.
    Sequential,
    /// In-process task runtime with this many worker loops on the shared
    /// pool (0 = one per core); generation runs in the factor's graph.
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

    let (factor, metrics, footprint, dense_footprint) = match engine {
        FactorEngine::Threads(workers) => {
            let gen = TileGen::new(kernel, locs, *cfg, model);
            let op = TiledFactor::generate_and_factorize(&gen, *workers, ExecOptions::default());
            op.result?;
            let (footprint, dense) = (op.footprint_bytes, op.dense_footprint_bytes);
            (Arc::new(op.factor), Some(op.metrics), footprint, dense)
        }
        FactorEngine::Sequential | FactorEngine::Sharded(_) => {
            let matrix = SymTileMatrix::generate(kernel, locs, *cfg, model);
            let (footprint, dense) = (matrix.footprint_bytes(), matrix.dense_f64_footprint_bytes());
            let mut f = TiledFactor::from_matrix(matrix);
            let metrics = match engine {
                // Busy time is worker-process compute time as reported in
                // DONEs.
                FactorEngine::Sharded(runner) => Some(runner.factorize(&mut f)?.metrics),
                _ => {
                    f.factorize_seq()?;
                    None
                }
            };
            (Arc::new(f), metrics, footprint, dense)
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
        // The factor's kernels keep their closed form; generation adds one
        // GEN per stored tile and, under MP, one DECIDE.
        let nt = locs.len().div_ceil(cfg.tile_size);
        let count = |kind| {
            m.kernels
                .iter()
                .find(|k| k.kind == kind)
                .map_or(0, |k| k.count)
        };
        let census = ["potrf", "trsm", "syrk", "gemm", "gen", "decide"].map(count);
        let (trsm, gemm) = (nt * (nt - 1) / 2, nt * (nt - 1) * (nt - 2) / 6);
        let gens = nt * (nt + 1) / 2;
        assert_eq!(census, [nt, trsm, trsm, gemm, gens, 1].map(|c| c as u64));
        assert_eq!(
            m.tasks,
            nt + nt * (nt - 1) / 2 + nt * (nt * nt - 1) / 6 + gens + 1
        );
        if cfg!(debug_assertions) {
            assert!(m.validation.expect("validated in debug").edges_checked > 0);
        } else {
            assert!(m.validation.is_none(), "validator is opt-in in release");
        }
    }

    #[test]
    fn one_graph_is_bitwise_the_phased_path() {
        // The threaded engine generates inside the factor's graph; the
        // sequential one generates, then factors. Every variant, weak and
        // strong correlation, one to four worker loops.
        let (_, locs, z) = setup(240);
        let model = FlopKernelModel {
            dense_rate: 45.0e9,
            mem_factor: 1.0,
        };
        for range in [0.02, 0.3] {
            let kernel = Matern::new(MaternParams::new(1.0, range, 0.5));
            for variant in Variant::ALL {
                let cfg = TlrConfig::new(variant, 40);
                let phased = log_likelihood_engine(&kernel, &locs, &z, &cfg, &model, SEQ).unwrap();
                for workers in [1, 2, 4] {
                    let engine = FactorEngine::Threads(workers);
                    let one =
                        log_likelihood_engine(&kernel, &locs, &z, &cfg, &model, &engine).unwrap();
                    let what = format!("{variant:?}, range {range}, {workers} workers");
                    let bits = |r: &LikelihoodReport| [r.llh, r.logdet, r.quad].map(f64::to_bits);
                    assert_eq!(bits(&one), bits(&phased), "{what}");
                    let factor = |r: &LikelihoodReport| {
                        let l = r.factor.to_dense_lower();
                        l.as_slice()
                            .iter()
                            .map(|x| x.to_bits())
                            .collect::<Vec<u64>>()
                    };
                    assert!(factor(&one) == factor(&phased), "{what}: factors differ");
                    assert_eq!(one.factor.band_size_dense, phased.factor.band_size_dense);
                    assert_eq!(one.footprint_bytes, phased.footprint_bytes, "{what}");
                    assert_eq!(one.dense_footprint_bytes, phased.dense_footprint_bytes);
                }
            }
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
