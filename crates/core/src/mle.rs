//! Maximum likelihood fitting: the modeling phase of the paper.

use crate::likelihood::{log_likelihood_engine, FactorEngine, LikelihoodReport};
use crate::model::ModelFamily;
use crate::optimizer::neldermead::{nelder_mead, NelderMeadOptions};
use crate::optimizer::pso::{particle_swarm, PsoOptions};
use crate::optimizer::transform::{forward_all, inverse_all};
use parking_lot::Mutex;
use xgs_cholesky::ShardError;
use xgs_covariance::{CovarianceKernel, Location};
use xgs_runtime::MetricsReport;
use xgs_tile::{KernelTimeModel, TlrConfig, Variant};

/// Optimizer selection for [`fit`].
#[derive(Clone, Debug)]
pub enum FitOptimizer {
    NelderMead(NelderMeadOptions),
    /// The paper's weak-scaling optimizer; bounds are in transformed space
    /// around the starting point.
    ParticleSwarm(PsoOptions),
}

/// Fit configuration.
#[derive(Clone, Debug)]
pub struct FitOptions {
    pub optimizer: FitOptimizer,
    /// Starting parameter vector (natural space); family default if `None`.
    pub start: Option<Vec<f64>>,
    /// What factorizes Σ(θ) at every evaluation: the sequential loop, the
    /// task runtime on the shared pool, or worker *processes* of an
    /// `xgs-fleet` supervisor.
    pub engine: FactorEngine,
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions {
            optimizer: FitOptimizer::NelderMead(NelderMeadOptions::default()),
            start: None,
            engine: FactorEngine::Sequential,
        }
    }
}

/// Fit outcome.
#[derive(Clone, Debug)]
pub struct FitResult {
    /// Estimated parameters (natural space).
    pub theta: Vec<f64>,
    /// Log-likelihood at the optimum.
    pub llh: f64,
    /// Objective evaluations spent.
    pub evals: usize,
    pub converged: bool,
    /// Successful runtime factorizations behind the evaluations (0 with
    /// the sequential engine).
    pub factorizations: usize,
    /// Runtime metrics merged over every factorization of the
    /// optimization; `None` when every evaluation used the sequential
    /// engine.
    pub metrics: Option<MetricsReport>,
    /// Evaluations whose approximated (MP / MP+TLR) factorization lost
    /// positive definiteness and were re-evaluated once at dense FP64.
    pub pd_retries: usize,
    /// Evaluations that were not positive definite at dense FP64 either
    /// (retried or dense to begin with): the objective saw `+∞`.
    pub pd_failures: usize,
}

/// What the objective accumulates across evaluations (PSO may evaluate
/// from several threads).
#[derive(Default)]
struct Outcomes {
    factorizations: usize,
    metrics: Option<MetricsReport>,
    pd_retries: usize,
    pd_failures: usize,
}

/// One likelihood evaluation with the one defined answer to loss of
/// positive definiteness: an approximated variant whose factorization
/// fails is re-evaluated once with every tile dense FP64 (the limit case
/// of the band rule), and both outcomes are counted. A θ that is not
/// positive definite at FP64 either is outside the model; the caller maps
/// that error to `+∞`.
fn evaluate_with_pd_fallback(
    kernel: &dyn CovarianceKernel,
    locs: &[Location],
    z: &[f64],
    cfg: &TlrConfig,
    model: &dyn KernelTimeModel,
    engine: &FactorEngine,
    outcomes: &Mutex<Outcomes>,
) -> Result<LikelihoodReport, ShardError> {
    let mut result = log_likelihood_engine(kernel, locs, z, cfg, model, engine);
    if matches!(result, Err(ShardError::Factor(_))) && cfg.variant != Variant::DenseF64 {
        outcomes.lock().pd_retries += 1;
        let dense = TlrConfig {
            variant: Variant::DenseF64,
            ..*cfg
        };
        result = log_likelihood_engine(kernel, locs, z, &dense, model, engine);
    }
    if matches!(result, Err(ShardError::Factor(_))) {
        outcomes.lock().pd_failures += 1;
    }
    result
}

/// Family-specific default starting point.
fn default_start(family: ModelFamily, z: &[f64]) -> Vec<f64> {
    let var = z.iter().map(|v| v * v).sum::<f64>() / z.len().max(1) as f64;
    let var = var.max(1e-3);
    match family {
        ModelFamily::MaternSpace => vec![var, 0.1, 1.0],
        ModelFamily::GneitingSpaceTime => vec![var, 0.5, 1.0, 0.5, 0.5, 0.3],
    }
}

/// Maximize the Gaussian log-likelihood over the family's parameters.
pub fn fit(
    family: ModelFamily,
    locs: &[Location],
    z: &[f64],
    cfg: &TlrConfig,
    model: &dyn KernelTimeModel,
    opts: &FitOptions,
) -> FitResult {
    let transforms = family.transforms();
    let start_nat = opts
        .start
        .clone()
        .unwrap_or_else(|| default_start(family, z));
    assert_eq!(start_nat.len(), family.n_params());
    let start = forward_all(&transforms, &start_nat);

    let engine = &opts.engine;
    let outcomes = Mutex::new(Outcomes::default());
    let objective = |y: &[f64]| -> f64 {
        let theta = inverse_all(&transforms, y);
        let kernel = family.kernel(&theta);
        match evaluate_with_pd_fallback(kernel.as_ref(), locs, z, cfg, model, engine, &outcomes) {
            Ok(r) => {
                if let Some(m) = r.exec.as_ref().and_then(|e| e.metrics.as_ref()) {
                    let mut acc = outcomes.lock();
                    acc.factorizations += 1;
                    match acc.metrics.as_mut() {
                        Some(total) => total.merge(m),
                        None => acc.metrics = Some(m.clone()),
                    }
                }
                -r.llh
            }
            // Not positive definite even at FP64 = out-of-model region
            // (counted in `pd_failures`).
            Err(ShardError::Factor(_)) => f64::INFINITY,
            // Infrastructure failure (worker lost, timeout): also an
            // unusable evaluation, but loudly distinguishable in logs.
            Err(e) => {
                eprintln!("sharded evaluation failed: {e}");
                f64::INFINITY
            }
        }
    };

    let pool_before = rayon::global_pool_stats();
    let (theta, llh, evals, converged) = match &opts.optimizer {
        FitOptimizer::NelderMead(nm) => {
            let r = nelder_mead(objective, &start, nm);
            (inverse_all(&transforms, &r.x), -r.f, r.evals, r.converged)
        }
        FitOptimizer::ParticleSwarm(pso) => {
            // Box: +-2.5 in transformed space around the start (roughly one
            // order of magnitude each way for log-transformed parameters).
            let bounds: Vec<(f64, f64)> = start.iter().map(|&s| (s - 2.5, s + 2.5)).collect();
            let r = particle_swarm(objective, &bounds, pso);
            (inverse_all(&transforms, &r.x), -r.f, r.evals, true)
        }
    };
    let Outcomes {
        factorizations,
        mut metrics,
        pd_retries,
        pd_failures,
    } = outcomes.into_inner();
    // Attribute the fit's share of the shared work-stealing pool (covariance
    // assembly, PSO fan-out, blocked kernels) to the merged report.
    let pool = rayon::global_pool_stats().since(&pool_before);
    if pool.jobs + pool.inline_jobs > 0 {
        if let Some(m) = metrics.as_mut() {
            m.pool = Some(xgs_runtime::PoolCounters {
                workers: pool.threads,
                jobs: pool.jobs,
                inline_jobs: pool.inline_jobs,
                steals: pool.steals,
                parks: pool.parks,
            });
        }
    }
    FitResult {
        theta,
        llh,
        evals,
        converged,
        factorizations,
        metrics,
        pd_retries,
        pd_failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::simulate_field;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xgs_covariance::{jittered_grid, morton_order, Matern, MaternParams};
    use xgs_tile::{FlopKernelModel, Variant};

    fn data(n: usize, params: MaternParams, seed: u64) -> (Vec<Location>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut locs = jittered_grid(n, &mut rng);
        morton_order(&mut locs);
        let z = simulate_field(&Matern::new(params), &locs, seed + 1000);
        (locs, z)
    }

    #[test]
    fn recovers_matern_parameters_dense() {
        // Moderate n and a fixed smoothness-friendly setting: MLE should
        // land near the truth (sampling noise allows generous bands).
        let truth = MaternParams::new(1.0, 0.1, 0.5);
        let (locs, z) = data(400, truth, 42);
        let cfg = TlrConfig::new(Variant::DenseF64, 100);
        let opts = FitOptions {
            optimizer: FitOptimizer::NelderMead(NelderMeadOptions {
                max_evals: 200,
                f_tol: 1e-5,
                initial_step: 0.4,
            }),
            start: Some(vec![0.8, 0.15, 0.7]),
            engine: FactorEngine::Sequential,
        };
        let r = fit(
            ModelFamily::MaternSpace,
            &locs,
            &z,
            &cfg,
            &FlopKernelModel::default(),
            &opts,
        );
        assert!(r.llh.is_finite());
        assert!(
            (0.4..2.5).contains(&r.theta[0]),
            "variance {} far from 1.0",
            r.theta[0]
        );
        assert!(
            (0.03..0.3).contains(&r.theta[1]),
            "range {} far from 0.1",
            r.theta[1]
        );
        assert!(
            (0.25..1.1).contains(&r.theta[2]),
            "smoothness {} far from 0.5",
            r.theta[2]
        );
    }

    #[test]
    fn llh_at_estimate_beats_llh_at_start() {
        let truth = MaternParams::new(1.0, 0.1, 0.5);
        let (locs, z) = data(300, truth, 7);
        let cfg = TlrConfig::new(Variant::MpDense, 75);
        let model = FlopKernelModel::default();
        let start = vec![2.0, 0.05, 1.5];
        let start_llh = {
            let k = ModelFamily::MaternSpace.kernel(&start);
            log_likelihood_engine(
                k.as_ref(),
                &locs,
                &z,
                &cfg,
                &model,
                &FactorEngine::Sequential,
            )
            .unwrap()
            .llh
        };
        let opts = FitOptions {
            optimizer: FitOptimizer::NelderMead(NelderMeadOptions {
                max_evals: 120,
                f_tol: 1e-5,
                initial_step: 0.4,
            }),
            start: Some(start),
            engine: FactorEngine::Sequential,
        };
        let r = fit(ModelFamily::MaternSpace, &locs, &z, &cfg, &model, &opts);
        assert!(r.llh > start_llh, "{} should beat {}", r.llh, start_llh);
    }

    #[test]
    fn parallel_fit_surfaces_merged_runtime_metrics() {
        let truth = MaternParams::new(1.0, 0.1, 0.5);
        let (locs, z) = data(200, truth, 3);
        let cfg = TlrConfig::new(Variant::MpDense, 50);
        let opts = FitOptions {
            optimizer: FitOptimizer::NelderMead(NelderMeadOptions {
                max_evals: 20,
                f_tol: 1e-4,
                initial_step: 0.3,
            }),
            start: Some(vec![1.0, 0.1, 0.5]),
            engine: FactorEngine::Threads(2),
        };
        let r = fit(
            ModelFamily::MaternSpace,
            &locs,
            &z,
            &cfg,
            &FlopKernelModel::default(),
            &opts,
        );
        assert!(r.factorizations > 0);
        assert!(r.factorizations <= r.evals);
        let m = r.metrics.expect("parallel engine collects metrics");
        // 4x4 tiles, 20 tasks per factorization, one factorization per
        // successful evaluation.
        assert_eq!(m.tasks, 20 * r.factorizations);
        assert!(m.kernels.iter().any(|k| k.kind == "potrf"));
        // The validator defaults on under debug_assertions only, so this
        // test means different things in `cargo test` vs `--release`.
        if cfg!(debug_assertions) {
            let v = m.validation.expect("validation on by default in debug");
            assert!(v.edges_checked > 0);
            assert!(m.to_json().contains("\"validation\":{"));
        } else {
            assert!(m.validation.is_none(), "validator is opt-in in release");
            assert!(m.to_json().contains("\"validation\":null"));
        }
    }

    #[test]
    fn sequential_fit_has_no_runtime_metrics() {
        let truth = MaternParams::new(1.0, 0.1, 0.5);
        let (locs, z) = data(150, truth, 4);
        let cfg = TlrConfig::new(Variant::DenseF64, 75);
        let opts = FitOptions {
            optimizer: FitOptimizer::NelderMead(NelderMeadOptions {
                max_evals: 10,
                f_tol: 1e-4,
                initial_step: 0.3,
            }),
            start: Some(vec![1.0, 0.1, 0.5]),
            engine: FactorEngine::Sequential,
        };
        let r = fit(
            ModelFamily::MaternSpace,
            &locs,
            &z,
            &cfg,
            &FlopKernelModel::default(),
            &opts,
        );
        assert_eq!(r.factorizations, 0);
        assert!(r.metrics.is_none());
    }

    #[test]
    fn pso_fit_runs_and_is_deterministic() {
        let truth = MaternParams::new(1.0, 0.1, 0.5);
        let (locs, z) = data(200, truth, 9);
        let cfg = TlrConfig::new(Variant::DenseF64, 100);
        let model = FlopKernelModel::default();
        let pso = PsoOptions {
            particles: 6,
            iterations: 6,
            parallel: true,
            ..Default::default()
        };
        let opts = FitOptions {
            optimizer: FitOptimizer::ParticleSwarm(pso),
            start: Some(vec![1.0, 0.1, 0.5]),
            engine: FactorEngine::Sequential,
        };
        let a = fit(ModelFamily::MaternSpace, &locs, &z, &cfg, &model, &opts);
        let b = fit(ModelFamily::MaternSpace, &locs, &z, &cfg, &model, &opts);
        assert_eq!(a.theta, b.theta);
        assert!(a.llh.is_finite());
    }

    // ---- Loss of positive definiteness under approximation.

    use xgs_covariance::WithNugget;
    use xgs_tile::PrecisionRule;

    /// The two approximations pushed past what a strongly correlated field
    /// tolerates: FP16 from the second off-diagonal on (the band scheme,
    /// which ignores tile norms), and TLR at a 1e-2 threshold.
    fn aggressive_configs() -> [TlrConfig; 2] {
        let mut mp = TlrConfig::new(Variant::MpDense, 50);
        mp.precision_rule = PrecisionRule::Band {
            f64_band: 1,
            f32_band: 2,
        };
        let mut tlr = TlrConfig::new(Variant::MpDenseTlr, 50);
        tlr.tlr_tolerance = 1e-2;
        tlr.band_size_dense = Some(1);
        [mp, tlr]
    }

    fn evaluate(
        kernel: &dyn CovarianceKernel,
        locs: &[Location],
        cfg: &TlrConfig,
    ) -> (Result<f64, ShardError>, usize, usize) {
        let z = vec![0.1; locs.len()];
        let outcomes = Mutex::new(Outcomes::default());
        let r = evaluate_with_pd_fallback(
            kernel,
            locs,
            &z,
            cfg,
            &FlopKernelModel::default(),
            &FactorEngine::Sequential,
            &outcomes,
        )
        .map(|r| r.llh);
        let o = outcomes.into_inner();
        (r, o.pd_retries, o.pd_failures)
    }

    #[test]
    fn lost_positive_definiteness_falls_back_to_fp64_once_and_is_counted() {
        let (locs, _) = data(400, MaternParams::new(1.0, 0.1, 0.5), 5);
        let dense = TlrConfig::new(Variant::DenseF64, 50);
        // Strong correlation x small nugget: the approximated factorization
        // fails, the FP64 one does not, and the answer is the FP64 one.
        for range in [0.3, 1.0] {
            for nugget in [1e-4, 1e-6, 0.0] {
                let kernel =
                    WithNugget::new(Matern::new(MaternParams::new(1.0, range, 1.5)), nugget);
                let (reference, retries, failures) = evaluate(&kernel, &locs, &dense);
                assert_eq!((retries, failures), (0, 0), "FP64 is positive definite");
                let reference = reference.unwrap();
                for cfg in aggressive_configs() {
                    let case = format!("range {range}, nugget {nugget}, {:?}", cfg.variant);
                    assert!(
                        log_likelihood_engine(
                            &kernel,
                            &locs,
                            &[0.1; 400],
                            &cfg,
                            &FlopKernelModel::default(),
                            &FactorEngine::Sequential
                        )
                        .is_err(),
                        "{case}: the approximation should lose PD here"
                    );
                    let (llh, retries, failures) = evaluate(&kernel, &locs, &cfg);
                    assert_eq!((retries, failures), (1, 0), "{case}");
                    assert_eq!(llh.unwrap().to_bits(), reference.to_bits(), "{case}");
                }
            }
        }
        // A nugget large enough for the approximation: no retry.
        let kernel = WithNugget::new(Matern::new(MaternParams::new(1.0, 0.3, 0.5)), 1e-2);
        for cfg in aggressive_configs() {
            let (llh, retries, failures) = evaluate(&kernel, &locs, &cfg);
            assert!(llh.is_ok());
            assert_eq!((retries, failures), (0, 0), "{:?}", cfg.variant);
        }
    }

    #[test]
    fn not_positive_definite_at_fp64_either_is_a_counted_failure() {
        // Every site twice and no nugget: exactly singular.
        let (mut locs, _) = data(200, MaternParams::new(1.0, 0.1, 0.5), 6);
        locs.extend_from_within(..);
        let kernel = Matern::new(MaternParams::new(1.0, 0.3, 1.5));
        for cfg in aggressive_configs() {
            let (llh, retries, failures) = evaluate(&kernel, &locs, &cfg);
            assert!(matches!(llh, Err(ShardError::Factor(_))));
            assert_eq!((retries, failures), (1, 1), "{:?}", cfg.variant);
        }
        // Dense to begin with: nothing to fall back to, still counted.
        let dense = TlrConfig::new(Variant::DenseF64, 50);
        let (llh, retries, failures) = evaluate(&kernel, &locs, &dense);
        assert!(matches!(llh, Err(ShardError::Factor(_))));
        assert_eq!((retries, failures), (0, 1));
    }

    #[test]
    fn fit_reports_pd_retries_instead_of_walking_on_infinity() {
        // A smooth, strongly correlated start where the band scheme's FP16
        // tiles lose PD: every evaluation is answered at FP64, so the fit
        // is the dense fit, and says how it got there.
        let (locs, z) = data(400, MaternParams::new(1.0, 0.3, 1.5), 5);
        let [mp, _] = aggressive_configs();
        let opts = FitOptions {
            optimizer: FitOptimizer::NelderMead(NelderMeadOptions {
                max_evals: 12,
                f_tol: 1e-5,
                initial_step: 0.1,
            }),
            start: Some(vec![1.0, 0.3, 1.5]),
            engine: FactorEngine::Sequential,
        };
        let model = FlopKernelModel::default();
        let r = fit(ModelFamily::MaternSpace, &locs, &z, &mp, &model, &opts);
        assert!(r.llh.is_finite());
        assert_eq!(r.pd_failures, 0);
        let dense = TlrConfig::new(Variant::DenseF64, 50);
        let d = fit(ModelFamily::MaternSpace, &locs, &z, &dense, &model, &opts);
        assert_eq!((d.pd_retries, d.pd_failures), (0, 0));
        assert_eq!(r.pd_retries, r.evals);
        assert_eq!(r.theta, d.theta);
        assert_eq!(r.llh.to_bits(), d.llh.to_bits());
    }
}
