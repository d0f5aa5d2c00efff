//! Cross-crate integration tests: the full modeling → prediction pipeline
//! through every layer of the stack (kernels → linalg → covariance → tile
//! → runtime → cholesky → core).

use exageostat_rs::core::FactorEngine;
use exageostat_rs::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset(n: usize, params: MaternParams, seed: u64) -> (Vec<Location>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut locs = jittered_grid(n, &mut rng);
    morton_order(&mut locs);
    let z = simulate_field(&Matern::new(params), &locs, seed + 1);
    (locs, z)
}

/// A TLR-friendly kernel model for small test tiles (the calibrated A64FX
/// crossover at nb/13.5 would keep tiny test tiles dense — correct, but
/// not what integration tests need to exercise).
fn tlr_model() -> FlopKernelModel {
    FlopKernelModel {
        dense_rate: 45.0e9,
        mem_factor: 1.0,
    }
}

#[test]
fn three_variants_agree_on_likelihood_and_prediction() {
    let truth = MaternParams::new(1.0, 0.08, 0.5);
    let (locs, z) = dataset(700, truth, 11);
    let (train, test) = locs.split_at(600);
    let (ztr, zte) = z.split_at(600);
    let kernel = Matern::new(truth);
    let model = tlr_model();

    let mut llhs = Vec::new();
    let mut errs = Vec::new();
    for variant in [Variant::DenseF64, Variant::MpDense, Variant::MpDenseTlr] {
        let cfg = TlrConfig::new(variant, 75);
        let rep =
            log_likelihood_engine(&kernel, train, ztr, &cfg, &model, &FactorEngine::Threads(0))
                .unwrap();
        let pred = krige(&kernel, train, ztr, &rep.factor, test, false);
        llhs.push(rep.llh);
        errs.push(mspe(&pred.mean, zte));
    }
    // Likelihoods agree to ~1e-4 relative; MSPEs to a few percent — the
    // Table I story.
    for i in 1..3 {
        assert!(
            (llhs[i] - llhs[0]).abs() / llhs[0].abs() < 1e-3,
            "llh drift: {llhs:?}"
        );
        assert!(
            (errs[i] - errs[0]).abs() / errs[0] < 0.05,
            "mspe drift: {errs:?}"
        );
    }
}

#[test]
fn parallel_runtime_bitwise_matches_sequential_through_full_pipeline() {
    let truth = MaternParams::new(1.0, 0.1, 1.5);
    let (locs, z) = dataset(500, truth, 23);
    let kernel = Matern::new(truth);
    let cfg = TlrConfig::new(Variant::MpDenseTlr, 50);
    let model = tlr_model();
    let seq =
        log_likelihood_engine(&kernel, &locs, &z, &cfg, &model, &FactorEngine::Sequential).unwrap();
    let par =
        log_likelihood_engine(&kernel, &locs, &z, &cfg, &model, &FactorEngine::Threads(6)).unwrap();
    assert_eq!(seq.llh, par.llh);
    assert_eq!(seq.logdet, par.logdet);
    assert_eq!(seq.quad, par.quad);
}

#[test]
fn mle_recovers_parameters_with_adaptive_solver() {
    // The Fig. 6 property at a single-replicate scale: the MP+TLR variant
    // estimates land near the truth.
    let truth = MaternParams::new(1.0, 0.1, 0.5);
    let (locs, z) = dataset(600, truth, 31);
    let cfg = TlrConfig::new(Variant::MpDenseTlr, 75);
    let opts = FitOptions {
        start: Some(vec![0.7, 0.2, 1.0]),
        optimizer: exageostat_rs::core::mle::FitOptimizer::NelderMead(
            exageostat_rs::core::NelderMeadOptions {
                max_evals: 120,
                f_tol: 1e-4,
                initial_step: 0.35,
            },
        ),
        engine: FactorEngine::Threads(0),
    };
    let r = fit(
        ModelFamily::MaternSpace,
        &locs,
        &z,
        &cfg,
        &tlr_model(),
        &opts,
    );
    assert!((0.4..2.5).contains(&r.theta[0]), "variance {}", r.theta[0]);
    assert!((0.03..0.35).contains(&r.theta[1]), "range {}", r.theta[1]);
    assert!(
        (0.2..1.2).contains(&r.theta[2]),
        "smoothness {}",
        r.theta[2]
    );
}

#[test]
fn spacetime_model_fits_and_predicts() {
    let mut rng = StdRng::seed_from_u64(41);
    let spatial = jittered_grid(90, &mut rng);
    let mut locs = spacetime_grid(&spatial, 6);
    morton_order(&mut locs);
    let truth = SpaceTimeParams::new(1.0, 0.3, 0.5, 0.5, 0.9, 0.3);
    let kernel = GneitingSpaceTime::new(truth);
    let z = simulate_field(&kernel, &locs, 55);

    let (train, test) = locs.split_at(480);
    let (ztr, zte) = z.split_at(480);
    let cfg = TlrConfig::new(Variant::MpDense, 60);
    let rep = log_likelihood_engine(
        &kernel,
        train,
        ztr,
        &cfg,
        &tlr_model(),
        &FactorEngine::Threads(0),
    )
    .unwrap();
    assert!(rep.llh.is_finite());
    let pred = krige(&kernel, train, ztr, &rep.factor, test, true);
    let err = mspe(&pred.mean, zte);
    let trivial = mspe(&vec![0.0; zte.len()], zte);
    assert!(
        err < trivial,
        "space-time kriging must beat the mean predictor"
    );
    for &u in pred.uncertainty.as_ref().unwrap() {
        assert!((0.0..=1.0 + 1e-9).contains(&u));
    }
}

#[test]
fn conversion_counters_observe_mixed_precision_traffic() {
    let truth = MaternParams::new(1.0, 0.01, 0.5);
    let (locs, z) = dataset(1024, truth, 61);
    let kernel = Matern::new(truth);
    xgs_runtime::reset_conversion_counts();
    let cfg = TlrConfig::new(Variant::MpDense, 32);
    let _ = log_likelihood_engine(
        &kernel,
        &locs,
        &z,
        &cfg,
        &tlr_model(),
        &FactorEngine::Sequential,
    )
    .unwrap();
    let counts = xgs_runtime::conversion_counts();
    assert!(
        counts.total() > 0,
        "weak-correlation MP factorization must convert operands: {counts:?}"
    );
}

#[test]
fn scale_projection_consistent_with_local_execution_ordering() {
    // The simulated-scale story and the locally measured story must agree
    // qualitatively: MP+TLR does less work than MP dense, which does less
    // than dense FP64.
    let n = 1_000_000;
    let dense = project(&ScaleConfig::new(
        n,
        800,
        2048,
        Correlation::Weak,
        SolverVariant::DenseF64,
    ));
    let mp = project(&ScaleConfig::new(
        n,
        800,
        2048,
        Correlation::Weak,
        SolverVariant::MpDense,
    ));
    let tlr = project(&ScaleConfig::new(
        n,
        800,
        2048,
        Correlation::Weak,
        SolverVariant::MpDenseTlr,
    ));
    assert!(mp.makespan < dense.makespan);
    assert!(tlr.makespan < mp.makespan);
    assert!(tlr.footprint_bytes < mp.footprint_bytes);
    assert!(mp.footprint_bytes < dense.footprint_bytes);
}

#[test]
fn factorization_failure_surfaces_as_error_not_panic() {
    // A non-SPD "covariance" (nonsense parameters can produce one through
    // approximation): the solver reports NotPositiveDefinite and the MLE
    // objective treats it as out-of-model.
    let (locs, _z) = dataset(200, MaternParams::new(1.0, 0.1, 0.5), 71);
    // Duplicate every location: exactly singular covariance.
    let mut dup = locs.clone();
    dup.extend_from_slice(&locs);
    let kernel = Matern::new(MaternParams::new(1.0, 0.1, 0.5));
    let z = vec![0.0; dup.len()];
    let cfg = TlrConfig::new(Variant::DenseF64, 100);
    let res = log_likelihood_engine(
        &kernel,
        &dup,
        &z,
        &cfg,
        &tlr_model(),
        &FactorEngine::Sequential,
    );
    assert!(res.is_err(), "singular covariance must fail cleanly");
}
