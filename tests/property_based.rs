//! Property-based tests (proptest) on the numerical core's invariants.

use exageostat_rs::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn finite_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn half_roundtrip_never_increases_magnitude_error_beyond_unit_roundoff(
        x in -60000.0f64..60000.0
    ) {
        let r = Half::from_f64(x).to_f64();
        // For normal-range values the relative error is bounded by u16.
        if x.abs() >= 6.104e-5 {
            prop_assert!(((r - x) / x).abs() <= 4.8828125e-4);
        } else {
            // Subnormal/underflow: absolute error bounded by the smallest
            // subnormal step.
            prop_assert!((r - x).abs() <= 5.97e-8);
        }
    }

    #[test]
    fn gemm_is_linear_in_alpha(a in finite_matrix(6, 4), b in finite_matrix(4, 5)) {
        let c1 = a.matmul(&b);
        let mut a2 = a.clone();
        a2.scale(2.0);
        let c2 = a2.matmul(&b);
        for (x, y) in c1.as_slice().iter().zip(c2.as_slice()) {
            prop_assert!((2.0 * x - y).abs() <= 1e-9 * (x.abs().max(1.0)));
        }
    }

    #[test]
    fn svd_reconstruction_and_ordering(a in finite_matrix(8, 6)) {
        let svd = xgs_linalg::jacobi_svd(&a);
        let rec = svd.reconstruct();
        let err = rec.add_scaled(-1.0, &a).norm_fro();
        prop_assert!(err <= 1e-9 * a.norm_fro().max(1e-12), "err {}", err);
        for w in svd.s.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
        // Eckart-Young sanity: Frobenius norm identity.
        let s_norm: f64 = svd.s.iter().map(|s| s * s).sum::<f64>().sqrt();
        prop_assert!((s_norm - a.norm_fro()).abs() <= 1e-9 * a.norm_fro().max(1e-12));
    }

    #[test]
    fn aca_respects_any_tolerance(a in finite_matrix(10, 10), tol_frac in 0.001f64..0.5) {
        let tol = tol_frac * a.norm_fro().max(1e-12);
        let (u, v) = xgs_linalg::aca(&a, tol, 10);
        let err = a.add_scaled(-1.0, &u.matmul_t(&v)).norm_fro();
        prop_assert!(err <= tol * (1.0 + 1e-9), "err {} tol {}", err, tol);
    }

    #[test]
    fn lowrank_rounded_addition_error_is_bounded(
        seed in 0u64..1000,
        tol_frac in 0.0001f64..0.01,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rnd = |rows: usize, cols: usize, rng: &mut StdRng| {
            use rand::RngExt;
            Matrix::from_fn(rows, cols, |_, _| rng.random_range(-1.0..1.0))
        };
        let a = LowRank { u: rnd(12, 3, &mut rng), v: rnd(9, 3, &mut rng) };
        let b = LowRank { u: rnd(12, 2, &mut rng), v: rnd(9, 2, &mut rng) };
        let exact = a.reconstruct().add_scaled(-1.0, &b.reconstruct());
        let tol = tol_frac * exact.norm_fro().max(1e-12);
        let sum = a.add_rounded(-1.0, &b, tol);
        let err = sum.reconstruct().add_scaled(-1.0, &exact).norm_fro();
        prop_assert!(err <= tol * (1.0 + 1e-6), "err {} tol {}", err, tol);
    }

    #[test]
    fn matern_is_a_valid_correlation(nu in 0.11f64..4.0, t in 0.0f64..40.0) {
        let c = matern_correlation(nu, t);
        prop_assert!((0.0..=1.0).contains(&c), "M_{}({}) = {}", nu, t, c);
    }

    #[test]
    fn bessel_recurrence_property(nu in 1.01f64..4.0, x in 0.05f64..15.0) {
        let lhs = bessel_k(nu + 1.0, x);
        let rhs = bessel_k(nu - 1.0, x) + 2.0 * nu / x * bessel_k(nu, x);
        prop_assert!(((lhs - rhs) / lhs).abs() < 1e-8, "nu={} x={}", nu, x);
    }

    #[test]
    fn precision_rule_respects_its_bound(
        tile_norm in 1e-20f64..1e3,
        global_norm in 1e-3f64..1e6,
        nt in 2usize..500,
    ) {
        let p = xgs_tile::precision_for_tile(10, 0, 1, tile_norm, global_norm, nt, true);
        if p != Precision::F64 {
            // If demoted, the tile's worst-case storage error stays within
            // its share of the global budget.
            let u_high = Precision::F64.unit_roundoff();
            let err = p.unit_roundoff() * tile_norm;
            prop_assert!(err <= u_high * global_norm / nt as f64 * (1.0 + 1e-12));
        }
    }
}

proptest! {
    // Heavier cases: fewer iterations.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn tile_cholesky_reconstructs_random_spd_matrices(seed in 0u64..10_000) {
        use xgs_cholesky::TiledFactor;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut locs = jittered_grid(180, &mut rng);
        morton_order(&mut locs);
        // Random-but-valid Matérn parameters.
        use rand::RngExt;
        let params = MaternParams::new(
            rng.random_range(0.3..3.0),
            rng.random_range(0.02..0.4),
            rng.random_range(0.3..2.4),
        );
        let kernel = Matern::new(params);
        let exact = xgs_covariance::covariance_matrix(&kernel, &locs);
        let m = SymTileMatrix::generate(
            &kernel,
            &locs,
            TlrConfig::new(Variant::DenseF64, 45),
            &FlopKernelModel::default(),
        );
        let mut f = TiledFactor::from_matrix(m);
        f.factorize_seq().unwrap();
        let l = f.to_dense_lower();
        let rec = l.matmul_t(&l);
        let mut err = 0.0f64;
        for j in 0..exact.cols() {
            for i in j..exact.rows() {
                let d: f64 = rec[(i, j)] - exact[(i, j)];
                err += d * d * if i == j { 1.0 } else { 2.0 };
            }
        }
        prop_assert!(
            err.sqrt() <= 1e-9 * exact.norm_fro(),
            "residual {} for params {:?}",
            err.sqrt(),
            params
        );
    }

    #[test]
    fn dense_likelihood_matches_an_independent_entrywise_assembly(seed in 0u64..10_000) {
        // The estimator's value held against something other than itself:
        // Σ(θ) entry by entry from the scalar `matern_correlation` (no
        // per-ν evaluator, no table, no tiles) and a plain dense Cholesky.
        // θ within ±10 % of (0.67, 0.17, 0.44) on [0,14]² — well
        // conditioned, ν on the general Bessel path.
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut locs = jittered_grid(400, &mut rng);
        for l in &mut locs {
            (l.x, l.y) = (14.0 * l.x, 14.0 * l.y);
        }
        morton_order(&mut locs);
        let [sigma2, range, nu] = [0.67, 0.17, 0.44].map(|c| c * rng.random_range(0.9..1.1));
        let kernel = Matern::new(MaternParams::new(sigma2, range, nu));
        let z = simulate_field(&kernel, &locs, seed);
        let cfg = TlrConfig::new(Variant::DenseF64, 64);
        let got = log_likelihood(&kernel, &locs, &z, &cfg, &FlopKernelModel::default(), 1)
            .unwrap()
            .llh;

        let n = locs.len();
        let mut l = Matrix::from_fn(n, n, |i, j| {
            sigma2 * matern_correlation(nu, locs[i].dist_space(&locs[j]) / range)
        });
        xgs_linalg::cholesky_in_place(&mut l).unwrap();
        let mut w = z.clone();
        xgs_linalg::cholesky_solve(&l, &mut w);
        let quad: f64 = z.iter().zip(&w).map(|(a, b)| a * b).sum();
        let want = -0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln()
            - 0.5 * xgs_linalg::cholesky_logdet(&l)
            - 0.5 * quad;
        prop_assert!(
            ((got - want) / want).abs() <= 1e-8,
            "ℓ({sigma2}, {range}, {nu}) = {got}, entrywise assembly gives {want}"
        );
    }

    #[test]
    fn sharded_cholesky_is_bitwise_identical_to_sequential(
        seed in 0u64..10_000,
        shards in 1usize..7,
    ) {
        // The multi-process backend (here: a fleet of in-process worker
        // loops over real loopback sockets, same wire protocol as
        // separate processes) must reproduce the sequential factor bit
        // for bit on random Matérn problems — every tile grid vs process
        // grid combination, including the 1×1 grid and more workers than
        // tiles (nb = 85 gives a 2×2 tile grid; shards ≥ 5 then idle).
        use xgs_cholesky::{ShardBackend, TiledFactor};
        use xgs_fleet::{FleetConfig, Supervisor};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut locs = jittered_grid(160, &mut rng);
        morton_order(&mut locs);
        use rand::RngExt;
        let params = MaternParams::new(
            rng.random_range(0.3..3.0),
            rng.random_range(0.02..0.4),
            rng.random_range(0.3..2.4),
        );
        let kernel = Matern::new(params);
        let nb = [30, 45, 85][(seed % 3) as usize];
        let variant = if seed % 2 == 0 { Variant::DenseF64 } else { Variant::MpDense };
        let cfg = TlrConfig::new(variant, nb);
        let generate = || SymTileMatrix::generate(&kernel, &locs, cfg, &FlopKernelModel::default());

        let mut seq = TiledFactor::from_matrix(generate());
        seq.factorize_seq().unwrap();

        let mut sharded = TiledFactor::from_matrix(generate());
        let fleet = Supervisor::start(FleetConfig::threads(shards)).unwrap();
        let rep = fleet.factorize(&mut sharded).unwrap();

        let (a, b) = (seq.to_dense_lower(), sharded.to_dense_lower());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            prop_assert!(x.to_bits() == y.to_bits(), "params {:?}: {x} vs {y}", params);
        }
        prop_assert_eq!(rep.worker_tasks.iter().sum::<u64>() as usize, rep.metrics.tasks);
    }

    #[test]
    fn batched_kriging_matches_pointwise_queries(
        seed in 0u64..10_000,
        n_test in 1usize..24,
        uncertainty in (0usize..2).prop_map(|u| u == 1),
    ) {
        // The server coalesces concurrent requests into one multi-RHS
        // query; batching must never change results. Point-by-point
        // queries are the finest possible batch split, so full-batch vs
        // singletons covers every split. The acceptance bar is 1e-12 but
        // the kernels are column-independent, so we can demand bit
        // equality outright.
        use exageostat_rs::server::build_plan;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut locs = jittered_grid(120, &mut rng);
        morton_order(&mut locs);
        let kernel = ModelFamily::MaternSpace.kernel(&[1.0, 0.1, 0.5]);
        let z = simulate_field(kernel.as_ref(), &locs, seed);
        let (plan, _) = build_plan(
            ModelFamily::MaternSpace,
            &[1.0, 0.1, 0.5],
            Variant::DenseF64,
            40,
            locs,
            &z,
            1,
        )
        .unwrap();
        use rand::RngExt;
        let points: Vec<Location> = (0..n_test)
            .map(|_| Location::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
            .collect();
        let batched = plan.query(&points, uncertainty);
        for (i, p) in points.iter().enumerate() {
            let single = plan.query(std::slice::from_ref(p), uncertainty);
            prop_assert!((batched.mean[i] - single.mean[0]).abs() <= 1e-12);
            prop_assert_eq!(batched.mean[i].to_bits(), single.mean[0].to_bits());
            if uncertainty {
                let bu = batched.uncertainty.as_ref().unwrap()[i];
                let su = single.uncertainty.as_ref().unwrap()[0];
                prop_assert_eq!(bu.to_bits(), su.to_bits());
            }
        }
    }

    #[test]
    fn mixed_precision_factor_predicts_like_fp64(seed in 0u64..10_000) {
        // Caching an adaptively demoted (mixed-precision) factor in the
        // model registry must not visibly move predictions relative to the
        // all-FP64 factor of the same Σ(θ): the precision rule bounds each
        // tile's storage error by its share of the FP64-level global
        // budget.
        use exageostat_rs::server::build_plan;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut locs = jittered_grid(150, &mut rng);
        morton_order(&mut locs);
        let kernel = ModelFamily::MaternSpace.kernel(&[1.0, 0.1, 0.5]);
        let z = simulate_field(kernel.as_ref(), &locs, seed);
        use rand::RngExt;
        let points: Vec<Location> = (0..12)
            .map(|_| Location::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
            .collect();
        let (p64, llh64) = build_plan(
            ModelFamily::MaternSpace,
            &[1.0, 0.1, 0.5],
            Variant::DenseF64,
            40,
            locs.clone(),
            &z,
            1,
        )
        .unwrap();
        let (pmp, llhmp) = build_plan(
            ModelFamily::MaternSpace,
            &[1.0, 0.1, 0.5],
            Variant::MpDense,
            40,
            locs,
            &z,
            1,
        )
        .unwrap();
        prop_assert!((llh64 - llhmp).abs() <= 1e-4 * llh64.abs().max(1.0));
        let a = p64.query(&points, true);
        let b = pmp.query(&points, true);
        for (x, y) in a.mean.iter().zip(&b.mean) {
            prop_assert!((x - y).abs() <= 1e-5 * x.abs().max(1.0), "{x} vs {y}");
        }
        for (x, y) in a
            .uncertainty
            .as_ref()
            .unwrap()
            .iter()
            .zip(b.uncertainty.as_ref().unwrap())
        {
            prop_assert!((x - y).abs() <= 1e-5 * x.abs().max(1.0), "{x} vs {y}");
        }
    }

    #[test]
    fn runtime_schedules_random_dags_sequentially_consistently(seed in 0u64..10_000) {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        fn build(seed: u64, cells: Arc<Vec<AtomicU64>>) -> TaskGraph {
            let mut g = TaskGraph::new();
            let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            for _ in 0..120 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                let a = ((s >> 8) % 8) as usize;
                let b = ((s >> 16) % 8) as usize;
                let c = cells.clone();
                g.insert(
                    "mix",
                    vec![Access::read(DataId(a as u64)), Access::write(DataId(b as u64))],
                    ((s >> 24) % 5) as i64,
                    0.0,
                    move || {
                        let x = c[a].load(Ordering::SeqCst);
                        let y = c[b].load(Ordering::SeqCst);
                        c[b].store(y.wrapping_mul(1099511628211).wrapping_add(x), Ordering::SeqCst);
                    },
                );
            }
            g
        }
        let seq: Arc<Vec<AtomicU64>> = Arc::new((0..8).map(AtomicU64::new).collect());
        execute(build(seed, seq.clone()), 1, false);
        let par: Arc<Vec<AtomicU64>> = Arc::new((0..8).map(AtomicU64::new).collect());
        execute(build(seed, par.clone()), 4, false);
        for i in 0..8 {
            prop_assert_eq!(
                seq[i].load(std::sync::atomic::Ordering::SeqCst),
                par[i].load(std::sync::atomic::Ordering::SeqCst)
            );
        }
    }
}
