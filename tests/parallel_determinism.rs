//! Determinism under parallelism: every rayon-fanned path must produce
//! bitwise-identical results on a 1-thread pool and an N-thread pool.
//!
//! This is the repo's core reproducibility contract extended to the real
//! work-stealing pool: chunk *scheduling* may race, but each chunk's
//! arithmetic is independent of which worker runs it and of how many
//! workers exist, and order-preserving `collect` reassembles results by
//! chunk index. These tests pin that contract for the three rayon call
//! sites — covariance assembly (`par_chunks_mut`), tile generation
//! (`par_iter().map().collect()`), and PSO particle evaluation — plus a
//! full fit on top of all three, whose parallel factorizations run their
//! worker loops on that same pool (nested under the PSO fan-out, they
//! share its threads instead of adding their own).

use exageostat_rs::core::{FactorEngine, PsoOptions};
use exageostat_rs::covariance::covariance_matrix;
use exageostat_rs::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::ThreadPoolBuilder;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

mod common;

/// Run `f` with the thread-local pool forced to `threads` workers.
fn with_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool builds")
        .install(f)
}

fn dataset(n: usize, seed: u64) -> (Vec<Location>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut locs = jittered_grid(n, &mut rng);
    morton_order(&mut locs);
    let z = simulate_field(
        &Matern::new(MaternParams::new(1.0, 0.09, 0.6)),
        &locs,
        seed + 1,
    );
    (locs, z)
}

#[test]
fn covariance_assembly_is_bitwise_identical_across_pool_sizes() {
    let (locs, _) = dataset(400, 7);
    let kernel = Matern::new(MaternParams::new(0.9, 0.13, 0.48));
    let one = with_pool(1, || covariance_matrix(&kernel, &locs));
    let many = with_pool(4, || covariance_matrix(&kernel, &locs));
    // Bitwise, not approximate: same chunk arithmetic regardless of who
    // runs it, order restored by index.
    assert_eq!(one.as_slice(), many.as_slice());
}

#[test]
fn pso_objective_fanout_is_bitwise_identical_across_pool_sizes() {
    // Rosenbrock-ish objective, expensive enough for chunks > 1 particle.
    let obj = |x: &[f64]| -> f64 {
        x.windows(2)
            .map(|w| 100.0 * (w[1] - w[0] * w[0]).powi(2) + (1.0 - w[0]).powi(2))
            .sum()
    };
    let bounds = vec![(-2.0, 2.0); 4];
    let opts = PsoOptions {
        particles: 24,
        iterations: 30,
        ..PsoOptions::default()
    };
    // The 1-thread pool evaluates the swarm sequentially: the reference.
    let one = with_pool(1, || particle_swarm(obj, &bounds, &opts));
    let many = with_pool(4, || particle_swarm(obj, &bounds, &opts));
    assert_eq!(one.x, many.x);
    assert_eq!(one.f.to_bits(), many.f.to_bits());
    assert_eq!(one.history, many.history);
}

#[test]
fn executions_nested_under_pso_share_the_pool() {
    // Every particle runs a 4-loop graph execution. On a 3-thread pool at
    // most 4 threads (the pool's and the installing one) can be inside
    // task closures at any moment, however many executions are in flight.
    let inside = Arc::new(AtomicUsize::new(0));
    let high_water = Arc::new(AtomicUsize::new(0));
    let obj = |x: &[f64]| -> f64 {
        let mut g = TaskGraph::new();
        for i in 0..32u64 {
            let (inside, high_water) = (inside.clone(), high_water.clone());
            g.insert("probe", vec![Access::write(DataId(i))], 0, 0.0, move || {
                let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                high_water.fetch_max(now, Ordering::SeqCst);
                // Hold the slot long enough for siblings to overlap.
                std::thread::sleep(std::time::Duration::from_micros(200));
                inside.fetch_sub(1, Ordering::SeqCst);
            });
        }
        xgs_runtime::execute(g, 4, false);
        x.iter().map(|v| v * v).sum()
    };
    let opts = PsoOptions {
        particles: 12,
        iterations: 3,
        ..PsoOptions::default()
    };
    with_pool(3, || particle_swarm(obj, &[(-1.0, 1.0); 2], &opts));
    let peak = high_water.load(Ordering::SeqCst);
    assert!((1..=4).contains(&peak), "{peak} threads inside tasks");
}

#[test]
fn tile_cholesky_factor_is_bitwise_identical_across_pool_sizes() {
    let (locs, _) = dataset(600, 21);
    let kernel = Matern::new(MaternParams::new(1.1, 0.08, 0.5));
    let model = FlopKernelModel {
        dense_rate: 45.0e9,
        mem_factor: 1.0,
    };
    // MpDenseTlr exercises every tile format the generator can emit
    // (dense f64/f32/f16 and low-rank) through the pool-fanned
    // par_iter generation path.
    let factor = |threads: usize| {
        with_pool(threads, || {
            let m = SymTileMatrix::generate(
                &kernel,
                &locs,
                TlrConfig::new(Variant::MpDenseTlr, 75),
                &model,
            );
            let mut f = TiledFactor::from_matrix(m);
            // The factored dense-receiver GEMM runs in this factor.
            assert!(
                common::fp64_dense_updates_with_low_rank_operand(&f) > 0,
                "no FP64 dense tile takes a low-rank operand"
            );
            f.factorize_seq().expect("SPD");
            f.to_dense_lower()
        })
    };
    let one = factor(1);
    let many = factor(4);
    assert_eq!(one.as_slice(), many.as_slice());

    // The benchmark's far field in MpDense, factored by `threads` worker
    // loops on the same pool: its FP32 tasks run flushed on whichever
    // thread picks them up.
    let far_factor = |threads: usize| {
        with_pool(threads, || {
            let m = common::far_field_matrix(400, 50, 11, Variant::MpDense);
            let f = Arc::new(TiledFactor::from_matrix(m));
            f.factorize_parallel(threads).0.expect("SPD");
            assert!(
                common::subnormal_f32_updates(&f) > 0,
                "no FP32 update reaches the subnormal range"
            );
            f.to_dense_lower()
        })
    };
    let one = far_factor(1);
    let many = far_factor(4);
    assert_eq!(one.as_slice(), many.as_slice());
}

#[test]
fn full_fit_is_bitwise_identical_across_pool_sizes() {
    let (locs, z) = dataset(300, 33);
    let model = FlopKernelModel {
        dense_rate: 45.0e9,
        mem_factor: 1.0,
    };
    let cfg = TlrConfig::new(Variant::DenseF64, 64);
    let run = |threads: usize, workers: usize| {
        with_pool(threads, || {
            let opts = FitOptions {
                engine: FactorEngine::from_workers(workers),
                optimizer: exageostat_rs::core::mle::FitOptimizer::ParticleSwarm(PsoOptions {
                    particles: 6,
                    iterations: 4,
                    ..PsoOptions::default()
                }),
                ..FitOptions::default()
            };
            fit(ModelFamily::MaternSpace, &locs, &z, &cfg, &model, &opts)
        })
    };
    // workers = 4 nests a 4-loop factorization under every PSO particle.
    for workers in [1, 4] {
        let one = run(1, workers);
        let many = run(4, workers);
        assert_eq!(one.llh.to_bits(), many.llh.to_bits());
        for (a, b) in one.theta.iter().zip(&many.theta) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(one.evals, many.evals);
    }
}
