//! The far-field set the engine-vs-engine suites share with the repo
//! benchmark.
//!
//! On the unit square the smallest covariance is about 5e-5, so no `f32`
//! product of the mixed-precision kernels ever leaves the normal range.
//! Spread over the benchmark's 14 × 14 domain, tiles far from the diagonal
//! hold covariances of 1e-13 and below: the adaptive rule stores them in
//! FP32/FP16, and FP32-receiver updates form products below
//! `f32::MIN_POSITIVE` — the ones the kernels flush to zero.

use exageostat_rs::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `n` sites over a 14 × 14 square in Morton order, at the Matérn θ =
/// (0.67, 0.17, 0.44) of the benchmark's `field` data.
pub fn far_field_matrix(n: usize, nb: usize, seed: u64, variant: Variant) -> SymTileMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut locs = jittered_grid(n, &mut rng);
    for l in &mut locs {
        l.x *= 14.0;
        l.y *= 14.0;
    }
    morton_order(&mut locs);
    let kernel = Matern::new(MaternParams::new(0.67, 0.17, 0.44));
    SymTileMatrix::generate(
        &kernel,
        &locs,
        TlrConfig::new(variant, nb),
        &FlopKernelModel::default(),
    )
}

/// How many FP32-receiver updates `C_ij -= L_ik L_jkᵀ` of the factored `f`
/// multiply two demoted operands into a nonzero product below
/// `f32::MIN_POSITIVE`. The panel tiles are final once solved, so the
/// factor holds every operand the update read; per inner index `l` the
/// smallest nonzero entries of the two columns give the smallest product.
pub fn subnormal_f32_updates(f: &TiledFactor) -> usize {
    let nt = f.nt();
    let smallest = |t: &Matrix, l: usize| {
        (0..t.rows())
            .map(|r| (t[(r, l)] as f32).abs())
            .filter(|x| *x > 0.0)
            .fold(f32::INFINITY, f32::min) as f64
    };
    let mut updates = 0;
    for k in 0..nt {
        for j in k + 1..nt {
            for i in j + 1..nt {
                if f.with_tile(i, j, |t| t.precision) != Precision::F32 {
                    continue;
                }
                let (a, b) = (f.tile_clone(i, k).to_dense(), f.tile_clone(j, k).to_dense());
                if (0..a.cols())
                    .any(|l| smallest(&a, l) * smallest(&b, l) < f32::MIN_POSITIVE as f64)
                {
                    updates += 1;
                }
            }
        }
    }
    updates
}

/// How many trailing updates `C_ij -= L_ik L_jkᵀ` of `f` write an FP64
/// dense off-diagonal tile from at least one low-rank operand: the updates
/// the GEMM kernel applies as a factored product. Tile structure and
/// precision are fixed at generation, so `f` may be factored or not.
pub fn fp64_dense_updates_with_low_rank_operand(f: &TiledFactor) -> usize {
    let nt = f.nt();
    let low_rank = |i: usize, j: usize| f.with_tile(i, j, |t| !t.is_dense());
    let mut updates = 0;
    for k in 0..nt {
        for j in k + 1..nt {
            for i in j + 1..nt {
                let fp64_dense =
                    f.with_tile(i, j, |t| t.is_dense() && t.precision == Precision::F64);
                if fp64_dense && (low_rank(i, k) || low_rank(j, k)) {
                    updates += 1;
                }
            }
        }
    }
    updates
}
