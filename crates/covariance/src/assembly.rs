//! Covariance matrix assembly from locations + a kernel.
//!
//! The generation phase of the paper's pipeline: `Σ(θ)_{ij} = C(s_i - s_j)`.
//! Assembly fans out per-column chunks across the shared work-stealing
//! pool (`rayon::par_chunks_mut`), and the blocked
//! entry point [`cov_block`] is what the tile layer calls to generate one
//! tile at a time without ever materializing the full matrix. Both fill a
//! column per [`CovarianceKernel::cov_column`] call, so a `&dyn` kernel is
//! dispatched once per column and its entry loop is compiled per kernel.

use crate::locations::Location;
use crate::matern::Matern;
use crate::spacetime::GneitingSpaceTime;
use rayon::prelude::*;
use xgs_linalg::Matrix;

/// A stationary covariance kernel over (space, time) lags.
///
/// Object-safe so the MLE engine can hold `&dyn CovarianceKernel` and the
/// same tile machinery serves both the space and space–time models.
pub trait CovarianceKernel: Send + Sync {
    /// Covariance between two sites.
    fn cov(&self, a: &Location, b: &Location) -> f64;

    /// One column of a covariance block: `out[i] = cov(rows[i], col)`,
    /// bit for bit.
    fn cov_column(&self, rows: &[Location], col: &Location, out: &mut [f64]) {
        for (o, r) in out.iter_mut().zip(rows) {
            *o = self.cov(r, col);
        }
    }

    /// Marginal variance `C(s, s) = σ²`.
    fn variance(&self) -> f64;

    /// Number of parameters (3 for Matérn space, 6 for Gneiting
    /// space–time) — used by optimizers and reports.
    fn n_params(&self) -> usize;
}

impl CovarianceKernel for Matern {
    #[inline]
    fn cov(&self, a: &Location, b: &Location) -> f64 {
        self.cov_at_distance(a.dist_space(b))
    }

    /// Two passes, distances then the correlation in place: half the time
    /// per entry of the default body (EXPERIMENTS.md "Assembly at table
    /// speed").
    fn cov_column(&self, rows: &[Location], col: &Location, out: &mut [f64]) {
        for (o, r) in out.iter_mut().zip(rows) {
            *o = r.dist_space(col);
        }
        for o in out.iter_mut() {
            *o = self.cov_at_distance(*o);
        }
    }

    fn variance(&self) -> f64 {
        self.params.sigma2
    }

    fn n_params(&self) -> usize {
        3
    }
}

impl CovarianceKernel for GneitingSpaceTime {
    #[inline]
    fn cov(&self, a: &Location, b: &Location) -> f64 {
        GneitingSpaceTime::cov(self, a.dist_space(b), a.lag_time(b))
    }

    fn variance(&self) -> f64 {
        self.params.sigma2
    }

    fn n_params(&self) -> usize {
        6
    }
}

/// Dense `n x n` covariance matrix (both triangles filled), assembled in
/// parallel over columns.
pub fn covariance_matrix(kernel: &dyn CovarianceKernel, locs: &[Location]) -> Matrix {
    let n = locs.len();
    let mut data = vec![0.0f64; n * n];
    data.par_chunks_mut(n)
        .enumerate()
        .for_each(|(j, col)| kernel.cov_column(locs, &locs[j], col));
    Matrix::from_vec(n, n, data)
}

/// One rectangular block `C[rows, cols]` of the covariance, used to
/// generate a single tile (`rows`/`cols` are slices of the global ordered
/// location list).
pub fn cov_block(kernel: &dyn CovarianceKernel, rows: &[Location], cols: &[Location]) -> Matrix {
    let m = rows.len();
    let n = cols.len();
    let mut data = vec![0.0f64; m * n];
    if m > 0 {
        for (col, cj) in data.chunks_exact_mut(m).zip(cols) {
            kernel.cov_column(rows, cj, col);
        }
    }
    Matrix::from_vec(m, n, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locations::jittered_grid;
    use crate::matern::MaternParams;
    use crate::spacetime::SpaceTimeParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn locs(n: usize, seed: u64) -> Vec<Location> {
        let mut rng = StdRng::seed_from_u64(seed);
        jittered_grid(n, &mut rng)
    }

    #[test]
    fn matrix_is_symmetric_with_variance_diagonal() {
        let kernel = Matern::new(MaternParams::new(1.3, 0.2, 0.8));
        let ls = locs(60, 1);
        let c = covariance_matrix(&kernel, &ls);
        for i in 0..60 {
            assert!((c[(i, i)] - 1.3).abs() < 1e-14);
            for j in 0..i {
                assert_eq!(c[(i, j)], c[(j, i)]);
            }
        }
    }

    #[test]
    fn matrix_is_positive_definite() {
        let kernel = Matern::new(MaternParams::new(1.0, 0.1, 0.5));
        let ls = locs(80, 2);
        let mut c = covariance_matrix(&kernel, &ls);
        xgs_linalg::cholesky_in_place(&mut c).expect("Matérn covariance must be SPD");
    }

    #[test]
    fn spacetime_matrix_is_positive_definite() {
        let kernel = GneitingSpaceTime::new(SpaceTimeParams::new(1.0, 0.3, 1.0, 0.5, 0.9, 0.5));
        let space = locs(20, 3);
        let st = crate::locations::spacetime_grid(&space, 4);
        let mut c = covariance_matrix(&kernel, &st);
        xgs_linalg::cholesky_in_place(&mut c).expect("Gneiting covariance must be SPD");
    }

    #[test]
    fn blocks_agree_with_full_matrix() {
        let kernel = Matern::new(MaternParams::new(1.0, 0.15, 1.5));
        let ls = locs(40, 4);
        let full = covariance_matrix(&kernel, &ls);
        let block = cov_block(&kernel, &ls[10..20], &ls[25..40]);
        for j in 0..15 {
            for i in 0..10 {
                assert_eq!(block[(i, j)], full[(10 + i, 25 + j)]);
            }
        }
    }

    #[test]
    fn column_assembly_is_entrywise_cov_for_every_kernel() {
        use crate::kernels_extra::{GeneralizedCauchy, PoweredExponential, WithNugget};
        // Wide enough that the general-ν Matérn meets t <= 2, several table
        // panels and coincident sites (rows and cols overlap).
        let mut space = locs(90, 6);
        for l in &mut space {
            (l.x, l.y) = (l.x * 3.0, l.y * 3.0);
        }
        let st = crate::locations::spacetime_grid(&space[..30], 3);
        let general = Matern::new(MaternParams::new(0.67, 0.17, 0.44));
        let kernels: [(&dyn CovarianceKernel, &[Location]); 6] = [
            (&general, &space),
            (&Matern::new(MaternParams::new(1.0, 0.15, 1.5)), &space),
            (&WithNugget::new(general, 0.1), &space),
            (&PoweredExponential::new(1.3, 0.2, 1.7), &space),
            (&GeneralizedCauchy::new(1.0, 0.2, 1.5, 0.8), &space),
            (
                &GneitingSpaceTime::new(SpaceTimeParams::new(1.0, 0.3, 0.8, 0.5, 0.9, 0.5)),
                &st,
            ),
        ];
        for (k, (kernel, ls)) in kernels.into_iter().enumerate() {
            let (rows, cols) = (&ls[10..70], &ls[40..90]);
            let block = cov_block(kernel, rows, cols);
            for (j, cj) in cols.iter().enumerate() {
                for (i, ri) in rows.iter().enumerate() {
                    let want = kernel.cov(ri, cj);
                    assert_eq!(
                        block[(i, j)].to_bits(),
                        want.to_bits(),
                        "kernel {k} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn off_diagonal_blocks_are_low_rank_after_morton() {
        // The paper's premise: with locality ordering, distant blocks
        // compress aggressively at 1e-8.
        let kernel = Matern::new(MaternParams::new(1.0, 0.1, 0.5));
        let mut ls = locs(256, 5);
        crate::locations::morton_order(&mut ls);
        let block = cov_block(&kernel, &ls[0..64], &ls[192..256]);
        let tol = 1e-8 * block.norm_fro().max(1e-300);
        let (_, _, rank) = xgs_linalg::truncated_svd(&block, tol);
        assert!(
            rank < 48,
            "distant tile should be numerically low-rank, got {rank}"
        );
    }
}
