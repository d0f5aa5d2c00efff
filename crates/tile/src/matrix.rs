//! The symmetric tiled covariance matrix and its generation pipeline.
//!
//! Generation follows the paper's order of operations: tiles are generated
//! (in parallel) from the covariance kernel, the global Frobenius norm is
//! accumulated tile-by-tile *during* generation ("a copy of the global
//! matrix need not be stored"), then the precision-aware and
//! structure-aware decisions assign each tile its format, "right after the
//! generation/compression of the matrix and just before the Cholesky
//! factorization starts".

use crate::band::auto_tune_band_size;
use crate::decisions::{
    precision_for_tile_with_rule, tile_prefers_dense, KernelTimeModel, PrecisionRule,
};
use crate::layout::TileLayout;
use crate::tile::{Tile, TileStorage};
use rayon::prelude::*;
use xgs_covariance::{cov_block, CovarianceKernel, Location};
use xgs_kernels::Precision;
use xgs_linalg::{LowRank, Matrix};

/// The three Cholesky variants benchmarked throughout the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Reference: every tile dense FP64.
    DenseF64,
    /// Mixed-precision dense: FP64/FP32/FP16 tiles, all dense.
    MpDense,
    /// The paper's contribution: mixed precision + dense/TLR structure.
    MpDenseTlr,
}

impl Variant {
    pub fn name(self) -> &'static str {
        match self {
            Variant::DenseF64 => "dense-fp64",
            Variant::MpDense => "mp-dense",
            Variant::MpDenseTlr => "mp-dense-tlr",
        }
    }
}

/// Configuration of the tiled representation.
#[derive(Clone, Copy, Debug)]
pub struct TlrConfig {
    pub tile_size: usize,
    pub variant: Variant,
    /// TLR accuracy threshold, relative to each tile's Frobenius norm
    /// (the paper runs 1e-8).
    pub tlr_tolerance: f64,
    /// Dense band half-width in tiles: tiles with `|i-j| < band` stay dense
    /// FP64. `None` = auto-tune via Algorithm 2 at generation time.
    pub band_size_dense: Option<usize>,
    /// Allow FP16 storage for far-field tiles.
    pub allow_fp16: bool,
    /// Precision assignment scheme (adaptive norm rule by default; the
    /// band scheme of the paper's Fig. 2(c) is available for ablations).
    pub precision_rule: PrecisionRule,
}

impl TlrConfig {
    /// Paper-like defaults for a given variant.
    pub fn new(variant: Variant, tile_size: usize) -> TlrConfig {
        TlrConfig {
            tile_size,
            variant,
            tlr_tolerance: 1e-8,
            band_size_dense: None,
            allow_fp16: true,
            precision_rule: PrecisionRule::AdaptiveNorm,
        }
    }
}

/// Symmetric positive definite tiled matrix (lower triangle stored).
pub struct SymTileMatrix {
    layout: TileLayout,
    /// Packed lower-triangle tiles, column-major over tile indices
    /// (see [`TileLayout::stored_index`]).
    pub tiles: Vec<Tile>,
    /// Global Frobenius norm accumulated during generation.
    pub global_norm: f64,
    /// Effective dense band (after auto-tuning).
    pub band_size_dense: usize,
    pub config: TlrConfig,
}

impl SymTileMatrix {
    /// Generate the tiled covariance matrix for `locs` under `kernel`.
    ///
    /// `model` drives the structure-aware decision (ignored for the dense
    /// variants).
    pub fn generate(
        kernel: &dyn CovarianceKernel,
        locs: &[Location],
        config: TlrConfig,
        model: &dyn KernelTimeModel,
    ) -> SymTileMatrix {
        let n = locs.len();
        let layout = TileLayout::new(n, config.tile_size);
        let nt = layout.nt();

        // Pass 1: generate dense blocks (parallel) + their norms.
        let indices: Vec<(usize, usize)> =
            (0..nt).flat_map(|j| (j..nt).map(move |i| (i, j))).collect();
        let mut blocks: Vec<((usize, usize), Matrix, f64)> = indices
            .par_iter()
            .map(|&(i, j)| {
                let ri = layout.tile_range(i);
                let rj = layout.tile_range(j);
                let block = cov_block(kernel, &locs[ri], &locs[rj]);
                let norm = block.norm_fro();
                ((i, j), block, norm)
            })
            .collect();
        // Tile-by-tile global norm accumulation (off-diagonal counted twice:
        // the matrix is symmetric and we store only the lower half).
        let mut sq = 0.0f64;
        for ((i, j), _, norm) in &blocks {
            let w = if i == j { 1.0 } else { 2.0 };
            sq += w * norm * norm;
        }
        let global_norm = sq.sqrt();

        // Structure decision needs the rank distribution; compute ranks for
        // candidate TLR tiles first (only the TLR variant compresses).
        let tol_of = |tile_norm: f64| config.tlr_tolerance * tile_norm.max(f64::MIN_POSITIVE);

        let compressed: Vec<Option<LowRank>> = match config.variant {
            Variant::MpDenseTlr => blocks
                .par_iter()
                .map(|&((i, j), ref block, norm)| {
                    if i == j {
                        return None; // diagonal always dense
                    }
                    Some(LowRank::compress_aca(block, tol_of(norm)))
                })
                .collect(),
            _ => vec![None; blocks.len()],
        };

        // Auto-tune the dense band from the rank distribution (Algorithm 2)
        // unless pinned by the config.
        let band = match (config.variant, config.band_size_dense) {
            (Variant::MpDenseTlr, None) => {
                let ranks: Vec<(usize, usize, usize)> = indices
                    .iter()
                    .zip(&compressed)
                    .filter_map(|(&(i, j), lr)| lr.as_ref().map(|l| (i, j, l.rank())))
                    .collect();
                auto_tune_band_size(&ranks, nt, config.tile_size, model)
            }
            (_, explicit) => explicit.unwrap_or(1),
        };

        // Assemble tiles with both decisions applied.
        let tiles: Vec<Tile> = indices
            .iter()
            .enumerate()
            .map(|(idx, &(i, j))| {
                let (_, ref block, norm) = blocks[idx];
                // Precision pin covers the diagonal only: structure-band
                // tiles are dense but may still be FP32/FP16 (paper Fig. 9
                // shows mixed precisions inside the dense band).
                let precision = match config.variant {
                    Variant::DenseF64 => Precision::F64,
                    _ => precision_for_tile_with_rule(
                        config.precision_rule,
                        i,
                        j,
                        1,
                        norm,
                        global_norm,
                        nt,
                        config.allow_fp16,
                    ),
                };
                match (&compressed[idx], config.variant) {
                    (Some(lr), Variant::MpDenseTlr) if i.abs_diff(j) >= band => {
                        // Structure rule: revert to dense when the rank is
                        // past the crossover for this tile's precision.
                        let nb = layout.tile_dim(i).min(layout.tile_dim(j));
                        if tile_prefers_dense(model, nb, lr.rank(), precision) {
                            Tile::dense(block.clone(), precision)
                        } else {
                            // TLR path: FP64/FP32 only (no FP16 low-rank).
                            let p = if precision == Precision::F16 {
                                Precision::F32
                            } else {
                                precision
                            };
                            Tile::low_rank(lr.clone(), p)
                        }
                    }
                    _ => Tile::dense(block.clone(), precision),
                }
            })
            .collect();
        // Free the generation blocks before returning (they can be huge).
        blocks.clear();

        SymTileMatrix {
            layout,
            tiles,
            global_norm,
            band_size_dense: band,
            config,
        }
    }

    #[inline]
    pub fn layout(&self) -> TileLayout {
        self.layout
    }

    #[inline]
    pub fn nt(&self) -> usize {
        self.layout.nt()
    }

    #[inline]
    pub fn n(&self) -> usize {
        self.layout.n()
    }

    /// Borrow stored tile `(i, j)`, `i >= j`.
    pub fn tile(&self, i: usize, j: usize) -> &Tile {
        &self.tiles[self.layout.stored_index(i, j)]
    }

    pub fn tile_mut(&mut self, i: usize, j: usize) -> &mut Tile {
        let idx = self.layout.stored_index(i, j);
        &mut self.tiles[idx]
    }

    /// Total storage footprint in bytes under the assigned formats.
    pub fn footprint_bytes(&self) -> usize {
        // Off-diagonal tiles represent both halves of the symmetric matrix,
        // but like the paper we account the stored (lower) half once and
        // compare against a dense lower-half FP64 footprint.
        self.tiles.iter().map(Tile::footprint_bytes).sum()
    }

    /// Footprint of the same matrix stored fully dense in FP64 (lower half).
    pub fn dense_f64_footprint_bytes(&self) -> usize {
        let nt = self.nt();
        let mut total = 0usize;
        for j in 0..nt {
            for i in j..nt {
                total += self.layout.tile_dim(i) * self.layout.tile_dim(j) * 8;
            }
        }
        total
    }

    /// Reconstruct the full dense matrix (tests / small problems only).
    pub fn to_dense(&self) -> Matrix {
        let n = self.n();
        let nt = self.nt();
        let mut full = Matrix::zeros(n, n);
        for j in 0..nt {
            for i in j..nt {
                let block = self.tile(i, j).to_dense();
                let ri = self.layout.tile_range(i);
                let rj = self.layout.tile_range(j);
                for (bj, gj) in rj.clone().enumerate() {
                    for (bi, gi) in ri.clone().enumerate() {
                        full[(gi, gj)] = block[(bi, bj)];
                        full[(gj, gi)] = block[(bi, bj)];
                    }
                }
            }
        }
        full
    }

    /// Count tiles by (structure, precision) — the data behind Fig. 9.
    pub fn census(&self) -> TileCensus {
        let mut c = TileCensus::default();
        for t in &self.tiles {
            match (&t.storage, t.precision) {
                (TileStorage::Dense(_), Precision::F64) => c.dense_f64 += 1,
                (TileStorage::Dense(_), Precision::F32) => c.dense_f32 += 1,
                (TileStorage::Dense(_), Precision::F16) => c.dense_f16 += 1,
                (TileStorage::LowRank(_), Precision::F64) => c.lr_f64 += 1,
                (TileStorage::LowRank(_), _) => c.lr_f32 += 1,
            }
        }
        c
    }
}

/// Tile counts by format.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TileCensus {
    pub dense_f64: usize,
    pub dense_f32: usize,
    pub dense_f16: usize,
    pub lr_f64: usize,
    pub lr_f32: usize,
}

impl TileCensus {
    pub fn total(&self) -> usize {
        self.dense_f64 + self.dense_f32 + self.dense_f16 + self.lr_f64 + self.lr_f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decisions::FlopKernelModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xgs_covariance::{jittered_grid, morton_order, Matern, MaternParams};

    fn setup(n: usize, range: f64) -> (Matern, Vec<Location>) {
        let mut rng = StdRng::seed_from_u64(42);
        let mut locs = jittered_grid(n, &mut rng);
        morton_order(&mut locs);
        (Matern::new(MaternParams::new(1.0, range, 0.5)), locs)
    }

    #[test]
    fn dense_f64_variant_reconstructs_exactly() {
        let (kernel, locs) = setup(200, 0.1);
        let cfg = TlrConfig::new(Variant::DenseF64, 64);
        let m = SymTileMatrix::generate(&kernel, &locs, cfg, &FlopKernelModel::default());
        let dense = m.to_dense();
        let exact = xgs_covariance::covariance_matrix(&kernel, &locs);
        let err = dense.add_scaled(-1.0, &exact).norm_fro();
        assert_eq!(err, 0.0);
        let c = m.census();
        assert_eq!(c.dense_f64, c.total());
    }

    #[test]
    fn global_norm_matches_dense_norm() {
        let (kernel, locs) = setup(150, 0.1);
        let cfg = TlrConfig::new(Variant::DenseF64, 50);
        let m = SymTileMatrix::generate(&kernel, &locs, cfg, &FlopKernelModel::default());
        let exact = xgs_covariance::covariance_matrix(&kernel, &locs).norm_fro();
        assert!((m.global_norm - exact).abs() / exact < 1e-12);
    }

    #[test]
    fn mp_dense_error_within_paper_bound() {
        let (kernel, locs) = setup(256, 0.03); // weak correlation: many low tiles
        let cfg = TlrConfig::new(Variant::MpDense, 32);
        let m = SymTileMatrix::generate(&kernel, &locs, cfg, &FlopKernelModel::default());
        let approx = m.to_dense();
        let exact = xgs_covariance::covariance_matrix(&kernel, &locs);
        let err = approx.add_scaled(-1.0, &exact).norm_fro();
        // §VI-C bound: ||Â - A||_F <= u_high ||A||_F, with u_high = FP64
        // roundoff. Our rounding applies per entry so allow small slack.
        let bound = Precision::F64.unit_roundoff() * exact.norm_fro();
        assert!(err <= bound * 4.0, "err {err} vs bound {bound}");
    }

    /// Model that makes TLR attractive at small test-size tiles (the
    /// default A64FX calibration's crossover ~nb/13 would keep 32-64 wide
    /// test tiles dense, which is correct behaviour but not what these
    /// plumbing tests exercise).
    fn tlr_friendly_model() -> FlopKernelModel {
        FlopKernelModel {
            dense_rate: 45.0e9,
            mem_factor: 1.0,
        }
    }

    #[test]
    fn mp_tlr_error_within_tlr_tolerance() {
        let (kernel, locs) = setup(1024, 0.01);
        let mut cfg = TlrConfig::new(Variant::MpDenseTlr, 32);
        cfg.tlr_tolerance = 1e-8;
        let m = SymTileMatrix::generate(&kernel, &locs, cfg, &tlr_friendly_model());
        let approx = m.to_dense();
        let exact = xgs_covariance::covariance_matrix(&kernel, &locs);
        let err = approx.add_scaled(-1.0, &exact).norm_fro();
        // Every off-band tile compressed to 1e-8 * tile norm; the total is
        // well under 1e-6 relative.
        assert!(err <= 1e-6 * exact.norm_fro(), "err {err}");
        // And the TLR variant must actually contain low-rank tiles here.
        let c = m.census();
        assert!(c.lr_f32 + c.lr_f64 > 0, "census {c:?}");
    }

    #[test]
    fn weak_correlation_gives_more_low_precision_than_strong() {
        // The paper's Fig. 9 observation.
        let (weak_kernel, locs) = setup(400, 0.03);
        let strong_kernel = Matern::new(MaternParams::new(1.0, 0.3, 0.5));
        let cfg = TlrConfig::new(Variant::MpDense, 40);
        let model = FlopKernelModel::default();
        let mw = SymTileMatrix::generate(&weak_kernel, &locs, cfg, &model);
        let ms = SymTileMatrix::generate(&strong_kernel, &locs, cfg, &model);
        let cw = mw.census();
        let cs = ms.census();
        let low_w = cw.dense_f32 + cw.dense_f16;
        let low_s = cs.dense_f32 + cs.dense_f16;
        assert!(
            low_w >= low_s,
            "weak {low_w} low-precision tiles vs strong {low_s}"
        );
    }

    #[test]
    fn footprint_shrinks_with_approximation() {
        let (kernel, locs) = setup(1024, 0.01);
        let model = tlr_friendly_model();
        let dense = SymTileMatrix::generate(
            &kernel,
            &locs,
            TlrConfig::new(Variant::DenseF64, 32),
            &model,
        );
        let mp =
            SymTileMatrix::generate(&kernel, &locs, TlrConfig::new(Variant::MpDense, 32), &model);
        let tlr = SymTileMatrix::generate(
            &kernel,
            &locs,
            TlrConfig::new(Variant::MpDenseTlr, 32),
            &model,
        );
        let fd = dense.footprint_bytes();
        assert_eq!(fd, dense.dense_f64_footprint_bytes());
        let fm = mp.footprint_bytes();
        let ft = tlr.footprint_bytes();
        assert!(fm < fd, "MP {fm} !< dense {fd}");
        assert!(ft < fm, "TLR {ft} !< MP {fm}");
    }

    #[test]
    fn tile_accessor_shapes() {
        let (kernel, locs) = setup(130, 0.1);
        let cfg = TlrConfig::new(Variant::DenseF64, 50);
        let m = SymTileMatrix::generate(&kernel, &locs, cfg, &FlopKernelModel::default());
        assert_eq!(m.nt(), 3);
        assert_eq!(m.tile(0, 0).rows(), 50);
        assert_eq!(m.tile(2, 0).rows(), 30);
        assert_eq!(m.tile(2, 0).cols(), 50);
        assert_eq!(m.tile(2, 2).rows(), 30);
    }
}
