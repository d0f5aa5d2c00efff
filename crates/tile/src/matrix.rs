//! The symmetric tiled covariance matrix and its generation pipeline.
//!
//! Generation follows the paper's order of operations: tiles are generated
//! (in parallel) from the covariance kernel, the global Frobenius norm is
//! accumulated tile-by-tile *during* generation ("a copy of the global
//! matrix need not be stored"), then the precision-aware and
//! structure-aware decisions assign each tile its format, "right after the
//! generation/compression of the matrix and just before the Cholesky
//! factorization starts".
//!
//! The dense variants form every tile with [`cov_block`]. The TLR variant
//! forms only the diagonal tiles that way: an off-diagonal tile is
//! compressed straight from kernel entries by partial-pivot ACA
//! ([`LowRank::compress_partial`]), which reads the rows and columns it
//! pivots on and never the whole block, and its §VI-C norm comes from its
//! factors. ACA stops at Algorithm 2's crossover
//! ([`crossover_rank`]): a tile that needs more crosses is past the rank at
//! which any tile is stored low-rank, so it is formed densely instead and
//! enters Algorithm 2 at crossover + 1. A low-rank tile that the band or
//! the structure rule turns dense is formed densely after the decisions.

use crate::band::auto_tune_band_size;
use crate::decisions::{
    crossover_rank, precision_for_tile_with_rule, tile_prefers_dense, KernelTimeModel,
    PrecisionRule,
};
use crate::heatmap::Cell;
use crate::layout::TileLayout;
use crate::tile::Tile;
use rayon::prelude::*;
use xgs_covariance::{cov_block, CovarianceKernel, Location};
use xgs_kernels::Precision;
use xgs_linalg::{BlockEntries, LowRank, Matrix};

/// The three Cholesky variants benchmarked throughout the paper.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Variant {
    /// Reference: every tile dense FP64.
    DenseF64,
    /// Mixed-precision dense: FP64/FP32/FP16 tiles, all dense.
    MpDense,
    /// The paper's contribution: mixed precision + dense/TLR structure.
    #[default]
    MpDenseTlr,
}

impl Variant {
    /// Every variant, in the order the names are listed.
    pub const ALL: [Variant; 3] = [Variant::DenseF64, Variant::MpDense, Variant::MpDenseTlr];

    /// The name reports and tables print.
    pub fn name(self) -> &'static str {
        match self {
            Variant::DenseF64 => "dense-fp64",
            Variant::MpDense => "mp-dense",
            Variant::MpDenseTlr => "mp-dense-tlr",
        }
    }

    /// The name `--variant` and the server's `load` op take.
    fn key(self) -> &'static str {
        match self {
            Variant::DenseF64 => "dense",
            Variant::MpDense => "mp",
            Variant::MpDenseTlr => "mp-tlr",
        }
    }

    /// The variant `dense`, `mp` or `mp-tlr` names (`--variant`, the
    /// `load` op's `"variant"`); the error lists every name.
    pub fn parse(name: &str) -> Result<Variant, String> {
        Self::ALL
            .into_iter()
            .find(|v| v.key() == name)
            .ok_or_else(|| {
                let names = Self::ALL.map(Self::key).join("|");
                format!("unknown variant '{name}' ({names})")
            })
    }
}

/// Configuration of the tiled representation.
#[derive(Clone, Copy, Debug)]
pub struct TlrConfig {
    pub tile_size: usize,
    pub variant: Variant,
    /// TLR accuracy threshold, relative to each tile's Frobenius norm
    /// (the paper runs 1e-8). Tiles whose rows and columns share a site are
    /// compressed from their dense block and meet it outright. The others
    /// are compressed from kernel entries by partial-pivot ACA, whose
    /// stopping test samples the residual: it aims at
    /// `max(tol ||A_ij||_F, u_64 ||A||_F / NT)`, the second term the §VI-C
    /// per-tile budget (it matters only for tiles below `1e-8` of the
    /// matrix norm), and debug builds assert that bound against every
    /// tile's exact block. In release builds it is a heuristic: a tile the
    /// sample misleads may end somewhat above it.
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

    /// The tile size used when the caller names none: about ten tiles per
    /// side, clamped to 32..=512.
    pub fn default_tile_size(n: usize) -> usize {
        (n / 10).clamp(32, 512)
    }

    /// [`TlrConfig::new`] for `n` sites at the caller's tile size, where
    /// `tile = 0` (none named) picks [`TlrConfig::default_tile_size`].
    pub fn for_sites(variant: Variant, tile: usize, n: usize) -> TlrConfig {
        let nb = match tile {
            0 => TlrConfig::default_tile_size(n),
            nb => nb,
        };
        TlrConfig::new(variant, nb)
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
    /// `model` drives the structure-aware decision and the TLR rank cap
    /// (ignored for the dense variants).
    pub fn generate(
        kernel: &dyn CovarianceKernel,
        locs: &[Location],
        config: TlrConfig,
        model: &dyn KernelTimeModel,
    ) -> SymTileMatrix {
        let n = locs.len();
        let layout = TileLayout::new(n, config.tile_size);
        let nt = layout.nt();
        let indices: Vec<(usize, usize)> =
            (0..nt).flat_map(|j| (j..nt).map(move |i| (i, j))).collect();
        let sites = |i: usize, j: usize| (&locs[layout.tile_range(i)], &locs[layout.tile_range(j)]);
        let block = |i: usize, j: usize| {
            let (rows, cols) = sites(i, j);
            cov_block(kernel, rows, cols)
        };
        let dense = |b: Matrix| {
            let norm = b.norm_fro();
            Generated {
                tile: Payload::Dense(b),
                norm,
                rank: None,
            }
        };

        // Pass 1 (parallel): every tile from the kernel, with its norm.
        // Only the TLR variant compresses, and only off the diagonal (and
        // off a pinned band, which stays dense whatever the ranks).
        let gens: Vec<Generated> = match config.variant {
            Variant::MpDenseTlr => {
                let shared = shares_a_site(locs, layout);
                let pinned = config.band_size_dense.unwrap_or(1);
                let rel_tol = config.tlr_tolerance;
                indices
                    .par_iter()
                    .map(|&(i, j)| {
                        if i == j || i.abs_diff(j) < pinned {
                            return dense(block(i, j));
                        }
                        let (rows, cols) = sites(i, j);
                        let cap = crossover_rank(model, rows.len().min(cols.len()));
                        let low_rank = |lr: LowRank, norm| Generated {
                            rank: Some(lr.rank()),
                            tile: Payload::LowRank(lr),
                            norm,
                        };
                        let past_cap = |b| Generated {
                            rank: Some(cap + 1),
                            ..dense(b)
                        };
                        if shared[layout.stored_index(i, j)] {
                            let b = block(i, j);
                            let norm = b.norm_fro();
                            let lr = LowRank::compress_full(&b, rel_tol * norm, cap + CAP_SLACK);
                            return match lr.filter(|lr| lr.rank() <= cap) {
                                Some(lr) => low_rank(lr, norm),
                                None => past_cap(b),
                            };
                        }
                        match compress_entries(kernel, rows, cols, rel_tol, cap) {
                            Some((lr, norm)) => low_rank(lr, norm),
                            None => past_cap(block(i, j)),
                        }
                    })
                    .collect()
            }
            _ => indices
                .par_iter()
                .map(|&(i, j)| dense(block(i, j)))
                .collect(),
        };
        // Tile-by-tile global norm accumulation (off-diagonal counted twice:
        // the matrix is symmetric and we store only the lower half).
        let mut sq = 0.0f64;
        for (&(i, j), g) in indices.iter().zip(&gens) {
            let w = if i == j { 1.0 } else { 2.0 };
            sq += w * g.norm * g.norm;
        }
        let global_norm = sq.sqrt();
        if cfg!(debug_assertions) {
            // Every tile partial ACA made, against its exact block.
            let budget = Precision::F64.unit_roundoff() * global_norm / nt as f64;
            let at: Vec<usize> = (0..gens.len()).collect();
            at.par_iter().for_each(|&idx| {
                if let Payload::LowRank(lr) = &gens[idx].tile {
                    let (i, j) = indices[idx];
                    let (rows, cols) = sites(i, j);
                    let err =
                        error_past_tolerance(kernel, rows, cols, lr, config.tlr_tolerance, budget);
                    assert!(err.is_none(), "tile ({i},{j}), rank {}: {err:?}", lr.rank());
                }
            });
        }

        // Auto-tune the dense band from the rank distribution (Algorithm 2)
        // unless pinned by the config.
        let band = match (config.variant, config.band_size_dense) {
            (Variant::MpDenseTlr, None) => {
                let ranks: Vec<(usize, usize, usize)> = indices
                    .iter()
                    .zip(&gens)
                    .filter_map(|(&(i, j), g)| g.rank.map(|r| (i, j, r)))
                    .collect();
                auto_tune_band_size(&ranks, nt, config.tile_size, model)
            }
            (_, explicit) => explicit.unwrap_or(1),
        };

        // Both decisions per tile. Precision pin covers the diagonal only:
        // structure-band tiles are dense but may still be FP32/FP16 (paper
        // Fig. 9 shows mixed precisions inside the dense band).
        let precisions: Vec<Precision> = indices
            .iter()
            .zip(&gens)
            .map(|(&(i, j), g)| match config.variant {
                Variant::DenseF64 => Precision::F64,
                _ => precision_for_tile_with_rule(
                    config.precision_rule,
                    i,
                    j,
                    1,
                    g.norm,
                    global_norm,
                    nt,
                    config.allow_fp16,
                ),
            })
            .collect();
        // Structure rule: a low-rank tile stays low-rank off the band
        // unless its rank is past the crossover for its precision. The
        // ones that do not are formed densely now.
        let keep: Vec<bool> = (0..gens.len())
            .map(|idx| match &gens[idx].tile {
                Payload::LowRank(lr) => {
                    let (i, j) = indices[idx];
                    let nb = layout.tile_dim(i).min(layout.tile_dim(j));
                    i.abs_diff(j) >= band
                        && !tile_prefers_dense(model, nb, lr.rank(), precisions[idx])
                }
                Payload::Dense(_) => false,
            })
            .collect();
        let turned_dense: Vec<usize> = (0..gens.len())
            .filter(|&idx| matches!(gens[idx].tile, Payload::LowRank(_)) && !keep[idx])
            .collect();
        let mut formed = turned_dense
            .par_iter()
            .map(|&idx| block(indices[idx].0, indices[idx].1))
            .collect::<Vec<Matrix>>()
            .into_iter();

        let tiles: Vec<Tile> = gens
            .into_iter()
            .zip(precisions)
            .zip(keep)
            .map(|((g, precision), keep)| match g.tile {
                Payload::LowRank(lr) if keep => Tile::low_rank(lr, precision.low_rank()),
                Payload::LowRank(_) => Tile::dense(formed.next().expect("formed above"), precision),
                Payload::Dense(b) => Tile::dense(b, precision),
            })
            .collect();

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
        let count = |cell| self.tiles.iter().filter(|t| Cell::of(t) == cell).count();
        TileCensus {
            dense_f64: count(Cell::DenseF64),
            dense_f32: count(Cell::DenseF32),
            dense_f16: count(Cell::DenseF16),
            lr_f64: count(Cell::LowRankF64),
            lr_f32: count(Cell::LowRankF32),
        }
    }
}

/// A tile as generation's first pass left it.
struct Generated {
    tile: Payload,
    /// Exact `||A_ij||_F` of a dense tile; `||U V^T||_F` of the crosses of
    /// a low-rank one.
    norm: f64,
    /// What Algorithm 2 sees: the rank of a compressed tile, crossover + 1
    /// for one past the cap, nothing for a tile never compressed.
    rank: Option<usize>,
}

enum Payload {
    Dense(Matrix),
    LowRank(LowRank),
}

/// Compress off-diagonal tile `rows x cols` straight from the kernel to
/// `rel_tol` of its norm, or `None` past rank `cap`.
///
/// ACA may take [`CAP_SLACK`] crosses above the rounding's tolerance past
/// the cap; the rounded rank is what is held to it.
fn compress_entries(
    kernel: &dyn CovarianceKernel,
    rows: &[Location],
    cols: &[Location],
    rel_tol: f64,
    cap: usize,
) -> Option<(LowRank, f64)> {
    let mut entries = KernelBlock {
        kernel,
        rows,
        cols,
        gathered: Vec::new(),
    };
    let (m, n) = (rows.len(), cols.len());
    LowRank::compress_partial(m, n, &mut entries, rel_tol, cap + CAP_SLACK)
        .filter(|(lr, _)| lr.rank() <= cap)
}

/// Each site's [`NEAREST`] nearest sites across the tile, both ways, as
/// `(row, col)` positions: where a covariance that decays with distance
/// has the largest entries of every row and column. Under a kernel that
/// decays fast against the site spacing, a tile is a few such entries
/// along the edge two clusters share and nothing else, and ACA's sample
/// must not miss them (see **Probes** in [`xgs_linalg::aca_partial`]).
/// Time lags count as distances.
fn nearest_across(rows: &[Location], cols: &[Location]) -> Vec<(usize, usize)> {
    /// Insert `(d, at)` into the sorted `best`, dropping its last.
    fn offer(best: &mut [(f64, usize); NEAREST], d: f64, at: usize) {
        let mut k = NEAREST - 1;
        while k > 0 && best[k - 1].0 > d {
            best[k] = best[k - 1];
            k -= 1;
        }
        best[k] = (d, at);
    }
    let none = [(f64::INFINITY, usize::MAX); NEAREST];
    // The columns' sites as three arrays, so that a row's distances are
    // one vectorized loop; `to_col[j][NEAREST - 1].0` is column j's bar.
    let coord = |f: fn(&Location) -> f64| cols.iter().map(f).collect::<Vec<f64>>();
    let (cx, cy, ct) = (coord(|l| l.x), coord(|l| l.y), coord(|l| l.t));
    let mut to_col = vec![none; cols.len()];
    let mut d2 = vec![0.0; cols.len()];
    let mut out = Vec::with_capacity(NEAREST * (rows.len() + cols.len()));
    for (i, r) in rows.iter().enumerate() {
        for (((d, &x), &y), &t) in d2.iter_mut().zip(&cx).zip(&cy).zip(&ct) {
            let (dx, dy, dt) = (r.x - x, r.y - y, r.t - t);
            *d = dx * dx + dy * dy + dt * dt;
        }
        let mut best = none;
        for (j, (&d, near)) in d2.iter().zip(&mut to_col).enumerate() {
            if d < best[NEAREST - 1].0 {
                offer(&mut best, d, j);
            }
            if d < near[NEAREST - 1].0 {
                offer(near, d, i);
            }
        }
        out.extend(best.iter().filter(|b| b.1 != usize::MAX).map(|b| (i, b.1)));
    }
    for (j, near) in to_col.iter().enumerate() {
        out.extend(near.iter().filter(|b| b.1 != usize::MAX).map(|b| (b.1, j)));
    }
    out
}

/// Sites across the tile each site probes (see [`nearest_across`]).
const NEAREST: usize = 2;

/// Tile `rows x cols` of the covariance as ACA reads it: every read is one
/// kernel call. A row is `cov_column` over the column sites at a row site,
/// which is the block's row because the kernel is symmetric; scattered
/// entries are one `cov_column` per run of entries in one column over
/// their gathered row sites (ACA asks for them column by column).
struct KernelBlock<'a> {
    kernel: &'a dyn CovarianceKernel,
    rows: &'a [Location],
    cols: &'a [Location],
    /// The row sites of a run of scattered entries.
    gathered: Vec<Location>,
}

impl BlockEntries for KernelBlock<'_> {
    fn row(&mut self, i: usize, out: &mut [f64]) {
        self.kernel.cov_column(self.cols, &self.rows[i], out);
    }

    fn col(&mut self, j: usize, out: &mut [f64]) {
        self.kernel.cov_column(self.rows, &self.cols[j], out);
    }

    fn entries(&mut self, at: &[(usize, usize)], out: &mut [f64]) {
        let mut start = 0;
        for run in at.chunk_by(|x, y| x.1 == y.1) {
            self.gathered.clear();
            self.gathered.extend(run.iter().map(|&(i, _)| self.rows[i]));
            let (col, out) = (&self.cols[run[0].1], &mut out[start..start + run.len()]);
            self.kernel.cov_column(&self.gathered, col, out);
            start += run.len();
        }
    }

    fn probes(&self) -> Vec<(usize, usize)> {
        nearest_across(self.rows, self.cols)
    }
}

/// Crosses partial ACA may take past the crossover rank.
const CAP_SLACK: usize = 2;

/// The bound partial ACA's stopping test is a heuristic for, checked
/// against the exact block: `||A - U V^T||_F <= tol_ij`, or
/// `Some((error, tol_ij))`. `tol_ij` is `rel_tol ||A_ij||_F`, or the §VI-C
/// per-tile budget `u_64 ||A||_F / NT` when that is larger. The budget is the error the
/// precision rule already lets a tile carry; it matters only for tiles
/// whose norm is below `1e-8` of the matrix's, where a single entry can be
/// the whole tile and no sample of it is reliable.
///
/// The block is read entry by entry through `cov` (bit for bit
/// `cov_column`'s values), so that a kernel counting its `cov_column`
/// entries sees only what generation reads.
fn error_past_tolerance(
    kernel: &dyn CovarianceKernel,
    rows: &[Location],
    cols: &[Location],
    lr: &LowRank,
    rel_tol: f64,
    budget: f64,
) -> Option<(f64, f64)> {
    let exact = Matrix::from_fn(rows.len(), cols.len(), |i, j| {
        kernel.cov(&rows[i], &cols[j])
    });
    let err = exact.add_scaled(-1.0, &lr.reconstruct()).norm_fro();
    let tol = (rel_tol * exact.norm_fro()).max(budget);
    // A NaN error fails too.
    (err.is_nan() || err > tol).then_some((err, tol))
}

/// Which stored off-diagonal tiles (indexed like
/// [`TileLayout::stored_index`]) have a site among their rows that is
/// also among their columns.
///
/// A kernel with a nugget puts an isolated spike there, one entry that
/// neither partial pivoting nor a sample can be relied on to find, and the
/// copied site makes the tile's rows no longer one compact cluster. Such
/// tiles are formed densely and compressed by full pivoting instead.
fn shares_a_site(locs: &[Location], layout: TileLayout) -> Vec<bool> {
    let mut out = vec![false; layout.stored_tiles()];
    // `+ 0.0` maps -0.0 to 0.0, so that sites equal under `==` sort
    // next to each other.
    let key = |l: &Location| [l.x + 0.0, l.y + 0.0, l.t + 0.0];
    let mut order: Vec<usize> = (0..locs.len()).collect();
    order.sort_by(|&a, &b| {
        let (ka, kb) = (key(&locs[a]), key(&locs[b]));
        ka.iter()
            .zip(&kb)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(a.cmp(&b))
    });
    let nb = layout.tile_size();
    for run in order.chunk_by(|&a, &b| locs[a] == locs[b]) {
        for (x, &a) in run.iter().enumerate() {
            for &b in &run[x + 1..] {
                let (ti, tj) = (a.max(b) / nb, a.min(b) / nb);
                if ti != tj {
                    out[layout.stored_index(ti, tj)] = true;
                }
            }
        }
    }
    out
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
    use crate::tile::TileStorage;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xgs_covariance::{jittered_grid, morton_order, Matern, MaternParams};

    #[test]
    fn every_variant_name_round_trips() {
        for v in Variant::ALL {
            assert_eq!(Variant::parse(v.key()), Ok(v));
        }
        assert_eq!(
            Variant::parse("mp-dense"),
            Err("unknown variant 'mp-dense' (dense|mp|mp-tlr)".to_string())
        );
    }

    #[test]
    fn no_tile_named_is_the_default_tile() {
        assert_eq!(
            TlrConfig::for_sites(Variant::MpDense, 0, 1000).tile_size,
            100
        );
        assert_eq!(TlrConfig::for_sites(Variant::MpDense, 0, 10).tile_size, 32);
        assert_eq!(
            TlrConfig::for_sites(Variant::MpDense, 64, 1000).tile_size,
            64
        );
    }

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
    fn diagonal_tiles_stay_dense_under_a_zero_band() {
        // A Gaussian kernel ranging over the whole domain: even the
        // diagonal tiles have numerical rank below the crossover.
        let (_, locs) = setup(400, 1.0);
        let kernel = PoweredExponential::new(1.0, 1.0, 2.0);
        let cfg = TlrConfig {
            band_size_dense: Some(0),
            ..TlrConfig::new(Variant::MpDenseTlr, 100)
        };
        let m = SymTileMatrix::generate(&kernel, &locs, cfg, &tlr_friendly_model());
        for i in 0..m.nt() {
            assert!(
                matches!(m.tile(i, i).storage, TileStorage::Dense(_)),
                "tile ({i},{i})"
            );
        }
        assert!(m.census().lr_f64 + m.census().lr_f32 > 0);
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

    // ---- TLR tiles from kernel entries (partial-pivot ACA).

    use std::sync::atomic::{AtomicUsize, Ordering};
    use xgs_covariance::{
        GeneralizedCauchy, GneitingSpaceTime, PoweredExponential, SpaceTimeParams, WithNugget,
    };

    /// Every tile in FP64, so that a stored low-rank tile is exactly what
    /// ACA and the rounding made.
    fn tlr_f64(nb: usize) -> TlrConfig {
        TlrConfig {
            precision_rule: PrecisionRule::Band {
                f64_band: usize::MAX,
                f32_band: usize::MAX,
            },
            ..TlrConfig::new(Variant::MpDenseTlr, nb)
        }
    }

    /// The five kernel families at correlation length about `range`.
    fn five_kernels(range: f64) -> Vec<(&'static str, Box<dyn CovarianceKernel>)> {
        let matern = || Matern::new(MaternParams::new(1.0, range, 0.8));
        vec![
            ("matern", Box::new(matern())),
            (
                "gneiting",
                Box::new(GneitingSpaceTime::new(SpaceTimeParams::new(
                    1.0, range, 0.8, 0.5, 0.9, 0.5,
                ))),
            ),
            (
                "powered-exponential",
                Box::new(PoweredExponential::new(1.0, range, 1.5)),
            ),
            // A tail steep enough that far entries underflow to 0 too.
            (
                "generalized-cauchy",
                Box::new(GeneralizedCauchy::new(1.0, 30.0 * range, 2.0, 150.0)),
            ),
            ("nugget", Box::new(WithNugget::new(matern(), 0.1))),
        ]
    }

    /// Generate the TLR matrix of `locs` and hold every low-rank tile to
    /// `tol_ij = max(1e-8 ||A_ij||_F, u_64 ||A||_F / NT)` against its exact
    /// block; returns the number of low-rank tiles.
    fn low_rank_tiles_within_bound(
        label: &str,
        kernel: &dyn CovarianceKernel,
        locs: &[Location],
        nb: usize,
    ) -> usize {
        let m = SymTileMatrix::generate(kernel, locs, tlr_f64(nb), &tlr_friendly_model());
        let budget = Precision::F64.unit_roundoff() * m.global_norm / m.nt() as f64;
        let layout = m.layout();
        let mut low_rank = 0;
        for j in 0..m.nt() {
            for i in j..m.nt() {
                if let TileStorage::LowRank(lr) = &m.tile(i, j).storage {
                    let (ri, rj) = (layout.tile_range(i), layout.tile_range(j));
                    let exact = cov_block(kernel, &locs[ri], &locs[rj]);
                    let err = exact.add_scaled(-1.0, &lr.reconstruct()).norm_fro();
                    let tol = (1e-8 * exact.norm_fro()).max(budget);
                    assert!(err <= tol, "{label} tile ({i},{j}): {err:e} > {tol:e}");
                    low_rank += 1;
                }
            }
        }
        low_rank
    }

    /// `n` jittered sites on `[x0, x0 + side] x [0, side]`, Morton-ordered.
    fn patch(n: usize, x0: f64, side: f64, seed: u64) -> Vec<Location> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut locs = jittered_grid(n, &mut rng);
        morton_order(&mut locs);
        for l in &mut locs {
            (l.x, l.y) = (x0 + side * l.x, side * l.y);
        }
        locs
    }

    #[test]
    fn partial_aca_meets_the_bound_behind_leading_zero_rows() {
        // Tiles 0-2 are a cluster; each of tiles 3-5 starts with 32 sites
        // 10^4 ranges away (exact zeros against tiles 0-2, under every
        // kernel) and ends with 32 beside the cluster, so ACA's first rows
        // of those tiles read nothing.
        let range = 0.01;
        let mut locs = patch(192, 0.0, 1.0, 1);
        let far = patch(96, 1e4 * range, 0.5, 2);
        let near = patch(96, 1.0, 0.5, 3);
        for t in 0..3 {
            locs.extend_from_slice(&far[32 * t..32 * (t + 1)]);
            locs.extend_from_slice(&near[32 * t..32 * (t + 1)]);
        }
        for (name, kernel) in five_kernels(range) {
            let block = cov_block(kernel.as_ref(), &locs[192..224], &locs[..192]);
            assert_eq!(block.norm_max(), 0.0, "{name}: far rows must underflow");
            let lr = low_rank_tiles_within_bound(name, kernel.as_ref(), &locs, 64);
            assert!(lr > 0, "{name}: no low-rank tile");
        }
    }

    #[test]
    fn partial_aca_meets_the_bound_on_two_clusters_with_a_gap() {
        // Every tile holds 32 sites of a group on the left and 32 of one on
        // the right, a gap of one side apart: two separate interactions
        // per tile pair, either of which a walk of crosses in the other
        // can miss.
        let range = 0.01;
        let (left, right) = (patch(256, 0.0, 1.0, 4), patch(256, 2.0, 1.0, 5));
        let mut locs = Vec::new();
        for t in 0..8 {
            locs.extend_from_slice(&left[32 * t..32 * (t + 1)]);
            locs.extend_from_slice(&right[32 * t..32 * (t + 1)]);
        }
        for (name, kernel) in five_kernels(range) {
            let lr = low_rank_tiles_within_bound(name, kernel.as_ref(), &locs, 64);
            assert!(lr > 0, "{name}: no low-rank tile");
        }
    }

    #[test]
    fn sites_shared_across_tiles_seed_the_nugget_spike() {
        // Tile 4 repeats 64 sites of tiles 0-3: under a nugget, each copy
        // is an isolated spike in an off-diagonal tile.
        let range = 0.02;
        let mut locs = patch(256, 0.0, 1.0, 6);
        let copied: Vec<usize> = (0..64).map(|k| (37 * k + 5) % 256).collect();
        let copies: Vec<Location> = copied.iter().map(|&s| locs[s]).collect();
        locs.extend(copies);
        let layout = TileLayout::new(locs.len(), 64);
        let shared = shares_a_site(&locs, layout);
        for j in 0..4 {
            assert!(shared[layout.stored_index(4, j)], "tile (4,{j})");
            for i in j + 1..4 {
                assert!(!shared[layout.stored_index(i, j)], "tile ({i},{j})");
            }
        }
        for (name, kernel) in five_kernels(range) {
            let lr = low_rank_tiles_within_bound(name, kernel.as_ref(), &locs, 64);
            assert!(lr > 0, "{name}: no low-rank tile");
        }
        // Under a nugget every spike is part of its tile.
        let nugget = WithNugget::new(Matern::new(MaternParams::new(1.0, range, 0.8)), 0.1);
        let m = SymTileMatrix::generate(&nugget, &locs, tlr_f64(64), &tlr_friendly_model());
        for (r, &site) in copied.iter().enumerate() {
            let tile = m.tile(4, site / 64).to_dense();
            let got = tile[(r, site % 64)];
            let tol = 1e-8 * tile.norm_fro();
            assert!((got - 1.1).abs() <= tol, "copy {r} of site {site}: {got}");
        }
    }

    /// A kernel that counts the entries `cov_column` evaluates.
    struct Counting<K> {
        base: K,
        entries: AtomicUsize,
    }

    impl<K: CovarianceKernel> CovarianceKernel for Counting<K> {
        fn cov(&self, a: &Location, b: &Location) -> f64 {
            self.base.cov(a, b)
        }
        fn cov_column(&self, rows: &[Location], col: &Location, out: &mut [f64]) {
            self.entries.fetch_add(rows.len(), Ordering::Relaxed);
            self.base.cov_column(rows, col, out);
        }
        fn variance(&self) -> f64 {
            self.base.variance()
        }
        fn n_params(&self) -> usize {
            self.base.n_params()
        }
    }

    /// Entries generation reads, and the matrix it made.
    fn entries_read(
        kernel: &Counting<Matern>,
        locs: &[Location],
        cfg: TlrConfig,
        model: &FlopKernelModel,
    ) -> (usize, SymTileMatrix) {
        kernel.entries.store(0, Ordering::Relaxed);
        let m = SymTileMatrix::generate(kernel, locs, cfg, model);
        (kernel.entries.load(Ordering::Relaxed), m)
    }

    #[test]
    fn tlr_generation_reads_only_the_entries_it_pivots_on() {
        let counting = |kernel| Counting {
            base: kernel,
            entries: AtomicUsize::new(0),
        };
        let (dense_cfg, tlr_cfg) = (
            TlrConfig::new(Variant::DenseF64, 100),
            TlrConfig::new(Variant::MpDenseTlr, 100),
        );
        // Weak correlation: every off-diagonal tile is low-rank, and TLR
        // generation reads under half of what dense generation does.
        let (weak, locs) = setup(1600, 0.005);
        let (weak, model) = (counting(weak), tlr_friendly_model());
        let (dense, _) = entries_read(&weak, &locs, dense_cfg, &model);
        assert_eq!(dense, 136 * 100 * 100);
        let (tlr, m) = entries_read(&weak, &locs, tlr_cfg, &model);
        let c = m.census();
        assert_eq!(c.lr_f64 + c.lr_f32, 120, "{c:?}");
        assert!(2 * tlr < dense, "TLR read {tlr} entries, dense {dense}");

        // Strong correlation under the A64FX calibration, whose crossover
        // is low: every off-diagonal tile is past it, and costs its dense
        // block plus at most the crosses up to the cap (cap + 2) and one
        // more row and column.
        let (strong, model) = (
            counting(Matern::new(MaternParams::new(1.0, 0.5, 0.5))),
            FlopKernelModel::default(),
        );
        let (dense, _) = entries_read(&strong, &locs, dense_cfg, &model);
        let (tlr, m) = entries_read(&strong, &locs, tlr_cfg, &model);
        let c = m.census();
        assert_eq!(c.lr_f64 + c.lr_f32, 0, "{c:?}");
        let cap = crossover_rank(&model, 100);
        assert!(
            tlr <= dense + 120 * (cap + 3) * 200,
            "TLR read {tlr} entries, dense {dense}, cap {cap}"
        );
    }
}
