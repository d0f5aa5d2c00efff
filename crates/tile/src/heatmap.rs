//! Decision heat-maps: the per-tile precision/structure pictures of Fig. 9.

use crate::matrix::SymTileMatrix;
use crate::tile::{Tile, TileStorage};
use xgs_kernels::Precision;

/// A tile's format: its structure and storage precision, the five classes
/// the heat-maps draw and [`SymTileMatrix::census`] counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cell {
    DenseF64,
    DenseF32,
    DenseF16,
    LowRankF64,
    LowRankF32,
}

impl Cell {
    /// The format of `t`. Low-rank tiles below FP64 all count as FP32.
    pub fn of(t: &Tile) -> Cell {
        match (&t.storage, t.precision) {
            (TileStorage::Dense(_), Precision::F64) => Cell::DenseF64,
            (TileStorage::Dense(_), Precision::F32) => Cell::DenseF32,
            (TileStorage::Dense(_), Precision::F16) => Cell::DenseF16,
            (TileStorage::LowRank(_), Precision::F64) => Cell::LowRankF64,
            (TileStorage::LowRank(_), _) => Cell::LowRankF32,
        }
    }

    /// Single-character glyph used in the text rendering.
    pub fn glyph(self) -> char {
        match self {
            Cell::DenseF64 => 'D',
            Cell::DenseF32 => 's',
            Cell::DenseF16 => 'h',
            Cell::LowRankF64 => 'L',
            Cell::LowRankF32 => 'l',
        }
    }
}

/// The full `NT x NT` decision map of a tiled matrix (lower triangle
/// mirrored for display, like the paper's square heat-maps).
pub struct DecisionMap {
    pub nt: usize,
    /// Row-major `nt * nt` cells.
    pub cells: Vec<Cell>,
    pub footprint_bytes: usize,
    pub dense_f64_footprint_bytes: usize,
}

/// Extract the decision map from a generated matrix.
pub fn decision_heatmap(m: &SymTileMatrix) -> DecisionMap {
    let nt = m.nt();
    let mut cells = vec![Cell::DenseF64; nt * nt];
    for j in 0..nt {
        for i in j..nt {
            let cell = Cell::of(m.tile(i, j));
            cells[i * nt + j] = cell;
            cells[j * nt + i] = cell;
        }
    }
    DecisionMap {
        nt,
        cells,
        footprint_bytes: m.footprint_bytes(),
        dense_f64_footprint_bytes: m.dense_f64_footprint_bytes(),
    }
}

impl DecisionMap {
    /// Text rendering: one glyph per tile plus a legend and the memory
    /// footprint summary the paper annotates each heat-map with.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity((self.nt + 1) * (self.nt + 1) + 256);
        for i in 0..self.nt {
            for j in 0..self.nt {
                out.push(self.cells[i * self.nt + j].glyph());
            }
            out.push('\n');
        }
        let mf = self.footprint_bytes as f64 / (1 << 30) as f64;
        let mf_dense = self.dense_f64_footprint_bytes as f64 / (1 << 30) as f64;
        out.push_str(&format!(
            "legend: D=dense fp64  s=dense fp32  h=dense fp16  L=lr fp64  l=lr fp32\n\
             memory footprint: {:.3} GiB vs dense fp64 {:.3} GiB ({:.1}% reduction)\n",
            mf,
            mf_dense,
            100.0 * (1.0 - self.footprint_bytes as f64 / self.dense_f64_footprint_bytes as f64)
        ));
        out
    }

    /// Fraction of tiles in each format, ordered as
    /// `(dense64, dense32, dense16, lr64, lr32)`.
    pub fn fractions(&self) -> (f64, f64, f64, f64, f64) {
        let total = self.cells.len() as f64;
        let count = |c: Cell| self.cells.iter().filter(|&&x| x == c).count() as f64 / total;
        (
            count(Cell::DenseF64),
            count(Cell::DenseF32),
            count(Cell::DenseF16),
            count(Cell::LowRankF64),
            count(Cell::LowRankF32),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decisions::FlopKernelModel;
    use crate::matrix::{TlrConfig, Variant};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xgs_covariance::{jittered_grid, morton_order, Matern, MaternParams};

    fn build(variant: Variant) -> SymTileMatrix {
        let mut rng = StdRng::seed_from_u64(3);
        let mut locs = jittered_grid(300, &mut rng);
        morton_order(&mut locs);
        let kernel = Matern::new(MaternParams::new(1.0, 0.03, 0.5));
        SymTileMatrix::generate(
            &kernel,
            &locs,
            TlrConfig::new(variant, 30),
            &FlopKernelModel::default(),
        )
    }

    #[test]
    fn map_is_symmetric_with_dense_diagonal() {
        let m = build(Variant::MpDenseTlr);
        let map = decision_heatmap(&m);
        for i in 0..map.nt {
            assert_eq!(map.cells[i * map.nt + i], Cell::DenseF64);
            for j in 0..map.nt {
                assert_eq!(map.cells[i * map.nt + j], map.cells[j * map.nt + i]);
            }
        }
    }

    #[test]
    fn render_contains_legend_and_reduction() {
        let m = build(Variant::MpDense);
        let map = decision_heatmap(&m);
        let s = map.render();
        assert!(s.contains("legend:"));
        assert!(s.contains("memory footprint"));
        // One line of nt glyphs per row.
        assert_eq!(s.lines().next().unwrap().len(), map.nt);
    }

    #[test]
    fn fractions_sum_to_one() {
        let m = build(Variant::MpDenseTlr);
        let map = decision_heatmap(&m);
        let (a, b, c, d, e) = map.fractions();
        assert!((a + b + c + d + e - 1.0).abs() < 1e-12);
        assert!(a > 0.0, "diagonal at least is dense fp64");
    }
}
