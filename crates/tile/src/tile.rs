//! A single covariance tile: dense or low-rank, in one of three precisions.

use xgs_kernels::{convert::round_through, Precision};
use xgs_linalg::{LowRank, Matrix};

/// Structure of a tile's payload.
#[derive(Clone, Debug)]
pub enum TileStorage {
    /// Full `m x n` block.
    Dense(Matrix),
    /// `U V^T` approximation compressed to the TLR tolerance.
    LowRank(LowRank),
}

/// One tile of the symmetric covariance matrix.
#[derive(Clone, Debug)]
pub struct Tile {
    /// Payload.
    pub storage: TileStorage,
    /// Storage precision assigned by the precision-aware rule. Invariant:
    /// the payload's values have been rounded through this format.
    pub precision: Precision,
    rows: usize,
    cols: usize,
}

impl Tile {
    /// Dense tile; rounds the buffer through `precision` on construction.
    pub fn dense(mut data: Matrix, precision: Precision) -> Tile {
        let (rows, cols) = data.shape();
        round_through(data.as_mut_slice(), precision);
        Tile {
            storage: TileStorage::Dense(data),
            precision,
            rows,
            cols,
        }
    }

    /// Low-rank tile; rounds both factors through `precision`.
    pub fn low_rank(mut lr: LowRank, precision: Precision) -> Tile {
        let (rows, cols) = (lr.rows(), lr.cols());
        round_through(lr.u.as_mut_slice(), precision);
        round_through(lr.v.as_mut_slice(), precision);
        Tile {
            storage: TileStorage::LowRank(lr),
            precision,
            rows,
            cols,
        }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Is this tile stored densely?
    #[inline]
    pub fn is_dense(&self) -> bool {
        matches!(self.storage, TileStorage::Dense(_))
    }

    /// Rank if low-rank, `None` if dense.
    pub fn rank(&self) -> Option<usize> {
        match &self.storage {
            TileStorage::Dense(_) => None,
            TileStorage::LowRank(lr) => Some(lr.rank()),
        }
    }

    /// Dense reconstruction (copies).
    pub fn to_dense(&self) -> Matrix {
        match &self.storage {
            TileStorage::Dense(m) => m.clone(),
            TileStorage::LowRank(lr) => lr.reconstruct(),
        }
    }

    /// Frobenius norm of the (stored) payload.
    pub fn norm_fro(&self) -> f64 {
        match &self.storage {
            TileStorage::Dense(m) => m.norm_fro(),
            TileStorage::LowRank(lr) => lr.norm_fro(),
        }
    }

    /// Storage footprint in bytes under the assigned precision:
    /// `m*n*bytes` dense, `k*(m+n)*bytes` low-rank — the accounting behind
    /// the paper's Fig. 9 memory-footprint reductions.
    pub fn footprint_bytes(&self) -> usize {
        let elems = match &self.storage {
            TileStorage::Dense(_) => self.rows * self.cols,
            TileStorage::LowRank(lr) => lr.storage_len(),
        };
        elems * self.precision.bytes()
    }

    /// Re-round the payload through the tile's precision (call after a
    /// kernel writes the tile so the stored values stay representable in
    /// the assigned format).
    pub fn enforce_precision(&mut self) {
        let p = self.precision;
        match &mut self.storage {
            TileStorage::Dense(m) => round_through(m.as_mut_slice(), p),
            TileStorage::LowRank(lr) => {
                round_through(lr.u.as_mut_slice(), p);
                round_through(lr.v.as_mut_slice(), p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rnd(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(0x5851F42D4C957F2D)
                .wrapping_add(0x14057B7EF767814F);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    #[test]
    fn dense_f64_tile_is_lossless() {
        let a = rnd(10, 10, 1);
        let t = Tile::dense(a.clone(), Precision::F64);
        assert_eq!(t.to_dense(), a);
        assert_eq!(t.footprint_bytes(), 10 * 10 * 8);
    }

    #[test]
    fn dense_f16_tile_loses_within_unit_roundoff() {
        let a = rnd(16, 16, 2);
        let t = Tile::dense(a.clone(), Precision::F16);
        let err = a.add_scaled(-1.0, &t.to_dense()).norm_fro();
        assert!(err > 0.0);
        // Elementwise |err| <= u16 * |a| implies Frobenius bound.
        assert!(err <= Precision::F16.unit_roundoff() * a.norm_fro() * 1.01);
        assert_eq!(t.footprint_bytes(), 16 * 16 * 2);
    }

    #[test]
    fn low_rank_tile_footprint() {
        let lr = LowRank {
            u: rnd(32, 5, 3),
            v: rnd(24, 5, 4),
        };
        let t = Tile::low_rank(lr, Precision::F32);
        assert_eq!(t.rank(), Some(5));
        assert_eq!(t.footprint_bytes(), 5 * (32 + 24) * 4);
        assert!(!t.is_dense());
    }

    #[test]
    fn enforce_precision_is_idempotent() {
        let a = rnd(8, 8, 5);
        let mut t = Tile::dense(a, Precision::F16);
        let before = t.to_dense();
        t.enforce_precision();
        assert_eq!(t.to_dense().as_slice(), before.as_slice());
    }
}
