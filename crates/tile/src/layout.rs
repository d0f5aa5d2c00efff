//! Tile partitioning of an `n x n` matrix.

/// Partition of dimension `n` into tiles of size `nb` (last tile may be
/// short).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileLayout {
    n: usize,
    nb: usize,
}

impl TileLayout {
    pub fn new(n: usize, tile_size: usize) -> TileLayout {
        assert!(n > 0 && tile_size > 0);
        TileLayout { n, nb: tile_size }
    }

    /// Matrix dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Nominal tile size.
    #[inline]
    pub fn tile_size(&self) -> usize {
        self.nb
    }

    /// Number of tiles per dimension (`NT` in the paper).
    #[inline]
    pub fn nt(&self) -> usize {
        self.n.div_ceil(self.nb)
    }

    /// Rows (== cols) of tile index `k`.
    #[inline]
    pub fn tile_dim(&self, k: usize) -> usize {
        debug_assert!(k < self.nt());
        let start = k * self.nb;
        (self.n - start).min(self.nb)
    }

    /// Global index range covered by tile `k`.
    #[inline]
    pub fn tile_range(&self, k: usize) -> std::ops::Range<usize> {
        let start = k * self.nb;
        start..(start + self.tile_dim(k))
    }

    /// Number of stored (lower-triangle) tiles: `NT (NT + 1) / 2`.
    #[inline]
    pub fn stored_tiles(&self) -> usize {
        let nt = self.nt();
        nt * (nt + 1) / 2
    }

    /// Linear index of stored tile `(i, j)`, `i >= j`, packing the lower
    /// triangle column by column.
    #[inline]
    pub fn stored_index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i >= j && i < self.nt());
        // Column j starts after columns 0..j, column c holding nt - c tiles:
        // offset = sum_{c<j} (nt - c) = j*nt - j(j-1)/2.
        let nt = self.nt();
        j * nt - j * j.saturating_sub(1) / 2 + (i - j)
    }

    /// Every stored tile `(i, j)`, in [`stored_index`](TileLayout::stored_index)
    /// order.
    pub fn stored_coords(&self) -> impl Iterator<Item = (usize, usize)> {
        let nt = self.nt();
        (0..nt).flat_map(move |j| (j..nt).map(move |i| (i, j)))
    }

    /// Bytes of the stored (lower) half held dense in FP64.
    pub fn dense_f64_bytes(&self) -> usize {
        self.stored_coords()
            .map(|(i, j)| self.tile_dim(i) * self.tile_dim(j) * 8)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_partition() {
        let l = TileLayout::new(1000, 100);
        assert_eq!(l.nt(), 10);
        for k in 0..10 {
            assert_eq!(l.tile_dim(k), 100);
        }
        assert_eq!(l.tile_range(3), 300..400);
    }

    #[test]
    fn ragged_partition() {
        let l = TileLayout::new(1030, 100);
        assert_eq!(l.nt(), 11);
        assert_eq!(l.tile_dim(10), 30);
        assert_eq!(l.tile_range(10), 1000..1030);
    }

    #[test]
    fn single_tile() {
        let l = TileLayout::new(64, 100);
        assert_eq!(l.nt(), 1);
        assert_eq!(l.tile_dim(0), 64);
    }

    #[test]
    fn stored_index_is_a_bijection() {
        let l = TileLayout::new(700, 100);
        let nt = l.nt();
        let mut seen = vec![false; l.stored_tiles()];
        for j in 0..nt {
            for i in j..nt {
                let idx = l.stored_index(i, j);
                assert!(idx < seen.len(), "({i},{j}) -> {idx} out of range");
                assert!(!seen[idx], "({i},{j}) -> {idx} collides");
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        let coords: Vec<(usize, usize)> = l.stored_coords().collect();
        assert_eq!(coords.len(), l.stored_tiles());
        for (idx, &(i, j)) in coords.iter().enumerate() {
            assert_eq!(l.stored_index(i, j), idx);
        }
    }

    #[test]
    fn stored_index_column_zero_is_identity() {
        let l = TileLayout::new(500, 100);
        for i in 0..5 {
            assert_eq!(l.stored_index(i, 0), i);
        }
    }
}
