//! Owned column-major FP64 matrix.

use xgs_kernels::{gemm, Trans};

/// A dense column-major matrix of `f64`, stored contiguously
/// (`data[i + j * rows]`).
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zeros `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from an existing column-major buffer.
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Matrix { rows, cols, data }
    }

    /// Build by evaluating `f(i, j)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Matrix {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Raw column-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the raw buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow column `j` as a slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Transposed copy.
    #[allow(clippy::needless_range_loop)]
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for j in 0..self.cols {
            for i in 0..self.rows {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Frobenius norm, accumulated with scaling to avoid overflow.
    pub fn norm_fro(&self) -> f64 {
        norm2_scaled(&self.data)
    }

    /// Max-absolute-entry norm.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &x| m.max(x.abs()))
    }

    /// `self * other`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimension mismatch");
        let mut c = Matrix::zeros(self.rows, other.cols);
        if c.data.is_empty() {
            return c; // gemm wants a leading dimension >= 1 of a non-empty C
        }
        gemm(
            Trans::No,
            Trans::No,
            self.rows,
            other.cols,
            self.cols,
            1.0,
            &self.data,
            self.rows.max(1),
            &other.data,
            other.rows.max(1),
            0.0,
            &mut c.data,
            self.rows.max(1),
        );
        c
    }

    /// `self^T * other`.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "inner dimension mismatch");
        let mut c = Matrix::zeros(self.cols, other.cols);
        if c.data.is_empty() {
            return c; // gemm wants a leading dimension >= 1 of a non-empty C
        }
        gemm(
            Trans::Yes,
            Trans::No,
            self.cols,
            other.cols,
            self.rows,
            1.0,
            &self.data,
            self.rows.max(1),
            &other.data,
            other.rows.max(1),
            0.0,
            &mut c.data,
            self.cols.max(1),
        );
        c
    }

    /// `self * other^T`.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "inner dimension mismatch");
        let mut c = Matrix::zeros(self.rows, other.rows);
        if c.data.is_empty() {
            return c; // gemm wants a leading dimension >= 1 of a non-empty C
        }
        gemm(
            Trans::No,
            Trans::Yes,
            self.rows,
            other.rows,
            self.cols,
            1.0,
            &self.data,
            self.rows.max(1),
            &other.data,
            other.rows.max(1),
            0.0,
            &mut c.data,
            self.rows.max(1),
        );
        c
    }

    /// Matrix–vector product `self * x`.
    #[allow(clippy::needless_range_loop)]
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols);
        let mut y = vec![0.0; self.rows];
        for j in 0..self.cols {
            let xj = x[j];
            if xj == 0.0 {
                continue;
            }
            for (yi, aij) in y.iter_mut().zip(self.col(j)) {
                *yi += aij * xj;
            }
        }
        y
    }

    /// `self + alpha * other` (same shape).
    pub fn add_scaled(&self, alpha: f64, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape());
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + alpha * b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Scale every entry in place.
    pub fn scale(&mut self, alpha: f64) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Keep only the first `k` columns.
    #[must_use]
    pub fn truncate_cols(mut self, k: usize) -> Matrix {
        assert!(k <= self.cols);
        self.data.truncate(self.rows * k);
        self.cols = k;
        self
    }

    /// Horizontal concatenation `[self  other]`.
    pub fn hcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows);
        let mut data = Vec::with_capacity(self.rows * (self.cols + other.cols));
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows,
            cols: self.cols + other.cols,
            data,
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i + j * self.rows]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i + j * self.rows]
    }
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_r = self.rows.min(8);
        let show_c = self.cols.min(8);
        for i in 0..show_r {
            write!(f, "  ")?;
            for j in 0..show_c {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            if show_c < self.cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if show_r < self.rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// Two-norm of a slice with overflow-safe scaling (LAPACK `dnrm2` style).
pub fn norm2_scaled(x: &[f64]) -> f64 {
    let mut scale = 0.0f64;
    let mut ssq = 1.0f64;
    for &v in x {
        if v != 0.0 {
            let a = v.abs();
            if scale < a {
                let r = scale / a;
                ssq = 1.0 + ssq * r * r;
                scale = a;
            } else {
                let r = a / scale;
                ssq += r * r;
            }
        }
    }
    scale * ssq.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_column_major() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 0)], 2.0);
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 2)], 6.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(4, 7, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(3, 2)], m[(2, 3)]);
    }

    #[test]
    fn matmul_against_identity() {
        let m = Matrix::from_fn(5, 5, |i, j| (i + 2 * j) as f64);
        let i5 = Matrix::identity(5);
        assert_eq!(m.matmul(&i5), m);
        assert_eq!(i5.matmul(&m), m);
    }

    #[test]
    fn t_matmul_and_matmul_t_agree_with_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |i, j| (i as f64 - j as f64) * 0.5);
        let b = Matrix::from_fn(4, 2, |i, j| (i * j) as f64 + 1.0);
        let c1 = a.t_matmul(&b);
        let c2 = a.transpose().matmul(&b);
        for j in 0..2 {
            for i in 0..3 {
                assert!((c1[(i, j)] - c2[(i, j)]).abs() < 1e-14);
            }
        }
        let d = Matrix::from_fn(5, 3, |i, j| (i + j) as f64);
        let e1 = a.matmul_t(&d);
        let e2 = a.matmul(&d.transpose());
        for j in 0..5 {
            for i in 0..4 {
                assert!((e1[(i, j)] - e2[(i, j)]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn frobenius_norm_overflow_safe() {
        let m = Matrix::from_vec(1, 2, vec![1e200, 1e200]);
        let n = m.norm_fro();
        assert!((n - 2.0f64.sqrt() * 1e200).abs() / n < 1e-14);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64);
        let x = vec![1.0, -1.0, 2.0, 0.5];
        let y = a.matvec(&x);
        let xm = Matrix::from_vec(4, 1, x);
        let ym = a.matmul(&xm);
        for i in 0..3 {
            assert!((y[i] - ym[(i, 0)]).abs() < 1e-14);
        }
    }

    #[test]
    fn hcat_and_truncate() {
        let a = Matrix::from_fn(3, 2, |i, j| (i + j) as f64);
        let b = Matrix::from_fn(3, 1, |i, _| i as f64 * 7.0);
        let c = a.hcat(&b);
        assert_eq!(c.shape(), (3, 3));
        assert_eq!(c[(2, 2)], 14.0);
        let t = c.truncate_cols(2);
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(1, 1)], 2.0);
    }
}
