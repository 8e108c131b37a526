//! A minimal dense row-major matrix, sufficient for MLP training and PCA.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `f32` matrix.
///
/// # Examples
///
/// ```
/// use tartan_nn::Matrix;
///
/// let mut m = Matrix::zeros(2, 3);
/// m[(0, 1)] = 5.0;
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m[(0, 1)], 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or either dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "data length must match dimensions");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the row-major backing storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the row-major backing storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(v.len(), self.cols, "vector length must match columns");
        let mut out = vec![0.0; self.rows];
        // Eight rows per pass: each row keeps its own accumulator, walking
        // columns in order, so every dot product performs the identical
        // left-to-right f32 addition sequence as a one-row-at-a-time loop —
        // but the eight dependency chains are independent, which hides the
        // floating-point add latency that otherwise bounds this kernel.
        let cols = self.cols;
        let mut r = 0;
        while r + 8 <= self.rows {
            let base = r * cols;
            let r0 = &self.data[base..base + cols];
            let r1 = &self.data[base + cols..base + 2 * cols];
            let r2 = &self.data[base + 2 * cols..base + 3 * cols];
            let r3 = &self.data[base + 3 * cols..base + 4 * cols];
            let r4 = &self.data[base + 4 * cols..base + 5 * cols];
            let r5 = &self.data[base + 5 * cols..base + 6 * cols];
            let r6 = &self.data[base + 6 * cols..base + 7 * cols];
            let r7 = &self.data[base + 7 * cols..base + 8 * cols];
            let mut acc = [0.0f32; 8];
            for ((((((((&b, &x0), &x1), &x2), &x3), &x4), &x5), &x6), &x7) in v
                .iter()
                .zip(r0)
                .zip(r1)
                .zip(r2)
                .zip(r3)
                .zip(r4)
                .zip(r5)
                .zip(r6)
                .zip(r7)
            {
                acc[0] += x0 * b;
                acc[1] += x1 * b;
                acc[2] += x2 * b;
                acc[3] += x3 * b;
                acc[4] += x4 * b;
                acc[5] += x5 * b;
                acc[6] += x6 * b;
                acc[7] += x7 * b;
            }
            out[r..r + 8].copy_from_slice(&acc);
            r += 8;
        }
        while r < self.rows {
            let row = &self.data[r * cols..(r + 1) * cols];
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(v.iter()) {
                acc += a * b;
            }
            out[r] = acc;
            r += 1;
        }
        out
    }

    /// Transposed matrix–vector product `selfᵀ · v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.rows()`.
    pub fn mul_vec_transposed(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(v.len(), self.rows, "vector length must match rows");
        let mut out = vec![0.0; self.cols];
        for (r, &s) in v.iter().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, a) in out.iter_mut().zip(row.iter()) {
                *o += s * a;
            }
        }
        out
    }

    /// Frobenius norm squared (used by L2 regularization).
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", &self.row(r)[..self.cols.min(8)])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_vec_matches_manual() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.mul_vec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn mul_vec_transposed_matches_manual() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.mul_vec_transposed(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn indexing_roundtrip() {
        let mut m = Matrix::zeros(3, 3);
        m[(2, 1)] = 7.5;
        assert_eq!(m[(2, 1)], 7.5);
        assert_eq!(m.row(2), &[0.0, 7.5, 0.0]);
    }

    #[test]
    fn norm_sq_is_sum_of_squares() {
        let m = Matrix::from_vec(1, 3, vec![1.0, 2.0, 2.0]);
        assert_eq!(m.norm_sq(), 9.0);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_validates_length() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn display_is_nonempty() {
        let m = Matrix::zeros(1, 1);
        assert!(!format!("{m}").is_empty());
    }
}
