//! Dense, row-major, `f64` matrix — the single numeric container used by
//! every crate in the workspace.
//!
//! The representation is deliberately simple: a `Vec<f64>` of length
//! `rows * cols`, row-major. All deep-clustering workloads in this
//! repository are dense 2-D embedding matrices, so there is no need for
//! strides, views, or higher ranks; keeping the layout flat and contiguous
//! makes the hot kernels (matmul, pairwise distances) cache-friendly and
//! easy for LLVM to vectorize.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Neg, Sub};

/// A dense row-major matrix of `f64`.
///
/// Element `(i, j)` lives at `data[i * cols + j]`. Shapes are validated on
/// construction; binary operations panic with a descriptive message on shape
/// mismatch (a programming error, not a recoverable condition), while
/// numerically fallible routines such as Cholesky live in
/// [`crate::linalg`] and return [`Result`].
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix of ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![1.0; rows * cols] }
    }

    /// Creates a matrix where every element is `value`.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates an `n × n` scaled identity `delta · I`, as used for the
    /// TableDC covariance matrix (paper Eq. 3).
    pub fn scaled_identity(n: usize, delta: f64) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = delta;
        }
        m
    }

    /// Builds a matrix from nested row slices. Intended for tests and small
    /// literals.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "Matrix::from_rows: row {i} has length {} != {c}", row.len());
            data.extend_from_slice(row);
        }
        Self::from_vec(r, c, data)
    }

    /// Builds a matrix by evaluating `f(i, j)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self::from_vec(rows, cols, data)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// True if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of the flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning the flat buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Immutable view of row `i`.
    ///
    /// # Panics
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds for {} rows", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds for {} rows", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a fresh `Vec`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column index {j} out of bounds for {} columns", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Iterator over row slices.
    pub fn row_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns a new matrix containing only the rows whose indices appear in
    /// `indices`, in order. Indices may repeat.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Stacks `rows` (each of equal length) into a matrix.
    pub fn from_row_vecs(rows: &[Vec<f64>]) -> Matrix {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "from_row_vecs: row {i} has length {} != {c}", row.len());
            data.extend_from_slice(row);
        }
        Matrix::from_vec(r, c, data)
    }

    /// Applies `f` elementwise, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shaped matrices elementwise with `f`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        self.assert_same_shape(other, "zip_map");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Matrix product `self · other`.
    ///
    /// Runs the packed, register-tiled kernel of [`crate::par`] in parallel
    /// row blocks on the [`runtime::global`] pool. Each output element is
    /// the plain ascending-`p` sum of separately rounded products, so
    /// results are bit-identical for every thread count and CPU.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        crate::par::matmul(runtime::global(), self, other)
    }

    /// `selfᵀ · other` without materializing the transpose; bit-identical
    /// to `self.transpose().matmul(other)`.
    ///
    /// # Panics
    /// Panics if `self.rows != other.rows`.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        crate::par::matmul_tn(runtime::global(), self, other)
    }

    /// `self · otherᵀ` without materializing the transpose; bit-identical
    /// to `self.matmul(&other.transpose())`.
    ///
    /// # Panics
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        crate::par::matmul_nt(runtime::global(), self, other)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements. Returns 0 for an empty matrix.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Per-row sums as a length-`rows` vector.
    pub fn row_sums(&self) -> Vec<f64> {
        self.row_iter().map(|r| r.iter().sum()).collect()
    }

    /// Per-column sums as a length-`cols` vector.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        for row in self.row_iter() {
            for (s, &x) in sums.iter_mut().zip(row) {
                *s += x;
            }
        }
        sums
    }

    /// Per-column means.
    pub fn col_means(&self) -> Vec<f64> {
        let n = self.rows.max(1) as f64;
        self.col_sums().into_iter().map(|s| s / n).collect()
    }

    /// Index of the maximum element in each row (ties go to the first),
    /// computed in parallel row blocks.
    pub fn argmax_rows(&self) -> Vec<usize> {
        crate::par::argmax_rows(runtime::global(), self)
    }

    /// Squared Frobenius norm.
    pub fn frobenius_sq(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f64 {
        self.frobenius_sq().sqrt()
    }

    /// Adds `row` (length `cols`) to every row, returning a new matrix.
    /// This is the broadcast used for layer biases.
    pub fn add_row_broadcast(&self, row: &[f64]) -> Matrix {
        assert_eq!(
            row.len(),
            self.cols,
            "add_row_broadcast: vector length {} != cols {}",
            row.len(),
            self.cols
        );
        let mut out = self.clone();
        for r in out.data.chunks_exact_mut(self.cols) {
            for (x, &b) in r.iter_mut().zip(row) {
                *x += b;
            }
        }
        out
    }

    /// Elementwise maximum with a scalar (used by ReLU).
    pub fn max_scalar(&self, s: f64) -> Matrix {
        self.map(|x| x.max(s))
    }

    /// True if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute elementwise difference between two same-shaped
    /// matrices. Useful for test assertions.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        self.assert_same_shape(other, "max_abs_diff");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Row-wise softmax: each output row is `exp(x) / Σ exp(x)`, computed
    /// with the max-subtraction trick for numerical stability, in parallel
    /// row blocks.
    pub fn softmax_rows(&self) -> Matrix {
        crate::par::softmax_rows(runtime::global(), self)
    }

    /// Normalizes each row to unit L2 norm in parallel row blocks; zero
    /// rows are left unchanged.
    pub fn normalize_rows(&self) -> Matrix {
        crate::par::normalize_rows(runtime::global(), self)
    }

    /// Standardizes each column to zero mean and unit variance (columns
    /// with zero variance are left centered only). The usual preprocessing
    /// in front of neural encoders.
    pub fn standardize_cols(&self) -> Matrix {
        let (means, inv_std) = self.col_standardization();
        self.standardize_cols_with(&means, &inv_std)
    }

    /// The per-column statistics [`Matrix::standardize_cols`] applies:
    /// `(means, inverse standard deviations)`, with the inverse set to 1
    /// for zero-variance columns.
    pub fn col_standardization(&self) -> (Vec<f64>, Vec<f64>) {
        let means = self.col_means();
        let mut vars = vec![0.0f64; self.cols()];
        for row in self.row_iter() {
            for (v, (&x, &m)) in vars.iter_mut().zip(row.iter().zip(&means)) {
                let d = x - m;
                *v += d * d;
            }
        }
        let n = self.rows().max(1) as f64;
        let inv_std = vars
            .iter()
            .map(|&v| {
                let std = (v / n).sqrt();
                if std > 1e-12 {
                    1.0 / std
                } else {
                    1.0
                }
            })
            .collect();
        (means, inv_std)
    }

    /// Applies given column statistics: `(x − mean) · inv_std` per column,
    /// e.g. a training set's [`Matrix::col_standardization`] to new rows.
    ///
    /// # Panics
    /// Panics if either slice's length differs from the column count.
    pub fn standardize_cols_with(&self, means: &[f64], inv_std: &[f64]) -> Matrix {
        assert_eq!(means.len(), self.cols, "standardize_cols_with: {} means for {} columns", means.len(), self.cols);
        assert_eq!(inv_std.len(), self.cols, "standardize_cols_with: {} scales for {} columns", inv_std.len(), self.cols);
        let mut out = Matrix::zeros(self.rows, self.cols);
        let width = self.cols.max(1);
        for (out_row, row) in out.data.chunks_exact_mut(width).zip(self.data.chunks_exact(width)) {
            crate::par::standardize_row(out_row, row, means, inv_std);
        }
        out
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    /// Panics if row counts differ.
    pub fn hcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hcat: row counts differ ({} vs {})", self.rows, other.rows);
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(other.row(i));
        }
        out
    }

    /// Vertical concatenation.
    ///
    /// # Panics
    /// Panics if column counts differ.
    pub fn vcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vcat: column counts differ ({} vs {})", self.cols, other.cols);
        let mut data = Vec::with_capacity((self.rows + other.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix::from_vec(self.rows + other.rows, self.cols, data)
    }

    #[inline]
    fn assert_same_shape(&self, other: &Matrix, op: &str) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{op}: shape mismatch ({}x{} vs {}x{})",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        const MAX_SHOW: usize = 8;
        for i in 0..self.rows.min(MAX_SHOW) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(MAX_SHOW) {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self[(i, j)])?;
            }
            if self.cols > MAX_SHOW {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > MAX_SHOW {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

macro_rules! impl_elementwise {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait<&Matrix> for &Matrix {
            type Output = Matrix;
            fn $method(self, rhs: &Matrix) -> Matrix {
                self.zip_map(rhs, |a, b| a $op b)
            }
        }
        impl $trait<f64> for &Matrix {
            type Output = Matrix;
            fn $method(self, rhs: f64) -> Matrix {
                self.map(|a| a $op rhs)
            }
        }
    };
}

impl_elementwise!(Add, add, +);
impl_elementwise!(Sub, sub, -);
impl_elementwise!(Mul, mul, *);
impl_elementwise!(Div, div, /);

impl AddAssign<&Matrix> for Matrix {
    /// In-place elementwise `self = self + rhs` (same bits as `&self + rhs`).
    fn add_assign(&mut self, rhs: &Matrix) {
        self.assert_same_shape(rhs, "add_assign");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.map(|a| -a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_round_trips() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.into_vec(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn identity_is_diagonal_ones() {
        let i = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn scaled_identity_matches_paper_eq3() {
        let sigma = Matrix::scaled_identity(4, 0.01);
        assert_eq!(sigma[(2, 2)], 0.01);
        assert_eq!(sigma[(0, 1)], 0.0);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[0.0, 3.0, 9.0]]);
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_rejects_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn elementwise_operators() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(&a + &b, Matrix::from_rows(&[&[4.0, 6.0]]));
        assert_eq!(&b - &a, Matrix::from_rows(&[&[2.0, 2.0]]));
        assert_eq!(&a * &b, Matrix::from_rows(&[&[3.0, 8.0]]));
        assert_eq!(&b / &a, Matrix::from_rows(&[&[3.0, 2.0]]));
        assert_eq!(&a * 2.0, Matrix::from_rows(&[&[2.0, 4.0]]));
        assert_eq!(-&a, Matrix::from_rows(&[&[-1.0, -2.0]]));
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[1000.0, 1000.0, 1000.0]]);
        let s = m.softmax_rows();
        for i in 0..2 {
            let sum: f64 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "row {i} sums to {sum}");
        }
        assert!(s[(0, 2)] > s[(0, 1)] && s[(0, 1)] > s[(0, 0)]);
        // Large-magnitude row must not overflow thanks to max subtraction.
        assert!(s.all_finite());
        assert!((s[(1, 0)] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn row_and_col_accessors() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0, 5.0]);
        assert_eq!(m.row_sums(), vec![3.0, 7.0, 11.0]);
        assert_eq!(m.col_sums(), vec![9.0, 12.0]);
        assert_eq!(m.col_means(), vec![3.0, 4.0]);
    }

    #[test]
    fn argmax_rows_picks_first_on_tie() {
        let m = Matrix::from_rows(&[&[0.0, 5.0, 5.0], &[9.0, 1.0, 2.0]]);
        assert_eq!(m.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn select_rows_copies_in_order() {
        let m = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let s = m.select_rows(&[2, 0, 2]);
        assert_eq!(s, Matrix::from_rows(&[&[3.0, 3.0], &[1.0, 1.0], &[3.0, 3.0]]));
    }

    #[test]
    fn broadcast_add_bias() {
        let m = Matrix::zeros(2, 3);
        let out = m.add_row_broadcast(&[1.0, 2.0, 3.0]);
        assert_eq!(out.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(out.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn normalize_rows_unit_norm() {
        let m = Matrix::from_rows(&[&[3.0, 4.0], &[0.0, 0.0]]);
        let n = m.normalize_rows();
        assert!((n.row(0).iter().map(|x| x * x).sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(n.row(1), &[0.0, 0.0]); // zero row untouched
    }

    #[test]
    fn hcat_vcat_shapes_and_contents() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let b = Matrix::from_rows(&[&[3.0], &[4.0]]);
        assert_eq!(a.hcat(&b), Matrix::from_rows(&[&[1.0, 3.0], &[2.0, 4.0]]));
        assert_eq!(a.vcat(&b), Matrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]));
    }

    #[test]
    fn standardize_cols_zero_mean_unit_var() {
        let m = Matrix::from_rows(&[&[1.0, 5.0], &[3.0, 5.0], &[5.0, 5.0]]);
        let s = m.standardize_cols();
        let means = s.col_means();
        assert!(means[0].abs() < 1e-12);
        // Constant column: centered, not scaled.
        assert!(means[1].abs() < 1e-12);
        let var0: f64 = s.col(0).iter().map(|x| x * x).sum::<f64>() / 3.0;
        assert!((var0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn frobenius_norms() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(m.frobenius_sq(), 25.0);
        assert_eq!(m.frobenius(), 5.0);
    }
}
