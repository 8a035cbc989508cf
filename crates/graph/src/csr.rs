//! Compressed sparse row matrices.
//!
//! The GCN-based baselines (SDCN, DFCN, DCRN — §2.1/§4.8 of the paper)
//! multiply a normalized adjacency matrix into dense feature matrices every
//! layer. Those adjacencies come from KNN graphs and are extremely sparse
//! (k·n non-zeros), so a CSR representation keeps the per-layer cost at
//! `O(nnz · d)` instead of `O(n² · d)` — which is exactly the quadratic
//! scaling in the number of data points that Figure 3 measures against.

use std::rc::Rc;

use autograd::LinearOperator;
use tensor::Matrix;

/// A sparse matrix in compressed sparse row format.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    /// Row pointer: `indptr[i]..indptr[i+1]` indexes row i's entries.
    indptr: Vec<usize>,
    /// Column index per stored entry.
    indices: Vec<usize>,
    /// Value per stored entry.
    values: Vec<f64>,
}

impl Csr {
    /// Builds a CSR matrix from (row, col, value) triplets. Duplicate
    /// coordinates are summed; zero values are kept (callers may prune).
    ///
    /// # Panics
    /// Panics if any coordinate is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of bounds for {rows}x{cols}");
        }
        let mut sorted: Vec<(usize, usize, f64)> = triplets.to_vec();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));
        // Merge duplicates.
        let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            match merged.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => merged.push((r, c, v)),
            }
        }
        let mut indptr = vec![0usize; rows + 1];
        for &(r, _, _) in &merged {
            indptr[r + 1] += 1;
        }
        for i in 0..rows {
            indptr[i + 1] += indptr[i];
        }
        let indices = merged.iter().map(|&(_, c, _)| c).collect();
        let values = merged.iter().map(|&(_, _, v)| v).collect();
        Self { rows, cols, indptr, indices, values }
    }

    /// The `n × n` identity as CSR.
    pub fn identity(n: usize) -> Self {
        Self {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates over the `(col, value)` entries of row `i`.
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.indptr[i]..self.indptr[i + 1];
        self.indices[range.clone()].iter().copied().zip(self.values[range].iter().copied())
    }

    /// Reads a single element (O(log nnz_row)).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let range = self.indptr[i]..self.indptr[i + 1];
        match self.indices[range.clone()].binary_search(&j) {
            Ok(pos) => self.values[range.start + pos],
            Err(_) => 0.0,
        }
    }

    /// Dense `self · rhs` product: `O(nnz · rhs.cols())`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matmul_dense(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows(), "csr matmul: {}x{} · {}x{}", self.rows, self.cols, rhs.rows(), rhs.cols());
        let m = rhs.cols();
        let mut out = Matrix::zeros(self.rows, m);
        for i in 0..self.rows {
            let out_row = out.row_mut(i);
            for (j, v) in self.row_entries(i) {
                let rhs_row = rhs.row(j);
                for (o, &r) in out_row.iter_mut().zip(rhs_row) {
                    *o += v * r;
                }
            }
        }
        out
    }

    /// Dense `selfᵀ · rhs` product without materializing the transpose.
    pub fn matmul_transpose_dense(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows(), "csr matmul_t: dimension mismatch");
        let m = rhs.cols();
        let mut out = Matrix::zeros(self.cols, m);
        for i in 0..self.rows {
            let rhs_row = rhs.row(i);
            for (j, v) in self.row_entries(i) {
                let out_row = out.row_mut(j);
                for (o, &r) in out_row.iter_mut().zip(rhs_row) {
                    *o += v * r;
                }
            }
        }
        out
    }

    /// Materializes as a dense matrix (tests / tiny graphs only).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, v) in self.row_entries(i) {
                out[(i, j)] += v;
            }
        }
        out
    }

    /// Per-row sum of values (the degree vector for an adjacency matrix).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|i| self.row_entries(i).map(|(_, v)| v).sum()).collect()
    }

    /// Returns a symmetrized copy `max(A, Aᵀ)` pattern-wise using value
    /// maximum — the usual way to make a KNN graph undirected.
    pub fn symmetrize_max(&self) -> Csr {
        assert_eq!(self.rows, self.cols, "symmetrize: matrix must be square");
        let mut trip: Vec<(usize, usize, f64)> = Vec::with_capacity(self.nnz() * 2);
        for i in 0..self.rows {
            for (j, v) in self.row_entries(i) {
                let vt = self.get(j, i);
                let m = v.max(vt);
                trip.push((i, j, m));
                trip.push((j, i, m));
            }
        }
        // from_triplets sums duplicates, so divide doubled entries by the
        // number of times they were pushed. Simpler: dedup first.
        trip.sort_unstable_by_key(|a| (a.0, a.1));
        trip.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
        Csr::from_triplets(self.rows, self.cols, &trip)
    }

    /// Wraps this matrix in an [`Rc`] for use as a constant operator inside
    /// the autograd graph.
    pub fn into_operator(self) -> Rc<Csr> {
        Rc::new(self)
    }
}

impl LinearOperator for Csr {
    fn out_rows(&self) -> usize {
        self.rows
    }

    fn apply(&self, rhs: &Matrix) -> Matrix {
        self.matmul_dense(rhs)
    }

    fn apply_transpose(&self, rhs: &Matrix) -> Matrix {
        self.matmul_transpose_dense(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplets_round_trip_and_merge_duplicates() {
        let c = Csr::from_triplets(2, 3, &[(0, 1, 2.0), (1, 2, 3.0), (0, 1, 0.5)]);
        assert_eq!(c.nnz(), 2);
        assert_eq!(c.get(0, 1), 2.5);
        assert_eq!(c.get(1, 2), 3.0);
        assert_eq!(c.get(0, 0), 0.0);
    }

    #[test]
    fn matmul_matches_dense() {
        let c = Csr::from_triplets(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, -1.0), (2, 0, 0.5)]);
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let sparse = c.matmul_dense(&x);
        let dense = c.to_dense().matmul(&x);
        assert!(sparse.max_abs_diff(&dense) < 1e-12);
    }

    #[test]
    fn transpose_matmul_matches_dense() {
        let c = Csr::from_triplets(3, 2, &[(0, 0, 1.0), (1, 1, 2.0), (2, 0, 3.0)]);
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let got = c.matmul_transpose_dense(&x);
        let expect = c.to_dense().transpose().matmul(&x);
        assert!(got.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn identity_behaves() {
        let i = Csr::identity(4);
        let x = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f64);
        assert!(i.matmul_dense(&x).max_abs_diff(&x) < 1e-15);
        assert_eq!(i.nnz(), 4);
    }

    #[test]
    fn symmetrize_makes_undirected() {
        let c = Csr::from_triplets(3, 3, &[(0, 1, 1.0), (1, 2, 2.0)]);
        let s = c.symmetrize_max();
        assert_eq!(s.get(1, 0), 1.0);
        assert_eq!(s.get(2, 1), 2.0);
        assert!(s.to_dense().max_abs_diff(&s.to_dense().transpose()) < 1e-15);
    }

    #[test]
    fn row_sums_are_degrees() {
        let c = Csr::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0)]);
        assert_eq!(c.row_sums(), vec![2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_out_of_bounds_triplets() {
        let _ = Csr::from_triplets(2, 2, &[(2, 0, 1.0)]);
    }
}
