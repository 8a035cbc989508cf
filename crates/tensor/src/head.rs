//! Fused, row-parallel kernels of the soft-assignment clustering head
//! (paper Eq. 7–11) and of its cross-entropy / KL loss, forward and
//! backward.
//!
//! The head maps an `n×k` matrix of squared distances to soft assignments
//! `q`: a pointwise kernel (Eq. 7), the row sums, the `ε` guard and the row
//! division (Eq. 8). Training takes the row softmax `m = softmax(q)`
//! (Eq. 9) and the loss `−(1/n)·Σ p·ln(m + ε)` against a constant target
//! `p` (Eq. 10–11). Written as a chain of elementwise autograd ops, every
//! step allocates a fresh `n×k` matrix forward and again backward; these
//! kernels do each step in one pass over fixed row blocks
//! ([`rows_per_block`], a function of `k` only) on a pool. One block runs
//! inline, so small requests never touch the pool's queues.
//!
//! Each kernel performs the composed chain's arithmetic bit for bit: the
//! same operations on the same operands in the same order (row sums from
//! `0.0` in ascending column order, the loss sums over all entries in
//! row-major order). Outputs therefore equal the composed ops' and are
//! identical for every thread count.

use std::hint::black_box;

use runtime::{par_for_rows, ThreadPool};

use crate::matrix::Matrix;

/// Entries per row block at which a block stops growing past
/// [`MIN_BLOCK_ROWS`] rows.
const BLOCK_ENTRIES: usize = 16_384;

/// Fewest rows per block: a 64-row request is always a single block.
const MIN_BLOCK_ROWS: usize = 64;

/// Rows per block of the head kernels for `k` columns: at least 64 rows,
/// and about [`BLOCK_ENTRIES`] entries when rows are short. It never
/// depends on the thread count (and no output depends on it).
pub fn rows_per_block(k: usize) -> usize {
    (BLOCK_ENTRIES / k.max(1)).max(MIN_BLOCK_ROWS)
}

/// The pointwise similarity kernel of Eq. 7 and its Table 5 alternatives,
/// as a function of one squared distance `d²`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SoftKernel {
    /// `(d²·scale + 1)^exponent`: Cauchy (`scale = 1/γ²`, `exponent = −1`)
    /// and Student's t (`scale = 1/ν`, `exponent = −(ν+1)/2`).
    Power {
        /// Multiplier of `d²`.
        scale: f64,
        /// Power applied to `d²·scale + 1`.
        exponent: f64,
    },
    /// `exp(d²·scale)`: the Gaussian kernel with `scale = −1/(2σ²)`.
    Exp {
        /// Multiplier of `d²`.
        scale: f64,
    },
}

impl SoftKernel {
    /// The kernel value of one squared distance.
    ///
    /// Callers that fix the kernel at compile time must pass it through
    /// [`black_box`] first: LLVM folds `powf` with a constant exponent of
    /// `−1.0` into `1.0 / x`, which rounds differently.
    #[inline]
    pub fn eval(self, d2: f64) -> f64 {
        match self {
            SoftKernel::Power { scale, exponent } => (d2 * scale + 1.0).powf(exponent),
            SoftKernel::Exp { scale } => (d2 * scale).exp(),
        }
    }

    /// `g·∂u/∂d²` at squared distance `d2`, where `u` is the kernel value
    /// there and `g` the gradient arriving at `u`.
    #[inline]
    fn backward(self, d2: f64, u: f64, g: f64) -> f64 {
        match self {
            SoftKernel::Power { scale, exponent } => {
                g * exponent * (d2 * scale + 1.0).powf(exponent - 1.0) * scale
            }
            SoftKernel::Exp { scale } => g * u * scale,
        }
    }
}

/// Eq. 7 on one row in place: every squared distance becomes its kernel
/// value `u`. Returns Eq. 8's normalizer `Σⱼ uⱼ + eps`, summed in
/// ascending order; dividing the row by it gives the row of `q`.
#[inline]
pub fn kernel_row(kernel: SoftKernel, row: &mut [f64], eps: f64) -> f64 {
    let kernel = black_box(kernel);
    for v in row.iter_mut() {
        *v = kernel.eval(*v);
    }
    row.iter().sum::<f64>() + eps
}

/// Output of [`Head::soft_assign`].
#[derive(Debug, Clone)]
pub struct SoftAssign {
    /// Row-normalized soft assignments `q` (Eq. 8).
    pub q: Matrix,
    /// Kernel values before the row division, kept for the backward pass.
    pub raw: Matrix,
    /// Per-row normalizers `Σⱼ rawᵢⱼ + ε`.
    pub denom: Vec<f64>,
}

/// The fused head kernels bound to a pool.
#[derive(Clone, Copy)]
pub struct Head<'p> {
    pool: &'p ThreadPool,
}

impl Head<'static> {
    /// The kernels on the process-wide [`runtime::global`] pool.
    pub fn global() -> Self {
        Head { pool: runtime::global() }
    }
}

impl<'p> Head<'p> {
    /// The kernels on an explicit pool.
    pub fn on(pool: &'p ThreadPool) -> Self {
        Head { pool }
    }

    /// Soft assignments of the squared distances `d2` (Eq. 7–8):
    /// `qᵢⱼ = uᵢⱼ / (Σⱼ uᵢⱼ + eps)` with `uᵢⱼ = kernel(d2ᵢⱼ)`.
    pub fn soft_assign(self, d2: &Matrix, kernel: SoftKernel, eps: f64) -> SoftAssign {
        let (n, k) = d2.shape();
        let mut q = Matrix::zeros(n, k);
        let mut raw = Matrix::zeros(n, k);
        let mut denom = vec![eps; n];
        if n == 0 || k == 0 {
            return SoftAssign { q, raw, denom };
        }
        let rows = rows_per_block(k);
        let mut blocks: Vec<_> = q
            .as_mut_slice()
            .chunks_mut(rows * k)
            .zip(raw.as_mut_slice().chunks_mut(rows * k))
            .zip(denom.chunks_mut(rows))
            .collect();
        par_for_rows(self.pool, &mut blocks, 1, 1, |b, slot| {
            let ((q_block, raw_block), denom_block) = &mut slot[0];
            let rows_here = q_block.chunks_exact_mut(k).zip(raw_block.chunks_exact_mut(k));
            for (r, ((q_row, raw_row), den)) in rows_here.zip(denom_block.iter_mut()).enumerate() {
                raw_row.copy_from_slice(d2.row(b * rows + r));
                *den = kernel_row(kernel, raw_row, eps);
                for (qv, &u) in q_row.iter_mut().zip(raw_row.iter()) {
                    *qv = u / *den;
                }
            }
        });
        SoftAssign { q, raw, denom }
    }

    /// Gradient w.r.t. `d2` of [`Head::soft_assign`], given the gradient
    /// `g` arriving at `q` and the forward's `raw` and `denom`.
    pub fn soft_assign_backward(
        self,
        d2: &Matrix,
        kernel: SoftKernel,
        raw: &Matrix,
        denom: &[f64],
        g: &Matrix,
    ) -> Matrix {
        let kernel = black_box(kernel);
        let k = d2.cols();
        self.map_rows(d2.shape(), |i, out| {
            let (g_row, u_row, d_row) = (g.row(i), raw.row(i), d2.row(i));
            let b = denom[i];
            let mut s = 0.0;
            for (&gv, &u) in g_row.iter().zip(u_row) {
                s += gv * u;
            }
            let db = -s / (b * b);
            for j in 0..k {
                out[j] = kernel.backward(d_row[j], u_row[j], g_row[j] / b + db);
            }
        })
    }

    /// Gradient of the row softmax `y = softmax(x)` w.r.t. `x`, given the
    /// gradient `g` arriving at `y`: `y ∘ (g − Σⱼ g∘y)` per row.
    pub fn softmax_rows_backward(self, y: &Matrix, g: &Matrix) -> Matrix {
        self.map_rows(y.shape(), |i, out| {
            for ((o, &gv), &yv) in out.iter_mut().zip(g.row(i)).zip(y.row(i)) {
                *o = gv * yv;
            }
            let dot: f64 = out.iter().sum();
            for (o, &yv) in out.iter_mut().zip(y.row(i)) {
                *o -= yv * dot;
            }
        })
    }

    /// `Σᵢⱼ pᵢⱼ·ln(mᵢⱼ + eps)`, summed in row-major order.
    pub fn cross_sum(self, p: &Matrix, m: &Matrix, eps: f64) -> f64 {
        assert_eq!(p.shape(), m.shape(), "cross_sum: shape mismatch");
        self.sum_terms(p.shape(), |i, j| p[(i, j)] * (m[(i, j)] + eps).ln())
    }

    /// `Σᵢⱼ pᵢⱼ·ln pᵢⱼ` over the positive entries, summed in row-major
    /// order (`n·KL(p‖m)` minus the cross term).
    pub fn neg_entropy_sum(self, p: &Matrix) -> f64 {
        self.sum_terms(p.shape(), |i, j| {
            let x = p[(i, j)];
            if x > 0.0 {
                x * x.ln()
            } else {
                0.0
            }
        })
    }

    /// Gradient w.r.t. `m` of `scale·Σ p·ln(m + eps)`:
    /// `(scale·p) / (m + eps)`.
    pub fn cross_backward(self, p: &Matrix, m: &Matrix, eps: f64, scale: f64) -> Matrix {
        self.map_rows(m.shape(), |i, out| {
            for ((o, &pv), &mv) in out.iter_mut().zip(p.row(i)).zip(m.row(i)) {
                *o = scale * pv / (mv + eps);
            }
        })
    }

    /// An `n×k` matrix whose row `i` is written by `f(i, row)`, over row
    /// blocks in parallel.
    fn map_rows(self, (n, k): (usize, usize), f: impl Fn(usize, &mut [f64]) + Sync) -> Matrix {
        let mut out = Matrix::zeros(n, k);
        par_for_rows(self.pool, out.as_mut_slice(), k, rows_per_block(k), |first, block| {
            for (r, row) in block.chunks_exact_mut(k).enumerate() {
                f(first + r, row);
            }
        });
        out
    }

    /// `Σᵢⱼ term(i, j)` in row-major order: the terms are evaluated in
    /// parallel row blocks, then added serially so the sum is the plain
    /// left-to-right one, bit-identical to `Σ` over an iterator of the
    /// terms for every pool.
    pub fn sum_terms(self, shape: (usize, usize), term: impl Fn(usize, usize) -> f64 + Sync) -> f64 {
        let terms = self.map_rows(shape, |i, row| {
            for (j, t) in row.iter_mut().enumerate() {
                *t = term(i, j);
            }
        });
        terms.as_slice().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_per_block_keeps_small_requests_in_one_block() {
        for k in [1, 37, 64, 684, 100_000] {
            assert!(rows_per_block(k) >= 64, "k = {k}");
        }
        assert_eq!(rows_per_block(684), 64);
        assert_eq!(rows_per_block(37), BLOCK_ENTRIES / 37);
    }

    #[test]
    fn empty_shapes() {
        let pool = ThreadPool::new(2);
        let head = Head::on(&pool);
        let kernel = SoftKernel::Exp { scale: -0.5 };
        let sa = head.soft_assign(&Matrix::zeros(3, 0), kernel, 1e-10);
        assert_eq!((sa.q.shape(), sa.denom), ((3, 0), vec![1e-10; 3]));
        assert_eq!(head.soft_assign(&Matrix::zeros(0, 4), kernel, 1e-10).q.shape(), (0, 4));
        assert_eq!(head.cross_sum(&Matrix::zeros(0, 4), &Matrix::zeros(0, 4), 1e-12), 0.0);
        assert_eq!(head.softmax_rows_backward(&Matrix::zeros(2, 0), &Matrix::zeros(2, 0)).shape(), (2, 0));
    }
}
