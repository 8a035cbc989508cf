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
//! TableDC trains through [`Head::cluster_head`], which goes further: the
//! whole head, the target `p` and the loss in a few passes that store only
//! `q` and the kernel values as `n×k` matrices, recomputing the rows of
//! `m` and `p` where they are needed. The baselines compose the one-step
//! kernels ([`Head::soft_assign`], [`Head::cross_sum`], …), which share
//! their row functions with it.
//!
//! Each kernel performs the composed chain's arithmetic bit for bit: the
//! same operations on the same operands in the same order (row sums from
//! `0.0` in ascending column order, the loss sums over all entries in
//! row-major order). Outputs therefore equal the composed ops' and are
//! identical for every thread count.

use std::hint::black_box;

use runtime::{par_for_rows, ThreadPool};

use crate::matrix::Matrix;
use crate::par::softmax_row;

/// Entries per row block at which a block stops growing past
/// [`MIN_BLOCK_ROWS`] rows.
const BLOCK_ENTRIES: usize = 16_384;

/// Fewest rows per block: a 64-row request is always a single block.
const MIN_BLOCK_ROWS: usize = 64;

/// Most row blocks whose loss terms [`Head::cluster_head`] buffers at a
/// time: its term buffer stays a few blocks long however many threads the
/// pool has.
const MAX_SUM_CHUNK_BLOCKS: usize = 4;

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

/// One row of the target distribution `p` (Eq. 11 with DEC's row
/// normalization) from the row of `q` and the soft cluster frequencies
/// `f = col_sums(q)`: `qⱼ²/fⱼ` (0 where `fⱼ ≤ 0`), divided by the row's
/// sum when that is positive.
#[inline]
pub fn target_row(q_row: &[f64], f: &[f64], p_row: &mut [f64]) {
    let mut row_sum = 0.0;
    for ((pv, &qv), &fj) in p_row.iter_mut().zip(q_row).zip(f) {
        let v = if fj > 0.0 { qv * qv / fj } else { 0.0 };
        *pv = v;
        row_sum += v;
    }
    if row_sum > 0.0 {
        for pv in p_row.iter_mut() {
            *pv /= row_sum;
        }
    }
}

/// `p·ln(m + eps)`: one term of the cross-entropy sum.
#[inline]
fn cross_term(p: f64, m: f64, eps: f64) -> f64 {
    p * (m + eps).ln()
}

/// `p·ln p` for positive `p`, else 0: one term of the negative entropy.
#[inline]
fn neg_entropy_term(p: f64) -> f64 {
    if p > 0.0 {
        p * p.ln()
    } else {
        0.0
    }
}

/// `p·ln(p / max(q, floor))` for positive `p`, else 0: one term of the
/// reported divergence `KL(p‖q)`.
#[inline]
pub fn kl_term(p: f64, q: f64, floor: f64) -> f64 {
    if p > 0.0 {
        p * (p / q.max(floor)).ln()
    } else {
        0.0
    }
}

/// Eq. 7–8 on one row: the squared distances `d_row`, times `scale` when
/// set, become the kernel values `u_row` and the soft assignments `q_row`.
/// Returns the row's normalizer.
#[inline]
fn assign_row(
    kernel: SoftKernel,
    d_row: &[f64],
    scale: Option<f64>,
    u_row: &mut [f64],
    q_row: &mut [f64],
    eps: f64,
) -> f64 {
    u_row.copy_from_slice(d_row);
    if let Some(s) = scale {
        for v in u_row.iter_mut() {
            *v *= s;
        }
    }
    let den = kernel_row(kernel, u_row, eps);
    for (qv, &u) in q_row.iter_mut().zip(u_row.iter()) {
        *qv = u / den;
    }
    den
}

/// `m_row = softmax(q_row)` (Eq. 9), as [`Matrix::softmax_rows`] forms
/// each row.
#[inline]
fn softmax_into(q_row: &[f64], m_row: &mut [f64]) {
    m_row.copy_from_slice(q_row);
    softmax_row(m_row);
}

/// The row softmax's backward in place: `g` (the gradient at `y`) becomes
/// `y ∘ (g − Σⱼ g∘y)`.
#[inline]
fn softmax_backward_row(y_row: &[f64], g: &mut [f64]) {
    for (o, &yv) in g.iter_mut().zip(y_row) {
        *o *= yv;
    }
    let dot: f64 = g.iter().sum();
    for (o, &yv) in g.iter_mut().zip(y_row) {
        *o -= yv * dot;
    }
}

/// Eq. 7–8's backward on one row in place: `g` (the gradient at `q`)
/// becomes the gradient at the squared distances `d_row`, given the row's
/// kernel values `u_row` and normalizer `den`. With a `scale`, the
/// kernel's input was `d·scale` ([`assign_row`]), and the gradient is
/// multiplied by `scale` on its way back.
#[inline]
fn assign_backward_row(
    kernel: SoftKernel,
    d_row: &[f64],
    scale: Option<f64>,
    u_row: &[f64],
    den: f64,
    g: &mut [f64],
) {
    let mut s = 0.0;
    for (&gv, &u) in g.iter().zip(u_row) {
        s += gv * u;
    }
    let db = -s / (den * den);
    for ((o, &d), &u) in g.iter_mut().zip(d_row).zip(u_row) {
        *o = match scale {
            None => kernel.backward(d, u, *o / den + db),
            Some(c) => kernel.backward(d * c, u, *o / den + db) * c,
        };
    }
}

/// `1/n` for `n` rows (`n = 0` counts as 1).
fn inv_rows(n: usize) -> f64 {
    1.0 / n.max(1) as f64
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

/// The constants of TableDC's clustering head and loss
/// ([`Head::cluster_head`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadSpec {
    /// A factor the squared distances are multiplied by before the kernel
    /// (the scaled-identity Mahalanobis distance's `1/δ`), if any.
    pub scale: Option<f64>,
    /// The similarity kernel (Eq. 7).
    pub kernel: SoftKernel,
    /// The guard added to each row sum of kernel values (Eq. 8).
    pub eps: f64,
    /// The guard inside the loss logarithms: `ln(m + log_eps)` and the
    /// floor `max(q, log_eps)` of the reported `KL(p‖q)`.
    pub log_eps: f64,
}

/// What [`Head::cluster_head`]'s backward needs besides `d2` and `q`.
#[derive(Debug, Clone)]
pub struct HeadSaved {
    /// The kernel values `u` (Eq. 7).
    pub u: Matrix,
    /// Per-row normalizers `Σⱼ uᵢⱼ + ε`.
    pub denom: Vec<f64>,
    /// Soft cluster frequencies `f = col_sums(q)`, from which each row of
    /// the target `p` is recomputed.
    pub f: Vec<f64>,
}

/// Output of [`Head::cluster_head`].
#[derive(Debug, Clone)]
pub struct HeadForward {
    /// Soft assignments `q` (Eq. 8).
    pub q: Matrix,
    /// The loss `KL(p‖m) = −(1/n)·Σ p·ln(m + ε) + (1/n)·Σ p·ln p` (Eq. 10).
    pub loss: f64,
    /// The reported divergence `KL(p‖q)` (Figure 5).
    pub kl_pq: f64,
    /// The state the backward reads.
    pub saved: HeadSaved,
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
        self.assign_blocks(d2, None, kernel, eps, (&mut q, &mut raw), &mut denom);
        SoftAssign { q, raw, denom }
    }

    /// TableDC's clustering head and loss (paper Eq. 7–11 and Eq. 10's
    /// `KL(p‖m)`) in row-block passes, bit-identical to
    /// [`Head::soft_assign`] on `d2·scale`, the row softmax `m`, the
    /// target distribution `p`, [`Head::cross_sum`] plus
    /// [`Head::neg_entropy_sum`], and the row-major sum of [`kl_term`]s:
    ///
    /// 1. `u` and `q`, row by row;
    /// 2. `f = col_sums(q)`, then for each row the rows of `m` and `p` and
    ///    their terms of `p·ln(m + ε)`, `p·ln p` and `KL(p‖q)`, added
    ///    serially in row-major order from a buffer of a few row blocks;
    /// 3. [`Head::cluster_head_backward`], on demand.
    ///
    /// Only `q` and `u` are stored as `n×k` matrices: `m`, `p` and the
    /// terms never are.
    pub fn cluster_head(self, d2: &Matrix, spec: HeadSpec) -> HeadForward {
        let (n, k) = d2.shape();
        let mut q = Matrix::zeros(n, k);
        let mut u = Matrix::zeros(n, k);
        let mut denom = vec![spec.eps; n];
        self.assign_blocks(d2, spec.scale, spec.kernel, spec.eps, (&mut q, &mut u), &mut denom);
        let f = q.col_sums();
        let [cross, neg_entropy, kl] = self.loss_sums(&q, &f, spec.log_eps);
        let n_rows = n.max(1) as f64;
        let loss = -cross * inv_rows(n) + neg_entropy / n_rows;
        HeadForward { q, loss, kl_pq: kl / n_rows, saved: HeadSaved { u, denom, f } }
    }

    /// The gradient w.r.t. the unscaled `d2` of `g·loss` for
    /// [`Head::cluster_head`]'s `loss`, in one row-parallel pass: the rows
    /// of `m` and `p` are recomputed from `q` and `f`, then the
    /// cross-entropy, softmax, soft-assignment and `·scale` backward run in
    /// place in the output row, with [`Head::cross_backward`],
    /// [`Head::softmax_rows_backward`] and [`Head::soft_assign_backward`]'s
    /// arithmetic. The output is the pass's only `n×k` allocation.
    pub fn cluster_head_backward(
        self,
        spec: HeadSpec,
        d2: &Matrix,
        q: &Matrix,
        saved: &HeadSaved,
        g: f64,
    ) -> Matrix {
        let kernel = black_box(spec.kernel);
        let (n, k) = d2.shape();
        let ce_scale = -(g * inv_rows(n));
        let mut out = Matrix::zeros(n, k);
        par_for_rows(self.pool, out.as_mut_slice(), k, rows_per_block(k), |first, block| {
            let mut m_row = vec![0.0; k];
            for (r, out) in block.chunks_exact_mut(k).enumerate() {
                let i = first + r;
                softmax_into(q.row(i), &mut m_row);
                target_row(q.row(i), &saved.f, out);
                for (o, &mv) in out.iter_mut().zip(&m_row) {
                    *o = ce_scale * *o / (mv + spec.log_eps);
                }
                softmax_backward_row(&m_row, out);
                assign_backward_row(kernel, d2.row(i), spec.scale, saved.u.row(i), saved.denom[i], out);
            }
        });
        out
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
        self.map_rows(d2.shape(), |i, out| {
            out.copy_from_slice(g.row(i));
            assign_backward_row(kernel, d2.row(i), None, raw.row(i), denom[i], out);
        })
    }

    /// Gradient of the row softmax `y = softmax(x)` w.r.t. `x`, given the
    /// gradient `g` arriving at `y`: `y ∘ (g − Σⱼ g∘y)` per row.
    pub fn softmax_rows_backward(self, y: &Matrix, g: &Matrix) -> Matrix {
        self.map_rows(y.shape(), |i, out| {
            out.copy_from_slice(g.row(i));
            softmax_backward_row(y.row(i), out);
        })
    }

    /// `Σᵢⱼ pᵢⱼ·ln(mᵢⱼ + eps)`, summed in row-major order.
    pub fn cross_sum(self, p: &Matrix, m: &Matrix, eps: f64) -> f64 {
        assert_eq!(p.shape(), m.shape(), "cross_sum: shape mismatch");
        self.sum_terms(p.shape(), |i, j| cross_term(p[(i, j)], m[(i, j)], eps))
    }

    /// `Σᵢⱼ pᵢⱼ·ln pᵢⱼ` over the positive entries, summed in row-major
    /// order (`n·KL(p‖m)` minus the cross term).
    pub fn neg_entropy_sum(self, p: &Matrix) -> f64 {
        self.sum_terms(p.shape(), |i, j| neg_entropy_term(p[(i, j)]))
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

    /// Pass 1 of the head over fixed row blocks: [`assign_row`] into the
    /// rows of `q`, `u` and `denom`.
    fn assign_blocks(
        self,
        d2: &Matrix,
        scale: Option<f64>,
        kernel: SoftKernel,
        eps: f64,
        (q, u): (&mut Matrix, &mut Matrix),
        denom: &mut [f64],
    ) {
        let (n, k) = d2.shape();
        if n == 0 || k == 0 {
            return;
        }
        let rows = rows_per_block(k);
        let mut blocks: Vec<_> = q
            .as_mut_slice()
            .chunks_mut(rows * k)
            .zip(u.as_mut_slice().chunks_mut(rows * k))
            .zip(denom.chunks_mut(rows))
            .collect();
        par_for_rows(self.pool, &mut blocks, 1, 1, |b, slot| {
            let ((q_block, u_block), denom_block) = &mut slot[0];
            let rows_here = q_block.chunks_exact_mut(k).zip(u_block.chunks_exact_mut(k));
            for (r, ((q_row, u_row), den)) in rows_here.zip(denom_block.iter_mut()).enumerate() {
                *den = assign_row(kernel, d2.row(b * rows + r), scale, u_row, q_row, eps);
            }
        });
    }

    /// Pass 2 of the head: `[Σ p·ln(m + eps), Σ p·ln p, Σ KL(p‖q) terms]`
    /// over all entries in row-major order, the rows of `m = softmax(q)`
    /// and of `p` recomputed from `q` and `f`. The terms of a chunk of one
    /// row block per pool thread (at most [`MAX_SUM_CHUNK_BLOCKS`]) are
    /// evaluated in parallel into a reused buffer, then added serially, so
    /// each sum is the plain left-to-right one.
    fn loss_sums(self, q: &Matrix, f: &[f64], eps: f64) -> [f64; 3] {
        let (n, k) = q.shape();
        // `Iterator::sum`'s start value, so an all-`−0.0` sum keeps its sign.
        let mut sums = [std::iter::empty::<f64>().sum(); 3];
        if n == 0 || k == 0 {
            return sums;
        }
        let block = rows_per_block(k);
        let chunk_rows = (block * self.pool.threads().clamp(1, MAX_SUM_CHUNK_BLOCKS)).min(n);
        let mut terms = vec![0.0; 3 * k * chunk_rows];
        for first in (0..n).step_by(chunk_rows) {
            let buf = &mut terms[..3 * k * chunk_rows.min(n - first)];
            par_for_rows(self.pool, buf, 3 * k, block, |r0, rows| {
                for (r, t) in rows.chunks_exact_mut(3 * k).enumerate() {
                    let q_row = q.row(first + r0 + r);
                    // The row's `p` and `m` go where its cross and entropy
                    // terms will, and are read just before those are written.
                    let (cross, rest) = t.split_at_mut(k);
                    let (ent, kl) = rest.split_at_mut(k);
                    target_row(q_row, f, cross);
                    softmax_into(q_row, ent);
                    for (((c, e), d), &qv) in cross.iter_mut().zip(ent.iter_mut()).zip(kl.iter_mut()).zip(q_row) {
                        let (p, mv) = (*c, *e);
                        (*c, *e, *d) = (cross_term(p, mv, eps), neg_entropy_term(p), kl_term(p, qv, eps));
                    }
                }
            });
            for t in buf.chunks_exact(3 * k) {
                for j in 0..k {
                    sums[0] += t[j];
                    sums[1] += t[k + j];
                    sums[2] += t[2 * k + j];
                }
            }
        }
        sums
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
