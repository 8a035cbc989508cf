//! Operation records and their backward rules.
//!
//! Every differentiable operation the tape supports is one variant of
//! [`Op`]; [`Op::backward`] pushes the upstream gradient `g` of a node back
//! to its parents. Keeping the rules in one `match` (instead of boxed
//! closures) makes the whole engine auditable at a glance.

use std::rc::Rc;

use tensor::head::{Head, SoftKernel};
use tensor::Matrix;

/// A constant linear operator that can appear on the left of a matrix
/// product inside the graph without being differentiated itself.
///
/// This is how graph convolutions enter the autodiff graph: the normalized
/// adjacency `Â` (a sparse CSR matrix in `crates/graph`) implements this
/// trait, so `Â·H` is differentiable w.r.t. `H` while `Â` stays constant
/// and sparse.
pub trait LinearOperator {
    /// Output rows of `self · rhs`.
    fn out_rows(&self) -> usize;
    /// `self · rhs` (dense result).
    fn apply(&self, rhs: &Matrix) -> Matrix;
    /// `selfᵀ · rhs` (dense result) — needed for the backward pass.
    fn apply_transpose(&self, rhs: &Matrix) -> Matrix;
}

/// The operation that produced a node, with parent node ids.
pub(crate) enum Op {
    /// Input / parameter: no parents.
    Leaf,
    /// `a + b`, same shapes.
    Add(usize, usize),
    /// `a - b`, same shapes.
    Sub(usize, usize),
    /// Elementwise `a ∘ b`.
    Mul(usize, usize),
    /// Elementwise `a / b`.
    Div(usize, usize),
    /// `a · b`.
    MatMul(usize, usize),
    /// `a` (n×c) plus row vector `b` (1×c) broadcast to every row.
    AddRowBroadcast(usize, usize),
    /// `a · s` for scalar `s`.
    Scale(usize, f64),
    /// `a + s` elementwise.
    AddScalar(usize),
    /// `-a`.
    Neg(usize),
    /// `max(a, 0)`.
    Relu(usize),
    /// Logistic sigmoid.
    Sigmoid(usize),
    /// Hyperbolic tangent.
    Tanh(usize),
    /// `exp(a)`.
    Exp(usize),
    /// `ln(a)`; caller is responsible for positivity.
    Ln(usize),
    /// `sqrt(a)`.
    Sqrt(usize),
    /// `a^p` elementwise for constant `p`.
    PowScalar(usize, f64),
    /// `aᵀ`.
    Transpose(usize),
    /// Row-wise softmax.
    SoftmaxRows(usize),
    /// Sum of all elements → 1×1.
    Sum(usize),
    /// Mean of all elements → 1×1.
    Mean(usize),
    /// Per-row sums → n×1.
    RowSums(usize),
    /// `a` (n×k) divided by column `b` (n×1) broadcast across columns.
    DivColBroadcast(usize, usize),
    /// Pairwise squared Euclidean distances between rows of `x` (n×d) and
    /// rows of `c` (k×d) → n×k. The joint primitive for every
    /// distance-to-centroid kernel (Euclidean, scaled-identity Mahalanobis,
    /// and whitened general Mahalanobis).
    SqDistCdist(usize, usize),
    /// `lin · b` where `lin` is a constant linear operator (e.g. sparse Â).
    ApplyLeft(Rc<dyn LinearOperator>, usize),
    /// Fused soft assignment of squared distances `d2` (kernel, row sums,
    /// `+ε`, row division). `raw` and `denom` are the forward's kernel
    /// values and row normalizers, kept for the backward.
    SoftAssign { d2: usize, kernel: SoftKernel, raw: Matrix, denom: Vec<f64> },
    /// Fused `−(1/n)·Σ p·ln(m + ε)` (plus a constant) for a constant
    /// target `p`, with `inv_n = 1/n`.
    CrossEntropy { m: usize, p: Matrix, eps: f64, inv_n: f64 },
}

impl Op {
    /// Propagates the upstream gradient `g` of a node with `value` to the
    /// parent gradient accumulators.
    ///
    /// `values` borrows all node values; `acc(id, delta)` accumulates
    /// `delta` into the gradient of parent `id`.
    pub(crate) fn backward(
        &self,
        value: &Matrix,
        g: &Matrix,
        values: &[&Matrix],
        acc: &mut dyn FnMut(usize, Matrix),
    ) {
        match self {
            Op::Leaf => {}
            Op::Add(a, b) => {
                acc(*a, g.clone());
                acc(*b, g.clone());
            }
            Op::Sub(a, b) => {
                acc(*a, g.clone());
                acc(*b, -g);
            }
            Op::Mul(a, b) => {
                acc(*a, g * values[*b]);
                acc(*b, g * values[*a]);
            }
            Op::Div(a, b) => {
                let vb = values[*b];
                acc(*a, g / vb);
                let ratio = &(g * values[*a]) / &(vb * vb);
                acc(*b, -&ratio);
            }
            Op::MatMul(a, b) => {
                acc(*a, g.matmul_nt(values[*b]));
                acc(*b, values[*a].matmul_tn(g));
            }
            Op::AddRowBroadcast(a, b) => {
                acc(*a, g.clone());
                acc(*b, Matrix::from_vec(1, g.cols(), g.col_sums()));
            }
            Op::Scale(a, s) => acc(*a, g * *s),
            Op::AddScalar(a) => acc(*a, g.clone()),
            Op::Neg(a) => acc(*a, -g),
            Op::Relu(a) => {
                acc(*a, g.zip_map(&values[*a], |gi, x| if x > 0.0 { gi } else { 0.0 }));
            }
            Op::Sigmoid(a) => {
                // value = σ(x); dσ = σ(1−σ)
                acc(*a, g.zip_map(value, |gi, y| gi * y * (1.0 - y)));
            }
            Op::Tanh(a) => {
                acc(*a, g.zip_map(value, |gi, y| gi * (1.0 - y * y)));
            }
            Op::Exp(a) => acc(*a, g * value),
            Op::Ln(a) => acc(*a, g / values[*a]),
            Op::Sqrt(a) => {
                acc(*a, g.zip_map(value, |gi, y| gi / (2.0 * y)));
            }
            Op::PowScalar(a, p) => {
                let va = &values[*a];
                acc(*a, g.zip_map(va, |gi, x| gi * p * x.powf(p - 1.0)));
            }
            Op::Transpose(a) => acc(*a, g.transpose()),
            Op::SoftmaxRows(a) => acc(*a, Head::global().softmax_rows_backward(value, g)),
            Op::Sum(a) => {
                let (r, c) = values[*a].shape();
                acc(*a, Matrix::full(r, c, g[(0, 0)]));
            }
            Op::Mean(a) => {
                let (r, c) = values[*a].shape();
                let n = (r * c) as f64;
                acc(*a, Matrix::full(r, c, g[(0, 0)] / n));
            }
            Op::RowSums(a) => {
                let (r, c) = values[*a].shape();
                let mut d = Matrix::zeros(r, c);
                for i in 0..r {
                    let gi = g[(i, 0)];
                    for v in d.row_mut(i) {
                        *v = gi;
                    }
                }
                acc(*a, d);
            }
            Op::DivColBroadcast(a, b) => {
                let va = &values[*a];
                let vb = &values[*b];
                let (r, c) = va.shape();
                let mut da = Matrix::zeros(r, c);
                let mut db = Matrix::zeros(r, 1);
                for i in 0..r {
                    let bi = vb[(i, 0)];
                    let mut s = 0.0;
                    for j in 0..c {
                        da[(i, j)] = g[(i, j)] / bi;
                        s += g[(i, j)] * va[(i, j)];
                    }
                    db[(i, 0)] = -s / (bi * bi);
                }
                acc(*a, da);
                acc(*b, db);
            }
            Op::SqDistCdist(x, c) => {
                // D[i,j] = ‖x_i − c_j‖².
                // dX = 2·(diag(rowsum(g))·X − g·C)
                // dC = 2·(diag(colsum(g))·C − gᵀ·X)
                let vx = &values[*x];
                let vc = &values[*c];
                let row_s = g.row_sums();
                let col_s = g.col_sums();
                let mut dx = g.matmul(vc);
                for i in 0..dx.rows() {
                    let rs = row_s[i];
                    for (d, &xv) in dx.row_mut(i).iter_mut().zip(vx.row(i)) {
                        *d = 2.0 * (rs * xv - *d);
                    }
                }
                let mut dc = g.matmul_tn(vx);
                for j in 0..dc.rows() {
                    let cs = col_s[j];
                    for (d, &cv) in dc.row_mut(j).iter_mut().zip(vc.row(j)) {
                        *d = 2.0 * (cs * cv - *d);
                    }
                }
                acc(*x, dx);
                acc(*c, dc);
            }
            Op::ApplyLeft(lin, b) => {
                acc(*b, lin.apply_transpose(g));
            }
            Op::SoftAssign { d2, kernel, raw, denom } => {
                acc(*d2, Head::global().soft_assign_backward(values[*d2], *kernel, raw, denom, g));
            }
            Op::CrossEntropy { m, p, eps, inv_n } => {
                let scale = -(g[(0, 0)] * inv_n);
                acc(*m, Head::global().cross_backward(p, values[*m], *eps, scale));
            }
        }
    }
}
