//! Operation records and their backward rules.
//!
//! Every differentiable operation the tape supports is one variant of
//! [`Op`]; [`Op::backward`] pushes the upstream gradient `g` of a node back
//! to its parents. Keeping the rules in one `match` (instead of boxed
//! closures) makes the whole engine auditable at a glance.

use std::rc::Rc;

use tensor::head::{Head, SoftKernel};
use tensor::layer::{Activation, Dense};
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
    /// `a` (n×c) plus row vector `b` (1×c) broadcast to every row: the
    /// middle of the composed layer chain `Linear` is tested against.
    #[cfg(test)]
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
    /// Fused dense layer `act(x·w + b)`; the node stores only its output.
    Linear { x: usize, w: usize, b: usize, act: Activation },
    /// Fused `mean((target − pred)²)`.
    Mse { target: usize, pred: usize },
}

/// The reverse sweep's gradient accumulators, as one node's backward rule
/// sees them: it adds a delta into a parent's gradient only if that parent
/// needs one, and computes the delta only then.
pub(crate) struct Acc<'a> {
    needs: &'a [bool],
    grads: &'a mut [Option<Matrix>],
}

impl<'a> Acc<'a> {
    pub(crate) fn new(needs: &'a [bool], grads: &'a mut [Option<Matrix>]) -> Self {
        Acc { needs, grads }
    }

    /// Whether node `id` needs a gradient.
    pub(crate) fn needs(&self, id: usize) -> bool {
        self.needs[id]
    }

    /// Adds `delta()` into node `id`'s gradient (`existing + delta`, the
    /// same bits as a fresh sum), calling `delta` only if `id` needs a
    /// gradient.
    pub(crate) fn add(&mut self, id: usize, delta: impl FnOnce() -> Matrix) {
        if self.needs[id] {
            self.put(id, delta());
        }
    }

    fn put(&mut self, id: usize, delta: Matrix) {
        match &mut self.grads[id] {
            Some(existing) => *existing += &delta,
            slot @ None => *slot = Some(delta),
        }
    }
}

impl Op {
    /// The parent node ids (at most three).
    pub(crate) fn parents(&self) -> [Option<usize>; 3] {
        match self {
            Op::Leaf => [None; 3],
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::Div(a, b)
            | Op::MatMul(a, b)
            | Op::DivColBroadcast(a, b)
            | Op::SqDistCdist(a, b)
            | Op::Mse { target: a, pred: b } => [Some(*a), Some(*b), None],
            Op::Scale(a, _)
            | Op::AddScalar(a)
            | Op::Neg(a)
            | Op::Relu(a)
            | Op::Sigmoid(a)
            | Op::Tanh(a)
            | Op::Exp(a)
            | Op::Ln(a)
            | Op::Sqrt(a)
            | Op::PowScalar(a, _)
            | Op::Transpose(a)
            | Op::SoftmaxRows(a)
            | Op::Sum(a)
            | Op::Mean(a)
            | Op::RowSums(a)
            | Op::ApplyLeft(_, a)
            | Op::SoftAssign { d2: a, .. }
            | Op::CrossEntropy { m: a, .. } => [Some(*a), None, None],
            Op::Linear { x, w, b, .. } => [Some(*x), Some(*w), Some(*b)],
            #[cfg(test)]
            Op::AddRowBroadcast(a, b) => [Some(*a), Some(*b), None],
        }
    }

    /// Propagates the upstream gradient of a node with `value` to the
    /// parent gradient accumulators `acc`; `values` borrows all node
    /// values. The gradient is handed over (`owned`, read as `g`), so a
    /// rule whose delta is an elementwise function of it alone computes
    /// the delta in its buffer.
    pub(crate) fn backward(&self, value: &Matrix, mut owned: Matrix, values: &[&Matrix], acc: &mut Acc<'_>) {
        let g = &owned;
        match self {
            Op::Leaf => {}
            Op::Add(a, b) => {
                acc.add(*a, || g.clone());
                acc.add(*b, || owned);
            }
            Op::Sub(a, b) => {
                acc.add(*a, || g.clone());
                acc.add(*b, || {
                    owned.map_inplace(|v| -v);
                    owned
                });
            }
            Op::Mul(a, b) => {
                acc.add(*a, || g * values[*b]);
                acc.add(*b, || g * values[*a]);
            }
            Op::Div(a, b) => {
                let vb = values[*b];
                acc.add(*a, || g / vb);
                acc.add(*b, || -&(&(g * values[*a]) / &(vb * vb)));
            }
            Op::MatMul(a, b) => {
                acc.add(*a, || g.matmul_nt(values[*b]));
                acc.add(*b, || values[*a].matmul_tn(g));
            }
            #[cfg(test)]
            Op::AddRowBroadcast(a, b) => {
                acc.add(*a, || g.clone());
                acc.add(*b, || Matrix::from_vec(1, g.cols(), g.col_sums()));
            }
            Op::Scale(a, s) => acc.add(*a, || {
                owned.map_inplace(|v| v * s);
                owned
            }),
            Op::AddScalar(a) => acc.add(*a, || owned),
            Op::Neg(a) => acc.add(*a, || {
                owned.map_inplace(|v| -v);
                owned
            }),
            Op::Relu(a) => {
                acc.add(*a, || g.zip_map(values[*a], |gi, x| if x > 0.0 { gi } else { 0.0 }));
            }
            Op::Sigmoid(a) => {
                // value = σ(x); dσ = σ(1−σ)
                acc.add(*a, || g.zip_map(value, |gi, y| gi * y * (1.0 - y)));
            }
            Op::Tanh(a) => {
                acc.add(*a, || g.zip_map(value, |gi, y| gi * (1.0 - y * y)));
            }
            Op::Exp(a) => acc.add(*a, || g * value),
            Op::Ln(a) => acc.add(*a, || g / values[*a]),
            Op::Sqrt(a) => {
                acc.add(*a, || g.zip_map(value, |gi, y| gi / (2.0 * y)));
            }
            Op::PowScalar(a, p) => {
                acc.add(*a, || g.zip_map(values[*a], |gi, x| gi * p * x.powf(p - 1.0)));
            }
            Op::Transpose(a) => acc.add(*a, || g.transpose()),
            Op::SoftmaxRows(a) => acc.add(*a, || Head::global().softmax_rows_backward(value, g)),
            Op::Sum(a) => {
                let (r, c) = values[*a].shape();
                acc.add(*a, || Matrix::full(r, c, g[(0, 0)]));
            }
            Op::Mean(a) => {
                let (r, c) = values[*a].shape();
                let n = (r * c) as f64;
                acc.add(*a, || Matrix::full(r, c, g[(0, 0)] / n));
            }
            Op::RowSums(a) => {
                acc.add(*a, || {
                    let (r, c) = values[*a].shape();
                    let mut d = Matrix::zeros(r, c);
                    for i in 0..r {
                        let gi = g[(i, 0)];
                        for v in d.row_mut(i) {
                            *v = gi;
                        }
                    }
                    d
                });
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
                acc.add(*a, || da);
                acc.add(*b, || db);
            }
            Op::SqDistCdist(x, c) => {
                // D[i,j] = ‖x_i − c_j‖².
                // dX = 2·(diag(rowsum(g))·X − g·C)
                // dC = 2·(diag(colsum(g))·C − gᵀ·X)
                let vx = &values[*x];
                let vc = &values[*c];
                acc.add(*x, || {
                    let row_s = g.row_sums();
                    let mut dx = g.matmul(vc);
                    for (i, &rs) in row_s.iter().enumerate() {
                        for (d, &xv) in dx.row_mut(i).iter_mut().zip(vx.row(i)) {
                            *d = 2.0 * (rs * xv - *d);
                        }
                    }
                    dx
                });
                acc.add(*c, || {
                    let col_s = g.col_sums();
                    let mut dc = g.matmul_tn(vx);
                    for (j, &cs) in col_s.iter().enumerate() {
                        for (d, &cv) in dc.row_mut(j).iter_mut().zip(vc.row(j)) {
                            *d = 2.0 * (cs * cv - *d);
                        }
                    }
                    dc
                });
            }
            Op::ApplyLeft(lin, b) => {
                acc.add(*b, || lin.apply_transpose(g));
            }
            Op::SoftAssign { d2, kernel, raw, denom } => {
                acc.add(*d2, || Head::global().soft_assign_backward(values[*d2], *kernel, raw, denom, g));
            }
            Op::CrossEntropy { m, p, eps, inv_n } => {
                let scale = -(g[(0, 0)] * inv_n);
                acc.add(*m, || Head::global().cross_backward(p, values[*m], *eps, scale));
            }
            Op::Linear { x, w, b, act } => {
                let need = (acc.needs(*x), acc.needs(*w), acc.needs(*b));
                let grads = Dense::global().backward(values[*x], values[*w], value, owned, *act, need);
                // The composed chain's order: the bias (from its broadcast
                // node), then the product's operands.
                acc.add(*b, || grads.db.expect("bias gradient requested"));
                acc.add(*x, || grads.dx.expect("input gradient requested"));
                acc.add(*w, || grads.dw.expect("weight gradient requested"));
            }
            Op::Mse { target, pred } => {
                // `sub`'s backward: `g` to the target, then `−g` to the
                // prediction.
                let (need_t, need_p) = (acc.needs(*target), acc.needs(*pred));
                if !(need_t || need_p) {
                    return;
                }
                let mut dt = Dense::global().mse_backward(values[*target], values[*pred], g[(0, 0)]);
                if need_t && need_p {
                    let dp = -&dt;
                    acc.add(*target, || dt);
                    acc.add(*pred, || dp);
                } else if need_t {
                    acc.add(*target, || dt);
                } else {
                    dt.map_inplace(|v| -v);
                    acc.add(*pred, || dt);
                }
            }
        }
    }
}
