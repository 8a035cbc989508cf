//! The tape: forward-pass recording and the reverse sweep.

use std::cell::RefCell;
use std::ops::Deref;
use std::rc::Rc;

use tensor::distance::sq_euclidean_cdist;
use tensor::head::{Head, HeadSpec, SoftKernel};
use tensor::layer::{Activation, Dense};
use tensor::Matrix;

use crate::ops::{Acc, LinearOperator, Op};

/// Handle to a node on a [`Tape`]. Cheap to copy; only meaningful together
/// with the tape that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

/// A node's value: computed on the tape, or borrowed for the tape's
/// lifetime `'p` (model parameters, a training matrix).
enum Value<'p> {
    Owned(Matrix),
    Borrowed(&'p Matrix),
}

impl Deref for Value<'_> {
    type Target = Matrix;

    fn deref(&self) -> &Matrix {
        match self {
            Value::Owned(m) => m,
            Value::Borrowed(m) => m,
        }
    }
}

struct Node<'p> {
    value: Value<'p>,
    op: Op,
    /// Whether the loss gradient reaches a leaf through this node: true
    /// for [`Tape::leaf`] nodes and for every node with such a parent.
    /// The reverse sweep forms no gradient for any other node.
    needs_grad: bool,
}

/// A gradient tape. Build one per forward pass, call the op methods to
/// record the computation, call [`Tape::backward`] on a scalar loss, then
/// read parameter gradients with [`Gradients::grad`].
///
/// `'p` is the lifetime of the matrices the tape borrows rather than
/// copies ([`Tape::leaf_ref`], [`Tape::constant_ref`]): a model's
/// parameters are bound without a copy, and can be updated again once the
/// tape is no longer used.
#[derive(Default)]
pub struct Tape<'p> {
    nodes: RefCell<Vec<Node<'p>>>,
}

impl<'p> Tape<'p> {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True if no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    fn push(&self, value: Matrix, op: Op) -> Var {
        // Non-finite values are allowed to flow through the tape: numerical
        // health is the training loop's concern (`obs::health`), which can
        // report *which* tensor diverged and dump diagnostics — a blind
        // panic here would preempt that and only ever fire in debug builds.
        let mut nodes = self.nodes.borrow_mut();
        let needs_grad = op.parents().into_iter().flatten().any(|p| nodes[p].needs_grad);
        nodes.push(Node { value: Value::Owned(value), op, needs_grad });
        Var(nodes.len() - 1)
    }

    fn push_input(&self, value: Value<'p>, needs_grad: bool) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node { value, op: Op::Leaf, needs_grad });
        Var(nodes.len() - 1)
    }

    /// Registers an input/parameter node: the loss gradient w.r.t. it is
    /// computed.
    pub fn leaf(&self, value: Matrix) -> Var {
        self.push_input(Value::Owned(value), true)
    }

    /// [`Tape::leaf`] on a borrowed matrix, without copying it.
    pub fn leaf_ref(&self, value: &'p Matrix) -> Var {
        self.push_input(Value::Borrowed(value), true)
    }

    /// Registers a constant: no gradient is computed for it, nor for any
    /// node whose parents are all constants ([`Gradients::try_grad`] is
    /// `None` for them), so the backward never forms, say, the input
    /// layer's `g·Wᵀ` or the gradient of a reconstruction target.
    pub fn constant(&self, value: Matrix) -> Var {
        self.push_input(Value::Owned(value), false)
    }

    /// [`Tape::constant`] on a borrowed matrix, without copying it.
    pub fn constant_ref(&self, value: &'p Matrix) -> Var {
        self.push_input(Value::Borrowed(value), false)
    }

    /// Whether the reverse sweep computes a gradient for `v`.
    #[cfg(test)]
    fn needs_grad(&self, v: Var) -> bool {
        self.nodes.borrow()[v.0].needs_grad
    }

    /// Moves the value of a node out of the tape (a borrowed value is
    /// copied), leaving an empty matrix in its place. For the end of a
    /// tape's use: the node must not be read, or swept backward, again.
    pub fn take_value(&self, v: Var) -> Matrix {
        let mut nodes = self.nodes.borrow_mut();
        match std::mem::replace(&mut nodes[v.0].value, Value::Owned(Matrix::zeros(0, 0))) {
            Value::Owned(m) => m,
            Value::Borrowed(m) => m.clone(),
        }
    }

    /// Copies the value of a node out of the tape.
    pub fn value(&self, v: Var) -> Matrix {
        self.nodes.borrow()[v.0].value.clone()
    }

    /// Shape of a node's value.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes.borrow()[v.0].value.shape()
    }

    /// Runs `f` with a borrow of the node's value, avoiding a clone.
    pub fn with_value<R>(&self, v: Var, f: impl FnOnce(&Matrix) -> R) -> R {
        f(&self.nodes.borrow()[v.0].value)
    }

    // ---- binary ops -----------------------------------------------------

    /// Elementwise sum.
    pub fn add(&self, a: Var, b: Var) -> Var {
        let v = {
            let n = self.nodes.borrow();
            &*n[a.0].value + &*n[b.0].value
        };
        self.push(v, Op::Add(a.0, b.0))
    }

    /// Elementwise difference.
    pub fn sub(&self, a: Var, b: Var) -> Var {
        let v = {
            let n = self.nodes.borrow();
            &*n[a.0].value - &*n[b.0].value
        };
        self.push(v, Op::Sub(a.0, b.0))
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, a: Var, b: Var) -> Var {
        let v = {
            let n = self.nodes.borrow();
            &*n[a.0].value * &*n[b.0].value
        };
        self.push(v, Op::Mul(a.0, b.0))
    }

    /// Elementwise quotient.
    pub fn div(&self, a: Var, b: Var) -> Var {
        let v = {
            let n = self.nodes.borrow();
            &*n[a.0].value / &*n[b.0].value
        };
        self.push(v, Op::Div(a.0, b.0))
    }

    /// Matrix product.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let v = {
            let n = self.nodes.borrow();
            n[a.0].value.matmul(&n[b.0].value)
        };
        self.push(v, Op::MatMul(a.0, b.0))
    }

    /// Adds a `1×c` bias row to every row of an `n×c` matrix. Layers use
    /// [`Tape::linear`]; this op remains as its tests' reference.
    #[cfg(test)]
    pub fn add_row_broadcast(&self, a: Var, bias: Var) -> Var {
        let v = {
            let n = self.nodes.borrow();
            let b = &n[bias.0].value;
            assert_eq!(b.rows(), 1, "add_row_broadcast: bias must be 1×c");
            n[a.0].value.add_row_broadcast(b.row(0))
        };
        self.push(v, Op::AddRowBroadcast(a.0, bias.0))
    }

    /// A dense layer `act(x·W + b)` for a `1×c` bias row `b`, in one node:
    /// the product, then `+ b` and the activation in the product's output
    /// pass ([`Dense::forward`]). Only the output is stored. Bit-identical
    /// to `act(add_row_broadcast(matmul(x, w), b))` in value and gradients;
    /// the backward forms `g ⊙ act'(y)` once, and `g'·Wᵀ` only if `x`
    /// needs a gradient.
    pub fn linear(&self, x: Var, w: Var, b: Var, act: Activation) -> Var {
        let v = {
            let n = self.nodes.borrow();
            let bias = &n[b.0].value;
            assert_eq!(bias.rows(), 1, "linear: bias must be 1×c");
            Dense::global().forward(&n[x.0].value, &n[w.0].value, bias.row(0), act)
        };
        self.push(v, Op::Linear { x: x.0, w: w.0, b: b.0, act })
    }

    /// The activation `act` on its own (the identity records no node).
    pub fn activation(&self, x: Var, act: Activation) -> Var {
        match act {
            Activation::Linear => x,
            Activation::Relu => self.relu(x),
            Activation::Sigmoid => self.sigmoid(x),
            Activation::Tanh => self.tanh(x),
        }
    }

    // ---- scalar / unary ops ----------------------------------------------

    /// Multiplies by a constant scalar.
    pub fn scale(&self, a: Var, s: f64) -> Var {
        let v = { &*self.nodes.borrow()[a.0].value * s };
        self.push(v, Op::Scale(a.0, s))
    }

    /// Adds a constant scalar to every element.
    pub fn add_scalar(&self, a: Var, s: f64) -> Var {
        let v = { self.nodes.borrow()[a.0].value.map(|x| x + s) };
        self.push(v, Op::AddScalar(a.0))
    }

    /// Elementwise negation.
    pub fn neg(&self, a: Var) -> Var {
        let v = { -&*self.nodes.borrow()[a.0].value };
        self.push(v, Op::Neg(a.0))
    }

    /// ReLU.
    pub fn relu(&self, a: Var) -> Var {
        let v = { self.nodes.borrow()[a.0].value.max_scalar(0.0) };
        self.push(v, Op::Relu(a.0))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self, a: Var) -> Var {
        let v = { self.nodes.borrow()[a.0].value.map(|x| 1.0 / (1.0 + (-x).exp())) };
        self.push(v, Op::Sigmoid(a.0))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self, a: Var) -> Var {
        let v = { self.nodes.borrow()[a.0].value.map(f64::tanh) };
        self.push(v, Op::Tanh(a.0))
    }

    /// Elementwise exponential.
    pub fn exp(&self, a: Var) -> Var {
        let v = { self.nodes.borrow()[a.0].value.map(f64::exp) };
        self.push(v, Op::Exp(a.0))
    }

    /// Elementwise natural log. The caller must guarantee positivity (use
    /// [`Tape::add_scalar`] with an epsilon first when needed).
    pub fn ln(&self, a: Var) -> Var {
        let v = { self.nodes.borrow()[a.0].value.map(f64::ln) };
        self.push(v, Op::Ln(a.0))
    }

    /// Elementwise square root.
    pub fn sqrt(&self, a: Var) -> Var {
        let v = { self.nodes.borrow()[a.0].value.map(f64::sqrt) };
        self.push(v, Op::Sqrt(a.0))
    }

    /// Elementwise power with a constant exponent.
    pub fn pow_scalar(&self, a: Var, p: f64) -> Var {
        let v = { self.nodes.borrow()[a.0].value.map(|x| x.powf(p)) };
        self.push(v, Op::PowScalar(a.0, p))
    }

    /// Elementwise square — sugar for `pow_scalar(a, 2.0)` with an exact
    /// backward rule.
    pub fn square(&self, a: Var) -> Var {
        self.pow_scalar(a, 2.0)
    }

    /// Transpose.
    pub fn transpose(&self, a: Var) -> Var {
        let v = { self.nodes.borrow()[a.0].value.transpose() };
        self.push(v, Op::Transpose(a.0))
    }

    /// Row-wise softmax (paper Eq. 9).
    pub fn softmax_rows(&self, a: Var) -> Var {
        let v = { self.nodes.borrow()[a.0].value.softmax_rows() };
        self.push(v, Op::SoftmaxRows(a.0))
    }

    // ---- reductions -------------------------------------------------------

    /// Sum of all elements → 1×1.
    pub fn sum(&self, a: Var) -> Var {
        let v = { Matrix::full(1, 1, self.nodes.borrow()[a.0].value.sum()) };
        self.push(v, Op::Sum(a.0))
    }

    /// Mean of all elements → 1×1.
    pub fn mean(&self, a: Var) -> Var {
        let v = { Matrix::full(1, 1, self.nodes.borrow()[a.0].value.mean()) };
        self.push(v, Op::Mean(a.0))
    }

    /// Per-row sums → n×1.
    pub fn row_sums(&self, a: Var) -> Var {
        let v = {
            let n = self.nodes.borrow();
            let sums = n[a.0].value.row_sums();
            Matrix::from_vec(sums.len(), 1, sums)
        };
        self.push(v, Op::RowSums(a.0))
    }

    /// Divides each row of `a` (n×k) by the corresponding entry of `b`
    /// (n×1) — the row-normalization of soft assignments (paper Eq. 8).
    pub fn div_col_broadcast(&self, a: Var, b: Var) -> Var {
        let v = {
            let n = self.nodes.borrow();
            let va: &Matrix = &n[a.0].value;
            let vb = &n[b.0].value;
            assert_eq!(vb.cols(), 1, "div_col_broadcast: divisor must be n×1");
            assert_eq!(va.rows(), vb.rows(), "div_col_broadcast: row counts differ");
            let mut out = va.clone();
            for i in 0..out.rows() {
                let d = vb[(i, 0)];
                for x in out.row_mut(i) {
                    *x /= d;
                }
            }
            out
        };
        self.push(v, Op::DivColBroadcast(a.0, b.0))
    }

    /// Pairwise squared Euclidean distances between rows of `x` (n×d) and
    /// rows of `c` (k×d) → n×k. Differentiable w.r.t. both point sets: this
    /// is the primitive under every distance kernel in TableDC and the
    /// baselines (Mahalanobis distances are taken in a whitened space, so
    /// they also reduce to this op).
    pub fn sq_dist_cdist(&self, x: Var, c: Var) -> Var {
        let v = {
            let n = self.nodes.borrow();
            sq_euclidean_cdist(&n[x.0].value, &n[c.0].value)
        };
        self.push(v, Op::SqDistCdist(x.0, c.0))
    }

    /// Applies a constant linear operator on the left: `lin · b`. Used for
    /// sparse graph convolutions `Â·H`.
    pub fn apply_left(&self, lin: Rc<dyn LinearOperator>, b: Var) -> Var {
        let v = {
            let n = self.nodes.borrow();
            lin.apply(&n[b.0].value)
        };
        self.push(v, Op::ApplyLeft(lin, b.0))
    }

    // ---- fused clustering head ----------------------------------------------

    /// Soft assignments of squared distances `d2` (n×k), one node: the
    /// pointwise `kernel` (paper Eq. 7), then each row divided by its sum
    /// plus `eps` (Eq. 8). Bit-identical to the composed chain
    /// `div_col_broadcast(u, add_scalar(row_sums(u), eps))` over the kernel
    /// ops `u`, in value and gradient; runs row-parallel on the global pool
    /// ([`Head::global`]).
    pub fn soft_assign(&self, d2: Var, kernel: SoftKernel, eps: f64) -> Var {
        let out = { Head::global().soft_assign(&self.nodes.borrow()[d2.0].value, kernel, eps) };
        self.push(out.q, Op::SoftAssign { d2: d2.0, kernel, raw: out.raw, denom: out.denom })
    }

    /// Cross-entropy `−1/n · Σ p·ln(m + eps)` of `m` (n×k) against the
    /// constant target node `p`, n = `p`'s row count: one node,
    /// bit-identical to `scale(neg(sum(mul(p, ln(add_scalar(m, eps))))), 1/n)`.
    ///
    /// # Panics
    /// Panics if `p` needs a gradient (the node forms none for it).
    pub fn cross_entropy(&self, p: Var, m: Var, eps: f64) -> Var {
        self.cross_entropy_node(p, m, eps, false)
    }

    /// `KL(p ‖ m) = 1/n · Σ p·ln(p/(m + eps))`: [`Tape::cross_entropy`]
    /// plus the constant `1/n · Σ p·ln p` over positive `p`, in one node.
    ///
    /// # Panics
    /// Panics if `p` needs a gradient.
    pub fn kl_div(&self, p: Var, m: Var, eps: f64) -> Var {
        self.cross_entropy_node(p, m, eps, true)
    }

    fn cross_entropy_node(&self, p: Var, m: Var, eps: f64, with_entropy: bool) -> Var {
        let (v, inv_n) = {
            let nodes = self.nodes.borrow();
            assert!(!nodes[p.0].needs_grad, "cross_entropy: the target must be a constant");
            let (head, pv) = (Head::global(), &*nodes[p.0].value);
            let n = pv.rows().max(1) as f64;
            let inv_n = 1.0 / n;
            let mut v = -head.cross_sum(pv, &nodes[m.0].value, eps) * inv_n;
            if with_entropy {
                v += head.neg_entropy_sum(pv) / n;
            }
            (v, inv_n)
        };
        self.push(Matrix::full(1, 1, v), Op::CrossEntropy { m: m.0, p: p.0, eps, inv_n })
    }

    /// TableDC's clustering head and loss (paper Eq. 7–11 and Eq. 10's
    /// `KL(p‖m)`) on the squared distances `d2` (n×k), in one node
    /// ([`Head::cluster_head`] on the global pool). The kernel reads
    /// `d2·spec.scale` when a scale is set. Of the head's `n×k` matrices
    /// only `q` and the kernel values are kept: `m = softmax(q)` and the
    /// target `p` are recomputed from `q` row by row, forward and
    /// backward.
    ///
    /// Bit-identical in `q`, the loss, `KL(p‖q)` and the gradient at `d2`
    /// to the composed chain `scale`, [`Tape::soft_assign`],
    /// [`Tape::softmax_rows`], [`Tape::kl_div`] against the target of `q`,
    /// and the plain `KL(p‖q)` sum. `q` is a no-gradient node: the
    /// gradient reaches `d2` through the loss only.
    pub fn cluster_head(&self, d2: Var, spec: HeadSpec) -> ClusterHead {
        let out = { Head::global().cluster_head(&self.nodes.borrow()[d2.0].value, spec) };
        let q = self.constant(out.q);
        let op = Op::ClusterHead { d2: d2.0, q: q.0, spec, saved: out.saved };
        let kl = self.push(Matrix::full(1, 1, out.loss), op);
        ClusterHead { q, kl, kl_pq: out.kl_pq }
    }

    // ---- fused reconstruction loss ------------------------------------------

    /// Mean squared error `1/n · Σ (target − pred)²` over all entries, one
    /// node ([`Dense::mse`]). Bit-identical to
    /// `mean(square(sub(target, pred)))` in value and in the gradient of
    /// each operand, which it forms only for an operand that needs one.
    pub fn mse(&self, target: Var, pred: Var) -> Var {
        let v = {
            let n = self.nodes.borrow();
            Dense::global().mse(&n[target.0].value, &n[pred.0].value)
        };
        self.push(Matrix::full(1, 1, v), Op::Mse { target: target.0, pred: pred.0 })
    }

    // ---- backward ---------------------------------------------------------

    /// Runs the reverse sweep from a scalar (1×1) `loss` node and returns
    /// the gradient of every leaf. Gradients of leaves that do not
    /// influence the loss are zero matrices. Constants and nodes computed
    /// from constants only get no gradient; an intermediate node's gradient
    /// is dropped once it has been passed on to its parents.
    ///
    /// # Panics
    /// Panics if `loss` is not 1×1.
    pub fn backward(&self, loss: Var) -> Gradients {
        let nodes = self.nodes.borrow();
        assert_eq!(nodes[loss.0].value.shape(), (1, 1), "backward: loss must be a 1×1 scalar");
        let mut grads: Vec<Option<Matrix>> = vec![None; nodes.len()];
        grads[loss.0] = Some(Matrix::ones(1, 1));
        let values: Vec<&Matrix> = nodes.iter().map(|n| &*n.value).collect();
        let needs: Vec<bool> = nodes.iter().map(|n| n.needs_grad).collect();

        for id in (0..=loss.0).rev() {
            let Some(g) = grads[id].take() else { continue };
            let node = &nodes[id];
            if matches!(node.op, Op::Leaf) {
                grads[id] = Some(g);
            } else {
                // The node's gradient is handed over: a rule may reuse its
                // buffer for a parent's.
                node.op.backward(&node.value, g, &values, &mut Acc::new(&needs, &mut grads));
            }
        }

        Gradients { grads, shapes: values.iter().map(|v| v.shape()).collect() }
    }
}

/// The outputs of [`Tape::cluster_head`].
#[derive(Debug, Clone, Copy)]
pub struct ClusterHead {
    /// Soft assignments `q` (Eq. 8), a no-gradient node. The clustering
    /// probabilities are its row softmax (Eq. 9).
    pub q: Var,
    /// The loss `KL(p‖m)` (Eq. 10), 1×1.
    pub kl: Var,
    /// The reported divergence `KL(p‖q)` (Figure 5).
    pub kl_pq: f64,
}

/// The result of a backward pass: per-leaf gradients.
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
    shapes: Vec<(usize, usize)>,
}

impl Gradients {
    /// Gradient of the loss w.r.t. node `v` (zeros if it has none; see
    /// [`Gradients::try_grad`]).
    pub fn grad(&self, v: Var) -> Matrix {
        match &self.grads[v.0] {
            Some(g) => g.clone(),
            None => {
                let (r, c) = self.shapes[v.0];
                Matrix::zeros(r, c)
            }
        }
    }

    /// Borrowing accessor; `None` means `v` is not a leaf with a gradient
    /// path to the loss (a constant, an unused leaf, an intermediate node).
    pub fn try_grad(&self, v: Var) -> Option<&Matrix> {
        self.grads[v.0].as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_chain_rule() {
        // f(x) = sum((2x + 1)²) at x = [1, 2]: df/dx = 4(2x+1) = [12, 20].
        let t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[1.0, 2.0]]));
        let y = t.add_scalar(t.scale(x, 2.0), 1.0);
        let loss = t.sum(t.square(y));
        assert_eq!(t.value(loss)[(0, 0)], 9.0 + 25.0);
        let g = t.backward(loss);
        assert_eq!(g.grad(x), Matrix::from_rows(&[&[12.0, 20.0]]));
    }

    #[test]
    fn matmul_gradients() {
        // loss = sum(A·B); dA = 1·Bᵀ, dB = Aᵀ·1.
        let t = Tape::new();
        let a = t.leaf(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = t.leaf(Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]));
        let loss = t.sum(t.matmul(a, b));
        let g = t.backward(loss);
        assert_eq!(g.grad(a), Matrix::from_rows(&[&[11.0, 15.0], &[11.0, 15.0]]));
        assert_eq!(g.grad(b), Matrix::from_rows(&[&[4.0, 4.0], &[6.0, 6.0]]));
    }

    #[test]
    fn fan_out_accumulates() {
        // loss = sum(x ∘ x + x): dx = 2x + 1.
        let t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[3.0]]));
        let loss = t.sum(t.add(t.mul(x, x), x));
        let g = t.backward(loss);
        assert_eq!(g.grad(x)[(0, 0)], 7.0);
    }

    #[test]
    fn unused_leaf_has_zero_grad() {
        let t = Tape::new();
        let x = t.leaf(Matrix::ones(1, 1));
        let y = t.leaf(Matrix::ones(2, 3));
        let loss = t.sum(x);
        let g = t.backward(loss);
        assert_eq!(g.grad(y), Matrix::zeros(2, 3));
        assert!(g.try_grad(y).is_none());
    }

    #[test]
    fn constants_and_their_descendants_get_no_gradient() {
        let t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[1.0, 2.0]]));
        let c = t.constant(Matrix::from_rows(&[&[3.0, 4.0]]));
        let c2 = t.scale(c, 2.0);
        let loss = t.sum(t.mul(x, c2));
        assert!(t.needs_grad(x) && t.needs_grad(loss));
        assert!(!t.needs_grad(c) && !t.needs_grad(c2));
        let g = t.backward(loss);
        assert!(g.try_grad(c).is_none());
        assert!(g.try_grad(c2).is_none());
        assert_eq!(g.grad(c), Matrix::zeros(1, 2));
        assert_eq!(g.grad(x), Matrix::from_rows(&[&[6.0, 8.0]]));
    }

    #[test]
    fn borrowed_leaves_and_constants_read_in_place() {
        let w = Matrix::from_rows(&[&[2.0]]);
        let x = Matrix::from_rows(&[&[3.0], &[5.0]]);
        let t = Tape::new();
        let (wv, xv) = (t.leaf_ref(&w), t.constant_ref(&x));
        let y = t.matmul(xv, wv);
        assert_eq!(t.value(y), Matrix::from_rows(&[&[6.0], &[10.0]]));
        let g = t.backward(t.sum(y));
        assert_eq!(g.grad(wv), Matrix::from_rows(&[&[8.0]]));
        assert!(g.try_grad(xv).is_none());
        assert_eq!(t.take_value(y), Matrix::from_rows(&[&[6.0], &[10.0]]));
        assert_eq!(t.take_value(xv), x);
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    const ACTIVATIONS: [Activation; 4] =
        [Activation::Linear, Activation::Relu, Activation::Sigmoid, Activation::Tanh];

    /// `act(x·W + b)` as the three-node chain `Tape::linear` replaces.
    fn composed_linear(t: &Tape, x: Var, w: Var, b: Var, act: Activation) -> Var {
        t.activation(t.add_row_broadcast(t.matmul(x, w), b), act)
    }

    #[test]
    fn linear_matches_composed_chain_bitwise_on_every_pool() {
        let pools: Vec<runtime::ThreadPool> = [1, 2, 4].into_iter().map(runtime::ThreadPool::new).collect();
        let r = &mut tensor::random::rng(21);
        let (d, width) = (20, 33);
        let w = tensor::random::randn(d, width, r);
        let b = tensor::random::randn(1, width, r);
        for rows in [1, 63, 64, 65, 4248] {
            let x = tensor::random::randn(rows, d, r);
            // A weighted sum as the loss, so the gradient at `y` is `weight`.
            let weight = tensor::random::randn(rows, width, r);
            for act in ACTIVATIONS {
                let run = |fused: bool| {
                    let t = Tape::new();
                    let (xv, wv, bv) = (t.leaf_ref(&x), t.leaf_ref(&w), t.leaf_ref(&b));
                    let y = if fused { t.linear(xv, wv, bv, act) } else { composed_linear(&t, xv, wv, bv, act) };
                    let g = t.backward(t.sum(t.mul(y, t.constant_ref(&weight))));
                    [t.value(y), g.grad(xv), g.grad(wv), g.grad(bv)].map(|m| bits(&m))
                };
                let want = run(false);
                assert_eq!(run(true), want, "tape, {rows} rows, {act:?}");
                for pool in &pools {
                    let dense = Dense::on(pool);
                    let y = dense.forward(&x, &w, b.row(0), act);
                    let grads = dense.backward(&x, &w, &y, weight.clone(), act, (true, true, true));
                    let got = [y, grads.dx.unwrap(), grads.dw.unwrap(), grads.db.unwrap()].map(|m| bits(&m));
                    assert_eq!(got, want, "{rows} rows, {act:?}, {} threads", pool.threads());
                }
            }
        }
    }

    #[test]
    fn linear_on_a_constant_input_forms_no_input_gradient() {
        let t = Tape::new();
        let x = t.constant(Matrix::from_rows(&[&[1.0, -2.0]]));
        let w = t.leaf(Matrix::from_rows(&[&[0.5], &[0.25]]));
        let b = t.leaf(Matrix::from_rows(&[&[1.0]]));
        let y = t.linear(x, w, b, Activation::Relu);
        assert_eq!(t.value(y)[(0, 0)], 1.0);
        let g = t.backward(t.sum(y));
        assert!(g.try_grad(x).is_none());
        assert_eq!(g.grad(w), Matrix::from_rows(&[&[1.0], &[-2.0]]));
        assert_eq!(g.grad(b), Matrix::from_rows(&[&[1.0]]));
    }

    #[test]
    fn linear_gradients_check_out() {
        let r = &mut tensor::random::rng(22);
        let x = tensor::random::randn(5, 3, r);
        let w = tensor::random::randn(3, 4, r);
        let b = tensor::random::randn(1, 4, r);
        let weight = tensor::random::randn(5, 4, r);
        for act in [Activation::Linear, Activation::Sigmoid, Activation::Tanh] {
            let loss = |t: &Tape, y: Var| t.sum(t.mul(y, t.constant(weight.clone())));
            crate::check::assert_grad_close(
                &x,
                |t, v| loss(t, t.linear(v, t.constant(w.clone()), t.constant(b.clone()), act)),
                1e-6,
                1e-5,
            );
            crate::check::assert_grad_close(
                &w,
                |t, v| loss(t, t.linear(t.constant(x.clone()), v, t.constant(b.clone()), act)),
                1e-6,
                1e-5,
            );
            crate::check::assert_grad_close(
                &b,
                |t, v| loss(t, t.linear(t.constant(x.clone()), t.constant(w.clone()), v, act)),
                1e-6,
                1e-5,
            );
        }
    }

    #[test]
    fn mse_matches_composed_chain_bitwise() {
        let r = &mut tensor::random::rng(23);
        for (rows, cols) in [(1, 1), (7, 5), (130, 40), (4248, 3)] {
            let target = tensor::random::randn(rows, cols, r);
            let pred = tensor::random::randn(rows, cols, r);
            let weight = tensor::random::randn(rows, cols, r);
            // Both operands differentiable, then each one alone; another
            // consumer of `pred` makes its gradient a fan-in sum.
            for (t_leaf, p_leaf) in [(true, true), (false, true), (true, false)] {
                let run = |fused: bool| {
                    let t = Tape::new();
                    let input = |m: &Matrix, leaf: bool| if leaf { t.leaf(m.clone()) } else { t.constant(m.clone()) };
                    let (tv, pv) = (input(&target, t_leaf), input(&pred, p_leaf));
                    let other = t.sum(t.mul(pv, t.constant(weight.clone())));
                    let mse = if fused { t.mse(tv, pv) } else { t.mean(t.square(t.sub(tv, pv))) };
                    let loss = t.add(t.scale(mse, 0.7), other);
                    let g = t.backward(loss);
                    let grad = |v: Var| g.try_grad(v).map(bits);
                    (t.value(mse)[(0, 0)].to_bits(), grad(tv), grad(pv))
                };
                let want = run(false);
                assert_eq!(run(true), want, "{rows}x{cols}, leaves {t_leaf}/{p_leaf}");
                assert_eq!((want.1.is_some(), want.2.is_some()), (t_leaf, p_leaf));
            }
        }
    }

    #[test]
    fn mse_of_one_node_against_itself_has_zero_gradient() {
        let t = Tape::new();
        let a = t.leaf(Matrix::from_rows(&[&[1.0, -2.0]]));
        let loss = t.mse(a, a);
        assert_eq!(t.value(loss)[(0, 0)], 0.0);
        assert_eq!(t.backward(loss).grad(a), Matrix::zeros(1, 2));
    }

    #[test]
    #[should_panic(expected = "loss must be a 1×1 scalar")]
    fn backward_rejects_non_scalar() {
        let t = Tape::new();
        let x = t.leaf(Matrix::ones(2, 2));
        let _ = t.backward(x);
    }

    #[test]
    fn div_col_broadcast_normalizes_rows() {
        let t = Tape::new();
        let q = t.leaf(Matrix::from_rows(&[&[1.0, 3.0], &[2.0, 2.0]]));
        let s = t.row_sums(q);
        let n = t.div_col_broadcast(q, s);
        let v = t.value(n);
        assert!((v[(0, 0)] - 0.25).abs() < 1e-12);
        assert!((v[(0, 1)] - 0.75).abs() < 1e-12);
        assert!((v.row_sums()[1] - 1.0).abs() < 1e-12);
    }

    /// Eq. 7–8 as the elementwise chain the fused node replaces.
    fn composed_soft_assign(t: &Tape, d2: Var, kernel: SoftKernel, eps: f64) -> Var {
        let u = match kernel {
            SoftKernel::Power { scale, exponent } => {
                t.pow_scalar(t.add_scalar(t.scale(d2, scale), 1.0), exponent)
            }
            SoftKernel::Exp { scale } => t.exp(t.scale(d2, scale)),
        };
        let sums = t.add_scalar(t.row_sums(u), eps);
        t.div_col_broadcast(u, sums)
    }

    const SOFT_KERNELS: [SoftKernel; 3] = [
        SoftKernel::Power { scale: 1.0, exponent: -1.0 },
        SoftKernel::Power { scale: 0.4, exponent: -1.25 },
        SoftKernel::Exp { scale: -0.5 },
    ];

    #[test]
    fn soft_assign_matches_composed_chain_bitwise() {
        let mut d2 = tensor::random::randn(70, 9, &mut tensor::random::rng(3));
        d2.map_inplace(|v| v * v);
        let w = tensor::random::randn(70, 9, &mut tensor::random::rng(4));
        for kernel in SOFT_KERNELS {
            let run = |fused: bool| {
                let t = Tape::new();
                let x = t.leaf(d2.clone());
                let q = if fused { t.soft_assign(x, kernel, 1e-10) } else { composed_soft_assign(&t, x, kernel, 1e-10) };
                let loss = t.sum(t.mul(t.softmax_rows(q), t.constant(w.clone())));
                let g = t.backward(loss).grad(x);
                (t.value(q), g)
            };
            let ((q_fused, g_fused), (q_composed, g_composed)) = (run(true), run(false));
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&q_fused), bits(&q_composed), "{kernel:?}");
            assert_eq!(bits(&g_fused), bits(&g_composed), "{kernel:?}");
        }
    }

    #[test]
    fn soft_assign_gradients_check_out() {
        let mut d2 = tensor::random::randn(4, 5, &mut tensor::random::rng(5));
        d2.map_inplace(|v| v * v + 0.1);
        let w = tensor::random::randn(4, 5, &mut tensor::random::rng(6));
        for kernel in SOFT_KERNELS {
            crate::check::assert_grad_close(
                &d2,
                |t, v| t.sum(t.mul(t.soft_assign(v, kernel, 1e-10), t.constant(w.clone()))),
                1e-6,
                1e-5,
            );
        }
    }

    #[test]
    fn sq_dist_cdist_value_matches_tensor() {
        let t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 2.0]]));
        let c = t.leaf(Matrix::from_rows(&[&[1.0, 0.0]]));
        let d = t.sq_dist_cdist(x, c);
        let v = t.value(d);
        assert_eq!(v[(0, 0)], 1.0);
        assert_eq!(v[(1, 0)], 4.0);
    }
}
