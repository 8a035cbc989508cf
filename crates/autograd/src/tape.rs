//! The tape: forward-pass recording and the reverse sweep.

use std::cell::RefCell;
use std::rc::Rc;

use tensor::distance::sq_euclidean_cdist;
use tensor::head::{Head, SoftKernel};
use tensor::Matrix;

use crate::ops::{LinearOperator, Op};

/// Handle to a node on a [`Tape`]. Cheap to copy; only meaningful together
/// with the tape that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

struct Node {
    value: Matrix,
    op: Op,
}

/// A gradient tape. Build one per forward pass, call the op methods to
/// record the computation, call [`Tape::backward`] on a scalar loss, then
/// read parameter gradients with [`Tape::grad`].
#[derive(Default)]
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
}

impl Tape {
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
        nodes.push(Node { value, op });
        Var(nodes.len() - 1)
    }

    /// Registers an input/parameter node.
    pub fn leaf(&self, value: Matrix) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Registers a constant. Identical to [`Tape::leaf`] today (its gradient
    /// is simply never read); kept separate for intent at call sites.
    pub fn constant(&self, value: Matrix) -> Var {
        self.push(value, Op::Leaf)
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
            &n[a.0].value + &n[b.0].value
        };
        self.push(v, Op::Add(a.0, b.0))
    }

    /// Elementwise difference.
    pub fn sub(&self, a: Var, b: Var) -> Var {
        let v = {
            let n = self.nodes.borrow();
            &n[a.0].value - &n[b.0].value
        };
        self.push(v, Op::Sub(a.0, b.0))
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, a: Var, b: Var) -> Var {
        let v = {
            let n = self.nodes.borrow();
            &n[a.0].value * &n[b.0].value
        };
        self.push(v, Op::Mul(a.0, b.0))
    }

    /// Elementwise quotient.
    pub fn div(&self, a: Var, b: Var) -> Var {
        let v = {
            let n = self.nodes.borrow();
            &n[a.0].value / &n[b.0].value
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

    /// Adds a `1×c` bias row to every row of an `n×c` matrix.
    pub fn add_row_broadcast(&self, a: Var, bias: Var) -> Var {
        let v = {
            let n = self.nodes.borrow();
            let b = &n[bias.0].value;
            assert_eq!(b.rows(), 1, "add_row_broadcast: bias must be 1×c");
            n[a.0].value.add_row_broadcast(b.row(0))
        };
        self.push(v, Op::AddRowBroadcast(a.0, bias.0))
    }

    // ---- scalar / unary ops ----------------------------------------------

    /// Multiplies by a constant scalar.
    pub fn scale(&self, a: Var, s: f64) -> Var {
        let v = { &self.nodes.borrow()[a.0].value * s };
        self.push(v, Op::Scale(a.0, s))
    }

    /// Adds a constant scalar to every element.
    pub fn add_scalar(&self, a: Var, s: f64) -> Var {
        let v = { self.nodes.borrow()[a.0].value.map(|x| x + s) };
        self.push(v, Op::AddScalar(a.0))
    }

    /// Elementwise negation.
    pub fn neg(&self, a: Var) -> Var {
        let v = { -&self.nodes.borrow()[a.0].value };
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
            let va = &n[a.0].value;
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
    /// constant target `p`, n = `p.rows()`: one node, bit-identical to
    /// `scale(neg(sum(mul(p, ln(add_scalar(m, eps))))), 1/n)`.
    pub fn cross_entropy(&self, p: &Matrix, m: Var, eps: f64) -> Var {
        self.cross_entropy_node(p, m, eps, false)
    }

    /// `KL(p ‖ m) = 1/n · Σ p·ln(p/(m + eps))`: [`Tape::cross_entropy`]
    /// plus the constant `1/n · Σ p·ln p` over positive `p`, in one node.
    pub fn kl_div(&self, p: &Matrix, m: Var, eps: f64) -> Var {
        self.cross_entropy_node(p, m, eps, true)
    }

    fn cross_entropy_node(&self, p: &Matrix, m: Var, eps: f64, with_entropy: bool) -> Var {
        let head = Head::global();
        let n = p.rows().max(1) as f64;
        let inv_n = 1.0 / n;
        let cross = { head.cross_sum(p, &self.nodes.borrow()[m.0].value, eps) };
        let mut v = -cross * inv_n;
        if with_entropy {
            v += head.neg_entropy_sum(p) / n;
        }
        self.push(Matrix::full(1, 1, v), Op::CrossEntropy { m: m.0, p: p.clone(), eps, inv_n })
    }

    // ---- backward ---------------------------------------------------------

    /// Runs the reverse sweep from a scalar (1×1) `loss` node and returns
    /// the gradient of every node. Gradients of nodes that do not influence
    /// the loss are zero matrices.
    ///
    /// # Panics
    /// Panics if `loss` is not 1×1.
    pub fn backward(&self, loss: Var) -> Gradients {
        let nodes = self.nodes.borrow();
        assert_eq!(nodes[loss.0].value.shape(), (1, 1), "backward: loss must be a 1×1 scalar");
        let mut grads: Vec<Option<Matrix>> = vec![None; nodes.len()];
        grads[loss.0] = Some(Matrix::ones(1, 1));
        let values: Vec<&Matrix> = nodes.iter().map(|n| &n.value).collect();

        for id in (0..nodes.len()).rev() {
            let Some(g) = grads[id].take() else { continue };
            let node = &nodes[id];
            node.op.backward(&node.value, &g, &values, &mut |pid, delta| match &mut grads[pid] {
                Some(existing) => *existing += &delta,
                slot @ None => *slot = Some(delta),
            });
            grads[id] = Some(g);
        }

        Gradients { grads, shapes: values.iter().map(|v| v.shape()).collect() }
    }
}

/// The result of a backward pass: per-node gradients.
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
    shapes: Vec<(usize, usize)>,
}

impl Gradients {
    /// Gradient of the loss w.r.t. node `v` (zeros if the node does not
    /// influence the loss).
    pub fn grad(&self, v: Var) -> Matrix {
        match &self.grads[v.0] {
            Some(g) => g.clone(),
            None => {
                let (r, c) = self.shapes[v.0];
                Matrix::zeros(r, c)
            }
        }
    }

    /// Borrowing accessor; `None` means the node has no gradient path.
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
