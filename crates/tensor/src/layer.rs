//! Row-parallel kernels of the training layer stack: the fused dense layer
//! `act(x·W + b)`, forward and backward, and the mean-squared-error
//! reconstruction loss.
//!
//! Written as a chain of autograd ops, a layer is a matmul, a bias
//! broadcast and an activation, each allocating a fresh `n×width` matrix
//! forward and again backward, and the MSE is a subtraction, a square and a
//! mean. These kernels do the bias and the activation in the matmul's
//! output pass ([`par::matmul_then`]), the activation's backward in place
//! in the incoming gradient's buffer, in one column-striped parallel pass
//! that also takes the bias gradient's column sums, and the MSE terms in
//! one row-parallel pass.
//!
//! Each kernel performs the composed chain's arithmetic bit for bit: the
//! ascending-`p` product sums, then `+ b`, then the activation; the bias
//! gradient as column sums in ascending row order; the MSE as
//! `(t − p).powf(2.0)` summed over all entries in row-major order, and its
//! gradient as `((g/n)·2)·(t − p)`. The composed chain's gradient takes
//! `(t − p).powf(1.0)`, which returns its argument exactly, so the multiply
//! alone has its bits. Outputs are therefore the composed ops' and
//! identical for every thread count.

use std::hint::black_box;

use runtime::{par_for_rows, ThreadPool};

use crate::matrix::Matrix;
use crate::par;

/// Entries per row block of the MSE passes: a 64-row pretraining batch of
/// 160 columns is three blocks, so both threads of a small pool work on
/// it. The blocking never changes an output bit.
const BLOCK_ENTRIES: usize = 4096;

/// Columns per stripe of the activation-backward pass.
const STRIPE: usize = 64;

/// Entries below which the activation-backward pass stays on the calling
/// thread.
const MIN_PARALLEL_ENTRIES: usize = 16_384;

/// Pointwise non-linearity applied after a linear map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity (no non-linearity) — used on latent/output layers.
    Linear,
    /// Rectified linear unit (paper §3, Eq. 1 mentions ReLU).
    Relu,
    /// Logistic sigmoid (the classic AE activation, paper §2.1).
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// The activation of one value, with the tape ops' arithmetic.
    #[inline]
    pub fn eval(self, x: f64) -> f64 {
        match self {
            Activation::Linear => x,
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
        }
    }

    /// The gradient at the activation's input, given the gradient `g` at
    /// its output `y`. Every rule reads the output only: ReLU's mask
    /// `y > 0` equals `x > 0`.
    #[inline]
    pub fn backward(self, g: f64, y: f64) -> f64 {
        match self {
            Activation::Linear => g,
            Activation::Relu => {
                if y > 0.0 {
                    g
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => g * y * (1.0 - y),
            Activation::Tanh => g * (1.0 - y * y),
        }
    }

    /// `act(v + b)` in place over whole row-major rows of `bias.len()`
    /// values: the layer epilogue shared by training and frozen inference.
    #[inline]
    pub fn bias_rows(self, rows: &mut [f64], bias: &[f64]) {
        for row in rows.chunks_exact_mut(bias.len().max(1)) {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v = self.eval(*v + b);
            }
        }
    }
}

/// One column stripe of the activation-backward pass: its first column,
/// its columns' sums, and its segment of every row of the gradient.
type Stripe<'a> = (usize, &'a mut [f64], Vec<&'a mut [f64]>);

/// Gradients of a dense layer `y = act(x·W + b)`; `None` where not asked
/// for.
#[derive(Debug, Clone)]
pub struct DenseGrads {
    /// `∂/∂x = g'·Wᵀ`.
    pub dx: Option<Matrix>,
    /// `∂/∂W = xᵀ·g'`.
    pub dw: Option<Matrix>,
    /// `∂/∂b`: the column sums of `g'`, as a `1×width` row.
    pub db: Option<Matrix>,
}

/// The layer-stack kernels bound to a pool.
#[derive(Clone, Copy)]
pub struct Dense<'p> {
    pool: &'p ThreadPool,
}

impl Dense<'static> {
    /// The kernels on the process-wide [`runtime::global`] pool.
    pub fn global() -> Self {
        Dense { pool: runtime::global() }
    }
}

impl<'p> Dense<'p> {
    /// The kernels on an explicit pool.
    pub fn on(pool: &'p ThreadPool) -> Self {
        Dense { pool }
    }

    /// `act(x·W + b)` for the `1×width` bias row `bias`: the product, then
    /// the bias and the activation in its output pass.
    ///
    /// # Panics
    /// Panics if the shapes do not chain.
    pub fn forward(self, x: &Matrix, w: &Matrix, bias: &[f64], act: Activation) -> Matrix {
        assert_eq!(bias.len(), w.cols(), "Dense::forward: bias length {} != width {}", bias.len(), w.cols());
        par::matmul_then(self.pool, x, w, &|rows| act.bias_rows(rows, bias))
    }

    /// Gradients of [`Dense::forward`] given its output `y` and the
    /// gradient `g` arriving at `y`. `g' = g ⊙ act'(y)` is formed once, in
    /// `g`'s own buffer, in the same pass as the bias gradient's column
    /// sums; `need` says which of `(dx, dW, db)` to compute.
    pub fn backward(
        self,
        x: &Matrix,
        w: &Matrix,
        y: &Matrix,
        mut g: Matrix,
        act: Activation,
        need: (bool, bool, bool),
    ) -> DenseGrads {
        let (need_dx, need_dw, need_db) = need;
        let db = self.activation_backward(&mut g, y, act, need_db);
        DenseGrads {
            dx: need_dx.then(|| par::matmul_nt(self.pool, &g, w)),
            dw: need_dw.then(|| par::matmul_tn(self.pool, x, &g)),
            db: db.map(|sums| Matrix::from_vec(1, sums.len(), sums)),
        }
    }

    /// `g ← g ⊙ act'(y)` in place and, if `sums`, the column sums of the
    /// result (each from `0.0` over ascending rows, as
    /// [`Matrix::col_sums`] adds them). Runs over column stripes of
    /// [`STRIPE`] columns in parallel: a stripe owns its columns' sums, so
    /// every sum keeps its serial order.
    fn activation_backward(self, g: &mut Matrix, y: &Matrix, act: Activation, sums: bool) -> Option<Vec<f64>> {
        assert_eq!(g.shape(), y.shape(), "Dense::backward: gradient shape");
        if act == Activation::Linear && !sums {
            return None;
        }
        let (n, c) = g.shape();
        let mut col_sums = vec![0.0; c];
        let mut stripes: Vec<Stripe<'_>> = col_sums
            .chunks_mut(STRIPE)
            .enumerate()
            .map(|(s, stripe_sums)| (s * STRIPE, stripe_sums, Vec::with_capacity(n)))
            .collect();
        for mut row in g.as_mut_slice().chunks_exact_mut(c.max(1)) {
            for (_, _, segments) in &mut stripes {
                let width = STRIPE.min(row.len());
                let (segment, rest) = std::mem::take(&mut row).split_at_mut(width);
                segments.push(segment);
                row = rest;
            }
        }
        let run = |(first, stripe_sums, segments): &mut Stripe<'_>| {
            for (i, segment) in segments.iter_mut().enumerate() {
                let y_segment = &y.row(i)[*first..*first + segment.len()];
                for ((gv, &yv), s) in segment.iter_mut().zip(y_segment).zip(stripe_sums.iter_mut()) {
                    *gv = act.backward(*gv, yv);
                    if sums {
                        *s += *gv;
                    }
                }
            }
        };
        let stripes_per_block = if n * c < MIN_PARALLEL_ENTRIES { stripes.len() } else { 1 };
        par_for_rows(self.pool, &mut stripes, 1, stripes_per_block, |_, block| block.iter_mut().for_each(&run));
        sums.then_some(col_sums)
    }

    /// Mean squared error `1/n · Σ (target − pred)²` over all `n` entries:
    /// the terms row-parallel, summed serially in row-major order.
    pub fn mse(self, target: &Matrix, pred: &Matrix) -> f64 {
        assert_eq!(target.shape(), pred.shape(), "Dense::mse: shape mismatch");
        if target.is_empty() {
            return 0.0;
        }
        // A literal exponent would be folded into `d * d`, which rounds
        // differently from `powf`.
        let two = black_box(2.0);
        let terms = self.map_rows(target, pred, |d| d.powf(two));
        terms.iter().sum::<f64>() / target.len() as f64
    }

    /// Gradient w.r.t. `target` of `g ·` [`Dense::mse`]:
    /// `((g/n)·2)·(target − pred)`. The gradient w.r.t. `pred` is its
    /// negation.
    pub fn mse_backward(self, target: &Matrix, pred: &Matrix, g: f64) -> Matrix {
        assert_eq!(target.shape(), pred.shape(), "Dense::mse_backward: shape mismatch");
        let gn = g / target.len() as f64;
        let (rows, cols) = target.shape();
        Matrix::from_vec(rows, cols, self.map_rows(target, pred, |d| gn * 2.0 * d))
    }

    /// `f(t − p)` for every entry of `target` (`t`) and `pred` (`p`), in
    /// row-major order, over row blocks of about [`BLOCK_ENTRIES`] entries
    /// in parallel.
    fn map_rows(self, target: &Matrix, pred: &Matrix, f: impl Fn(f64) -> f64 + Sync) -> Vec<f64> {
        let cols = target.cols().max(1);
        let mut out = vec![0.0; target.len()];
        par_for_rows(self.pool, &mut out, cols, (BLOCK_ENTRIES / cols).max(1), |first, block| {
            let range = first * cols..first * cols + block.len();
            let pairs = target.as_slice()[range.clone()].iter().zip(&pred.as_slice()[range]);
            for (o, (&t, &p)) in block.iter_mut().zip(pairs) {
                *o = f(t - p);
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_inner_dimension_still_applies_bias_and_activation() {
        let y = Dense::global().forward(&Matrix::zeros(3, 0), &Matrix::zeros(0, 2), &[-1.0, 2.0], Activation::Relu);
        assert_eq!(y, Matrix::from_rows(&[&[0.0, 2.0], &[0.0, 2.0], &[0.0, 2.0]]));
    }

    /// The composed chain's MSE gradient takes `d.powf(1.0)` with a
    /// runtime exponent; [`Dense::mse_backward`] uses `d` itself. That is
    /// exact only if `powf(1.0)` returns its argument's bits everywhere.
    #[test]
    fn powf_one_returns_its_argument_bitwise() {
        let one = black_box(1.0);
        let mut sweep = vec![0.0, f64::MIN_POSITIVE, f64::MAX, f64::EPSILON, f64::INFINITY];
        // Subnormals, from the smallest up to the largest.
        sweep.extend((0..52).map(|e| f64::from_bits(1u64 << e)));
        sweep.push(f64::from_bits((1u64 << 52) - 1));
        // Every normal power of two and its neighbours.
        for biased in 1..=2046u64 {
            let p = biased << 52;
            sweep.extend([p - 1, p, p + 1].map(f64::from_bits));
        }
        // Random bit patterns (xorshift), NaNs skipped.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..200_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            sweep.push(f64::from_bits(state));
        }
        for d in sweep.iter().flat_map(|&v| [v, -v]).filter(|v| !v.is_nan()) {
            assert_eq!(d.powf(one).to_bits(), d.to_bits(), "{d:e}");
        }
    }

    #[test]
    fn mse_of_an_empty_matrix_is_zero() {
        assert_eq!(Dense::global().mse(&Matrix::zeros(0, 3), &Matrix::zeros(0, 3)), 0.0);
    }
}
