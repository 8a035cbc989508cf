//! Layers: activations, fully-connected layers, and MLP stacks.

use autograd::Var;
use rand::rngs::StdRng;
use runtime::{par_for_rows, ThreadPool};
use tensor::par::{matmul_packed, plan_block_rows, with_scratch, PackedRhs};
use tensor::random::xavier_uniform;
use tensor::Matrix;

use crate::params::{BoundParams, ParamId, Params};

/// Pointwise non-linearity applied after a linear map (defined next to
/// the layer kernels that run it, [`tensor::layer`]).
pub use tensor::layer::Activation;

/// A fully-connected layer `act(X·W + b)` (paper Eq. 1–2).
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    activation: Activation,
    fan_in: usize,
    fan_out: usize,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero bias,
    /// registering its parameters in `params` under auto-generated names.
    pub fn new(
        params: &mut Params,
        fan_in: usize,
        fan_out: usize,
        activation: Activation,
        rng: &mut StdRng,
    ) -> Self {
        Self::build(params, None, fan_in, fan_out, activation, rng)
    }

    /// [`Linear::new`] with a telemetry name: the parameters register as
    /// `<name>.w` / `<name>.b`, which labels per-layer gradient-norm
    /// histograms and health-dump entries.
    pub fn new_named(
        params: &mut Params,
        name: &str,
        fan_in: usize,
        fan_out: usize,
        activation: Activation,
        rng: &mut StdRng,
    ) -> Self {
        Self::build(params, Some(name), fan_in, fan_out, activation, rng)
    }

    fn build(
        params: &mut Params,
        name: Option<&str>,
        fan_in: usize,
        fan_out: usize,
        activation: Activation,
        rng: &mut StdRng,
    ) -> Self {
        let w = xavier_uniform(fan_in, fan_out, rng);
        let b = Matrix::zeros(1, fan_out);
        let (w, b) = match name {
            Some(name) => (
                params.register_named(format!("{name}.w"), w),
                params.register_named(format!("{name}.b"), b),
            ),
            None => (params.register(w), params.register(b)),
        };
        Self { w, b, activation, fan_in, fan_out }
    }

    /// Forward pass on the tape: one fused [`autograd::Tape::linear`] node.
    pub fn forward(&self, bound: &BoundParams<'_>, x: Var) -> Var {
        bound.tape().linear(x, bound.var(self.w), bound.var(self.b), self.activation)
    }

    /// Input dimension.
    pub fn fan_in(&self) -> usize {
        self.fan_in
    }

    /// Output dimension.
    pub fn fan_out(&self) -> usize {
        self.fan_out
    }

    /// Parameter ids `(weights, bias)`.
    pub fn param_ids(&self) -> (ParamId, ParamId) {
        (self.w, self.b)
    }
}

/// A stack of [`Linear`] layers.
#[derive(Debug, Clone, Default)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Builds an MLP through the given `dims` (e.g. `[784, 500, 100]`),
    /// applying `hidden` activation to all but the last layer and `last` to
    /// the final one.
    ///
    /// # Panics
    /// Panics if `dims` has fewer than two entries.
    pub fn new(
        params: &mut Params,
        dims: &[usize],
        hidden: Activation,
        last: Activation,
        rng: &mut StdRng,
    ) -> Self {
        Self::build(params, None, dims, hidden, last, rng)
    }

    /// [`Mlp::new`] with a telemetry name prefix: layer `i` registers its
    /// parameters as `<prefix>.l<i>.w` / `<prefix>.l<i>.b`.
    pub fn new_named(
        params: &mut Params,
        prefix: &str,
        dims: &[usize],
        hidden: Activation,
        last: Activation,
        rng: &mut StdRng,
    ) -> Self {
        Self::build(params, Some(prefix), dims, hidden, last, rng)
    }

    fn build(
        params: &mut Params,
        prefix: Option<&str>,
        dims: &[usize],
        hidden: Activation,
        last: Activation,
        rng: &mut StdRng,
    ) -> Self {
        assert!(dims.len() >= 2, "Mlp::new: need at least input and output dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act = if i + 2 == dims.len() { last } else { hidden };
                let name = prefix.map(|p| format!("{p}.l{i}"));
                Linear::build(params, name.as_deref(), w[0], w[1], act, rng)
            })
            .collect();
        Self { layers }
    }

    /// Forward pass through all layers.
    pub fn forward(&self, bound: &BoundParams<'_>, x: Var) -> Var {
        self.layers.iter().fold(x, |h, layer| layer.forward(bound, h))
    }

    /// The layers of the stack.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers.first().map_or(0, Linear::fan_in)
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, Linear::fan_out)
    }

    /// Forward pass outside any tape (pure inference, no gradients), on
    /// the [`FrozenMlp`] path: bit-identical to [`Mlp::forward`]'s value.
    pub fn infer(&self, params: &Params, x: &Matrix) -> Matrix {
        FrozenMlp::new(self, params).infer(runtime::global(), x)
    }
}

/// An [`Mlp`] frozen for inference: every layer's weights packed once as
/// the matmul kernel's right operand ([`PackedRhs`]), with its bias and
/// activation. It runs without a tape, copies no parameter, and computes
/// each output element with [`Mlp::forward`]'s operations in their order:
/// the ascending-`p` product sum, then `+ b`, then the activation.
#[derive(Clone, Debug)]
pub struct FrozenMlp {
    layers: Vec<FrozenLayer>,
}

#[derive(Clone, Debug)]
struct FrozenLayer {
    w: PackedRhs,
    b: Vec<f64>,
    activation: Activation,
}

impl FrozenMlp {
    /// Freezes `mlp` with the current values of its parameters.
    pub fn new(mlp: &Mlp, params: &Params) -> Self {
        let layers = mlp
            .layers()
            .iter()
            .map(|layer| {
                let (w, b) = layer.param_ids();
                FrozenLayer { w: PackedRhs::new(params.get(w)), b: params.get(b).row(0).to_vec(), activation: layer.activation }
            })
            .collect::<Vec<_>>();
        assert!(!layers.is_empty(), "FrozenMlp::new: the MLP has no layers");
        Self { layers }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers.first().map_or(0, |l| l.w.rows())
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, |l| l.w.cols())
    }

    /// Scratch values [`FrozenMlp::forward_rows`] needs for `rows` rows:
    /// two buffers as wide as the widest hidden layer.
    pub fn scratch_len(&self, rows: usize) -> usize {
        let hidden = &self.layers[..self.layers.len().saturating_sub(1)];
        2 * rows * hidden.iter().map(|l| l.w.cols()).max().unwrap_or(0)
    }

    /// The forward pass of the row-major rows `x` into `out`, on the
    /// calling thread, with hidden activations in `scratch` (at least
    /// [`FrozenMlp::scratch_len`] values).
    pub fn forward_rows(&self, x: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        let rows = out.len() / self.out_dim().max(1);
        let (mut src, mut dst) = scratch.split_at_mut(scratch.len() / 2);
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let input = if i == 0 { x } else { &src[..rows * layer.w.rows()] };
            let output = if i == last { &mut *out } else { &mut dst[..rows * layer.w.cols()] };
            matmul_packed(input, &layer.w, output);
            layer.activation.bias_rows(output, &layer.b);
            std::mem::swap(&mut src, &mut dst);
        }
    }

    /// The forward pass of every row of `x`, in row blocks on `pool`
    /// ([`plan_block_rows`]); bit-identical for every pool. Timed as the
    /// `nn.infer` span, which holds its packed products (they open no
    /// `tensor.matmul` span).
    pub fn infer(&self, pool: &ThreadPool, x: &Matrix) -> Matrix {
        let _infer_timer = obs::span!("nn.infer");
        let (d, width) = (self.in_dim(), self.out_dim());
        assert_eq!(x.cols(), d, "FrozenMlp::infer: {} input columns for a {d}-wide layer", x.cols());
        let mut out = Matrix::zeros(x.rows(), width);
        let block = plan_block_rows(x.rows(), pool.threads());
        par_for_rows(pool, out.as_mut_slice(), width, block, |first, chunk| {
            let rows = chunk.len() / width;
            let x_rows = &x.as_slice()[first * d..(first + rows) * d];
            with_scratch(self.scratch_len(rows), |scratch| self.forward_rows(x_rows, chunk, scratch));
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograd::Tape;
    use tensor::random::rng;

    #[test]
    fn linear_layer_shapes() {
        let mut params = Params::new();
        let mut r = rng(1);
        let layer = Linear::new(&mut params, 4, 3, Activation::Relu, &mut r);
        let tape = Tape::new();
        let bound = params.bind(&tape);
        let x = tape.constant(Matrix::ones(5, 4));
        let y = layer.forward(&bound, x);
        assert_eq!(tape.shape(y), (5, 3));
        // ReLU output is non-negative.
        assert!(tape.value(y).as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn mlp_builds_correct_dims() {
        let mut params = Params::new();
        let mut r = rng(2);
        let mlp = Mlp::new(&mut params, &[8, 16, 4], Activation::Relu, Activation::Linear, &mut r);
        assert_eq!(mlp.layers().len(), 2);
        assert_eq!(mlp.in_dim(), 8);
        assert_eq!(mlp.out_dim(), 4);
        assert_eq!(params.len(), 4); // 2 layers × (W, b)
        let y = mlp.infer(&params, &Matrix::ones(3, 8));
        assert_eq!(y.shape(), (3, 4));
        assert!(y.all_finite());
    }

    #[test]
    fn frozen_mlp_matches_tape_forward_bitwise_on_every_pool() {
        let mut r = rng(4);
        let x = tensor::random::randn(67, 9, &mut r);
        for act in [Activation::Linear, Activation::Relu, Activation::Sigmoid, Activation::Tanh] {
            let mut params = Params::new();
            let mlp = Mlp::new(&mut params, &[9, 20, 13, 5], act, Activation::Tanh, &mut r);
            let tape = Tape::new();
            let bound = params.bind(&tape);
            let want = tape.value(mlp.forward(&bound, tape.constant(x.clone())));
            let frozen = FrozenMlp::new(&mlp, &params);
            assert_eq!((frozen.in_dim(), frozen.out_dim()), (9, 5));
            for threads in [1, 2, 4] {
                let got = frozen.infer(&ThreadPool::new(threads), &x);
                assert!(got == want, "{act:?}, {threads} threads");
            }
            assert!(mlp.infer(&params, &x) == want, "{act:?}: Mlp::infer");
        }
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn mlp_rejects_single_dim() {
        let mut params = Params::new();
        let mut r = rng(3);
        let _ = Mlp::new(&mut params, &[8], Activation::Relu, Activation::Linear, &mut r);
    }

    #[test]
    fn activations_behave() {
        let t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[-1.0, 0.0, 1.0]]));
        assert_ne!(t.activation(x, Activation::Relu), x);
        let relu = t.value(t.activation(x, Activation::Relu));
        assert_eq!(relu.as_slice(), &[0.0, 0.0, 1.0]);
        let id = t.activation(x, Activation::Linear);
        assert_eq!(id, x);
        let sig = t.value(t.activation(x, Activation::Sigmoid));
        assert!((sig[(0, 1)] - 0.5).abs() < 1e-12);
    }
}
