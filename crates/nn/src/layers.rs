//! Layers: activations, fully-connected layers, and MLP stacks.

use autograd::{Tape, Var};
use rand::rngs::StdRng;
use tensor::random::xavier_uniform;
use tensor::Matrix;

use crate::params::{BoundParams, ParamId, Params};

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
    /// Applies the activation on the tape.
    pub fn apply(self, t: &Tape, x: Var) -> Var {
        match self {
            Activation::Linear => x,
            Activation::Relu => t.relu(x),
            Activation::Sigmoid => t.sigmoid(x),
            Activation::Tanh => t.tanh(x),
        }
    }
}

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

    /// Forward pass on the tape.
    pub fn forward(&self, bound: &BoundParams<'_>, x: Var) -> Var {
        let t = bound.tape();
        let z = t.add_row_broadcast(t.matmul(x, bound.var(self.w)), bound.var(self.b));
        self.activation.apply(t, z)
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

    /// Forward pass outside any tape (pure inference, no gradients).
    pub fn infer(&self, params: &Params, x: &Matrix) -> Matrix {
        let tape = Tape::new();
        let bound = params.bind(&tape);
        let v = self.forward(&bound, tape.constant(x.clone()));
        tape.value(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_ne!(Activation::Relu.apply(&t, x), x);
        let relu = t.value(Activation::Relu.apply(&t, x));
        assert_eq!(relu.as_slice(), &[0.0, 0.0, 1.0]);
        let id = Activation::Linear.apply(&t, x);
        assert_eq!(id, x);
        let sig = t.value(Activation::Sigmoid.apply(&t, x));
        assert!((sig[(0, 1)] - 0.5).abs() < 1e-12);
    }
}
