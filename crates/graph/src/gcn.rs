//! A graph convolution layer on the autograd tape.

use std::rc::Rc;

use autograd::Var;
use nn::{Activation, BoundParams, ParamId, Params};
use rand::rngs::StdRng;
use tensor::random::xavier_uniform;
use tensor::Matrix;

use crate::csr::Csr;

/// One GCN layer: `H' = act(Â · H · W)` with the (constant, sparse)
/// normalized adjacency `Â` entering the tape as a linear operator.
#[derive(Clone)]
pub struct GcnLayer {
    w: ParamId,
    activation: Activation,
    fan_in: usize,
    fan_out: usize,
}

impl GcnLayer {
    /// Creates a layer with Xavier-initialized weights.
    pub fn new(
        params: &mut Params,
        fan_in: usize,
        fan_out: usize,
        activation: Activation,
        rng: &mut StdRng,
    ) -> Self {
        let w = params.register(xavier_uniform(fan_in, fan_out, rng));
        Self { w, activation, fan_in, fan_out }
    }

    /// Forward pass: `act(Â·(H·W))`.
    pub fn forward(&self, bound: &BoundParams<'_>, adj: &Rc<Csr>, h: Var) -> Var {
        let t = bound.tape();
        let hw = t.matmul(h, bound.var(self.w));
        let agg = t.apply_left(adj.clone() as Rc<dyn autograd::LinearOperator>, hw);
        t.activation(agg, self.activation)
    }

    /// Input dimension.
    pub fn fan_in(&self) -> usize {
        self.fan_in
    }

    /// Output dimension.
    pub fn fan_out(&self) -> usize {
        self.fan_out
    }
}

/// A stack of GCN layers sharing one adjacency.
#[derive(Clone, Default)]
pub struct Gcn {
    layers: Vec<GcnLayer>,
}

impl Gcn {
    /// Builds a GCN through `dims`, ReLU on hidden layers and `last` on the
    /// final layer.
    pub fn new(
        params: &mut Params,
        dims: &[usize],
        last: Activation,
        rng: &mut StdRng,
    ) -> Self {
        assert!(dims.len() >= 2, "Gcn::new: need at least input and output dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act = if i + 2 == dims.len() { last } else { Activation::Relu };
                GcnLayer::new(params, w[0], w[1], act, rng)
            })
            .collect();
        Self { layers }
    }

    /// Forward pass through all layers.
    pub fn forward(&self, bound: &BoundParams<'_>, adj: &Rc<Csr>, x: Var) -> Var {
        self.layers.iter().fold(x, |h, l| l.forward(bound, adj, h))
    }

    /// The layers.
    pub fn layers(&self) -> &[GcnLayer] {
        &self.layers
    }
}

/// Iterative label propagation on a (normalized) adjacency: starting from
/// one-hot `labels` rows (zero rows = unlabelled), repeatedly averages
/// neighbour label distributions. Used by the SHGP-style baseline to build
/// pseudo-labels (Att-LPA substitute).
///
/// Returns an `n×k` row-stochastic matrix after `iters` rounds.
pub fn label_propagation(adj: &Csr, labels: &Matrix, iters: usize) -> Matrix {
    assert_eq!(adj.rows(), labels.rows(), "label_propagation: size mismatch");
    let mut y = labels.clone();
    for _ in 0..iters {
        let mut next = adj.matmul_dense(&y);
        // Re-clamp known labels and renormalize rows.
        for i in 0..labels.rows() {
            let seed: f64 = labels.row(i).iter().sum();
            if seed > 0.0 {
                next.row_mut(i).copy_from_slice(labels.row(i));
            } else {
                let s: f64 = next.row(i).iter().sum();
                if s > 0.0 {
                    for v in next.row_mut(i) {
                        *v /= s;
                    }
                }
            }
        }
        y = next;
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograd::Tape;
    use tensor::random::rng;

    use crate::knn::gcn_adjacency;
    use tensor::random::randn;

    #[test]
    fn gcn_layer_shapes_and_finiteness() {
        let mut r = rng(1);
        let x = randn(20, 6, &mut r);
        let adj = Rc::new(gcn_adjacency(&x, 3));
        let mut params = Params::new();
        let gcn = Gcn::new(&mut params, &[6, 8, 4], Activation::Linear, &mut r);
        let tape = Tape::new();
        let bound = params.bind(&tape);
        let xv = tape.constant(x);
        let out = gcn.forward(&bound, &adj, xv);
        assert_eq!(tape.shape(out), (20, 4));
        assert!(tape.value(out).all_finite());
    }

    #[test]
    fn gcn_gradients_flow_to_weights() {
        let mut r = rng(2);
        let x = randn(15, 4, &mut r);
        let adj = Rc::new(gcn_adjacency(&x, 2));
        let mut params = Params::new();
        let gcn = Gcn::new(&mut params, &[4, 3], Activation::Linear, &mut r);
        let tape = Tape::new();
        let bound = params.bind(&tape);
        let out = gcn.forward(&bound, &adj, tape.constant(x));
        let loss = tape.mean(tape.square(out));
        let grads = tape.backward(loss);
        let (w, _) = (gcn.layers()[0].w, ());
        let g = grads.grad(bound.var(w));
        assert!(g.frobenius() > 0.0, "GCN weight gradient should be non-zero");
    }

    #[test]
    fn label_propagation_spreads_to_neighbours() {
        // Two clear blobs; seed one label in each; propagation labels all.
        let x = Matrix::from_rows(&[
            &[0.0, 0.0],
            &[0.2, 0.0],
            &[0.0, 0.2],
            &[10.0, 10.0],
            &[10.2, 10.0],
            &[10.0, 10.2],
        ]);
        let adj = gcn_adjacency(&x, 2);
        let mut seeds = Matrix::zeros(6, 2);
        seeds[(0, 0)] = 1.0;
        seeds[(3, 1)] = 1.0;
        let y = label_propagation(&adj, &seeds, 20);
        let labels = y.argmax_rows();
        assert_eq!(&labels[0..3], &[0, 0, 0]);
        assert_eq!(&labels[3..6], &[1, 1, 1]);
    }
}
