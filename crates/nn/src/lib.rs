//! # nn — neural-network building blocks on the autograd tape
//!
//! Layers ([`layers`]), the shared autoencoder ([`autoencoder`]), losses
//! ([`loss`]), the Adam optimizer ([`optim`]), and parameter management
//! ([`params`]). Every deep model in this repository — TableDC itself and
//! the SDCN/DFCN/DCRN/EDESC/SHGP baselines — is assembled from these
//! pieces, so behavioural differences between methods come from their
//! objectives, not from framework differences.

pub mod autoencoder;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod params;

pub use autoencoder::Autoencoder;
pub use layers::{Activation, FrozenMlp, Linear, Mlp};
pub use optim::Adam;
pub use params::{BoundParams, ParamGrads, ParamId, Params};

#[cfg(test)]
mod integration {
    use autograd::Tape;
    use tensor::random::{randn, rng};
    use tensor::Matrix;

    use crate::layers::{Activation, Mlp};
    use crate::loss::mse;
    use crate::optim::Adam;
    use crate::params::Params;

    /// End-to-end sanity: a 2-layer MLP can fit a linear map.
    #[test]
    fn mlp_fits_linear_target() {
        let mut r = rng(7);
        let mut params = Params::new();
        let mlp = Mlp::new(&mut params, &[3, 8, 2], Activation::Tanh, Activation::Linear, &mut r);
        let w_true = randn(3, 2, &mut r);
        let x = randn(50, 3, &mut r);
        let y = x.matmul(&w_true);

        let mut adam = Adam::new(0.02);
        let mut last = f64::INFINITY;
        for _ in 0..300 {
            let tape = Tape::new();
            let bound = params.bind(&tape);
            let xv = tape.constant(x.clone());
            let yv = tape.constant(y.clone());
            let pred = mlp.forward(&bound, xv);
            let loss = mse(&tape, yv, pred);
            last = tape.value(loss)[(0, 0)];
            let grads = bound.backward(loss);
            adam.step(&mut params, &grads);
        }
        assert!(last < 0.05, "final loss {last} too high");
    }

    /// Gradients flowing through the full loss stack stay finite.
    #[test]
    fn training_step_is_numerically_stable() {
        let mut r = rng(8);
        let mut params = Params::new();
        let mlp = Mlp::new(&mut params, &[4, 16, 4], Activation::Relu, Activation::Sigmoid, &mut r);
        let x = randn(20, 4, &mut r);
        let tape = Tape::new();
        let bound = params.bind(&tape);
        let xv = tape.constant(x.clone());
        let out = mlp.forward(&bound, xv);
        let loss = mse(&tape, xv, out);
        let grads = tape.backward(loss);
        for (_, var) in bound.iter() {
            assert!(grads.grad(var).all_finite());
        }
        let _ = Matrix::zeros(1, 1);
    }
}
