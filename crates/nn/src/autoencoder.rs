//! The autoencoder used for representation learning (paper Eq. 1–2) and its
//! reconstruction pretraining (Algorithm 1, line 1).

use autograd::{Tape, Var};
use rand::rngs::StdRng;
use tensor::Matrix;

use crate::layers::{Activation, FrozenMlp, Mlp};
use crate::loss::mse;
use crate::optim::Adam;
use crate::params::{BoundParams, Params};

/// Encoder/decoder pair with a symmetric layer layout.
///
/// TableDC uses four AE layers (§4.3) with a latent size of 100, the widely
/// used DEC/SDCN layout `d → 500 → 500 → 2000 → latent` and its mirror
/// image (see `TableDcConfig::paper_architecture` in the `tabledc` crate).
#[derive(Debug, Clone)]
pub struct Autoencoder {
    encoder: Mlp,
    decoder: Mlp,
}

impl Autoencoder {
    /// Builds an AE with encoder dims `dims` (input first, latent last) and
    /// a mirrored decoder. Hidden layers are ReLU; the latent and the final
    /// reconstruction are linear, which suits standardized real-valued
    /// embeddings.
    pub fn new(params: &mut Params, dims: &[usize], rng: &mut StdRng) -> Self {
        assert!(dims.len() >= 2, "Autoencoder::new: need at least [input, latent]");
        let mut rev: Vec<usize> = dims.to_vec();
        rev.reverse();
        // Named registration labels per-layer gradient-norm telemetry
        // (`nn.grad_norm.enc.l0.w`, …) and health dumps.
        let encoder = Mlp::new_named(params, "enc", dims, Activation::Relu, Activation::Linear, rng);
        let decoder = Mlp::new_named(params, "dec", &rev, Activation::Relu, Activation::Linear, rng);
        Self { encoder, decoder }
    }

    /// Encoder forward pass on a tape.
    pub fn encode(&self, bound: &BoundParams<'_>, x: Var) -> Var {
        self.encoder.forward(bound, x)
    }

    /// Decoder forward pass on a tape.
    pub fn decode(&self, bound: &BoundParams<'_>, z: Var) -> Var {
        self.decoder.forward(bound, z)
    }

    /// The encoder's layers, in order — exposed so graph-fusion baselines
    /// (SDCN) can inject per-layer activations into their GCN.
    pub fn encoder_layers(&self) -> &[crate::layers::Linear] {
        self.encoder.layers()
    }

    /// The decoder's layers, in order.
    pub fn decoder_layers(&self) -> &[crate::layers::Linear] {
        self.decoder.layers()
    }

    /// Latent dimension.
    pub fn latent_dim(&self) -> usize {
        self.encoder.out_dim()
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.encoder.in_dim()
    }

    /// The encoder frozen for inference with the current `params`.
    pub fn frozen_encoder(&self, params: &Params) -> FrozenMlp {
        FrozenMlp::new(&self.encoder, params)
    }

    /// Gradient-free encoding of a data matrix.
    pub fn embed(&self, params: &Params, x: &Matrix) -> Matrix {
        self.encoder.infer(params, x)
    }

    /// Minibatch size of [`Autoencoder::pretrain`]: each epoch makes
    /// `⌈n/64⌉` updates, so epochs behave like the paper's PyTorch epochs on
    /// modest n.
    const PRETRAIN_BATCH: usize = 64;

    /// Fraction of input entries [`Autoencoder::pretrain`] zeroes per batch.
    const PRETRAIN_CORRUPTION: f64 = 0.2;

    /// Reconstruction pretraining (Algorithm 1 line 1): denoising
    /// minibatch Adam on `MSE(x, decode(encode(x̃)))` for `epochs` epochs.
    /// Each batch's *input* `x̃` has a fixed fraction of entries zeroed
    /// while the reconstruction target stays clean — the
    /// stacked-denoising-autoencoder recipe DEC and SDCN pretrain with,
    /// which stops the encoder from memorizing per-sample noise (essential
    /// at small n). Rows are shuffled and corrupted by a fixed-seed RNG, so
    /// pretraining is deterministic. Returns the per-epoch loss trace (mean
    /// batch loss).
    pub fn pretrain(&self, params: &mut Params, x: &Matrix, epochs: usize, lr: f64) -> Vec<f64> {
        use rand::Rng;
        let _pretrain_timer = obs::span!("ae.pretrain");
        let rng = &mut tensor::random::rng(0);
        let n = x.rows();
        let batch_size = Self::PRETRAIN_BATCH.min(n.max(1));
        let mut adam = Adam::new(lr);
        let mut trace = Vec::with_capacity(epochs);
        for epoch in 0..epochs {
            let epoch_start = std::time::Instant::now();
            let order = tensor::random::permutation(n, rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(batch_size) {
                let clean = x.select_rows(chunk);
                let mut corrupted = clean.clone();
                for v in corrupted.as_mut_slice() {
                    if rng.gen::<f64>() < Self::PRETRAIN_CORRUPTION {
                        *v = 0.0;
                    }
                }
                let tape = Tape::new();
                let bound = params.bind(&tape);
                let target = tape.constant(clean);
                let input = tape.constant(corrupted);
                let recon = self.decode(&bound, self.encode(&bound, input));
                let loss = mse(&tape, target, recon);
                epoch_loss += tape.value(loss)[(0, 0)];
                batches += 1;
                let grads = bound.backward(loss);
                adam.step(params, &grads);
            }
            let mean_loss = epoch_loss / batches.max(1) as f64;
            trace.push(mean_loss);
            let epoch_ms = epoch_start.elapsed().as_secs_f64() * 1e3;
            obs::event("ae.pretrain_epoch")
                .u64("epoch", epoch as u64)
                .f64("loss", mean_loss)
                .f64("epoch_ms", epoch_ms)
                .emit();
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::random::{randn, rng};

    #[test]
    fn shapes_are_mirrored() {
        let mut params = Params::new();
        let mut r = rng(1);
        let ae = Autoencoder::new(&mut params, &[10, 8, 3], &mut r);
        assert_eq!(ae.input_dim(), 10);
        assert_eq!(ae.latent_dim(), 3);
        let x = randn(5, 10, &mut r);
        assert_eq!(ae.embed(&params, &x).shape(), (5, 3));
        let decoder = ae.decoder_layers();
        assert_eq!((decoder[0].fan_in(), decoder[decoder.len() - 1].fan_out()), (3, 10));
    }

    #[test]
    fn tape_free_embed_matches_the_tape_bitwise() {
        let mut params = Params::new();
        let mut r = rng(4);
        let ae = Autoencoder::new(&mut params, &[10, 16, 8, 3], &mut r);
        let x = randn(37, 10, &mut r);
        let tape = Tape::new();
        let bound = params.bind(&tape);
        let z = ae.encode(&bound, tape.constant(x.clone()));
        assert!(ae.embed(&params, &x) == tape.value(z));
    }

    #[test]
    fn pretraining_reduces_reconstruction_loss() {
        let mut params = Params::new();
        let mut r = rng(2);
        let ae = Autoencoder::new(&mut params, &[6, 16, 2], &mut r);
        // Low-rank data: 2 latent dims suffice, so the AE can compress well.
        let basis = randn(2, 6, &mut r);
        let codes = randn(40, 2, &mut r);
        let x = codes.matmul(&basis);
        let trace = ae.pretrain(&mut params, &x, 60, 0.01);
        assert!(trace.len() == 60);
        let first = trace[0];
        let last = *trace.last().expect("non-empty");
        assert!(
            last < first * 0.5,
            "pretraining did not reduce loss enough: {first} → {last}"
        );
    }

    #[test]
    fn default_layout_matches_paper() {
        let mut params = Params::new();
        let mut r = rng(3);
        let ae = Autoencoder::new(&mut params, &[300, 500, 500, 2000, 100], &mut r);
        // 4 encoder + 4 decoder layers (paper §4.3: "four AE layers").
        assert_eq!(ae.encoder_layers().len(), 4);
        assert_eq!(ae.decoder_layers().len(), 4);
        assert_eq!(ae.latent_dim(), 100);
        assert_eq!(ae.input_dim(), 300);
    }
}
