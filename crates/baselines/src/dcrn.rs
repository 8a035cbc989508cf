//! DCRN — Dual Correlation Reduction Network (Liu et al., AAAI '22).
//!
//! Compact reimplementation of the core idea: two augmented views of the
//! data (feature dropout) are encoded by a shared AE+GCN pair, and a
//! *correlation-reduction* loss pushes the cross-view feature-correlation
//! matrix towards the identity (decorrelating dimensions, "reducing the
//! information correlation to improve the discriminative property" §4.1.2).
//! Clustering is Student-t self-supervision on the mean fused view.

use graph::Gcn;
use nn::loss::{kl_div, mse};
use nn::Activation;
use rand::rngs::StdRng;
use rand::Rng;
use tabledc::train::Objective;
use tensor::Matrix;

use crate::common::{kmeans_centers, student_t_assignments, target_node, train_epochs, ClusterOutput, DeepConfig};

/// DCRN model configuration.
#[derive(Debug, Clone)]
pub struct Dcrn {
    /// Shared deep-baseline hyper-parameters.
    pub config: DeepConfig,
    /// Feature-dropout rate used to build the two views.
    pub dropout: f64,
}

impl Default for Dcrn {
    fn default() -> Self {
        Self { config: DeepConfig::default(), dropout: 0.2 }
    }
}

impl Dcrn {
    /// Creates DCRN with the given shared configuration.
    pub fn new(config: DeepConfig) -> Self {
        Self { config, dropout: 0.2 }
    }

    /// Trains DCRN on the rows of `x` into `k` clusters.
    pub fn fit(&self, x: &Matrix, k: usize, rng: &mut StdRng) -> ClusterOutput {
        let cfg = &self.config;
        let (x, mut params, ae) = cfg.pretrained_autoencoder(x, rng);
        let x = &x;
        let adj = cfg.adjacency(x);
        let gcn = Gcn::new(&mut params, &cfg.encoder_dims(x.cols()), Activation::Linear, rng);

        let z0 = ae.embed(&params, x);
        let centers = params.register(kmeans_centers(&z0, k, rng));

        // A feature-dropout view (the siamese augmentation).
        let view = |r: &mut StdRng| {
            let mut v = x.clone();
            for val in v.as_mut_slice() {
                if r.gen::<f64>() < self.dropout {
                    *val = 0.0;
                }
            }
            v
        };
        train_epochs("dcrn", cfg, k, &mut params, [x], |t, bound, [xv]| {
            // Two fresh views per epoch.
            let x1v = t.constant(view(rng));
            let x2v = t.constant(view(rng));
            let z1 = t.add(ae.encode(bound, x1v), gcn.forward(bound, &adj, x1v));
            let z2 = t.add(ae.encode(bound, x2v), gcn.forward(bound, &adj, x2v));

            // Cross-view feature-correlation matrix (latent × latent)
            // over L2-normalized *columns*; target: identity.
            let n1 = normalize_cols(t, z1);
            let n2 = normalize_cols(t, z2);
            let s_f = t.matmul(t.transpose(n1), n2);
            let eye = t.constant(Matrix::identity(cfg.latent_dim));
            let corr_loss = t.mean(t.square(t.sub(s_f, eye)));

            // Clustering on the mean fused view.
            let fused = t.scale(t.add(z1, z2), 0.5);
            let q = student_t_assignments(t, fused, bound.var(centers), 1.0);
            let (p, kl_pq) = target_node(t, q);
            let kl = kl_div(t, p, q);

            let recon = ae.decode(bound, ae.encode(bound, xv));
            let re = mse(t, xv, recon);
            Objective {
                loss: t.add(t.add(re, t.scale(kl, 0.1)), t.scale(corr_loss, 1.0)),
                re,
                kl_pq,
                assign: q,
                ce: None,
            }
        })
    }
}

/// L2-normalizes the columns of a tape variable (via transposed row
/// normalization).
fn normalize_cols(t: &autograd::Tape, v: autograd::Var) -> autograd::Var {
    let vt = t.transpose(v);
    let norms = t.sqrt(t.add_scalar(t.row_sums(t.square(vt)), 1e-12));
    t.transpose(t.div_col_broadcast(vt, norms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustering::metrics::adjusted_rand_index;
    use datagen::{generate_mixture, MixtureConfig};
    use tensor::random::rng;

    #[test]
    fn dcrn_clusters_separated_mixture() {
        let g = generate_mixture(
            &MixtureConfig { n: 90, k: 3, dim: 12, separation: 4.0, ..Default::default() },
            &mut rng(1),
        );
        let cfg = DeepConfig { latent_dim: 8, pretrain_epochs: 10, epochs: 20, ..Default::default() };
        let out = Dcrn::new(cfg).fit(&g.x, 3, &mut rng(2));
        let ari = adjusted_rand_index(&out.labels, &g.labels);
        assert!(ari > 0.3, "ARI = {ari}");
    }

    #[test]
    fn dcrn_output_shapes() {
        let g = generate_mixture(
            &MixtureConfig { n: 30, k: 2, dim: 6, ..Default::default() },
            &mut rng(3),
        );
        let cfg = DeepConfig { latent_dim: 4, pretrain_epochs: 4, epochs: 8, ..Default::default() };
        let out = Dcrn::new(cfg).fit(&g.x, 2, &mut rng(4));
        assert_eq!(out.labels.len(), 30);
        assert_eq!(out.re_loss.len(), 8);
    }
}
