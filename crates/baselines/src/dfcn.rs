//! DFCN — Deep Fusion Clustering Network (Tu et al., AAAI '21).
//!
//! Compact reimplementation: an autoencoder and a GCN encoder produce two
//! latent views that are fused (`z = ½(z_ae + z_gcn)` refined by a learned
//! per-dimension gate), and the fused representation drives a Student-t
//! self-supervised objective plus both reconstruction terms. The original's
//! IGAE is simplified to a GCN encoder whose reconstruction target is the
//! smoothed input `Â·X` (its graph-reconstruction surrogate).

use graph::Gcn;
use nn::loss::{kl_div, mse};
use nn::Activation;
use rand::rngs::StdRng;
use tabledc::train::Objective;
use tensor::Matrix;

use crate::common::{kmeans_centers, student_t_assignments, target_node, train_epochs, ClusterOutput, DeepConfig};

/// DFCN model configuration.
#[derive(Debug, Clone, Default)]
pub struct Dfcn {
    /// Shared deep-baseline hyper-parameters.
    pub config: DeepConfig,
}

impl Dfcn {
    /// Creates DFCN with the given shared configuration.
    pub fn new(config: DeepConfig) -> Self {
        Self { config }
    }

    /// Trains DFCN on the rows of `x` into `k` clusters.
    pub fn fit(&self, x: &Matrix, k: usize, rng: &mut StdRng) -> ClusterOutput {
        let cfg = &self.config;
        let (x, mut params, ae) = cfg.pretrained_autoencoder(x, rng);
        let x = &x;
        let adj = cfg.adjacency(x);
        let gcn = Gcn::new(&mut params, &cfg.encoder_dims(x.cols()), Activation::Linear, rng);
        // Learned fusion gate (1×latent), initialized at 0 → sigmoid 0.5,
        // i.e. an even AE/GCN blend that training can re-balance.
        let gate = params.register(Matrix::zeros(1, cfg.latent_dim));

        let z0 = ae.embed(&params, x);
        let centers = params.register(kmeans_centers(&z0, k, rng));

        // Â·X — the IGAE reconstruction target.
        let smoothed = adj.matmul_dense(x);
        train_epochs("dfcn", cfg, k, &mut params, [x, &smoothed], |t, bound, [xv, sm]| {
            let z_ae = ae.encode(bound, xv);
            let recon = ae.decode(bound, z_ae);
            let z_gcn = gcn.forward(bound, &adj, xv);

            // Gated fusion: z = g∘z_ae + (1−g)∘z_gcn with g = σ(gate)
            // broadcast across rows.
            let g_row = t.sigmoid(bound.var(gate));
            let ones = t.constant(Matrix::ones(x.rows(), 1));
            let g_full = t.matmul(ones, g_row);
            let fused = t.add(t.mul(g_full, z_ae), t.mul(t.add_scalar(t.neg(g_full), 1.0), z_gcn));

            let q = student_t_assignments(t, fused, bound.var(centers), 1.0);
            let (p, kl_pq) = target_node(t, q);
            let kl = kl_div(t, p, q);
            let re_ae = mse(t, xv, recon);
            // GCN view reconstructs the smoothed input from its latent
            // via the decoder (shared decoder, as in the fusion idea).
            let recon_g = ae.decode(bound, z_gcn);
            let re_gcn = mse(t, sm, recon_g);
            Objective {
                loss: t.add(t.add(re_ae, t.scale(re_gcn, 0.1)), t.scale(kl, 0.1)),
                re: re_ae,
                kl_pq,
                assign: q,
                ce: None,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustering::metrics::adjusted_rand_index;
    use datagen::{generate_mixture, MixtureConfig};
    use tensor::random::rng;

    #[test]
    fn dfcn_clusters_separated_mixture() {
        let g = generate_mixture(
            &MixtureConfig { n: 90, k: 3, dim: 12, separation: 4.0, ..Default::default() },
            &mut rng(1),
        );
        let cfg = DeepConfig { latent_dim: 8, pretrain_epochs: 10, epochs: 25, ..Default::default() };
        let out = Dfcn::new(cfg).fit(&g.x, 3, &mut rng(2));
        let ari = adjusted_rand_index(&out.labels, &g.labels);
        assert!(ari > 0.4, "ARI = {ari}");
    }

    #[test]
    fn dfcn_histories_have_epoch_length() {
        let g = generate_mixture(
            &MixtureConfig { n: 40, k: 2, dim: 8, ..Default::default() },
            &mut rng(3),
        );
        let cfg = DeepConfig { latent_dim: 4, pretrain_epochs: 5, epochs: 12, ..Default::default() };
        let out = Dfcn::new(cfg).fit(&g.x, 2, &mut rng(4));
        assert_eq!(out.re_loss.len(), 12);
        assert_eq!(out.kl_pq.len(), 12);
    }
}
