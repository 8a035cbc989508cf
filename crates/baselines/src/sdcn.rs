//! SDCN — Structural Deep Clustering Network (Bo et al., WWW '20).
//!
//! Compact reimplementation of the reference design: a pretrained
//! autoencoder and a GCN that consumes a KNN graph over the inputs, with
//! the AE's layer representations injected into each GCN layer
//! (`Z^{(l+1)} = φ(Â·((1−ε)Z^{(l)} + ε·H^{(l)})·W)`), trained with the dual
//! self-supervised objective `KL(p‖q) + KL(p‖Z) + re_loss` where `q` is the
//! Student-t assignment on the AE latent and `Z` the GCN's softmax output.

use nn::loss::{kl_div, mse};
use nn::Activation;
use rand::rngs::StdRng;
use tabledc::train::Objective;
use tensor::Matrix;

use crate::common::{kmeans_centers, student_t_assignments, target_node, train_epochs, ClusterOutput, DeepConfig};

/// SDCN model configuration.
#[derive(Debug, Clone, Default)]
pub struct Sdcn {
    /// Shared deep-baseline hyper-parameters.
    pub config: DeepConfig,
}

impl Sdcn {
    /// Creates SDCN with the given shared configuration.
    pub fn new(config: DeepConfig) -> Self {
        Self { config }
    }

    /// Trains SDCN on the rows of `x` into `k` clusters.
    pub fn fit(&self, x: &Matrix, k: usize, rng: &mut StdRng) -> ClusterOutput {
        let cfg = &self.config;
        let (x, mut params, ae) = cfg.pretrained_autoencoder(x, rng);
        let x = &x;
        let adj = cfg.adjacency(x);

        // GCN layers mirroring the encoder widths, ending in k logits.
        let mut gcn_layers: Vec<graph::GcnLayer> = Vec::new();
        let mut gcn_dims = cfg.encoder_dims(x.cols());
        gcn_dims.push(k);
        for w in gcn_dims.windows(2) {
            gcn_layers.push(graph::GcnLayer::new(&mut params, w[0], w[1], Activation::Linear, rng));
        }

        // Cluster centers from K-means on the pretrained latent.
        let z0 = ae.embed(&params, x);
        let centers = params.register(kmeans_centers(&z0, k, rng));

        let epsilon = 0.5; // AE-injection mixing weight of the original.
        train_epochs("sdcn", cfg, k, &mut params, [x], |t, bound, [xv]| {
            // AE forward, keeping every encoder layer's activations for
            // injection into the GCN.
            let mut h = xv;
            let mut ae_activations = Vec::new();
            for layer in ae.encoder_layers() {
                h = layer.forward(bound, h);
                ae_activations.push(h);
            }
            let z_ae = h;
            let recon = ae.decode(bound, z_ae);

            // GCN with AE injection: layer 0 consumes x, later layers
            // mix in the matching AE activation.
            let mut g = xv;
            for (li, layer) in gcn_layers.iter().enumerate() {
                if li > 0 && li <= ae_activations.len() {
                    let inject = ae_activations[li - 1];
                    g = t.add(t.scale(g, 1.0 - epsilon), t.scale(inject, epsilon));
                }
                g = layer.forward(bound, &adj, g);
                if li + 1 < gcn_layers.len() {
                    g = t.relu(g);
                }
            }
            let z_dist = t.softmax_rows(g);

            // Dual self-supervision.
            let q = student_t_assignments(t, z_ae, bound.var(centers), 1.0);
            let (p, kl_pq) = target_node(t, q);
            let kl_q = kl_div(t, p, q);
            let kl_z = kl_div(t, p, z_dist);
            let re = mse(t, xv, recon);
            Objective {
                // Original weights: 0.1·KL(p‖q) + 0.01·KL(p‖Z) + re.
                loss: t.add(t.add(t.scale(kl_q, 0.1), t.scale(kl_z, 0.01)), re),
                re,
                kl_pq,
                // SDCN predicts from the GCN distribution Z, so the
                // structural diagnostics watch Z rather than the Student-t q.
                assign: z_dist,
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
    fn sdcn_clusters_separated_mixture() {
        let g = generate_mixture(
            &MixtureConfig { n: 90, k: 3, dim: 12, separation: 4.0, ..Default::default() },
            &mut rng(1),
        );
        let cfg = DeepConfig { latent_dim: 8, pretrain_epochs: 10, epochs: 25, ..Default::default() };
        let out = Sdcn::new(cfg).fit(&g.x, 3, &mut rng(2));
        let ari = adjusted_rand_index(&out.labels, &g.labels);
        assert!(ari > 0.4, "ARI = {ari}");
        assert_eq!(out.re_loss.len(), 25);
    }

    #[test]
    fn sdcn_labels_cover_inputs() {
        let g = generate_mixture(
            &MixtureConfig { n: 40, k: 2, dim: 8, ..Default::default() },
            &mut rng(3),
        );
        let cfg = DeepConfig { latent_dim: 4, pretrain_epochs: 5, epochs: 10, ..Default::default() };
        let out = Sdcn::new(cfg).fit(&g.x, 2, &mut rng(4));
        assert_eq!(out.labels.len(), 40);
        assert!(out.labels.iter().all(|&l| l < 2));
    }
}
