//! SHGP — Self-supervised Heterogeneous Graph Pre-training (Yang et al.,
//! NeurIPS '22).
//!
//! The original alternates two attention modules on a heterogeneous graph:
//! *Att-LPA* produces pseudo-labels by structural clustering (label
//! propagation), and *Att-HGNN* learns embeddings by predicting them. No
//! heterogeneous graph exists for flat embedding matrices, so — as in the
//! paper's own benchmark usage on tabular data — the substitution here runs
//! the same alternation on a KNN graph: label propagation generates
//! pseudo-labels, an MLP encoder is trained with cross-entropy to predict
//! them, and the graph/pseudo-labels are rebuilt from the refined
//! embeddings each round.

use graph::{gcn_adjacency, label_propagation};
use nn::loss::cross_entropy;
use nn::{Activation, Adam, Mlp, Params};
use rand::rngs::StdRng;
use tensor::Matrix;

use crate::common::{train_step, ClusterOutput, DeepConfig};

/// SHGP model configuration.
#[derive(Debug, Clone)]
pub struct Shgp {
    /// Shared deep-baseline hyper-parameters (`epochs` = gradient steps per
    /// round).
    pub config: DeepConfig,
    /// Alternation rounds between Att-LPA (pseudo-labels) and Att-HGNN
    /// (embedding training).
    pub rounds: usize,
    /// Label-propagation iterations per round.
    pub lpa_iters: usize,
}

impl Default for Shgp {
    fn default() -> Self {
        Self { config: DeepConfig::default(), rounds: 3, lpa_iters: 10 }
    }
}

impl Shgp {
    /// Creates SHGP with the given shared configuration.
    pub fn new(config: DeepConfig) -> Self {
        Self { config, rounds: 3, lpa_iters: 10 }
    }

    /// Trains SHGP on the rows of `x` into `k` clusters.
    pub fn fit(&self, x: &Matrix, k: usize, rng: &mut StdRng) -> ClusterOutput {
        // Standardize features in front of the encoder, matching TableDC's
        // preprocessing so the comparison isolates the objectives.
        let x = &x.standardize_cols();
        let cfg = &self.config;
        let n = x.rows();
        let knn = cfg.knn_degree(n);

        let mut params = Params::new();
        let encoder = Mlp::new(
            &mut params,
            &[x.cols(), 64, cfg.latent_dim],
            Activation::Relu,
            Activation::Linear,
            rng,
        );
        // Classification head on top of the encoder.
        let head = nn::Linear::new(&mut params, cfg.latent_dim, k, Activation::Linear, rng);

        let mut adam = Adam::new(cfg.lr);
        let mut embedding = x.clone();
        let mut pseudo = Matrix::zeros(n, k);
        let steps_per_round = (cfg.epochs / self.rounds.max(1)).max(1);

        for _round in 0..self.rounds {
            // Att-LPA substitute: structural clustering via label
            // propagation on the current embedding's KNN graph, seeded with
            // K-means++-style anchor points (k farthest-ish seeds).
            let adj = gcn_adjacency(&embedding, knn);
            let seeds = clustering::kmeans::kmeans_pp_seeds(&embedding, k, rng);
            let mut seed_labels = Matrix::zeros(n, k);
            for j in 0..k {
                // The data point closest to each seed anchors one label.
                let mut best = 0;
                let mut best_d = f64::INFINITY;
                for i in 0..n {
                    let d = tensor::distance::sq_euclidean(embedding.row(i), seeds.row(j));
                    if d < best_d {
                        best_d = d;
                        best = i;
                    }
                }
                seed_labels[(best, j)] = 1.0;
            }
            pseudo = label_propagation(&adj, &seed_labels, self.lpa_iters);
            // Harden pseudo-labels (the original's argmax structural
            // clusters).
            let hard = pseudo.argmax_rows();
            let mut targets = Matrix::zeros(n, k);
            for (i, &l) in hard.iter().enumerate() {
                targets[(i, l)] = 1.0;
            }

            // Att-HGNN substitute: train the encoder to predict them.
            for _ in 0..steps_per_round {
                let enc = &encoder;
                let head_ref = &head;
                let _ = train_step(&mut params, &mut adam, [x, &targets], |t, bound, [xv, pv]| {
                    let z = enc.forward(bound, xv);
                    let logits = head_ref.forward(bound, z);
                    let probs = t.softmax_rows(logits);
                    cross_entropy(t, pv, probs)
                });
            }
            embedding = encoder.infer(&params, x);
        }

        ClusterOutput::from_labels(pseudo.argmax_rows())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustering::metrics::adjusted_rand_index;
    use datagen::{generate_mixture, MixtureConfig};
    use tensor::random::rng;

    #[test]
    fn shgp_clusters_separated_mixture() {
        let g = generate_mixture(
            &MixtureConfig { n: 90, k: 3, dim: 12, separation: 5.0, ..Default::default() },
            &mut rng(1),
        );
        let cfg = DeepConfig { latent_dim: 8, epochs: 30, ..Default::default() };
        let out = Shgp::new(cfg).fit(&g.x, 3, &mut rng(2));
        let ari = adjusted_rand_index(&out.labels, &g.labels);
        assert!(ari > 0.3, "ARI = {ari}");
    }

    #[test]
    fn shgp_label_range() {
        let g = generate_mixture(
            &MixtureConfig { n: 40, k: 4, dim: 8, ..Default::default() },
            &mut rng(3),
        );
        let cfg = DeepConfig { latent_dim: 4, epochs: 9, ..Default::default() };
        let out = Shgp::new(cfg).fit(&g.x, 4, &mut rng(4));
        assert_eq!(out.labels.len(), 40);
        assert!(out.labels.iter().all(|&l| l < 4));
    }
}
