//! EDESC — Efficient Deep Embedded Subspace Clustering (Cai et al.,
//! CVPR '22).
//!
//! Compact reimplementation: a pretrained autoencoder plus *learnable
//! subspace bases* `D_j` (one `latent × r` block per cluster). Soft
//! assignments come from the squared projection norm of each latent point
//! onto each subspace (with the η-regularization of the original), refined
//! with the standard KL self-supervision, plus reconstruction and a
//! basis-orthogonality penalty `‖DᵀD − I‖²`.

use autograd::{Tape, Var};
use nn::loss::{kl_div, mse};
use rand::rngs::StdRng;
use tabledc::train::Objective;
use tensor::random::xavier_uniform;
use tensor::Matrix;

use crate::common::{target_node, train_epochs, ClusterOutput, DeepConfig};

/// EDESC model configuration.
#[derive(Debug, Clone)]
pub struct Edesc {
    /// Shared deep-baseline hyper-parameters.
    pub config: DeepConfig,
    /// Dimension of each cluster's subspace.
    pub subspace_dim: usize,
    /// η regularizer of the original's soft assignment.
    pub eta: f64,
}

impl Default for Edesc {
    fn default() -> Self {
        Self { config: DeepConfig::default(), subspace_dim: 4, eta: 1.0 }
    }
}

impl Edesc {
    /// Creates EDESC with the given shared configuration.
    pub fn new(config: DeepConfig) -> Self {
        Self { config, subspace_dim: 4, eta: 1.0 }
    }

    /// Trains EDESC on the rows of `x` into `k` clusters.
    pub fn fit(&self, x: &Matrix, k: usize, rng: &mut StdRng) -> ClusterOutput {
        let cfg = &self.config;
        let r = self.subspace_dim;
        let (x, mut params, ae) = cfg.pretrained_autoencoder(x, rng);

        // Subspace bases: latent × (k·r), block j = basis of cluster j.
        let bases = params.register(xavier_uniform(cfg.latent_dim, k * r, rng));

        let eta = self.eta;
        train_epochs("edesc", cfg, k, &mut params, [&x], |t, bound, [xv]| {
            let z = ae.encode(bound, xv);
            let recon = ae.decode(bound, z);
            let d = bound.var(bases);

            // Projections: P = z·D (n × k·r); per-cluster energy
            // e_ij = Σ_{b in block j} P²; assignment
            // s_ij ∝ (e_ij + η·r) (η-regularized, then normalized).
            let proj = t.matmul(z, d);
            let energy = block_sums(t, t.square(proj), k, r);
            let s_raw = t.add_scalar(energy, eta * r as f64);
            let sums = t.add_scalar(t.row_sums(s_raw), 1e-12);
            let s = t.div_col_broadcast(s_raw, sums);

            let (p, kl_pq) = target_node(t, s);
            let kl = kl_div(t, p, s);
            let re = mse(t, xv, recon);

            // Orthogonality of the stacked bases: DᵀD ≈ I.
            let dtd = t.matmul(t.transpose(d), d);
            let eye = t.constant(Matrix::identity(k * r));
            let ortho = t.mean(t.square(t.sub(dtd, eye)));
            Objective {
                loss: t.add(t.add(re, t.scale(kl, 0.1)), t.scale(ortho, 1.0)),
                re,
                kl_pq,
                assign: s,
                ce: None,
            }
        })
    }
}

/// Sums each row of an `n × (k·r)` matrix over `k` contiguous blocks of
/// width `r`, producing `n × k` — implemented as a constant block-sum
/// matmul so it differentiates for free.
fn block_sums(t: &Tape, v: Var, k: usize, r: usize) -> Var {
    let mut pool = Matrix::zeros(k * r, k);
    for j in 0..k {
        for b in 0..r {
            pool[(j * r + b, j)] = 1.0;
        }
    }
    let pool_v = t.constant(pool);
    t.matmul(v, pool_v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustering::metrics::adjusted_rand_index;
    use datagen::{generate_mixture, MixtureConfig};
    use tensor::random::rng;

    #[test]
    fn block_sums_pool_correctly() {
        let t = Tape::new();
        let v = t.constant(Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]));
        let s = block_sums(&t, v, 2, 2);
        assert_eq!(t.value(s), Matrix::from_rows(&[&[3.0, 7.0]]));
    }

    #[test]
    fn edesc_clusters_separated_mixture() {
        let g = generate_mixture(
            &MixtureConfig { n: 90, k: 3, dim: 12, separation: 4.0, ..Default::default() },
            &mut rng(1),
        );
        let cfg = DeepConfig { latent_dim: 8, pretrain_epochs: 10, epochs: 30, ..Default::default() };
        let out = Edesc::new(cfg).fit(&g.x, 3, &mut rng(2));
        let ari = adjusted_rand_index(&out.labels, &g.labels);
        assert!(ari > 0.3, "ARI = {ari}");
    }

    #[test]
    fn edesc_assignments_cover_labels() {
        let g = generate_mixture(
            &MixtureConfig { n: 30, k: 2, dim: 6, ..Default::default() },
            &mut rng(3),
        );
        let cfg = DeepConfig { latent_dim: 4, pretrain_epochs: 4, epochs: 10, ..Default::default() };
        let out = Edesc::new(cfg).fit(&g.x, 2, &mut rng(4));
        assert_eq!(out.labels.len(), 30);
        assert!(out.labels.iter().all(|&l| l < 2));
    }
}
