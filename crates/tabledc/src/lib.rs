//! # tabledc — Deep Clustering for Tabular Data
//!
//! A from-scratch Rust implementation of **TableDC** (Rauf, Freitas, Paton;
//! SIGMOD/PVLDB 2025): a deep clustering algorithm for data-management
//! workloads (schema inference, entity resolution, domain discovery) whose
//! embeddings are dense, feature-correlated, and cluster-overlapping.
//!
//! The model (paper §3, Algorithm 1):
//!
//! 1. an **autoencoder** learns latent representations `z` (Eq. 1–2),
//!    pretrained on reconstruction;
//! 2. cluster centers `c` are initialized with **Birch** (Algorithm 2) —
//!    not K-means — because CF-trees summarize dense, overlapping regions
//!    hierarchically (§3.2);
//! 3. soft assignments use the **Mahalanobis distance** with a scaled
//!    identity covariance `Σ = δ·I`, inverted via Cholesky (Eq. 3–6), under
//!    a heavy-tailed **Cauchy kernel** (Eq. 7), normalized and softmaxed
//!    into clustering probabilities `m` (Eq. 8–9);
//! 4. training minimizes `α·KL(p‖m) + re_loss` (Eq. 10–13) with Adam,
//!    where `p` is the self-sharpening target distribution (Eq. 11).
//!
//! ## Quick start
//!
//! ```
//! use tabledc::{TableDc, TableDcConfig};
//! use tensor::random::rng;
//!
//! // 60 points in 8-D around 3 latent concepts (toy data).
//! let data = datagen::generate_mixture(
//!     &datagen::MixtureConfig { n: 60, k: 3, dim: 8, ..Default::default() },
//!     &mut rng(0),
//! );
//! let config = TableDcConfig {
//!     latent_dim: 4,
//!     hidden_dims: vec![16],
//!     pretrain_epochs: 5,
//!     epochs: 10,
//!     ..TableDcConfig::new(3)
//! };
//! let (model, fit) = TableDc::fit(config, &data.x, &mut rng(1));
//! assert_eq!(fit.labels.len(), 60);
//! assert_eq!(model.centers().shape(), (3, 4));
//! ```
//!
//! The [`distance`], [`kernel`], and [`init`] modules expose the Table 5
//! and Figure 4 ablation axes; [`train`] is the epoch driver TableDC and
//! the deep baselines train through; `crates/baselines` holds the methods
//! TableDC is compared against; `crates/bench` regenerates every table and
//! figure.

pub mod diagnostics;
pub mod distance;
pub mod init;
pub mod kernel;
pub mod model;
pub mod train;

pub use diagnostics::{
    ConvergenceStatus, ConvergenceVerdict, DiagnosticsTracker, EpochDiagnostics, VerdictRules,
};
pub use distance::{Covariance, Distance};
pub use init::Init;
pub use kernel::Kernel;
pub use model::{target_distribution, TableDc, TableDcConfig, TableDcFit};
pub use train::{HealthConfig, History};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;
    use tensor::Matrix;

    use crate::model::target_distribution;

    proptest! {
        /// p is a valid, sharper-than-q distribution for any positive q.
        #[test]
        fn target_distribution_is_valid_simplex(
            raw in proptest::collection::vec(0.01..1.0f64, 4 * 3)
        ) {
            let mut q = Matrix::from_vec(4, 3, raw);
            // Row-normalize q first.
            for i in 0..4 {
                let s: f64 = q.row(i).iter().sum();
                for v in q.row_mut(i) { *v /= s; }
            }
            let p = target_distribution(&q);
            for i in 0..4 {
                let s: f64 = p.row(i).iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-9);
                prop_assert!(p.row(i).iter().all(|&v| (0.0..=1.0).contains(&v)));
            }
        }
    }
}
