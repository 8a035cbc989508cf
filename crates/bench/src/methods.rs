//! The uniform method registry used by every experiment: the three
//! standard-clustering baselines, the five deep baselines, and TableDC,
//! all runnable through one interface.

use std::time::Instant;

use baselines::{Dcrn, DeepConfig, Dfcn, Edesc, Sdcn, Shgp};
use clustering::{Birch, Dbscan, KMeans};
use datagen::Task;
use rand::rngs::StdRng;
use tabledc::{TableDc, TableDcConfig};
use tensor::Matrix;

/// Every clustering method of Tables 2–4, in the paper's row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// K-means (SC).
    KMeans,
    /// DBSCAN (SC).
    Dbscan,
    /// Birch (SC).
    Birch,
    /// SHGP (DC, self-supervised heterogeneous graph pretraining).
    Shgp,
    /// DCRN (DC, dual correlation reduction).
    Dcrn,
    /// DFCN (DC, deep fusion).
    Dfcn,
    /// EDESC (DC, deep embedded subspace clustering).
    Edesc,
    /// SDCN (DC, structural deep clustering).
    Sdcn,
    /// TableDC (this paper).
    TableDc,
}

impl Method {
    /// Paper row order for Tables 2–4.
    pub const ALL: [Method; 9] = [
        Method::KMeans,
        Method::Dbscan,
        Method::Birch,
        Method::Shgp,
        Method::Dcrn,
        Method::Dfcn,
        Method::Edesc,
        Method::Sdcn,
        Method::TableDc,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Method::KMeans => "K-means",
            Method::Dbscan => "DBSCAN",
            Method::Birch => "Birch",
            Method::Shgp => "SHGP",
            Method::Dcrn => "DCRN",
            Method::Dfcn => "DFCN",
            Method::Edesc => "EDESC",
            Method::Sdcn => "SDCN",
            Method::TableDc => "TableDC",
        }
    }

    /// Runs the method on `x` targeting `k` clusters with the per-task
    /// training budget, returning labels and wall-clock seconds.
    pub fn run(
        self,
        x: &Matrix,
        k: usize,
        budget: &Budget,
        rng: &mut StdRng,
    ) -> (Vec<usize>, f64) {
        let start = Instant::now();
        let labels = match self {
            Method::KMeans => KMeans::paper_protocol(k).fit(x, rng).labels,
            Method::Dbscan => {
                let eps = median_knn_distance(x, 4);
                Dbscan::new(eps, 4).fit_assign_noise(x).labels
            }
            Method::Birch => Birch::new(k).fit(x, rng).labels,
            Method::Shgp => Shgp::new(budget.deep_config()).fit(x, k, rng).labels,
            Method::Dcrn => Dcrn::new(budget.deep_config()).fit(x, k, rng).labels,
            Method::Dfcn => Dfcn::new(budget.deep_config()).fit(x, k, rng).labels,
            Method::Edesc => Edesc::new(budget.deep_config()).fit(x, k, rng).labels,
            Method::Sdcn => Sdcn::new(budget.deep_config()).fit(x, k, rng).labels,
            Method::TableDc => {
                // Two restarts, best silhouette kept (the §4.3 protocol
                // applies 20 restarts to the K-means-based methods; deep
                // fits are costlier).
                let (_, fit) = TableDc::fit_best_of(budget.tabledc_config(k), x, 2, rng);
                fit.labels
            }
        };
        (labels, start.elapsed().as_secs_f64())
    }
}

/// Per-task training budget (§4.3: schema inference 200 epochs / pretrain
/// 30, domain discovery 100 / 30, entity resolution 50 / 100; all methods
/// share the same budget).
#[derive(Debug, Clone)]
pub struct Budget {
    /// Joint training epochs.
    pub epochs: usize,
    /// AE pretraining epochs.
    pub pretrain_epochs: usize,
    /// Latent dimension.
    pub latent_dim: usize,
    /// Adam learning rate.
    pub lr: f64,
}

impl Budget {
    /// The §4.3 budget for a task. Joint-epoch counts are the paper's
    /// (200/100/50); pretraining epochs are doubled relative to the paper's
    /// 30/30/100 because this codebase pretrains with batch 64 on scaled
    /// datasets, giving fewer gradient steps per epoch than the original's
    /// PyTorch runs on the full-size datasets (see EXPERIMENTS.md).
    pub fn for_task(task: Task) -> Self {
        match task {
            Task::SchemaInference => Self { epochs: 200, pretrain_epochs: 60, latent_dim: 48, lr: 1e-3 },
            Task::DomainDiscovery => Self { epochs: 100, pretrain_epochs: 120, latent_dim: 48, lr: 1e-3 },
            Task::EntityResolution => Self { epochs: 50, pretrain_epochs: 120, latent_dim: 48, lr: 1e-3 },
        }
    }

    /// A reduced budget for smoke tests and micro-benchmarks.
    pub fn quick() -> Self {
        Self { epochs: 25, pretrain_epochs: 10, latent_dim: 16, lr: 1e-3 }
    }

    /// Scales the *joint* epoch count by `f` (at least 1 epoch).
    /// Pretraining is left intact: a weak autoencoder invalidates every
    /// deep method at once, so the cheap/quick modes only trade away
    /// self-training refinement.
    pub fn scaled(mut self, f: f64) -> Self {
        self.epochs = ((self.epochs as f64 * f) as usize).max(1);
        self
    }

    /// Shared configuration for the deep baselines.
    pub fn deep_config(&self) -> DeepConfig {
        DeepConfig {
            latent_dim: self.latent_dim,
            pretrain_epochs: self.pretrain_epochs,
            epochs: self.epochs,
            lr: self.lr,
            knn_k: 5,
        }
    }

    /// Configuration for TableDC under the same budget.
    pub fn tabledc_config(&self, k: usize) -> TableDcConfig {
        TableDcConfig {
            latent_dim: self.latent_dim,
            pretrain_epochs: self.pretrain_epochs,
            epochs: self.epochs,
            lr: self.lr,
            ..TableDcConfig::new(k)
        }
    }
}

/// Median distance to the `k`-th nearest neighbour — the standard DBSCAN
/// eps heuristic.
///
/// # Panics
/// Panics if `x` has fewer than two rows.
pub fn median_knn_distance(x: &Matrix, k: usize) -> f64 {
    clustering::dbscan::kth_nn_distances(x, k)[x.rows() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustering::metrics::accuracy;
    use datagen::{generate_mixture, MixtureConfig};
    use tensor::random::rng;

    #[test]
    fn every_method_runs_on_a_small_mixture() {
        let g = generate_mixture(
            &MixtureConfig { n: 40, k: 3, dim: 8, separation: 4.0, ..Default::default() },
            &mut rng(1),
        );
        let budget = Budget::quick();
        for method in Method::ALL {
            let (labels, secs) = method.run(&g.x, 3, &budget, &mut rng(2));
            assert_eq!(labels.len(), 40, "{}", method.name());
            assert!(secs >= 0.0);
            // On a well-separated mixture everything should beat chance.
            let acc = accuracy(&labels, &g.labels);
            assert!(acc > 0.4, "{} acc = {acc}", method.name());
        }
    }

    #[test]
    fn budget_matches_paper_epochs() {
        assert_eq!(Budget::for_task(Task::SchemaInference).epochs, 200);
        assert_eq!(Budget::for_task(Task::DomainDiscovery).epochs, 100);
        let er = Budget::for_task(Task::EntityResolution);
        assert_eq!(er.epochs, 50);
        // Pretraining epochs exceed the paper's 100 because this codebase's
        // minibatch epochs make fewer updates on the scaled datasets.
        assert!(er.pretrain_epochs >= 100);
    }

    #[test]
    fn median_knn_distance_on_grid() {
        // Unit-spaced points on a line: 1-NN distance is 1 everywhere.
        let x = Matrix::from_row_vecs(&(0..10).map(|i| vec![i as f64]).collect::<Vec<_>>());
        assert!((median_knn_distance(&x, 1) - 1.0).abs() < 1e-12);
    }
}
