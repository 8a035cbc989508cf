//! Shared configuration and building blocks for the deep-clustering
//! baselines.
//!
//! All five deep baselines (SDCN, DFCN, DCRN, EDESC, SHGP) are built on the
//! same `nn`/`graph` substrate as TableDC itself, so quality differences
//! between methods come from their objectives — not from framework or
//! tuning asymmetries. SDCN, DFCN, DCRN and EDESC train their joint epochs
//! through TableDC's own epoch driver ([`train_epochs`]), so the loop around
//! their objectives is TableDC's too. Per §4.3 the baselines run with the
//! same epoch budget as TableDC and their originally published
//! architectural choices (Student-t kernel, Euclidean distances, K-means
//! initialization).

use std::rc::Rc;

use autograd::{Tape, Var};
use graph::Csr;
use nn::loss::kl_div_value;
use nn::{Autoencoder, Params};
use rand::rngs::StdRng;
use obs::json::Json;
use tabledc::diagnostics::ConvergenceVerdict;
use tabledc::train::{Driver, Method, Objective};
use tabledc::{target_distribution, HealthConfig, Kernel};
use tensor::Matrix;

/// Hyper-parameters shared by the deep baselines.
#[derive(Debug, Clone)]
pub struct DeepConfig {
    /// Latent dimension of the AE/GCN representations.
    pub latent_dim: usize,
    /// AE pretraining epochs.
    pub pretrain_epochs: usize,
    /// Joint training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// KNN graph degree for the GCN-based methods.
    pub knn_k: usize,
}

impl Default for DeepConfig {
    fn default() -> Self {
        Self { latent_dim: 32, pretrain_epochs: 30, epochs: 100, lr: 1e-3, knn_k: 5 }
    }
}

impl DeepConfig {
    /// Compact encoder layout `[d, 256, 128, latent]` shared with TableDC's
    /// scaled configuration.
    pub fn encoder_dims(&self, input_dim: usize) -> Vec<usize> {
        vec![input_dim, 256, 128, self.latent_dim]
    }

    /// The KNN graph degree over `n` rows: [`DeepConfig::knn_k`] clamped
    /// to `1..=n − 1`.
    pub fn knn_degree(&self, n: usize) -> usize {
        self.knn_k.min(n.saturating_sub(1)).max(1)
    }

    /// The GCN-normalized KNN graph over the rows of `x`, of degree
    /// [`DeepConfig::knn_degree`].
    pub fn adjacency(&self, x: &Matrix) -> Rc<Csr> {
        Rc::new(graph::gcn_adjacency(x, self.knn_degree(x.rows())))
    }

    /// The start every autoencoder baseline shares: `x` standardized as
    /// TableDC standardizes it, so the comparison isolates the objectives,
    /// and a parameter store holding the [`DeepConfig::encoder_dims`]
    /// autoencoder pretrained on it.
    pub fn pretrained_autoencoder(&self, x: &Matrix, rng: &mut StdRng) -> (Matrix, Params, Autoencoder) {
        let x = x.standardize_cols();
        let mut params = Params::new();
        let ae = Autoencoder::new(&mut params, &self.encoder_dims(x.cols()), rng);
        ae.pretrain(&mut params, &x, self.pretrain_epochs, self.lr);
        (x, params, ae)
    }
}

/// Output of a baseline run.
#[derive(Debug, Clone)]
pub struct ClusterOutput {
    /// Hard labels per input row.
    pub labels: Vec<usize>,
    /// Per-epoch reconstruction loss (when the method has one).
    pub re_loss: Vec<f64>,
    /// Per-epoch `KL(p‖q)` divergence (when the method is self-supervised).
    pub kl_pq: Vec<f64>,
    /// Numerical-health verdict of the run (policy from `TABLEDC_HEALTH`).
    pub health: obs::HealthReport,
    /// Structural convergence verdict (shared rules with TableDC).
    pub convergence: ConvergenceVerdict,
}

impl ClusterOutput {
    /// Output with labels only.
    pub fn from_labels(labels: Vec<usize>) -> Self {
        Self {
            labels,
            re_loss: Vec::new(),
            kl_pq: Vec::new(),
            health: obs::HealthReport::default(),
            convergence: ConvergenceVerdict::default(),
        }
    }
}

/// Trains a deep baseline's joint epochs through the shared epoch driver
/// ([`tabledc::train::Driver`]) with Adam at [`DeepConfig::lr`]:
/// `objective` builds each epoch on the tape from the `data` constants, and
/// the driver checks, steps and observes it under `baseline.*` telemetry
/// for `method` and the `TABLEDC_HEALTH` policy. The labels are the argmax
/// of the last completed epoch's assignment matrix (all 0 when none
/// completed).
pub fn train_epochs<const N: usize>(
    method: &'static str,
    cfg: &DeepConfig,
    k: usize,
    params: &mut Params,
    data: [&Matrix; N],
    objective: impl FnMut(&Tape<'_>, &nn::BoundParams<'_>, [Var; N]) -> Objective,
) -> ClusterOutput {
    let driver = Driver {
        method: Method::Baseline(method),
        k,
        epochs: cfg.epochs,
        health: HealthConfig::default(),
        centers: None,
        config: Json::obj([
            ("method", method.into()),
            ("k", k.into()),
            ("latent_dim", cfg.latent_dim.into()),
            ("lr", cfg.lr.into()),
            ("pretrain_epochs", cfg.pretrain_epochs.into()),
            ("epochs", cfg.epochs.into()),
            ("knn_k", cfg.knn_k.into()),
        ]),
    };
    let n = data.first().map_or(0, |x| x.rows());
    let trained = driver.run(params, &mut nn::Adam::new(cfg.lr), data, objective);
    ClusterOutput {
        labels: trained.assign.map_or_else(|| vec![0; n], |a| a.argmax_rows()),
        re_loss: trained.history.re_loss,
        kl_pq: trained.history.kl_pq,
        health: trained.health,
        convergence: trained.convergence,
    }
}

/// Student's-t soft assignments between latent points and centers with the
/// standard DEC normalization: `q_ij ∝ (1 + ‖z_i − c_j‖²/ν)^−(ν+1)/2`,
/// rows summing to 1 — the kernel used by SDCN/DFCN/DCRN (§2.1). The
/// kernel and the normalization are one fused node ([`Tape::soft_assign`]).
pub fn student_t_assignments(t: &Tape, z: Var, c: Var, nu: f64) -> Var {
    let d2 = t.sq_dist_cdist(z, c);
    t.soft_assign(d2, Kernel::StudentT { nu }.soft_kernel(), 1e-12)
}

/// The self-supervision target of the assignment node `q` (DEC's
/// sharpened distribution, Eq. 11) as a constant node, with the reported
/// divergence `KL(p‖q)` (Figure 5). Every KL term of the objective reads
/// this one node.
pub fn target_node(t: &Tape, q: Var) -> (Var, f64) {
    let p = t.with_value(q, target_distribution);
    let kl_pq = t.with_value(q, |q| kl_div_value(&p, q));
    (t.constant(p), kl_pq)
}

/// K-means cluster-center initialization on a latent matrix — the
/// initializer all the deep baselines use (§2.1 item iii).
pub fn kmeans_centers(z: &Matrix, k: usize, rng: &mut StdRng) -> Matrix {
    clustering::KMeans::new(k).fit(z, rng).centroids
}

/// Binds `params`, puts the `data` matrices on the tape as borrowed
/// constants (no copy), runs `forward` on them to produce a scalar loss,
/// backprops and applies one Adam step. Returns the loss value. The step
/// of the methods without a per-epoch assignment matrix (SHGP, Starmie);
/// the deep-clustering methods train through [`train_epochs`].
pub fn train_step<const N: usize>(
    params: &mut Params,
    adam: &mut nn::Adam,
    data: [&Matrix; N],
    forward: impl FnOnce(&Tape, &nn::BoundParams<'_>, [Var; N]) -> Var,
) -> f64 {
    let tape = Tape::new();
    let bound = params.bind(&tape);
    let loss = forward(&tape, &bound, data.map(|m| tape.constant_ref(m)));
    let value = tape.value(loss)[(0, 0)];
    let grads = bound.backward(loss);
    adam.step(params, &grads);
    value
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::random::{randn, rng};

    #[test]
    fn student_t_rows_are_distributions() {
        let t = Tape::new();
        let z = t.leaf(randn(10, 4, &mut rng(1)));
        let c = t.leaf(randn(3, 4, &mut rng(2)));
        let q = student_t_assignments(&t, z, c, 1.0);
        let v = t.value(q);
        for i in 0..10 {
            let s: f64 = v.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn student_t_prefers_closer_center() {
        let t = Tape::new();
        let z = t.leaf(Matrix::from_rows(&[&[0.0, 0.0]]));
        let c = t.leaf(Matrix::from_rows(&[&[0.5, 0.0], &[5.0, 0.0]]));
        let q = t.value(student_t_assignments(&t, z, c, 1.0));
        assert!(q[(0, 0)] > q[(0, 1)]);
    }

    #[test]
    fn train_step_reduces_simple_loss() {
        let mut params = Params::new();
        let w = params.register(Matrix::full(1, 1, 5.0));
        let mut adam = nn::Adam::new(0.1);
        let mut last = f64::INFINITY;
        for _ in 0..100 {
            last = train_step(&mut params, &mut adam, [], |t, b, []| t.sum(t.square(b.var(w))));
        }
        assert!(last < 0.1, "loss {last}");
    }
}
