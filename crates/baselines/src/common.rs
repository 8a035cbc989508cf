//! Shared configuration and building blocks for the deep-clustering
//! baselines.
//!
//! All five deep baselines (SDCN, DFCN, DCRN, EDESC, SHGP) are built on the
//! same `nn`/`graph` substrate as TableDC itself, so quality differences
//! between methods come from their objectives — not from framework or
//! tuning asymmetries. Per §4.3 the baselines run with the same epoch
//! budget as TableDC and their originally published architectural choices
//! (Student-t kernel, Euclidean distances, K-means initialization).

use autograd::{Tape, Var};
use nn::Params;
use rand::rngs::StdRng;
use tabledc::diagnostics::{self, ConvergenceVerdict, DiagnosticsTracker, VerdictRules};
use tensor::head::SoftKernel;
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

/// Per-epoch telemetry shared by the deep baselines: one `baseline.epoch`
/// event, NaN/Inf health checks on the loss scalars, and the structural
/// diagnostics (`baseline.diag` events + churn/share/margin tracking) the
/// convergence verdict is rendered from. One observer per fit; every event
/// carries the observer's process-unique `fit` id so `trace_check` can
/// verify per-fit epoch monotonicity.
pub struct EpochObserver {
    method: &'static str,
    fit_id: u64,
    k: usize,
    monitor: obs::HealthMonitor,
    tracker: DiagnosticsTracker,
}

impl EpochObserver {
    /// A fresh observer for one `method` fit into `k` clusters (health
    /// policy from `TABLEDC_HEALTH`).
    pub fn new(method: &'static str, k: usize) -> Self {
        Self {
            method,
            fit_id: diagnostics::next_fit_id(),
            k,
            monitor: obs::HealthMonitor::from_env(),
            tracker: DiagnosticsTracker::new(),
        }
    }

    /// Records one epoch: emits `baseline.epoch`, checks each loss scalar
    /// against the monitor's policy, and — when the epoch is healthy —
    /// observes the soft-assignment matrix `q` for structural diagnostics
    /// and emits `baseline.diag`. Returns
    /// [`Abort`](obs::health::Action::Abort) when a strict-policy
    /// violation was found — the baseline then stops its epoch loop
    /// (baselines record the violation but do not write diagnostic dumps;
    /// those are TableDC's own abort path).
    pub fn observe(
        &mut self,
        epoch: usize,
        re_loss: f64,
        kl_pq: f64,
        loss: f64,
        q: &Matrix,
    ) -> obs::health::Action {
        obs::event("baseline.epoch")
            .str("method", self.method)
            .u64("fit", self.fit_id)
            .u64("epoch", epoch as u64)
            .f64("re_loss", re_loss)
            .f64("kl_pq", kl_pq)
            .f64("loss", loss)
            .emit();
        for (name, v) in [("re_loss", re_loss), ("kl_pq", kl_pq), ("loss", loss)] {
            let action = self.monitor.check_scalar(&format!("{}.{name}", self.method), v, epoch as u64);
            if action.should_abort() {
                return action;
            }
        }
        let diag = self.tracker.observe(q, None);
        diagnostics::emit_diag_event("baseline.diag", Some(self.method), self.fit_id, &diag);
        diagnostics::record_series(&format!("{}.diag", self.method), &diag);
        obs::health::Action::Continue
    }

    /// Closes the fit: the health report and the convergence verdict.
    pub fn finish(self) -> (obs::HealthReport, ConvergenceVerdict) {
        let verdict = self.tracker.verdict(self.k, &VerdictRules::default());
        obs::event("baseline.convergence")
            .str("method", self.method)
            .u64("fit", self.fit_id)
            .str("status", verdict.status.as_str())
            .i64("epoch", verdict.epoch.map_or(-1, |e| e as i64))
            .str("rule", &verdict.rule)
            .emit();
        (self.monitor.report(), verdict)
    }
}

/// Student's-t soft assignments between latent points and centers with the
/// standard DEC normalization: `q_ij ∝ (1 + ‖z_i − c_j‖²/ν)^−(ν+1)/2`,
/// rows summing to 1 — the kernel used by SDCN/DFCN/DCRN (§2.1). The
/// kernel and the normalization are one fused node ([`Tape::soft_assign`]).
pub fn student_t_assignments(t: &Tape, z: Var, c: Var, nu: f64) -> Var {
    let d2 = t.sq_dist_cdist(z, c);
    t.soft_assign(d2, SoftKernel::Power { scale: 1.0 / nu, exponent: -(nu + 1.0) / 2.0 }, 1e-12)
}

/// K-means cluster-center initialization on a latent matrix — the
/// initializer all the deep baselines use (§2.1 item iii).
pub fn kmeans_centers(z: &Matrix, k: usize, rng: &mut StdRng) -> Matrix {
    clustering::KMeans::new(k).fit(z, rng).centroids
}

/// Binds `params`, puts the `data` matrices on the tape as borrowed
/// constants (no copy), runs `forward` on them to produce a scalar loss,
/// backprops and applies one Adam step. Returns the loss value.
/// Centralizing this loop keeps each baseline's `fit` focused on its
/// objective.
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
    adam.step_from_tape(params, &grads);
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
    fn epoch_observer_emits_diag_events_and_renders_a_verdict() {
        let q = Matrix::from_rows(&[&[0.9, 0.1], &[0.2, 0.8], &[0.1, 0.9], &[0.7, 0.3]]);
        let ((health, verdict), lines) = obs::test_support::with_memory_sink(|| {
            let mut obs_ = EpochObserver::new("unit", 2);
            for epoch in 0..12 {
                let action = obs_.observe(epoch, 0.5, 0.1, 0.6, &q);
                assert!(!action.should_abort());
            }
            obs_.finish()
        });
        assert_eq!(health.verdict, obs::health::Verdict::Healthy);
        // Constant labels: settled after the first full-churn epoch.
        assert_eq!(verdict.status, tabledc::ConvergenceStatus::Converged);
        assert_eq!(verdict.epoch, Some(1));
        let diags: Vec<_> = lines.iter().filter(|l| l.contains("\"baseline.diag\"")).collect();
        assert_eq!(diags.len(), 12);
        let v = obs::json::parse(diags[3]).expect("valid JSON");
        assert_eq!(v.get("method").unwrap().as_str(), Some("unit"));
        assert_eq!(v.get("epoch").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("delta_label_frac").unwrap().as_f64(), Some(0.0));
        assert_eq!(v.get("min_share").unwrap().as_f64(), Some(0.5));
        assert_eq!(v.get("max_share").unwrap().as_f64(), Some(0.5));
        assert!(lines.iter().any(|l| l.contains("\"baseline.convergence\"")));
        // Every event of the fit shares one fit id.
        let fit_ids: Vec<f64> = diags
            .iter()
            .map(|l| obs::json::parse(l).unwrap().get("fit").unwrap().as_f64().unwrap())
            .collect();
        assert!(fit_ids.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn epoch_observer_aborts_on_strict_nan_before_diagnostics() {
        let q = Matrix::from_rows(&[&[1.0, 0.0]]);
        let (action, lines) = obs::test_support::with_memory_sink(|| {
            let mut obs_ = EpochObserver::new("unit2", 2);
            // Install a strict monitor by poking the loss with NaN under a
            // strict policy.
            obs_.monitor = obs::HealthMonitor::new(obs::health::Policy::Strict);
            obs_.observe(0, f64::NAN, 0.1, 0.6, &q)
        });
        assert!(action.should_abort());
        // The aborting epoch emits baseline.epoch but no baseline.diag.
        assert!(lines.iter().any(|l| l.contains("\"baseline.epoch\"")));
        assert!(!lines.iter().any(|l| l.contains("\"baseline.diag\"")));
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
