//! The TableDC model: autoencoder + Mahalanobis/Cauchy self-supervised
//! clustering head, trained per Algorithm 1. The training network lives
//! only inside [`TableDc::fit`]; the fitted model it returns is the frozen
//! inference plan (`model/frozen.rs`).

mod frozen;

use autograd::{ClusterHead, Tape, Var};
use clustering::metrics::num_clusters;
use nn::loss::{mse, LOG_EPS};
use nn::{Adam, Autoencoder, ParamId, Params};
use obs::health::{HealthReport, Verdict};
use obs::json::Json;
use rand::rngs::StdRng;
use tensor::head::{rows_per_block, target_row, HeadSpec};
use tensor::Matrix;

use crate::diagnostics::ConvergenceVerdict;
use crate::distance::Distance;
use crate::init::Init;
use crate::kernel::Kernel;
use crate::train::{Driver, HealthConfig, History, Method, Objective};

pub use frozen::TableDc;

/// Division-by-zero guard ε of Eq. 8, added to each row's kernel sum
/// before the soft assignments `q` are normalized.
const EPS: f64 = 1e-10;

/// Configuration of a TableDC run. Defaults follow §3 and §4.3 of the
/// paper; the distance/kernel/init fields expose the Table 5 and Figure 4
/// ablations.
#[derive(Debug, Clone)]
pub struct TableDcConfig {
    /// Number of clusters 𝕂.
    pub k: usize,
    /// Latent dimension (paper: 100; scaled default: 32).
    pub latent_dim: usize,
    /// Hidden encoder layer widths between the input (the data's column
    /// count) and the latent layer; the decoder mirrors them. The scaled
    /// default is `[256, 128]`; the paper-scale layout is available via
    /// [`TableDcConfig::paper_architecture`].
    pub hidden_dims: Vec<usize>,
    /// Clustering-loss weight α (Eq. 13; paper: 0.9).
    pub alpha: f64,
    /// Distance measure in the self-supervised module (paper: Mahalanobis
    /// with Σ = 0.01·I).
    pub distance: Distance,
    /// Similarity kernel (paper: Cauchy).
    pub kernel: Kernel,
    /// Cluster-center initializer (paper: Birch).
    pub init: Init,
    /// Autoencoder pretraining epochs (paper: 30, or 100 for entity
    /// resolution).
    pub pretrain_epochs: usize,
    /// Joint training epochs (paper: 200 schema inference / 100 domain
    /// discovery / 50 entity resolution).
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Training-health monitoring: NaN/Inf policy, diagnostic-dump
    /// location, and fault injection for tests.
    pub health: HealthConfig,
}

impl TableDcConfig {
    /// Scaled-down defaults suitable for CPU experiments.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            latent_dim: 32,
            hidden_dims: vec![256, 128],
            alpha: 0.9,
            distance: Distance::PAPER,
            kernel: Kernel::PAPER,
            init: Init::Birch,
            pretrain_epochs: 30,
            epochs: 100,
            lr: 1e-3,
            health: HealthConfig::default(),
        }
    }

    /// The paper-scale architecture: latent 100, encoder
    /// `d → 500 → 500 → 2000 → 100` (§4.3).
    pub fn paper_architecture(mut self) -> Self {
        self.latent_dim = 100;
        self.hidden_dims = vec![500, 500, 2000];
        self
    }
}

/// The trainable network: the autoencoder and the cluster centers in one
/// parameter store, with the configuration they were built from. It lives
/// only inside [`Net::fit`]: the fitted [`TableDc`] is frozen from it.
struct Net {
    config: TableDcConfig,
    params: Params,
    ae: Autoencoder,
    centers: ParamId,
}

/// Result of fitting TableDC to a dataset.
pub struct TableDcFit {
    /// Hard cluster labels (argmax of the soft assignments).
    pub labels: Vec<usize>,
    /// Final normalized soft assignments `q` (Eq. 8).
    pub q: Matrix,
    /// Final clustering probabilities `m` (Eq. 9, Algorithm 1's output).
    pub m: Matrix,
    /// Training history.
    pub history: History,
    /// Number of distinct clusters actually used in `labels`.
    pub clusters_used: usize,
    /// Numerical-health verdict of the training run. When the policy is
    /// `strict` and a NaN/Inf was detected, `health.verdict` is
    /// [`Verdict::Aborted`], training stopped at that epoch, and
    /// `health.dump_path` names the diagnostic dump.
    pub health: HealthReport,
    /// Structural convergence verdict (converged / oscillating / stalled /
    /// collapsed) with the deciding epoch and rule.
    pub convergence: ConvergenceVerdict,
}

impl TableDc {
    /// Trains TableDC on the rows of `x` following Algorithm 1:
    /// AE pretraining, Birch center initialization, then joint optimization
    /// of `α·KL(p‖m) + re_loss` with Adam. The returned model is frozen
    /// from the trained network, which is dropped.
    ///
    /// # Panics
    /// Panics if `k` is 0 or exceeds the number of rows.
    pub fn fit(config: TableDcConfig, x: &Matrix, rng: &mut StdRng) -> (TableDc, TableDcFit) {
        let (model, fit, _) = Net::fit(config, x, rng);
        (model, fit)
    }

    /// Runs [`TableDc::fit`] `restarts` times and keeps the run whose hard
    /// labels score the best **silhouette** in its own latent space — an
    /// unsupervised model-selection criterion, mirroring §4.3's protocol of
    /// initializing the K-means-based methods 20 times and keeping the
    /// best solution. Deep fits are expensive, so 3–5 restarts is typical.
    ///
    /// # Panics
    /// Panics if `restarts == 0` (and propagates [`TableDc::fit`] panics).
    pub fn fit_best_of(
        config: TableDcConfig,
        x: &Matrix,
        restarts: usize,
        rng: &mut StdRng,
    ) -> (TableDc, TableDcFit) {
        assert!(restarts >= 1, "fit_best_of: need at least one restart");
        let mut best: Option<(f64, usize, TableDc, TableDcFit)> = None;
        let mut last_aborted: Option<(TableDc, TableDcFit)> = None;
        for restart in 0..restarts {
            let mut cfg = config.clone();
            if restart > 0 {
                // Fault injection targets only the first restart (see
                // [`HealthConfig::nan_epoch`]) so recovery is observable.
                cfg.health.nan_epoch = None;
            }
            let (model, fit) = TableDc::fit(cfg, x, rng);
            if fit.health.verdict == Verdict::Aborted {
                // A poisoned restart never competes for the best model.
                obs::event("tabledc.restart_skipped")
                    .u64("restart", restart as u64)
                    .str("verdict", fit.health.verdict.as_str())
                    .emit();
                last_aborted = Some((model, fit));
                continue;
            }
            let z = model.embed(x);
            let score = clustering::internal::silhouette_score(&z, &fit.labels);
            obs::event("tabledc.restart")
                .u64("restart", restart as u64)
                .f64("silhouette", score)
                .u64("clusters_used", fit.clusters_used as u64)
                .emit();
            if best.as_ref().is_none_or(|(b, _, _, _)| score > *b) {
                best = Some((score, restart, model, fit));
            }
        }
        match best {
            Some((score, winner, model, fit)) => {
                obs::event("tabledc.restart_winner")
                    .u64("restart", winner as u64)
                    .u64("restarts", restarts as u64)
                    .f64("silhouette", score)
                    .emit();
                (model, fit)
            }
            // Every restart aborted: hand back the last one so callers can
            // inspect `fit.health` (verdict, dump path) instead of panicking.
            None => last_aborted.expect("at least one restart ran"),
        }
    }
}

impl Net {
    /// Algorithm 1 on the rows of `x` ([`TableDc::fit`]): the model frozen
    /// from the trained network, the fit, and the network itself, which
    /// only the tests' tape references keep.
    fn fit(config: TableDcConfig, x: &Matrix, rng: &mut StdRng) -> (TableDc, TableDcFit, Net) {
        let _fit_timer = obs::span!("tabledc.fit");
        assert!(config.k >= 1, "TableDC: k must be >= 1");
        assert!(config.k <= x.rows(), "TableDC: k = {} > n = {}", config.k, x.rows());

        // Standardize features in front of the encoder (part of the deep
        // model's preprocessing; the raw matrix is what SC baselines see).
        // The statistics are frozen with the model so inference applies
        // the same transform to new rows.
        let (x_mean, x_inv_std) = x.col_standardization();
        let x_std = &x.standardize_cols_with(&x_mean, &x_inv_std);

        // Line 1: pretrain the autoencoder.
        let mut params = Params::new();
        let dims = [&[x.cols()][..], &config.hidden_dims, &[config.latent_dim]].concat();
        let ae = Autoencoder::new(&mut params, &dims, rng);
        ae.pretrain(&mut params, x_std, config.pretrain_epochs, config.lr);

        // Line 2: initialize cluster centers with Birch (or an ablation
        // initializer) on the pretrained latent space.
        let z0 = ae.embed(&params, x_std);
        let c0 = config.init.centers(&z0, config.k, rng);
        let centers = params.register_named("centers", c0);

        // Lines 3–12: the joint optimization of `α·KL(p‖m) + re_loss`,
        // run by the shared epoch driver.
        let driver = Driver {
            method: Method::TableDc,
            k: config.k,
            epochs: config.epochs,
            health: config.health.clone(),
            centers: Some(centers),
            config: Json::obj([
                ("k", config.k.into()),
                ("latent_dim", config.latent_dim.into()),
                ("alpha", config.alpha.into()),
                ("lr", config.lr.into()),
                ("pretrain_epochs", config.pretrain_epochs.into()),
                ("epochs", config.epochs.into()),
            ]),
        };
        let train_timer = obs::span!("tabledc.train");
        let trained = driver.run(&mut params, &mut Adam::new(config.lr), [x_std], |tape, bound, [xv]| {
            // Line 4: latent representation z.
            let z = ae.encode(bound, xv);
            let recon = ae.decode(bound, z);
            // Lines 5–10: distances, then soft assignments q,
            // probabilities m, the target p and the clustering loss
            // KL(p‖m) in one node (Eq. 3–11).
            let head = cluster_head(&config, tape, z, bound.var(centers));
            // Line 10: the reconstruction loss and the total (Eq. 12–13).
            let re = mse(tape, xv, recon);
            Objective {
                loss: tape.add(tape.scale(head.kl, config.alpha), re),
                re,
                kl_pq: head.kl_pq,
                assign: head.q,
                ce: Some(head.kl),
            }
        });
        drop(train_timer);
        let net = Net { config, params, ae, centers };
        let model = net.freeze(x_std, x_mean, x_inv_std);
        let (q, m) = match trained.assign {
            // The clustering probabilities of Eq. 9, as the head forms them.
            Some(q) => {
                let m = q.softmax_rows();
                (q, m)
            }
            // With no epoch to run, the assignments are the initialized model's.
            _ if net.config.epochs == 0 => model.soft_assignments(x),
            // An abort in the first epoch leaves no assignment.
            _ => (Matrix::zeros(x.rows(), net.config.k), Matrix::zeros(x.rows(), net.config.k)),
        };
        let labels = q.argmax_rows();
        let (history, health, convergence) = (trained.history, trained.health, trained.convergence);
        let fit = TableDcFit { clusters_used: num_clusters(&labels), labels, q, m, history, health, convergence };
        (model, fit, net)
    }

    /// The network frozen for inference: its current weights, with the
    /// training statistics `x_mean`/`x_inv_std` that raw rows are
    /// standardized with. `x_std` is the standardized training matrix (the
    /// empirical-covariance ablation whitens with its latent's Σ).
    fn freeze(&self, x_std: &Matrix, x_mean: Vec<f64>, x_inv_std: Vec<f64>) -> TableDc {
        let encoder = self.ae.frozen_encoder(&self.params);
        let centers = self.params.get(self.centers).clone();
        TableDc::freeze(self.config.clone(), encoder, centers, x_std, x_mean, x_inv_std)
    }
}

/// The clustering head and its loss, Eq. 3–11, on the training tape:
/// squared distances between the latent rows `z` and the centers `c`
/// (Eq. 3–6), then one [`Tape::cluster_head`] node for the similarity
/// kernel (Eq. 7), row normalization (Eq. 8), softmax (Eq. 9), target
/// distribution (Eq. 11) and `KL(p‖m)` (Eq. 10). The scaled-identity
/// Mahalanobis distance's `1/δ` is applied inside that node.
fn cluster_head(cfg: &TableDcConfig, tape: &Tape, z: Var, c: Var) -> ClusterHead {
    let (d2, scale) = cfg
        .distance
        .sq_cdist_unscaled(tape, z, c)
        .expect("distance computation failed (non-SPD covariance)");
    let spec = HeadSpec { scale, kernel: cfg.kernel.soft_kernel(), eps: EPS, log_eps: LOG_EPS };
    tape.cluster_head(d2, spec)
}

/// The target distribution `p` (Eq. 11 with the standard DEC row
/// normalization): `p_ij ∝ q_ij² / f_j` where `f_j = Σ_i q_ij` are the soft
/// cluster frequencies; rows are normalized to sum to 1 so `p` is a valid
/// distribution. Squaring emphasizes confident assignments; dividing by
/// `f_j` prevents large clusters from dominating (§2.1). TableDC's own
/// head forms it row by row ([`Tape::cluster_head`]); the baselines call
/// this.
pub fn target_distribution(q: &Matrix) -> Matrix {
    let (n, k) = q.shape();
    let f = q.col_sums();
    let mut p = Matrix::zeros(n, k);
    // Rows are independent given `f`: fixed row blocks on the pool.
    runtime::par_for_rows(runtime::global(), p.as_mut_slice(), k, rows_per_block(k), |first, block| {
        for (r, p_row) in block.chunks_exact_mut(k).enumerate() {
            target_row(q.row(first + r), &f, p_row);
        }
    });
    p
}

#[cfg(test)]
impl Net {
    /// The tape inference path the frozen plan replaced: one tape over the
    /// whole already-standardized matrix `x_std`. Kept as the bit-identity
    /// reference for [`TableDc`]'s scoring.
    fn tape_soft_assignments(&self, x_std: &Matrix) -> (Matrix, Matrix) {
        let tape = Tape::new();
        let bound = self.params.bind(&tape);
        let z = self.ae.encode(&bound, tape.constant_ref(x_std));
        let head = cluster_head(&self.config, &tape, z, bound.var(self.centers));
        let q = tape.value(head.q);
        let m = q.softmax_rows();
        (q, m)
    }

    /// This network's weights under another distance and kernel, with the
    /// model frozen from them against the raw training matrix `x`.
    fn with_head(&self, distance: Distance, kernel: Kernel, x: &Matrix) -> (Net, TableDc) {
        let config = TableDcConfig { distance, kernel, ..self.config.clone() };
        let net = Net { config, params: self.params.clone(), ae: self.ae.clone(), centers: self.centers };
        let (x_mean, x_inv_std) = x.col_standardization();
        let model = net.freeze(&x.standardize_cols(), x_mean, x_inv_std);
        (net, model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustering::metrics::{accuracy, adjusted_rand_index};
    use datagen::{generate_mixture, MixtureConfig};
    use obs::health::Policy;
    use runtime::ThreadPool;
    use tensor::random::rng;

    use crate::distance::Covariance;

    /// Bitwise equality: unlike `==`, tells `-0.0` from `0.0`.
    fn same_bits(a: &Matrix, b: &Matrix) -> bool {
        a.shape() == b.shape() && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    fn small_config(k: usize) -> TableDcConfig {
        TableDcConfig {
            latent_dim: 8,
            hidden_dims: vec![24],
            pretrain_epochs: 15,
            epochs: 30,
            ..TableDcConfig::new(k)
        }
    }

    fn workload(seed: u64) -> (Matrix, Vec<usize>) {
        let cfg = MixtureConfig {
            n: 120,
            k: 4,
            dim: 16,
            separation: 3.0,
            correlation: 0.4,
            normalize: true,
            ..Default::default()
        };
        let g = generate_mixture(&cfg, &mut rng(seed));
        (g.x, g.labels)
    }

    #[test]
    fn target_distribution_rows_sum_to_one_and_sharpen() {
        let q = Matrix::from_rows(&[&[0.6, 0.4], &[0.3, 0.7]]);
        let p = target_distribution(&q);
        for i in 0..2 {
            let s: f64 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
        // Sharper: the max entry grows.
        assert!(p[(0, 0)] > 0.6);
        assert!(p[(1, 1)] > 0.7);
    }

    #[test]
    fn target_distribution_handles_empty_cluster() {
        let q = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.0]]);
        let p = target_distribution(&q);
        assert!(p.all_finite());
        assert_eq!(p[(0, 1)], 0.0);
    }

    #[test]
    fn fit_recovers_mixture_structure() {
        let (x, truth) = workload(1);
        let (_, fit) = TableDc::fit(small_config(4), &x, &mut rng(2));
        let ari = adjusted_rand_index(&fit.labels, &truth);
        assert!(ari > 0.5, "ARI = {ari}");
        assert!(accuracy(&fit.labels, &truth) > 0.6);
    }

    #[test]
    fn soft_assignments_are_valid_distributions() {
        let (x, _) = workload(3);
        let (model, fit) = TableDc::fit(small_config(4), &x, &mut rng(4));
        for i in 0..fit.q.rows() {
            let qs: f64 = fit.q.row(i).iter().sum();
            let ms: f64 = fit.m.row(i).iter().sum();
            assert!((qs - 1.0).abs() < 1e-6, "q row {i} sums to {qs}");
            assert!((ms - 1.0).abs() < 1e-9, "m row {i} sums to {ms}");
        }
        // predict() agrees with the fit labels on the training data.
        assert_eq!(model.predict(&x), fit.labels);
    }

    #[test]
    fn reconstruction_loss_decreases() {
        let (x, _) = workload(5);
        let (_, fit) = TableDc::fit(small_config(4), &x, &mut rng(6));
        let first = fit.history.re_loss[0];
        let last = *fit.history.re_loss.last().expect("non-empty");
        assert!(
            last <= first,
            "re_loss should not increase: {first} → {last}"
        );
    }

    #[test]
    fn history_lengths_match_epochs() {
        let (x, _) = workload(7);
        let cfg = small_config(4);
        let epochs = cfg.epochs;
        let (_, fit) = TableDc::fit(cfg, &x, &mut rng(8));
        assert_eq!(fit.history.re_loss.len(), epochs);
        assert_eq!(fit.history.ce_loss.len(), epochs);
        assert_eq!(fit.history.kl_pq.len(), epochs);
        assert_eq!(fit.history.epoch_ms.len(), epochs);
        assert_eq!(fit.history.grad_norm.len(), epochs);
        assert_eq!(fit.history.update_ratio.len(), epochs);
        assert_eq!(fit.history.share_entropy.len(), epochs);
        assert_eq!(fit.history.min_share.len(), epochs);
        assert_eq!(fit.history.max_share.len(), epochs);
        assert_eq!(fit.history.delta_label_frac.len(), epochs);
        assert_eq!(fit.history.mean_margin.len(), epochs);
        assert_eq!(fit.history.centroid_drift.len(), epochs);
        assert!(fit.history.grad_norm.iter().all(|v| v.is_finite() && *v >= 0.0));
        assert!(fit.history.update_ratio.iter().all(|v| v.is_finite() && *v >= 0.0));
        for (lo, hi) in fit.history.min_share.iter().zip(&fit.history.max_share) {
            assert!((0.0..=1.0).contains(lo) && (0.0..=1.0).contains(hi) && lo <= hi);
        }
        assert!(fit.history.delta_label_frac.iter().all(|v| (0.0..=1.0).contains(v)));
        assert_eq!(fit.health.verdict, Verdict::Healthy);
        assert_eq!(fit.health.total_violations, 0);
        // A healthy full-length fit always carries a decided verdict.
        assert_ne!(fit.convergence.status, crate::ConvergenceStatus::Unknown);
        assert!(!fit.convergence.rule.is_empty());
    }

    #[test]
    fn untraced_fit_emits_no_events_but_still_times_epochs() {
        let (x, _) = workload(15);
        let cfg = small_config(4);
        let epochs = cfg.epochs;
        let fit = obs::test_support::with_sink_disabled(|| {
            assert!(!obs::enabled());
            let (_, fit) = TableDc::fit(cfg, &x, &mut rng(16));
            fit
        });
        assert_eq!(fit.history.epoch_ms.len(), epochs);
        assert!(
            fit.history.epoch_ms.iter().all(|&ms| ms >= 0.0 && ms.is_finite()),
            "epoch timings must be finite and nonnegative"
        );
        // Cumulative epoch time is monotone nonnegative by construction.
        let mut cumulative = 0.0;
        for &ms in &fit.history.epoch_ms {
            let next = cumulative + ms;
            assert!(next >= cumulative);
            cumulative = next;
        }
    }

    #[test]
    fn tracing_on_does_not_perturb_training() {
        let (x, _) = workload(17);
        let untraced =
            obs::test_support::with_sink_disabled(|| TableDc::fit(small_config(4), &x, &mut rng(18)));
        let (traced, lines) = obs::test_support::with_memory_sink(|| {
            TableDc::fit(small_config(4), &x, &mut rng(18))
        });
        assert_eq!(untraced.1.labels, traced.1.labels);
        assert_eq!(untraced.1.history.re_loss, traced.1.history.re_loss);
        assert_eq!(untraced.1.history.kl_pq, traced.1.history.kl_pq);
        // Every epoch produced a parseable event with the documented keys.
        let epoch_lines: Vec<&String> =
            lines.iter().filter(|l| l.contains("\"tabledc.epoch\"")).collect();
        assert_eq!(epoch_lines.len(), traced.1.history.re_loss.len());
        for line in epoch_lines {
            let v = obs::json::parse(line).expect("valid JSON line");
            for key in [
                "ts_ms",
                "fit",
                "epoch",
                "re_loss",
                "ce_loss",
                "kl_pq",
                "delta_label_frac",
                "grad_norm",
                "update_ratio",
                "epoch_ms",
            ] {
                assert!(v.get(key).is_some(), "missing {key} in {line}");
            }
            let delta = v.get("delta_label_frac").unwrap().as_f64().unwrap();
            assert!((0.0..=1.0).contains(&delta));
        }
        // Every epoch also carries a tabledc.diag event with the full
        // structural metric set, on the same fit id.
        let diag_lines: Vec<&String> =
            lines.iter().filter(|l| l.contains("\"tabledc.diag\"")).collect();
        assert_eq!(diag_lines.len(), traced.1.history.re_loss.len());
        for line in diag_lines {
            let v = obs::json::parse(line).expect("valid JSON line");
            for key in [
                "fit",
                "epoch",
                "share_entropy",
                "min_share",
                "max_share",
                "delta_label_frac",
                "mean_margin",
                "centroid_drift",
            ] {
                assert!(v.get(key).is_some(), "missing {key} in {line}");
            }
        }
        // And exactly one convergence event closes the fit.
        assert_eq!(lines.iter().filter(|l| l.contains("\"tabledc.convergence\"")).count(), 1);
        // Diagnostics are observability-only: the traced and untraced fits
        // reached the same verdict through identical structural series.
        assert_eq!(untraced.1.convergence, traced.1.convergence);
        assert_eq!(untraced.1.history.delta_label_frac, traced.1.history.delta_label_frac);
        assert_eq!(untraced.1.history.centroid_drift, traced.1.history.centroid_drift);
    }

    #[test]
    fn fit_best_of_logs_each_restart_and_the_winner() {
        let (x, _) = workload(19);
        let cfg = TableDcConfig { pretrain_epochs: 3, epochs: 5, ..small_config(4) };
        let (_, lines) = obs::test_support::with_memory_sink(|| {
            TableDc::fit_best_of(cfg, &x, 3, &mut rng(20))
        });
        let restarts: Vec<_> =
            lines.iter().filter(|l| l.contains("\"tabledc.restart\"")).collect();
        assert_eq!(restarts.len(), 3, "one event per restart");
        let winners: Vec<_> =
            lines.iter().filter(|l| l.contains("\"tabledc.restart_winner\"")).collect();
        assert_eq!(winners.len(), 1);
        let winner = obs::json::parse(winners[0]).expect("valid JSON");
        let winner_idx = winner.get("restart").unwrap().as_f64().unwrap();
        assert!((0.0..3.0).contains(&winner_idx));
        // The winner's silhouette is the max of the per-restart scores.
        let scores: Vec<f64> = restarts
            .iter()
            .map(|l| obs::json::parse(l).unwrap().get("silhouette").unwrap().as_f64().unwrap())
            .collect();
        let best = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(winner.get("silhouette").unwrap().as_f64().unwrap(), best);
    }

    fn strict_health(dir: &std::path::Path, nan_epoch: usize) -> HealthConfig {
        HealthConfig {
            policy: Some(Policy::Strict),
            dump_dir: dir.to_string_lossy().into_owned(),
            run_seed: Some(99),
            nan_epoch: Some(nan_epoch),
        }
    }

    fn temp_dump_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("tabledc-dumps-{tag}-{}", std::process::id()))
    }

    #[test]
    fn strict_policy_aborts_on_injected_nan_and_writes_dump() {
        let (x, _) = workload(21);
        let dir = temp_dump_dir("abort");
        let nan_epoch = 10;
        let mut cfg = small_config(4);
        cfg.health = strict_health(&dir, nan_epoch);
        let ((_, fit), lines) = obs::test_support::with_memory_sink(|| {
            TableDc::fit(cfg, &x, &mut rng(22))
        });

        // Aborted within the poisoned epoch: only the healthy epochs before
        // it are in the history, and the verdict says so.
        assert_eq!(fit.health.verdict, Verdict::Aborted);
        assert_eq!(fit.history.re_loss.len(), nan_epoch);
        assert_eq!(fit.history.grad_norm.len(), nan_epoch);
        assert!(fit.health.total_violations >= 1);
        let first = &fit.health.violations[0];
        assert_eq!(first.epoch, nan_epoch as u64);

        // The dump exists, is valid JSON, and names the offending tensor.
        let dump = fit.health.dump_path.clone().expect("dump written on strict abort");
        let text = std::fs::read_to_string(&dump).expect("dump file readable");
        let v = obs::json::parse(&text).expect("dump is valid JSON");
        assert_eq!(v.get("tensor").unwrap().as_str().unwrap(), first.tensor);
        assert_eq!(v.get("epoch").unwrap().as_f64().unwrap(), nan_epoch as f64);
        assert_eq!(v.get("policy").unwrap().as_str().unwrap(), "strict");
        assert_eq!(v.get("seed").unwrap().as_f64().unwrap(), 99.0);
        assert!(v.get("param_norms").unwrap().get("centers").is_some());

        // Trace invariant: health.abort is followed by health.dump.
        let abort_idx = lines.iter().position(|l| l.contains("\"health.abort\""));
        let dump_idx = lines.iter().position(|l| l.contains("\"health.dump\""));
        assert!(abort_idx.is_some() && dump_idx.is_some());
        assert!(abort_idx < dump_idx, "health.abort must precede health.dump");

        std::fs::remove_file(&dump).ok();
    }

    #[test]
    fn warn_policy_records_violations_but_completes() {
        let (x, _) = workload(25);
        let mut cfg = TableDcConfig { pretrain_epochs: 3, epochs: 8, ..small_config(4) };
        cfg.health = HealthConfig {
            policy: Some(Policy::Warn),
            nan_epoch: Some(2),
            ..HealthConfig::default()
        };
        let epochs = cfg.epochs;
        let (_, fit) = TableDc::fit(cfg, &x, &mut rng(26));
        assert_eq!(fit.health.verdict, Verdict::Warned);
        assert!(fit.health.total_violations >= 1);
        assert!(fit.health.dump_path.is_none(), "warn policy never dumps");
        // The run completed all epochs despite the poison.
        assert_eq!(fit.history.re_loss.len(), epochs);
    }

    #[test]
    fn fit_best_of_skips_poisoned_restart_and_returns_healthy_winner() {
        let (x, _) = workload(27);
        let dir = temp_dump_dir("bestof");
        let mut cfg = TableDcConfig { pretrain_epochs: 3, epochs: 5, ..small_config(4) };
        cfg.health = strict_health(&dir, 0);
        let ((_, fit), lines) = obs::test_support::with_memory_sink(|| {
            TableDc::fit_best_of(cfg, &x, 3, &mut rng(28))
        });
        // Restart 0 was poisoned and skipped; the winner is healthy.
        assert_eq!(fit.health.verdict, Verdict::Healthy);
        let skipped: Vec<_> =
            lines.iter().filter(|l| l.contains("\"tabledc.restart_skipped\"")).collect();
        assert_eq!(skipped.len(), 1);
        let healthy: Vec<_> =
            lines.iter().filter(|l| l.contains("\"tabledc.restart\"")).collect();
        assert_eq!(healthy.len(), 2, "two healthy restarts compete");
        assert_eq!(
            lines.iter().filter(|l| l.contains("\"tabledc.restart_winner\"")).count(),
            1
        );
        if let Some(p) = lines
            .iter()
            .find(|l| l.contains("\"health.dump\""))
            .and_then(|l| obs::json::parse(l).ok())
            .and_then(|v| v.get("path").and_then(|p| p.as_str().map(String::from)))
        {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn zero_epochs_still_assigns_from_init() {
        // With no epoch to run, `fit` scores the raw matrix with the model
        // it returns. Standardizing with the training statistics gives the
        // training matrix bit for bit, so `(q, m)` is also the tape's
        // answer on the standardized matrix.
        let (x, _) = workload(9);
        let cfg = TableDcConfig { epochs: 0, ..small_config(4) };
        let (model, fit, net) = Net::fit(cfg, &x, &mut rng(10));
        assert_eq!(fit.labels.len(), x.rows());
        assert!(fit.clusters_used >= 1);
        let (q, m) = model.soft_assignments(&x);
        assert!(same_bits(&fit.q, &q) && same_bits(&fit.m, &m), "0-epoch fit differs from the model's scores");
        let (q_ref, m_ref) = net.tape_soft_assignments(&x.standardize_cols());
        assert!(same_bits(&fit.q, &q_ref) && same_bits(&fit.m, &m_ref), "0-epoch fit differs from the tape");
        assert_eq!(fit.labels, q.argmax_rows());
    }

    #[test]
    fn deterministic_under_seed() {
        let (x, _) = workload(11);
        let (_, a) = TableDc::fit(small_config(4), &x, &mut rng(12));
        let (_, b) = TableDc::fit(small_config(4), &x, &mut rng(12));
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn batched_inference_bit_identical_to_unblocked() {
        // A request far past one plan block (64 rows) runs as many blocks
        // on the pool; its stitched output must be bit-identical to one
        // monolithic tape pass over the same standardized matrix.
        let cfg = MixtureConfig { n: 1101, k: 3, dim: 16, separation: 3.0, ..Default::default() };
        let g = generate_mixture(&cfg, &mut rng(20));
        let tcfg = TableDcConfig { pretrain_epochs: 2, epochs: 2, ..small_config(3) };
        let (model, _, net) = Net::fit(tcfg, &g.x, &mut rng(21));
        let (q, m) = model.soft_assignments(&g.x);
        let (q_ref, m_ref) = net.tape_soft_assignments(&g.x.standardize_cols());
        assert!(same_bits(&q, &q_ref), "blocked q differs from single-tape q");
        assert!(same_bits(&m, &m_ref), "blocked m differs from single-tape m");
        assert_eq!(q.shape(), (cfg.n, 3));
    }

    #[test]
    fn frozen_plan_matches_the_tape_bitwise_for_every_head_size_and_pool() {
        let (x, _) = workload(31);
        let tcfg = TableDcConfig { pretrain_epochs: 3, epochs: 3, ..small_config(4) };
        let (_, _, net) = Net::fit(tcfg, &x, &mut rng(32));
        let requests = generate_mixture(&MixtureConfig { n: 1100, k: 4, dim: 16, ..Default::default() }, &mut rng(33)).x;
        let (x_mean, x_inv_std) = x.col_standardization();
        let pools: Vec<ThreadPool> = [1, 2, 4].into_iter().map(ThreadPool::new).collect();
        for distance in [Distance::Euclidean, Distance::Cosine, Distance::Mahalanobis(Covariance::ScaledIdentity(0.01))] {
            for kernel in [Kernel::Cauchy { gamma: 1.0 }, Kernel::StudentT { nu: 2.0 }, Kernel::Normal { sigma: 1.0 }] {
                let (variant, model) = net.with_head(distance, kernel, &x);
                for n in [1, 3, 64, 65, 1100] {
                    let rows: Vec<usize> = (0..n).collect();
                    let request = requests.select_rows(&rows);
                    let (q_ref, m_ref) = variant.tape_soft_assignments(&request.standardize_cols_with(&x_mean, &x_inv_std));
                    for pool in &pools {
                        let (q, m) = model.soft_assignments_on(pool, &request);
                        let what = format!("{distance:?}, {kernel:?}, {n} rows, {} threads", pool.threads());
                        assert!(same_bits(&q, &q_ref), "q differs: {what}");
                        assert!(same_bits(&m, &m_ref), "m differs: {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_64_row_request_forks_the_pool_at_most_once_per_thread() {
        let (x, _) = workload(35);
        let tcfg = TableDcConfig { pretrain_epochs: 2, epochs: 2, ..small_config(4) };
        let (model, _) = TableDc::fit(tcfg, &x, &mut rng(36));
        let request = x.select_rows(&(0..64).collect::<Vec<_>>());
        for threads in [1, 2, 3, 4] {
            let pool = ThreadPool::new(threads);
            let before = pool.stats().tasks_executed;
            let _ = model.soft_assignments_on(&pool, &request);
            let tasks = pool.stats().tasks_executed - before;
            assert!(tasks <= threads as u64, "{tasks} tasks on {threads} threads");
        }
    }

    #[test]
    fn empirical_whitening_is_frozen_so_rows_are_scored_alone() {
        // Under the empirical-covariance ablation the whitening comes from
        // the training latent, never from the request: a 1-row request
        // gets that row of a full-matrix call, bit for bit.
        let (x, _) = workload(37);
        let distance = Distance::Mahalanobis(Covariance::Empirical { shrinkage: 0.1 });
        let tcfg = TableDcConfig { distance, pretrain_epochs: 3, epochs: 5, ..small_config(4) };
        let (model, _, net) = Net::fit(tcfg, &x, &mut rng(38));
        let (q_full, m_full) = model.soft_assignments(&x);
        // Over the whole training matrix the tape estimates the same Σ the
        // plan froze, so the two still agree bit for bit there.
        let (q_ref, m_ref) = net.tape_soft_assignments(&x.standardize_cols());
        assert!(same_bits(&q_full, &q_ref) && same_bits(&m_full, &m_ref));
        for i in [0, 1, 57, x.rows() - 1] {
            let (q_row, m_row) = model.soft_assignments(&x.select_rows(&[i]));
            assert!(q_row.row(0) == q_full.row(i), "row {i}: q depends on the request");
            assert!(m_row.row(0) == m_full.row(i), "row {i}: m depends on the request");
        }
    }

    #[test]
    fn frozen_model_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TableDc>();
    }

    #[test]
    fn single_row_predict_matches_full_matrix_predict() {
        // Inference standardizes with the training statistics, so a 1-row
        // request is scored exactly like the same row inside a full call.
        let (x, _) = workload(15);
        let (model, _) = TableDc::fit(small_config(4), &x, &mut rng(16));
        let full = model.predict(&x);
        let (q_full, _) = model.soft_assignments(&x);
        for (i, &label) in full.iter().enumerate() {
            let row = x.select_rows(&[i]);
            assert_eq!(model.predict(&row), vec![label], "row {i}");
            let (q_row, _) = model.soft_assignments(&row);
            assert!(q_row.row(0) == q_full.row(i), "row {i}: q differs from the full-matrix q");
        }
    }

    #[test]
    fn centers_shape_matches_config() {
        let (x, _) = workload(13);
        let (model, _) = TableDc::fit(small_config(4), &x, &mut rng(14));
        assert_eq!(model.centers().shape(), (4, 8));
        assert_eq!(model.embed(&x).shape(), (x.rows(), 8));
    }
}
