//! Cluster-structure diagnostics: per-epoch structural metrics computed
//! from the soft-assignment matrix `Q` (and optionally the cluster
//! centers), plus an end-of-run convergence verdict.
//!
//! Scalar losses miss the ways self-supervised clustering actually fails —
//! cluster collapse, label oscillation, one-cluster dominance (Rauf et
//! al.; Samad & Abrar). The [`DiagnosticsTracker`] observes the quantities
//! that surface those failures:
//!
//! * **cluster shares** of the hard labels (`argmax Q`): their normalized
//!   entropy, minimum, and maximum — a share of ~1 on one cluster is the
//!   collapse signature;
//! * **assignment churn** (`delta_label_frac`): fraction of rows whose
//!   hard label changed since the previous epoch — the δ-label quantity
//!   DEC-style stopping rules threshold (paper §4);
//! * **mean assignment margin**: mean over rows of `top1(Q) − top2(Q)` —
//!   how decided the soft assignments are;
//! * **centroid drift**: mean L2 step of each center since the previous
//!   epoch.
//!
//! Everything here is *pure observation*: nothing feeds back into
//! training, so diagnostics on/off cannot perturb labels or metrics.
//!
//! The same tracker serves TableDC's training loop and the deep baselines
//! (via `baselines::common`); both stamp their per-epoch trace events with
//! a process-wide **fit id** ([`next_fit_id`]) so `trace_check` can verify
//! per-fit epoch monotonicity even when one process runs many fits
//! (restarts, benchmark sweeps).

use std::sync::atomic::{AtomicU64, Ordering};

use tensor::Matrix;

/// Structural metrics for one training epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochDiagnostics {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Normalized entropy of the hard-label cluster shares: 1 = perfectly
    /// balanced, 0 = everything in one cluster. Defined as 1 when `k == 1`.
    pub share_entropy: f64,
    /// Smallest cluster share (0 when a cluster is empty).
    pub min_share: f64,
    /// Largest cluster share (→ 1 under collapse).
    pub max_share: f64,
    /// Fraction of rows whose hard label changed vs the previous epoch
    /// (1 on the first observed epoch).
    pub delta_label_frac: f64,
    /// Mean over rows of `top1(Q) − top2(Q)` (top2 taken as 0 if `k == 1`).
    pub mean_margin: f64,
    /// Mean L2 step of the cluster centers vs the previous epoch (0 on the
    /// first observed epoch, or when centers are not supplied).
    pub centroid_drift: f64,
}

/// How a run ended, structurally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvergenceStatus {
    /// Assignment churn stayed at or below the δ threshold for the whole
    /// trailing window.
    Converged,
    /// Churn stayed high to the end — labels kept flipping.
    Oscillating,
    /// Neither converged nor oscillating: movement died down without
    /// meeting the δ rule.
    Stalled,
    /// One cluster absorbed (nearly) everything.
    Collapsed,
    /// No epochs observed.
    Unknown,
}

impl ConvergenceStatus {
    /// Stable lowercase name (manifest / trace vocabulary).
    pub fn as_str(&self) -> &'static str {
        match self {
            ConvergenceStatus::Converged => "converged",
            ConvergenceStatus::Oscillating => "oscillating",
            ConvergenceStatus::Stalled => "stalled",
            ConvergenceStatus::Collapsed => "collapsed",
            ConvergenceStatus::Unknown => "unknown",
        }
    }

    /// Inverse of [`ConvergenceStatus::as_str`].
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "converged" => ConvergenceStatus::Converged,
            "oscillating" => ConvergenceStatus::Oscillating,
            "stalled" => ConvergenceStatus::Stalled,
            "collapsed" => ConvergenceStatus::Collapsed,
            "unknown" => ConvergenceStatus::Unknown,
            _ => return None,
        })
    }
}

/// The verdict plus the evidence: which epoch decided it and which rule
/// fired, human-readable.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceVerdict {
    /// The structural outcome.
    pub status: ConvergenceStatus,
    /// The deciding epoch (start of the terminal streak for
    /// converged/collapsed; the last epoch otherwise). `None` for
    /// [`ConvergenceStatus::Unknown`].
    pub epoch: Option<usize>,
    /// The rule that fired, e.g. `"delta_label_frac <= 0.010 for 10 epochs"`.
    pub rule: String,
}

impl Default for ConvergenceVerdict {
    fn default() -> Self {
        ConvergenceVerdict {
            status: ConvergenceStatus::Unknown,
            epoch: None,
            rule: "no epochs observed".to_string(),
        }
    }
}

/// Thresholds for the convergence verdict. Checked in severity order:
/// collapsed → converged → oscillating → stalled.
#[derive(Debug, Clone, Copy)]
pub struct VerdictRules {
    /// δ: churn at or below this counts as "settled" (DEC uses 0.001–0.01).
    pub delta: f64,
    /// Number of trailing epochs the δ rule must hold for.
    pub window: usize,
    /// A terminal `max_share` at or above this is a collapse (`k > 1` only).
    pub collapse_max_share: f64,
    /// A trailing mean churn at or above this is oscillation.
    pub osc_churn: f64,
}

impl Default for VerdictRules {
    fn default() -> Self {
        VerdictRules { delta: 0.01, window: 10, collapse_max_share: 0.9, osc_churn: 0.05 }
    }
}

/// Observes one fit epoch-by-epoch and renders the verdict at the end.
#[derive(Debug, Default)]
pub struct DiagnosticsTracker {
    prev_labels: Option<Vec<usize>>,
    prev_centers: Option<Matrix>,
    epochs: Vec<EpochDiagnostics>,
}

impl DiagnosticsTracker {
    /// A fresh tracker (one per fit).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one epoch from the normalized soft-assignment matrix `q`
    /// (`n × k`) and, when available, the current cluster centers
    /// (`k × d`). Returns the metrics for this epoch.
    pub fn observe(&mut self, q: &Matrix, centers: Option<&Matrix>) -> EpochDiagnostics {
        let epoch = self.epochs.len();
        let (n, k) = q.shape();
        let labels = q.argmax_rows();

        // Cluster shares over all k slots (empty clusters count as 0).
        let mut counts = vec![0usize; k];
        for &l in &labels {
            counts[l] += 1;
        }
        let denom = n.max(1) as f64;
        let mut min_share = f64::INFINITY;
        let mut max_share = 0.0f64;
        let mut entropy = 0.0;
        for &c in &counts {
            let share = c as f64 / denom;
            min_share = min_share.min(share);
            max_share = max_share.max(share);
            if share > 0.0 {
                entropy -= share * share.ln();
            }
        }
        let share_entropy = if k <= 1 { 1.0 } else { entropy / (k as f64).ln() };

        let delta_label_frac = match &self.prev_labels {
            Some(prev) => {
                let changed = prev.iter().zip(&labels).filter(|(a, b)| a != b).count();
                changed as f64 / labels.len().max(1) as f64
            }
            None => 1.0,
        };

        // Mean top1 − top2 margin of each Q row.
        let mut margin_sum = 0.0;
        for i in 0..n {
            let row = q.row(i);
            let mut top1 = f64::NEG_INFINITY;
            let mut top2 = f64::NEG_INFINITY;
            for &v in row {
                if v > top1 {
                    top2 = top1;
                    top1 = v;
                } else if v > top2 {
                    top2 = v;
                }
            }
            if k <= 1 {
                top2 = 0.0;
            }
            margin_sum += top1 - top2;
        }
        let mean_margin = margin_sum / denom;

        let centroid_drift = match (centers, &self.prev_centers) {
            (Some(now), Some(prev)) if now.shape() == prev.shape() => {
                let (kk, d) = now.shape();
                let mut total = 0.0;
                for j in 0..kk {
                    let mut sq = 0.0;
                    for t in 0..d {
                        let diff = now[(j, t)] - prev[(j, t)];
                        sq += diff * diff;
                    }
                    total += sq.sqrt();
                }
                total / kk.max(1) as f64
            }
            _ => 0.0,
        };

        self.prev_labels = Some(labels);
        if let Some(c) = centers {
            self.prev_centers = Some(c.clone());
        }

        let diag = EpochDiagnostics {
            epoch,
            share_entropy,
            min_share,
            max_share,
            delta_label_frac,
            mean_margin,
            centroid_drift,
        };
        self.epochs.push(diag);
        diag
    }

    /// Every epoch observed so far, in order.
    pub fn epochs(&self) -> &[EpochDiagnostics] {
        &self.epochs
    }

    /// Renders the convergence verdict for the epochs observed so far.
    /// `k` is the configured cluster count (collapse is meaningless for
    /// `k == 1`).
    pub fn verdict(&self, k: usize, rules: &VerdictRules) -> ConvergenceVerdict {
        let eps = &self.epochs;
        let Some(last) = eps.last() else {
            return ConvergenceVerdict::default();
        };

        // Collapsed: the run *ended* dominated by one cluster. Deciding
        // epoch = start of the terminal dominated streak.
        if k > 1 && last.max_share >= rules.collapse_max_share {
            let mut start = eps.len() - 1;
            while start > 0 && eps[start - 1].max_share >= rules.collapse_max_share {
                start -= 1;
            }
            return ConvergenceVerdict {
                status: ConvergenceStatus::Collapsed,
                epoch: Some(eps[start].epoch),
                rule: format!(
                    "max_share {:.3} >= {:.3} from epoch {}",
                    last.max_share, rules.collapse_max_share, eps[start].epoch
                ),
            };
        }

        // Converged: churn ≤ δ over the whole trailing window.
        let window = rules.window.max(1);
        if eps.len() >= window
            && eps[eps.len() - window..].iter().all(|e| e.delta_label_frac <= rules.delta)
        {
            let mut start = eps.len() - 1;
            while start > 0 && eps[start - 1].delta_label_frac <= rules.delta {
                start -= 1;
            }
            return ConvergenceVerdict {
                status: ConvergenceStatus::Converged,
                epoch: Some(eps[start].epoch),
                rule: format!(
                    "delta_label_frac <= {:.3} for {} epochs (settled at epoch {})",
                    rules.delta,
                    eps.len() - start,
                    eps[start].epoch
                ),
            };
        }

        // Oscillating: labels still churning hard at the end.
        let tail = &eps[eps.len().saturating_sub(window)..];
        let mean_tail_churn =
            tail.iter().map(|e| e.delta_label_frac).sum::<f64>() / tail.len() as f64;
        if mean_tail_churn >= rules.osc_churn {
            return ConvergenceVerdict {
                status: ConvergenceStatus::Oscillating,
                epoch: Some(last.epoch),
                rule: format!(
                    "mean trailing delta_label_frac {:.3} >= {:.3}",
                    mean_tail_churn, rules.osc_churn
                ),
            };
        }

        ConvergenceVerdict {
            status: ConvergenceStatus::Stalled,
            epoch: Some(last.epoch),
            rule: format!(
                "mean trailing delta_label_frac {:.3} in ({:.3}, {:.3}) without a {}-epoch settled window",
                mean_tail_churn, rules.delta, rules.osc_churn, window
            ),
        }
    }
}

/// Hands out process-unique fit ids. Stamped as `fit` on per-epoch trace
/// events (`tabledc.epoch`, `tabledc.diag`, `baseline.epoch`,
/// `baseline.diag`) so epochs are monotone *per fit* even when one process
/// runs many fits (restarts, sweeps).
pub fn next_fit_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Emits one `tabledc.diag`-shaped trace event carrying the full metric
/// set. `method` is stamped for baseline fits so one trace can hold many
/// methods. No-op when tracing is disabled.
pub fn emit_diag_event(event_name: &str, method: Option<&str>, fit_id: u64, d: &EpochDiagnostics) {
    let mut ev = obs::event(event_name);
    if let Some(m) = method {
        ev = ev.str("method", m);
    }
    ev.u64("fit", fit_id)
        .u64("epoch", d.epoch as u64)
        .f64("share_entropy", d.share_entropy)
        .f64("min_share", d.min_share)
        .f64("max_share", d.max_share)
        .f64("delta_label_frac", d.delta_label_frac)
        .f64("mean_margin", d.mean_margin)
        .f64("centroid_drift", d.centroid_drift)
        .emit();
}

/// Records the epoch's diagnostics into the global `obs` series registry
/// under `<prefix>.<metric>` names, so they show up in `obs::summary()`
/// and `obs::series::emit_all()`.
pub fn record_series(prefix: &str, d: &EpochDiagnostics) {
    let reg = obs::registry();
    reg.series(&format!("{prefix}.share_entropy")).record(d.share_entropy);
    reg.series(&format!("{prefix}.max_share")).record(d.max_share);
    reg.series(&format!("{prefix}.churn")).record(d.delta_label_frac);
    reg.series(&format!("{prefix}.mean_margin")).record(d.mean_margin);
    reg.series(&format!("{prefix}.centroid_drift")).record(d.centroid_drift);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hard 2-cluster Q: rows 0–2 → cluster 0, row 3 → cluster 1.
    fn toy_q() -> Matrix {
        Matrix::from_rows(&[&[0.9, 0.1], &[0.8, 0.2], &[0.7, 0.3], &[0.2, 0.8]])
    }

    #[test]
    fn toy_q_diagnostics_match_hand_computation() {
        let mut t = DiagnosticsTracker::new();
        let d = t.observe(&toy_q(), None);
        // Shares: 3/4 and 1/4.
        assert_eq!(d.min_share, 0.25);
        assert_eq!(d.max_share, 0.75);
        // Entropy: -(0.75 ln 0.75 + 0.25 ln 0.25) / ln 2.
        let expected_entropy = -(0.75f64 * 0.75f64.ln() + 0.25 * 0.25f64.ln()) / 2f64.ln();
        assert!((d.share_entropy - expected_entropy).abs() < 1e-12);
        // First epoch: full churn, zero drift.
        assert_eq!(d.delta_label_frac, 1.0);
        assert_eq!(d.centroid_drift, 0.0);
        // Margins: 0.8, 0.6, 0.4, 0.6 → mean 0.6.
        assert!((d.mean_margin - 0.6).abs() < 1e-12);
        assert_eq!(d.epoch, 0);
    }

    #[test]
    fn churn_counts_changed_labels_against_previous_epoch() {
        let mut t = DiagnosticsTracker::new();
        t.observe(&toy_q(), None);
        // Flip row 3 to cluster 0: one of four rows changed.
        let q2 = Matrix::from_rows(&[&[0.9, 0.1], &[0.8, 0.2], &[0.7, 0.3], &[0.6, 0.4]]);
        let d2 = t.observe(&q2, None);
        assert_eq!(d2.delta_label_frac, 0.25);
        assert_eq!(d2.max_share, 1.0);
        assert_eq!(d2.min_share, 0.0);
        assert_eq!(d2.share_entropy, 0.0);
        assert_eq!(d2.epoch, 1);
    }

    #[test]
    fn centroid_drift_is_mean_l2_step() {
        let mut t = DiagnosticsTracker::new();
        let c1 = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]);
        t.observe(&toy_q(), Some(&c1));
        // Center 0 moves by (3, 4) → 5; center 1 stays → mean 2.5.
        let c2 = Matrix::from_rows(&[&[3.0, 4.0], &[1.0, 1.0]]);
        let d2 = t.observe(&toy_q(), Some(&c2));
        assert!((d2.centroid_drift - 2.5).abs() < 1e-12);
        // And the repeated Q has zero churn.
        assert_eq!(d2.delta_label_frac, 0.0);
    }

    #[test]
    fn single_cluster_edge_cases_are_defined() {
        let mut t = DiagnosticsTracker::new();
        let q = Matrix::from_rows(&[&[1.0], &[1.0]]);
        let d = t.observe(&q, None);
        assert_eq!(d.share_entropy, 1.0, "k = 1 counts as balanced");
        assert_eq!(d.min_share, 1.0);
        assert_eq!(d.max_share, 1.0);
        assert_eq!(d.mean_margin, 1.0, "top2 is 0 when k = 1");
        // k = 1 can never collapse.
        let v = t.verdict(1, &VerdictRules::default());
        assert_ne!(v.status, ConvergenceStatus::Collapsed);
    }

    fn settled(epochs: usize, churn: f64) -> DiagnosticsTracker {
        // Build a tracker whose churn series is 1.0 then `churn` forever,
        // by flipping labels only on the first observation.
        let mut t = DiagnosticsTracker::new();
        let balanced = Matrix::from_rows(&[&[0.9, 0.1], &[0.8, 0.2], &[0.3, 0.7], &[0.2, 0.8]]);
        for _ in 0..epochs {
            t.observe(&balanced, None);
        }
        // Overwrite the synthetic churn directly: verdict() only reads the
        // recorded series, so tests can shape it precisely.
        for (i, e) in t.epochs.iter_mut().enumerate() {
            e.delta_label_frac = if i == 0 { 1.0 } else { churn };
        }
        t
    }

    #[test]
    fn verdict_converged_with_deciding_epoch() {
        let t = settled(15, 0.0);
        let v = t.verdict(2, &VerdictRules::default());
        assert_eq!(v.status, ConvergenceStatus::Converged);
        assert_eq!(v.epoch, Some(1), "settled right after the first epoch");
        assert!(v.rule.contains("delta_label_frac"));
    }

    #[test]
    fn verdict_oscillating_when_churn_stays_high() {
        let t = settled(15, 0.3);
        let v = t.verdict(2, &VerdictRules::default());
        assert_eq!(v.status, ConvergenceStatus::Oscillating);
        assert_eq!(v.epoch, Some(14));
    }

    #[test]
    fn verdict_stalled_between_delta_and_oscillation() {
        let t = settled(15, 0.03);
        let v = t.verdict(2, &VerdictRules::default());
        assert_eq!(v.status, ConvergenceStatus::Stalled);
    }

    #[test]
    fn verdict_short_run_is_not_converged() {
        // Fewer epochs than the window: zero churn is not enough evidence.
        let t = settled(5, 0.0);
        let v = t.verdict(2, &VerdictRules::default());
        assert_ne!(v.status, ConvergenceStatus::Converged);
    }

    #[test]
    fn verdict_collapsed_on_terminal_dominance() {
        let mut t = DiagnosticsTracker::new();
        let balanced = Matrix::from_rows(&[&[0.9, 0.1], &[0.2, 0.8]]);
        let collapsed = Matrix::from_rows(&[&[0.9, 0.1], &[0.7, 0.3]]);
        for _ in 0..3 {
            t.observe(&balanced, None);
        }
        for _ in 0..4 {
            t.observe(&collapsed, None);
        }
        let v = t.verdict(2, &VerdictRules::default());
        assert_eq!(v.status, ConvergenceStatus::Collapsed);
        assert_eq!(v.epoch, Some(3), "collapse streak starts at epoch 3");
        assert!(v.rule.contains("max_share"));
        // Collapse outranks a converged tail (the labels stopped moving
        // *because* everything landed in one cluster).
        assert!(t.epochs()[6].delta_label_frac == 0.0);
    }

    #[test]
    fn verdict_unknown_without_epochs() {
        let t = DiagnosticsTracker::new();
        let v = t.verdict(4, &VerdictRules::default());
        assert_eq!(v.status, ConvergenceStatus::Unknown);
        assert_eq!(v.epoch, None);
    }

    #[test]
    fn status_round_trips_through_names() {
        for s in [
            ConvergenceStatus::Converged,
            ConvergenceStatus::Oscillating,
            ConvergenceStatus::Stalled,
            ConvergenceStatus::Collapsed,
            ConvergenceStatus::Unknown,
        ] {
            assert_eq!(ConvergenceStatus::from_name(s.as_str()), Some(s));
        }
        assert_eq!(ConvergenceStatus::from_name("nope"), None);
    }

    #[test]
    fn fit_ids_are_unique() {
        let a = next_fit_id();
        let b = next_fit_id();
        assert_ne!(a, b);
    }

    #[test]
    fn diag_event_carries_the_full_metric_set() {
        let mut t = DiagnosticsTracker::new();
        let d = t.observe(&toy_q(), None);
        let ((), lines) = obs::test_support::with_memory_sink(|| {
            emit_diag_event("tabledc.diag", None, 7, &d);
            emit_diag_event("baseline.diag", Some("sdcn"), 8, &d);
        });
        assert_eq!(lines.len(), 2);
        let v = obs::json::parse(&lines[0]).expect("valid JSON");
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
            assert!(v.get(key).is_some(), "missing {key}");
        }
        assert_eq!(v.get("fit").unwrap().as_f64(), Some(7.0));
        let b = obs::json::parse(&lines[1]).expect("valid JSON");
        assert_eq!(b.get("method").unwrap().as_str(), Some("sdcn"));
    }
}
