//! The epoch driver every deep-clustering method trains through.
//!
//! TableDC (Algorithm 1, lines 3–12) and the self-supervised baselines
//! (SDCN, DFCN, DCRN, EDESC) share one per-epoch protocol. A method hands
//! [`Driver::run`] its parameters, its optimizer and a closure that builds
//! one epoch's [`Objective`] on a fresh tape; the driver owns everything
//! around it, in this order:
//!
//! 1. fault injection ([`HealthConfig::nan_epoch`]) on the centers, when
//!    the method names them;
//! 2. the tape, the parameter binding and the objective;
//! 3. NaN/Inf checks on the loss scalars and the watched assignment
//!    matrix, before the backward pass, so a strict abort leaves neither a
//!    poisoned history entry nor a poisoned optimizer state behind;
//! 4. the backward pass, Adam's instrumented step and the
//!    non-finite-gradient check;
//! 5. step telemetry, the [`History`] pushes, the structural diagnostics
//!    (after the update, with the post-step centers) and the epoch's
//!    events;
//! 6. on a strict abort: the diagnostic dump, `health.abort` followed by
//!    `health.dump`, and the aborted verdict;
//! 7. the convergence verdict and its event.
//!
//! One loop means quality differences between methods come from their
//! objectives, not from their training protocol (§4.3). [`Method`] only
//! names the telemetry.

use std::sync::atomic::{AtomicU64, Ordering};

use autograd::{Tape, Var};
use nn::{Adam, BoundParams, ParamId, Params};
use obs::health::{HealthMonitor, HealthReport, Policy};
use obs::json::Json;
use tensor::Matrix;

use crate::diagnostics::{self, ConvergenceVerdict, DiagnosticsTracker, EpochDiagnostics, VerdictRules};

/// Health-monitoring knobs of a training run.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Explicit policy override; `None` reads `TABLEDC_HEALTH`
    /// (off/warn/strict, defaulting to warn).
    pub policy: Option<Policy>,
    /// Directory diagnostic dumps are written to on a strict-policy abort.
    pub dump_dir: String,
    /// The run's base RNG seed, recorded in dumps so an abort is
    /// reproducible. Metadata only — it never feeds the RNG.
    pub run_seed: Option<u64>,
    /// Fault injection: at the start of this epoch, poison the first
    /// cluster-center entry with NaN. In [`crate::TableDc::fit_best_of`]
    /// only the *first* restart is poisoned, so best-of-N recovery is
    /// testable.
    pub nan_epoch: Option<usize>,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self { policy: None, dump_dir: "results/dumps".to_string(), run_seed: None, nan_epoch: None }
    }
}

/// Declares [`History`] from one ordered list of per-epoch series, so the
/// struct and its name/value view ([`History::series`]) cannot drift apart.
macro_rules! history {
    ($($(#[$doc:meta])+ $name:ident,)+) => {
        /// Per-epoch training history — the raw series behind Figure 5.
        ///
        /// The field order is the run manifest's: the run ledger's writer and
        /// reader, the HTML report's sparklines and the strict-abort dump's
        /// tail all walk [`History::series`].
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct History {
            $($(#[$doc])+ pub $name: Vec<f64>,)+
        }

        impl History {
            /// Every series with its name, in manifest order.
            pub fn series(&self) -> [(&'static str, &[f64]); 12] {
                [$((stringify!($name), self.$name.as_slice())),+]
            }

            /// [`History::series`] with mutable access, for readers that
            /// fill a history by name.
            pub fn series_mut(&mut self) -> [(&'static str, &mut Vec<f64>); 12] {
                [$((stringify!($name), &mut self.$name)),+]
            }
        }
    };
}

history! {
    /// Reconstruction loss `re_loss` per epoch (Eq. 12).
    re_loss,
    /// Clustering loss `KL(p‖m)` per epoch (Eq. 10); TableDC only.
    ce_loss,
    /// Reported divergence `KL(p‖q)` per epoch (the quantity plotted in
    /// Figure 5's right panel).
    kl_pq,
    /// Global gradient L2 norm per epoch (across all parameters).
    grad_norm,
    /// Update-to-parameter-norm ratio `‖Δθ‖/‖θ‖` per epoch.
    update_ratio,
    /// Wall-clock milliseconds per joint-training epoch. Always recorded
    /// (a monotonic-clock read per epoch), independent of whether the
    /// `TABLEDC_TRACE` event sink is active.
    epoch_ms,
    /// Normalized entropy of the hard-label cluster shares per epoch
    /// (see [`crate::diagnostics::EpochDiagnostics::share_entropy`]).
    share_entropy,
    /// Smallest cluster share per epoch.
    min_share,
    /// Largest cluster share per epoch (collapse detector).
    max_share,
    /// Fraction of rows whose hard label changed vs the previous epoch.
    delta_label_frac,
    /// Mean `top1 − top2` assignment margin per epoch.
    mean_margin,
    /// Mean L2 centroid step vs the previous epoch.
    centroid_drift,
}

impl History {
    /// Pushes one epoch of structural diagnostics (the loss/gradient
    /// series are pushed individually by the driver).
    pub fn push_diagnostics(&mut self, d: &EpochDiagnostics) {
        self.share_entropy.push(d.share_entropy);
        self.min_share.push(d.min_share);
        self.max_share.push(d.max_share);
        self.delta_label_frac.push(d.delta_label_frac);
        self.mean_margin.push(d.mean_margin);
        self.centroid_drift.push(d.centroid_drift);
    }
}

/// Which method is training. It fixes the names of the run's events,
/// metrics and health tensors, and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// TableDC: `tabledc.epoch`/`tabledc.diag`/`tabledc.convergence` and
    /// `nn.grad_norm` events without a `method` field, `tabledc.*` metrics
    /// (the optimizer's step statistics as `tabledc.nn.*`) and unprefixed
    /// health tensors.
    TableDc,
    /// A deep baseline (`"sdcn"`, …): `baseline.*` and `nn.grad_norm`
    /// events stamped with `method`, and `<method>.*` metrics and health
    /// tensors.
    Baseline(&'static str),
}

impl Method {
    /// The event-name family, the metric-name prefix and the `method`
    /// field (which also prefixes health tensors).
    fn names(self) -> (&'static str, &'static str, Option<&'static str>) {
        match self {
            Method::TableDc => ("tabledc", "tabledc", None),
            Method::Baseline(m) => ("baseline", m, Some(m)),
        }
    }
}

/// One epoch's objective, built by a method on the driver's tape.
pub struct Objective {
    /// The scalar the optimizer minimizes.
    pub loss: Var,
    /// The reconstruction term `re_loss`.
    pub re: Var,
    /// The reported divergence `KL(p‖q)`.
    pub kl_pq: f64,
    /// The `n × k` assignment matrix the diagnostics watch and the labels
    /// come from: `q`, or SDCN's GCN distribution `Z`, or EDESC's `s`.
    pub assign: Var,
    /// TableDC's clustering loss `KL(p‖m)` (Eq. 10), reported as
    /// `ce_loss`.
    pub ce: Option<Var>,
}

/// What a run hands back.
pub struct Trained {
    /// The last completed epoch's assignment matrix; `None` when no epoch
    /// completed.
    pub assign: Option<Matrix>,
    /// The per-epoch series.
    pub history: History,
    /// The numerical-health verdict.
    pub health: HealthReport,
    /// The structural convergence verdict.
    pub convergence: ConvergenceVerdict,
}

/// One training run's protocol settings.
pub struct Driver {
    /// The method whose names the telemetry carries.
    pub method: Method,
    /// Number of clusters (for the convergence verdict's collapse rule).
    pub k: usize,
    /// Epochs to run.
    pub epochs: usize,
    /// Health policy, dump directory, run seed and fault injection.
    pub health: HealthConfig,
    /// The cluster-centers parameter, when the method has one: the target
    /// of fault injection and the input of the centroid-drift diagnostic.
    pub centers: Option<ParamId>,
    /// The configuration summary a strict-abort dump records.
    pub config: Json,
}

impl Driver {
    /// Trains for [`Driver::epochs`] epochs. Each epoch binds `params` to a
    /// fresh tape, puts the `data` matrices on it as borrowed constants and
    /// builds the method's objective with `objective`, then checks, steps
    /// `adam` and observes as the module docs describe. A strict-policy
    /// violation ends the run early, with only the completed epochs in the
    /// history.
    pub fn run<const N: usize>(
        self,
        params: &mut Params,
        adam: &mut Adam,
        data: [&Matrix; N],
        mut objective: impl FnMut(&Tape<'_>, &BoundParams<'_>, [Var; N]) -> Objective,
    ) -> Trained {
        let (family, prefix, method) = self.method.names();
        let tensor = |name: &str| method.map_or_else(|| name.to_string(), |m| format!("{m}.{name}"));
        let event = |kind: &str| {
            let ev = obs::event(&format!("{family}.{kind}"));
            match method {
                Some(m) => ev.str("method", m),
                None => ev,
            }
        };
        let fit_id = diagnostics::next_fit_id();
        let reg = obs::registry();
        let epoch_hist = reg.histogram(&format!("{prefix}.epoch_ms"));
        let diag_event = format!("{family}.diag");
        let mut monitor = HealthMonitor::new(self.health.policy.unwrap_or_else(Policy::from_env));
        let mut tracker = DiagnosticsTracker::new();
        let mut history = History::default();
        let mut assign = None;

        for epoch in 0..self.epochs {
            let epoch_start = std::time::Instant::now();
            let e = epoch as u64;
            if let Some(c) = self.centers.filter(|_| self.health.nan_epoch == Some(epoch)) {
                // Fault injection (tests/diagnostics): poison one center
                // entry; the NaN propagates through d², q, and the losses
                // exactly like a real divergence would.
                params.get_mut(c)[(0, 0)] = f64::NAN;
            }
            // The tape borrows the parameters and the data; the parameters
            // are updated once the tape is done.
            let tape = Tape::new();
            let bound = params.bind(&tape);
            let obj = objective(&tape, &bound, data.map(|x| tape.constant_ref(x)));
            let scalar = |v: Var| tape.value(v)[(0, 0)];
            let re = scalar(obj.re);
            let ce = obj.ce.map(scalar);
            let loss = scalar(obj.loss);

            // Health checks before the history pushes and the update.
            let scalars = [("re_loss", Some(re)), ("ce_loss", ce), ("kl_pq", Some(obj.kl_pq)), ("loss", Some(loss))];
            let mut abort = scalars
                .into_iter()
                .filter_map(|(name, v)| Some((tensor(name), v?)))
                .find(|(name, v)| monitor.check_scalar(name, *v, e).should_abort())
                .map(|(name, _)| name);
            if abort.is_none() {
                let q = tensor("q");
                if tape.with_value(obj.assign, |a| monitor.check_slice(&q, a.as_slice(), e)).should_abort() {
                    abort = Some(q);
                }
            }
            if let Some(tensor) = abort {
                self.abort(&mut monitor, params, &history, &tensor, epoch);
                break;
            }

            // Backprop and update, instrumented with gradient and
            // update-norm telemetry. The epoch's assignment matrix leaves
            // the tape (moved, not copied) before the update ends its
            // borrow of the parameters.
            let grads = bound.backward(obj.loss);
            let epoch_assign = tape.take_value(obj.assign);
            let stats = adam.step_instrumented(params, &grads);
            if let Some(id) = stats.nonfinite_grad {
                let name = tensor(&format!("grad.{}", params.name(id)));
                let norm = stats.grad_norms.iter().find(|(i, _)| *i == id).map_or(f64::NAN, |&(_, n)| n);
                if monitor.check_scalar(&name, norm, e).should_abort() {
                    self.abort(&mut monitor, params, &history, &name, epoch);
                    break;
                }
            }
            stats.record(prefix, params);
            stats.emit_event(e, fit_id, method);

            history.re_loss.push(re);
            history.ce_loss.extend(ce);
            history.kl_pq.push(obj.kl_pq);
            history.grad_norm.push(stats.global_grad_norm);
            history.update_ratio.push(stats.update_ratio());

            // Per-epoch telemetry: the convergence signal behind Figure 5
            // plus the structural diagnostics (cluster shares, churn,
            // margin, centroid drift). Pure observation — nothing here
            // feeds back into training.
            let diag = tracker.observe(&epoch_assign, self.centers.map(|c| params.get(c)));
            history.push_diagnostics(&diag);

            let epoch_ms = epoch_start.elapsed().as_secs_f64() * 1e3;
            history.epoch_ms.push(epoch_ms);
            epoch_hist.record(epoch_ms);
            let mut ev = event("epoch").u64("fit", fit_id).u64("epoch", e).f64("re_loss", re);
            if let Some(ce) = ce {
                ev = ev.f64("ce_loss", ce);
            }
            ev.f64("kl_pq", obj.kl_pq)
                .f64("loss", loss)
                .f64("delta_label_frac", diag.delta_label_frac)
                .f64("grad_norm", stats.global_grad_norm)
                .f64("update_ratio", stats.update_ratio())
                .f64("epoch_ms", epoch_ms)
                .emit();
            diagnostics::emit_diag_event(&diag_event, method, fit_id, &diag);

            assign = Some(epoch_assign);
        }

        let convergence = tracker.verdict(self.k, &VerdictRules::default());
        event("convergence")
            .u64("fit", fit_id)
            .str("status", convergence.status.as_str())
            .i64("epoch", convergence.epoch.map_or(-1, |e| e as i64))
            .str("rule", &convergence.rule)
            .emit();
        Trained { assign, history, health: monitor.report(), convergence }
    }

    /// Strict-policy abort path: writes the diagnostic dump, emits the
    /// `health.abort` event followed by the `health.dump` event naming the
    /// dump file (an invariant `trace_check` enforces), and marks the
    /// monitor aborted. The caller breaks out of the epoch loop.
    fn abort(&self, monitor: &mut HealthMonitor, params: &Params, history: &History, tensor: &str, epoch: usize) {
        let path = self.write_dump(monitor, params, history, tensor, epoch);
        if let Some(p) = &path {
            obs::event("health.abort")
                .str("tensor", tensor)
                .u64("epoch", epoch as u64)
                .str("policy", monitor.policy().as_str())
                .emit();
            obs::event("health.dump").str("path", p).emit();
        }
        monitor.mark_aborted(path);
    }

    /// Writes a strict-abort diagnostic dump: offending tensor, policy,
    /// seed, config summary, recorded violations, per-parameter L2 norms,
    /// and the last 8 epochs of every [`History`] series. Returns the path,
    /// or `None` if neither the configured dump dir nor the system temp dir
    /// is writable.
    fn write_dump(
        &self,
        monitor: &HealthMonitor,
        params: &Params,
        history: &History,
        tensor: &str,
        epoch: usize,
    ) -> Option<String> {
        /// Monotone counter making dump filenames unique within a process
        /// even when two aborts land in the same millisecond.
        static DUMP_COUNTER: AtomicU64 = AtomicU64::new(0);

        let violations = monitor.violations().iter().map(|v| {
            Json::obj([
                ("tensor", v.tensor.as_str().into()),
                ("kind", v.kind.into()),
                ("index", v.index.into()),
                ("epoch", v.epoch.into()),
            ])
        });
        let param_norms = params
            .ids()
            .map(|id| (params.name(id).to_string(), params.get(id).frobenius_sq().sqrt().into()));
        let recent = history
            .series()
            .map(|(name, values)| (name.to_string(), values[values.len().saturating_sub(8)..].into()));
        let dump = Json::obj([
            ("tensor", tensor.into()),
            ("epoch", epoch.into()),
            ("policy", monitor.policy().as_str().into()),
            ("seed", self.health.run_seed.into()),
            ("config", self.config.clone()),
            ("violations", Json::Arr(violations.collect())),
            ("param_norms", Json::Obj(param_norms.collect())),
            ("recent", Json::Obj(recent.into())),
        ]);
        let out = dump.render(2) + "\n";

        let ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        let seq = DUMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let file = format!("dump-{ms}-{seq}.json");
        for dir in [std::path::PathBuf::from(&self.health.dump_dir), std::env::temp_dir()] {
            if std::fs::create_dir_all(&dir).is_err() {
                continue;
            }
            let path = dir.join(&file);
            if std::fs::write(&path, &out).is_ok() {
                return Some(path.to_string_lossy().into_owned());
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::health::Verdict;

    /// A driver for a toy baseline `method` into 2 clusters under `health`.
    fn toy_driver(method: &'static str, epochs: usize, health: HealthConfig) -> Driver {
        Driver {
            method: Method::Baseline(method),
            k: 2,
            epochs,
            health,
            centers: None,
            config: Json::obj([("method", method.into())]),
        }
    }

    fn policy(p: Policy) -> HealthConfig {
        HealthConfig { policy: Some(p), ..HealthConfig::default() }
    }

    /// Runs `driver` on a toy objective: a quadratic in one weight as the
    /// loss, its square as `re_loss`, a fixed 4 × 2 assignment matrix, and
    /// a loss scaled by NaN from epoch `nan_from` on.
    fn run_toy(driver: Driver, nan_from: usize) -> Trained {
        let mut params = Params::new();
        let w = params.register_named("w", Matrix::full(1, 1, 2.0));
        let q = Matrix::from_rows(&[&[0.9, 0.1], &[0.2, 0.8], &[0.1, 0.9], &[0.7, 0.3]]);
        let mut epoch = 0;
        driver.run(&mut params, &mut Adam::new(0.1), [&q], |t, bound, [qv]| {
            let re = t.sum(t.square(bound.var(w)));
            let scale = if epoch >= nan_from { f64::NAN } else { 1.0 };
            epoch += 1;
            Objective { loss: t.scale(re, scale), re, kl_pq: 0.1, assign: qv, ce: None }
        })
    }

    #[test]
    fn driver_emits_diag_events_and_renders_a_verdict() {
        let (trained, lines) =
            obs::test_support::with_memory_sink(|| run_toy(toy_driver("unit", 12, policy(Policy::Warn)), usize::MAX));
        assert_eq!(trained.health.verdict, Verdict::Healthy);
        assert_eq!(trained.history.re_loss.len(), 12);
        assert!(trained.history.ce_loss.is_empty(), "a method without a clustering loss has no ce_loss");
        // Constant labels: settled after the first full-churn epoch.
        assert_eq!(trained.convergence.status, crate::ConvergenceStatus::Converged);
        assert_eq!(trained.convergence.epoch, Some(1));
        assert_eq!(trained.assign.expect("epochs completed").argmax_rows(), vec![0, 1, 1, 0]);
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
    fn driver_aborts_on_strict_nan_before_diagnostics() {
        let dir = std::env::temp_dir().join(format!("tabledc-dumps-driver-first-{}", std::process::id()));
        let health = HealthConfig { dump_dir: dir.to_string_lossy().into_owned(), ..policy(Policy::Strict) };
        let (trained, lines) = obs::test_support::with_memory_sink(|| run_toy(toy_driver("unit2", 4, health), 0));
        assert_eq!(trained.health.verdict, Verdict::Aborted);
        assert!(trained.assign.is_none() && trained.history.re_loss.is_empty());
        // The aborting epoch emits neither baseline.epoch nor baseline.diag.
        assert!(!lines.iter().any(|l| l.contains("\"baseline.epoch\"")));
        assert!(!lines.iter().any(|l| l.contains("\"baseline.diag\"")));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn strict_baseline_abort_reports_aborted_with_a_readable_dump() {
        let dir = std::env::temp_dir().join(format!("tabledc-dumps-driver-{}", std::process::id()));
        let health = HealthConfig { dump_dir: dir.to_string_lossy().into_owned(), ..policy(Policy::Strict) };
        let nan_epoch = 3;
        let aborts_before = obs::health::global_counts().1;
        let (trained, lines) =
            obs::test_support::with_memory_sink(|| run_toy(toy_driver("toy", 10, health), nan_epoch));

        assert_eq!(trained.health.verdict, Verdict::Aborted);
        assert_eq!(trained.history.re_loss.len(), nan_epoch);
        assert_eq!(trained.history.grad_norm.len(), nan_epoch);
        assert!(obs::health::global_counts().1 > aborts_before, "health.aborts must rise");
        let first = &trained.health.violations[0];
        assert_eq!((first.tensor.as_str(), first.epoch), ("toy.loss", nan_epoch as u64));

        let dump = trained.health.dump_path.clone().expect("dump written on strict abort");
        let v = obs::json::parse(&std::fs::read_to_string(&dump).expect("dump readable")).expect("dump is JSON");
        assert_eq!(v.get("tensor").unwrap().as_str(), Some("toy.loss"));
        assert_eq!(v.get("epoch").unwrap().as_f64(), Some(nan_epoch as f64));
        assert_eq!(v.get("policy").unwrap().as_str(), Some("strict"));
        assert_eq!(v.get("config").unwrap().get("method").unwrap().as_str(), Some("toy"));
        assert!(v.get("param_norms").unwrap().get("w").is_some());

        // health.abort precedes health.dump; the aborted epoch emitted no
        // epoch event.
        let abort_idx = lines.iter().position(|l| l.contains("\"health.abort\""));
        let dump_idx = lines.iter().position(|l| l.contains("\"health.dump\""));
        assert!(abort_idx.is_some() && abort_idx < dump_idx, "health.abort must precede health.dump");
        assert_eq!(lines.iter().filter(|l| l.contains("\"baseline.epoch\"")).count(), nan_epoch);
        std::fs::remove_dir_all(dir).ok();
    }
}
