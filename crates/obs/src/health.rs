//! Training-health monitoring: NaN/Inf detection over losses, gradients,
//! and assignment matrices, with a configurable fail-fast policy.
//!
//! Deep-clustering runs on heterogeneous tabular embeddings are prone to
//! *silent* divergence — a NaN appears in one gradient, poisons the Adam
//! moments, and the run finishes with garbage labels that still parse as a
//! result. The [`HealthMonitor`] turns that failure mode into an explicit,
//! attributable verdict:
//!
//! * **`off`** — no scanning at all; `check_*` returns immediately. The
//!   zero-overhead mode the perf gate runs under.
//! * **`warn`** (the default) — violations are counted, recorded (up to a
//!   cap), and emitted as `health.violation` events, but training
//!   continues. Good for post-hoc forensics on exploratory runs.
//! * **`strict`** — the first violation tells the caller to abort; the
//!   training loop is expected to stop cleanly, write a diagnostic dump,
//!   and mark its output as aborted.
//!
//! The policy comes from the `TABLEDC_HEALTH` environment variable (read
//! per [`Policy::from_env`] call, so tests can construct monitors with an
//! explicit policy instead of racing on the environment). Violations and
//! aborts are also counted process-wide ([`global_counts`]), so multi-fit
//! drivers (`repro`) can roll up a whole run's verdict without threading
//! monitors through every call.
//!
//! This module is numeric-free on the happy path: scanning is a single
//! pass of `f64::is_finite` and nothing here feeds back into training.

use std::sync::atomic::{AtomicU64, Ordering};

/// Name of the environment variable selecting the health policy.
pub const HEALTH_ENV: &str = "TABLEDC_HEALTH";

/// Maximum number of violations kept in memory per monitor. The counter
/// keeps counting past the cap; only the stored details are bounded, so a
/// run that NaNs on every epoch cannot grow without bound.
pub const MAX_STORED_VIOLATIONS: usize = 64;

/// Health-check policy (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// No checks at all.
    Off,
    /// Record and emit violations, never abort.
    #[default]
    Warn,
    /// First violation requests an abort.
    Strict,
}

impl Policy {
    /// Reads `TABLEDC_HEALTH`. Unset, empty, or unrecognized values map to
    /// [`Policy::Warn`]; `off`/`warn`/`strict` (case-insensitive) select
    /// the matching policy.
    pub fn from_env() -> Policy {
        match std::env::var(HEALTH_ENV) {
            Err(_) => Policy::Warn,
            Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
                "off" => Policy::Off,
                "strict" => Policy::Strict,
                _ => Policy::Warn,
            },
        }
    }

    /// Lowercase policy name (`"off"`, `"warn"`, `"strict"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Policy::Off => "off",
            Policy::Warn => "warn",
            Policy::Strict => "strict",
        }
    }
}

/// One detected non-finite value.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Name of the offending tensor/scalar (`"q"`, `"re_loss"`,
    /// `"grad.enc.l0.w"`, …).
    pub tensor: String,
    /// `"nan"` or `"inf"`.
    pub kind: &'static str,
    /// Flat index of the first offending entry (0 for scalars).
    pub index: usize,
    /// Epoch (or step) the violation was detected in.
    pub epoch: u64,
}

/// Overall verdict of a monitored run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No violations observed.
    Healthy,
    /// Violations observed, run completed (policy `warn`).
    Warned,
    /// Run stopped early on a violation (policy `strict`).
    Aborted,
}

impl Verdict {
    /// Lowercase verdict name.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Healthy => "healthy",
            Verdict::Warned => "warned",
            Verdict::Aborted => "aborted",
        }
    }

    /// Severity rank: healthy 0, warned 1, aborted 2. The run-ledger diff
    /// treats a rank increase between two runs as a regression.
    pub fn rank(self) -> u64 {
        match self {
            Verdict::Healthy => 0,
            Verdict::Warned => 1,
            Verdict::Aborted => 2,
        }
    }
}

/// What the caller should do after a check.
#[must_use = "a strict-policy violation requires the caller to abort"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Keep training.
    Continue,
    /// Stop the epoch loop (strict policy, violation found).
    Abort,
}

impl Action {
    /// True when the caller must stop the training loop.
    pub fn should_abort(self) -> bool {
        matches!(self, Action::Abort)
    }
}

/// Immutable summary of a monitored run, carried in fit results.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Policy the run was checked under.
    pub policy: Policy,
    /// Overall verdict.
    pub verdict: Verdict,
    /// Total violations detected (may exceed `violations.len()`).
    pub total_violations: u64,
    /// Stored violation details (capped at [`MAX_STORED_VIOLATIONS`]).
    pub violations: Vec<Violation>,
    /// Path of the diagnostic dump, when the run aborted and a dump was
    /// written.
    pub dump_path: Option<String>,
}

impl Default for HealthReport {
    /// A healthy report under the `off` policy — the neutral value for
    /// outputs that were never monitored.
    fn default() -> Self {
        Self {
            policy: Policy::Off,
            verdict: Verdict::Healthy,
            total_violations: 0,
            violations: Vec::new(),
            dump_path: None,
        }
    }
}

/// Stateful NaN/Inf monitor for one training run.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    policy: Policy,
    violations: Vec<Violation>,
    total: u64,
    aborted: bool,
    dump_path: Option<String>,
}

impl HealthMonitor {
    /// Monitor with an explicit policy (tests and config overrides).
    pub fn new(policy: Policy) -> Self {
        Self { policy, violations: Vec::new(), total: 0, aborted: false, dump_path: None }
    }

    /// The monitor's policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Checks one scalar (a loss value, a norm).
    pub fn check_scalar(&mut self, tensor: &str, value: f64, epoch: u64) -> Action {
        if self.policy == Policy::Off || value.is_finite() {
            return Action::Continue;
        }
        self.record(tensor, kind_of(value), 0, epoch)
    }

    /// Checks every entry of a flat tensor, reporting the first offender.
    pub fn check_slice(&mut self, tensor: &str, values: &[f64], epoch: u64) -> Action {
        if self.policy == Policy::Off {
            return Action::Continue;
        }
        match values.iter().position(|v| !v.is_finite()) {
            None => Action::Continue,
            Some(index) => self.record(tensor, kind_of(values[index]), index, epoch),
        }
    }

    fn record(&mut self, tensor: &str, kind: &'static str, index: usize, epoch: u64) -> Action {
        self.total += 1;
        VIOLATIONS.fetch_add(1, Ordering::Relaxed);
        if self.violations.len() < MAX_STORED_VIOLATIONS {
            self.violations.push(Violation { tensor: tensor.to_string(), kind, index, epoch });
        }
        crate::event("health.violation")
            .str("tensor", tensor)
            .str("kind", kind)
            .u64("index", index as u64)
            .u64("epoch", epoch)
            .str("policy", self.policy.as_str())
            .emit();
        if self.policy == Policy::Strict {
            Action::Abort
        } else {
            Action::Continue
        }
    }

    /// Marks the run as aborted, optionally attaching the diagnostic-dump
    /// path. Counts one process-wide abort ([`global_counts`]).
    pub fn mark_aborted(&mut self, dump_path: Option<String>) {
        self.aborted = true;
        self.dump_path = dump_path;
        ABORTS.fetch_add(1, Ordering::Relaxed);
    }

    /// True once [`HealthMonitor::mark_aborted`] has been called.
    pub fn aborted(&self) -> bool {
        self.aborted
    }

    /// Violations stored so far (capped; see [`MAX_STORED_VIOLATIONS`]).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The run's verdict so far.
    pub fn verdict(&self) -> Verdict {
        if self.aborted {
            Verdict::Aborted
        } else if self.total > 0 {
            Verdict::Warned
        } else {
            Verdict::Healthy
        }
    }

    /// Snapshot of the monitor as an immutable [`HealthReport`].
    pub fn report(&self) -> HealthReport {
        HealthReport {
            policy: self.policy,
            verdict: self.verdict(),
            total_violations: self.total,
            violations: self.violations.clone(),
            dump_path: self.dump_path.clone(),
        }
    }
}

/// Violations recorded by every monitor in the process.
static VIOLATIONS: AtomicU64 = AtomicU64::new(0);
/// Aborts marked by every monitor in the process.
static ABORTS: AtomicU64 = AtomicU64::new(0);

/// Process-wide `(violations, aborts)` counts — the roll-up the `repro`
/// driver records in its run manifest.
pub fn global_counts() -> (u64, u64) {
    (VIOLATIONS.load(Ordering::Relaxed), ABORTS.load(Ordering::Relaxed))
}

fn kind_of(v: f64) -> &'static str {
    if v.is_nan() {
        "nan"
    } else {
        "inf"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parsing_and_names() {
        assert_eq!(Policy::default(), Policy::Warn);
        assert_eq!(Policy::Off.as_str(), "off");
        assert_eq!(Policy::Strict.as_str(), "strict");
        assert!(Verdict::Aborted.rank() > Verdict::Warned.rank());
        assert!(Verdict::Warned.rank() > Verdict::Healthy.rank());
    }

    #[test]
    fn off_policy_never_flags() {
        let mut m = HealthMonitor::new(Policy::Off);
        assert_eq!(m.check_scalar("loss", f64::NAN, 0), Action::Continue);
        assert_eq!(m.check_slice("q", &[1.0, f64::INFINITY], 1), Action::Continue);
        assert_eq!(m.verdict(), Verdict::Healthy);
        assert!(m.violations().is_empty());
    }

    #[test]
    fn warn_policy_records_but_continues() {
        let mut m = HealthMonitor::new(Policy::Warn);
        assert_eq!(m.check_scalar("re_loss", f64::NAN, 3), Action::Continue);
        assert_eq!(m.check_slice("q", &[0.5, f64::NEG_INFINITY, 0.5], 4), Action::Continue);
        assert_eq!(m.verdict(), Verdict::Warned);
        let report = m.report();
        assert_eq!(report.total_violations, 2);
        assert_eq!(report.violations[0].tensor, "re_loss");
        assert_eq!(report.violations[0].kind, "nan");
        assert_eq!(report.violations[1].kind, "inf");
        assert_eq!(report.violations[1].index, 1);
    }

    #[test]
    fn strict_policy_requests_abort_and_reports_it() {
        let mut m = HealthMonitor::new(Policy::Strict);
        assert_eq!(m.check_scalar("ok", 1.0, 0), Action::Continue);
        let action = m.check_scalar("ce_loss", f64::INFINITY, 7);
        assert!(action.should_abort());
        m.mark_aborted(Some("results/dumps/x.json".into()));
        let report = m.report();
        assert_eq!(report.verdict, Verdict::Aborted);
        assert_eq!(report.dump_path.as_deref(), Some("results/dumps/x.json"));
        assert_eq!(report.violations[0].epoch, 7);
    }

    #[test]
    fn stored_violations_are_capped_but_counted() {
        let mut m = HealthMonitor::new(Policy::Warn);
        for i in 0..(MAX_STORED_VIOLATIONS as u64 + 10) {
            let _ = m.check_scalar("loss", f64::NAN, i);
        }
        assert_eq!(m.violations().len(), MAX_STORED_VIOLATIONS);
        assert_eq!(m.report().total_violations, MAX_STORED_VIOLATIONS as u64 + 10);
    }

    #[test]
    fn violations_emit_structured_events() {
        let ((), lines) = crate::test_support::with_memory_sink(|| {
            let mut m = HealthMonitor::new(Policy::Warn);
            let _ = m.check_slice("q", &[1.0, f64::NAN], 5);
        });
        let line = lines
            .iter()
            .find(|l| l.contains("\"health.violation\""))
            .expect("violation event emitted");
        let v = crate::json::parse(line).expect("valid JSON");
        assert_eq!(v.get("tensor").unwrap().as_str(), Some("q"));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("nan"));
        assert_eq!(v.get("index").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("epoch").unwrap().as_f64(), Some(5.0));
    }

    #[test]
    fn default_report_is_healthy() {
        let r = HealthReport::default();
        assert_eq!(r.verdict, Verdict::Healthy);
        assert_eq!(r.total_violations, 0);
        assert!(r.dump_path.is_none());
    }
}
