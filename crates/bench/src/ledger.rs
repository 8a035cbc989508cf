//! The run ledger: persistent per-run manifests and their comparison.
//!
//! Every `repro` invocation and the quickstart example persist a
//! [`RunManifest`] — config, seed, `TABLEDC_*` environment, git revision,
//! per-epoch metric history, health verdict, and final quality metrics —
//! as `results/runs/<run-id>.json` (directory overridable via
//! `TABLEDC_RUNS_DIR`). The `runs` binary lists, shows, and diffs these
//! manifests; the diff reuses the perf gate's two-sided comparison core
//! ([`compare_rows`]) with quality metrics oriented higher-is-better and
//! the health verdict encoded as a numeric severity rank.

use std::path::PathBuf;

use obs::json::{parse, Json};
use tabledc::History;

use crate::perfdiff::{compare_rows, Better, DiffReport, Tolerance};

/// Environment variable overriding the manifest directory.
pub const RUNS_DIR_ENV: &str = "TABLEDC_RUNS_DIR";

/// Default manifest directory, relative to the working directory.
pub const DEFAULT_RUNS_DIR: &str = "results/runs";

/// Absolute floor for quality-metric deltas in [`diff_manifests`]: a
/// metric must drop by more than this *and* by more than the ratio to
/// count as a regression (ACC/ARI/NMI all live in [-1, 1], so 0.05 is a
/// five-point swing).
pub const METRIC_FLOOR: f64 = 0.05;

/// Absolute floor for the health-rank row: any verdict step
/// (healthy → warned → aborted) exceeds it.
pub const HEALTH_FLOOR: f64 = 0.5;

/// Health outcome of a run, as persisted in the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSummary {
    /// Policy the run was checked under (`off`/`warn`/`strict`).
    pub policy: String,
    /// Verdict (`healthy`/`warned`/`aborted`).
    pub verdict: String,
    /// Total violations detected.
    pub violations: u64,
    /// Diagnostic dump path, when the run aborted.
    pub dump_path: Option<String>,
}

impl HealthSummary {
    /// Summary of an [`obs::HealthReport`].
    pub fn from_report(report: &obs::HealthReport) -> Self {
        Self {
            policy: report.policy.as_str().to_string(),
            verdict: report.verdict.as_str().to_string(),
            violations: report.total_violations,
            dump_path: report.dump_path.clone(),
        }
    }

    /// Severity rank mirroring [`obs::health::Verdict::rank`]; unknown
    /// verdict strings rank as aborted so a corrupt manifest never hides a
    /// regression.
    pub fn rank(&self) -> f64 {
        match self.verdict.as_str() {
            "healthy" => 0.0,
            "warned" => 1.0,
            _ => 2.0,
        }
    }
}

impl Default for HealthSummary {
    fn default() -> Self {
        Self {
            policy: "warn".to_string(),
            verdict: "healthy".to_string(),
            violations: 0,
            dump_path: None,
        }
    }
}

/// Structural convergence verdict of a run, as persisted in the manifest.
///
/// Optional in the schema so manifests written before the diagnostics
/// layer still parse (they load as `None`).
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceSummary {
    /// Verdict (`converged`/`oscillating`/`stalled`/`collapsed`/`unknown`).
    pub status: String,
    /// Epoch the deciding rule first fired at, when one did.
    pub epoch: Option<u64>,
    /// Human-readable statement of the deciding rule.
    pub rule: String,
}

impl ConvergenceSummary {
    /// Summary of a [`tabledc::ConvergenceVerdict`].
    pub fn from_verdict(v: &tabledc::ConvergenceVerdict) -> Self {
        Self {
            status: v.status.as_str().to_string(),
            epoch: v.epoch.map(|e| e as u64),
            rule: v.rule.clone(),
        }
    }
}

/// One persisted run: everything needed to identify, reproduce, and
/// compare it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Unique id, also the file stem (`<command>-<unix-ms>-<pid>`).
    pub run_id: String,
    /// What produced the run (`repro table2`, `quickstart`, …).
    pub command: String,
    /// Creation time, milliseconds since the Unix epoch.
    pub created_unix_ms: u64,
    /// `git describe --always --dirty` output, or `"unknown"`.
    pub git: String,
    /// Base RNG seed.
    pub seed: u64,
    /// Dataset scale description.
    pub scale: String,
    /// Epoch multiplier.
    pub epoch_factor: f64,
    /// All `TABLEDC_*` environment overrides active during the run.
    pub env: Vec<(String, String)>,
    /// Health outcome.
    pub health: HealthSummary,
    /// Structural convergence verdict (`None` for manifests written
    /// before the diagnostics layer existed).
    pub convergence: Option<ConvergenceSummary>,
    /// Final quality metrics, keyed `dataset/method/metric`-style by the
    /// producer (compared higher-is-better by [`diff_manifests`]).
    pub metrics: Vec<(String, f64)>,
    /// Per-epoch metric history, written in [`History::series`] order.
    pub history: History,
}

impl RunManifest {
    /// Creates a manifest shell stamped with the current time, process,
    /// git revision, and `TABLEDC_*` environment.
    pub fn new(command: &str) -> Self {
        let created_unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        let slug: String = command
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let mut env: Vec<(String, String)> =
            std::env::vars().filter(|(k, _)| k.starts_with("TABLEDC_")).collect();
        env.sort();
        Self {
            run_id: format!("{slug}-{created_unix_ms}-{}", std::process::id()),
            command: command.to_string(),
            created_unix_ms,
            git: git_describe(),
            seed: 0,
            scale: String::new(),
            epoch_factor: 1.0,
            env,
            health: HealthSummary::default(),
            convergence: None,
            metrics: Vec::new(),
            history: History::default(),
        }
    }

    /// Serializes the manifest as JSON text: two levels broken one member
    /// per line, newline-terminated.
    pub fn to_json(&self) -> String {
        let mut members = vec![
            ("run_id", self.run_id.as_str().into()),
            ("command", self.command.as_str().into()),
            ("created_unix_ms", self.created_unix_ms.into()),
            ("git", self.git.as_str().into()),
            ("seed", self.seed.into()),
            ("scale", self.scale.as_str().into()),
            ("epoch_factor", self.epoch_factor.into()),
            (
                "env",
                Json::Obj(self.env.iter().map(|(k, v)| (k.clone(), v.as_str().into())).collect()),
            ),
            (
                "health",
                Json::obj([
                    ("policy", self.health.policy.as_str().into()),
                    ("verdict", self.health.verdict.as_str().into()),
                    ("violations", self.health.violations.into()),
                    ("dump_path", self.health.dump_path.as_deref().into()),
                ]),
            ),
        ];
        if let Some(c) = &self.convergence {
            members.push((
                "convergence",
                Json::obj([
                    ("status", c.status.as_str().into()),
                    ("epoch", c.epoch.into()),
                    ("rule", c.rule.as_str().into()),
                ]),
            ));
        }
        members.push((
            "metrics",
            Json::Obj(self.metrics.iter().map(|(k, v)| (k.clone(), (*v).into())).collect()),
        ));
        let history = self.history.series().map(|(name, values)| (name.to_string(), values.into()));
        members.push(("history", Json::Obj(history.into())));
        Json::obj(members).render(2) + "\n"
    }

    /// Parses a manifest from JSON text.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = parse(text.trim())?;
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("manifest missing string field {key:?}"))
        };
        let num_field = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("manifest missing numeric field {key:?}"))
        };
        let mut env = Vec::new();
        if let Some(Json::Obj(pairs)) = v.get("env") {
            for (k, val) in pairs {
                if let Some(s) = val.as_str() {
                    env.push((k.clone(), s.to_string()));
                }
            }
        }
        let health = match v.get("health") {
            Some(h) => HealthSummary {
                policy: h.get("policy").and_then(Json::as_str).unwrap_or("warn").to_string(),
                verdict: h.get("verdict").and_then(Json::as_str).unwrap_or("healthy").to_string(),
                violations: h.get("violations").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                dump_path: h.get("dump_path").and_then(Json::as_str).map(str::to_string),
            },
            None => return Err("manifest missing \"health\" object".to_string()),
        };
        let convergence = v.get("convergence").map(|c| ConvergenceSummary {
            status: c.get("status").and_then(Json::as_str).unwrap_or("unknown").to_string(),
            epoch: c.get("epoch").and_then(Json::as_f64).map(|e| e as u64),
            rule: c.get("rule").and_then(Json::as_str).unwrap_or_default().to_string(),
        });
        let mut metrics = Vec::new();
        match v.get("metrics") {
            Some(Json::Obj(pairs)) => {
                for (k, val) in pairs {
                    match val.as_f64() {
                        Some(f) => metrics.push((k.clone(), f)),
                        None => return Err(format!("metric {k:?} is not numeric")),
                    }
                }
            }
            _ => return Err("manifest missing \"metrics\" object".to_string()),
        }
        let mut history = History::default();
        for (name, values) in history.series_mut() {
            if let Some(Json::Arr(items)) = v.get("history").and_then(|h| h.get(name)) {
                *values = items.iter().filter_map(Json::as_f64).collect();
            }
        }
        Ok(Self {
            run_id: str_field("run_id")?,
            command: str_field("command")?,
            created_unix_ms: num_field("created_unix_ms")? as u64,
            git: str_field("git")?,
            seed: num_field("seed")? as u64,
            scale: str_field("scale")?,
            epoch_factor: num_field("epoch_factor")?,
            env,
            health,
            convergence,
            metrics,
            history,
        })
    }

    /// Writes the manifest into the runs directory as
    /// `<run_id>.json`, creating the directory if needed. Returns the path.
    pub fn write(&self) -> Result<String, String> {
        let dir = runs_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.json", self.run_id));
        std::fs::write(&path, self.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(path.to_string_lossy().into_owned())
    }

    /// Loads a manifest from a file path.
    pub fn load(path: &str) -> Result<Self, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Self::from_json(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// One-line summary for `runs list`.
    pub fn summary_line(&self) -> String {
        format!(
            "{:<40} {:<10} {:<8} {:>3} metrics  git {}",
            self.run_id,
            self.command,
            self.health.verdict,
            self.metrics.len(),
            self.git
        )
    }
}

/// The manifest directory: `TABLEDC_RUNS_DIR` or `results/runs`.
pub fn runs_dir() -> PathBuf {
    match std::env::var(RUNS_DIR_ENV) {
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from(DEFAULT_RUNS_DIR),
    }
}

/// `git describe --always --dirty`, or `"unknown"` outside a repository.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Compares two manifests: quality metrics higher-is-better under the
/// two-sided test (`tol.ratio` + [`METRIC_FLOOR`]), and the health verdict
/// as a lower-is-better severity rank — so `healthy → warned/aborted` or a
/// metric drop both count as regressions. Wall-time style rows are *not*
/// compared here; that is the perf gate's job.
pub fn diff_manifests(base: &RunManifest, cand: &RunManifest, tol: &Tolerance) -> DiffReport {
    let mut out = DiffReport::default();
    compare_rows(&mut out, "metric", &base.metrics, &cand.metrics, tol, METRIC_FLOOR, Better::Higher);
    let base_health = vec![("health.rank".to_string(), base.health.rank())];
    let cand_health = vec![("health.rank".to_string(), cand.health.rank())];
    compare_rows(&mut out, "health", &base_health, &cand_health, tol, HEALTH_FLOOR, Better::Lower);
    if base.health.verdict != cand.health.verdict {
        out.notes.push(format!(
            "health verdict changed: {} -> {}",
            base.health.verdict, cand.health.verdict
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(acc: f64, ari: f64, verdict: &str) -> RunManifest {
        RunManifest {
            run_id: "test-1-1".to_string(),
            command: "quickstart".to_string(),
            created_unix_ms: 1,
            git: "abc123".to_string(),
            seed: 42,
            scale: "Scaled".to_string(),
            epoch_factor: 1.0,
            env: vec![("TABLEDC_HEALTH".to_string(), "strict".to_string())],
            health: HealthSummary {
                policy: "strict".to_string(),
                verdict: verdict.to_string(),
                violations: u64::from(verdict != "healthy"),
                dump_path: None,
            },
            convergence: Some(ConvergenceSummary {
                status: "converged".to_string(),
                epoch: Some(1),
                rule: "label churn <= 0.010 over the last 10 epochs".to_string(),
            }),
            metrics: vec![("tabledc/acc".to_string(), acc), ("tabledc/ari".to_string(), ari)],
            history: History {
                re_loss: vec![1.0, 0.5],
                ce_loss: vec![0.2, 0.1],
                kl_pq: vec![0.3, 0.2],
                grad_norm: vec![2.0, 1.5],
                update_ratio: vec![1e-3, 8e-4],
                epoch_ms: vec![10.0, 9.0],
                share_entropy: vec![0.9, 0.95],
                min_share: vec![0.2, 0.3],
                max_share: vec![0.8, 0.7],
                delta_label_frac: vec![1.0, 0.0],
                mean_margin: vec![0.4, 0.5],
                centroid_drift: vec![0.0, 0.1],
            },
        }
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = manifest(0.9, 0.8, "healthy");
        let text = m.to_json();
        let back = RunManifest::from_json(&text).expect("round trip parses");
        assert_eq!(m, back);
    }

    #[test]
    fn diff_against_self_has_no_regressions() {
        let m = manifest(0.9, 0.8, "healthy");
        let d = diff_manifests(&m, &m, &Tolerance::default());
        assert!(!d.has_regressions(), "{:?}", d.regressions);
        assert_eq!(d.compared, 3, "two metrics + health rank");
    }

    #[test]
    fn metric_drop_is_a_regression_and_gain_is_not() {
        let base = manifest(0.9, 0.8, "healthy");
        let worse = manifest(0.9, 0.4, "healthy");
        let d = diff_manifests(&base, &worse, &Tolerance::default());
        assert!(d.has_regressions());
        assert_eq!(d.regressions[0].name, "tabledc/ari");

        let better = manifest(0.95, 0.9, "healthy");
        let d = diff_manifests(&base, &better, &Tolerance::default());
        assert!(!d.has_regressions());
    }

    #[test]
    fn tiny_metric_jitter_is_not_a_regression() {
        let base = manifest(0.9, 0.8, "healthy");
        let jitter = manifest(0.88, 0.79, "healthy");
        let d = diff_manifests(&base, &jitter, &Tolerance::default());
        assert!(!d.has_regressions(), "{:?}", d.regressions);
    }

    #[test]
    fn health_verdict_regression_is_flagged() {
        let base = manifest(0.9, 0.8, "healthy");
        let aborted = manifest(0.9, 0.8, "aborted");
        let d = diff_manifests(&base, &aborted, &Tolerance::default());
        assert!(d.has_regressions());
        assert!(d.regressions.iter().any(|r| r.name == "health.rank"));
        assert!(d.notes.iter().any(|n| n.contains("verdict changed")));
        // Recovering from aborted to healthy is an improvement, not a
        // regression.
        let d = diff_manifests(&aborted, &base, &Tolerance::default());
        assert!(!d.has_regressions());
    }

    #[test]
    fn from_json_rejects_missing_sections() {
        assert!(RunManifest::from_json("{}").is_err());
        assert!(RunManifest::from_json("not json").is_err());
        let no_metrics = r#"{"run_id":"a","command":"c","created_unix_ms":1,"git":"g",
            "seed":1,"scale":"s","epoch_factor":1.0,"env":{},
            "health":{"policy":"warn","verdict":"healthy","violations":0,"dump_path":null}}"#;
        assert!(RunManifest::from_json(no_metrics).is_err());
    }

    #[test]
    fn manifest_without_convergence_still_parses() {
        // Manifests written before the diagnostics layer carry no
        // "convergence" object; they must load as None, not error.
        let mut m = manifest(0.9, 0.8, "healthy");
        m.convergence = None;
        let text = m.to_json();
        assert!(!text.contains("\"convergence\""));
        let back = RunManifest::from_json(&text).expect("legacy manifest parses");
        assert_eq!(back.convergence, None);
        assert_eq!(m, back);
    }

    #[test]
    fn convergence_epoch_null_round_trips() {
        let mut m = manifest(0.9, 0.8, "healthy");
        m.convergence = Some(ConvergenceSummary {
            status: "stalled".to_string(),
            epoch: None,
            rule: "no rule fired".to_string(),
        });
        let back = RunManifest::from_json(&m.to_json()).expect("round trip parses");
        assert_eq!(m, back);
    }

    #[test]
    fn convergence_summary_mirrors_verdict() {
        let v = tabledc::ConvergenceVerdict {
            status: tabledc::ConvergenceStatus::Collapsed,
            epoch: Some(3),
            rule: "max share >= 0.90".to_string(),
        };
        let s = ConvergenceSummary::from_verdict(&v);
        assert_eq!(s.status, "collapsed");
        assert_eq!(s.epoch, Some(3));
        assert_eq!(s.rule, "max share >= 0.90");
    }

    #[test]
    fn u64_fields_keep_every_digit() {
        let mut m = manifest(0.9, 0.8, "healthy");
        m.seed = u64::MAX - 1;
        m.created_unix_ms = (1 << 53) + 1;
        let text = m.to_json();
        assert!(text.contains("\"seed\": 18446744073709551614,"), "{text}");
        assert!(text.contains("\"created_unix_ms\": 9007199254740993,"), "{text}");
    }

    #[test]
    fn committed_fixtures_parse_and_survive_a_rewrite() {
        for name in ["fixture-baseline.json", "fixture-regressed.json"] {
            let path = format!("{}/../../results/runs/{name}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).expect("fixture readable");
            let m = RunManifest::from_json(&text).expect("fixture parses");
            assert_eq!(parse(&m.to_json()), parse(&text), "{name}: rewrite changes the JSON value");
            assert_eq!(RunManifest::from_json(&m.to_json()), Ok(m));
        }
    }

    #[test]
    fn new_manifest_captures_tabledc_env() {
        let m = RunManifest::new("unit test");
        assert!(m.run_id.starts_with("unit-test-"));
        assert!(m.env.iter().all(|(k, _)| k.starts_with("TABLEDC_")));
    }
}
