//! Result containers, fixed-width table rendering, and the
//! machine-readable `BENCH_repro.json` report for the harness.

use clustering::metrics::{accuracy, adjusted_rand_index};
use obs::json::Json;

/// ARI + ACC of one labelling against ground truth (§4.2).
#[derive(Debug, Clone, Copy)]
pub struct Scores {
    /// Adjusted Rand Index.
    pub ari: f64,
    /// Clustering accuracy via Hungarian matching.
    pub acc: f64,
}

impl Scores {
    /// Evaluates predicted labels against ground truth.
    pub fn evaluate(pred: &[usize], truth: &[usize]) -> Self {
        Self { ari: adjusted_rand_index(pred, truth), acc: accuracy(pred, truth) }
    }

    /// Renders as `ARI/ACC` with two decimals, paper-style.
    pub fn cell(&self) -> String {
        format!("{:>5.2} {:>5.2}", self.ari, self.acc)
    }
}

/// Renders a fixed-width text table.
pub fn render_table(title: &str, headers: &[String], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(headers, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1))));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// One method × dataset×representation outcome, flattened for
/// `BENCH_repro.json`. `status` is `"ok"` or `"panicked"`; scores and
/// seconds are absent when the method did not finish.
#[derive(Debug, Clone)]
pub struct MethodRecord {
    /// Experiment title (e.g. the table name).
    pub experiment: String,
    /// `profile/representation` column label.
    pub dataset: String,
    /// Method display name.
    pub method: String,
    /// `"ok"` or `"panicked"`.
    pub status: String,
    /// Adjusted Rand Index, when the method finished.
    pub ari: Option<f64>,
    /// Clustering accuracy, when the method finished.
    pub acc: Option<f64>,
    /// Wall-clock seconds of the method run.
    pub secs: Option<f64>,
    /// Panic message, when `status == "panicked"`.
    pub error: Option<String>,
}

/// Outcome of one `repro` experiment (a whole table/figure/ablation).
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// Command name (`table2`, `fig3`, …).
    pub name: String,
    /// Wall-clock seconds including dataset generation.
    pub secs: f64,
    /// `"ok"` or `"panicked"`.
    pub status: String,
    /// Panic message, when `status == "panicked"`.
    pub error: Option<String>,
}

/// Per-span-name profile aggregate carried in `BENCH_repro.json` — the
/// rows `perfdiff` compares across runs.
#[derive(Debug, Clone)]
pub struct PhaseProfile {
    /// Span name (`tabledc.fit`, `kmeans.assign`, …).
    pub name: String,
    /// Completed activations across the run.
    pub calls: u64,
    /// Summed wall milliseconds (nested same-name spans double count).
    pub total_ms: f64,
    /// Summed self milliseconds (disjoint across the span tree).
    pub self_ms: f64,
    /// Attributed allocation bytes (0 unless `TABLEDC_PROFILE=alloc`).
    pub alloc_bytes: u64,
}

impl PhaseProfile {
    /// Snapshot of the current process-wide span tree, one entry per span
    /// name, sorted by name.
    pub fn collect() -> Vec<PhaseProfile> {
        obs::profile::aggregate()
            .into_iter()
            .map(|(name, t)| PhaseProfile {
                name,
                calls: t.calls,
                total_ms: t.total_ms,
                self_ms: t.self_ms,
                alloc_bytes: t.alloc_bytes,
            })
            .collect()
    }
}

/// The machine-readable run report the `repro` binary always writes,
/// even when individual methods or experiments panic.
#[derive(Debug, Clone, Default)]
pub struct ReproReport {
    /// Dataset scale (`"Scaled"` or `"Paper"`).
    pub scale: String,
    /// Base RNG seed.
    pub seed: u64,
    /// Epoch multiplier.
    pub epoch_factor: f64,
    /// One entry per experiment run.
    pub experiments: Vec<ExperimentOutcome>,
    /// One entry per method × dataset cell of the comparison tables.
    pub methods: Vec<MethodRecord>,
    /// Per-phase span-tree aggregates for the whole run.
    pub profile: Vec<PhaseProfile>,
}

impl ReproReport {
    /// True when any experiment or any method run panicked.
    pub fn any_failed(&self) -> bool {
        self.experiments.iter().any(|e| e.status != "ok")
            || self.methods.iter().any(|m| m.status != "ok")
    }

    /// Serializes the report as one JSON object, one experiment, method or
    /// profile record per line.
    pub fn to_json(&self) -> String {
        let experiments = self.experiments.iter().map(|e| {
            Json::obj([
                ("name", e.name.as_str().into()),
                ("secs", e.secs.into()),
                ("status", e.status.as_str().into()),
                ("error", e.error.as_deref().into()),
            ])
        });
        let methods = self.methods.iter().map(|m| {
            Json::obj([
                ("experiment", m.experiment.as_str().into()),
                ("dataset", m.dataset.as_str().into()),
                ("method", m.method.as_str().into()),
                ("status", m.status.as_str().into()),
                ("ari", m.ari.into()),
                ("acc", m.acc.into()),
                ("secs", m.secs.into()),
                ("error", m.error.as_deref().into()),
            ])
        });
        let profile = self.profile.iter().map(|p| {
            Json::obj([
                ("name", p.name.as_str().into()),
                ("calls", p.calls.into()),
                ("total_ms", p.total_ms.into()),
                ("self_ms", p.self_ms.into()),
                ("alloc_bytes", p.alloc_bytes.into()),
            ])
        });
        Json::obj([
            ("scale", self.scale.as_str().into()),
            ("seed", self.seed.into()),
            ("epoch_factor", self.epoch_factor.into()),
            ("experiments", Json::Arr(experiments.collect())),
            ("methods", Json::Arr(methods.collect())),
            ("profile", Json::Arr(profile.collect())),
        ])
        .render(2)
    }

    /// Writes `to_json` (plus a trailing newline) to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json() + "\n")
    }
}

/// Best-effort extraction of a panic payload's message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scores_perfect_and_mixed() {
        let s = Scores::evaluate(&[0, 0, 1, 1], &[1, 1, 0, 0]);
        assert!((s.ari - 1.0).abs() < 1e-12);
        assert!((s.acc - 1.0).abs() < 1e-12);
        let m = Scores::evaluate(&[0, 1, 0, 1], &[0, 0, 1, 1]);
        assert!(m.ari < 0.5);
    }

    #[test]
    fn repro_report_json_round_trips() {
        let report = ReproReport {
            scale: "Scaled".into(),
            seed: 42,
            epoch_factor: 1.0,
            experiments: vec![ExperimentOutcome {
                name: "table2".into(),
                secs: 1.5,
                status: "ok".into(),
                error: None,
            }],
            methods: vec![
                MethodRecord {
                    experiment: "table2".into(),
                    dataset: "tus/sbert".into(),
                    method: "K-means".into(),
                    status: "ok".into(),
                    ari: Some(0.75),
                    acc: Some(0.8),
                    secs: Some(0.01),
                    error: None,
                },
                MethodRecord {
                    experiment: "table2".into(),
                    dataset: "tus/sbert".into(),
                    method: "SDCN".into(),
                    status: "panicked".into(),
                    ari: None,
                    acc: None,
                    secs: None,
                    error: Some("boom \"quoted\"".into()),
                },
            ],
            profile: vec![PhaseProfile {
                name: "tabledc.fit".into(),
                calls: 3,
                total_ms: 120.5,
                self_ms: 10.25,
                alloc_bytes: 4096,
            }],
        };
        assert!(report.any_failed());
        let parsed = obs::json::parse(&report.to_json()).expect("valid JSON");
        assert_eq!(parsed.get("scale").and_then(|v| v.as_str()), Some("Scaled"));
        assert_eq!(parsed.get("seed").and_then(|v| v.as_f64()), Some(42.0));
        let methods = match parsed.get("methods") {
            Some(obs::json::Json::Arr(a)) => a,
            other => panic!("methods not an array: {other:?}"),
        };
        assert_eq!(methods.len(), 2);
        assert_eq!(methods[0].get("ari").and_then(|v| v.as_f64()), Some(0.75));
        assert_eq!(
            methods[1].get("error").and_then(|v| v.as_str()),
            Some("boom \"quoted\"")
        );
        assert!(matches!(methods[1].get("ari"), Some(obs::json::Json::Null)));
        let profile = match parsed.get("profile") {
            Some(obs::json::Json::Arr(a)) => a,
            other => panic!("profile not an array: {other:?}"),
        };
        assert_eq!(profile.len(), 1);
        assert_eq!(profile[0].get("name").and_then(|v| v.as_str()), Some("tabledc.fit"));
        assert_eq!(profile[0].get("calls").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(profile[0].get("self_ms").and_then(|v| v.as_f64()), Some(10.25));
        assert_eq!(profile[0].get("alloc_bytes").and_then(|v| v.as_f64()), Some(4096.0));
    }

    #[test]
    fn panic_message_extracts_str_and_string() {
        let p = std::panic::catch_unwind(|| panic!("static message")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "static message");
        let p = std::panic::catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "formatted 7");
    }

    #[test]
    fn table_rendering_aligns_columns() {
        let t = render_table(
            "demo",
            &["Method".to_string(), "ARI".to_string()],
            &[
                vec!["K-means".to_string(), "0.73".to_string()],
                vec!["TableDC".to_string(), "0.88".to_string()],
            ],
        );
        assert!(t.contains("== demo =="));
        assert!(t.contains("K-means"));
        let lines: Vec<&str> = t.lines().filter(|l| l.contains("0.")).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].len(), lines[1].len());
    }
}
