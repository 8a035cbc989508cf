//! Cross-crate tests of the cluster-structure observatory: the committed
//! golden HTML page, report determinism, and the trace → diagnostics →
//! manifest → report pipeline end to end.

use bench::htmlreport::{render, summarize_trace};
use bench::ledger::{ConvergenceSummary, HealthSummary, RunManifest};
use datagen::{generate_mixture, MixtureConfig};
use tabledc::{TableDc, TableDcConfig};
use tensor::random::rng;

fn fixture_path(name: &str) -> String {
    format!("{}/../../results/runs/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn load_fixture(name: &str) -> RunManifest {
    RunManifest::load(&fixture_path(name)).expect("fixture manifest parses")
}

/// The committed golden page is exactly what `render` produces from the
/// committed fixture manifest. Regenerate it with
/// `cargo run -p bench --bin report -- results/runs/fixture-baseline.json \
///  --out results/runs/fixture-baseline.html` when the report format
/// changes deliberately.
#[test]
fn golden_html_matches_committed_fixture_byte_for_byte() {
    let manifest = load_fixture("fixture-baseline.json");
    let rendered = render(&manifest, None, None);
    let committed = std::fs::read_to_string(fixture_path("fixture-baseline.html"))
        .expect("committed golden page exists");
    assert!(
        rendered == committed,
        "rendered page diverges from the committed golden \
         (lengths: rendered {} vs committed {})",
        rendered.len(),
        committed.len()
    );
}

#[test]
fn fixture_diff_report_is_deterministic_and_flags_the_regression() {
    let base = load_fixture("fixture-baseline.json");
    let cand = load_fixture("fixture-regressed.json");
    let a = render(&cand, Some(&base), None);
    let b = render(&cand, Some(&base), None);
    assert_eq!(a, b, "diff render is not deterministic");
    assert!(a.contains("id=\"diff\""));
    assert!(a.contains("tabledc/ari"), "doctored metric drop missing from diff");
    assert!(a.contains("health.rank"), "health regression missing from diff");
    // The regressed run's own verdicts render with their badges.
    assert!(a.contains("aborted"));
    assert!(a.contains("collapsed"));
    assert!(!a.contains("NaN"));
}

#[test]
fn fixture_manifests_carry_the_diagnostics_series() {
    for name in ["fixture-baseline.json", "fixture-regressed.json"] {
        let m = load_fixture(name);
        let epochs = m.history.re_loss.len();
        assert!(epochs > 0, "{name}: empty history");
        for (series, values) in m.history.series() {
            assert_eq!(values.len(), epochs, "{name}: series {series} length mismatch");
        }
        let c = m.convergence.as_ref().expect("fixture records convergence");
        assert!(!c.status.is_empty() && !c.rule.is_empty());
    }
}

/// A real (tiny) traced fit drives the whole observatory: the trace
/// carries run-id-stamped `tabledc.diag` events that `summarize_trace`
/// folds, the fit's verdict lands in a manifest, and the report renders
/// all of it deterministically.
#[test]
fn traced_fit_renders_into_a_report_end_to_end() {
    let data = generate_mixture(
        &MixtureConfig { n: 60, k: 3, dim: 8, separation: 4.0, ..Default::default() },
        &mut rng(11),
    );
    let config = TableDcConfig {
        epochs: 8,
        pretrain_epochs: 2,
        ..TableDcConfig::new(3)
    };
    let (fit, trace_text) = obs::test_support::with_memory_sink(|| {
        let (_, fit) = TableDc::fit(config, &data.x, &mut rng(5));
        fit
    });
    let trace_text = trace_text.join("\n");

    let summary = summarize_trace(&trace_text).expect("trace folds");
    assert!(
        summary.events.get("tabledc.diag").copied().unwrap_or(0) >= 8,
        "expected one tabledc.diag per epoch, got {:?}",
        summary.events.get("tabledc.diag")
    );
    assert_eq!(summary.events.get("tabledc.convergence"), Some(&1));

    let mut manifest = RunManifest::new("observatory-test");
    manifest.health = HealthSummary::from_report(&fit.health);
    manifest.convergence = Some(ConvergenceSummary::from_verdict(&fit.convergence));
    manifest.metrics = vec![("tabledc/clusters_used".to_string(), fit.clusters_used as f64)];
    manifest.history = fit.history.clone();

    // The diagnostics history is epoch-aligned with the loss history.
    assert_eq!(manifest.history.delta_label_frac.len(), manifest.history.re_loss.len());
    assert_eq!(manifest.history.max_share.len(), manifest.history.re_loss.len());

    let a = render(&manifest, None, Some(&summary));
    let b = render(&manifest, None, Some(&summary));
    assert_eq!(a, b, "report is not deterministic");
    for id in ["run-header", "health", "convergence", "metrics", "series", "profile"] {
        assert!(a.contains(&format!("id=\"{id}\"")), "missing section {id}");
    }
    assert!(a.contains("id=\"spark-delta_label_frac\""));
    assert!(a.contains("tabledc.fit"), "span tree missing from profile section");
    assert!(!a.contains("NaN"));
}

/// The manifest JSON round-trips the convergence verdict, so `report`
/// reading a freshly written manifest sees exactly what the fit decided.
#[test]
fn manifest_round_trip_preserves_convergence_and_diag_series() {
    let mut m = load_fixture("fixture-baseline.json");
    m.run_id = "observatory-roundtrip".to_string();
    let back = RunManifest::from_json(&m.to_json()).expect("round trip parses");
    assert_eq!(m, back);
}
