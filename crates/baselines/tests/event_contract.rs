//! The per-epoch event contract every deep-clustering method keeps, since
//! TableDC and the four self-supervised baselines train through one epoch
//! driver: per epoch one epoch event, one diag event and one
//! `nn.grad_norm` event; one fit id on all of them, with strictly
//! increasing epochs; the `method` field on baseline events; one
//! convergence event last; and step statistics in histograms of the
//! method's own metric prefix. The epoch and diag events are also a
//! lossless record of the run's per-epoch series: every value a fit
//! returns is on its epoch's event under the same name, bit for bit.

use baselines::{ClusterOutput, Dcrn, DeepConfig, Dfcn, Edesc, Sdcn};
use datagen::{generate_mixture, MixtureConfig};
use obs::health::{Policy, Verdict};
use obs::json::{parse, Json};
use tabledc::{HealthConfig, TableDc, TableDcConfig};
use tensor::random::rng;
use tensor::Matrix;

const EPOCHS: usize = 4;

/// A deep baseline's fit of a matrix into 2 clusters.
type Fit = fn(DeepConfig, &Matrix) -> ClusterOutput;

fn mixture() -> Matrix {
    generate_mixture(&MixtureConfig { n: 40, k: 2, dim: 8, ..Default::default() }, &mut rng(5)).x
}

/// Samples in the global gradient-norm histogram of metric prefix
/// `prefix`.
fn grad_norm_samples(prefix: &str) -> u64 {
    obs::registry().histogram(&format!("{prefix}.nn.grad_norm")).snapshot().count()
}

/// Checks one fit's trace: `family` is `tabledc` or `baseline`, `method`
/// the name its baseline events carry.
fn check_fit(lines: &[String], family: &str, method: Option<&str>) {
    let [epoch, diag, convergence] = ["epoch", "diag", "convergence"].map(|kind| format!("{family}.{kind}"));
    let events: Vec<(String, Json)> = lines
        .iter()
        .map(|l| parse(l).expect("valid JSON line"))
        .filter_map(|v| {
            let name = v.get("event")?.as_str()?.to_string();
            [&epoch, &diag, &convergence, "nn.grad_norm"].contains(&name.as_str()).then_some((name, v))
        })
        .collect();
    let what = method.unwrap_or(family);
    assert_eq!(events.last().map(|(n, _)| n.as_str()), Some(convergence.as_str()), "{what}: convergence is last");
    assert_eq!(events.iter().filter(|(n, _)| *n == convergence).count(), 1, "{what}: one convergence event");

    let mut fit_ids = Vec::new();
    for name in [&epoch, &diag, "nn.grad_norm"] {
        let stream: Vec<&Json> = events.iter().filter(|(n, _)| n == name).map(|(_, v)| v).collect();
        assert_eq!(stream.len(), EPOCHS, "{what}: one {name} event per epoch");
        let epochs: Vec<f64> = stream.iter().map(|v| v.get("epoch").unwrap().as_f64().unwrap()).collect();
        assert!(epochs.windows(2).all(|w| w[0] < w[1]), "{what}: {name} epochs {epochs:?} not increasing");
        fit_ids.extend(stream.iter().map(|v| v.get("fit").and_then(Json::as_f64).expect("numeric fit id")));
    }
    let (_, last) = events.last().unwrap();
    fit_ids.push(last.get("fit").unwrap().as_f64().unwrap());
    assert!(fit_ids.windows(2).all(|w| w[0] == w[1]), "{what}: events span several fit ids");

    for (name, v) in &events {
        assert_eq!(v.get("method").and_then(Json::as_str), method, "{what}: method field of {name}");
        if *name == epoch {
            for key in ["re_loss", "kl_pq", "loss", "grad_norm", "update_ratio", "epoch_ms"] {
                let value = v.get(key).and_then(Json::as_f64).expect("numeric field");
                assert!(value.is_finite(), "{what}: {key} must be finite, got {value}");
            }
        }
    }
}

/// True when `field` is how a trace event writes `value`: the same bits
/// when finite (`obs::json` writes an `f64` with `{}`, which round-trips),
/// `null` otherwise.
fn records(field: &Json, value: f64) -> bool {
    match field.as_f64() {
        Some(v) => value.is_finite() && v.to_bits() == value.to_bits(),
        None => !value.is_finite() && *field == Json::Null,
    }
}

/// Checks that for every epoch `e`, each `(name, values)` series of the
/// fit `what` has `values[e]` in the field `name` of epoch `e`'s
/// `family.epoch` or `family.diag` event (of each of the two that has it).
fn check_values(lines: &[String], family: &str, what: &str, series: &[(&str, &[f64])]) {
    let kinds = [format!("{family}.epoch"), format!("{family}.diag")];
    let events: Vec<Json> = lines
        .iter()
        .map(|l| parse(l).expect("valid JSON line"))
        .filter(|v| v.get("event").and_then(Json::as_str).is_some_and(|n| kinds.iter().any(|k| k == n)))
        .collect();
    for &(name, values) in series {
        assert_eq!(values.len(), EPOCHS, "{what}: {name} has one value per epoch");
        for (e, &value) in values.iter().enumerate() {
            let fields: Vec<&Json> = events
                .iter()
                .filter(|v| v.get("epoch").and_then(Json::as_f64) == Some(e as f64))
                .filter_map(|v| v.get(name))
                .collect();
            assert!(!fields.is_empty(), "{what}: no {name} field at epoch {e}");
            for field in fields {
                assert!(records(field, value), "{what}: epoch {e} {name} is {field:?} in the trace, {value:?} in the fit");
            }
        }
    }
}

#[test]
fn every_deep_method_emits_one_event_set_per_epoch() {
    let x = mixture();
    let config = TableDcConfig {
        latent_dim: 4,
        hidden_dims: vec![16],
        pretrain_epochs: 2,
        epochs: EPOCHS,
        health: HealthConfig { policy: Some(Policy::Warn), ..HealthConfig::default() },
        ..TableDcConfig::new(2)
    };
    let before = grad_norm_samples("tabledc");
    let ((_, fit), lines) = obs::test_support::with_memory_sink(|| TableDc::fit(config, &x, &mut rng(6)));
    assert_eq!(fit.health.verdict, Verdict::Healthy);
    check_fit(&lines, "tabledc", None);
    check_values(&lines, "tabledc", "tabledc", &fit.history.series());
    assert_eq!(grad_norm_samples("tabledc") - before, EPOCHS as u64, "tabledc: one grad-norm sample per epoch");

    let cfg = DeepConfig { latent_dim: 4, pretrain_epochs: 2, epochs: EPOCHS, ..Default::default() };
    let baselines: [(&str, Fit); 4] = [
        ("sdcn", |c, x| Sdcn::new(c).fit(x, 2, &mut rng(6))),
        ("dfcn", |c, x| Dfcn::new(c).fit(x, 2, &mut rng(6))),
        ("dcrn", |c, x| Dcrn::new(c).fit(x, 2, &mut rng(6))),
        ("edesc", |c, x| Edesc::new(c).fit(x, 2, &mut rng(6))),
    ];
    for (method, fit) in baselines {
        let before = grad_norm_samples(method);
        let (out, lines) = obs::test_support::with_memory_sink(|| fit(cfg.clone(), &x));
        assert_eq!(out.health.verdict, Verdict::Healthy, "{method}");
        assert_eq!((out.labels.len(), out.re_loss.len(), out.kl_pq.len()), (x.rows(), EPOCHS, EPOCHS), "{method}");
        check_fit(&lines, "baseline", Some(method));
        check_values(&lines, "baseline", method, &[("re_loss", &out.re_loss), ("kl_pq", &out.kl_pq)]);
        // Only this fit's steps land in the method's histogram.
        assert_eq!(grad_norm_samples(method) - before, EPOCHS as u64, "{method}: one grad-norm sample per epoch");
    }
}
