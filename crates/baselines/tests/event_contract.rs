//! The per-epoch event contract every deep-clustering method keeps, since
//! TableDC and the four self-supervised baselines train through one epoch
//! driver: per epoch one epoch event, one diag event and one
//! `nn.grad_norm` event; one fit id on all of them, with strictly
//! increasing epochs; the `method` field on baseline events; and one
//! convergence event last. The events are also a lossless record of the
//! run's per-epoch series: every value a fit returns is on its epoch's
//! event under the same name, bit for bit, and each step's statistics are
//! on its `nn.grad_norm` event, with one `grad.<name>` field per
//! parameter.

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

/// The `grad.<name>` fields of one `nn.grad_norm` event, in event order.
fn grad_fields(event: &Json) -> Vec<(&str, f64)> {
    let Json::Obj(fields) = event else { panic!("an event is an object") };
    fields
        .iter()
        .filter_map(|(k, v)| Some((k.strip_prefix("grad.")?, v.as_f64().expect("numeric grad field"))))
        .collect()
}

/// Checks each epoch's `nn.grad_norm` event of the fit `what`:
/// * `global` and `update_ratio` equal the same epoch's `grad_norm` and
///   `update_ratio` of the `family.epoch` event bit for bit, and of
///   `steps` (the fit's own `(grad_norm, update_ratio)` series) when the
///   fit returns them;
/// * every parameter has one `grad.<name>` field: no name repeats, every
///   epoch names the same parameters (exactly `params` when given), and
///   their squares sum to `global²`.
fn check_step_stats(lines: &[String], family: &str, what: &str, steps: Option<[&[f64]; 2]>, params: Option<&[&str]>) {
    let epoch_event = format!("{family}.epoch");
    let events: Vec<Json> = lines.iter().map(|l| parse(l).expect("valid JSON line")).collect();
    let named = |name: &str| -> Vec<&Json> {
        events.iter().filter(|v| v.get("event").and_then(Json::as_str) == Some(name)).collect()
    };
    let (steps_events, epoch_events) = (named("nn.grad_norm"), named(&epoch_event));
    assert_eq!(steps_events.len(), EPOCHS, "{what}: one nn.grad_norm event per epoch");
    let mut first_names: Option<Vec<&str>> = None;
    for (e, (step, epoch)) in steps_events.iter().zip(&epoch_events).enumerate() {
        let [global, ratio] = ["global", "update_ratio"].map(|k| step.get(k).and_then(Json::as_f64).expect("numeric"));
        for (key, value, field) in [("grad_norm", global, "global"), ("update_ratio", ratio, "update_ratio")] {
            let on_epoch = epoch.get(key).expect("epoch event field");
            assert!(records(on_epoch, value), "{what}: epoch {e} {field} {value:?} vs {key} {on_epoch:?}");
        }
        if let Some([grad_norm, update_ratio]) = steps {
            assert_eq!(global.to_bits(), grad_norm[e].to_bits(), "{what}: epoch {e} global vs History::grad_norm");
            assert_eq!(ratio.to_bits(), update_ratio[e].to_bits(), "{what}: epoch {e} update_ratio vs History");
        }
        let grads = grad_fields(step);
        let mut names: Vec<&str> = grads.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        assert!(!names.is_empty(), "{what}: epoch {e} has no grad.* fields");
        assert!(names.windows(2).all(|w| w[0] != w[1]), "{what}: epoch {e} repeats a grad.* field: {names:?}");
        match &first_names {
            None => first_names = Some(names.clone()),
            Some(first) => assert_eq!(&names, first, "{what}: epoch {e} names other parameters"),
        }
        if let Some(params) = params {
            let mut want = params.to_vec();
            want.sort_unstable();
            assert_eq!(names, want, "{what}: epoch {e} grad.* fields");
        }
        let sum_sq: f64 = grads.iter().map(|(_, g)| g * g).sum();
        assert!(
            (sum_sq - global * global).abs() <= 1e-10 * global * global,
            "{what}: epoch {e} grad.* squares sum to {sum_sq}, global² is {}",
            global * global
        );
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
    let ((_, fit), lines) = obs::test_support::with_memory_sink(|| TableDc::fit(config, &x, &mut rng(6)));
    assert_eq!(fit.health.verdict, Verdict::Healthy);
    check_fit(&lines, "tabledc", None);
    check_values(&lines, "tabledc", "tabledc", &fit.history.series());
    // The autoencoder's layers (input 8, hidden 16, latent 4) and the
    // cluster centers all step in every joint epoch.
    let tabledc_params = [
        "enc.l0.w", "enc.l0.b", "enc.l1.w", "enc.l1.b", "dec.l0.w", "dec.l0.b", "dec.l1.w", "dec.l1.b", "centers",
    ];
    let steps = [fit.history.grad_norm.as_slice(), &fit.history.update_ratio];
    check_step_stats(&lines, "tabledc", "tabledc", Some(steps), Some(&tabledc_params));

    let cfg = DeepConfig { latent_dim: 4, pretrain_epochs: 2, epochs: EPOCHS, ..Default::default() };
    let baselines: [(&str, Fit); 4] = [
        ("sdcn", |c, x| Sdcn::new(c).fit(x, 2, &mut rng(6))),
        ("dfcn", |c, x| Dfcn::new(c).fit(x, 2, &mut rng(6))),
        ("dcrn", |c, x| Dcrn::new(c).fit(x, 2, &mut rng(6))),
        ("edesc", |c, x| Edesc::new(c).fit(x, 2, &mut rng(6))),
    ];
    for (method, fit) in baselines {
        let (out, lines) = obs::test_support::with_memory_sink(|| fit(cfg.clone(), &x));
        assert_eq!(out.health.verdict, Verdict::Healthy, "{method}");
        assert_eq!((out.labels.len(), out.re_loss.len(), out.kl_pq.len()), (x.rows(), EPOCHS, EPOCHS), "{method}");
        check_fit(&lines, "baseline", Some(method));
        check_values(&lines, "baseline", method, &[("re_loss", &out.re_loss), ("kl_pq", &out.kl_pq)]);
        check_step_stats(&lines, "baseline", method, None, None);
    }
}
