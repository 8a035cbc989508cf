//! `trace_check` — validates a JSON-lines trace produced by
//! `TABLEDC_TRACE=<file>`.
//!
//! ```text
//! cargo run -p bench --bin trace_check -- <trace-file> [required-event ...]
//! ```
//!
//! Checks, in order of discovery per line:
//!
//! * every non-empty line parses as a JSON object with a finite,
//!   nonnegative numeric `ts_ms` and a non-empty string `event`;
//! * `ts_ms` is monotonically non-decreasing across the whole file —
//!   timestamps are stamped under the sink lock, so any decrease means
//!   the trace was corrupted or interleaved from two processes;
//! * `span.enter`/`span.exit` events balance per thread: each carries a
//!   `span` name and a `thread` id, exits must match the innermost open
//!   enter on their thread, and every thread's stack must be empty at
//!   end of file;
//! * `nn.grad_norm` events carry finite numeric `epoch`, `global`, and
//!   `update_ratio` fields, and every per-parameter `grad.<name>` field is
//!   a finite number (the emitter skips steps whose global norm is
//!   non-finite, and a non-finite parameter norm makes the global norm
//!   non-finite, so a non-finite value in the trace is a bug);
//! * `health.violation` events carry a non-empty string `tensor` and a
//!   numeric `epoch`; `health.abort` must be followed (not necessarily
//!   immediately) by a `health.dump` event whose `path` is a non-empty
//!   string — an abort without its diagnostic dump is a broken contract;
//! * when any line carries a `run_id` it is a non-empty string and every
//!   stamped line agrees on it — two ids in one file means two runs'
//!   traces were interleaved;
//! * per-epoch fit events (`tabledc.epoch`, `tabledc.diag`,
//!   `baseline.epoch`, `baseline.diag`) carry numeric `fit` and `epoch`
//!   ids, and `epoch` is strictly increasing within each `(event, fit)`
//!   stream — the fit id disambiguates restarts, so a repeated or
//!   backwards epoch means a corrupted loop;
//! * `tabledc.diag`/`baseline.diag` events carry the full structural
//!   metric set (`share_entropy`, `min_share`, `max_share`,
//!   `delta_label_frac`, `mean_margin`, `centroid_drift`), all finite,
//!   with the share/fraction metrics in `[0, 1]` and
//!   `min_share <= max_share`; `tabledc.epoch` keeps its
//!   `delta_label_frac` in `[0, 1]` too;
//! * any `required-event` names passed after the file each appear at
//!   least once.
//!
//! The first violation is reported with its line number and the process
//! exits 1; usage errors exit 2. Used by `results/verify.sh` so the
//! trace contract is checked without any external JSON tooling.

use std::collections::{BTreeMap, BTreeSet};

use obs::json::{parse, Json};

fn fail(msg: &str) -> ! {
    eprintln!("trace_check: {msg}");
    std::process::exit(1)
}

/// Per-epoch fit events carry numeric `fit` and `epoch` ids; within one
/// `(event, fit)` stream the epoch must strictly increase. Keying on the
/// fit id keeps the check valid across restarts (a second fit in the same
/// process starts again at epoch 0 under a fresh id).
fn check_fit_epoch(
    value: &Json,
    event: &str,
    n: usize,
    fit_epochs: &mut BTreeMap<(String, u64), (f64, usize)>,
) {
    let fit = value
        .get("fit")
        .and_then(Json::as_f64)
        .unwrap_or_else(|| fail(&format!("line {n}: {event} without numeric fit id")));
    let epoch = value
        .get("epoch")
        .and_then(Json::as_f64)
        .unwrap_or_else(|| fail(&format!("line {n}: {event} without numeric epoch")));
    if !epoch.is_finite() || epoch < 0.0 {
        fail(&format!("line {n}: {event} epoch = {epoch} is not a finite nonnegative number"));
    }
    let key = (event.to_string(), fit as u64);
    if let Some((prev, prev_line)) = fit_epochs.get(&key) {
        if epoch <= *prev {
            fail(&format!(
                "line {n}: {event} epoch {epoch} does not increase past {prev} \
                 (line {prev_line}) within fit {}",
                fit as u64
            ));
        }
    }
    fit_epochs.insert(key, (epoch, n));
}

/// Structural metrics every diagnostics event must carry, with their
/// range invariants: shares and label churn are fractions, entropy is
/// normalized, and the extreme shares must be ordered.
fn check_diag_metrics(value: &Json, event: &str, n: usize) {
    let metric = |key: &str| -> f64 {
        let v = value
            .get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| fail(&format!("line {n}: {event} without numeric {key}")));
        if !v.is_finite() {
            fail(&format!("line {n}: {event} {key} = {v} is not finite"));
        }
        v
    };
    let share_entropy = metric("share_entropy");
    let min_share = metric("min_share");
    let max_share = metric("max_share");
    let delta_label_frac = metric("delta_label_frac");
    metric("mean_margin");
    metric("centroid_drift");
    for (key, v) in [
        ("share_entropy", share_entropy),
        ("min_share", min_share),
        ("max_share", max_share),
        ("delta_label_frac", delta_label_frac),
    ] {
        if !(0.0..=1.0).contains(&v) {
            fail(&format!("line {n}: {event} {key} = {v} outside [0, 1]"));
        }
    }
    if min_share > max_share {
        fail(&format!(
            "line {n}: {event} min_share {min_share} exceeds max_share {max_share}"
        ));
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let path = args.next().unwrap_or_else(|| {
        eprintln!("usage: trace_check <trace-file> [required-event ...]");
        std::process::exit(2)
    });
    let required: Vec<String> = args.collect();

    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));

    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut events = 0usize;
    let mut spans = 0usize;
    let mut last_ts = f64::NEG_INFINITY;
    let mut last_ts_line = 0usize;
    // Per-thread stack of currently open span names.
    let mut open: BTreeMap<u64, Vec<(String, usize)>> = BTreeMap::new();
    // Line of the last health.abort not yet answered by a health.dump.
    let mut pending_abort: Option<usize> = None;
    // First run_id stamped in the file, with its line number.
    let mut run_id: Option<(String, usize)> = None;
    // Last epoch seen per (event, fit) stream of per-epoch fit events.
    let mut fit_epochs: BTreeMap<(String, u64), (f64, usize)> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let n = lineno + 1;
        let value =
            parse(line).unwrap_or_else(|e| fail(&format!("line {n}: invalid JSON: {e}")));
        if !matches!(value, Json::Obj(_)) {
            fail(&format!("line {n}: not a JSON object"));
        }
        let ts = value
            .get("ts_ms")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| fail(&format!("line {n}: missing numeric ts_ms")));
        if !ts.is_finite() || ts < 0.0 {
            fail(&format!("line {n}: ts_ms = {ts} is not a finite nonnegative number"));
        }
        if ts < last_ts {
            fail(&format!(
                "line {n}: ts_ms went backwards ({ts} after {last_ts} on line {last_ts_line})"
            ));
        }
        last_ts = ts;
        last_ts_line = n;
        let event = value
            .get("event")
            .and_then(Json::as_str)
            .unwrap_or_else(|| fail(&format!("line {n}: missing string event")));
        if event.is_empty() {
            fail(&format!("line {n}: empty event name"));
        }
        if let Some(id) = value.get("run_id") {
            let id = id
                .as_str()
                .unwrap_or_else(|| fail(&format!("line {n}: run_id is not a string")));
            if id.is_empty() {
                fail(&format!("line {n}: empty run_id"));
            }
            match &run_id {
                Some((first, first_line)) if first != id => fail(&format!(
                    "line {n}: run_id {id:?} conflicts with {first:?} from line {first_line}"
                )),
                Some(_) => {}
                None => run_id = Some((id.to_string(), n)),
            }
        }
        if matches!(event, "tabledc.epoch" | "tabledc.diag" | "baseline.epoch" | "baseline.diag") {
            check_fit_epoch(&value, event, n, &mut fit_epochs);
        }
        match event {
            "nn.grad_norm" => {
                for key in ["epoch", "global", "update_ratio"] {
                    let v = value.get(key).and_then(Json::as_f64).unwrap_or_else(|| {
                        fail(&format!("line {n}: nn.grad_norm without numeric {key}"))
                    });
                    if !v.is_finite() {
                        fail(&format!("line {n}: nn.grad_norm {key} = {v} is not finite"));
                    }
                }
                let Json::Obj(fields) = &value else { unreachable!("checked to be an object above") };
                for (key, field) in fields.iter().filter(|(k, _)| k.starts_with("grad.")) {
                    if !field.as_f64().is_some_and(f64::is_finite) {
                        fail(&format!("line {n}: nn.grad_norm {key} = {field:?} is not a finite number"));
                    }
                }
            }
            "health.violation" => {
                let tensor = value.get("tensor").and_then(Json::as_str).unwrap_or_else(|| {
                    fail(&format!("line {n}: health.violation without string tensor"))
                });
                if tensor.is_empty() {
                    fail(&format!("line {n}: health.violation with empty tensor"));
                }
                if value.get("epoch").and_then(Json::as_f64).is_none() {
                    fail(&format!("line {n}: health.violation without numeric epoch"));
                }
            }
            "tabledc.diag" | "baseline.diag" => check_diag_metrics(&value, event, n),
            "tabledc.epoch" => {
                let frac =
                    value.get("delta_label_frac").and_then(Json::as_f64).unwrap_or_else(|| {
                        fail(&format!("line {n}: tabledc.epoch without numeric delta_label_frac"))
                    });
                if !(0.0..=1.0).contains(&frac) {
                    fail(&format!(
                        "line {n}: tabledc.epoch delta_label_frac = {frac} outside [0, 1]"
                    ));
                }
            }
            "health.abort" => pending_abort = Some(n),
            "health.dump" => {
                let path = value
                    .get("path")
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| fail(&format!("line {n}: health.dump without string path")));
                if path.is_empty() {
                    fail(&format!("line {n}: health.dump with empty path"));
                }
                pending_abort = None;
            }
            _ => {}
        }
        if event == "span.enter" || event == "span.exit" {
            let span = value
                .get("span")
                .and_then(Json::as_str)
                .unwrap_or_else(|| fail(&format!("line {n}: {event} without string span")));
            let thread = value
                .get("thread")
                .and_then(Json::as_f64)
                .unwrap_or_else(|| fail(&format!("line {n}: {event} without numeric thread")))
                as u64;
            let stack = open.entry(thread).or_default();
            if event == "span.enter" {
                stack.push((span.to_string(), n));
                spans += 1;
            } else {
                match stack.pop() {
                    Some((top, _)) if top == span => {}
                    Some((top, top_line)) => fail(&format!(
                        "line {n}: span.exit {span:?} on thread {thread} but innermost open \
                         span is {top:?} (entered line {top_line})"
                    )),
                    None => fail(&format!(
                        "line {n}: span.exit {span:?} on thread {thread} with no open span"
                    )),
                }
            }
        }
        seen.insert(event.to_string());
        events += 1;
    }

    if events == 0 {
        fail("trace contains no events");
    }
    if let Some(line) = pending_abort {
        fail(&format!(
            "health.abort on line {line} was never followed by a health.dump event"
        ));
    }
    for (thread, stack) in &open {
        if let Some((name, line)) = stack.last() {
            fail(&format!(
                "thread {thread}: span {name:?} entered on line {line} never exited \
                 ({} open at end of trace)",
                stack.len()
            ));
        }
    }
    for name in &required {
        if !seen.contains(name) {
            fail(&format!(
                "required event {name:?} not found (saw: {})",
                seen.iter().cloned().collect::<Vec<_>>().join(", ")
            ));
        }
    }
    println!(
        "trace_check: {} events ({} spans balanced across {} threads), {} distinct kinds, \
         ts_ms monotone through {:.1} — ok",
        events,
        spans,
        open.len(),
        seen.len(),
        last_ts
    );
}
