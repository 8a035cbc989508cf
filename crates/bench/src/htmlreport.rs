//! Self-contained HTML run reports rendered from ledger manifests.
//!
//! [`render`] turns one [`RunManifest`] — plus an optional baseline
//! manifest to diff against and an optional JSON-lines trace — into a
//! single HTML page with no external assets, no scripts, and no
//! render-time state: the same inputs produce byte-identical output, so
//! the page can be committed as a golden fixture and diffed in CI.
//!
//! The page carries a fixed set of section ids (`run-header`, `health`,
//! `convergence`, `metrics`, `series`, and — input-dependent — `profile`
//! and `diff`) that `results/verify.sh` asserts on, inline-SVG sparklines
//! (one per non-empty history series, `id="spark-<name>"`), and a
//! light/dark theme driven entirely by CSS custom properties. Non-finite
//! values render as `–`; the literal `NaN` never appears in the output.

use std::collections::BTreeMap;

use obs::json::{parse, Json};

use crate::ledger::{diff_manifests, RunManifest};
use crate::perfdiff::{Delta, Tolerance};

/// Sparkline viewport width, CSS pixels.
const SPARK_W: f64 = 240.0;
/// Sparkline viewport height, CSS pixels.
const SPARK_H: f64 = 56.0;
/// Padding inside the sparkline viewport, CSS pixels.
const SPARK_PAD: f64 = 6.0;

/// Aggregated timing of one span path in a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanStat {
    /// Completed enter/exit pairs on this path.
    pub calls: u64,
    /// Total wall milliseconds inside the span.
    pub total_ms: f64,
    /// Wall milliseconds not attributed to child spans.
    pub self_ms: f64,
}

/// A JSON-lines trace folded down to what the report renders: event
/// counts by name and the span tree keyed by `;`-joined path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Events per event name.
    pub events: BTreeMap<String, u64>,
    /// Span statistics keyed by path (`root;child;grandchild`).
    pub spans: BTreeMap<String, SpanStat>,
    /// `run_id` stamped on the trace, when present.
    pub run_id: Option<String>,
    /// Total event lines.
    pub lines: usize,
}

/// One open span while folding a trace.
struct Frame {
    path: String,
    enter_ms: f64,
    child_ms: f64,
}

/// Folds a JSON-lines trace into a [`TraceSummary`]. Returns `Err` on a
/// line that is not a JSON object — the caller treats that as a usage
/// error, matching `trace_check`'s verdict on the same input.
pub fn summarize_trace(text: &str) -> Result<TraceSummary, String> {
    let mut out = TraceSummary::default();
    let mut open: BTreeMap<u64, Vec<Frame>> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let n = lineno + 1;
        let v = parse(line).map_err(|e| format!("trace line {n}: invalid JSON: {e}"))?;
        let event = v
            .get("event")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("trace line {n}: missing string event"))?;
        if out.run_id.is_none() {
            out.run_id = v.get("run_id").and_then(Json::as_str).map(str::to_string);
        }
        *out.events.entry(event.to_string()).or_insert(0) += 1;
        out.lines += 1;
        if event != "span.enter" && event != "span.exit" {
            continue;
        }
        let span = v.get("span").and_then(Json::as_str).unwrap_or_default();
        let thread = v.get("thread").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let ts = v.get("ts_ms").and_then(Json::as_f64).unwrap_or(0.0);
        let stack = open.entry(thread).or_default();
        if event == "span.enter" {
            let path = match stack.last() {
                Some(parent) => format!("{};{span}", parent.path),
                None => span.to_string(),
            };
            stack.push(Frame { path, enter_ms: ts, child_ms: 0.0 });
        } else if let Some(frame) = stack.pop() {
            let dur = (ts - frame.enter_ms).max(0.0);
            let stat = out.spans.entry(frame.path).or_default();
            stat.calls += 1;
            stat.total_ms += dur;
            stat.self_ms += (dur - frame.child_ms).max(0.0);
            if let Some(parent) = stack.last_mut() {
                parent.child_ms += dur;
            }
        }
    }
    Ok(out)
}

/// Escapes text for HTML element and attribute content.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// Display formatting for a metric value: `–` for non-finite, scientific
/// for extreme magnitudes, at most four decimals otherwise. Never emits
/// the literal `NaN`.
fn fmt(v: f64) -> String {
    if !v.is_finite() {
        return "–".to_string();
    }
    if v == 0.0 {
        return "0".to_string();
    }
    if v.abs() >= 1e6 || v.abs() < 1e-3 {
        return format!("{v:.2e}");
    }
    let mut s = format!("{v:.4}");
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.pop();
    }
    s
}

/// Status badge: a colored icon plus a plain-text label — state is never
/// carried by color alone, and the label wears text ink, not the status
/// color.
fn badge(kind: &str, label: &str) -> String {
    let (var, icon) = match kind {
        "good" => ("--status-good", "\u{2713}"),     // ✓
        "warning" => ("--status-warning", "\u{25b2}"), // ▲
        "serious" => ("--status-serious", "\u{25a0}"), // ■
        "critical" => ("--status-critical", "\u{2715}"), // ✕
        _ => ("--text-muted", "\u{25cb}"),           // ○
    };
    format!(
        "<span class=\"badge\"><span class=\"badge-icon\" style=\"color:var({var})\">{icon}</span> {}</span>",
        esc(label)
    )
}

fn health_badge(verdict: &str) -> String {
    let kind = match verdict {
        "healthy" => "good",
        "warned" => "warning",
        _ => "critical",
    };
    badge(kind, verdict)
}

fn convergence_badge(status: &str) -> String {
    let kind = match status {
        "converged" => "good",
        "oscillating" => "warning",
        "stalled" => "serious",
        "collapsed" => "critical",
        _ => "muted",
    };
    badge(kind, status)
}

/// One inline-SVG sparkline over a series: a 2px round-capped polyline
/// through the finite points, a ~10%-opacity area wash to the baseline,
/// and an end dot ringed in the surface color so it stays legible over
/// the line. Non-finite points are skipped; all coordinates are printed
/// with two decimals so the output is byte-stable.
fn sparkline(values: &[f64]) -> String {
    let pts: Vec<(usize, f64)> = values
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, v)| v.is_finite())
        .collect();
    if pts.is_empty() {
        return format!(
            "<svg viewBox=\"0 0 {SPARK_W} {SPARK_H}\" width=\"{SPARK_W}\" height=\"{SPARK_H}\" role=\"img\" aria-label=\"no finite points\"><line class=\"spark-base\" x1=\"{SPARK_PAD}\" y1=\"{:.2}\" x2=\"{:.2}\" y2=\"{:.2}\"/></svg>",
            SPARK_H - SPARK_PAD,
            SPARK_W - SPARK_PAD,
            SPARK_H - SPARK_PAD,
        );
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(_, v) in &pts {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span_x = (values.len().saturating_sub(1)).max(1) as f64;
    let x = |i: usize| SPARK_PAD + i as f64 / span_x * (SPARK_W - 2.0 * SPARK_PAD);
    let y = |v: f64| {
        if hi > lo {
            SPARK_PAD + (hi - v) / (hi - lo) * (SPARK_H - 2.0 * SPARK_PAD)
        } else {
            SPARK_H / 2.0
        }
    };
    let base_y = SPARK_H - SPARK_PAD;
    let mut line = String::new();
    for &(i, v) in &pts {
        if !line.is_empty() {
            line.push(' ');
        }
        line.push_str(&format!("{:.2},{:.2}", x(i), y(v)));
    }
    let mut area = format!("M{:.2},{:.2}", x(pts[0].0), base_y);
    for &(i, v) in &pts {
        area.push_str(&format!(" L{:.2},{:.2}", x(i), y(v)));
    }
    area.push_str(&format!(" L{:.2},{:.2} Z", x(pts[pts.len() - 1].0), base_y));
    let (last_i, last_v) = pts[pts.len() - 1];
    format!(
        "<svg viewBox=\"0 0 {SPARK_W} {SPARK_H}\" width=\"{SPARK_W}\" height=\"{SPARK_H}\" role=\"img\" aria-label=\"{n} epochs, min {min}, max {max}\">\
         <line class=\"spark-base\" x1=\"{SPARK_PAD}\" y1=\"{base_y:.2}\" x2=\"{:.2}\" y2=\"{base_y:.2}\"/>\
         <path class=\"spark-area\" d=\"{area}\"/>\
         <polyline class=\"spark-line\" points=\"{line}\"/>\
         <circle class=\"spark-dot\" cx=\"{:.2}\" cy=\"{:.2}\" r=\"4\"/>\
         </svg>",
        SPARK_W - SPARK_PAD,
        x(last_i),
        y(last_v),
        n = values.len(),
        min = fmt(lo),
        max = fmt(hi),
    )
}

/// The page stylesheet: dataviz tokens as CSS custom properties, light
/// theme by default, dark theme both on explicit `data-theme="dark"` and
/// on OS preference (unless pinned light). Status colors are fixed across
/// themes and only ever color the badge icon, never text.
const STYLE: &str = "\
:root{--surface:#fcfcfb;--text:#0b0b0b;--text-2:#52514e;--text-muted:#898781;\
--grid:#e1e0d9;--axis:#c3c2b7;--series-1:#2a78d6;\
--status-good:#0ca30c;--status-warning:#fab219;--status-serious:#ec835a;--status-critical:#d03b3b}\n\
:root[data-theme=\"dark\"]{--surface:#1a1a19;--text:#ffffff;--text-2:#c3c2b7;--text-muted:#898781;\
--grid:#2c2c2a;--axis:#383835;--series-1:#3987e5}\n\
@media (prefers-color-scheme: dark){:root:where(:not([data-theme=\"light\"]))\
{--surface:#1a1a19;--text:#ffffff;--text-2:#c3c2b7;--text-muted:#898781;\
--grid:#2c2c2a;--axis:#383835;--series-1:#3987e5}}\n\
body{margin:0;background:var(--surface);color:var(--text);\
font:14px/1.5 system-ui,sans-serif}\n\
main{max-width:960px;margin:0 auto;padding:24px}\n\
h1{font-size:20px;margin:0 0 4px}\n\
h2{font-size:15px;margin:28px 0 8px;border-bottom:1px solid var(--grid);padding-bottom:4px}\n\
.sub{color:var(--text-2)}\n\
.muted{color:var(--text-muted)}\n\
dl.kv{display:grid;grid-template-columns:max-content 1fr;gap:2px 16px;margin:8px 0}\n\
dl.kv dt{color:var(--text-2)}\n\
dl.kv dd{margin:0;font-variant-numeric:tabular-nums}\n\
table{border-collapse:collapse;margin:8px 0}\n\
th,td{text-align:left;padding:3px 12px 3px 0;border-bottom:1px solid var(--grid)}\n\
th{color:var(--text-2);font-weight:600}\n\
td.num,th.num{text-align:right;font-variant-numeric:tabular-nums}\n\
.badge{white-space:nowrap}\n\
.badge-icon{font-size:12px}\n\
.series-grid{display:grid;grid-template-columns:repeat(auto-fill,minmax(260px,1fr));gap:16px}\n\
figure{margin:0}\n\
figcaption{color:var(--text-2);font-size:13px;margin-bottom:2px}\n\
figcaption .stats{color:var(--text-muted);font-size:12px}\n\
.spark-line{fill:none;stroke:var(--series-1);stroke-width:2;\
stroke-linejoin:round;stroke-linecap:round}\n\
.spark-area{fill:var(--series-1);fill-opacity:.1;stroke:none}\n\
.spark-dot{fill:var(--series-1);stroke:var(--surface);stroke-width:2}\n\
.spark-base{stroke:var(--axis);stroke-width:1}\n";

/// Renders a manifest (plus optional baseline and trace) into one
/// self-contained HTML page. Deterministic: identical inputs yield
/// byte-identical output.
pub fn render(
    manifest: &RunManifest,
    baseline: Option<&RunManifest>,
    trace: Option<&TraceSummary>,
) -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    out.push_str(&format!("<title>TableDC run {}</title>\n", esc(&manifest.run_id)));
    out.push_str("<style>\n");
    out.push_str(STYLE);
    out.push_str("</style>\n</head>\n<body>\n<main>\n");

    header_section(&mut out, manifest);
    health_section(&mut out, manifest);
    convergence_section(&mut out, manifest);
    metrics_section(&mut out, manifest, baseline);
    series_section(&mut out, manifest);
    if let Some(t) = trace {
        profile_section(&mut out, t);
    }
    if let Some(b) = baseline {
        diff_section(&mut out, b, manifest);
    }

    out.push_str("</main>\n</body>\n</html>\n");
    out
}

fn header_section(out: &mut String, m: &RunManifest) {
    out.push_str("<header id=\"run-header\">\n");
    out.push_str(&format!("<h1>{}</h1>\n", esc(&m.run_id)));
    out.push_str(&format!(
        "<p class=\"sub\">{} · git {} · seed {} · scale {} · epoch factor {}</p>\n",
        esc(&m.command),
        esc(&m.git),
        m.seed,
        esc(&m.scale),
        fmt(m.epoch_factor)
    ));
    out.push_str("<dl class=\"kv\">\n");
    out.push_str(&format!("<dt>created (unix ms)</dt><dd>{}</dd>\n", m.created_unix_ms));
    for (k, v) in &m.env {
        out.push_str(&format!("<dt>{}</dt><dd>{}</dd>\n", esc(k), esc(v)));
    }
    out.push_str("</dl>\n</header>\n");
}

fn health_section(out: &mut String, m: &RunManifest) {
    out.push_str("<section id=\"health\">\n<h2>Health</h2>\n");
    out.push_str(&format!(
        "<p>{} <span class=\"sub\">policy {}, {} violation{}</span>",
        health_badge(&m.health.verdict),
        esc(&m.health.policy),
        m.health.violations,
        if m.health.violations == 1 { "" } else { "s" }
    ));
    if let Some(dump) = &m.health.dump_path {
        out.push_str(&format!(" <span class=\"muted\">dump: {}</span>", esc(dump)));
    }
    out.push_str("</p>\n</section>\n");
}

fn convergence_section(out: &mut String, m: &RunManifest) {
    out.push_str("<section id=\"convergence\">\n<h2>Convergence</h2>\n");
    match &m.convergence {
        Some(c) => {
            let epoch = match c.epoch {
                Some(e) => format!("epoch {e}"),
                None => "no deciding epoch".to_string(),
            };
            out.push_str(&format!(
                "<p>{} <span class=\"sub\">{epoch}</span><br><span class=\"muted\">{}</span></p>\n",
                convergence_badge(&c.status),
                esc(&c.rule)
            ));
        }
        None => {
            out.push_str(&format!(
                "<p>{} <span class=\"muted\">not recorded by this run</span></p>\n",
                badge("muted", "unknown")
            ));
        }
    }
    out.push_str("</section>\n");
}

fn metrics_section(out: &mut String, m: &RunManifest, baseline: Option<&RunManifest>) {
    out.push_str("<section id=\"metrics\">\n<h2>Metrics</h2>\n");
    if m.metrics.is_empty() {
        out.push_str("<p class=\"muted\">no metrics recorded</p>\n</section>\n");
        return;
    }
    out.push_str("<table>\n<thead><tr><th>metric</th><th class=\"num\">value</th>");
    if baseline.is_some() {
        out.push_str("<th class=\"num\">baseline</th>");
    }
    out.push_str("</tr></thead>\n<tbody>\n");
    for (k, v) in &m.metrics {
        out.push_str(&format!(
            "<tr><td>{}</td><td class=\"num\">{}</td>",
            esc(k),
            fmt(*v)
        ));
        if let Some(b) = baseline {
            let bv = b.metrics.iter().find(|(n, _)| n == k).map(|(_, v)| fmt(*v));
            out.push_str(&format!(
                "<td class=\"num\">{}</td>",
                bv.unwrap_or_else(|| "–".to_string())
            ));
        }
        out.push_str("</tr>\n");
    }
    out.push_str("</tbody>\n</table>\n</section>\n");
}

fn series_section(out: &mut String, m: &RunManifest) {
    out.push_str("<section id=\"series\">\n<h2>Training series</h2>\n");
    let nonempty: Vec<(&'static str, &[f64])> = m
        .history
        .series()
        .into_iter()
        .filter(|(_, v)| !v.is_empty())
        .collect();
    if nonempty.is_empty() {
        out.push_str("<p class=\"muted\">no per-epoch history recorded</p>\n</section>\n");
        return;
    }
    out.push_str("<div class=\"series-grid\">\n");
    for (name, values) in nonempty {
        let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        let stats = if finite.is_empty() {
            "no finite points".to_string()
        } else {
            let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            format!("last {} · min {} · max {}", fmt(finite[finite.len() - 1]), fmt(lo), fmt(hi))
        };
        out.push_str(&format!(
            "<figure id=\"spark-{name}\">\n<figcaption>{name} <span class=\"stats\">{stats}</span></figcaption>\n{}\n</figure>\n",
            sparkline(values)
        ));
    }
    out.push_str("</div>\n</section>\n");
}

fn profile_section(out: &mut String, t: &TraceSummary) {
    out.push_str("<section id=\"profile\">\n<h2>Profile</h2>\n");
    let mut intro = format!("{} trace events", t.lines);
    if let Some(id) = &t.run_id {
        intro.push_str(&format!(" · run id {}", esc(id)));
    }
    out.push_str(&format!("<p class=\"sub\">{intro}</p>\n"));
    if !t.spans.is_empty() {
        out.push_str(
            "<table>\n<thead><tr><th>span</th><th class=\"num\">calls</th>\
             <th class=\"num\">total ms</th><th class=\"num\">self ms</th></tr></thead>\n<tbody>\n",
        );
        // BTreeMap order keeps children directly under their parents:
        // `a` < `a;b` < `a;b;c` < `a;d`.
        for (path, stat) in &t.spans {
            let depth = path.matches(';').count();
            let leaf = path.rsplit(';').next().unwrap_or(path);
            out.push_str(&format!(
                "<tr><td>{}{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td></tr>\n",
                "\u{2003}".repeat(depth),
                esc(leaf),
                stat.calls,
                fmt(stat.total_ms),
                fmt(stat.self_ms)
            ));
        }
        out.push_str("</tbody>\n</table>\n");
    }
    out.push_str("<table>\n<thead><tr><th>event</th><th class=\"num\">count</th></tr></thead>\n<tbody>\n");
    for (name, count) in &t.events {
        out.push_str(&format!(
            "<tr><td>{}</td><td class=\"num\">{count}</td></tr>\n",
            esc(name)
        ));
    }
    out.push_str("</tbody>\n</table>\n</section>\n");
}

fn diff_section(out: &mut String, base: &RunManifest, cand: &RunManifest) {
    out.push_str("<section id=\"diff\">\n<h2>Diff vs baseline</h2>\n");
    out.push_str(&format!(
        "<p class=\"sub\">baseline {} → candidate {}</p>\n",
        esc(&base.run_id),
        esc(&cand.run_id)
    ));
    let report = diff_manifests(base, cand, &Tolerance::default());
    let row = |d: &Delta| {
        format!(
            "<tr><td>{}</td><td>{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td><td class=\"num\">{}×</td></tr>\n",
            esc(d.section),
            esc(&d.name),
            fmt(d.base),
            fmt(d.cand),
            fmt(d.ratio())
        )
    };
    if report.regressions.is_empty() && report.improvements.is_empty() {
        out.push_str(&format!(
            "<p>{} <span class=\"sub\">{} entries compared, none beyond tolerance</span></p>\n",
            badge("good", "no regressions"),
            report.compared
        ));
    } else {
        if !report.regressions.is_empty() {
            out.push_str(&format!("<p>{}</p>\n", badge("critical", "regressions")));
            out.push_str(
                "<table>\n<thead><tr><th>section</th><th>name</th><th class=\"num\">base</th>\
                 <th class=\"num\">cand</th><th class=\"num\">ratio</th></tr></thead>\n<tbody>\n",
            );
            for d in &report.regressions {
                out.push_str(&row(d));
            }
            out.push_str("</tbody>\n</table>\n");
        }
        if !report.improvements.is_empty() {
            out.push_str(&format!("<p>{}</p>\n", badge("good", "improvements")));
            out.push_str(
                "<table>\n<thead><tr><th>section</th><th>name</th><th class=\"num\">base</th>\
                 <th class=\"num\">cand</th><th class=\"num\">ratio</th></tr></thead>\n<tbody>\n",
            );
            for d in &report.improvements {
                out.push_str(&row(d));
            }
            out.push_str("</tbody>\n</table>\n");
        }
    }
    if !report.notes.is_empty() {
        out.push_str("<ul>\n");
        for n in &report.notes {
            out.push_str(&format!("<li class=\"muted\">{}</li>\n", esc(n)));
        }
        out.push_str("</ul>\n");
    }
    out.push_str("</section>\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{ConvergenceSummary, HealthSummary};
    use tabledc::History;

    fn manifest() -> RunManifest {
        RunManifest {
            run_id: "unit-run".to_string(),
            command: "quickstart".to_string(),
            created_unix_ms: 1,
            git: "abc".to_string(),
            seed: 7,
            scale: "quickstart".to_string(),
            epoch_factor: 1.0,
            env: vec![("TABLEDC_HEALTH".to_string(), "strict".to_string())],
            health: HealthSummary::default(),
            convergence: Some(ConvergenceSummary {
                status: "converged".to_string(),
                epoch: Some(4),
                rule: "label churn <= 0.010".to_string(),
            }),
            metrics: vec![("tabledc/ari".to_string(), 0.9)],
            history: History {
                re_loss: vec![1.0, 0.5, 0.25],
                delta_label_frac: vec![1.0, 0.1, 0.0],
                ..History::default()
            },
        }
    }

    #[test]
    fn render_is_deterministic_and_carries_section_ids() {
        let m = manifest();
        let a = render(&m, None, None);
        let b = render(&m, None, None);
        assert_eq!(a, b);
        for id in ["run-header", "health", "convergence", "metrics", "series"] {
            assert!(a.contains(&format!("id=\"{id}\"")), "missing section {id}");
        }
        assert!(a.contains("id=\"spark-re_loss\""));
        assert!(a.contains("id=\"spark-delta_label_frac\""));
        // Empty series render no figure.
        assert!(!a.contains("id=\"spark-ce_loss\""));
        // No scripts, no external fetches, no NaN literals.
        assert!(!a.contains("<script"));
        assert!(!a.contains("http://") && !a.contains("https://"));
        assert!(!a.contains("NaN"));
    }

    #[test]
    fn non_finite_values_render_as_dashes() {
        let mut m = manifest();
        m.metrics.push(("tabledc/broken".to_string(), f64::NAN));
        m.history.re_loss = vec![1.0, f64::NAN, 0.5];
        let html = render(&m, None, None);
        assert!(!html.contains("NaN"));
        assert!(html.contains("–"));
        // The sparkline still renders from the finite points.
        assert!(html.contains("id=\"spark-re_loss\""));
    }

    #[test]
    fn all_nan_series_renders_placeholder_sparkline() {
        let mut m = manifest();
        m.history.re_loss = vec![f64::NAN, f64::NAN];
        let html = render(&m, None, None);
        assert!(html.contains("no finite points"));
        assert!(!html.contains("NaN"));
    }

    #[test]
    fn diff_section_flags_doctored_regression() {
        let base = manifest();
        let mut cand = manifest();
        cand.metrics[0].1 = 0.4;
        cand.health.verdict = "aborted".to_string();
        let html = render(&cand, Some(&base), None);
        assert!(html.contains("id=\"diff\""));
        assert!(html.contains("regressions"));
        assert!(html.contains("tabledc/ari"));
        // Baseline column appears in the metrics table.
        assert!(html.contains("baseline"));
    }

    #[test]
    fn trace_summary_folds_span_tree_with_self_times() {
        let trace = "\
{\"ts_ms\":0.0,\"run_id\":\"r1\",\"event\":\"span.enter\",\"span\":\"fit\",\"thread\":1}\n\
{\"ts_ms\":1.0,\"event\":\"span.enter\",\"span\":\"epoch\",\"thread\":1}\n\
{\"ts_ms\":4.0,\"event\":\"span.exit\",\"span\":\"epoch\",\"thread\":1}\n\
{\"ts_ms\":10.0,\"event\":\"span.exit\",\"span\":\"fit\",\"thread\":1}\n\
{\"ts_ms\":10.0,\"event\":\"tabledc.diag\",\"epoch\":0}\n";
        let t = summarize_trace(trace).expect("trace parses");
        assert_eq!(t.run_id.as_deref(), Some("r1"));
        assert_eq!(t.lines, 5);
        assert_eq!(t.events.get("tabledc.diag"), Some(&1));
        let fit = &t.spans["fit"];
        assert_eq!(fit.calls, 1);
        assert!((fit.total_ms - 10.0).abs() < 1e-9);
        assert!((fit.self_ms - 7.0).abs() < 1e-9);
        let epoch = &t.spans["fit;epoch"];
        assert!((epoch.total_ms - 3.0).abs() < 1e-9);

        let html = render(&manifest(), None, Some(&t));
        assert!(html.contains("id=\"profile\""));
        assert!(html.contains("tabledc.diag"));
    }

    #[test]
    fn summarize_trace_rejects_garbage() {
        assert!(summarize_trace("not json\n").is_err());
    }
}
