//! # obs — std-only structured observability for the TableDC stack
//!
//! Cooperating pieces, all built on `std` (the build environment has no
//! registry access):
//!
//! * **Metrics registry** ([`registry`]): process-wide named [`Counter`]s,
//!   [`Gauge`]s, and log-bucketed [`Histogram`]s with p50/p95/p99 readout.
//!   The registry always records — it is a handful of atomic ops or a short
//!   mutex-protected bucket increment, cheap enough for per-iteration use.
//! * **Span timers** ([`span`]/[`span!`]): RAII wall-clock timers on the
//!   monotonic clock; on drop the elapsed milliseconds land in the
//!   histogram named after the span *and* in the hierarchical span tree.
//! * **Span tree** ([`profile`]): per-thread span stacks give every span a
//!   parent; the tree accumulates calls, total-ms, and self-ms per node,
//!   propagates across `runtime` pool boundaries via
//!   [`profile::current_context`]/[`profile::enter_context`], and exports
//!   folded-stack format ([`folded`]) for flamegraph tooling.
//! * **Allocation tracking** ([`alloc`], opt-in via `TABLEDC_PROFILE=alloc`):
//!   a tracking `#[global_allocator]` wrapper attributing bytes and
//!   allocation counts to the innermost active span.
//! * **Health monitoring** ([`health`]): NaN/Inf scanning over losses,
//!   gradients, and assignment matrices with a `TABLEDC_HEALTH`
//!   off/warn/strict policy; violations become `health.*` events and
//!   process-wide counters, and strict mode tells the training loop to
//!   abort and dump diagnostics.
//! * **Event sink** ([`event`]): structured JSON-lines emission controlled
//!   by the `TABLEDC_TRACE` environment variable. Unset ⇒ disabled, and
//!   every [`event`] call collapses to one relaxed atomic load (no
//!   allocation, no formatting). `TABLEDC_TRACE=stderr` writes to stderr;
//!   any other value is treated as a file path (created/truncated).
//!
//! [`summary`] renders the registry as a human-readable end-of-run table;
//! [`profile::report`] does the same for the span tree.
//!
//! ## Determinism
//!
//! Nothing in this crate participates in numeric computation: timers,
//! counters, the span tree, and the allocation hook observe, they never
//! feed back into kernels or reduction trees. Tracing and profiling on/off
//! therefore cannot perturb the bit-identical parallel guarantees of the
//! `runtime` crate (asserted by tests there).

pub mod alloc;
pub mod health;
pub mod hist;
pub mod json;
pub mod profile;
mod registry;
mod sink;
mod span;

pub use health::{HealthMonitor, HealthReport};
pub use hist::Histogram;
pub use profile::folded;
pub use registry::{registry, Counter, Gauge, Hist, Registry, Snapshot};
pub use sink::{
    enabled, event, run_id, set_run_id, test_support, trace_target_description, Event, TRACE_ENV,
};
pub use span::{span, Span};

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Every binary linking `obs` gets the opt-in tracking allocator; when
/// `TABLEDC_PROFILE` does not request `alloc`, each allocation pays one
/// relaxed atomic load over plain `System`.
#[global_allocator]
static GLOBAL_ALLOC: alloc::TrackingAlloc = alloc::TrackingAlloc;

static START: OnceLock<Instant> = OnceLock::new();

/// Milliseconds since the process's first observability call — the
/// monotonic timestamp stamped on every emitted event (`ts_ms`).
pub fn now_ms() -> f64 {
    START.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e3
}

static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ID: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// A small process-local id for the calling thread, assigned sequentially
/// on first use. Stable for the thread's lifetime; stamped on
/// `span.enter`/`span.exit` events so `trace_check` can verify per-thread
/// balance.
pub fn thread_id() -> u64 {
    THREAD_ID.with(|c| {
        let v = c.get();
        if v != u64::MAX {
            v
        } else {
            let id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
            c.set(id);
            id
        }
    })
}

/// Renders the current registry contents as a fixed-width, human-readable
/// summary table: counters, gauges, then histograms with count / p50 / p95
/// / p99 / max columns. Histograms hold milliseconds when fed by spans.
/// Output is deterministic for a given snapshot: every section is sorted
/// by metric name.
pub fn summary() -> String {
    render_summary(&registry().snapshot())
}

/// Renders a specific [`Snapshot`] the way [`summary`] does. Split out so
/// the format (and its determinism) can be pinned against a constructed
/// snapshot in tests.
pub fn render_summary(snap: &Snapshot) -> String {
    let mut out = String::from("\n== observability summary ==\n");
    if snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty() {
        out.push_str("(no metrics recorded)\n");
        return out;
    }
    if !snap.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, v) in &snap.counters {
            out.push_str(&format!("  {name:<34} {v:>14}\n"));
        }
    }
    if !snap.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, v) in &snap.gauges {
            out.push_str(&format!("  {name:<34} {v:>14.3}\n"));
        }
    }
    if !snap.histograms.is_empty() {
        out.push_str(&format!(
            "histograms:\n  {:<26} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
            "name", "count", "p50", "p95", "p99", "max"
        ));
        for (name, h) in &snap.histograms {
            out.push_str(&format!(
                "  {:<26} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3}\n",
                name,
                h.count(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
                h.max(),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_ms_is_monotone_nonnegative() {
        let a = now_ms();
        let b = now_ms();
        assert!(a >= 0.0);
        assert!(b >= a);
    }

    #[test]
    fn thread_ids_are_small_stable_and_distinct() {
        let mine = thread_id();
        assert_eq!(mine, thread_id(), "stable within a thread");
        let other = std::thread::spawn(thread_id).join().expect("thread");
        assert_ne!(mine, other);
    }

    #[test]
    fn summary_lists_recorded_metrics() {
        registry().counter("test.summary_counter").add(3);
        registry().gauge("test.summary_gauge").set(1.5);
        registry().histogram("test.summary_ms").record(2.0);
        let s = summary();
        assert!(s.contains("test.summary_counter"));
        assert!(s.contains("test.summary_gauge"));
        assert!(s.contains("test.summary_ms"));
        assert!(s.contains("p95"));
    }

    /// Pins the summary format byte-for-byte on a constructed snapshot:
    /// sections sorted by name, stable column layout. Traced-run diffs
    /// stay clean only while this holds.
    #[test]
    fn summary_output_is_deterministic_and_sorted() {
        let r = Registry::new();
        // Insert deliberately out of name order.
        r.counter("zeta.count").add(7);
        r.counter("alpha.count").add(2);
        r.gauge("mid.gauge").set(0.5);
        r.histogram("b.hist_ms").record(4.0);
        r.histogram("a.hist_ms").record(1.0);
        let snap = r.snapshot();
        let rendered = render_summary(&snap);
        let expected = concat!(
            "\n== observability summary ==\n",
            "counters:\n",
            "  alpha.count                                     2\n",
            "  zeta.count                                      7\n",
            "gauges:\n",
            "  mid.gauge                                   0.500\n",
            "histograms:\n",
            "  name                          count        p50        p95        p99        max\n",
            "  a.hist_ms                         1      1.000      1.000      1.000      1.000\n",
            "  b.hist_ms                         1      4.000      4.000      4.000      4.000\n",
        );
        assert_eq!(rendered, expected);
        // And identical on re-render.
        assert_eq!(rendered, render_summary(&snap));
    }
}
