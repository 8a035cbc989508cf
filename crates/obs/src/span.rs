//! RAII wall-clock span timers on the monotonic clock, feeding the
//! hierarchical span tree in [`crate::profile`].
//!
//! Static span names (`span!("kmeans.fit")`) are borrowed, not allocated;
//! dynamic names (`span(format!("epoch.{i}"))`) still work through the
//! same `Cow` API.

use std::borrow::Cow;
use std::time::Instant;

use crate::profile::{self, NodeId};

/// A running span. On drop, its total/self time lands in the span tree
/// under the innermost enclosing span, and, while tracing, a `span.exit`
/// event carries the elapsed milliseconds.
#[must_use = "bind to a variable; dropping immediately times nothing"]
pub struct Span {
    name: Cow<'static, str>,
    node: NodeId,
    start: Instant,
}

/// Starts a span named `name`. `&'static str` names are borrowed without
/// allocating. Prefer the [`span!`](crate::span!) macro in instrumented
/// code for grep-ability.
pub fn span(name: impl Into<Cow<'static, str>>) -> Span {
    let name = name.into();
    let node = profile::enter(&name);
    if crate::enabled() {
        crate::event("span.enter")
            .str("span", &name)
            .u64("thread", crate::thread_id())
            .emit();
    }
    Span { name, node, start: Instant::now() }
}

impl Span {
    /// The tree-node name this span records into.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed_ns = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        profile::exit(self.node, elapsed_ns);
        if crate::enabled() {
            crate::event("span.exit")
                .str("span", &self.name)
                .u64("thread", crate::thread_id())
                .f64("ms", elapsed_ns as f64 / 1e6)
                .emit();
        }
    }
}

/// Starts an RAII span timer: `let _t = obs::span!("kmeans.fit");`.
/// The elapsed time lands in the span tree, nested under the enclosing
/// span, when the binding drops.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_names_are_borrowed_dynamic_names_still_work() {
        crate::test_support::with_sink_disabled(|| {
            let s = span("test.static_name");
            assert!(matches!(s.name, Cow::Borrowed(_)));
            drop(s);
            let d = span(format!("test.dynamic_{}", 7));
            assert_eq!(d.name(), "test.dynamic_7");
        });
    }

    #[test]
    fn span_emits_enter_and_exit_events_when_traced() {
        let ((), lines) = crate::test_support::with_memory_sink(|| {
            let _t = crate::span!("test.traced_span");
        });
        let enters: Vec<_> =
            lines.iter().filter(|l| l.contains("\"event\":\"span.enter\"")).collect();
        let exits: Vec<_> =
            lines.iter().filter(|l| l.contains("\"event\":\"span.exit\"")).collect();
        assert_eq!(enters.len(), 1, "lines: {lines:?}");
        assert_eq!(exits.len(), 1, "lines: {lines:?}");
        assert!(enters[0].contains("\"span\":\"test.traced_span\""));
        assert!(exits[0].contains("\"thread\":"));
    }
}
