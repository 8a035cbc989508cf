//! # obs — std-only structured observability for the TableDC stack
//!
//! Cooperating pieces, all built on `std` (the build environment has no
//! crates.io access). Each fact is recorded once:
//!
//! * **Span timers** ([`span`]/[`span!`]): RAII wall-clock timers on the
//!   monotonic clock; on drop the elapsed time lands in the hierarchical
//!   span tree, and, while tracing, in a `span.exit` event.
//! * **Span tree** ([`profile`]): per-thread span stacks give every span a
//!   parent; the tree accumulates calls, total-ms, and self-ms per node,
//!   propagates across `runtime` pool boundaries via
//!   [`profile::current_context`]/[`profile::enter_context`], and exports
//!   folded-stack format ([`folded`]) for flamegraph tooling.
//!   [`profile::report`] renders it as the end-of-run table.
//! * **Allocation tracking** ([`alloc`], opt-in via `TABLEDC_PROFILE=alloc`):
//!   a tracking `#[global_allocator]` wrapper attributing bytes and
//!   allocation counts to the innermost active span.
//! * **Health monitoring** ([`health`]): NaN/Inf scanning over losses,
//!   gradients, and assignment matrices with a `TABLEDC_HEALTH`
//!   off/warn/strict policy; violations become `health.*` events and
//!   process-wide counts ([`health::global_counts`]), and strict mode
//!   tells the training loop to abort and dump diagnostics.
//! * **Event sink** ([`event`]): structured JSON-lines emission controlled
//!   by the `TABLEDC_TRACE` environment variable. Unset ⇒ disabled, and
//!   every [`event`] call collapses to one relaxed atomic load (no
//!   allocation, no formatting). `TABLEDC_TRACE=stderr` writes to stderr;
//!   any other value is treated as a file path (created/truncated).
//!   Per-step and per-epoch statistics (losses, gradient norms, epoch
//!   times) are event fields, not process-global metrics; a joint-training
//!   event carries its fit id, so fits of several methods in one process
//!   never share a record.
//!
//! ## Determinism
//!
//! Nothing in this crate participates in numeric computation: timers,
//! the span tree, the health counts and the allocation hook observe, they
//! never feed back into kernels or reduction trees. Tracing and profiling
//! on/off therefore cannot perturb the bit-identical parallel guarantees
//! of the `runtime` crate (asserted by tests there).

pub mod alloc;
pub mod health;
pub mod json;
pub mod profile;
mod sink;
mod span;

pub use health::{HealthMonitor, HealthReport};
pub use profile::folded;
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
}
