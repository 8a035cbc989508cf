//! The JSON-lines event sink, controlled by the `TABLEDC_TRACE`
//! environment variable (read once, on first use):
//!
//! * unset or empty — disabled; [`event`] is a no-op costing one atomic
//!   load, no allocation;
//! * `stderr` — one JSON object per line on standard error;
//! * anything else — treated as a file path, created/truncated, flushed
//!   per line.
//!
//! Every event line is a flat JSON object with at least `ts_ms` (f64
//! milliseconds on the process-local monotonic clock) and `event` (the
//! event name); remaining keys are event-specific fields. `ts_ms` is
//! stamped *under the sink lock*, immediately before the line is written,
//! so timestamps are monotonically non-decreasing across the whole trace
//! even when many threads emit concurrently — `trace_check` enforces
//! this.

use std::cell::Cell;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::json;

/// Name of the environment variable selecting the trace sink.
pub const TRACE_ENV: &str = "TABLEDC_TRACE";

/// The process-wide run id: the raw id plus a pre-escaped `,"run_id":…`
/// fragment spliced into every event line.
static RUN_ID: OnceLock<(String, String)> = OnceLock::new();

/// Stamps `run_id` on every trace event written from now on, joining the
/// trace to the `results/runs/<run-id>.json` manifest. Set once, as early
/// as possible, by the entry point that owns the run (quickstart/repro);
/// the first call wins and later calls are ignored.
pub fn set_run_id(id: &str) {
    let mut frag = String::with_capacity(id.len() + 12);
    frag.push_str(",\"run_id\":");
    json::escape_into(&mut frag, id);
    let _ = RUN_ID.set((id.to_string(), frag));
}

/// The run id installed by [`set_run_id`], if any.
pub fn run_id() -> Option<&'static str> {
    RUN_ID.get().map(|(raw, _)| raw.as_str())
}

enum SinkState {
    Disabled,
    Stderr,
    File(BufWriter<File>),
    /// Test-only in-memory capture (installed via [`test_support`]) of the
    /// events emitted under one capture scope.
    Memory { scope: u64, lines: Vec<String> },
}

thread_local! {
    /// The capture scope the calling thread runs under: 0 outside every
    /// [`test_support::with_memory_sink`] call. Pool tasks inherit it from
    /// their spawner through [`crate::profile::SpanContext`].
    static CAPTURE: Cell<u64> = const { Cell::new(0) };
}

/// The calling thread's capture scope.
pub(crate) fn capture_scope() -> u64 {
    CAPTURE.with(Cell::get)
}

/// Sets the calling thread's capture scope, returning the previous one.
pub(crate) fn set_capture_scope(scope: u64) -> u64 {
    CAPTURE.with(|c| c.replace(scope))
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: OnceLock<Mutex<SinkState>> = OnceLock::new();

fn sink() -> &'static Mutex<SinkState> {
    SINK.get_or_init(|| {
        let state = state_from_env();
        ENABLED.store(!matches!(state, SinkState::Disabled), Ordering::Release);
        Mutex::new(state)
    })
}

fn state_from_env() -> SinkState {
    match std::env::var(TRACE_ENV) {
        Err(_) => SinkState::Disabled,
        Ok(v) if v.trim().is_empty() => SinkState::Disabled,
        Ok(v) if v.trim() == "stderr" => SinkState::Stderr,
        Ok(path) => match File::create(path.trim()) {
            Ok(f) => SinkState::File(BufWriter::new(f)),
            Err(e) => {
                eprintln!("obs: cannot open {TRACE_ENV} target {path:?}: {e}; tracing disabled");
                SinkState::Disabled
            }
        },
    }
}

/// True when a trace sink is active and [`event`] calls will emit.
#[inline]
pub fn enabled() -> bool {
    let _ = sink(); // ensure the env var has been read once
    ENABLED.load(Ordering::Acquire)
}

/// Human-readable description of where trace events go.
pub fn trace_target_description() -> String {
    match &*lock(sink()) {
        SinkState::Disabled => "disabled".to_string(),
        SinkState::Stderr => "stderr".to_string(),
        SinkState::File(_) => format!("file ({})", std::env::var(TRACE_ENV).unwrap_or_default()),
        SinkState::Memory { .. } => "memory (test)".to_string(),
    }
}

/// Stamps `ts_ms` and writes one event line. The timestamp is taken while
/// holding the sink lock so lines land in the file in timestamp order. A
/// memory sink drops events emitted outside its capture scope.
fn write_event(tail: &str) {
    let mut state = lock(sink());
    match &*state {
        SinkState::Disabled => return,
        SinkState::Memory { scope, .. } if *scope != capture_scope() => return,
        _ => {}
    }
    let mut line = String::with_capacity(tail.len() + 64);
    line.push_str("{\"ts_ms\":");
    json::number_into(&mut line, crate::now_ms());
    if let Some((_, frag)) = RUN_ID.get() {
        line.push_str(frag);
    }
    line.push(',');
    line.push_str(tail);
    line.push('}');
    match &mut *state {
        SinkState::Disabled => {}
        SinkState::Stderr => eprintln!("{line}"),
        SinkState::File(w) => {
            let _ = writeln!(w, "{line}");
            let _ = w.flush();
        }
        SinkState::Memory { lines, .. } => lines.push(line),
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// An in-flight event. Obtained from [`event`]; fields are appended with
/// the typed builder methods and nothing is written until [`Event::emit`].
/// When tracing is disabled the builder holds no buffer and every call is
/// a no-op.
#[must_use = "call .emit() to write the event"]
pub struct Event {
    buf: Option<String>,
}

/// Starts building the event named `name`. Cheap no-op when tracing is
/// disabled.
pub fn event(name: &str) -> Event {
    if !enabled() {
        return Event { buf: None };
    }
    let mut buf = String::with_capacity(96);
    buf.push_str("\"event\":");
    json::escape_into(&mut buf, name);
    Event { buf: Some(buf) }
}

impl Event {
    fn push_key(&mut self, key: &str) -> bool {
        match self.buf.as_mut() {
            None => false,
            Some(buf) => {
                buf.push(',');
                json::escape_into(buf, key);
                buf.push(':');
                true
            }
        }
    }

    /// Adds an `f64` field (non-finite values serialize as `null`).
    pub fn f64(mut self, key: &str, v: f64) -> Self {
        if self.push_key(key) {
            json::number_into(self.buf.as_mut().expect("buffer present"), v);
        }
        self
    }

    /// Adds a `u64` field.
    pub fn u64(mut self, key: &str, v: u64) -> Self {
        if self.push_key(key) {
            let _ = write!(self.buf.as_mut().expect("buffer present"), "{v}");
        }
        self
    }

    /// Adds an `i64` field.
    pub fn i64(mut self, key: &str, v: i64) -> Self {
        if self.push_key(key) {
            let _ = write!(self.buf.as_mut().expect("buffer present"), "{v}");
        }
        self
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, v: &str) -> Self {
        if self.push_key(key) {
            json::escape_into(self.buf.as_mut().expect("buffer present"), v);
        }
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, v: bool) -> Self {
        if self.push_key(key) {
            self.buf.as_mut().expect("buffer present").push_str(if v { "true" } else { "false" });
        }
        self
    }

    /// Writes the event as one JSON line (no-op when tracing is disabled).
    /// `ts_ms` is stamped at write time, under the sink lock.
    pub fn emit(self) {
        if let Some(buf) = self.buf {
            write_event(&buf);
        }
    }
}

/// Deterministic sink control for tests.
///
/// All helpers serialize on one process-wide lock so tests that install a
/// memory sink and tests that assert "no events" cannot race each other
/// within a test binary. Tests that never touch the sink still run
/// concurrently, so a memory sink captures only its own scope: the calling
/// thread plus the pool tasks spawned under it.
pub mod test_support {
    use super::*;

    static TEST_LOCK: Mutex<()> = Mutex::new(());
    static NEXT_SCOPE: AtomicU64 = AtomicU64::new(1);

    fn set_state(state: SinkState) {
        let enabled = !matches!(state, SinkState::Disabled);
        *lock(sink()) = state;
        ENABLED.store(enabled, Ordering::Release);
    }

    /// Runs `f` with an in-memory sink installed (tracing *enabled*),
    /// returning `f`'s result and the JSON lines emitted within `f`'s
    /// scope — on the calling thread or in pool tasks spawned under it;
    /// events of concurrently running tests are dropped. The sink is
    /// restored to disabled afterwards.
    pub fn with_memory_sink<R>(f: impl FnOnce() -> R) -> (R, Vec<String>) {
        let _guard = lock(&TEST_LOCK);
        let scope = NEXT_SCOPE.fetch_add(1, Ordering::Relaxed);
        set_state(SinkState::Memory { scope, lines: Vec::new() });
        let outer = set_capture_scope(scope);
        let result = f();
        set_capture_scope(outer);
        let lines = match std::mem::replace(&mut *lock(sink()), SinkState::Disabled) {
            SinkState::Memory { lines, .. } => lines,
            _ => Vec::new(),
        };
        ENABLED.store(false, Ordering::Release);
        (result, lines)
    }

    /// Runs `f` with the sink forced off, regardless of `TABLEDC_TRACE`.
    pub fn with_sink_disabled<R>(f: impl FnOnce() -> R) -> R {
        let _guard = lock(&TEST_LOCK);
        set_state(SinkState::Disabled);
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn disabled_sink_emits_nothing_and_builder_is_inert() {
        test_support::with_sink_disabled(|| {
            assert!(!enabled());
            event("x").f64("a", 1.0).str("b", "y").emit();
        });
    }

    #[test]
    fn memory_sink_captures_valid_json_lines() {
        let ((), lines) = test_support::with_memory_sink(|| {
            assert!(enabled());
            event("unit.test")
                .u64("n", 3)
                .i64("neg", -4)
                .f64("x", 1.5)
                .f64("bad", f64::NAN)
                .str("s", "he\"llo\n")
                .bool("flag", true)
                .emit();
        });
        assert_eq!(lines.len(), 1);
        let v = parse(&lines[0]).expect("valid JSON");
        assert_eq!(v.get("event").unwrap().as_str(), Some("unit.test"));
        assert!(v.get("ts_ms").unwrap().as_f64().unwrap() >= 0.0);
        assert_eq!(v.get("n").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("neg").unwrap().as_f64(), Some(-4.0));
        assert_eq!(v.get("x").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("bad").unwrap(), &crate::json::Json::Null);
        assert_eq!(v.get("s").unwrap().as_str(), Some("he\"llo\n"));
        assert_eq!(v.get("flag").unwrap(), &crate::json::Json::Bool(true));
    }

    #[test]
    fn timestamps_are_monotone_across_concurrent_emitters() {
        let ((), lines) = test_support::with_memory_sink(|| {
            let ctx = crate::profile::current_context();
            let threads: Vec<_> = (0..4)
                .map(|t| {
                    std::thread::spawn(move || {
                        // Join the capture scope like a pool task would.
                        let _ctx = crate::profile::enter_context(ctx);
                        for i in 0..50u64 {
                            event("mono.test").u64("t", t).u64("i", i).emit();
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().expect("emitter thread");
            }
        });
        assert_eq!(lines.len(), 200);
        let mut last = f64::NEG_INFINITY;
        for line in &lines {
            let ts = parse(line)
                .expect("valid JSON")
                .get("ts_ms")
                .and_then(crate::json::Json::as_f64)
                .expect("ts_ms");
            assert!(ts >= last, "ts went backwards: {ts} < {last}");
            last = ts;
        }
    }

    /// `set_run_id` is process-global and first-wins, so this test owns
    /// the value for the whole test binary; other tests look fields up by
    /// name and tolerate the extra key.
    #[test]
    fn run_id_is_stamped_on_every_event_and_first_set_wins() {
        let ((), lines) = test_support::with_memory_sink(|| {
            set_run_id("unit-run-1");
            set_run_id("unit-run-2"); // ignored
            event("run_id.test").u64("n", 1).emit();
        });
        assert_eq!(run_id(), Some("unit-run-1"));
        let line = lines.iter().find(|l| l.contains("run_id.test")).expect("event captured");
        let v = parse(line).expect("valid JSON");
        assert_eq!(v.get("run_id").unwrap().as_str(), Some("unit-run-1"));
        // run_id sits between ts_ms and the event name, on every line.
        assert!(line.starts_with("{\"ts_ms\":"));
        assert!(line.contains(",\"run_id\":\"unit-run-1\",\"event\":"));
    }

    #[test]
    fn events_of_other_threads_are_not_captured() {
        let ((), lines) = test_support::with_memory_sink(|| {
            event("mine").emit();
            // A thread outside the scope: stands in for a concurrent test.
            std::thread::spawn(|| event("foreign").emit()).join().expect("emitter thread");
        });
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"mine\""));
    }

    #[test]
    fn events_outside_memory_scope_are_not_captured() {
        let ((), first) = test_support::with_memory_sink(|| {
            event("inside").emit();
        });
        event("outside").emit(); // sink restored to disabled
        let ((), second) = test_support::with_memory_sink(|| {});
        assert_eq!(first.len(), 1);
        assert!(second.is_empty());
    }
}
