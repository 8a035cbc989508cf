//! The hierarchical span tree: per-thread span stacks give every span a
//! parent, and a process-wide tree accumulates total time, self time, call
//! counts, and (with [`crate::alloc`] tracking on) allocation stats per
//! node.
//!
//! ## Model
//!
//! Each thread keeps a stack of active frames. [`enter`] resolves a tree
//! node from `(parent, name)` — the parent being the innermost active
//! frame — pushes a frame, and publishes the node id in a plain
//! thread-local [`Cell`] the allocation hook can read without locks or
//! borrows. [`exit`] pops the frame, attributes `elapsed − time spent in
//! child spans on this thread` as *self time*, and adds the elapsed time
//! to the parent frame's child accumulator.
//!
//! ## Cross-thread propagation
//!
//! [`current_context`] captures the innermost active node; a worker thread
//! re-enters it with [`enter_context`] before running a task, so spans
//! created inside parallel kernels nest under their logical parent instead
//! of becoming orphan roots. A context frame records nothing in the tree.
//! Consequently a parent's *total* time is its own wall time, while its
//! children may sum to more — concurrent children on N threads
//! legitimately accumulate up to N× the parent's wall time. Self time is
//! only meaningful on the thread that ran the span, which is exactly what
//! the per-thread child accumulator measures. A worker's time outside any
//! span stays unattributed.
//!
//! ## Determinism
//!
//! Like the rest of this crate, the tree only observes: no kernel reads it,
//! so profiling cannot perturb reduction trees or schedules (beyond wall
//! time). Exports ([`snapshot`], [`folded`], [`report`]) order children by
//! name, so traced-run diffs are stable.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

pub(crate) type NodeId = u32;

/// The synthetic root every top-level span hangs off (also the slot that
/// absorbs allocations made outside any span).
pub(crate) const ROOT: NodeId = 0;

/// Hard cap on distinct tree nodes. Span names are a small static set, so
/// this is generous; if exceeded (e.g. unbounded dynamic names), further
/// `(parent, name)` pairs collapse into their parent node instead of
/// growing without bound.
pub(crate) const MAX_NODES: usize = 4096;

struct Node {
    name: Cow<'static, str>,
    children: Vec<NodeId>,
    calls: u64,
    total_ns: u64,
    self_ns: u64,
}

struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    fn new() -> Self {
        Self {
            nodes: vec![Node {
                name: Cow::Borrowed("(root)"),
                children: Vec::new(),
                calls: 0,
                total_ns: 0,
                self_ns: 0,
            }],
        }
    }

    /// Finds or creates the child of `parent` named `name`.
    #[allow(clippy::ptr_arg, reason = "a new node clones the Cow, which borrows `'static` names without allocating")]
    fn intern(&mut self, parent: NodeId, name: &Cow<'static, str>) -> NodeId {
        let parent = if (parent as usize) < self.nodes.len() { parent } else { ROOT };
        for &c in &self.nodes[parent as usize].children {
            if self.nodes[c as usize].name == *name {
                return c;
            }
        }
        if self.nodes.len() >= MAX_NODES {
            return parent; // saturated: attribute to the parent
        }
        let id = self.nodes.len() as NodeId;
        self.nodes.push(Node {
            name: name.clone(),
            children: Vec::new(),
            calls: 0,
            total_ns: 0,
            self_ns: 0,
        });
        self.nodes[parent as usize].children.push(id);
        id
    }
}

fn tree() -> &'static Mutex<Tree> {
    static TREE: OnceLock<Mutex<Tree>> = OnceLock::new();
    TREE.get_or_init(|| Mutex::new(Tree::new()))
}

fn lock(m: &Mutex<Tree>) -> MutexGuard<'_, Tree> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One activation record on a thread's span stack.
struct Frame {
    node: NodeId,
    /// Nanoseconds spent in completed child spans of this activation.
    child_ns: u64,
    /// True for [`enter_context`] frames, which record nothing in the tree.
    context: bool,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    /// The innermost active node, readable from the allocation hook with a
    /// single `Cell` load (no locks, no `RefCell` borrow, no allocation).
    static CURRENT: Cell<NodeId> = const { Cell::new(ROOT) };
}

/// The innermost active node on this thread (for the allocation hook).
pub(crate) fn current_node() -> NodeId {
    CURRENT.with(Cell::get)
}

/// Begins a span activation: resolves the tree node under the innermost
/// active frame and pushes a new frame. Called by [`crate::span`].
#[allow(clippy::ptr_arg, reason = "passed on to `Tree::intern`, which may keep a clone of the Cow")]
pub(crate) fn enter(name: &Cow<'static, str>) -> NodeId {
    let parent = CURRENT.with(Cell::get);
    let id = lock(tree()).intern(parent, name);
    STACK.with(|s| s.borrow_mut().push(Frame { node: id, child_ns: 0, context: false }));
    CURRENT.with(|c| c.set(id));
    id
}

/// Ends a span activation, recording `elapsed_ns` total and the derived
/// self time. A span dropped on a different thread than it started on (the
/// frame no longer matches) still records calls and total time, but no
/// self time and no stack mutation.
pub(crate) fn exit(id: NodeId, elapsed_ns: u64) {
    let child_ns = STACK.with(|s| {
        let mut st = s.borrow_mut();
        match st.last() {
            Some(f) if f.node == id && !f.context => {
                let frame = st.pop().expect("non-empty: just matched");
                if let Some(parent) = st.last_mut() {
                    parent.child_ns += elapsed_ns;
                    CURRENT.with(|c| c.set(parent.node));
                } else {
                    CURRENT.with(|c| c.set(ROOT));
                }
                Some(frame.child_ns)
            }
            _ => None,
        }
    });
    let self_ns = child_ns.map_or(0, |c| elapsed_ns.saturating_sub(c));
    let mut t = lock(tree());
    if let Some(node) = t.nodes.get_mut(id as usize) {
        node.calls += 1;
        node.total_ns += elapsed_ns;
        node.self_ns += self_ns;
    }
}

/// A capture of the innermost active span (and of the test-sink capture
/// scope), cheap to copy across threads.
#[derive(Debug, Clone, Copy)]
pub struct SpanContext {
    node: NodeId,
    capture: u64,
}

/// Captures the innermost active span on the calling thread. Pair with
/// [`enter_context`] on the receiving thread so spawned work nests under
/// its logical parent. With no span active, the context is the root (and
/// re-entering it is a no-op nesting-wise).
pub fn current_context() -> SpanContext {
    SpanContext { node: CURRENT.with(Cell::get), capture: crate::sink::capture_scope() }
}

/// RAII guard restoring the previous ambient span on drop.
#[must_use = "bind to a variable; dropping immediately removes the context"]
pub struct ContextGuard {
    node: NodeId,
    prev: NodeId,
    prev_capture: u64,
}

/// Installs `ctx` as the ambient parent for spans created on this thread
/// until the guard drops. Used by the runtime pool's workers when they
/// enter a job; the frame itself is never recorded in the tree.
pub fn enter_context(ctx: SpanContext) -> ContextGuard {
    let prev = CURRENT.with(Cell::get);
    STACK.with(|s| s.borrow_mut().push(Frame { node: ctx.node, child_ns: 0, context: true }));
    CURRENT.with(|c| c.set(ctx.node));
    let prev_capture = crate::sink::set_capture_scope(ctx.capture);
    ContextGuard { node: ctx.node, prev, prev_capture }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            let mut st = s.borrow_mut();
            if matches!(st.last(), Some(f) if f.context && f.node == self.node) {
                st.pop();
            }
        });
        CURRENT.with(|c| c.set(self.prev));
        crate::sink::set_capture_scope(self.prev_capture);
    }
}

/// One node of the span tree, flattened depth-first for export.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span name (the `span!` argument).
    pub name: String,
    /// `;`-joined path from the tree root to this node (folded-stack key).
    pub path: String,
    /// Nesting depth (top-level spans are 0).
    pub depth: usize,
    /// Completed activations.
    pub calls: u64,
    /// Total wall milliseconds across activations.
    pub total_ms: f64,
    /// Milliseconds not spent in same-thread child spans.
    pub self_ms: f64,
    /// Bytes allocated while this node was innermost (0 unless
    /// `TABLEDC_PROFILE=alloc`).
    pub alloc_bytes: u64,
    /// Allocation count while this node was innermost.
    pub allocs: u64,
}

/// Depth-first snapshot of the span tree, children ordered by name.
/// The synthetic root is omitted; an empty vec means no span has completed.
pub fn snapshot() -> Vec<SpanNode> {
    let t = lock(tree());
    let mut out = Vec::new();
    // (node, depth, path-prefix) work stack; children pushed in reverse
    // name order so they pop in name order.
    let mut stack: Vec<(NodeId, usize, String)> = Vec::new();
    let mut roots = t.nodes[ROOT as usize].children.clone();
    roots.sort_by(|&a, &b| t.nodes[a as usize].name.cmp(&t.nodes[b as usize].name));
    for &r in roots.iter().rev() {
        stack.push((r, 0, String::new()));
    }
    while let Some((id, depth, prefix)) = stack.pop() {
        let node = &t.nodes[id as usize];
        let path = if prefix.is_empty() {
            node.name.to_string()
        } else {
            format!("{prefix};{}", node.name)
        };
        let (alloc_bytes, allocs) = crate::alloc::node_totals(id as usize);
        out.push(SpanNode {
            name: node.name.to_string(),
            path: path.clone(),
            depth,
            calls: node.calls,
            total_ms: node.total_ns as f64 / 1e6,
            self_ms: node.self_ns as f64 / 1e6,
            alloc_bytes,
            allocs,
        });
        let mut kids = node.children.clone();
        kids.sort_by(|&a, &b| t.nodes[a as usize].name.cmp(&t.nodes[b as usize].name));
        for &k in kids.iter().rev() {
            stack.push((k, depth + 1, path.clone()));
        }
    }
    out
}

/// Aggregate of every node sharing a span name, regardless of position in
/// the tree — the "per-phase" rows `perfdiff` compares across runs.
#[derive(Debug, Clone, Default)]
pub struct PhaseTotals {
    /// Completed activations.
    pub calls: u64,
    /// Summed total milliseconds. Nested same-name activations double
    /// count here; [`PhaseTotals::self_ms`] never does.
    pub total_ms: f64,
    /// Summed self milliseconds (disjoint across the tree by
    /// construction).
    pub self_ms: f64,
    /// Summed attributed allocation bytes.
    pub alloc_bytes: u64,
}

/// Per-span-name aggregation of the tree, sorted by name.
pub fn aggregate() -> BTreeMap<String, PhaseTotals> {
    let mut out: BTreeMap<String, PhaseTotals> = BTreeMap::new();
    for node in snapshot() {
        let entry = out.entry(node.name).or_default();
        entry.calls += node.calls;
        entry.total_ms += node.total_ms;
        entry.self_ms += node.self_ms;
        entry.alloc_bytes += node.alloc_bytes;
    }
    out
}

/// The span tree in folded-stack format: one `path self_time_us` line per
/// node (calls > 0), deterministically ordered, consumable by standard
/// flamegraph tooling (`flamegraph.pl`, inferno, speedscope).
pub fn folded() -> String {
    let mut out = String::new();
    for node in snapshot() {
        if node.calls == 0 {
            continue;
        }
        out.push_str(&node.path);
        out.push(' ');
        out.push_str(&format!("{}", (node.self_ms * 1e3).round() as u64));
        out.push('\n');
    }
    out
}

/// Name of the environment variable naming a file to receive the folded
/// span tree (written by [`write_folded_if_requested`]).
pub const FOLDED_ENV: &str = "TABLEDC_FOLDED";

/// Writes [`folded`] to the path named by `TABLEDC_FOLDED`, if set.
/// Returns the path written, `None` when the variable is unset/empty.
/// Call at end-of-run from binaries/examples.
pub fn write_folded_if_requested() -> Option<String> {
    let path = std::env::var(FOLDED_ENV).ok()?;
    let path = path.trim().to_string();
    if path.is_empty() {
        return None;
    }
    match std::fs::write(&path, folded()) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("obs: cannot write {FOLDED_ENV} target {path:?}: {e}");
            None
        }
    }
}

/// Human-readable indented span-tree table: calls, total/self ms, and —
/// when allocation tracking is on — attributed bytes and counts.
pub fn report() -> String {
    let nodes = snapshot();
    let mut out = String::from("\n== span tree ==\n");
    if nodes.is_empty() {
        out.push_str("(no spans recorded)\n");
        return out;
    }
    let alloc_on = crate::alloc::tracking_enabled();
    out.push_str(&format!(
        "  {:<38} {:>9} {:>12} {:>12}{}\n",
        "span",
        "calls",
        "total_ms",
        "self_ms",
        if alloc_on { format!(" {:>14} {:>9}", "alloc_bytes", "allocs") } else { String::new() }
    ));
    for n in &nodes {
        let label = format!("{}{}", "  ".repeat(n.depth), n.name);
        out.push_str(&format!(
            "  {:<38} {:>9} {:>12.3} {:>12.3}{}\n",
            label,
            n.calls,
            n.total_ms,
            n.self_ms,
            if alloc_on {
                format!(" {:>14} {:>9}", n.alloc_bytes, n.allocs)
            } else {
                String::new()
            }
        ));
    }
    if alloc_on {
        let (bytes, count) = crate::alloc::unattributed_totals();
        out.push_str(&format!(
            "  {:<38} {:>9} {:>12} {:>12} {:>14} {:>9}\n",
            "(outside any span)", "-", "-", "-", bytes, count
        ));
        out.push_str(&format!(
            "  peak live heap: {} bytes\n",
            crate::alloc::peak_bytes()
        ));
    }
    out
}

/// Drops every recorded span (test isolation). Frames still active on any
/// thread keep their node ids; their eventual exits are ignored if the id
/// no longer exists. Allocation counters are cleared too.
pub fn reset() {
    let mut t = lock(tree());
    *t = Tree::new();
    crate::alloc::reset_counters();
}

/// Re-export: turns allocation tracking on/off at runtime (tests; the
/// `TABLEDC_PROFILE=alloc` environment variable is the production switch).
pub use crate::alloc::set_alloc_tracking;
/// Re-export: true when allocation tracking is active.
pub use crate::alloc::tracking_enabled as alloc_tracking_enabled;
/// Re-export: name of the profile-mode environment variable.
pub use crate::alloc::PROFILE_ENV;

#[cfg(test)]
mod tests {
    use super::*;

    // Span-creating tests run under the sink test lock (disabled sink) so
    // they cannot leak `span.enter` events into concurrently captured
    // memory sinks elsewhere in this binary.

    #[test]
    fn nested_spans_build_a_tree_with_self_time() {
        crate::test_support::with_sink_disabled(|| {
            {
                let _outer = crate::span("profiletest.outer");
                std::thread::sleep(std::time::Duration::from_millis(4));
                {
                    let _inner = crate::span("profiletest.inner");
                    std::thread::sleep(std::time::Duration::from_millis(4));
                }
            }
            let nodes = snapshot();
            let outer = nodes
                .iter()
                .find(|n| n.path == "profiletest.outer")
                .expect("outer node present");
            let inner = nodes
                .iter()
                .find(|n| n.path == "profiletest.outer;profiletest.inner")
                .expect("inner nested under outer");
            assert!(outer.calls >= 1);
            assert!(inner.calls >= 1);
            assert!(outer.total_ms >= inner.total_ms);
            // Outer self time excludes inner's share.
            assert!(
                outer.self_ms <= outer.total_ms - inner.total_ms + 1.0,
                "outer self {} vs total {} inner {}",
                outer.self_ms,
                outer.total_ms,
                inner.total_ms
            );
        });
    }

    #[test]
    fn context_propagation_reparents_cross_thread_spans() {
        crate::test_support::with_sink_disabled(|| {
            let ctx = {
                let _parent = crate::span("profiletest.ctx_parent");
                current_context()
            };
            // Simulate a pool worker: fresh thread, re-entered context.
            std::thread::spawn(move || {
                let _g = enter_context(ctx);
                let _child = crate::span("profiletest.ctx_child");
            })
            .join()
            .expect("worker thread");
            let nodes = snapshot();
            assert!(
                nodes
                    .iter()
                    .any(|n| n.path == "profiletest.ctx_parent;profiletest.ctx_child"),
                "child should nest under the captured parent, got paths: {:?}",
                nodes.iter().map(|n| &n.path).collect::<Vec<_>>()
            );
        });
    }

    #[test]
    fn folded_lines_are_path_space_value() {
        crate::test_support::with_sink_disabled(|| {
            {
                let _a = crate::span("profiletest.folded_root");
                let _b = crate::span("profiletest.folded_leaf");
            }
            let folded = folded();
            let line = folded
                .lines()
                .find(|l| l.starts_with("profiletest.folded_root;profiletest.folded_leaf "))
                .expect("folded line for the nested path");
            let value = line.rsplit(' ').next().expect("value field");
            value.parse::<u64>().expect("integer self-time value");
        });
    }

    #[test]
    fn aggregate_sums_same_name_nodes() {
        crate::test_support::with_sink_disabled(|| {
            {
                let _a = crate::span("profiletest.agg_outer");
                let _b = crate::span("profiletest.agg_shared");
            }
            {
                let _c = crate::span("profiletest.agg_shared");
            }
            let agg = aggregate();
            let shared = &agg["profiletest.agg_shared"];
            assert!(shared.calls >= 2, "same-name nodes merge: {}", shared.calls);
        });
    }

    #[test]
    fn report_renders_every_snapshot_node() {
        crate::test_support::with_sink_disabled(|| {
            {
                let _s = crate::span("profiletest.report_span");
            }
            let rendered = report();
            assert!(rendered.contains("profiletest.report_span"));
            assert!(rendered.contains("total_ms"));
        });
    }
}
