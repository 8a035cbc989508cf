//! The process-wide metrics registry: named counters, gauges, and
//! histograms, created on first use and readable as a consistent snapshot.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::hist::Histogram;

/// A monotonically increasing `u64` metric.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64` metric (stored as bits in an atomic).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A shared, lock-protected [`Histogram`] handle.
#[derive(Debug, Default)]
pub struct Hist(Mutex<Histogram>);

impl Hist {
    /// Records one sample.
    pub fn record(&self, v: f64) {
        lock(&self.0).record(v);
    }

    /// A copy of the current state.
    pub fn snapshot(&self) -> Histogram {
        lock(&self.0).clone()
    }
}

/// Named metric storage. Use the global [`registry`] in production code;
/// construct standalone registries only in tests.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Hist>>>,
}

/// A point-in-time copy of every metric, sorted by name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram copies.
    pub histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use. The returned handle
    /// can be cached to skip the name lookup on hot paths.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name)
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name)
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Hist> {
        get_or_insert(&self.histograms, name)
    }

    /// Copies every metric out of the registry.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: lock(&self.counters).iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            gauges: lock(&self.gauges).iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: lock(&self.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Drops every metric (test isolation; outstanding handles keep
    /// working but are no longer reachable from the registry).
    pub fn reset(&self) {
        lock(&self.counters).clear();
        lock(&self.gauges).clear();
        lock(&self.histograms).clear();
    }
}

fn get_or_insert<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut guard = lock(map);
    if let Some(existing) = guard.get(name) {
        return Arc::clone(existing);
    }
    let created = Arc::new(T::default());
    guard.insert(name.to_string(), Arc::clone(&created));
    created
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The process-wide registry all instrumentation records into.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_handles_alias() {
        let r = Registry::new();
        let a = r.counter("c");
        let b = r.counter("c");
        a.inc();
        b.add(4);
        assert_eq!(r.counter("c").get(), 5);
        assert_eq!(r.snapshot().counters["c"], 5);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let r = Registry::new();
        r.gauge("g").set(1.0);
        r.gauge("g").set(-2.5);
        assert_eq!(r.gauge("g").get(), -2.5);
    }

    #[test]
    fn histograms_record_through_shared_handle() {
        let r = Registry::new();
        let h = r.histogram("h");
        h.record(1.0);
        r.histogram("h").record(3.0);
        let snap = r.snapshot().histograms["h"].clone();
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.max(), 3.0);
    }

    #[test]
    fn snapshot_is_sorted_and_reset_clears() {
        let r = Registry::new();
        r.counter("z").inc();
        r.counter("a").inc();
        let snap = r.snapshot();
        let names: Vec<&String> = snap.counters.keys().collect();
        assert_eq!(names, ["a", "z"]);
        r.reset();
        assert!(r.snapshot().counters.is_empty());
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = registry() as *const Registry;
        let b = registry() as *const Registry;
        assert_eq!(a, b);
    }
}
