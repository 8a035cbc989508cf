//! The fork-join block pool.
//!
//! ## Design
//!
//! Each pool owns `threads − 1` OS worker threads (a pool of `threads == 1`
//! owns none and runs everything inline on the caller). It runs one *job*
//! at a time: a block count `B` and a function `f(b)` for `b` in `0..B`.
//! [`ThreadPool::for_each_block`] publishes the job, wakes the workers, and
//! then the caller and the workers claim block indices from one atomic
//! counter until all `B` are taken. The caller returns once every block has
//! run and every worker that entered the job has left it.
//!
//! A fork made while the pool is already running a job — from inside one of
//! its blocks, or from another thread — runs its blocks inline on the
//! forking thread, in order, as a serial pool does. Nested forks therefore
//! cannot deadlock, and since every block writes only its own results, the
//! output bits do not depend on which thread ran which block.
//!
//! ## Safety
//!
//! A job borrows the caller's stack (`f` and the job's counters). The one
//! `unsafe` block in this module erases that lifetime so workers can reach
//! the job through the pool's shared state. Soundness rests on the retire
//! step: [`ThreadPool::for_each_block`] does not return — not even by
//! unwinding — until the job has been withdrawn from the shared state and
//! no worker is still inside it.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Snapshot of a pool's lifetime counters — the first observability hook of
/// the runtime subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Total parallelism (worker threads plus the forking caller).
    pub threads: usize,
    /// Blocks run inside a job (blocks run inline are not counted).
    pub tasks_executed: u64,
    /// Always 0: the pool does not steal. Kept so existing readers of the
    /// counter still build.
    pub steals: u64,
    /// Cumulative wall-clock time threads spent running blocks of a job.
    pub busy: Duration,
}

#[derive(Default)]
struct Counters {
    tasks: AtomicU64,
    busy_ns: AtomicU64,
}

/// One fork: `blocks` calls of `f`, claimed through `next`.
struct Job<'a> {
    blocks: usize,
    f: &'a (dyn Fn(usize) + Sync),
    /// The next unclaimed block index; values `≥ blocks` mean all claimed.
    next: AtomicUsize,
    /// The first panic payload of any block, re-raised by the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// The forking thread's innermost span, entered by each worker so spans
    /// opened inside blocks nest under their logical parent.
    ctx: obs::profile::SpanContext,
}

impl Job<'_> {
    /// Claims and runs blocks until none is left, adding the blocks run and
    /// their time to `counters`. A block's panic is caught and kept, so the
    /// job always drains and this never unwinds.
    fn run_blocks(&self, counters: &Counters) {
        let started = Instant::now();
        let mut ran = 0;
        loop {
            let b = self.next.fetch_add(1, Ordering::Relaxed);
            if b >= self.blocks {
                break;
            }
            ran += 1;
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.f)(b))) {
                self.panic.lock().expect("no block panics under the panic slot's lock").get_or_insert(payload);
            }
        }
        if ran > 0 {
            counters.tasks.fetch_add(ran, Ordering::Relaxed);
            counters.busy_ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }

    fn has_unclaimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.blocks
    }
}

/// The state workers and the forking caller coordinate through.
#[derive(Default)]
struct State {
    /// The published job, if its blocks may still be joined.
    job: Option<&'static Job<'static>>,
    /// Bumped per published job, so a worker enters each job at most once.
    generation: u64,
    /// True from a caller's claim until it has retired its job.
    busy: bool,
    /// Workers currently inside the published (or retiring) job.
    active: usize,
    shutdown: bool,
}

/// State shared between the pool handle and its workers.
struct Shared {
    state: Mutex<State>,
    /// Workers park here until a job is published or the pool shuts down.
    wake: Condvar,
    /// The retiring caller parks here until `active` reaches 0.
    left: Condvar,
    counters: Counters,
}

impl Shared {
    /// Locks the coordination state. No user code runs under this lock, so
    /// it cannot be poisoned by a panicking block.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("pool state is never locked around user code")
    }

    fn worker_loop(&self) {
        let mut seen = 0;
        loop {
            let job = {
                let mut st = self.state();
                loop {
                    if st.shutdown {
                        return;
                    }
                    match st.job {
                        Some(job) if st.generation != seen && job.has_unclaimed() => {
                            seen = st.generation;
                            st.active += 1;
                            break job;
                        }
                        _ => st = self.wake.wait(st).expect("pool state is never locked around user code"),
                    }
                }
            };
            {
                let _ctx = obs::profile::enter_context(job.ctx);
                job.run_blocks(&self.counters);
            }
            let mut st = self.state();
            st.active -= 1;
            if st.active == 0 && st.job.is_none() {
                self.left.notify_one();
            }
        }
    }
}

/// Withdraws the published job and waits until every worker inside it has
/// left; runs on return and on unwind from [`ThreadPool::for_each_block`].
struct Retire<'a>(&'a Shared);

impl Drop for Retire<'_> {
    fn drop(&mut self) {
        let shared = self.0;
        let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        st.job = None;
        while st.active > 0 {
            st = shared.left.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.busy = false;
    }
}

/// A std-only fork-join pool over numbered blocks.
///
/// See the [module docs](self) for the design. Construct explicit pools for
/// tests and tools; production kernels share the process-wide
/// [`global`](crate::global) pool.
pub struct ThreadPool {
    shared: Arc<Shared>,
    threads: usize,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Creates a pool with total parallelism `threads` (clamped to ≥ 1).
    ///
    /// `threads − 1` worker threads are spawned; the thread that forks
    /// contributes the final unit of parallelism by running blocks itself.
    /// `threads == 1` spawns nothing and executes all work inline — the
    /// pure-serial debugging mode selected by `TABLEDC_THREADS=1`.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            wake: Condvar::new(),
            left: Condvar::new(),
            counters: Counters::default(),
        });
        let workers = (0..threads - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tabledc-worker-{i}"))
                    .spawn(move || shared.worker_loop())
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self { shared, threads, workers }
    }

    /// Total parallelism of this pool.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when this pool executes everything inline on the caller.
    #[inline]
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }

    /// Publishes this pool's lifetime counters into the [`obs`] registry as
    /// `pool.*` gauges (threads, blocks run, steals, busy milliseconds), so
    /// they appear in [`obs::summary`]. Called automatically at the end of
    /// every job while tracing is enabled; call it directly before
    /// rendering a summary in untraced runs.
    pub fn record_stats(&self) {
        let stats = self.stats();
        let registry = obs::registry();
        registry.gauge("pool.threads").set(stats.threads as f64);
        registry.gauge("pool.tasks_executed").set(stats.tasks_executed as f64);
        registry.gauge("pool.steals").set(stats.steals as f64);
        registry.gauge("pool.busy_ms").set(stats.busy.as_secs_f64() * 1e3);
    }

    /// Snapshot of the lifetime counters.
    pub fn stats(&self) -> PoolStats {
        let c = &self.shared.counters;
        PoolStats {
            threads: self.threads,
            tasks_executed: c.tasks.load(Ordering::Relaxed),
            steals: 0,
            busy: Duration::from_nanos(c.busy_ns.load(Ordering::Relaxed)),
        }
    }

    /// Runs `f(b)` for every `b` in `0..blocks` and returns when all have
    /// run. The caller and the workers claim blocks in parallel; on a
    /// serial pool, for a single block, or while this pool is already
    /// running a job (a fork from inside a block, or from another thread),
    /// the blocks run inline on the caller in ascending order.
    ///
    /// If a block of a parallel job panics, the remaining blocks still
    /// run, and the first panic is re-raised on the caller once the job
    /// has drained. Inline, a panic propagates at once.
    pub fn for_each_block(&self, blocks: usize, f: &(dyn Fn(usize) + Sync)) {
        if self.is_serial() || blocks <= 1 || !self.try_claim() {
            (0..blocks).for_each(f);
            return;
        }
        let job = Job {
            blocks,
            f,
            next: AtomicUsize::new(0),
            panic: Mutex::new(None),
            ctx: obs::profile::current_context(),
        };
        let retire = Retire(&self.shared);
        // SAFETY: the erased reference is stored only in `State::job`,
        // which `retire` clears when it drops. That drop runs before `job`
        // (declared earlier) goes out of scope, on return and on unwind
        // alike, and waits until `active` is 0. Workers take the reference
        // from `State::job` and raise `active` under one lock, so once the
        // job is cleared and `active` is 0 no thread holds it: `job`, and
        // everything it borrows, outlives every use.
        let published: &'static Job<'static> =
            unsafe { std::mem::transmute::<&Job<'_>, &'static Job<'static>>(&job) };
        {
            let mut st = self.shared.state();
            st.job = Some(published);
            st.generation += 1;
        }
        self.shared.wake.notify_all();
        job.run_blocks(&self.shared.counters);
        drop(retire);
        // Publish pool counters while a trace sink is active, so the
        // end-of-run summary always reflects the last completed job.
        if obs::enabled() {
            self.record_stats();
        }
        if let Some(payload) = job.panic.into_inner().expect("no block panics under the panic slot's lock") {
            resume_unwind(payload);
        }
    }

    /// Marks the pool busy with a new job; false if it already runs one.
    /// The [`Retire`] guard of that job clears the mark.
    fn try_claim(&self) -> bool {
        !std::mem::replace(&mut self.shared.state().busy, true)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.state.lock().unwrap_or_else(|e| e.into_inner()).shutdown = true;
        self.shared.wake.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{par_for_rows, par_reduce};
    use std::sync::Barrier;

    /// A float sum whose bits depend on the summation tree.
    fn reduce(pool: &ThreadPool, values: &[f64]) -> u64 {
        par_reduce(pool, values.len(), 7, |r| r.map(|i| values[i]).sum::<f64>(), |a, b| a + b)
            .expect("non-empty")
            .to_bits()
    }

    fn values(n: usize, salt: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 7919 + salt) % 1013) as f64 * 1e-3 + 1e9 * ((i % 5) as f64)).collect()
    }

    #[test]
    fn serial_pool_runs_inline_in_order() {
        let pool = ThreadPool::new(1);
        let order = Mutex::new(Vec::new());
        pool.for_each_block(2, &|b| order.lock().unwrap().push(b));
        assert_eq!(*order.lock().unwrap(), vec![0, 1]);
        assert_eq!(pool.stats().tasks_executed, 0, "inline blocks are not counted");
    }

    #[test]
    fn parallel_scope_completes_all_tasks() {
        let pool = ThreadPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.for_each_block(100, &|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(pool.stats().tasks_executed, 100);
    }

    #[test]
    fn scope_tasks_borrow_and_mutate_disjoint_chunks() {
        let pool = ThreadPool::new(3);
        let mut data = vec![0u64; 64];
        let chunks: Vec<Mutex<&mut [u64]>> = data.chunks_mut(16).map(Mutex::new).collect();
        pool.for_each_block(chunks.len(), &|b| {
            for (i, x) in chunks[b].lock().unwrap().iter_mut().enumerate() {
                *x = (b * 16 + i) as u64;
            }
        });
        drop(chunks);
        assert!(data.iter().enumerate().all(|(i, &x)| x == i as u64));
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = ThreadPool::new(2);
        let total = AtomicUsize::new(0);
        pool.for_each_block(4, &|_| {
            pool.for_each_block(4, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
        assert_eq!(pool.stats().tasks_executed, 4, "inner forks run inline");
    }

    /// A fork from inside a block runs inline, so row maps whose blocks
    /// reduce on the same pool give the 1-thread pool's bits.
    #[test]
    fn forks_inside_blocks_match_the_serial_pool_bitwise() {
        let data = values(600, 3);
        let run = |pool: &ThreadPool| {
            let mut sums = vec![0u64; 24];
            par_for_rows(pool, &mut sums, 1, 5, |first, block| {
                for (r, s) in block.iter_mut().enumerate() {
                    *s = reduce(pool, &data[(first + r) * 25..(first + r + 1) * 25]);
                }
            });
            sums
        };
        let serial = run(&ThreadPool::new(1));
        for threads in [2, 4] {
            assert_eq!(run(&ThreadPool::new(threads)), serial, "threads = {threads}");
        }
    }

    /// Forks from other threads while the pool is busy run inline; every
    /// caller still gets the 1-thread pool's bits.
    #[test]
    fn concurrent_forks_on_one_pool_match_the_serial_pool() {
        let inputs: Vec<Vec<f64>> = (0..4).map(|t| values(997, t)).collect();
        let serial = ThreadPool::new(1);
        let expected: Vec<u64> = inputs.iter().map(|v| reduce(&serial, v)).collect();
        let pool = ThreadPool::new(2);
        let start = Barrier::new(inputs.len());
        std::thread::scope(|s| {
            for (v, &want) in inputs.iter().zip(&expected) {
                let (pool, start) = (&pool, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..200 {
                        assert_eq!(reduce(pool, v), want);
                    }
                });
            }
        });
    }

    #[test]
    fn task_panic_propagates_after_drain() {
        let pool = ThreadPool::new(2);
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_block(9, &|b| {
                if b == 0 {
                    panic!("boom");
                }
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }));
        let payload = result.expect_err("panic must propagate out of the job");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"), "the block's own payload");
        assert_eq!(finished.load(Ordering::Relaxed), 8, "the job drains before unwinding");
        // The pool stays usable after a panicked job.
        let ok = AtomicUsize::new(0);
        pool.for_each_block(3, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 3);
    }

    /// Each fork publishes a job and wakes parked workers; a lost wake-up
    /// or a missed retire would hang here.
    #[test]
    fn back_to_back_tiny_forks_all_complete() {
        for threads in [2, 4] {
            let pool = ThreadPool::new(threads);
            let counter = AtomicUsize::new(0);
            for _ in 0..5000 {
                pool.for_each_block(threads, &|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            assert_eq!(counter.load(Ordering::Relaxed), 5000 * threads, "threads = {threads}");
        }
    }

    #[test]
    fn stats_track_busy_time_and_threads() {
        let pool = ThreadPool::new(2);
        pool.for_each_block(4, &|_| std::thread::sleep(Duration::from_millis(2)));
        let stats = pool.stats();
        assert_eq!(stats.threads, 2);
        assert_eq!(stats.tasks_executed, 4);
        assert_eq!(stats.steals, 0);
        assert!(stats.busy >= Duration::from_millis(8), "busy = {:?}", stats.busy);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ThreadPool::new(4);
        pool.for_each_block(8, &|_| {});
        drop(pool); // must not hang
    }
}
