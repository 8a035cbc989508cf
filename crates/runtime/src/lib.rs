//! # runtime — std-only parallel execution for the TableDC stack
//!
//! A fork-join pool over numbered blocks ([`ThreadPool`]) and deterministic
//! data-parallel primitives on it ([`par_for_rows`], [`par_reduce`]), built
//! entirely on `std` — the build environment has no registry access, so no
//! external crates (rayon, crossbeam) are available.
//!
//! Every dense hot path in the workspace — `Matrix::matmul`, the pairwise
//! distance kernels, k-means assignment, KNN graph construction, and TableDC
//! batch inference — runs through this crate's [`global`] pool.
//!
//! ## Configuration
//!
//! The global pool is lazily initialized on first use and sized from
//! [`std::thread::available_parallelism`]. The `TABLEDC_THREADS` environment
//! variable overrides the size; `TABLEDC_THREADS=1` selects pure serial
//! inline execution (no worker threads) for debugging.
//!
//! ## Determinism
//!
//! All primitives return bit-identical results for every thread count; see
//! the [`par`] module docs for the contract. In particular parallel kernels
//! can be validated against `TABLEDC_THREADS=1` with exact float equality.
//!
//! ## Observability
//!
//! Each pool keeps lifetime counters — blocks run inside a job and the busy
//! time spent on them — exposed via [`ThreadPool::stats`] as [`PoolStats`].

mod par;
mod pool;

pub use par::{block_rows, par_for_rows, par_reduce};
pub use pool::{PoolStats, ThreadPool};

use std::sync::OnceLock;

/// Name of the environment variable overriding the global pool size.
pub const THREADS_ENV: &str = "TABLEDC_THREADS";

/// Computes the thread count the global pool will use: `TABLEDC_THREADS` if
/// set to a positive integer, otherwise the machine's available parallelism.
pub fn configured_threads() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!(
                    "runtime: ignoring invalid {THREADS_ENV}={v:?} (want a positive integer)"
                );
                default_threads()
            }
        },
        Err(_) => default_threads(),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The lazily-initialized process-wide pool used by all parallel kernels.
///
/// Sized by [`configured_threads`] on first use; the environment variable is
/// read once, so set `TABLEDC_THREADS` before the first parallel operation.
pub fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| ThreadPool::new(configured_threads()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_pool_is_initialized_once_and_usable() {
        let a = global() as *const ThreadPool;
        let b = global() as *const ThreadPool;
        assert_eq!(a, b);
        let sum = par_reduce(global(), 2, 1, |r| r.start + 1, |a, b| a + b);
        assert_eq!(sum, Some(3));
        assert!(global().threads() >= 1);
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
    }

    /// Instrumentation is outside the reduction trees, so enabling the
    /// trace sink, the span tree, *and* allocation tracking — profiling
    /// fully on — must not change a single output bit for any thread
    /// count: the determinism contract survives observability.
    #[test]
    fn tracing_on_is_bit_identical_and_publishes_pool_gauges() {
        let values: Vec<f64> = (0..1553).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
        let reduce = |pool: &ThreadPool| {
            par_reduce(pool, values.len(), 29, |r| r.map(|i| values[i]).sum::<f64>(), |a, b| {
                a + b
            })
            .unwrap()
        };
        let untraced = obs::test_support::with_sink_disabled(|| reduce(&ThreadPool::new(1)));
        let (traced, _lines) = obs::test_support::with_memory_sink(|| {
            obs::profile::set_alloc_tracking(true);
            let results = [1usize, 2, 4, 8].map(|threads| {
                let _span = obs::span!("runtime.test_reduce");
                reduce(&ThreadPool::new(threads))
            });
            obs::profile::set_alloc_tracking(false);
            results
        });
        for (threads, got) in [1usize, 2, 4, 8].into_iter().zip(traced) {
            assert!(
                got.to_bits() == untraced.to_bits(),
                "threads={threads}: {got} != {untraced}"
            );
        }
    }

    #[test]
    fn record_stats_publishes_gauges() {
        let pool = ThreadPool::new(2);
        pool.for_each_block(8, &|_| {});
        // The sink-control lock also serializes against the traced test
        // above, whose job exits write the same pool.* gauges.
        let (threads, tasks, steals) = obs::test_support::with_sink_disabled(|| {
            pool.record_stats();
            let registry = obs::registry();
            (
                registry.gauge("pool.threads").get(),
                registry.gauge("pool.tasks_executed").get(),
                registry.gauge("pool.steals").get(),
            )
        });
        assert_eq!(threads, 2.0);
        assert!(tasks >= 8.0);
        assert_eq!(steals, 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use crate::{par_for_rows, par_reduce, ThreadPool};
    use proptest::prelude::*;

    proptest! {
        /// par_reduce over arbitrary float data, chunk sizes, and thread
        /// counts is bit-identical to the 1-thread evaluation.
        #[test]
        fn par_reduce_bit_identical_across_threads(
            values in proptest::collection::vec(-1e6..1e6f64, 257),
            chunk in 1..64usize,
        ) {
            let serial = par_reduce(
                &ThreadPool::new(1),
                values.len(),
                chunk,
                |r| r.map(|i| values[i]).sum::<f64>(),
                |a, b| a + b,
            ).unwrap();
            for threads in [2usize, 4, 8] {
                let pool = ThreadPool::new(threads);
                let got = par_reduce(
                    &pool,
                    values.len(),
                    chunk,
                    |r| r.map(|i| values[i]).sum::<f64>(),
                    |a, b| a + b,
                ).unwrap();
                prop_assert!(got.to_bits() == serial.to_bits(),
                    "threads={threads} chunk={chunk}: {got} != {serial}");
            }
        }

        /// Row maps are exact for non-divisible block sizes and any threads.
        #[test]
        fn par_for_rows_exact_for_adversarial_blocks(
            rows in 0..40usize,
            cols in 1..9usize,
            block in 1..13usize,
        ) {
            let base: Vec<f64> = (0..rows * cols).map(|i| i as f64 * 0.5).collect();
            let mut serial = base.clone();
            par_for_rows(&ThreadPool::new(1), &mut serial, cols, block, |first, b| {
                for (r, row) in b.chunks_mut(cols).enumerate() {
                    for x in row.iter_mut() { *x = x.exp().ln_1p() + (first + r) as f64; }
                }
            });
            for threads in [2usize, 4, 8] {
                let mut data = base.clone();
                par_for_rows(&ThreadPool::new(threads), &mut data, cols, block, |first, b| {
                    for (r, row) in b.chunks_mut(cols).enumerate() {
                        for x in row.iter_mut() { *x = x.exp().ln_1p() + (first + r) as f64; }
                    }
                });
                prop_assert!(data == serial, "threads={threads}");
            }
        }
    }
}
