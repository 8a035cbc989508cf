//! Deterministic data-parallel primitives built on
//! [`ThreadPool::for_each_block`].
//!
//! ## The determinism contract
//!
//! Every primitive here produces **bit-identical results regardless of the
//! pool's thread count**, including `threads == 1`:
//!
//! - [`par_for_rows`] runs a pure per-block function on disjoint slices —
//!   the computation per element is exactly the serial one, only the
//!   schedule changes.
//! - [`par_reduce`] evaluates a caller-fixed chunking of `0..n` and combines
//!   the chunk results along a **fixed-shape binary tree** over the chunk
//!   sequence. The tree's shape depends only on `n` and `chunk` — never on
//!   the thread count or the completion order — so floating-point reductions
//!   are reproducible across machines and `TABLEDC_THREADS` settings.
//!
//! The serial (`threads == 1`) path executes the *same* chunking and the
//! same tree, so "parallel vs. serial" can be asserted with `==` on floats.

use crate::pool::ThreadPool;
use std::ops::Range;
use std::sync::Mutex;

/// Picks the number of rows per parallel block for a rows-sized job.
///
/// Blocks are a pure scheduling decision for the `par_for_*` maps (results
/// are per-row, so blocking never changes output bits); the policy aims at
/// ~4 blocks per thread for load balancing while keeping at least
/// `min_rows` rows per block so tiny matrices stay on one thread.
pub fn block_rows(rows: usize, threads: usize, min_rows: usize) -> usize {
    let target_blocks = threads.max(1) * 4;
    rows.div_ceil(target_blocks).max(min_rows).max(1)
}

/// Parallel map over the row-blocks of a dense row-major buffer.
///
/// `data` has `data.len() / row_width` rows of `row_width` elements;
/// `f(first_row, block)` is called for consecutive blocks of at most
/// `rows_per_block` rows, each receiving a disjoint `&mut` sub-slice.
/// Blocks run concurrently on the pool; output is bit-identical to the
/// serial loop for pure `f`.
///
/// # Panics
/// Panics if `row_width == 0` with a non-empty buffer, or if `data.len()`
/// is not a multiple of `row_width`.
pub fn par_for_rows<T, F>(pool: &ThreadPool, data: &mut [T], row_width: usize, rows_per_block: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(row_width > 0, "par_for_rows: zero row width with non-empty data");
    assert_eq!(data.len() % row_width, 0, "par_for_rows: buffer not a whole number of rows");
    let block = rows_per_block.max(1);
    let blocks: Vec<Mutex<&mut [T]>> = data.chunks_mut(block * row_width).map(Mutex::new).collect();
    pool.for_each_block(blocks.len(), &|b| {
        let mut chunk = blocks[b].lock().expect("each block locks only its own chunk");
        f(b * block, &mut chunk);
    });
}

/// Deterministic parallel reduction over `0..n`.
///
/// Splits `0..n` into consecutive chunks of `chunk` indices (the last chunk
/// may be short), evaluates `map(range)` for every chunk in parallel, then
/// folds the chunk results with `combine` along a fixed-shape binary tree:
/// adjacent pairs are combined level by level, an odd tail passing through
/// unchanged. Returns `None` when `n == 0`.
///
/// **Determinism:** the chunk boundaries and the tree shape are pure
/// functions of `(n, chunk)`, so for pure `map`/`combine` the result is
/// bit-identical for every thread count. Callers must pass a *fixed*
/// `chunk` (not derived from the thread count) to keep results stable
/// across machines.
///
/// # Panics
/// Panics if `chunk == 0` with `n > 0`.
pub fn par_reduce<T, M, C>(pool: &ThreadPool, n: usize, chunk: usize, map: M, combine: C) -> Option<T>
where
    T: Send,
    M: Fn(Range<usize>) -> T + Sync,
    C: Fn(T, T) -> T,
{
    if n == 0 {
        return None;
    }
    assert!(chunk > 0, "par_reduce: chunk must be positive");
    let n_chunks = n.div_ceil(chunk);
    let slots: Vec<Mutex<Option<T>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
    pool.for_each_block(n_chunks, &|c| {
        let range = (c * chunk)..((c + 1) * chunk).min(n);
        *slots[c].lock().expect("each block locks only its own slot") = Some(map(range));
    });
    let mut results: Vec<T> = slots
        .into_iter()
        .map(|slot| {
            let result = slot.into_inner().expect("each block locks only its own slot");
            result.expect("for_each_block runs every block")
        })
        .collect();

    // Fixed-shape pairwise tree over the chunk sequence. The combine work is
    // O(n_chunks) small merges, so it runs serially (and deterministically).
    while results.len() > 1 {
        let mut next = Vec::with_capacity(results.len().div_ceil(2));
        let mut it = results.into_iter();
        while let Some(left) = it.next() {
            next.push(match it.next() {
                Some(right) => combine(left, right),
                None => left,
            });
        }
        results = next;
    }
    results.pop()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_for_rows_matches_serial_map() {
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let mut data: Vec<f64> = (0..1000).map(|i| i as f64).collect();
            par_for_rows(&pool, &mut data, 10, 7, |first_row, block| {
                for (r, row) in block.chunks_mut(10).enumerate() {
                    for x in row.iter_mut() {
                        *x = x.sqrt() + (first_row + r) as f64;
                    }
                }
            });
            let expect: Vec<f64> =
                (0..1000).map(|i| (i as f64).sqrt() + (i / 10) as f64).collect();
            assert_eq!(data, expect, "threads = {threads}");
        }
    }

    #[test]
    fn par_for_rows_handles_empty_and_single_row() {
        let pool = ThreadPool::new(4);
        let mut empty: Vec<f64> = vec![];
        par_for_rows(&pool, &mut empty, 0, 4, |_, _| panic!("no rows"));
        let mut one = vec![1.0, 2.0, 3.0];
        par_for_rows(&pool, &mut one, 3, 4, |first, row| {
            assert_eq!(first, 0);
            row[0] = 9.0;
        });
        assert_eq!(one, vec![9.0, 2.0, 3.0]);
    }

    #[test]
    fn par_reduce_is_thread_count_invariant() {
        // Floating-point sum with values chosen so association matters:
        // different tree shapes give different bits, so equality across
        // thread counts is a real check of the fixed-shape guarantee.
        let values: Vec<f64> = (0..10_000)
            .map(|i| ((i * 2654435761u64 as usize) % 1000) as f64 * 1e-3 + 1e10 * ((i % 7) as f64))
            .collect();
        let reference = par_reduce(
            &ThreadPool::new(1),
            values.len(),
            64,
            |r| r.map(|i| values[i]).sum::<f64>(),
            |a, b| a + b,
        )
        .unwrap();
        for threads in [2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let got = par_reduce(
                &pool,
                values.len(),
                64,
                |r| r.map(|i| values[i]).sum::<f64>(),
                |a, b| a + b,
            )
            .unwrap();
            assert_eq!(got.to_bits(), reference.to_bits(), "threads = {threads}");
        }
    }

    #[test]
    fn par_reduce_edge_shapes() {
        let pool = ThreadPool::new(4);
        assert_eq!(par_reduce(&pool, 0, 8, |_| 1u64, |a, b| a + b), None);
        // Single element, chunk larger than n, chunk of 1, non-divisible.
        for (n, chunk) in [(1usize, 8usize), (5, 8), (7, 1), (100, 33)] {
            let got = par_reduce(&pool, n, chunk, |r| r.sum::<usize>(), |a, b| a + b).unwrap();
            assert_eq!(got, n * (n - 1) / 2, "n={n} chunk={chunk}");
        }
    }

    #[test]
    fn par_reduce_tree_shape_is_chunk_count_function() {
        // Record the combine order as strings; must match across pools.
        let shape = |threads: usize| {
            let pool = ThreadPool::new(threads);
            par_reduce(
                &pool,
                10,
                3,
                |r| format!("[{}..{}]", r.start, r.end),
                |a, b| format!("({a}+{b})"),
            )
            .unwrap()
        };
        let reference = shape(1);
        assert_eq!(reference, "(([0..3]+[3..6])+([6..9]+[9..10]))");
        for threads in [2, 8] {
            assert_eq!(shape(threads), reference);
        }
    }
}
