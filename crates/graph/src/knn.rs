//! KNN graph construction and GCN-style adjacency normalization.
//!
//! For non-graph data, SDCN and its relatives build a K-nearest-neighbour
//! graph over the input embeddings and feed the symmetrically normalized
//! adjacency `Â = D̃^{-1/2} (A + I) D̃^{-1/2}` into their GCN modules; this
//! module reproduces that preprocessing.

use tensor::par::PackedPoints;
use tensor::Matrix;

use crate::csr::Csr;

/// Builds a directed KNN adjacency over the rows of `x`: `A[i,j] = 1` when
/// `j` is one of the `k` nearest neighbours of `i` (excluding `i` itself).
///
/// Distances are Euclidean. Complexity is `O(n² d)` time and `O(n·k)`
/// memory. The rows are packed once with their squared norms
/// ([`PackedPoints`]); the n² distance pass is chunked so it never
/// materializes more than one row block, and the chunks run in parallel on
/// the [`runtime::global`] pool, each scoring its own rows in place with
/// [`tensor::distance::sq_euclidean_cdist`]'s bits. Each chunk reuses one
/// candidate-index scratch buffer across its rows instead of allocating per
/// row, and selection uses [`f64::total_cmp`] so a NaN distance degrades
/// deterministically (NaN sorts above every real distance and is simply
/// never picked as a neighbour while real candidates remain) instead of
/// panicking.
///
/// The neighbour set per row is independent of the thread count, so the
/// resulting graph is identical under `TABLEDC_THREADS=1` and parallel
/// execution.
///
/// # Panics
/// Panics if `k >= n` or `k == 0`.
pub fn knn_adjacency(x: &Matrix, k: usize) -> Csr {
    let n = x.rows();
    assert!(k > 0, "knn_adjacency: k must be positive");
    assert!(k < n, "knn_adjacency: k = {k} must be < n = {n}");
    let _build_timer = obs::span!("knn.build");
    let registry = obs::registry();
    registry.counter("knn.rows").add(n as u64);
    let block_hist = registry.histogram("knn.block_ms");
    const CHUNK: usize = 256;
    // One slot of k neighbour ids per row, filled by disjoint row chunks.
    let mut neighbors = vec![0usize; n * k];
    let packed = PackedPoints::new(x);
    runtime::par_for_rows(runtime::global(), &mut neighbors, k, CHUNK, |start, slots| {
        // The block timer only observes wall time; the slot writes are
        // disjoint per chunk, so recording here cannot perturb the graph.
        let block_start = std::time::Instant::now();
        let rows = slots.len() / k;
        let end = start + rows;
        let dim = x.cols();
        let mut dists = vec![0.0; rows * n];
        {
            // Its own span, so the distance kernel's time is not counted
            // as `knn.build` self time.
            let _dist_timer = obs::span!("knn.distances");
            packed.sq_dists(&x.as_slice()[start * dim..end * dim], packed.norms()[start..end].iter().copied(), &mut dists);
        }
        // Candidate list hoisted out of the row loop and reused.
        let mut idx: Vec<usize> = Vec::with_capacity(n - 1);
        for (bi, row) in dists.chunks_exact(n).enumerate() {
            // Partial selection of the k smallest distances, skipping self.
            let i = start + bi;
            idx.clear();
            idx.extend((0..n).filter(|&j| j != i));
            idx.select_nth_unstable_by(k - 1, |&a, &b| row[a].total_cmp(&row[b]));
            slots[bi * k..(bi + 1) * k].copy_from_slice(&idx[..k]);
        }
        block_hist.record(block_start.elapsed().as_secs_f64() * 1e3);
    });
    let triplets: Vec<(usize, usize, f64)> =
        neighbors.iter().enumerate().map(|(s, &j)| (s / k, j, 1.0)).collect();
    Csr::from_triplets(n, n, &triplets)
}

/// Symmetrically normalized adjacency with self-loops:
/// `Â = D̃^{-1/2} (A + I) D̃^{-1/2}` where `D̃` is the degree matrix of
/// `A + I` (Kipf & Welling normalization, as used by SDCN/DFCN/DCRN).
pub fn normalize_adjacency(a: &Csr) -> Csr {
    assert_eq!(a.rows(), a.cols(), "normalize_adjacency: adjacency must be square");
    let n = a.rows();
    // A + I as triplets.
    let mut triplets: Vec<(usize, usize, f64)> = Vec::with_capacity(a.nnz() + n);
    for i in 0..n {
        for (j, v) in a.row_entries(i) {
            if i != j {
                triplets.push((i, j, v));
            }
        }
        triplets.push((i, i, 1.0));
    }
    let with_loops = Csr::from_triplets(n, n, &triplets);
    let deg = with_loops.row_sums();
    let inv_sqrt: Vec<f64> =
        deg.iter().map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 }).collect();
    let normalized: Vec<(usize, usize, f64)> = (0..n)
        .flat_map(|i| {
            let inv = &inv_sqrt;
            with_loops.row_entries(i).map(move |(j, v)| (i, j, v * inv[i] * inv[j])).collect::<Vec<_>>()
        })
        .collect();
    Csr::from_triplets(n, n, &normalized)
}

/// Convenience: symmetrized, normalized KNN graph ready for a GCN.
pub fn gcn_adjacency(x: &Matrix, k: usize) -> Csr {
    normalize_adjacency(&knn_adjacency(x, k).symmetrize_max())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::random::{randn, rng};

    #[test]
    fn knn_finds_true_neighbours() {
        // Three tight pairs far apart: each point's 1-NN is its partner.
        let x = Matrix::from_rows(&[
            &[0.0, 0.0],
            &[0.1, 0.0],
            &[10.0, 0.0],
            &[10.1, 0.0],
            &[0.0, 10.0],
            &[0.1, 10.0],
        ]);
        let a = knn_adjacency(&x, 1);
        for (i, j) in [(0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4)] {
            assert_eq!(a.get(i, j), 1.0, "expected edge {i}→{j}");
        }
        assert_eq!(a.nnz(), 6);
    }

    #[test]
    fn knn_has_k_out_edges_and_no_self_loops() {
        let x = randn(40, 5, &mut rng(1));
        let k = 4;
        let a = knn_adjacency(&x, k);
        assert_eq!(a.nnz(), 40 * k);
        for i in 0..40 {
            assert_eq!(a.row_entries(i).count(), k);
            assert_eq!(a.get(i, i), 0.0);
        }
    }

    /// More than one 256-row chunk, so on a parallel global pool each
    /// chunk's distance pass forks from inside a pool block and runs
    /// inline; the graph must equal a serial brute-force reference.
    #[test]
    fn knn_over_several_chunks_matches_a_serial_reference() {
        let (n, k) = (600, 5);
        let x = randn(n, 8, &mut rng(7));
        let d = tensor::par::sq_euclidean_cdist(&runtime::ThreadPool::new(1), &x, &x);
        let mut triplets = Vec::new();
        for i in 0..n {
            let mut idx: Vec<usize> = (0..n).filter(|&j| j != i).collect();
            idx.sort_by(|&a, &b| d.row(i)[a].total_cmp(&d.row(i)[b]));
            triplets.extend(idx[..k].iter().map(|&j| (i, j, 1.0)));
        }
        assert_eq!(knn_adjacency(&x, k), Csr::from_triplets(n, n, &triplets));
    }

    #[test]
    fn normalized_adjacency_rows_of_regular_graph_sum_to_one() {
        // A cycle: every node has degree 2 (+1 self-loop = 3). For a regular
        // graph the symmetric normalization makes all entries 1/deg, so row
        // sums are exactly 1.
        let n = 6;
        let mut trip = Vec::new();
        for i in 0..n {
            trip.push((i, (i + 1) % n, 1.0));
            trip.push(((i + 1) % n, i, 1.0));
        }
        let a = Csr::from_triplets(n, n, &trip);
        let norm = normalize_adjacency(&a);
        for s in norm.row_sums() {
            assert!((s - 1.0).abs() < 1e-12, "row sum {s}");
        }
    }

    #[test]
    fn normalized_adjacency_is_symmetric() {
        let x = randn(30, 4, &mut rng(2));
        let a = gcn_adjacency(&x, 3);
        let d = a.to_dense();
        assert!(d.max_abs_diff(&d.transpose()) < 1e-12);
    }

    #[test]
    fn normalization_preserves_constant_vector_on_regular_graphs() {
        // Â·1 = 1 for regular graphs; GCN smoothing leaves constants alone.
        let n = 8;
        let mut trip = Vec::new();
        for i in 0..n {
            trip.push((i, (i + 1) % n, 1.0));
            trip.push(((i + 1) % n, i, 1.0));
        }
        let norm = normalize_adjacency(&Csr::from_triplets(n, n, &trip));
        let ones = Matrix::ones(n, 1);
        assert!(norm.matmul_dense(&ones).max_abs_diff(&ones) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must be <")]
    fn knn_rejects_k_too_large() {
        let x = randn(3, 2, &mut rng(3));
        let _ = knn_adjacency(&x, 3);
    }
}
