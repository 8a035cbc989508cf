//! Agglomerative hierarchical clustering with Lance–Williams updates.
//!
//! Used in the Figure 4 initializer ablation as an alternative to Birch,
//! and as a building block for bespoke baselines. Complete, average, and
//! single linkage are supported through the Lance–Williams recurrence, with
//! a nearest-neighbour cache so merges cost `O(n)` amortized except when a
//! cached neighbour dies.

use tensor::distance::sq_euclidean;
use tensor::Matrix;

/// Linkage criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linkage {
    /// Minimum pairwise distance between clusters.
    Single,
    /// Maximum pairwise distance.
    Complete,
    /// Unweighted average pairwise distance (UPGMA).
    Average,
}

/// Agglomerative clustering configuration.
#[derive(Debug, Clone)]
pub struct Agglomerative {
    /// Number of clusters to stop at.
    pub k: usize,
    /// Linkage criterion.
    pub linkage: Linkage,
}

impl Agglomerative {
    /// Creates a configuration with the given target cluster count.
    pub fn new(k: usize, linkage: Linkage) -> Self {
        Self { k, linkage }
    }

    /// Clusters the rows of `x` bottom-up until `k` clusters remain.
    ///
    /// # Panics
    /// Panics if `k == 0` or `k > n`.
    pub fn fit(&self, x: &Matrix) -> Vec<usize> {
        let n = x.rows();
        assert!(self.k > 0, "Agglomerative: k must be positive");
        assert!(self.k <= n, "Agglomerative: k = {} > n = {n}", self.k);
        if n == 0 {
            return Vec::new();
        }

        // Dense distance matrix between active clusters (Euclidean).
        let mut dist = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            let (upper, lower) = dist.split_at_mut(i + 1);
            for (j, row_j) in (i + 1..n).zip(lower) {
                let d = sq_euclidean(x.row(i), x.row(j)).sqrt();
                upper[i][j] = d;
                row_j[i] = d;
            }
        }
        let mut active: Vec<bool> = vec![true; n];
        let mut size: Vec<f64> = vec![1.0; n];
        // Per-cluster cached nearest active neighbour.
        let mut nn: Vec<usize> = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| j != i)
                    .min_by(|&a, &b| dist[i][a].partial_cmp(&dist[i][b]).expect("NaN"))
                    .unwrap_or(i)
            })
            .collect();
        // Cluster membership: which merged cluster each point belongs to.
        let mut members: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();

        let mut remaining = n;
        while remaining > self.k {
            // Find the globally closest pair via the NN cache.
            let (a, b) = {
                let mut best = (usize::MAX, usize::MAX);
                let mut best_d = f64::INFINITY;
                for i in 0..n {
                    if active[i] {
                        let j = nn[i];
                        if active[j] && dist[i][j] < best_d {
                            best_d = dist[i][j];
                            best = (i, j);
                        }
                    }
                }
                best
            };
            debug_assert!(a != usize::MAX, "no mergeable pair found");
            let (a, b) = (a.min(b), a.max(b));

            // Lance–Williams: distance from the merged cluster (stored at a)
            // to every other active cluster.
            let (sa, sb) = (size[a], size[b]);
            for j in 0..n {
                if j != a && j != b && active[j] {
                    let daj = dist[a][j];
                    let dbj = dist[b][j];
                    let d = match self.linkage {
                        Linkage::Single => daj.min(dbj),
                        Linkage::Complete => daj.max(dbj),
                        Linkage::Average => (sa * daj + sb * dbj) / (sa + sb),
                    };
                    dist[a][j] = d;
                    dist[j][a] = d;
                }
            }
            active[b] = false;
            size[a] += size[b];
            let moved = std::mem::take(&mut members[b]);
            members[a].extend(moved);
            remaining -= 1;

            // Refresh NN caches that referenced a or b (or belong to a).
            for i in 0..n {
                if active[i] && (i == a || nn[i] == a || nn[i] == b) {
                    nn[i] = (0..n)
                        .filter(|&j| j != i && active[j])
                        .min_by(|&p, &q| dist[i][p].partial_cmp(&dist[i][q]).expect("NaN"))
                        .unwrap_or(i);
                }
            }
        }

        // Emit dense labels.
        let mut labels = vec![0usize; n];
        let mut next = 0;
        for i in 0..n {
            if active[i] {
                for &m in &members[i] {
                    labels[m] = next;
                }
                next += 1;
            }
        }
        labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use tensor::random::{randn, rng};

    fn blobs(n_per: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut r = rng(seed);
        let centers = [[0.0, 0.0], [10.0, 0.0], [5.0, 10.0]];
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for (ci, c) in centers.iter().enumerate() {
            for _ in 0..n_per {
                let e = randn(1, 2, &mut r);
                rows.push(vec![c[0] + 0.6 * e[(0, 0)], c[1] + 0.6 * e[(0, 1)]]);
                truth.push(ci);
            }
        }
        (Matrix::from_row_vecs(&rows), truth)
    }

    #[test]
    fn average_linkage_recovers_blobs() {
        let (x, truth) = blobs(20, 1);
        let labels = Agglomerative::new(3, Linkage::Average).fit(&x);
        assert!(accuracy(&labels, &truth) > 0.95);
    }

    #[test]
    fn complete_linkage_recovers_blobs() {
        let (x, truth) = blobs(20, 2);
        let labels = Agglomerative::new(3, Linkage::Complete).fit(&x);
        assert!(accuracy(&labels, &truth) > 0.95);
    }

    #[test]
    fn single_linkage_follows_chains() {
        // Two chains: single linkage groups each chain despite its length.
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for i in 0..10 {
            rows.push(vec![i as f64 * 0.5, 0.0]);
            truth.push(0);
            rows.push(vec![i as f64 * 0.5, 20.0]);
            truth.push(1);
        }
        let x = Matrix::from_row_vecs(&rows);
        let labels = Agglomerative::new(2, Linkage::Single).fit(&x);
        assert!((accuracy(&labels, &truth) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn k_equals_n_is_identity_partition() {
        let (x, _) = blobs(4, 3);
        let labels = Agglomerative::new(12, Linkage::Average).fit(&x);
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 12);
    }

    #[test]
    fn k_one_merges_everything() {
        let (x, _) = blobs(5, 4);
        let labels = Agglomerative::new(1, Linkage::Complete).fit(&x);
        assert!(labels.iter().all(|&l| l == 0));
    }
}
