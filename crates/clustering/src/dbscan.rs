//! DBSCAN: density-based spatial clustering of applications with noise
//! (Ester et al., KDD '96) — a standard-clustering baseline (§4.1.2).

use tensor::distance::sq_euclidean;
use tensor::Matrix;

/// Label assigned to noise points.
pub const NOISE: usize = usize::MAX;

/// DBSCAN configuration.
#[derive(Debug, Clone)]
pub struct Dbscan {
    /// Neighbourhood radius ε.
    pub eps: f64,
    /// Minimum neighbourhood size (including the point itself) for a core
    /// point.
    pub min_pts: usize,
}

impl Dbscan {
    /// Creates a DBSCAN configuration.
    pub fn new(eps: f64, min_pts: usize) -> Self {
        Self { eps, min_pts }
    }

    /// Clusters the rows of `x`. Returns per-point labels where `NOISE`
    /// marks unclustered points, plus the number of clusters found.
    pub fn fit(&self, x: &Matrix) -> DbscanResult {
        let n = x.rows();
        let eps2 = self.eps * self.eps;
        let mut labels = vec![NOISE; n];
        let mut visited = vec![false; n];
        let mut cluster = 0usize;

        let neighbours = |i: usize| -> Vec<usize> {
            (0..n).filter(|&j| sq_euclidean(x.row(i), x.row(j)) <= eps2).collect()
        };

        for i in 0..n {
            if visited[i] {
                continue;
            }
            visited[i] = true;
            let nbrs = neighbours(i);
            if nbrs.len() < self.min_pts {
                continue; // remains noise unless adopted by a cluster later
            }
            labels[i] = cluster;
            let mut frontier = nbrs;
            let mut pos = 0;
            while pos < frontier.len() {
                let j = frontier[pos];
                pos += 1;
                if labels[j] == NOISE {
                    labels[j] = cluster; // border or core point adoption
                }
                if !visited[j] {
                    visited[j] = true;
                    let jn = neighbours(j);
                    if jn.len() >= self.min_pts {
                        frontier.extend(jn);
                    }
                }
            }
            cluster += 1;
        }

        DbscanResult { labels, n_clusters: cluster }
    }

    /// Like [`Dbscan::fit`], but remaps noise points to singleton clusters
    /// so the labelling can be scored with ACC/ARI (which need every point
    /// labelled) — the usual benchmark convention.
    pub fn fit_assign_noise(&self, x: &Matrix) -> DbscanResult {
        let mut result = self.fit(x);
        let mut next = result.n_clusters;
        for l in &mut result.labels {
            if *l == NOISE {
                *l = next;
                next += 1;
            }
        }
        result.n_clusters = next;
        result
    }
}

/// Every row's Euclidean distance to its `k`-th nearest other row, sorted
/// ascending (`k` clamped to `1..=n − 1`): the k-distance curve DBSCAN's ε
/// is read from. O(n²) distances.
///
/// # Panics
/// Panics if `x` has fewer than two rows.
pub fn kth_nn_distances(x: &Matrix, k: usize) -> Vec<f64> {
    let n = x.rows();
    assert!(n >= 2, "kth_nn_distances: need at least two points");
    let k = k.min(n - 1).max(1);
    let mut kth: Vec<f64> = (0..n)
        .map(|i| {
            let mut d: Vec<f64> = (0..n)
                .filter(|&j| j != i)
                .map(|j| tensor::distance::euclidean(x.row(i), x.row(j)))
                .collect();
            d.sort_by(|a, b| a.partial_cmp(b).expect("NaN distance"));
            d[k - 1]
        })
        .collect();
    kth.sort_by(|a, b| a.partial_cmp(b).expect("NaN distance"));
    kth
}

/// Selects DBSCAN's ε without labels by maximizing the silhouette score
/// over a grid of k-NN-distance quantiles — the model-selection loop a
/// real deployment needs (the benchmark harness uses the median-4NN
/// heuristic directly for parity with the paper's untuned runs).
pub fn auto_eps(x: &Matrix, min_pts: usize, quantiles: &[f64]) -> f64 {
    let n = x.rows();
    let kth = kth_nn_distances(x, min_pts);
    let mut best = (f64::NEG_INFINITY, kth[n / 2]);
    for &q in quantiles {
        let idx = ((q.clamp(0.0, 1.0)) * (n - 1) as f64).round() as usize;
        let eps = kth[idx].max(f64::MIN_POSITIVE);
        let result = Dbscan::new(eps, min_pts).fit_assign_noise(x);
        if result.n_clusters < 2 || result.n_clusters >= n {
            continue;
        }
        let score = crate::internal::silhouette_score(x, &result.labels);
        if score > best.0 {
            best = (score, eps);
        }
    }
    best.1
}

/// Output of a DBSCAN run.
#[derive(Debug, Clone)]
pub struct DbscanResult {
    /// Per-point labels (`NOISE` for unclustered points under [`Dbscan::fit`]).
    pub labels: Vec<usize>,
    /// Number of clusters discovered.
    pub n_clusters: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separates_two_dense_groups() {
        let x = Matrix::from_rows(&[
            &[0.0, 0.0],
            &[0.1, 0.0],
            &[0.0, 0.1],
            &[0.1, 0.1],
            &[5.0, 5.0],
            &[5.1, 5.0],
            &[5.0, 5.1],
            &[5.1, 5.1],
        ]);
        let r = Dbscan::new(0.3, 3).fit(&x);
        assert_eq!(r.n_clusters, 2);
        assert_eq!(r.labels[0], r.labels[1]);
        assert_eq!(r.labels[4], r.labels[7]);
        assert_ne!(r.labels[0], r.labels[4]);
    }

    #[test]
    fn isolated_point_is_noise() {
        let x = Matrix::from_rows(&[
            &[0.0, 0.0],
            &[0.1, 0.0],
            &[0.0, 0.1],
            &[100.0, 100.0], // isolated
        ]);
        let r = Dbscan::new(0.3, 2).fit(&x);
        assert_eq!(r.labels[3], NOISE);
        assert_eq!(r.n_clusters, 1);
    }

    #[test]
    fn noise_reassignment_gives_singletons() {
        let x = Matrix::from_rows(&[
            &[0.0, 0.0],
            &[0.1, 0.0],
            &[100.0, 100.0],
            &[200.0, 200.0],
        ]);
        let r = Dbscan::new(0.3, 2).fit_assign_noise(&x);
        assert!(r.labels.iter().all(|&l| l != NOISE));
        assert_eq!(r.n_clusters, 3); // one pair + two singletons
        assert_ne!(r.labels[2], r.labels[3]);
    }

    #[test]
    fn min_pts_one_makes_everything_core() {
        let x = Matrix::from_rows(&[&[0.0], &[10.0]]);
        let r = Dbscan::new(0.5, 1).fit(&x);
        assert_eq!(r.n_clusters, 2);
    }

    #[test]
    fn auto_eps_finds_separating_radius() {
        let x = Matrix::from_rows(&[
            &[0.0, 0.0],
            &[0.2, 0.0],
            &[0.0, 0.2],
            &[0.2, 0.2],
            &[8.0, 8.0],
            &[8.2, 8.0],
            &[8.0, 8.2],
            &[8.2, 8.2],
        ]);
        let eps = auto_eps(&x, 2, &[0.25, 0.5, 0.75, 0.9]);
        let r = Dbscan::new(eps, 2).fit(&x);
        assert_eq!(r.n_clusters, 2, "eps = {eps}");
    }

    #[test]
    fn chain_connectivity() {
        // A chain of points each within eps of the next forms one cluster.
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.5, 0.0]).collect();
        let x = Matrix::from_row_vecs(&rows);
        let r = Dbscan::new(0.6, 2).fit(&x);
        assert_eq!(r.n_clusters, 1);
        assert!(r.labels.iter().all(|&l| l == 0));
    }
}
