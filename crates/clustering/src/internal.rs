//! Internal (ground-truth-free) cluster-quality indices: silhouette,
//! Davies–Bouldin, and Calinski–Harabasz.
//!
//! These support unsupervised model selection — e.g. choosing DBSCAN's ε
//! or a cluster count when no labels exist, which is the situation real
//! data-integration deployments of TableDC are in.

use tensor::distance::{euclidean, sq_euclidean};
use tensor::Matrix;

/// Mean silhouette coefficient over all points, in [-1, 1] (higher is
/// better). Points in singleton clusters score 0, the standard convention.
///
/// # Panics
/// Panics if `labels.len() != x.rows()`.
pub fn silhouette_score(x: &Matrix, labels: &[usize]) -> f64 {
    assert_eq!(x.rows(), labels.len(), "silhouette: length mismatch");
    let n = x.rows();
    if n == 0 {
        return 0.0;
    }
    let k = labels.iter().copied().max().map_or(0, |m| m + 1);
    if k < 2 {
        return 0.0;
    }
    let mut counts = vec![0usize; k];
    for &l in labels {
        counts[l] += 1;
    }

    let mut total = 0.0;
    for i in 0..n {
        let li = labels[i];
        if counts[li] <= 1 {
            continue; // silhouette of a singleton is defined as 0
        }
        // Mean distance to every cluster.
        let mut sums = vec![0.0f64; k];
        for j in 0..n {
            if j != i {
                sums[labels[j]] += euclidean(x.row(i), x.row(j));
            }
        }
        let a = sums[li] / (counts[li] - 1) as f64;
        let b = (0..k)
            .filter(|&c| c != li && counts[c] > 0)
            .map(|c| sums[c] / counts[c] as f64)
            .fold(f64::INFINITY, f64::min);
        if b.is_finite() {
            total += (b - a) / a.max(b);
        }
    }
    total / n as f64
}

/// Davies–Bouldin index (lower is better): mean over clusters of the worst
/// ratio `(s_i + s_j) / d(c_i, c_j)` where `s` is within-cluster scatter.
pub fn davies_bouldin_index(x: &Matrix, labels: &[usize]) -> f64 {
    assert_eq!(x.rows(), labels.len(), "davies_bouldin: length mismatch");
    let k = labels.iter().copied().max().map_or(0, |m| m + 1);
    if k < 2 {
        return 0.0;
    }
    let (centroids, counts) = centroids_and_counts(x, labels, k);
    // Scatter: mean distance of members to their centroid.
    let mut scatter = vec![0.0f64; k];
    for (i, &l) in labels.iter().enumerate() {
        scatter[l] += euclidean(x.row(i), centroids.row(l));
    }
    for c in 0..k {
        if counts[c] > 0 {
            scatter[c] /= counts[c] as f64;
        }
    }
    let mut total = 0.0;
    let mut active = 0;
    for i in 0..k {
        if counts[i] == 0 {
            continue;
        }
        active += 1;
        let mut worst: f64 = 0.0;
        for j in 0..k {
            if j != i && counts[j] > 0 {
                let d = euclidean(centroids.row(i), centroids.row(j));
                if d > 0.0 {
                    worst = worst.max((scatter[i] + scatter[j]) / d);
                }
            }
        }
        total += worst;
    }
    if active == 0 {
        0.0
    } else {
        total / active as f64
    }
}

/// Calinski–Harabasz index (higher is better): ratio of between-cluster to
/// within-cluster dispersion, scaled by the degrees of freedom.
pub fn calinski_harabasz_index(x: &Matrix, labels: &[usize]) -> f64 {
    assert_eq!(x.rows(), labels.len(), "calinski_harabasz: length mismatch");
    let n = x.rows();
    let k = labels.iter().copied().max().map_or(0, |m| m + 1);
    if k < 2 || n <= k {
        return 0.0;
    }
    let (centroids, counts) = centroids_and_counts(x, labels, k);
    let global = x.col_means();
    let mut between = 0.0;
    for (c, &count) in counts.iter().enumerate() {
        if count > 0 {
            between += count as f64 * sq_euclidean(centroids.row(c), &global);
        }
    }
    let mut within = 0.0;
    for (i, &l) in labels.iter().enumerate() {
        within += sq_euclidean(x.row(i), centroids.row(l));
    }
    if within == 0.0 {
        return f64::INFINITY;
    }
    (between / (k - 1) as f64) / (within / (n - k) as f64)
}

fn centroids_and_counts(x: &Matrix, labels: &[usize], k: usize) -> (Matrix, Vec<usize>) {
    let d = x.cols();
    let mut centroids = Matrix::zeros(k, d);
    let mut counts = vec![0usize; k];
    for (i, &l) in labels.iter().enumerate() {
        counts[l] += 1;
        for (c, &v) in centroids.row_mut(l).iter_mut().zip(x.row(i)) {
            *c += v;
        }
    }
    for (c, &count) in counts.iter().enumerate() {
        if count > 0 {
            let inv = 1.0 / count as f64;
            for v in centroids.row_mut(c) {
                *v *= inv;
            }
        }
    }
    (centroids, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> (Matrix, Vec<usize>) {
        let x = Matrix::from_rows(&[
            &[0.0, 0.0],
            &[0.2, 0.1],
            &[0.1, 0.2],
            &[10.0, 10.0],
            &[10.2, 10.1],
            &[10.1, 10.2],
        ]);
        (x, vec![0, 0, 0, 1, 1, 1])
    }

    #[test]
    fn silhouette_high_for_good_split_low_for_bad() {
        let (x, good) = two_blobs();
        let bad = vec![0, 1, 0, 1, 0, 1];
        let sg = silhouette_score(&x, &good);
        let sb = silhouette_score(&x, &bad);
        assert!(sg > 0.9, "good silhouette {sg}");
        assert!(sb < 0.1, "bad silhouette {sb}");
    }

    #[test]
    fn silhouette_of_single_cluster_is_zero() {
        let (x, _) = two_blobs();
        assert_eq!(silhouette_score(&x, &[0; 6]), 0.0);
    }

    #[test]
    fn silhouette_handles_singletons() {
        let (x, _) = two_blobs();
        let labels = vec![0, 0, 0, 1, 1, 2]; // one singleton
        let s = silhouette_score(&x, &labels);
        assert!(s.is_finite());
    }

    #[test]
    fn davies_bouldin_prefers_good_split() {
        let (x, good) = two_blobs();
        let bad = vec![0, 1, 0, 1, 0, 1];
        assert!(davies_bouldin_index(&x, &good) < davies_bouldin_index(&x, &bad));
    }

    #[test]
    fn calinski_harabasz_prefers_good_split() {
        let (x, good) = two_blobs();
        let bad = vec![0, 1, 0, 1, 0, 1];
        assert!(calinski_harabasz_index(&x, &good) > calinski_harabasz_index(&x, &bad));
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        let x = Matrix::zeros(0, 2);
        assert_eq!(silhouette_score(&x, &[]), 0.0);
        let one = Matrix::from_rows(&[&[1.0, 2.0]]);
        assert_eq!(davies_bouldin_index(&one, &[0]), 0.0);
        assert_eq!(calinski_harabasz_index(&one, &[0]), 0.0);
    }
}
