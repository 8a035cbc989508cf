//! Lloyd's K-means with random or K-means++ seeding, restarts and optional
//! per-row sample weights.
//!
//! Used as (a) a standard-clustering baseline (§4.1.2), (b) the cluster
//! initializer ablation of Figure 4, and (c) the final global-clustering
//! step of Birch ([`KMeans::fit_weighted`] over the CF subclusters).

use rand::rngs::StdRng;
use rand::Rng;
use tensor::random::sample_without_replacement;
use tensor::Matrix;

/// Seeding strategy for K-means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KMeansInit {
    /// Uniformly random distinct points.
    Random,
    /// K-means++ (D² sampling).
    PlusPlus,
}

/// K-means configuration.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations per restart.
    pub max_iter: usize,
    /// Convergence threshold on centroid movement (squared Frobenius).
    pub tol: f64,
    /// Number of random restarts; the best inertia wins (§4.3 initializes
    /// 20 times for the K-means-based methods).
    pub n_init: usize,
    /// Seeding strategy.
    pub init: KMeansInit,
}

impl KMeans {
    /// Standard configuration: K-means++ seeding, 1 restart, 100 iterations.
    pub fn new(k: usize) -> Self {
        Self { k, max_iter: 100, tol: 1e-8, n_init: 1, init: KMeansInit::PlusPlus }
    }

    /// Configuration matching the paper's benchmark protocol (§4.3):
    /// 20 restarts, best solution kept.
    pub fn paper_protocol(k: usize) -> Self {
        Self { n_init: 20, ..Self::new(k) }
    }

    /// Runs K-means on the rows of `x` (every row with weight 1).
    ///
    /// # Panics
    /// Panics if `k == 0` or `k > n`.
    pub fn fit(&self, x: &Matrix, rng: &mut StdRng) -> KMeansResult {
        self.fit_weighted(x, &vec![1.0; x.rows()], rng)
    }

    /// Runs K-means on the rows of `x` with per-row sample weights: a
    /// centroid is the `w`-weighted mean of its members and restarts are
    /// ranked by the weighted inertia `Σ wᵢ·‖xᵢ − c_{lᵢ}‖²`. Seeding
    /// ignores the weights. Unit weights reproduce [`KMeans::fit`] bit for
    /// bit (`1.0·v` and sums of `1.0` are exact). Birch's global step runs
    /// here with the CF subcluster centroids as rows and their point counts
    /// as weights.
    ///
    /// # Panics
    /// Panics if `k == 0`, `k > n`, or `weights.len() != n`.
    pub fn fit_weighted(&self, x: &Matrix, weights: &[f64], rng: &mut StdRng) -> KMeansResult {
        assert!(self.k > 0, "KMeans: k must be positive");
        assert!(self.k <= x.rows(), "KMeans: k = {} > n = {}", self.k, x.rows());
        assert_eq!(weights.len(), x.rows(), "KMeans: one weight per row");
        let mut best: Option<KMeansResult> = None;
        for _ in 0..self.n_init.max(1) {
            let result = self.fit_once(x, weights, rng);
            if best.as_ref().is_none_or(|b| result.inertia < b.inertia) {
                best = Some(result);
            }
        }
        best.expect("at least one restart ran")
    }

    fn fit_once(&self, x: &Matrix, weights: &[f64], rng: &mut StdRng) -> KMeansResult {
        let _fit_timer = obs::span!("kmeans.fit");
        let mut centroids = match self.init {
            KMeansInit::Random => {
                let idx = sample_without_replacement(x.rows(), self.k, rng);
                x.select_rows(&idx)
            }
            KMeansInit::PlusPlus => kmeans_pp_seeds(x, self.k, rng),
        };
        let mut n_iter = 0;
        // Phase spans nest under kmeans.fit in the profile tree (and feed
        // the like-named histograms); they wrap the parallel kernels from
        // the outside, so the Lloyd iterates are untouched by
        // instrumentation.
        let iterations = obs::registry().counter("kmeans.iterations");
        for iter in 0..self.max_iter {
            n_iter = iter + 1;
            let labels = {
                let _assign = obs::span!("kmeans.assign");
                nearest(x, &centroids).0
            };
            let shift = {
                let _update = obs::span!("kmeans.update");
                let next = weighted_centroids_from_labels(x, weights, &labels, self.k, &centroids);
                let shift = next.max_abs_diff(&centroids);
                centroids = next;
                shift
            };
            iterations.inc();
            if shift < self.tol {
                break;
            }
        }
        let (labels, d2) = nearest(x, &centroids);
        let inertia: f64 = d2.iter().zip(weights).map(|(d, w)| w * d).sum();
        KMeansResult { labels, centroids, inertia, n_iter }
    }
}

/// Output of a K-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster index per row of the input.
    pub labels: Vec<usize>,
    /// `k × d` centroid matrix.
    pub centroids: Matrix,
    /// Sum of squared distances of each point to its centroid.
    pub inertia: f64,
    /// Lloyd iterations actually executed.
    pub n_iter: usize,
}

/// K-means++ (D² weighting) seed selection, exposed for reuse by the
/// Figure 4 initializer ablation.
///
/// The squared row norms are computed once; each new seed then costs one
/// pass over the rows with the arithmetic of
/// [`tensor::distance::sq_euclidean_cdist`], so the seeds are the ones an
/// `n×1` cdist per seed would pick, bit for bit.
pub fn kmeans_pp_seeds(x: &Matrix, k: usize, rng: &mut StdRng) -> Matrix {
    let n = x.rows();
    assert!(k >= 1 && k <= n, "kmeans++: bad k = {k} for n = {n}");
    let norms: Vec<f64> = x.row_iter().map(|r| r.iter().map(|v| v * v).sum()).collect();
    let mut chosen = Vec::with_capacity(k);
    chosen.push(rng.gen_range(0..n));
    let mut min_d2: Vec<f64> = (0..n).map(|i| sq_dist_between_rows(x, &norms, i, chosen[0])).collect();
    while chosen.len() < k {
        let total: f64 = min_d2.iter().sum();
        let next = if total <= 0.0 {
            // All remaining points coincide with a centroid; pick any unused.
            (0..n).find(|i| !chosen.contains(i)).unwrap_or(0)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut pick = n - 1;
            for (i, &d2) in min_d2.iter().enumerate() {
                target -= d2;
                if target <= 0.0 {
                    pick = i;
                    break;
                }
            }
            pick
        };
        chosen.push(next);
        for (i, m) in min_d2.iter_mut().enumerate() {
            *m = m.min(sq_dist_between_rows(x, &norms, i, next));
        }
    }
    x.select_rows(&chosen)
}

/// `‖xᵢ − x_c‖²` from the squared row norms, with the arithmetic of
/// [`tensor::distance::sq_euclidean_cdist`]: `(‖xᵢ‖² + ‖x_c‖² − 2·dot)`
/// clamped at 0, the dot product summed over ascending features from 0.0.
fn sq_dist_between_rows(x: &Matrix, norms: &[f64], i: usize, c: usize) -> f64 {
    let mut dot = 0.0;
    for (a, b) in x.row(i).iter().zip(x.row(c)) {
        dot += a * b;
    }
    (norms[i] + norms[c] - 2.0 * dot).max(0.0)
}

/// Row chunk size for the centroid-accumulation reduction. Fixed (never
/// derived from the thread count) so the reduction tree shape — and thus the
/// floating-point result — depends only on `n`.
const CENTROID_CHUNK: usize = 1024;

/// Computes centroids as per-cluster means; clusters that lose all members
/// keep their previous centroid (standard empty-cluster handling).
///
/// Accumulation runs as a fixed-shape parallel reduction over row chunks on
/// the [`runtime::global`] pool; results are bit-identical for every thread
/// count (including `TABLEDC_THREADS=1`).
pub fn centroids_from_labels(x: &Matrix, labels: &[usize], k: usize, previous: &Matrix) -> Matrix {
    weighted_centroids_from_labels(x, &vec![1.0; labels.len()], labels, k, previous)
}

/// [`centroids_from_labels`] with per-row weights: each centroid is
/// `Σ wᵢ·xᵢ / Σ wᵢ` over its members, and a cluster whose weight sum is 0
/// keeps its previous centroid.
fn weighted_centroids_from_labels(
    x: &Matrix,
    weights: &[f64],
    labels: &[usize],
    k: usize,
    previous: &Matrix,
) -> Matrix {
    let d = x.cols();
    let acc = runtime::par_reduce(
        runtime::global(),
        labels.len(),
        CENTROID_CHUNK,
        |range| {
            let mut sums = Matrix::zeros(k, d);
            let mut wsum = vec![0.0f64; k];
            for i in range {
                let (l, w) = (labels[i], weights[i]);
                wsum[l] += w;
                for (s, &v) in sums.row_mut(l).iter_mut().zip(x.row(i)) {
                    *s += w * v;
                }
            }
            (sums, wsum)
        },
        |(mut sa, mut wa), (sb, wb)| {
            for (a, b) in sa.as_mut_slice().iter_mut().zip(sb.as_slice()) {
                *a += b;
            }
            for (a, b) in wa.iter_mut().zip(wb) {
                *a += b;
            }
            (sa, wa)
        },
    );
    let (mut sums, wsum) = acc.unwrap_or_else(|| (Matrix::zeros(k, d), vec![0.0; k]));
    for (c, &w) in wsum.iter().enumerate() {
        if w > 0.0 {
            let inv = 1.0 / w;
            for v in sums.row_mut(c) {
                *v *= inv;
            }
        } else {
            sums.row_mut(c).copy_from_slice(previous.row(c));
        }
    }
    sums
}

/// Rows per block of [`nearest`]: each block holds one `NEAREST_BLOCK × k`
/// distance matrix, so memory stays O(block·k) however tall `x` is.
const NEAREST_BLOCK: usize = 256;

/// For every row of `x`, the index of the nearest row of `centers` (the
/// lowest index on ties) and the squared Euclidean distance to it.
///
/// The cdist and argmin run over fixed row blocks, in parallel on the
/// [`runtime::global`] pool; each block's cdist runs serially on its task's
/// thread, since nesting a parallel kernel in every block costs more in
/// scheduling than it gains. A distance depends only on its own row and
/// center, so neither blocking nor the pool changes an output bit.
///
/// # Panics
/// Panics if `centers` is empty while `x` is not, or the feature dimensions
/// differ.
pub fn nearest(x: &Matrix, centers: &Matrix) -> (Vec<usize>, Vec<f64>) {
    let serial = runtime::ThreadPool::new(1);
    let mut out = vec![(0usize, 0.0f64); x.rows()];
    runtime::par_for_rows(runtime::global(), &mut out, 1, NEAREST_BLOCK, |start, slots| {
        let block = x.select_rows(&(start..start + slots.len()).collect::<Vec<_>>());
        let d = tensor::par::sq_euclidean_cdist(&serial, &block, centers);
        for (slot, row) in slots.iter_mut().zip(d.row_iter()) {
            let mut best = 0;
            for (j, &v) in row.iter().enumerate().skip(1) {
                if v < row[best] {
                    best = j;
                }
            }
            *slot = (best, row[best]);
        }
    });
    out.into_iter().unzip()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, adjusted_rand_index};
    use tensor::distance::sq_euclidean_cdist;
    use tensor::random::{randn, rng};

    /// Three well-separated Gaussian blobs.
    fn blobs(n_per: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut r = rng(seed);
        let centers = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]];
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for (ci, c) in centers.iter().enumerate() {
            for _ in 0..n_per {
                let noise = randn(1, 2, &mut r);
                rows.push(vec![c[0] + noise[(0, 0)], c[1] + noise[(0, 1)]]);
                truth.push(ci);
            }
        }
        (Matrix::from_row_vecs(&rows), truth)
    }

    #[test]
    fn recovers_separated_blobs() {
        let (x, truth) = blobs(30, 1);
        let result = KMeans::new(3).fit(&x, &mut rng(2));
        assert!(accuracy(&result.labels, &truth) > 0.95);
        assert!(adjusted_rand_index(&result.labels, &truth) > 0.9);
    }

    #[test]
    fn inertia_improves_with_restarts() {
        let (x, _) = blobs(20, 3);
        let mut r1 = rng(4);
        let single = KMeans { n_init: 1, init: KMeansInit::Random, ..KMeans::new(3) }.fit(&x, &mut r1);
        let mut r2 = rng(4);
        let multi = KMeans { n_init: 10, init: KMeansInit::Random, ..KMeans::new(3) }.fit(&x, &mut r2);
        assert!(multi.inertia <= single.inertia + 1e-9);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[5.0, 5.0], &[9.0, 1.0]]);
        let result = KMeans::new(3).fit(&x, &mut rng(5));
        assert!(result.inertia < 1e-18);
    }

    /// The seeding as it was written before the one-pass form: an `n×1`
    /// cdist on a copied seed row per seed.
    fn kmeans_pp_seeds_per_seed_cdist(x: &Matrix, k: usize, rng: &mut StdRng) -> Matrix {
        let n = x.rows();
        let mut chosen = Vec::with_capacity(k);
        chosen.push(rng.gen_range(0..n));
        let mut min_d2: Vec<f64> = {
            let d = sq_euclidean_cdist(x, &x.select_rows(&chosen));
            (0..n).map(|i| d[(i, 0)]).collect()
        };
        while chosen.len() < k {
            let total: f64 = min_d2.iter().sum();
            let next = if total <= 0.0 {
                (0..n).find(|i| !chosen.contains(i)).unwrap_or(0)
            } else {
                let mut target = rng.gen::<f64>() * total;
                let mut pick = n - 1;
                for (i, &d2) in min_d2.iter().enumerate() {
                    target -= d2;
                    if target <= 0.0 {
                        pick = i;
                        break;
                    }
                }
                pick
            };
            chosen.push(next);
            let d = sq_euclidean_cdist(x, &x.select_rows(&[next]));
            for i in 0..n {
                min_d2[i] = min_d2[i].min(d[(i, 0)]);
            }
        }
        x.select_rows(&chosen)
    }

    #[test]
    fn row_pair_distances_match_cdist_bitwise() {
        // 300 features: the matmul under cdist sums in several slabs.
        for (n, d) in [(40, 48), (13, 300), (9, 1)] {
            let x = randn(n, d, &mut rng(d as u64));
            let norms: Vec<f64> = x.row_iter().map(|r| r.iter().map(|v| v * v).sum()).collect();
            let want = sq_euclidean_cdist(&x, &x);
            for i in 0..n {
                for c in 0..n {
                    let got = sq_dist_between_rows(&x, &norms, i, c);
                    assert_eq!(got.to_bits(), want[(i, c)].to_bits(), "{n}x{d}: ({i}, {c})");
                }
            }
        }
    }

    #[test]
    fn kmeans_pp_seeds_match_the_per_seed_cdist_form_bitwise() {
        let duplicates = Matrix::from_fn(40, 3, |_, j| j as f64 * 0.7 - 1.1);
        let cases = [
            (randn(300, 48, &mut rng(11)), 37),
            (randn(257, 32, &mut rng(12)), 100),
            (randn(60, 300, &mut rng(13)), 60), // k = n
            (randn(9, 1, &mut rng(14)), 4),
            (duplicates, 5), // every distance is 0: the `total <= 0` branch
        ];
        for (x, k) in &cases {
            for seed in 0..3 {
                let (mut r_new, mut r_old) = (rng(seed), rng(seed));
                let got = kmeans_pp_seeds(x, *k, &mut r_new);
                let want = kmeans_pp_seeds_per_seed_cdist(x, *k, &mut r_old);
                let what = format!("{}x{}, k = {k}, seed {seed}", x.rows(), x.cols());
                assert_eq!(got.shape(), want.shape(), "{what}");
                for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                    assert_eq!(g.to_bits(), w.to_bits(), "{what}");
                }
                // Same RNG draws: both streams continue identically.
                assert_eq!(r_new.gen::<u64>(), r_old.gen::<u64>(), "{what}");
            }
        }
    }

    #[test]
    fn kmeans_pp_prefers_spread_seeds() {
        let (x, _) = blobs(25, 6);
        // With ++ seeding, the three seeds should land in distinct blobs
        // nearly always; verify via seed pairwise distances.
        let seeds = kmeans_pp_seeds(&x, 3, &mut rng(7));
        let d = sq_euclidean_cdist(&seeds, &seeds);
        let mut min_off = f64::INFINITY;
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    min_off = min_off.min(d[(i, j)]);
                }
            }
        }
        assert!(min_off > 25.0, "seeds too close: {min_off}");
    }

    #[test]
    fn labels_are_in_range_and_assign_nearest() {
        let (x, _) = blobs(10, 8);
        let result = KMeans::new(3).fit(&x, &mut rng(9));
        assert!(result.labels.iter().all(|&l| l < 3));
        let d = sq_euclidean_cdist(&x, &result.centroids);
        for (i, &l) in result.labels.iter().enumerate() {
            for j in 0..3 {
                assert!(d[(i, l)] <= d[(i, j)] + 1e-12);
            }
        }
    }

    #[test]
    fn integer_weights_equal_repeated_rows() {
        let (x, _) = blobs(8, 11);
        let weights: Vec<f64> = (0..x.rows()).map(|i| (1 + i % 3) as f64).collect();
        let mut rows = Vec::new();
        let mut origin = Vec::new();
        for (i, &w) in weights.iter().enumerate() {
            for _ in 0..w as usize {
                rows.push(x.row(i).to_vec());
                origin.push(i);
            }
        }
        let km = KMeans { n_init: 5, ..KMeans::new(3) };
        let weighted = km.fit_weighted(&x, &weights, &mut rng(12));
        let repeated = km.fit(&Matrix::from_row_vecs(&rows), &mut rng(13));
        // The two runs seed differently, so cluster ids may be permuted:
        // the label map must be one consistent bijection.
        let mut map = vec![usize::MAX; 3];
        for (r, &i) in origin.iter().enumerate() {
            let (a, b) = (weighted.labels[i], repeated.labels[r]);
            if map[a] == usize::MAX {
                map[a] = b;
            }
            assert_eq!(map[a], b, "row {i}: weighted label {a} maps to {} and {b}", map[a]);
        }
        let mut image = map.clone();
        image.sort_unstable();
        assert_eq!(image, vec![0, 1, 2]);
        for (c, &rc) in map.iter().enumerate() {
            for (a, b) in weighted.centroids.row(c).iter().zip(repeated.centroids.row(rc)) {
                assert!((a - b).abs() < 1e-9, "centroid {c}: {a} vs {b}");
            }
        }
        assert!((weighted.inertia - repeated.inertia).abs() < 1e-9 * repeated.inertia);
    }

    #[test]
    fn nearest_matches_full_cdist_argmin_across_blocks() {
        // 600 rows span three NEAREST_BLOCK blocks, the last one partial.
        let x = randn(600, 3, &mut rng(14));
        let centers = randn(7, 3, &mut rng(15));
        let (labels, d2) = nearest(&x, &centers);
        let d = sq_euclidean_cdist(&x, &centers);
        for i in 0..x.rows() {
            let row = d.row(i);
            let best = (1..row.len()).fold(0, |b, j| if row[j] < row[b] { j } else { b });
            assert_eq!(labels[i], best, "row {i}");
            assert_eq!(d2[i].to_bits(), row[best].to_bits(), "row {i}");
        }
    }

    #[test]
    fn empty_cluster_keeps_previous_centroid() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0]]);
        let prev = Matrix::from_rows(&[&[0.0], &[1.0], &[99.0]]);
        let c = centroids_from_labels(&x, &[0, 1], 3, &prev);
        assert_eq!(c[(2, 0)], 99.0);
    }

    #[test]
    #[should_panic(expected = "k = 5 > n = 2")]
    fn rejects_k_bigger_than_n() {
        let x = Matrix::zeros(2, 2);
        let _ = KMeans::new(5).fit(&x, &mut rng(0));
    }
}
