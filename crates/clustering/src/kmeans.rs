//! Lloyd's K-means with random or K-means++ seeding, restarts and optional
//! per-row sample weights.
//!
//! Used as (a) a standard-clustering baseline (§4.1.2), (b) the cluster
//! initializer ablation of Figure 4, and (c) the final global-clustering
//! step of Birch ([`KMeans::fit_weighted`] over the CF subclusters).
//!
//! Every distance is [`tensor::distance::sq_euclidean_cdist`]'s entry to
//! the bit, `(‖x‖² + ‖c‖² − 2·x·c).max(0.0)` with the dot product summed
//! over ascending features, and every argmin takes the lowest index on
//! ties. The engine only skips work whose result it already holds:
//! K-means++ takes each new seed's distances in SIMD lanes, and Lloyd's
//! assignment recomputes only the distances to centers that moved.

use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::Rng;
use runtime::{par_for_rows, ThreadPool};
use tensor::par::{self, PackedPoints, RowStrips, LANES};
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
        self.fit_weighted_on(runtime::global(), x, weights, rng)
    }

    /// [`KMeans::fit_weighted`] on an explicit pool. The result is
    /// bit-identical for every pool.
    ///
    /// # Panics
    /// Panics if `k == 0`, `k > n`, or `weights.len() != n`.
    pub fn fit_weighted_on(&self, pool: &ThreadPool, x: &Matrix, weights: &[f64], rng: &mut StdRng) -> KMeansResult {
        assert!(self.k > 0, "KMeans: k must be positive");
        assert!(self.k <= x.rows(), "KMeans: k = {} > n = {}", self.k, x.rows());
        assert_eq!(weights.len(), x.rows(), "KMeans: one weight per row");
        // What every restart reuses: the row norms and the seeding strips.
        let norms = row_norms(x);
        let strips = (self.init == KMeansInit::PlusPlus).then(|| RowStrips::new(x));
        let mut best: Option<KMeansResult> = None;
        for _ in 0..self.n_init.max(1) {
            let result = self.fit_once(pool, x, &norms, strips.as_ref(), weights, rng);
            if best.as_ref().is_none_or(|b| result.inertia < b.inertia) {
                best = Some(result);
            }
        }
        best.expect("at least one restart ran")
    }

    fn fit_once(
        &self,
        pool: &ThreadPool,
        x: &Matrix,
        norms: &[f64],
        strips: Option<&RowStrips>,
        weights: &[f64],
        rng: &mut StdRng,
    ) -> KMeansResult {
        let _fit_timer = obs::span!("kmeans.fit");
        let mut centroids = {
            let _seed = obs::span!("kmeans.seed");
            let idx = match strips {
                None => sample_without_replacement(x.rows(), self.k, rng),
                Some(strips) => pp_seeds(x, norms, strips, self.k, rng),
            };
            x.select_rows(&idx)
        };
        // Each row's nearest center and squared distance, carried from one
        // assignment to the next; `moved` lists the centers the last update
        // changed (`None`: score every center).
        let mut state = vec![(0usize, 0.0f64); x.rows()];
        let mut moved: Option<Vec<usize>> = None;
        let mut n_iter = 0;
        // Phase spans nest under kmeans.fit in the profile tree (one
        // `kmeans.update` call per Lloyd iteration); they wrap the parallel
        // kernels from the outside, so the Lloyd iterates are untouched by
        // instrumentation.
        for iter in 0..self.max_iter {
            n_iter = iter + 1;
            {
                let _assign = obs::span!("kmeans.assign");
                assign(pool, x, norms, &centroids, moved.as_deref(), &mut state);
            }
            let shift = {
                let _update = obs::span!("kmeans.update");
                let labels: Vec<usize> = state.iter().map(|s| s.0).collect();
                let next = weighted_centroids_from_labels(pool, x, weights, &labels, self.k, &centroids);
                let shift = next.max_abs_diff(&centroids);
                moved = Some(moved_rows(&centroids, &next));
                centroids = next;
                shift
            };
            if shift < self.tol {
                break;
            }
        }
        assign(pool, x, norms, &centroids, moved.as_deref(), &mut state);
        let (labels, d2): (Vec<usize>, Vec<f64>) = state.into_iter().unzip();
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

/// `‖xᵢ‖²` for every row, as every squared-distance kernel sums it.
fn row_norms(x: &Matrix) -> Vec<f64> {
    x.row_iter().map(par::sq_norm).collect()
}

/// K-means++ (D² weighting) seed selection, exposed for reuse by the
/// Figure 4 initializer ablation.
///
/// Each new seed costs one pass over the rows with the arithmetic of
/// [`tensor::distance::sq_euclidean_cdist`], so the seeds are the ones an
/// `n×1` cdist per seed would pick, bit for bit.
pub fn kmeans_pp_seeds(x: &Matrix, k: usize, rng: &mut StdRng) -> Matrix {
    let idx = pp_seeds(x, &row_norms(x), &RowStrips::new(x), k, rng);
    x.select_rows(&idx)
}

/// Rows per block of the K-means++ D² update: a whole number of
/// [`LANES`]-row strips, as [`RowStrips::dots`] requires, and one block's
/// dot products fit a stack buffer.
const SEED_BLOCK: usize = 16 * LANES;

/// The K-means++ seed indices. The D² sum and the sampling scan are in row
/// order, so the RNG draws and the picks depend on the data alone. It all
/// runs on the calling thread: at Birch's sizes a pool fork costs about as
/// much as one seed's D² update.
fn pp_seeds(x: &Matrix, norms: &[f64], strips: &RowStrips, k: usize, rng: &mut StdRng) -> Vec<usize> {
    let n = x.rows();
    assert!(k >= 1 && k <= n, "kmeans++: bad k = {k} for n = {n}");
    let mut chosen = Vec::with_capacity(k);
    chosen.push(rng.gen_range(0..n));
    let mut min_d2 = vec![0.0; n];
    d2_update(x, norms, strips, chosen[0], true, &mut min_d2);
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
        d2_update(x, norms, strips, next, false, &mut min_d2);
    }
    chosen
}

/// Sets (`first`) or lowers `min_d2[i]` to `(‖xᵢ‖² + ‖x_c‖² − 2·xᵢ·x_c)`
/// clamped at 0, for every row `i`: `sq_euclidean_cdist`'s arithmetic,
/// with the dot products taken a row per SIMD lane ([`RowStrips::dots`]).
fn d2_update(x: &Matrix, norms: &[f64], strips: &RowStrips, c: usize, first: bool, min_d2: &mut [f64]) {
    let (seed, seed_norm) = (x.row(c), norms[c]);
    let mut dots = [0.0; SEED_BLOCK];
    for (b, block) in min_d2.chunks_mut(SEED_BLOCK).enumerate() {
        let start = b * SEED_BLOCK;
        let dots = &mut dots[..block.len()];
        strips.dots(start, seed, dots);
        for ((m, &dot), &xn) in block.iter_mut().zip(&*dots).zip(&norms[start..]) {
            let d2 = (xn + seed_norm - 2.0 * dot).max(0.0);
            *m = if first { d2 } else { m.min(d2) };
        }
    }
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
    weighted_centroids_from_labels(runtime::global(), x, &vec![1.0; labels.len()], labels, k, previous)
}

/// [`centroids_from_labels`] with per-row weights: each centroid is
/// `Σ wᵢ·xᵢ / Σ wᵢ` over its members, and a cluster whose weight sum is 0
/// keeps its previous centroid.
fn weighted_centroids_from_labels(
    pool: &ThreadPool,
    x: &Matrix,
    weights: &[f64],
    labels: &[usize],
    k: usize,
    previous: &Matrix,
) -> Matrix {
    let d = x.cols();
    let acc = runtime::par_reduce(
        pool,
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

/// The rows of `next` whose bits differ from `prev`'s, ascending.
fn moved_rows(prev: &Matrix, next: &Matrix) -> Vec<usize> {
    (0..prev.rows())
        .filter(|&c| prev.row(c).iter().zip(next.row(c)).any(|(a, b)| a.to_bits() != b.to_bits()))
        .collect()
}

/// Rows per block of an assignment pass: each block scores its rows into
/// one `NEAREST_BLOCK × k` buffer, so memory stays O(block·k) however tall
/// `x` is.
const NEAREST_BLOCK: usize = 256;

/// For every row of `x`, the index of the nearest row of `centers` (the
/// lowest index on ties) and the squared Euclidean distance to it.
///
/// The rows are scored over fixed row blocks, in parallel on the
/// [`runtime::global`] pool (see [`assign`]). A distance depends only on
/// its own row and center, so neither blocking nor the pool changes an
/// output bit.
///
/// # Panics
/// Panics if `centers` is empty while `x` is not, or the feature dimensions
/// differ.
pub fn nearest(x: &Matrix, centers: &Matrix) -> (Vec<usize>, Vec<f64>) {
    let mut state = vec![(0usize, 0.0f64); x.rows()];
    assign(runtime::global(), x, &row_norms(x), centers, None, &mut state);
    state.into_iter().unzip()
}

/// One block's scratch: gathered rows, distances, and the block's rows
/// split by whether their own center moved.
#[derive(Default)]
struct Scratch {
    rows: Vec<f64>,
    dists: Vec<f64>,
    fresh: Vec<usize>,
    stale: Vec<usize>,
}

/// Lloyd's assignment step: sets `state[i]` to the nearest row of
/// `centers` to row `i` of `x` (the lowest index on ties) and its squared
/// distance. `norms` holds the squared row norms of `x`.
///
/// With `moved = None` every row scores every center. With `Some(m)`,
/// `state` must hold the assignment to the previous centers and `m`
/// (ascending) the centers whose bits changed since. A row whose own
/// center moved is scored against every center. Any other row keeps its
/// center `b` and `d²`; its distances to the unmoved centers still have
/// their old bits, and `b` was the lowest-index minimum among them, so
/// comparing `(d², index)` over `{b} ∪ m` finds the same center as a full
/// scan, ties included.
///
/// Rows are scored over fixed [`NEAREST_BLOCK`]-row blocks in parallel on
/// `pool`, each with the packed matmul and per-call scratch buffers; a
/// distance depends only on its own row and center, so the result is the
/// same for every pool.
///
/// # Panics
/// Panics if `centers` is empty while `x` is not, or the feature dimensions
/// differ.
fn assign(
    pool: &ThreadPool,
    x: &Matrix,
    norms: &[f64],
    centers: &Matrix,
    moved: Option<&[usize]>,
    state: &mut [(usize, f64)],
) {
    let d = x.cols();
    assert_eq!(d, centers.cols(), "kmeans: feature dims differ ({d} vs {})", centers.cols());
    assert!(centers.rows() > 0 || x.rows() == 0, "kmeans: no centers to assign {} rows to", x.rows());
    let mut is_moved = vec![moved.is_none(); centers.rows()];
    let changed = match moved {
        None => None,
        Some([]) => return,
        Some(m) => {
            m.iter().for_each(|&c| is_moved[c] = true);
            Some((m, PackedPoints::new(&centers.select_rows(m))))
        }
    };
    let all = state.iter().any(|s| is_moved[s.0]).then(|| PackedPoints::new(centers));
    // Buffers the blocks borrow and return, so a pass allocates one set per
    // concurrently running block. Fresh buffers per block (a 256 × k
    // distance block each) made the assign benchmark's fit about 8 %
    // slower on a 2-vCPU host.
    let spare: Mutex<Vec<Scratch>> = Mutex::new(Vec::new());
    par_for_rows(pool, state, 1, NEAREST_BLOCK, |start, slots| {
        let mut s = spare.lock().expect("kmeans scratch").pop().unwrap_or_default();
        let Scratch { rows, dists, fresh, stale } = &mut s;
        fresh.clear();
        stale.clear();
        for (r, slot) in slots.iter().enumerate() {
            if is_moved[slot.0] { stale.push(r) } else { fresh.push(r) }
        }
        let block_norms = &norms[start..];
        if !fresh.is_empty() {
            let (m, packed) = changed.as_ref().expect("every row is stale when no center list is given");
            let dists = sized(dists, fresh.len() * m.len());
            packed.sq_dists(gather(x, start, slots.len(), fresh, rows), fresh.iter().map(|&r| block_norms[r]), dists);
            for (&r, row) in fresh.iter().zip(dists.chunks_exact(m.len())) {
                let mut best = slots[r];
                for (&j, &v) in m.iter().zip(row) {
                    if v < best.1 || (v == best.1 && j < best.0) {
                        best = (j, v);
                    }
                }
                slots[r] = best;
            }
        }
        if !stale.is_empty() {
            let packed = all.as_ref().expect("all centers are packed when a row is stale");
            let k = centers.rows();
            let dists = sized(dists, stale.len() * k);
            packed.sq_dists(gather(x, start, slots.len(), stale, rows), stale.iter().map(|&r| block_norms[r]), dists);
            for (&r, row) in stale.iter().zip(dists.chunks_exact(k)) {
                let mut best = 0;
                for (j, &v) in row.iter().enumerate().skip(1) {
                    if v < row[best] {
                        best = j;
                    }
                }
                slots[r] = (best, row[best]);
            }
        }
        spare.lock().expect("kmeans scratch").push(s);
    });
}

/// `buf`'s first `len` values, growing it if needed.
fn sized(buf: &mut Vec<f64>, len: usize) -> &mut [f64] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// The rows `start + r` of `x` for `r` in `idx` (ascending) as one
/// row-major slice: in place when `idx` is all `block` rows, else copied
/// into `buf`.
fn gather<'a>(x: &'a Matrix, start: usize, block: usize, idx: &[usize], buf: &'a mut Vec<f64>) -> &'a [f64] {
    let d = x.cols();
    if idx.len() == block {
        return &x.as_slice()[start * d..][..block * d];
    }
    let out = sized(buf, idx.len() * d);
    for (dst, &r) in out.chunks_exact_mut(d.max(1)).zip(idx) {
        dst.copy_from_slice(x.row(start + r));
    }
    out
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
        // 300 features: the matmul under cdist sums in several slabs. 300
        // rows span two D² update blocks, the last one partial.
        for (n, d) in [(40, 48), (13, 300), (9, 1), (300, 20)] {
            let x = randn(n, d, &mut rng(d as u64));
            let (norms, strips) = (row_norms(&x), RowStrips::new(&x));
            let want = sq_euclidean_cdist(&x, &x);
            for c in 0..n {
                let mut got = vec![f64::NAN; n];
                d2_update(&x, &norms, &strips, c, true, &mut got);
                for (i, g) in got.iter().enumerate() {
                    assert_eq!(g.to_bits(), want[(i, c)].to_bits(), "{n}x{d}: ({i}, {c})");
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
        // 600 rows span three NEAREST_BLOCK blocks, the last one partial;
        // 300 features span two matmul slabs.
        for d in [3, 300] {
            let x = randn(600, d, &mut rng(14));
            let centers = randn(7, d, &mut rng(15));
            let (labels, d2) = nearest(&x, &centers);
            let d = sq_euclidean_cdist(&x, &centers);
            for i in 0..x.rows() {
                let (best, v) = argmin(d.row(i));
                assert_eq!(labels[i], best, "row {i}");
                assert_eq!(d2[i].to_bits(), v.to_bits(), "row {i}");
            }
        }
    }

    /// First-lowest argmin of one distance row.
    fn argmin(row: &[f64]) -> (usize, f64) {
        let best = (1..row.len()).fold(0, |b, j| if row[j] < row[b] { j } else { b });
        (best, row[best])
    }

    /// The engine as it was before the incremental assignment: every Lloyd
    /// iteration and the final labelling take the full cdist and its
    /// argmin, and K-means++ takes an `n×1` cdist per seed.
    fn fit_weighted_reference(km: &KMeans, x: &Matrix, weights: &[f64], rng: &mut StdRng) -> KMeansResult {
        let nearest = |centroids: &Matrix| -> (Vec<usize>, Vec<f64>) {
            let d = sq_euclidean_cdist(x, centroids);
            d.row_iter().map(argmin).unzip()
        };
        let serial = ThreadPool::new(1);
        let mut best: Option<KMeansResult> = None;
        for _ in 0..km.n_init.max(1) {
            let mut centroids = match km.init {
                KMeansInit::Random => x.select_rows(&sample_without_replacement(x.rows(), km.k, rng)),
                KMeansInit::PlusPlus => kmeans_pp_seeds_per_seed_cdist(x, km.k, rng),
            };
            let mut n_iter = 0;
            for iter in 0..km.max_iter {
                n_iter = iter + 1;
                let labels = nearest(&centroids).0;
                let next = weighted_centroids_from_labels(&serial, x, weights, &labels, km.k, &centroids);
                let shift = next.max_abs_diff(&centroids);
                centroids = next;
                if shift < km.tol {
                    break;
                }
            }
            let (labels, d2) = nearest(&centroids);
            let inertia: f64 = d2.iter().zip(weights).map(|(d, w)| w * d).sum();
            let result = KMeansResult { labels, centroids, inertia, n_iter };
            if best.as_ref().is_none_or(|b| result.inertia < b.inertia) {
                best = Some(result);
            }
        }
        best.expect("at least one restart ran")
    }

    #[test]
    fn incremental_lloyd_matches_the_full_recompute_loop_bitwise() {
        // Three distinct rows, ten copies each: ties everywhere, and with
        // k = 5 at least two clusters stay empty.
        let three = Matrix::from_fn(30, 4, |i, j| ((i % 3) * 7 + j) as f64 * 0.3 - 2.0);
        let cases = [
            // Birch-like: many clusters of about three rows.
            ("many clusters", randn(700, 48, &mut rng(21)), KMeans { n_init: 2, ..KMeans::new(240) }),
            ("duplicates", three.clone(), KMeans { n_init: 3, ..KMeans::new(5) }),
            ("empty clusters", three, KMeans { n_init: 3, init: KMeansInit::Random, ..KMeans::new(5) }),
            ("k = n", randn(60, 5, &mut rng(22)), KMeans::new(60)),
            ("below one block", randn(37, 6, &mut rng(23)), KMeans { n_init: 2, ..KMeans::new(4) }),
            // Features past KC, over two assignment blocks.
            ("d > KC", randn(300, 300, &mut rng(24)), KMeans { n_init: 2, ..KMeans::new(20) }),
            ("cut short", randn(500, 8, &mut rng(25)), KMeans { max_iter: 2, ..KMeans::new(30) }),
            ("no iterations", randn(300, 8, &mut rng(26)), KMeans { max_iter: 0, ..KMeans::new(9) }),
        ];
        let pools: Vec<ThreadPool> = [1, 2, 4].into_iter().map(ThreadPool::new).collect();
        for (name, x, km) in &cases {
            let n = x.rows();
            let unit = vec![1.0; n];
            let counts: Vec<f64> = (0..n).map(|i| (1 + (i * 7) % 5) as f64).collect();
            for (weights, wname) in [(&unit, "unit"), (&counts, "counts")] {
                let want = fit_weighted_reference(km, x, weights, &mut rng(31));
                for pool in &pools {
                    let what = format!("{name}, {wname} weights, {} threads", pool.threads());
                    let got = km.fit_weighted_on(pool, x, weights, &mut rng(31));
                    assert_eq!(got.labels, want.labels, "{what}: labels");
                    assert_eq!(got.n_iter, want.n_iter, "{what}: n_iter");
                    assert_eq!(got.inertia.to_bits(), want.inertia.to_bits(), "{what}: inertia");
                    assert_eq!(got.centroids.shape(), want.centroids.shape(), "{what}");
                    for (g, w) in got.centroids.as_slice().iter().zip(want.centroids.as_slice()) {
                        assert_eq!(g.to_bits(), w.to_bits(), "{what}: centroids");
                    }
                }
                if *name == "empty clusters" {
                    let used: std::collections::BTreeSet<_> = want.labels.iter().collect();
                    assert!(used.len() < km.k, "{name}: no cluster is empty");
                }
            }
        }
    }

    #[test]
    fn incremental_assign_matches_a_full_scan_under_ties() {
        // Points and centers on a small integer grid: exact distance ties
        // between moved and unmoved centers, on both sides of a row's
        // center index, at every step.
        let mut r = rng(41);
        let grid = |r: &mut StdRng, rows| Matrix::from_fn(rows, 2, |_, _| r.gen_range(0..6) as f64);
        let x = grid(&mut r, 600);
        let norms = row_norms(&x);
        for threads in [1, 2] {
            let pool = ThreadPool::new(threads);
            let mut centers = grid(&mut r, 9);
            let mut state = vec![(0usize, 0.0f64); x.rows()];
            assign(&pool, &x, &norms, &centers, None, &mut state);
            for step in 0..40 {
                let mut next = centers.clone();
                let fresh = grid(&mut r, next.rows());
                for c in 0..next.rows() {
                    if r.gen_bool(0.3) {
                        next.row_mut(c).copy_from_slice(fresh.row(c));
                    }
                }
                let moved = moved_rows(&centers, &next);
                assign(&pool, &x, &norms, &next, Some(&moved), &mut state);
                let mut full = vec![(0usize, 0.0f64); x.rows()];
                assign(&pool, &x, &norms, &next, None, &mut full);
                for (i, (got, want)) in state.iter().zip(&full).enumerate() {
                    let what = format!("{threads} threads, step {step}, row {i}");
                    assert_eq!(got.0, want.0, "{what}");
                    assert_eq!(got.1.to_bits(), want.1.to_bits(), "{what}");
                }
                centers = next;
            }
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
