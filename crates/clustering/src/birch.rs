//! BIRCH: balanced iterative reducing and clustering using hierarchies
//! (Zhang et al., SIGMOD '96) — the cluster-center initializer of TableDC
//! (paper §3.2, Algorithm 2).
//!
//! A CF-tree summarizes the data set as a hierarchy of *clustering
//! features* `(n, LS, SS)` (count, linear sum, squared sum). Points are
//! inserted by descending to the closest leaf entry; an entry absorbs the
//! point if its radius stays below the threshold `T`, otherwise a new entry
//! is created, with node splits propagating upward bounded by the branching
//! factor `B` (internal) and leaf capacity `L`. A final global-clustering
//! step groups the leaf subclusters into `K` clusters (here: the shared
//! K-means engine, [`KMeans::fit_weighted`], over subcluster centroids
//! weighted by their point counts — the same refinement scikit-learn
//! uses), and each point inherits the label of its nearest subcluster.

use rand::rngs::StdRng;
use tensor::Matrix;

use crate::kmeans::{centroids_from_labels, nearest, KMeans};

/// A clustering feature: the additive sufficient statistics of a
/// subcluster (paper §3.2: "the number of data points per cluster, squared,
/// and linear sum").
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteringFeature {
    /// Number of absorbed points.
    pub n: f64,
    /// Linear sum per dimension.
    pub ls: Vec<f64>,
    /// Sum of squared norms.
    pub ss: f64,
}

impl ClusteringFeature {
    /// CF of a single point.
    pub fn from_point(p: &[f64]) -> Self {
        Self { n: 1.0, ls: p.to_vec(), ss: p.iter().map(|x| x * x).sum() }
    }

    /// Additively merges another CF into this one (CF additivity theorem).
    pub fn merge(&mut self, other: &ClusteringFeature) {
        self.n += other.n;
        for (a, b) in self.ls.iter_mut().zip(&other.ls) {
            *a += b;
        }
        self.ss += other.ss;
    }

    /// Subcluster centroid `LS/n`.
    pub fn centroid(&self) -> Vec<f64> {
        self.ls.iter().map(|x| x / self.n).collect()
    }

    /// Subcluster radius: RMS distance of members to the centroid,
    /// `sqrt(SS/n − ‖LS/n‖²)` (clamped at 0 against rounding).
    pub fn radius(&self) -> f64 {
        let c2: f64 = self.ls.iter().map(|x| (x / self.n) * (x / self.n)).sum();
        (self.ss / self.n - c2).max(0.0).sqrt()
    }

    /// Squared centroid distance to another CF.
    fn sq_centroid_distance(&self, other: &ClusteringFeature) -> f64 {
        self.ls
            .iter()
            .zip(&other.ls)
            .map(|(a, b)| {
                let d = a / self.n - b / other.n;
                d * d
            })
            .sum()
    }

    /// Radius of the subcluster that would result from merging with
    /// `other`, without materializing the merge.
    fn merged_radius(&self, other: &ClusteringFeature) -> f64 {
        let n = self.n + other.n;
        let ss = self.ss + other.ss;
        let c2: f64 = self
            .ls
            .iter()
            .zip(&other.ls)
            .map(|(a, b)| {
                let c = (a + b) / n;
                c * c
            })
            .sum();
        (ss / n - c2).max(0.0).sqrt()
    }
}

enum Node {
    Leaf { entries: Vec<ClusteringFeature> },
    Internal { children: Vec<Child> },
}

/// An internal node's child with its summarizing CF.
type Child = (ClusteringFeature, Box<Node>);

/// Outcome of inserting into a node: either it absorbed the point, or it
/// split into two (the caller replaces the child with both halves).
enum Insert {
    Ok,
    Split(ClusteringFeature, Box<Node>, ClusteringFeature, Box<Node>),
}

impl Node {
    fn insert(&mut self, cf: &ClusteringFeature, t: f64, b: usize, l: usize) -> Insert {
        match self {
            Node::Leaf { entries } => {
                // Closest entry by centroid distance.
                let closest = entries
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, c)| {
                        a.sq_centroid_distance(cf)
                            .partial_cmp(&c.sq_centroid_distance(cf))
                            .expect("NaN in CF distance")
                    })
                    .map(|(i, _)| i);
                match closest {
                    Some(i) if entries[i].merged_radius(cf) <= t => {
                        entries[i].merge(cf);
                        Insert::Ok
                    }
                    _ => {
                        entries.push(cf.clone());
                        if entries.len() > l {
                            let (cf1, e1, cf2, e2) = split_entries(std::mem::take(entries));
                            Insert::Split(
                                cf1,
                                Box::new(Node::Leaf { entries: e1 }),
                                cf2,
                                Box::new(Node::Leaf { entries: e2 }),
                            )
                        } else {
                            Insert::Ok
                        }
                    }
                }
            }
            Node::Internal { children } => {
                let idx = children
                    .iter()
                    .enumerate()
                    .min_by(|(_, (a, _)), (_, (c, _))| {
                        a.sq_centroid_distance(cf)
                            .partial_cmp(&c.sq_centroid_distance(cf))
                            .expect("NaN in CF distance")
                    })
                    .map(|(i, _)| i)
                    .expect("internal node has children");
                let result = children[idx].1.insert(cf, t, b, l);
                children[idx].0.merge(cf);
                if let Insert::Split(cf1, n1, cf2, n2) = result {
                    children.remove(idx);
                    children.push((cf1, n1));
                    children.push((cf2, n2));
                    if children.len() > b {
                        let (g1, g2) = split_children(std::mem::take(children));
                        let cf_of = |g: &[Child]| {
                            let mut acc = g[0].0.clone();
                            for (cf, _) in &g[1..] {
                                acc.merge(cf);
                            }
                            acc
                        };
                        let (c1, c2) = (cf_of(&g1), cf_of(&g2));
                        return Insert::Split(
                            c1,
                            Box::new(Node::Internal { children: g1 }),
                            c2,
                            Box::new(Node::Internal { children: g2 }),
                        );
                    }
                }
                Insert::Ok
            }
        }
    }

    fn collect_leaf_entries(&self, out: &mut Vec<ClusteringFeature>) {
        match self {
            Node::Leaf { entries } => out.extend(entries.iter().cloned()),
            Node::Internal { children } => {
                for (_, child) in children {
                    child.collect_leaf_entries(out);
                }
            }
        }
    }
}

/// Splits a set of CF entries into two groups seeded by the farthest pair.
fn split_entries(entries: Vec<ClusteringFeature>) -> (ClusteringFeature, Vec<ClusteringFeature>, ClusteringFeature, Vec<ClusteringFeature>) {
    let (i, j) = farthest_pair(&entries, |e| e);
    let (mut g1, mut g2) = (Vec::new(), Vec::new());
    let (seed1, seed2) = (entries[i].clone(), entries[j].clone());
    for e in entries {
        if e.sq_centroid_distance(&seed1) <= e.sq_centroid_distance(&seed2) {
            g1.push(e);
        } else {
            g2.push(e);
        }
    }
    let sum_cf = |g: &[ClusteringFeature]| {
        let mut acc = g[0].clone();
        for e in &g[1..] {
            acc.merge(e);
        }
        acc
    };
    let (c1, c2) = (sum_cf(&g1), sum_cf(&g2));
    (c1, g1, c2, g2)
}

fn split_children(children: Vec<Child>) -> (Vec<Child>, Vec<Child>) {
    let (i, j) = farthest_pair(&children, |c| &c.0);
    let seed1 = children[i].0.clone();
    let seed2 = children[j].0.clone();
    let (mut g1, mut g2) = (Vec::new(), Vec::new());
    for c in children {
        if c.0.sq_centroid_distance(&seed1) <= c.0.sq_centroid_distance(&seed2) {
            g1.push(c);
        } else {
            g2.push(c);
        }
    }
    (g1, g2)
}

fn farthest_pair<T>(items: &[T], cf: impl Fn(&T) -> &ClusteringFeature) -> (usize, usize) {
    debug_assert!(items.len() >= 2);
    let mut best = (0, 1);
    let mut best_d = -1.0;
    for i in 0..items.len() {
        for j in (i + 1)..items.len() {
            let d = cf(&items[i]).sq_centroid_distance(cf(&items[j]));
            if d > best_d {
                best_d = d;
                best = (i, j);
            }
        }
    }
    best
}

/// BIRCH configuration (paper Algorithm 2: `T`, `B`, `L`, `K`).
#[derive(Debug, Clone)]
pub struct Birch {
    /// Number of final clusters.
    pub k: usize,
    /// CF-entry radius threshold `T`.
    pub threshold: f64,
    /// Branching factor `B` (max children of an internal node).
    pub branching: usize,
    /// Leaf capacity `L` (max entries in a leaf).
    pub leaf_capacity: usize,
    /// If true, the threshold is repeatedly halved until the tree yields at
    /// least `k` subclusters — the grid search on `T` of §4.3.
    pub auto_threshold: bool,
}

impl Birch {
    /// Defaults mirroring scikit-learn: `T = 0.5`, `B = 50`, `L = 50`,
    /// with automatic threshold adjustment enabled.
    pub fn new(k: usize) -> Self {
        Self { k, threshold: 0.5, branching: 50, leaf_capacity: 50, auto_threshold: true }
    }

    /// Builds the CF-tree over the rows of `x` and returns final labels,
    /// centers (per Algorithm 2: the mean of the points assigned to each
    /// cluster), and tree statistics.
    ///
    /// # Panics
    /// Panics if `k == 0` or `k > n`.
    pub fn fit(&self, x: &Matrix, rng: &mut StdRng) -> BirchResult {
        assert!(self.k > 0, "Birch: k must be positive");
        assert!(self.k <= x.rows(), "Birch: k = {} > n = {}", self.k, x.rows());
        let _fit_timer = obs::span!("birch.fit");
        let mut t = self.threshold;
        loop {
            let subclusters = self.build_tree(x, t);
            if subclusters.len() >= self.k || !self.auto_threshold || t < 1e-12 {
                return self.global_cluster(x, subclusters, t, rng);
            }
            t *= 0.5;
        }
    }

    fn build_tree(&self, x: &Matrix, t: f64) -> Vec<ClusteringFeature> {
        let mut root = Node::Leaf { entries: Vec::new() };
        for row in x.row_iter() {
            let cf = ClusteringFeature::from_point(row);
            if let Insert::Split(cf1, n1, cf2, n2) =
                root.insert(&cf, t, self.branching, self.leaf_capacity)
            {
                root = Node::Internal { children: vec![(cf1, n1), (cf2, n2)] };
            }
        }
        let mut subclusters = Vec::new();
        root.collect_leaf_entries(&mut subclusters);
        subclusters
    }

    fn global_cluster(
        &self,
        x: &Matrix,
        subclusters: Vec<ClusteringFeature>,
        threshold_used: f64,
        rng: &mut StdRng,
    ) -> BirchResult {
        let n_subclusters = subclusters.len();
        let centroids = Matrix::from_row_vecs(
            &subclusters.iter().map(ClusteringFeature::centroid).collect::<Vec<_>>(),
        );
        let weights: Vec<f64> = subclusters.iter().map(|c| c.n).collect();

        // Weighted K-means over subcluster centroids; 8 restarts ranked by
        // weighted inertia protect against unlucky seedings over the
        // (possibly many) subclusters.
        let k = self.k.min(n_subclusters);
        let global = {
            let _timer = obs::span!("kmeans.weighted");
            KMeans { n_init: 8, ..KMeans::new(k) }.fit_weighted(&centroids, &weights, rng)
        };

        // Each data point inherits the label of its nearest subcluster.
        let labels: Vec<usize> =
            nearest(x, &centroids).0.into_iter().map(|s| global.labels[s]).collect();

        // Final centers: mean of the points assigned to each cluster
        // (Algorithm 2, line 12); an empty cluster keeps its weighted
        // subcluster mean from the global step.
        let centers = centroids_from_labels(x, &labels, k, &global.centroids);

        BirchResult { labels, centers, n_subclusters, threshold_used }
    }
}

/// Output of a BIRCH run.
#[derive(Debug, Clone)]
pub struct BirchResult {
    /// Final cluster index per input row.
    pub labels: Vec<usize>,
    /// `k × d` cluster centers (means of assigned points).
    pub centers: Matrix,
    /// Number of CF subclusters the tree produced.
    pub n_subclusters: usize,
    /// The radius threshold actually used (after auto-adjustment).
    pub threshold_used: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use tensor::distance::sq_euclidean;
    use tensor::random::{randn, rng};

    fn blobs(n_per: usize, spread: f64, seed: u64) -> (Matrix, Vec<usize>) {
        let mut r = rng(seed);
        let centers = [[0.0, 0.0], [8.0, 0.0], [0.0, 8.0], [8.0, 8.0]];
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for (ci, c) in centers.iter().enumerate() {
            for _ in 0..n_per {
                let e = randn(1, 2, &mut r);
                rows.push(vec![c[0] + spread * e[(0, 0)], c[1] + spread * e[(0, 1)]]);
                truth.push(ci);
            }
        }
        (Matrix::from_row_vecs(&rows), truth)
    }

    #[test]
    fn cf_additivity() {
        let mut a = ClusteringFeature::from_point(&[1.0, 2.0]);
        let b = ClusteringFeature::from_point(&[3.0, 4.0]);
        a.merge(&b);
        assert_eq!(a.n, 2.0);
        assert_eq!(a.ls, vec![4.0, 6.0]);
        assert_eq!(a.ss, 1.0 + 4.0 + 9.0 + 16.0);
        assert_eq!(a.centroid(), vec![2.0, 3.0]);
    }

    #[test]
    fn cf_radius_of_symmetric_pair() {
        let mut a = ClusteringFeature::from_point(&[-1.0, 0.0]);
        a.merge(&ClusteringFeature::from_point(&[1.0, 0.0]));
        // Both points at distance 1 from centroid (0,0) → radius 1.
        assert!((a.radius() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merged_radius_matches_actual_merge() {
        let a = ClusteringFeature::from_point(&[0.0, 0.0]);
        let b = ClusteringFeature::from_point(&[2.0, 0.0]);
        let predicted = a.merged_radius(&b);
        let mut m = a.clone();
        m.merge(&b);
        assert!((predicted - m.radius()).abs() < 1e-12);
    }

    #[test]
    fn recovers_separated_blobs() {
        let (x, truth) = blobs(25, 0.5, 1);
        let result = Birch::new(4).fit(&x, &mut rng(2));
        assert!(
            accuracy(&result.labels, &truth) > 0.95,
            "acc = {}",
            accuracy(&result.labels, &truth)
        );
        assert_eq!(result.centers.shape(), (4, 2));
    }

    #[test]
    fn tree_compresses_points_into_fewer_subclusters() {
        let (x, _) = blobs(50, 0.3, 3);
        let result = Birch { threshold: 1.0, ..Birch::new(4) }.fit(&x, &mut rng(4));
        assert!(
            result.n_subclusters < x.rows(),
            "CF tree should compress: {} subclusters for {} points",
            result.n_subclusters,
            x.rows()
        );
        assert!(result.n_subclusters >= 4);
    }

    #[test]
    fn auto_threshold_shrinks_until_enough_subclusters() {
        // A huge threshold merges everything into one CF; auto-adjust must
        // shrink it to produce >= k subclusters.
        let (x, truth) = blobs(20, 0.4, 5);
        let result = Birch { threshold: 1000.0, ..Birch::new(4) }.fit(&x, &mut rng(6));
        assert!(result.threshold_used < 1000.0);
        assert!(result.n_subclusters >= 4);
        assert!(accuracy(&result.labels, &truth) > 0.9);
    }

    #[test]
    fn handles_many_clusters_small_groups() {
        // Entity-resolution-like shape: many tiny clusters.
        let mut r = rng(7);
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for c in 0..30 {
            let cx = (c % 6) as f64 * 10.0;
            let cy = (c / 6) as f64 * 10.0;
            for _ in 0..3 {
                let e = randn(1, 2, &mut r);
                rows.push(vec![cx + 0.2 * e[(0, 0)], cy + 0.2 * e[(0, 1)]]);
                truth.push(c);
            }
        }
        let x = Matrix::from_row_vecs(&rows);
        let result = Birch::new(30).fit(&x, &mut rng(8));
        assert!(accuracy(&result.labels, &truth) > 0.8);
    }

    #[test]
    fn every_label_is_the_global_label_of_the_nearest_subcluster() {
        let (x, _) = blobs(40, 1.5, 11);
        let birch = Birch { threshold: 0.8, ..Birch::new(4) };
        let result = birch.fit(&x, &mut rng(12));
        // Rebuild the run's tree (building draws no randomness) and replay
        // its global step on the same seed.
        let subclusters = birch.build_tree(&x, result.threshold_used);
        assert_eq!(subclusters.len(), result.n_subclusters);
        assert!(subclusters.len() > 8, "only {} subclusters", subclusters.len());
        let centroids: Vec<Vec<f64>> =
            subclusters.iter().map(ClusteringFeature::centroid).collect();
        let weights: Vec<f64> = subclusters.iter().map(|c| c.n).collect();
        let global = KMeans { n_init: 8, ..KMeans::new(4) }.fit_weighted(
            &Matrix::from_row_vecs(&centroids),
            &weights,
            &mut rng(12),
        );
        for (i, row) in x.row_iter().enumerate() {
            // Reference: a naive scan over every subcluster, first minimum wins.
            let mut best = 0;
            for (s, c) in centroids.iter().enumerate() {
                if sq_euclidean(row, c) < sq_euclidean(row, &centroids[best]) {
                    best = s;
                }
            }
            assert_eq!(result.labels[i], global.labels[best], "row {i}");
        }
    }

    #[test]
    fn labels_within_k() {
        let (x, _) = blobs(10, 0.5, 9);
        let result = Birch::new(4).fit(&x, &mut rng(10));
        assert!(result.labels.iter().all(|&l| l < 4));
    }
}
