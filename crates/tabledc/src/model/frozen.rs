//! The fitted model: TableDC's Eq. 3–9 forward pass with its operands
//! packed once, run without an autograd tape.
//!
//! A [`TableDc`] is frozen from the trained network when
//! [`TableDc::fit`] ends; the network is dropped there. It holds the
//! training column statistics, the encoder as a [`FrozenMlp`], the centers
//! packed as the right operand of `z·cᵀ` with their squared norms, and the
//! distance and kernel parameters. A request is split into row blocks
//! ([`plan_block_rows`]: one per pool thread, at most 64 rows) in one pool
//! fork. Each block runs the whole chain on its thread's scratch buffer:
//! standardize, the encoder's packed matmuls with their
//! bias-and-activation passes, the distances, the kernel with its row
//! normalization in place in `q`, and the softmax into `m`.
//!
//! Every output element goes through the operations of the training
//! tape's forward pass ([`crate::Distance::sq_cdist`],
//! [`crate::Kernel::apply`], the row softmax), in the same order, through
//! the same row functions ([`standardize_row`], [`sq_dist_row`](tensor::par::sq_dist_row),
//! [`kernel_row`], [`softmax_row`]). `q`, `m` and the labels are therefore
//! bit-identical to the tape's, for every request size and thread count.
//! Each row is scored from its own input alone: under
//! [`Covariance::Empirical`] the whitening is estimated once from the
//! training latent, not from the request.

use nn::FrozenMlp;
use runtime::{par_for_rows, ThreadPool};
use tensor::head::{kernel_row, SoftKernel};
use tensor::par::{
    matmul_packed, plan_block_rows, softmax_row, sq_norm, standardize_row, with_scratch, PackedPoints, PackedRhs,
};
use tensor::Matrix;

use crate::distance::{normalize_row, square, whitening, Covariance, Distance};
use crate::model::TableDcConfig;

/// A fitted TableDC model, frozen for inference. See the module docs.
#[derive(Clone, Debug)]
pub struct TableDc {
    config: TableDcConfig,
    /// Column means of the training matrix.
    x_mean: Vec<f64>,
    /// Inverse column standard deviations of the training matrix.
    x_inv_std: Vec<f64>,
    encoder: FrozenMlp,
    /// The learned cluster centers, as [`TableDc::centers`] returns them.
    centers: Matrix,
    metric: Metric,
    /// The centers as the metric sees them (whitened under
    /// [`Metric::Whitened`], L2-normalized under [`Metric::Cosine`]),
    /// packed as the right operand of `z·cᵀ` with their `‖c‖²`.
    packed: PackedPoints,
    kernel: SoftKernel,
}

/// How a block's latent rows become squared distances to the centers.
#[derive(Clone, Debug)]
enum Metric {
    /// `‖z − c‖²`, times `scale` when set: the scaled-identity Mahalanobis
    /// distance's `1/δ`.
    SqEuclidean { scale: Option<f64> },
    /// `‖z·W − c·W‖²` with `W = L⁻ᵀ` from the training latent's covariance.
    Whitened { w: PackedRhs },
    /// `(1 − ẑ·ĉᵀ)²` over L2-normalized rows.
    Cosine,
}

impl TableDc {
    /// Freezes a trained network: its `encoder`, its `centers` and the
    /// head of `config`. `x_std` is the standardized training matrix,
    /// which only [`Covariance::Empirical`] reads; `x_mean`/`x_inv_std`
    /// are the training statistics every request is standardized with.
    ///
    /// # Panics
    /// Panics if the empirical covariance of the training latent is not
    /// positive definite even after shrinkage.
    pub(super) fn freeze(
        config: TableDcConfig,
        encoder: FrozenMlp,
        centers: Matrix,
        x_std: &Matrix,
        x_mean: Vec<f64>,
        x_inv_std: Vec<f64>,
    ) -> Self {
        let (metric, c) = match config.distance {
            Distance::Euclidean => (Metric::SqEuclidean { scale: None }, centers.clone()),
            Distance::Mahalanobis(Covariance::ScaledIdentity(delta)) => {
                assert!(delta > 0.0, "Mahalanobis: delta must be positive, got {delta}");
                (Metric::SqEuclidean { scale: Some(1.0 / delta) }, centers.clone())
            }
            Distance::Mahalanobis(Covariance::Empirical { shrinkage }) => {
                let z = encoder.infer(runtime::global(), x_std);
                let w = whitening(&z, shrinkage).expect("distance computation failed (non-SPD covariance)");
                let cw = centers.matmul(&w);
                (Metric::Whitened { w: PackedRhs::new(&w) }, cw)
            }
            Distance::Cosine => {
                let mut cn = centers.clone();
                let latent = cn.cols();
                cn.as_mut_slice().chunks_exact_mut(latent).for_each(normalize_row);
                (Metric::Cosine, cn)
            }
        };
        TableDc {
            kernel: config.kernel.soft_kernel(),
            config,
            x_mean,
            x_inv_std,
            encoder,
            centers,
            metric,
            packed: PackedPoints::new(&c),
        }
    }

    /// Number of clusters.
    fn k(&self) -> usize {
        self.packed.norms().len()
    }

    /// `(q, m)` (Eq. 8–9) for (possibly new) data without training, on the
    /// [`runtime::global`] pool (see [`TableDc::soft_assignments_on`]).
    pub fn soft_assignments(&self, x: &Matrix) -> (Matrix, Matrix) {
        self.soft_assignments_on(runtime::global(), x)
    }

    /// `(q, m)` for the rows of `x` on an explicit pool. Rows are
    /// standardized with the training matrix's column statistics and
    /// scored independently of the others in the call, so a 1-row request
    /// gets the same answer as that row inside a full-matrix call, for
    /// every thread count. One `tabledc.infer` span and one pool fork of
    /// at most `pool.threads()` blocks for a request of up to
    /// `64·threads` rows.
    ///
    /// # Panics
    /// Panics if `x` does not have the training matrix's column count.
    pub fn soft_assignments_on(&self, pool: &ThreadPool, x: &Matrix) -> (Matrix, Matrix) {
        let _infer_timer = obs::span!("tabledc.infer");
        let d = self.x_mean.len();
        assert_eq!(x.cols(), d, "TableDC inference: {} columns, the model was trained on {d}", x.cols());
        let (n, k) = (x.rows(), self.k());
        let mut q = Matrix::zeros(n, k);
        let mut m = Matrix::zeros(n, k);
        if n == 0 {
            return (q, m);
        }
        let rows = plan_block_rows(n, pool.threads());
        // One slot per block: the block's disjoint rows of `q` and `m`.
        let mut blocks: Vec<(&mut [f64], &mut [f64])> =
            q.as_mut_slice().chunks_mut(rows * k).zip(m.as_mut_slice().chunks_mut(rows * k)).collect();
        par_for_rows(pool, &mut blocks, 1, 1, |b, slot| {
            let (q_block, m_block) = &mut slot[0];
            let first = b * rows;
            let here = q_block.len() / k;
            self.score_block(&x.as_slice()[first * d..(first + here) * d], q_block, m_block);
        });
        (q, m)
    }

    /// Hard cluster assignment for (possibly new) data.
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        self.soft_assignments(x).0.argmax_rows()
    }

    /// The latent embedding of the rows of `x` (standardized with the
    /// training statistics) under the trained encoder, on the
    /// [`runtime::global`] pool.
    ///
    /// # Panics
    /// Panics if `x` does not have the training matrix's column count.
    pub fn embed(&self, x: &Matrix) -> Matrix {
        self.encoder.infer(runtime::global(), &x.standardize_cols_with(&self.x_mean, &self.x_inv_std))
    }

    /// The learned cluster centers (`k × latent_dim`).
    pub fn centers(&self) -> &Matrix {
        &self.centers
    }

    /// The configuration this model was trained with.
    pub fn config(&self) -> &TableDcConfig {
        &self.config
    }

    /// Eq. 3–9 for one block of raw rows `x`: `q` and `m` are the block's
    /// rows of the outputs.
    fn score_block(&self, x: &[f64], q: &mut [f64], m: &mut [f64]) {
        let (d, k, latent) = (self.x_mean.len(), self.k(), self.encoder.out_dim());
        let rows = q.len() / k;
        let whitened = matches!(self.metric, Metric::Whitened { .. });
        let z_len = rows * latent * if whitened { 2 } else { 1 };
        with_scratch(z_len + x.len() + self.encoder.scratch_len(rows), |scratch| {
            let (z, scratch) = scratch.split_at_mut(z_len);
            let (z, zw) = z.split_at_mut(rows * latent);
            let (xs, scratch) = scratch.split_at_mut(x.len());
            for (xs_row, x_row) in xs.chunks_exact_mut(d).zip(x.chunks_exact(d)) {
                standardize_row(xs_row, x_row, &self.x_mean, &self.x_inv_std);
            }
            self.encoder.forward_rows(xs, z, scratch);
            match &self.metric {
                Metric::SqEuclidean { scale } => self.sq_distances(z, q, *scale),
                Metric::Whitened { w } => {
                    matmul_packed(z, w, zw);
                    self.sq_distances(zw, q, None);
                }
                Metric::Cosine => {
                    z.chunks_exact_mut(latent).for_each(normalize_row);
                    matmul_packed(z, self.packed.transposed(), q);
                    for v in q.iter_mut() {
                        *v = square(-*v + 1.0);
                    }
                }
            }
            for (q_row, m_row) in q.chunks_exact_mut(k).zip(m.chunks_exact_mut(k)) {
                let den = kernel_row(self.kernel, q_row, super::EPS);
                for v in q_row.iter_mut() {
                    *v /= den;
                }
                m_row.copy_from_slice(q_row);
                softmax_row(m_row);
            }
        });
    }

    /// Squared Euclidean distances from the latent rows `z` to the packed
    /// centers into `d2`, each times `scale` when set.
    fn sq_distances(&self, z: &[f64], d2: &mut [f64], scale: Option<f64>) {
        let width = self.packed.transposed().rows();
        self.packed.sq_dists(z, z.chunks_exact(width).map(sq_norm), d2);
        if let Some(s) = scale {
            for v in d2.iter_mut() {
                *v *= s;
            }
        }
    }
}
