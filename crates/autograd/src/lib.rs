//! # autograd — tape-based reverse-mode automatic differentiation
//!
//! A compact autodiff engine over [`tensor::Matrix`], sufficient to train
//! every model in this repository: the TableDC autoencoder with its
//! Mahalanobis/Cauchy clustering head, and the SDCN/DFCN/DCRN/EDESC/SHGP
//! baselines (including GCN layers, which enter the graph through constant
//! sparse-times-dense products materialized by `crates/graph`).
//!
//! ## Design
//!
//! * A [`Tape`] owns a flat vector of nodes; [`Var`] is a `Copy` index into
//!   it. One tape is built per forward pass and dropped afterwards, so
//!   memory stays bounded during training.
//! * Each node records its operation as an explicit [`Op`] variant rather
//!   than a boxed closure; the whole backward pass is a single `match`,
//!   which keeps gradients auditable and the engine allocation-light.
//! * Gradients are validated against central finite differences both in
//!   unit tests and property tests (see [`check::finite_difference_grad`]).
//! * The reverse sweep borrows every node value in place and adds fan-in
//!   gradients into the existing buffer (`existing + delta`, the same
//!   bits as a fresh sum). It forms no gradient for a constant, nor for a
//!   node computed from constants only, and hands each node's gradient to
//!   its rule by value, so elementwise rules reuse the buffer. Only leaf
//!   gradients are kept.
//! * A tape can borrow its inputs for its lifetime instead of owning them
//!   ([`Tape::leaf_ref`], [`Tape::constant_ref`]): model parameters and a
//!   training matrix enter the graph without a copy.
//!
//! ## Ops
//!
//! * Elementwise: `add`, `sub`, `mul`, `div`, `scale`, `add_scalar`,
//!   `neg`, `relu`, `sigmoid`, `tanh`, `exp`, `ln`, `sqrt`, `pow_scalar`,
//!   `square`.
//! * Matrix: `matmul`, `transpose`, `div_col_broadcast`, `apply_left` (a
//!   constant [`LinearOperator`] such as a sparse graph adjacency),
//!   `sq_dist_cdist` (pairwise squared Euclidean distances).
//! * Reductions: `sum`, `mean`, `row_sums`, and the row-wise
//!   `softmax_rows` (its backward runs row-parallel).
//! * Fused clustering head, one node each, bit-identical to the composed
//!   chains they replace and row-parallel on the global pool
//!   ([`tensor::head`]): `soft_assign` (kernel of Eq. 7 plus the row
//!   normalization of Eq. 8), `cross_entropy` and `kl_div` against a
//!   constant target node (Eq. 10), and TableDC's whole head,
//!   `cluster_head` (Eq. 7–11 with the `KL(p‖m)` loss, the target `p`
//!   recomputed from `q` instead of stored).
//! * Fused layer stack, one node each, bit-identical to the composed
//!   chains they replace ([`tensor::layer`]): `linear` (`act(x·W + b)`,
//!   Eq. 1–2) and `mse` (Eq. 12).

pub mod check;
pub mod ops;
mod tape;

pub use ops::LinearOperator;
pub use tape::{ClusterHead, Gradients, Tape, Var};
pub use tensor::layer::Activation;
