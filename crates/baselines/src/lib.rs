//! # baselines — the methods TableDC is evaluated against
//!
//! Deep-clustering baselines (§4.1.2) reimplemented on the shared
//! `nn`/`graph` substrate — [`sdcn`], [`dfcn`], [`dcrn`], [`edesc`],
//! [`shgp`] — and the bespoke task-specific comparators of §4.7 —
//! [`bespoke::D3l`], [`bespoke::Starmie`], [`bespoke::Jedai`],
//! [`bespoke::D4`]. Standard-clustering baselines (K-means, DBSCAN, Birch)
//! live in `crates/clustering`.
//!
//! Per-method simplifications relative to the reference implementations are
//! documented in DESIGN.md §1; each keeps the original's loss family and
//! architecture shape so the comparison measures the same algorithmic
//! trade-offs the paper measures.

pub mod bespoke;
pub mod common;
pub mod dcrn;
pub mod dfcn;
pub mod edesc;
pub mod sdcn;
pub mod shgp;

pub use bespoke::{D3l, D4, Jedai, JedaiMetric, Starmie};
pub use common::{ClusterOutput, DeepConfig};
pub use dcrn::Dcrn;
pub use dfcn::Dfcn;
pub use edesc::Edesc;
pub use sdcn::Sdcn;
pub use shgp::Shgp;
