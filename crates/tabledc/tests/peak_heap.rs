//! Peak heap of TableDC's joint epochs at a shape where the `n×k`
//! clustering head dominates: `n = 600` rows, `k = 300` clusters and a
//! tiny autoencoder. The epochs may peak at most 8 `n×k` matrices above a
//! fit without joint epochs. The head's node keeps `d²`, `q` and the
//! kernel values `u`, its backward adds `∂d²`, and the driver holds the
//! previous epoch's `q`; the rest is room for the loss pass's term buffer.
//! A head that stores `m`, the target `p`, a copy of `p` and an `n×k`
//! buffer per loss sum peaks at about 8.1 above.
//!
//! The allocation tracker's live-heap gauge is process-wide, so this test
//! has its own binary and nothing runs beside it.

use datagen::{generate_mixture, MixtureConfig};
use obs::health::Policy;
use tabledc::{HealthConfig, TableDc, TableDcConfig};
use tensor::random::rng;
use tensor::Matrix;

const N: usize = 600;
const K: usize = 300;

/// Peak live-heap growth, in bytes, of a fit with `epochs` joint epochs,
/// over the live heap just before it.
fn fit_peak(x: &Matrix, epochs: usize) -> u64 {
    let config = TableDcConfig {
        latent_dim: 4,
        hidden_dims: vec![16],
        pretrain_epochs: 2,
        epochs,
        health: HealthConfig { policy: Some(Policy::Warn), ..HealthConfig::default() },
        ..TableDcConfig::new(K)
    };
    // Sets the peak gauge to the live heap.
    obs::profile::reset();
    let before = obs::alloc::peak_bytes();
    let fitted = TableDc::fit(config, x, &mut rng(2));
    drop(fitted);
    obs::alloc::peak_bytes() - before
}

#[test]
fn joint_epochs_hold_at_most_eight_nk_matrices_beyond_the_fit_without_them() {
    obs::profile::set_alloc_tracking(true);
    let x = generate_mixture(&MixtureConfig { n: N, k: 12, dim: 8, ..Default::default() }, &mut rng(1)).x;
    let nk = (N * K * std::mem::size_of::<f64>()) as u64;
    let baseline = fit_peak(&x, 0);
    let trained = fit_peak(&x, 3);
    obs::profile::set_alloc_tracking(false);
    let ratio = |bytes: u64| bytes as f64 / nk as f64;
    eprintln!(
        "peak heap: {:.2} n×k without joint epochs, {:.2} n×k with 3 ({} and {} bytes)",
        ratio(baseline),
        ratio(trained),
        baseline,
        trained
    );
    assert!(
        trained <= baseline + 8 * nk,
        "3 joint epochs peak at {:.2} n×k matrices beyond the fit without them (limit 8)",
        ratio(trained) - ratio(baseline)
    );
}
