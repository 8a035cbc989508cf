//! Golden-fit fingerprint: the bits of a small TableDC fit, pinned.
//!
//! Training is deterministic and bit-identical across thread counts, so a
//! fixed-seed fit always produces the same labels, `q`, `m` and per-epoch
//! history. This test hashes those bits and compares against a recorded
//! value, so a change that claims to keep fits bit-identical (a fused op,
//! a borrowed buffer, a parallel loop) is checked by `cargo test`, not only
//! by the benchmark's ARI. A deliberate change of the arithmetic must
//! re-record the hash and say why.

use datagen::{generate_mixture, MixtureConfig};
use obs::health::Policy;
use tabledc::{HealthConfig, TableDc, TableDcConfig};
use tensor::random::rng;

/// FNV-1a over a stream of 64-bit words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn bits(values: &[f64]) -> impl Iterator<Item = u64> + '_ {
    values.iter().map(|v| v.to_bits())
}

#[test]
fn tabledc_fit_matches_recorded_fingerprint() {
    let data = generate_mixture(
        &MixtureConfig { n: 150, k: 4, dim: 16, separation: 3.0, ..Default::default() },
        &mut rng(7),
    );
    let config = TableDcConfig {
        latent_dim: 8,
        hidden_dims: vec![32, 16],
        pretrain_epochs: 4,
        epochs: 8,
        health: HealthConfig { policy: Some(Policy::Warn), ..HealthConfig::default() },
        ..TableDcConfig::new(4)
    };
    let (_, fit) = TableDc::fit(config, &data.x, &mut rng(11));

    let mut words: Vec<u64> = fit.labels.iter().map(|&l| l as u64).collect();
    words.extend(bits(fit.q.as_slice()));
    words.extend(bits(fit.m.as_slice()));
    // Every series but the wall-clock `epoch_ms`.
    for (name, series) in fit.history.series() {
        if name != "epoch_ms" {
            assert_eq!(series.len(), 8, "{name}");
            words.extend(bits(series));
        }
    }
    let hash = fnv1a(words);
    assert_eq!(hash, 0x9d8f_1a74_f111_7ac1, "TableDC fit fingerprint changed: {hash:#018x}");
}
