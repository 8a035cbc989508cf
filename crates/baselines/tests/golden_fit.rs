//! Golden-fit fingerprints of the deep baselines: the bits of small SDCN,
//! DFCN, DCRN and EDESC fits, pinned. Between them they train through
//! `nn::Linear` layers, GCNs with autoencoder injection, a gated fusion,
//! feature-dropout views with a correlation-reduction loss, learned
//! subspace bases and several MSE terms, so these cover the training layer
//! stack and the shared epoch driver beyond TableDC's own fit. A deliberate
//! change of the arithmetic must re-record the hashes and say why.

use baselines::{ClusterOutput, Dcrn, DeepConfig, Dfcn, Edesc, Sdcn};
use datagen::{generate_mixture, Generated, MixtureConfig};
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

/// The tiny mixture every fingerprint fits: 90 rows, 12 columns, 3 clusters.
fn mixture() -> Generated {
    generate_mixture(
        &MixtureConfig { n: 90, k: 3, dim: 12, separation: 3.0, ..Default::default() },
        &mut rng(5),
    )
}

fn config() -> DeepConfig {
    DeepConfig { latent_dim: 6, pretrain_epochs: 3, epochs: 6, ..Default::default() }
}

/// FNV-1a over the labels, then every `re_loss` and `kl_pq` value's bits.
fn fingerprint(out: &ClusterOutput) -> u64 {
    assert_eq!((out.re_loss.len(), out.kl_pq.len()), (6, 6));
    let mut words: Vec<u64> = out.labels.iter().map(|&l| l as u64).collect();
    words.extend(out.re_loss.iter().chain(&out.kl_pq).map(|v| v.to_bits()));
    fnv1a(words)
}

#[test]
fn dfcn_fit_matches_recorded_fingerprint() {
    let hash = fingerprint(&Dfcn::new(config()).fit(&mixture().x, 3, &mut rng(6)));
    assert_eq!(hash, 0xa998_c0d6_672b_73b6, "DFCN fit fingerprint changed: {hash:#018x}");
}

#[test]
fn sdcn_fit_matches_recorded_fingerprint() {
    let hash = fingerprint(&Sdcn::new(config()).fit(&mixture().x, 3, &mut rng(6)));
    assert_eq!(hash, 0x6dac_1133_37ee_b056, "SDCN fit fingerprint changed: {hash:#018x}");
}

#[test]
fn dcrn_fit_matches_recorded_fingerprint() {
    let hash = fingerprint(&Dcrn::new(config()).fit(&mixture().x, 3, &mut rng(6)));
    assert_eq!(hash, 0x8965_4bf3_ac66_527a, "DCRN fit fingerprint changed: {hash:#018x}");
}

#[test]
fn edesc_fit_matches_recorded_fingerprint() {
    let hash = fingerprint(&Edesc::new(config()).fit(&mixture().x, 3, &mut rng(6)));
    assert_eq!(hash, 0x0dee_5557_d1f6_c880, "EDESC fit fingerprint changed: {hash:#018x}");
}
