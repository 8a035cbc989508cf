//! Golden-fit fingerprint of a deep baseline: the bits of a small DFCN fit,
//! pinned. DFCN trains through `nn::Linear` layers, a GCN, a gated fusion
//! and two MSE terms (the autoencoder's reconstruction of the input and the
//! decoded GCN view against the smoothed input `Â·X`), so this covers the
//! training layer stack beyond TableDC's own fit. A deliberate change of
//! the arithmetic must re-record the hash and say why.

use baselines::{DeepConfig, Dfcn};
use datagen::{generate_mixture, MixtureConfig};
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

#[test]
fn dfcn_fit_matches_recorded_fingerprint() {
    let data = generate_mixture(
        &MixtureConfig { n: 90, k: 3, dim: 12, separation: 3.0, ..Default::default() },
        &mut rng(5),
    );
    let config = DeepConfig { latent_dim: 6, pretrain_epochs: 3, epochs: 6, ..Default::default() };
    let out = Dfcn::new(config).fit(&data.x, 3, &mut rng(6));
    assert_eq!((out.re_loss.len(), out.kl_pq.len()), (6, 6));

    let mut words: Vec<u64> = out.labels.iter().map(|&l| l as u64).collect();
    words.extend(out.re_loss.iter().chain(&out.kl_pq).map(|v| v.to_bits()));
    let hash = fnv1a(words);
    assert_eq!(hash, 0xa998_c0d6_672b_73b6, "DFCN fit fingerprint changed: {hash:#018x}");
}
