//! Behavioural regression tests of the paper's headline claims, at smoke
//! scale with deliberately loose margins. These are the "shape" checks of
//! DESIGN.md §4: who wins, not by how much.

use bench::experiments::{figures, RunOptions};
use clustering::metrics::adjusted_rand_index;
use clustering::KMeans;
use datagen::{generate_mixture, MixtureConfig};
use tabledc::{Distance, Kernel, TableDc, TableDcConfig};
use tensor::random::rng;

fn dense_overlap_workload(seed: u64) -> datagen::Generated {
    generate_mixture(
        &MixtureConfig {
            n: 150,
            k: 5,
            dim: 16,
            separation: 2.0,
            correlation: 0.5,
            normalize: true,
            ..Default::default()
        },
        &mut rng(seed),
    )
}

fn smoke(k: usize) -> TableDcConfig {
    TableDcConfig {
        latent_dim: 8,
        hidden_dims: vec![32],
        pretrain_epochs: 15,
        epochs: 30,
        ..TableDcConfig::new(k)
    }
}

/// Headline: deep clustering with TableDC beats plain K-means on dense,
/// overlapping, correlated embeddings (Tables 2–4 in aggregate).
#[test]
fn tabledc_beats_kmeans_on_dense_overlap() {
    let mut wins = 0;
    for seed in [1u64, 2, 3] {
        let g = dense_overlap_workload(seed);
        let km = KMeans::paper_protocol(5).fit(&g.x, &mut rng(seed + 10));
        let (_, fit) = TableDc::fit(smoke(5), &g.x, &mut rng(seed + 20));
        let km_ari = adjusted_rand_index(&km.labels, &g.labels);
        let dc_ari = adjusted_rand_index(&fit.labels, &g.labels);
        if dc_ari >= km_ari - 0.02 {
            wins += 1;
        }
    }
    assert!(wins >= 2, "TableDC matched/beat K-means on only {wins}/3 seeds");
}

/// Table 5 shape: the Mahalanobis+Cauchy default should not lose clearly
/// to the Normal-kernel variant on overlapping data (the Normal kernel's
/// thin tail is the paper's failure case).
#[test]
fn cauchy_kernel_not_worse_than_normal_on_overlap() {
    let g = dense_overlap_workload(7);
    let run = |kernel: Kernel| {
        let config = TableDcConfig { kernel, ..smoke(5) };
        let (_, fit) = TableDc::fit(config, &g.x, &mut rng(8));
        adjusted_rand_index(&fit.labels, &g.labels)
    };
    let cauchy = run(Kernel::PAPER);
    let normal = run(Kernel::Normal { sigma: 1.0 });
    assert!(cauchy > normal - 0.1, "Cauchy {cauchy} vs Normal {normal}");
}

/// Table 5 shape: the scaled-identity Mahalanobis default should not lose
/// clearly to the plain Euclidean variant.
#[test]
fn mahalanobis_not_worse_than_euclidean_on_overlap() {
    let g = dense_overlap_workload(9);
    let run = |distance: Distance| {
        let config = TableDcConfig { distance, ..smoke(5) };
        let (_, fit) = TableDc::fit(config, &g.x, &mut rng(10));
        adjusted_rand_index(&fit.labels, &g.labels)
    };
    let mahalanobis = run(Distance::PAPER);
    let euclidean = run(Distance::Euclidean);
    assert!(
        mahalanobis > euclidean - 0.1,
        "Mahalanobis {mahalanobis} vs Euclidean {euclidean}"
    );
}

/// Figure 3 shape: TableDC's runtime must not blow up faster than SDCN's
/// as the number of clusters grows (quasi-linear vs GCN-quadratic claim).
#[test]
#[cfg_attr(debug_assertions, ignore = "timing-based; run with --release")]
fn tabledc_scales_no_worse_than_sdcn() {
    let opts = RunOptions { epoch_factor: 0.2, ..RunOptions::quick() };
    let result = figures::fig3(opts, &[15, 60]);
    let tabledc = result.growth_factor("TableDC");
    let sdcn = result.growth_factor("SDCN");
    assert!(
        tabledc <= sdcn * 2.0,
        "TableDC growth {tabledc} vs SDCN growth {sdcn}"
    );
}
