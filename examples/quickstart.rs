//! Quickstart: cluster a dense, overlapping synthetic embedding matrix
//! with TableDC and compare against K-means.
//!
//! ```sh
//! cargo run --release -p bench --example quickstart
//! ```
//!
//! With `TABLEDC_TRACE=stderr` (or a file path) the run also emits
//! per-epoch JSON-lines events and ends with one pool line (threads,
//! blocks run, busy time) plus the hierarchical span tree.
//! `TABLEDC_PROFILE=alloc` adds attributed allocation columns;
//! `TABLEDC_FOLDED=<path>` writes the tree in folded-stack format for
//! flamegraph tooling.

use bench::ledger::{ConvergenceSummary, HealthSummary, RunManifest};
use clustering::metrics::{accuracy, adjusted_rand_index, normalized_mutual_info};
use clustering::KMeans;
use datagen::{generate_mixture, MixtureConfig};
use tabledc::{TableDc, TableDcConfig};
use tensor::random::rng;

fn main() {
    // Open the manifest shell first so every trace event of the run is
    // stamped with the manifest's run id.
    let mut manifest = RunManifest::new("quickstart");
    obs::set_run_id(&manifest.run_id);

    // A workload with the geometry the paper targets: dense rows on the
    // unit sphere, correlated features, overlapping clusters.
    let data = generate_mixture(
        &MixtureConfig {
            n: 400,
            k: 8,
            dim: 32,
            separation: 2.2,   // heavy overlap
            correlation: 0.5,  // correlated dimensions
            normalize: true,   // dense sphere geometry
            ..Default::default()
        },
        &mut rng(7),
    );
    println!("workload: n={}, k={}, dim={}", data.n(), data.k(), data.x.cols());

    // K-means baseline.
    let km = KMeans::paper_protocol(8).fit(&data.x, &mut rng(1));
    println!(
        "K-means  ARI {:.3}  ACC {:.3}",
        adjusted_rand_index(&km.labels, &data.labels),
        accuracy(&km.labels, &data.labels)
    );

    // TableDC: autoencoder + Birch init + Mahalanobis/Cauchy self-
    // supervision (paper defaults). The fit seed is recorded in the health
    // config so a strict-policy diagnostic dump can name it.
    let seed = 2;
    let mut config = TableDcConfig { epochs: 80, pretrain_epochs: 30, ..TableDcConfig::new(8) };
    config.health.run_seed = Some(seed);
    let (model, fit) = TableDc::fit(config, &data.x, &mut rng(seed));
    println!(
        "TableDC  ARI {:.3}  ACC {:.3}  (clusters used: {})",
        adjusted_rand_index(&fit.labels, &data.labels),
        accuracy(&fit.labels, &data.labels),
        fit.clusters_used
    );
    println!("health: {} ({} violations)", fit.health.verdict.as_str(), fit.health.total_violations);
    println!(
        "convergence: {}{} — {}",
        fit.convergence.status.as_str(),
        fit.convergence.epoch.map_or(String::new(), |e| format!(" at epoch {e}")),
        fit.convergence.rule
    );

    // Persist the run into the ledger (`runs list` / `runs diff` /
    // `report`).
    manifest.seed = seed;
    manifest.scale = "quickstart".to_string();
    manifest.health = HealthSummary::from_report(&fit.health);
    manifest.convergence = Some(ConvergenceSummary::from_verdict(&fit.convergence));
    manifest.metrics = vec![
        ("tabledc/ari".to_string(), adjusted_rand_index(&fit.labels, &data.labels)),
        ("tabledc/acc".to_string(), accuracy(&fit.labels, &data.labels)),
        ("tabledc/nmi".to_string(), normalized_mutual_info(&fit.labels, &data.labels)),
        ("kmeans/ari".to_string(), adjusted_rand_index(&km.labels, &data.labels)),
        ("kmeans/acc".to_string(), accuracy(&km.labels, &data.labels)),
        ("kmeans/nmi".to_string(), normalized_mutual_info(&km.labels, &data.labels)),
    ];
    manifest.history = fit.history;
    match manifest.write() {
        Ok(path) => println!("run manifest: {path}"),
        Err(e) => eprintln!("failed to write run manifest: {e}"),
    }

    // The model supports out-of-sample assignment.
    let fresh = generate_mixture(
        &MixtureConfig { n: 10, k: 8, dim: 32, normalize: true, ..Default::default() },
        &mut rng(3),
    );
    let assigned = model.predict(&fresh.x);
    println!("predicted clusters for 10 new rows: {assigned:?}");

    if obs::enabled() {
        eprintln!("{}", runtime::global().stats());
        eprintln!("{}", obs::profile::report());
    }
    if let Some(folded_path) = obs::profile::write_folded_if_requested() {
        eprintln!("# wrote folded stacks to {folded_path}");
    }
}
