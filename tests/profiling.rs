//! Integration tests for the hierarchical profiler: a real (tiny)
//! `TableDc::fit` run must produce a span tree where `tabledc.fit` is an
//! ancestor of the k-means and matmul kernels, exportable in folded-stack
//! format, and — with allocation tracking on — carry attributed bytes.
//!
//! These run in their own test binary (own process) so the global span
//! tree reflects only this file's fits plus whatever the harness itself
//! allocates; every assertion is existence-based, never exact-count, so
//! intra-binary test parallelism cannot flake them. Each test body runs
//! under `with_sink_disabled`, which both serializes tests touching the
//! global tree and keeps span events out of any trace sink.

use tabledc::{TableDc, TableDcConfig};
use tensor::random::{randn, rng};

fn tiny_fit(seed: u64) {
    let dim = 12;
    let config = TableDcConfig {
        latent_dim: 8,
        hidden_dims: vec![16],
        pretrain_epochs: 2,
        epochs: 2,
        ..TableDcConfig::new(3)
    };
    let x = randn(40, dim, &mut rng(seed));
    let (_, fit) = TableDc::fit(config, &x, &mut rng(seed + 1));
    assert_eq!(fit.labels.len(), 40);
}

#[test]
fn fit_span_is_ancestor_of_kmeans_and_matmul_in_folded_output() {
    obs::test_support::with_sink_disabled(|| {
        obs::profile::reset();
        tiny_fit(11);

        let folded = obs::folded();
        assert!(!folded.is_empty(), "folded output empty after a traced fit");
        let fit_lines: Vec<&str> =
            folded.lines().filter(|l| l.starts_with("tabledc.fit")).collect();
        assert!(
            !fit_lines.is_empty(),
            "no folded line rooted at tabledc.fit:\n{folded}"
        );
        // Every folded line is `path;to;node self_us` — numeric tail.
        for line in folded.lines() {
            let (_, us) = line.rsplit_once(' ').expect("folded line has a value");
            us.parse::<u64>().unwrap_or_else(|_| panic!("non-numeric self time in {line:?}"));
        }
        assert!(
            fit_lines.iter().any(|l| l.contains(";kmeans.")),
            "tabledc.fit has no kmeans descendant:\n{folded}"
        );
        assert!(
            fit_lines.iter().any(|l| l.contains(";tensor.matmul")),
            "tabledc.fit has no tensor.matmul descendant \
             (span context not crossing the pool?):\n{folded}"
        );
        // The same ancestry must hold in the structured snapshot.
        let snap = obs::profile::snapshot();
        let fit = snap
            .iter()
            .find(|n| n.name == "tabledc.fit")
            .expect("tabledc.fit node in snapshot");
        assert_eq!(fit.depth, 0, "tabledc.fit should be a root span");
        assert!(fit.calls >= 1);
        assert!(fit.total_ms > 0.0);
    });
}

#[test]
fn alloc_tracking_attributes_bytes_to_fit_and_pretrain() {
    obs::test_support::with_sink_disabled(|| {
        obs::profile::reset();
        obs::profile::set_alloc_tracking(true);
        tiny_fit(17);
        obs::profile::set_alloc_tracking(false);

        let snap = obs::profile::snapshot();
        let subtree_bytes = |root: &str| -> u64 {
            snap.iter()
                .filter(|n| n.path == root || n.path.starts_with(&format!("{root};")))
                .map(|n| n.alloc_bytes)
                .sum()
        };
        let fit_bytes = subtree_bytes("tabledc.fit");
        assert!(fit_bytes > 0, "no bytes attributed under tabledc.fit");
        let pretrain = snap
            .iter()
            .find(|n| n.name == "ae.pretrain")
            .expect("ae.pretrain node in snapshot");
        assert!(
            pretrain.alloc_bytes > 0,
            "ae.pretrain attributed no bytes (allocator hook inactive?)"
        );
        assert!(pretrain.allocs > 0);
        // The aggregate view perfdiff consumes must agree.
        let agg = obs::profile::aggregate();
        assert!(agg["ae.pretrain"].alloc_bytes > 0);
        assert!(agg["tabledc.fit"].calls >= 1);
    });
}
