//! Integration tests spanning the substrate crates: autograd gradients
//! through graph convolutions, Birch centers feeding TableDC, and metric
//! agreement across the stack.

use autograd::Tape;
use clustering::metrics::{accuracy, adjusted_rand_index, normalized_mutual_info};
use clustering::{Birch, KMeans};
use datagen::{generate_mixture, MixtureConfig};
use graph::{gcn_adjacency, Gcn};
use nn::{Activation, Params};
use std::rc::Rc;
use tabledc::{Init, TableDc, TableDcConfig};
use tensor::random::rng;

#[test]
fn gcn_gradients_flow_through_sparse_adjacency() {
    let g = generate_mixture(
        &MixtureConfig { n: 30, k: 3, dim: 6, ..Default::default() },
        &mut rng(1),
    );
    let adj = Rc::new(gcn_adjacency(&g.x, 3));
    let mut params = Params::new();
    let gcn = Gcn::new(&mut params, &[6, 4], Activation::Linear, &mut rng(2));
    let tape = Tape::new();
    let bound = params.bind(&tape);
    let out = gcn.forward(&bound, &adj, tape.constant(g.x.clone()));
    let loss = tape.mean(tape.square(out));
    let grads = tape.backward(loss);
    for (_, var) in bound.iter() {
        let gm = grads.grad(var);
        assert!(gm.all_finite());
        assert!(gm.frobenius() > 0.0);
    }
}

#[test]
fn birch_centers_improve_tabledc_over_random_on_overlap() {
    // The Figure 4 claim at smoke scale: Birch init should be at least as
    // good as random init on a dense overlapping mixture (allowing a small
    // tolerance for run-to-run noise at this tiny scale).
    let g = generate_mixture(
        &MixtureConfig {
            n: 120,
            k: 6,
            dim: 12,
            separation: 2.0,
            correlation: 0.4,
            normalize: true,
            ..Default::default()
        },
        &mut rng(3),
    );
    let run = |init: Init| {
        let config = TableDcConfig {
            latent_dim: 8,
            hidden_dims: vec![24],
            pretrain_epochs: 10,
            epochs: 20,
            init,
            ..TableDcConfig::new(6)
        };
        let (_, fit) = TableDc::fit(config, &g.x, &mut rng(4));
        adjusted_rand_index(&fit.labels, &g.labels)
    };
    let birch = run(Init::Birch);
    let random = run(Init::Random);
    assert!(birch > random - 0.15, "Birch {birch} vs Random {random}");
}

#[test]
fn metrics_agree_on_method_outputs() {
    // All three metrics must rank a good clustering above a label shuffle.
    let g = generate_mixture(
        &MixtureConfig { n: 90, k: 3, dim: 8, separation: 4.0, ..Default::default() },
        &mut rng(5),
    );
    let km = KMeans::new(3).fit(&g.x, &mut rng(6));
    let shuffled: Vec<usize> = (0..90).map(|i| i % 3).collect();
    assert!(accuracy(&km.labels, &g.labels) > accuracy(&shuffled, &g.labels));
    assert!(
        adjusted_rand_index(&km.labels, &g.labels) > adjusted_rand_index(&shuffled, &g.labels)
    );
    assert!(
        normalized_mutual_info(&km.labels, &g.labels)
            > normalized_mutual_info(&shuffled, &g.labels)
    );
}

#[test]
fn birch_and_kmeans_agree_on_separated_data() {
    let g = generate_mixture(
        &MixtureConfig { n: 100, k: 4, dim: 6, separation: 6.0, ..Default::default() },
        &mut rng(7),
    );
    let b = Birch::new(4).fit(&g.x, &mut rng(8));
    let k = KMeans::new(4).fit(&g.x, &mut rng(9));
    // On clean data both recover the truth, hence agree with each other.
    let agreement = adjusted_rand_index(&b.labels, &k.labels);
    assert!(agreement > 0.9, "Birch/K-means agreement = {agreement}");
}

#[test]
fn tabledc_handles_entity_resolution_shape() {
    // Many small clusters (the MusicBrainz regime): K close to n/3.
    let g = datagen::scalability_workload(30, 12, &mut rng(10));
    let config = TableDcConfig {
        latent_dim: 8,
        hidden_dims: vec![24],
        pretrain_epochs: 15,
        epochs: 15,
        ..TableDcConfig::new(30)
    };
    let (_, fit) = TableDc::fit(config, &g.x, &mut rng(11));
    let acc = accuracy(&fit.labels, &g.labels);
    assert!(acc > 0.5, "many-cluster ACC = {acc}");
    // Should not collapse everything into a handful of clusters.
    assert!(fit.clusters_used > 15, "only {} clusters used", fit.clusters_used);
}
