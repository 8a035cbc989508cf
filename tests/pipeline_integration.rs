//! Cross-crate integration tests: the full corpus → embedding → clustering
//! → evaluation pipeline for each of the paper's three tasks, at smoke
//! scale.

use clustering::metrics::{accuracy, adjusted_rand_index};
use datagen::corpus::{
    domain_corpus, entity_corpus, schema_corpus, DomainCorpusConfig, EntityCorpusConfig,
    SchemaCorpusConfig,
};
use datagen::{embed_corpus, EmbeddingModel};
use tabledc::{TableDc, TableDcConfig};
use tensor::random::rng;

fn smoke_config(k: usize) -> TableDcConfig {
    TableDcConfig {
        latent_dim: 16,
        hidden_dims: vec![64],
        pretrain_epochs: 30,
        epochs: 20,
        ..TableDcConfig::new(k)
    }
}

#[test]
fn schema_inference_pipeline() {
    let corpus = schema_corpus(
        &SchemaCorpusConfig { n_tables: 60, n_types: 5, ..Default::default() },
        &mut rng(1),
    );
    let x = embed_corpus(&corpus, EmbeddingModel::Sbert, 2);
    let (_, fit) = TableDc::fit(smoke_config(5), &x, &mut rng(3));
    let truth = corpus.labels();
    assert_eq!(fit.labels.len(), 60);
    let ari = adjusted_rand_index(&fit.labels, &truth);
    assert!(ari > 0.15, "schema inference ARI = {ari}");
}

#[test]
fn entity_resolution_pipeline() {
    let corpus = entity_corpus(
        &EntityCorpusConfig { n_entities: 25, dups: (2, 4), noise: 0.4, n_attrs: 4 },
        &mut rng(4),
    );
    let x = embed_corpus(&corpus, EmbeddingModel::Sbert, 5);
    let (_, fit) = TableDc::fit(smoke_config(25), &x, &mut rng(6));
    let truth = corpus.labels();
    let acc = accuracy(&fit.labels, &truth);
    assert!(acc > 0.3, "entity resolution ACC = {acc}");
}

#[test]
fn domain_discovery_pipeline() {
    let corpus = domain_corpus(
        &DomainCorpusConfig { n_columns: 60, n_domains: 6, ..Default::default() },
        &mut rng(7),
    );
    let x = embed_corpus(&corpus, EmbeddingModel::T5, 8);
    let (_, fit) = TableDc::fit(smoke_config(6), &x, &mut rng(9));
    let truth = corpus.labels();
    let ari = adjusted_rand_index(&fit.labels, &truth);
    assert!(ari > 0.15, "domain discovery ARI = {ari}");
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let run = || {
        let corpus = schema_corpus(
            &SchemaCorpusConfig { n_tables: 30, n_types: 3, ..Default::default() },
            &mut rng(10),
        );
        let x = embed_corpus(&corpus, EmbeddingModel::Sbert, 11);
        let (_, fit) = TableDc::fit(smoke_config(3), &x, &mut rng(12));
        fit.labels
    };
    assert_eq!(run(), run());
}

#[test]
fn out_of_sample_prediction_is_consistent() {
    // Train on half the corpus, predict the other half: duplicates of
    // training-set concepts should mostly land in coherent clusters.
    let corpus = domain_corpus(
        &DomainCorpusConfig { n_columns: 80, n_domains: 4, ..Default::default() },
        &mut rng(13),
    );
    let x = embed_corpus(&corpus, EmbeddingModel::Sbert, 14);
    let train_idx: Vec<usize> = (0..40).collect();
    let test_idx: Vec<usize> = (40..80).collect();
    let x_train = x.select_rows(&train_idx);
    let x_test = x.select_rows(&test_idx);
    let (model, _) = TableDc::fit(smoke_config(4), &x_train, &mut rng(15));
    let pred = model.predict(&x_test);
    let truth: Vec<usize> = test_idx.iter().map(|&i| corpus.labels()[i]).collect();
    let ari = adjusted_rand_index(&pred, &truth);
    assert!(ari > 0.1, "out-of-sample ARI = {ari}");
}
