//! Synthetic tabular corpora for the three data-integration tasks.
//!
//! Each generator produces raw *textual* objects (tables, records, or
//! columns) with ground-truth cluster structure, mirroring the benchmark
//! datasets of Table 1:
//!
//! * **Schema inference** — tables drawn from latent schema *types*; tables
//!   of the same type share (noisy subsets of) attribute names, as in web
//!   tables / TUS.
//! * **Entity resolution** — entity records duplicated across 2–5 sources
//!   with typos/abbreviations/reorderings, as in MusicBrainz / GeoSet.
//! * **Domain discovery** — columns whose values are drawn from latent
//!   semantic *domains* with heterogeneous headers, as in Di2KG
//!   Camera / Monitor.

use rand::rngs::StdRng;
use rand::Rng;

use crate::mixture::SizeDistribution;
use crate::text::{perturb_value, pseudo_phrase, pseudo_word};

/// A textual object to be embedded, with its ground-truth cluster.
#[derive(Debug, Clone)]
pub struct TextItem {
    /// Concatenated text of the object (headers, values, …).
    pub text: String,
    /// Ground-truth cluster (schema type / entity id / domain id).
    pub label: usize,
}

/// A corpus of text items for one task.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The items, in generation order.
    pub items: Vec<TextItem>,
    /// Number of ground-truth clusters.
    pub k: usize,
}

impl Corpus {
    /// Ground-truth labels in item order.
    pub fn labels(&self) -> Vec<usize> {
        self.items.iter().map(|i| i.label).collect()
    }

    /// Item texts in order.
    pub fn texts(&self) -> Vec<&str> {
        self.items.iter().map(|i| i.text.as_str()).collect()
    }
}

/// Configuration for a schema-inference corpus.
#[derive(Debug, Clone)]
pub struct SchemaCorpusConfig {
    /// Number of tables.
    pub n_tables: usize,
    /// Number of latent schema types (= clusters).
    pub n_types: usize,
    /// Attributes per schema type.
    pub attrs_per_type: usize,
    /// Fraction of a type's attributes a table actually exhibits.
    pub attr_coverage: f64,
    /// Fraction of attribute names shared *across* types (the ambiguous
    /// `rank, title, year` overlap of §4.4 observation iv).
    pub shared_attr_fraction: f64,
    /// Whether to append sampled instance values to the table text
    /// (instance-level representations, marked `*` in Table 2).
    pub include_instances: bool,
    /// Cluster-size skew (web-table corpora are Zipf-ish).
    pub sizes: SizeDistribution,
}

impl Default for SchemaCorpusConfig {
    fn default() -> Self {
        Self {
            n_tables: 200,
            n_types: 10,
            attrs_per_type: 6,
            attr_coverage: 0.8,
            shared_attr_fraction: 0.3,
            include_instances: false,
            sizes: SizeDistribution::Zipf(1.1),
        }
    }
}

/// Generates a schema-inference corpus: each item is one table's header
/// text (optionally with instance rows).
pub fn schema_corpus(cfg: &SchemaCorpusConfig, rng: &mut StdRng) -> Corpus {
    // A global pool of attribute names, some shared across types.
    let shared_pool: Vec<String> =
        (0..cfg.attrs_per_type * 2).map(|_| pseudo_phrase(1, rng)).collect();
    // Per-type attribute lists.
    let type_attrs: Vec<Vec<String>> = (0..cfg.n_types)
        .map(|_| {
            (0..cfg.attrs_per_type)
                .map(|_| {
                    if rng.gen::<f64>() < cfg.shared_attr_fraction {
                        shared_pool[rng.gen_range(0..shared_pool.len())].clone()
                    } else {
                        pseudo_phrase(1, rng)
                    }
                })
                .collect()
        })
        .collect();
    // Per-type instance vocabularies (for instance-level text).
    let type_vocab: Vec<Vec<String>> = (0..cfg.n_types)
        .map(|_| (0..20).map(|_| pseudo_word(rng.gen_range(2..4), rng)).collect())
        .collect();

    let sizes = super::mixture::draw_sizes(
        &crate::mixture::MixtureConfig {
            n: cfg.n_tables,
            k: cfg.n_types,
            sizes: cfg.sizes,
            ..Default::default()
        },
        rng,
    );

    let mut items = Vec::new();
    for (ty, &count) in sizes.iter().enumerate() {
        for _ in 0..count {
            let mut parts: Vec<String> = Vec::new();
            for attr in &type_attrs[ty] {
                if rng.gen::<f64>() < cfg.attr_coverage {
                    parts.push(perturb_value(attr, 0.2, rng));
                }
            }
            if parts.is_empty() {
                parts.push(type_attrs[ty][0].clone());
            }
            if cfg.include_instances {
                for _ in 0..5 {
                    let vocab = &type_vocab[ty];
                    parts.push(vocab[rng.gen_range(0..vocab.len())].clone());
                }
            }
            items.push(TextItem { text: parts.join(" "), label: ty });
        }
    }
    Corpus { items, k: cfg.n_types }
}

/// Configuration for an entity-resolution corpus.
#[derive(Debug, Clone)]
pub struct EntityCorpusConfig {
    /// Number of distinct real-world entities (= clusters).
    pub n_entities: usize,
    /// Duplicate records per entity: uniform in this range (MusicBrainz
    /// spreads records over 2–5 sources, §4.1.1).
    pub dups: (usize, usize),
    /// Perturbation strength applied per duplicated field.
    pub noise: f64,
    /// Number of textual attributes per record.
    pub n_attrs: usize,
}

impl Default for EntityCorpusConfig {
    fn default() -> Self {
        Self { n_entities: 100, dups: (2, 5), noise: 0.5, n_attrs: 4 }
    }
}

/// Generates an entity-resolution corpus: each item is one record's
/// attribute text; records of the same entity are noisy copies.
pub fn entity_corpus(cfg: &EntityCorpusConfig, rng: &mut StdRng) -> Corpus {
    let mut items = Vec::new();
    for e in 0..cfg.n_entities {
        // Canonical record: a name phrase plus attribute values.
        let canonical: Vec<String> = (0..cfg.n_attrs)
            .map(|a| if a == 0 { pseudo_phrase(2, rng) } else { pseudo_phrase(1, rng) })
            .collect();
        let n_dups = rng.gen_range(cfg.dups.0..=cfg.dups.1);
        for _ in 0..n_dups {
            let fields: Vec<String> =
                canonical.iter().map(|f| perturb_value(f, cfg.noise, rng)).collect();
            items.push(TextItem { text: fields.join(" "), label: e });
        }
    }
    Corpus { items, k: cfg.n_entities }
}

/// Configuration for a domain-discovery corpus.
#[derive(Debug, Clone)]
pub struct DomainCorpusConfig {
    /// Number of columns.
    pub n_columns: usize,
    /// Number of latent semantic domains (= clusters).
    pub n_domains: usize,
    /// Vocabulary size per domain.
    pub vocab_size: usize,
    /// Values sampled per column (column lengths vary in Di2KG, §4.6 iv).
    pub values_per_column: (usize, usize),
    /// Whether to prepend a (heterogeneous) header to the column text.
    pub include_headers: bool,
    /// Fraction of vocabulary shared between domains (`lcd display` vs
    /// `monitor` style overlap).
    pub vocab_overlap: f64,
}

impl Default for DomainCorpusConfig {
    fn default() -> Self {
        Self {
            n_columns: 300,
            n_domains: 12,
            vocab_size: 30,
            values_per_column: (3, 12),
            include_headers: false,
            vocab_overlap: 0.2,
        }
    }
}

/// Generates a domain-discovery corpus: each item is one column's sampled
/// values (optionally with a header token).
pub fn domain_corpus(cfg: &DomainCorpusConfig, rng: &mut StdRng) -> Corpus {
    let shared: Vec<String> =
        (0..cfg.vocab_size).map(|_| pseudo_word(rng.gen_range(2..4), rng)).collect();
    let domains: Vec<(String, Vec<String>)> = (0..cfg.n_domains)
        .map(|_| {
            let header = pseudo_phrase(rng.gen_range(1..=2), rng);
            let vocab: Vec<String> = (0..cfg.vocab_size)
                .map(|_| {
                    if rng.gen::<f64>() < cfg.vocab_overlap {
                        shared[rng.gen_range(0..shared.len())].clone()
                    } else {
                        pseudo_word(rng.gen_range(2..4), rng)
                    }
                })
                .collect();
            (header, vocab)
        })
        .collect();

    let mut items = Vec::new();
    for c in 0..cfg.n_columns {
        let d = c % cfg.n_domains;
        let (header, vocab) = &domains[d];
        let n_vals = rng.gen_range(cfg.values_per_column.0..=cfg.values_per_column.1);
        let mut parts: Vec<String> = Vec::new();
        if cfg.include_headers {
            // Headers are syntactically heterogeneous across sources.
            parts.push(perturb_value(header, 0.4, rng));
        }
        for _ in 0..n_vals {
            parts.push(perturb_value(&vocab[rng.gen_range(0..vocab.len())], 0.2, rng));
        }
        items.push(TextItem { text: parts.join(" "), label: d });
    }
    Corpus { items, k: cfg.n_domains }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::random::rng;

    #[test]
    fn schema_corpus_has_expected_counts() {
        let cfg = SchemaCorpusConfig { n_tables: 50, n_types: 5, ..Default::default() };
        let c = schema_corpus(&cfg, &mut rng(1));
        assert_eq!(c.items.len(), 50);
        assert_eq!(c.k, 5);
        assert!(c.labels().iter().all(|&l| l < 5));
        assert!(c.items.iter().all(|i| !i.text.is_empty()));
    }

    #[test]
    fn same_type_tables_share_vocabulary() {
        let cfg = SchemaCorpusConfig {
            n_tables: 40,
            n_types: 4,
            shared_attr_fraction: 0.0,
            attr_coverage: 1.0,
            ..Default::default()
        };
        let c = schema_corpus(&cfg, &mut rng(2));
        // Token overlap within a type should exceed overlap across types.
        let token_set = |s: &str| -> std::collections::HashSet<String> {
            s.split_whitespace().map(str::to_string).collect()
        };
        let mut within = Vec::new();
        let mut across = Vec::new();
        for i in 0..c.items.len() {
            for j in (i + 1)..c.items.len() {
                let a = token_set(&c.items[i].text);
                let b = token_set(&c.items[j].text);
                let inter = a.intersection(&b).count() as f64;
                let union = a.union(&b).count() as f64;
                let jac = inter / union;
                if c.items[i].label == c.items[j].label {
                    within.push(jac);
                } else {
                    across.push(jac);
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&within) > mean(&across) + 0.2);
    }

    #[test]
    fn entity_corpus_duplicate_counts_in_range() {
        let cfg = EntityCorpusConfig { n_entities: 30, dups: (2, 5), ..Default::default() };
        let c = entity_corpus(&cfg, &mut rng(3));
        let mut counts = vec![0usize; 30];
        for &l in &c.labels() {
            counts[l] += 1;
        }
        assert!(counts.iter().all(|&n| (2..=5).contains(&n)));
        assert_eq!(c.k, 30);
    }

    #[test]
    fn entity_duplicates_resemble_each_other() {
        let cfg = EntityCorpusConfig { n_entities: 10, noise: 0.3, ..Default::default() };
        let c = entity_corpus(&cfg, &mut rng(4));
        // Duplicates of entity 0 share a long common prefix structure more
        // often than records of different entities share tokens.
        let zero: Vec<&TextItem> = c.items.iter().filter(|i| i.label == 0).collect();
        assert!(zero.len() >= 2);
        let a = &zero[0].text;
        let b = &zero[1].text;
        let common = a.split_whitespace().filter(|t| b.contains(*t)).count();
        assert!(common >= 1, "duplicates should share tokens: {a:?} vs {b:?}");
    }

    #[test]
    fn domain_corpus_labels_cycle_over_domains() {
        let cfg = DomainCorpusConfig { n_columns: 24, n_domains: 6, ..Default::default() };
        let c = domain_corpus(&cfg, &mut rng(5));
        assert_eq!(c.items.len(), 24);
        let mut counts = [0usize; 6];
        for &l in &c.labels() {
            counts[l] += 1;
        }
        assert!(counts.iter().all(|&n| n == 4));
    }

    #[test]
    fn corpora_are_deterministic_under_seed() {
        let cfg = DomainCorpusConfig::default();
        let a = domain_corpus(&cfg, &mut rng(9));
        let b = domain_corpus(&cfg, &mut rng(9));
        assert_eq!(a.items.len(), b.items.len());
        assert!(a.items.iter().zip(&b.items).all(|(x, y)| x.text == y.text));
    }
}
