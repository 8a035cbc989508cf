//! Bespoke (task-specific) comparators of §4.7: D3L and Starmie for schema
//! inference, JedAI for entity resolution, D4 and Starmie for domain
//! discovery.
//!
//! Unlike the deep baselines, these operate on the *raw text* of tables,
//! records, or columns — the same corpora the embedding simulators consume
//! — using purely syntactic evidence, so they genuinely cannot see the
//! ground-truth concepts. Each is a compact reimplementation of the
//! published method's core mechanism (DESIGN.md §1).

use std::collections::{HashMap, HashSet};

use nn::loss::nt_xent;
use nn::{Activation, Adam, Mlp, Params};
use rand::rngs::StdRng;
use rand::Rng;
use tensor::Matrix;

use crate::common::{train_step, ClusterOutput};
use clustering::{connected_components, KMeans};

/// Lowercased whitespace token set of a text.
fn token_set(text: &str) -> HashSet<String> {
    text.split_whitespace().map(|t| t.to_lowercase()).collect()
}

/// Jaccard similarity of two token sets.
fn jaccard(a: &HashSet<String>, b: &HashSet<String>) -> f64 {
    let inter = a.intersection(b).count() as f64;
    let union = (a.len() + b.len()) as f64 - inter;
    if union == 0.0 {
        0.0
    } else {
        inter / union
    }
}

/// Dice coefficient of two token sets.
fn dice(a: &HashSet<String>, b: &HashSet<String>) -> f64 {
    let inter = a.intersection(b).count() as f64;
    let total = (a.len() + b.len()) as f64;
    if total == 0.0 {
        0.0
    } else {
        2.0 * inter / total
    }
}

/// Set-cosine similarity (intersection over geometric mean of sizes).
fn set_cosine(a: &HashSet<String>, b: &HashSet<String>) -> f64 {
    let inter = a.intersection(b).count() as f64;
    let denom = ((a.len() * b.len()) as f64).sqrt();
    if denom == 0.0 {
        0.0
    } else {
        inter / denom
    }
}

/// Overlap coefficient (intersection over the smaller set) — D4's
/// containment-style evidence for domains.
fn overlap_coefficient(a: &HashSet<String>, b: &HashSet<String>) -> f64 {
    let inter = a.intersection(b).count() as f64;
    let denom = a.len().min(b.len()) as f64;
    if denom == 0.0 {
        0.0
    } else {
        inter / denom
    }
}

// ---------------------------------------------------------------------------
// D3L
// ---------------------------------------------------------------------------

/// D3L (Bogatu et al., ICDE '20): table similarity from several largely
/// syntactic signals — here word-token q-grams and value-token overlap —
/// combined into one feature embedding and clustered with K-means, the
/// combination §4.7.1 reports as strongest.
#[derive(Debug, Clone)]
pub struct D3l {
    /// Hash-embedding dimension per evidence channel.
    pub dim: usize,
}

impl Default for D3l {
    fn default() -> Self {
        Self { dim: 96 }
    }
}

impl D3l {
    /// Clusters table texts into `k` groups.
    pub fn fit(&self, texts: &[&str], k: usize, rng: &mut StdRng) -> ClusterOutput {
        // Two evidence channels: character 4-grams (name/format evidence)
        // and whole-token hashes (value-overlap evidence).
        let qgrams = datagen::hash_ngram_embed(texts, self.dim, 4);
        let tokens = {
            let mut m = Matrix::zeros(texts.len(), self.dim);
            for (i, text) in texts.iter().enumerate() {
                for tok in token_set(text) {
                    let h = datagen::text::fnv1a(&tok);
                    let bucket = (h % self.dim as u64) as usize;
                    m[(i, bucket)] += 1.0;
                }
            }
            m.normalize_rows()
        };
        let features = qgrams.hcat(&tokens);
        let result = KMeans::paper_protocol(k).fit(&features, rng);
        ClusterOutput::from_labels(result.labels)
    }
}

// ---------------------------------------------------------------------------
// Starmie
// ---------------------------------------------------------------------------

/// Starmie (Fan et al., PVLDB '23): a contrastive column/table encoder.
/// The substitution fine-tunes an MLP projector over hash-n-gram text
/// embeddings with an NT-Xent loss on token-dropout augmented views, then
/// clusters by connected components over a cosine-similarity threshold
/// (the original's grouping step).
#[derive(Debug, Clone)]
pub struct Starmie {
    /// Base hash-embedding dimension.
    pub dim: usize,
    /// Projector output dimension.
    pub proj_dim: usize,
    /// Contrastive fine-tuning epochs.
    pub epochs: usize,
    /// Token dropout rate for augmentation.
    pub dropout: f64,
    /// Similarity threshold for the connected-component grouping.
    pub threshold: f64,
}

impl Default for Starmie {
    fn default() -> Self {
        Self { dim: 96, proj_dim: 32, epochs: 30, dropout: 0.3, threshold: 0.85 }
    }
}

impl Starmie {
    /// Clusters texts; `k` is used only as a fallback K-means target when
    /// thresholding degenerates (everything or nothing connected).
    pub fn fit(&self, texts: &[&str], k: usize, rng: &mut StdRng) -> ClusterOutput {
        let base = datagen::hash_ngram_embed(texts, self.dim, 3);
        let mut params = Params::new();
        let projector = Mlp::new(
            &mut params,
            &[self.dim, 64, self.proj_dim],
            Activation::Relu,
            Activation::Linear,
            rng,
        );
        let mut adam = Adam::new(1e-3);

        for _ in 0..self.epochs {
            // Two augmented views: token dropout, re-embedded.
            let augment = |r: &mut StdRng| -> Matrix {
                let dropped: Vec<String> = texts
                    .iter()
                    .map(|t| {
                        let kept: Vec<&str> = t
                            .split_whitespace()
                            .filter(|_| r.gen::<f64>() >= self.dropout)
                            .collect();
                        if kept.is_empty() {
                            t.to_string()
                        } else {
                            kept.join(" ")
                        }
                    })
                    .collect();
                let refs: Vec<&str> = dropped.iter().map(String::as_str).collect();
                datagen::hash_ngram_embed(&refs, self.dim, 3)
            };
            let v1 = augment(rng);
            let v2 = augment(rng);
            let proj = &projector;
            let _ = train_step(&mut params, &mut adam, [&v1, &v2], |t, bound, [v1, v2]| {
                let a = proj.forward(bound, v1);
                let b = proj.forward(bound, v2);
                nt_xent(t, a, b, 0.5)
            });
        }

        let embedded = projector.infer(&params, &base).normalize_rows();
        let sim = embedded.matmul_nt(&embedded);
        let n = texts.len();
        let edges: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .filter(|&(i, j)| sim[(i, j)] >= self.threshold)
            .collect();
        let labels = connected_components(n, edges);
        let n_components = labels.iter().copied().max().map_or(0, |m| m + 1);
        if n_components <= 1 || n_components >= n {
            // Degenerate threshold: fall back to K-means on the embedding.
            let km = KMeans::new(k).fit(&embedded, rng);
            return ClusterOutput::from_labels(km.labels);
        }
        ClusterOutput::from_labels(labels)
    }
}

// ---------------------------------------------------------------------------
// JedAI
// ---------------------------------------------------------------------------

/// Pairwise similarity metric inside the JedAI workflow (Figure 2b
/// compares Jaccard, Cosine, and Dice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JedaiMetric {
    /// Jaccard on token sets.
    Jaccard,
    /// Set cosine on token sets.
    Cosine,
    /// Dice coefficient on token sets.
    Dice,
}

impl JedaiMetric {
    /// Metric display name.
    pub fn name(self) -> &'static str {
        match self {
            JedaiMetric::Jaccard => "Jaccard",
            JedaiMetric::Cosine => "Cosine",
            JedaiMetric::Dice => "Dice",
        }
    }
}

/// JedAI (Papadakis et al.): the schema-agnostic entity-resolution
/// workflow — token blocking, pairwise token-set similarity over candidate
/// pairs, similarity thresholding, connected-component entity clusters.
#[derive(Debug, Clone)]
pub struct Jedai {
    /// Similarity metric.
    pub metric: JedaiMetric,
    /// Similarity threshold above which two records match.
    pub threshold: f64,
}

impl Jedai {
    /// Creates a workflow with the given metric and threshold.
    pub fn new(metric: JedaiMetric, threshold: f64) -> Self {
        Self { metric, threshold }
    }

    /// Clusters record texts into entities.
    pub fn fit(&self, texts: &[&str]) -> ClusterOutput {
        let sets: Vec<HashSet<String>> = texts.iter().map(|t| token_set(t)).collect();

        // Token blocking: candidate pairs share at least one token.
        let mut blocks: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, set) in sets.iter().enumerate() {
            for tok in set {
                blocks.entry(tok.as_str()).or_default().push(i);
            }
        }
        let mut candidates: HashSet<(usize, usize)> = HashSet::new();
        for ids in blocks.values() {
            // Skip stop-word-like huge blocks (standard block purging).
            if ids.len() > texts.len() / 2 {
                continue;
            }
            for (a, &i) in ids.iter().enumerate() {
                for &j in &ids[a + 1..] {
                    candidates.insert((i.min(j), i.max(j)));
                }
            }
        }

        let sim = |a: &HashSet<String>, b: &HashSet<String>| match self.metric {
            JedaiMetric::Jaccard => jaccard(a, b),
            JedaiMetric::Cosine => set_cosine(a, b),
            JedaiMetric::Dice => dice(a, b),
        };
        let edges: Vec<(usize, usize)> = candidates
            .into_iter()
            .filter(|&(i, j)| sim(&sets[i], &sets[j]) >= self.threshold)
            .collect();
        ClusterOutput::from_labels(connected_components(texts.len(), edges))
    }
}

// ---------------------------------------------------------------------------
// D4
// ---------------------------------------------------------------------------

/// D4 (Ota et al., PVLDB '20): data-driven domain discovery. Columns are
/// value sets; *local domains* form by connecting columns with strong value
/// overlap, and *strong domains* merge local domains that remain robust
/// under a stricter agreement requirement (simplified to a two-threshold
/// scheme over the overlap coefficient).
#[derive(Debug, Clone)]
pub struct D4 {
    /// Overlap coefficient threshold for local domains.
    pub local_threshold: f64,
    /// Fraction of a component's columns that must mutually agree for the
    /// strong-domain refinement to keep them merged.
    pub strong_threshold: f64,
}

impl Default for D4 {
    fn default() -> Self {
        Self { local_threshold: 0.35, strong_threshold: 0.2 }
    }
}

impl D4 {
    /// Clusters column texts (each text = the column's values) into
    /// domains.
    pub fn fit(&self, texts: &[&str]) -> ClusterOutput {
        let sets: Vec<HashSet<String>> = texts.iter().map(|t| token_set(t)).collect();
        let n = texts.len();

        // Local domains: strong pairwise value overlap.
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if overlap_coefficient(&sets[i], &sets[j]) >= self.local_threshold {
                    edges.push((i, j));
                }
            }
        }
        let local = connected_components(n, edges.iter().copied());

        // Strong domains: within each local domain, drop columns whose mean
        // overlap with the rest falls below the strong threshold; they
        // become singletons (D4's robustness pass against incomplete
        // columns).
        let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
        for (i, &l) in local.iter().enumerate() {
            groups.entry(l).or_default().push(i);
        }
        let mut labels = vec![usize::MAX; n];
        let mut next = 0;
        for members in groups.values() {
            if members.len() == 1 {
                labels[members[0]] = next;
                next += 1;
                continue;
            }
            let mut kept = Vec::new();
            for &i in members {
                let mean: f64 = members
                    .iter()
                    .filter(|&&j| j != i)
                    .map(|&j| overlap_coefficient(&sets[i], &sets[j]))
                    .sum::<f64>()
                    / (members.len() - 1) as f64;
                if mean >= self.strong_threshold {
                    kept.push(i);
                } else {
                    labels[i] = next;
                    next += 1;
                }
            }
            if !kept.is_empty() {
                for &i in &kept {
                    labels[i] = next;
                }
                next += 1;
            }
        }
        ClusterOutput::from_labels(labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustering::metrics::accuracy;
    use datagen::corpus::{
        domain_corpus, entity_corpus, schema_corpus, DomainCorpusConfig, EntityCorpusConfig,
        SchemaCorpusConfig,
    };
    use tensor::random::rng;

    #[test]
    fn similarity_primitives() {
        let a: HashSet<String> = ["x", "y", "z"].iter().map(|s| s.to_string()).collect();
        let b: HashSet<String> = ["x", "y"].iter().map(|s| s.to_string()).collect();
        assert!((jaccard(&a, &b) - 2.0 / 3.0).abs() < 1e-12);
        assert!((dice(&a, &b) - 4.0 / 5.0).abs() < 1e-12);
        assert!((overlap_coefficient(&a, &b) - 1.0).abs() < 1e-12);
        assert!((set_cosine(&a, &b) - 2.0 / 6.0_f64.sqrt()).abs() < 1e-12);
        let empty: HashSet<String> = HashSet::new();
        assert_eq!(jaccard(&empty, &empty), 0.0);
    }

    #[test]
    fn d3l_clusters_schema_corpus() {
        let corpus = schema_corpus(
            &SchemaCorpusConfig {
                n_tables: 60,
                n_types: 5,
                shared_attr_fraction: 0.1,
                ..Default::default()
            },
            &mut rng(1),
        );
        let out = D3l::default().fit(&corpus.texts(), 5, &mut rng(2));
        let acc = accuracy(&out.labels, &corpus.labels());
        assert!(acc > 0.5, "D3L acc = {acc}");
    }

    #[test]
    fn jedai_recovers_duplicates() {
        let corpus = entity_corpus(
            &EntityCorpusConfig { n_entities: 25, noise: 0.3, ..Default::default() },
            &mut rng(3),
        );
        let out = Jedai::new(JedaiMetric::Jaccard, 0.5).fit(&corpus.texts());
        let acc = accuracy(&out.labels, &corpus.labels());
        assert!(acc > 0.5, "JedAI acc = {acc}");
    }

    #[test]
    fn jedai_metrics_all_run() {
        let corpus = entity_corpus(
            &EntityCorpusConfig { n_entities: 10, ..Default::default() },
            &mut rng(4),
        );
        for metric in [JedaiMetric::Jaccard, JedaiMetric::Cosine, JedaiMetric::Dice] {
            let out = Jedai::new(metric, 0.5).fit(&corpus.texts());
            assert_eq!(out.labels.len(), corpus.items.len());
        }
    }

    #[test]
    fn d4_groups_columns_by_domain() {
        let corpus = domain_corpus(
            &DomainCorpusConfig {
                n_columns: 60,
                n_domains: 6,
                vocab_overlap: 0.0,
                values_per_column: (8, 15),
                ..Default::default()
            },
            &mut rng(5),
        );
        let out = D4::default().fit(&corpus.texts());
        let acc = accuracy(&out.labels, &corpus.labels());
        assert!(acc > 0.45, "D4 acc = {acc}");
    }

    #[test]
    fn starmie_produces_reasonable_groups() {
        let corpus = schema_corpus(
            &SchemaCorpusConfig {
                n_tables: 40,
                n_types: 4,
                shared_attr_fraction: 0.1,
                ..Default::default()
            },
            &mut rng(6),
        );
        let starmie = Starmie { epochs: 10, ..Default::default() };
        let out = starmie.fit(&corpus.texts(), 4, &mut rng(7));
        assert_eq!(out.labels.len(), 40);
        let acc = accuracy(&out.labels, &corpus.labels());
        assert!(acc > 0.35, "Starmie acc = {acc}");
    }
}
