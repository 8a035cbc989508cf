//! Embedding real tables, rows, and columns.
//!
//! These encoders turn [`crate::table::Table`] objects into the `n × d`
//! matrices TableDC consumes, using the *real* (ground-truth-free)
//! hash-n-gram lexical encoder plus light structural features. They are the
//! production ingestion path; the simulated LLM encoders in
//! `datagen::encoders` exist only to reproduce the paper's experiments.

use tensor::Matrix;

use crate::table::{ColumnType, Table};

/// Encoder configuration.
#[derive(Debug, Clone, Copy)]
pub struct EncodeOptions {
    /// Output embedding dimension for the lexical component.
    pub dim: usize,
    /// Character n-gram width.
    pub ngram: usize,
    /// Maximum values sampled per column when embedding columns.
    pub max_values_per_column: usize,
    /// Include column headers in column/table text.
    pub include_headers: bool,
}

impl Default for EncodeOptions {
    fn default() -> Self {
        Self { dim: 128, ngram: 3, max_values_per_column: 32, include_headers: true }
    }
}

/// Embeds one text object per **table** (schema inference): the schema
/// text, optionally followed by a sample of instance values.
pub fn embed_tables(tables: &[Table], options: EncodeOptions, instances: bool) -> Matrix {
    let texts: Vec<String> = tables
        .iter()
        .map(|t| {
            let mut text = if options.include_headers {
                t.schema_text()
            } else {
                String::new()
            };
            if instances {
                for i in 0..t.n_rows().min(5) {
                    text.push(' ');
                    text.push_str(&t.row_text(i));
                }
            }
            if text.trim().is_empty() {
                text = t.name.clone();
            }
            text
        })
        .collect();
    lexical_embed(&texts, options)
}

/// Embeds one text object per **row** of a table (entity resolution),
/// using the `[SEP]`-serialized row text of §4.1.3.
pub fn embed_rows(table: &Table, options: EncodeOptions) -> Matrix {
    let texts: Vec<String> = (0..table.n_rows()).map(|i| table.row_text(i)).collect();
    lexical_embed(&texts, options)
}

/// Embeds one object per **column** across a set of tables (domain
/// discovery), appending simple structural features (type one-hot, null
/// fraction, distinct ratio) to the lexical embedding. Returns the matrix
/// plus `(table index, column index)` provenance per row.
pub fn embed_columns(
    tables: &[Table],
    options: EncodeOptions,
) -> (Matrix, Vec<(usize, usize)>) {
    let mut texts = Vec::new();
    let mut provenance = Vec::new();
    let mut structural: Vec<[f64; 7]> = Vec::new();
    for (ti, table) in tables.iter().enumerate() {
        for (ci, col) in table.columns.iter().enumerate() {
            texts.push(col.text(options.include_headers, options.max_values_per_column));
            provenance.push((ti, ci));
            let ty = col.infer_type();
            let one_hot = |t: ColumnType| if ty == t { 1.0 } else { 0.0 };
            let distinct_ratio = if col.is_empty() {
                0.0
            } else {
                col.distinct_count() as f64 / col.len() as f64
            };
            structural.push([
                one_hot(ColumnType::Integer),
                one_hot(ColumnType::Float),
                one_hot(ColumnType::Boolean),
                one_hot(ColumnType::Text),
                one_hot(ColumnType::Empty),
                col.null_fraction(),
                distinct_ratio,
            ]);
        }
    }
    let lexical = lexical_embed(&texts, options);
    let structure = Matrix::from_row_vecs(
        &structural.iter().map(|f| f.to_vec()).collect::<Vec<_>>(),
    );
    (lexical.hcat(&structure), provenance)
}

fn lexical_embed(texts: &[String], options: EncodeOptions) -> Matrix {
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    datagen::hash_ngram_embed(&refs, options.dim, options.ngram)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::{parse_csv, CsvOptions};
    use tensor::distance::cosine_similarity;

    fn table(name: &str, csv: &str) -> Table {
        let records = parse_csv(csv, CsvOptions::default()).expect("parse");
        Table::from_records(name, &records, true)
    }

    #[test]
    fn similar_schemas_embed_closer() {
        let a = table("a", "city,country,population\nparis,fr,2\n");
        let b = table("b", "city,country,population\nrome,it,3\n");
        let c = table("c", "sensor,resolution,zoom\nx,12mp,4\n");
        let e = embed_tables(&[a, b, c], EncodeOptions::default(), false);
        let sim_ab = cosine_similarity(e.row(0), e.row(1));
        let sim_ac = cosine_similarity(e.row(0), e.row(2));
        assert!(sim_ab > sim_ac, "{sim_ab} vs {sim_ac}");
    }

    #[test]
    fn row_embeddings_reflect_duplicates() {
        let t = table(
            "songs",
            "title,artist\nhey jude,beatles\nhey jude,the beatles\nparanoid,sabbath\n",
        );
        let e = embed_rows(&t, EncodeOptions::default());
        assert_eq!(e.rows(), 3);
        let dup = cosine_similarity(e.row(0), e.row(1));
        let other = cosine_similarity(e.row(0), e.row(2));
        assert!(dup > other, "{dup} vs {other}");
    }

    #[test]
    fn column_embeddings_have_structural_tail() {
        let t = table("t", "id,name\n1,ann\n2,bob\n");
        let (e, prov) = embed_columns(&[t], EncodeOptions::default());
        assert_eq!(e.rows(), 2);
        assert_eq!(e.cols(), 128 + 7);
        assert_eq!(prov, vec![(0, 0), (0, 1)]);
        // The integer column's Integer one-hot (first structural feature).
        assert_eq!(e[(0, 128)], 1.0);
        assert_eq!(e[(1, 128)], 0.0);
    }

    #[test]
    fn instance_embedding_differs_from_schema_only() {
        let t = table("t", "a,b\nfoo,bar\n");
        let schema_only = embed_tables(std::slice::from_ref(&t), EncodeOptions::default(), false);
        let with_instances = embed_tables(&[t], EncodeOptions::default(), true);
        assert!(schema_only.max_abs_diff(&with_instances) > 1e-6);
    }
}
