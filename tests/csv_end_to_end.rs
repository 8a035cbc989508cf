//! End-to-end test of the *real-data* path: CSV text → `tabular` parsing →
//! ground-truth-free row embeddings → TableDC → evaluation. No synthetic
//! embedding simulator is involved, so this exercises exactly what a
//! downstream user of the library would run.

use clustering::metrics::{accuracy, adjusted_rand_index};
use tabledc::{TableDc, TableDcConfig};
use tabular::{embed_rows, parse_csv, write_csv, CsvOptions, EncodeOptions, Table};
use tensor::random::rng;

/// Builds a small duplicate-laden CSV with known entity structure.
fn duplicate_csv() -> (String, Vec<usize>) {
    let canon = [
        "hey jude,beatles,1968",
        "let it be,beatles,1970",
        "paranoid,black sabbath,1970",
        "war pigs,black sabbath,1970",
        "so what,miles davis,1959",
        "blue in green,miles davis,1959",
        "smells like teen spirit,nirvana,1991",
        "come as you are,nirvana,1991",
        "karma police,radiohead,1997",
        "paranoid android,radiohead,1997",
    ];
    // Three noisy copies per record: case change, token swap, typo-ish cut.
    let mut rows = vec!["title,artist,year".to_string()];
    let mut truth = Vec::new();
    for (e, base) in canon.iter().enumerate() {
        let fields: Vec<&str> = base.split(',').collect();
        let variants = [
            format!("{},{},{}", fields[0], fields[1], fields[2]),
            format!("{},{},{}", fields[0].to_uppercase(), fields[1], fields[2]),
            format!(
                "{},{},{}",
                fields[0],
                fields[1].to_uppercase(),
                fields[2]
            ),
        ];
        for v in variants {
            rows.push(v);
            truth.push(e);
        }
    }
    (rows.join("\n") + "\n", truth)
}

#[test]
fn csv_to_tabledc_round_trip() {
    let (csv_text, truth) = duplicate_csv();
    let records = parse_csv(&csv_text, CsvOptions::default()).expect("valid CSV");
    let table = Table::from_records("songs", &records, true);
    assert_eq!(table.n_rows(), truth.len());
    assert_eq!(table.n_cols(), 3);

    let x = embed_rows(&table, EncodeOptions::default());
    let config = TableDcConfig {
        latent_dim: 8,
        hidden_dims: vec![32],
        pretrain_epochs: 40,
        epochs: 20,
        ..TableDcConfig::new(10)
    };
    let (_, fit) = TableDc::fit(config, &x, &mut rng(3));
    let ari = adjusted_rand_index(&fit.labels, &truth);
    let acc = accuracy(&fit.labels, &truth);
    assert!(ari > 0.6, "CSV dedup ARI = {ari}");
    assert!(acc > 0.6, "CSV dedup ACC = {acc}");
}

#[test]
fn csv_writer_parser_round_trip_preserves_tabledc_input() {
    let (csv_text, _) = duplicate_csv();
    let records = parse_csv(&csv_text, CsvOptions::default()).expect("valid CSV");
    let rewritten = write_csv(&records, ',');
    let reparsed = parse_csv(&rewritten, CsvOptions::default()).expect("round trip");
    assert_eq!(records, reparsed);
    // Embeddings of identical tables are identical.
    let t1 = Table::from_records("a", &records, true);
    let t2 = Table::from_records("a", &reparsed, true);
    let e1 = embed_rows(&t1, EncodeOptions::default());
    let e2 = embed_rows(&t2, EncodeOptions::default());
    assert_eq!(e1, e2);
}

#[test]
fn type_inference_supports_schema_text() {
    let csv = "id,price,active,comment\n1,9.99,true,good\n2,12.50,false,bad\n";
    let records = parse_csv(csv, CsvOptions::default()).expect("valid CSV");
    let table = Table::from_records("products", &records, true);
    use tabular::ColumnType;
    assert_eq!(table.columns[0].infer_type(), ColumnType::Integer);
    assert_eq!(table.columns[1].infer_type(), ColumnType::Float);
    assert_eq!(table.columns[2].infer_type(), ColumnType::Boolean);
    assert_eq!(table.columns[3].infer_type(), ColumnType::Text);
    assert_eq!(table.schema_text(), "id price active comment");
}
