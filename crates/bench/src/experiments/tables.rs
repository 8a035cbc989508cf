//! Tables 1–5 of the paper.

use datagen::{EmbeddingModel, Profile, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tabledc::{Covariance, Distance, Kernel, TableDc, TableDcConfig};

use crate::methods::Method;
use crate::report::{panic_message, render_table, MethodRecord, Scores};

use super::RunOptions;

/// Table 1: dataset statistics.
pub fn table1(opts: RunOptions) -> String {
    let headers =
        vec!["Group".into(), "Dataset".into(), "Instances".into(), "Clusters".into()];
    let rows: Vec<Vec<String>> = Profile::ALL
        .iter()
        .map(|p| {
            let (n, k) = p.stats(opts.scale);
            let group = match p.task() {
                datagen::Task::SchemaInference => "Tables",
                datagen::Task::EntityResolution => "Rows",
                datagen::Task::DomainDiscovery => "Columns",
            };
            vec![group.into(), p.name().into(), n.to_string(), k.to_string()]
        })
        .collect();
    let label = match opts.scale {
        Scale::Paper => "Table 1: dataset statistics (paper scale)",
        Scale::Scaled => "Table 1: dataset statistics (scaled)",
    };
    render_table(label, &headers, &rows)
}

/// One (method × representation) comparison grid over a set of profiles —
/// the shared engine behind Tables 2, 3, and 4.
pub struct ComparisonResult {
    /// Experiment title.
    pub title: String,
    /// `(profile, model)` column order.
    pub columns: Vec<(Profile, EmbeddingModel)>,
    /// Methods in row order.
    pub methods: Vec<Method>,
    /// `scores[row][col]`; `None` = the method did not finish (its run
    /// panicked and was caught) — rendered as the paper's N/A entries.
    pub scores: Vec<Vec<Option<Scores>>>,
    /// `times[row][col]` wall-clock seconds, `None` when the run panicked.
    pub times: Vec<Vec<Option<f64>>>,
    /// `errors[row][col]` panic message, `Some` only for panicked runs.
    pub errors: Vec<Vec<Option<String>>>,
}

impl ComparisonResult {
    /// Renders paper-style, one `ARI ACC` pair per dataset×representation.
    pub fn render(&self) -> String {
        let mut headers = vec!["Method".to_string()];
        for (p, m) in &self.columns {
            headers.push(format!("{}/{} ARI ACC", p.name(), m.name()));
        }
        let rows: Vec<Vec<String>> = self
            .methods
            .iter()
            .zip(&self.scores)
            .map(|(method, row)| {
                let mut cells = vec![method.name().to_string()];
                cells.extend(row.iter().map(|s| match s {
                    Some(s) => s.cell(),
                    None => "  N/A".to_string(),
                }));
                cells
            })
            .collect();
        render_table(&self.title, &headers, &rows)
    }

    /// Score of one method/column (for assertions in tests).
    pub fn score(&self, method: Method, col: usize) -> Option<Scores> {
        let row = self.methods.iter().position(|&m| m == method)?;
        self.scores[row][col]
    }

    /// Mean ARI of a method across the columns where it ran.
    pub fn mean_ari(&self, method: Method) -> f64 {
        let row = self.methods.iter().position(|&m| m == method).expect("method present");
        let vals: Vec<f64> = self.scores[row].iter().flatten().map(|s| s.ari).collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    }

    /// Flattens the grid into per-cell records for `BENCH_repro.json`.
    pub fn records(&self) -> Vec<MethodRecord> {
        let mut out = Vec::with_capacity(self.methods.len() * self.columns.len());
        for (ri, &method) in self.methods.iter().enumerate() {
            for (ci, (p, m)) in self.columns.iter().enumerate() {
                let score = self.scores[ri][ci];
                out.push(MethodRecord {
                    experiment: self.title.clone(),
                    dataset: format!("{}/{}", p.name(), m.name()),
                    method: method.name().to_string(),
                    status: if score.is_some() { "ok" } else { "panicked" }.to_string(),
                    ari: score.map(|s| s.ari),
                    acc: score.map(|s| s.acc),
                    secs: self.times[ri][ci],
                    error: self.errors[ri][ci].clone(),
                });
            }
        }
        out
    }
}

/// Runs the method grid for one group of profiles.
fn comparison(
    title: &str,
    profiles: &[Profile],
    methods: &[Method],
    opts: RunOptions,
) -> ComparisonResult {
    let mut columns = Vec::new();
    for &p in profiles {
        for &m in p.representations() {
            columns.push((p, m));
        }
    }
    let mut scores = vec![vec![None; columns.len()]; methods.len()];
    let mut times = vec![vec![None; columns.len()]; methods.len()];
    let mut errors = vec![vec![None; columns.len()]; methods.len()];
    for (ci, &(profile, model)) in columns.iter().enumerate() {
        let dataset = profile.dataset(model, opts.scale, opts.seed);
        let budget = opts.budget(profile.task());
        for (ri, &method) in methods.iter().enumerate() {
            // Each method runs under `catch_unwind` so one panicking
            // baseline degrades to an N/A cell instead of killing the
            // whole table (and the `repro` sweep around it).
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut rng = StdRng::seed_from_u64(opts.seed ^ (ri as u64) << 32 ^ ci as u64);
                method.run(&dataset.x, dataset.k, &budget, &mut rng)
            }));
            let mut event = obs::event("bench.method")
                .str("experiment", title)
                .str("dataset", profile.name())
                .str("model", model.name())
                .str("method", method.name());
            match outcome {
                Ok((labels, secs)) => {
                    let s = Scores::evaluate(&labels, &dataset.labels);
                    scores[ri][ci] = Some(s);
                    times[ri][ci] = Some(secs);
                    event = event
                        .str("status", "ok")
                        .f64("ari", s.ari)
                        .f64("acc", s.acc)
                        .f64("secs", secs);
                }
                Err(payload) => {
                    let msg = panic_message(payload.as_ref());
                    event = event.str("status", "panicked").str("error", &msg);
                    errors[ri][ci] = Some(msg);
                }
            }
            event.emit();
        }
    }
    ComparisonResult {
        title: title.to_string(),
        columns,
        methods: methods.to_vec(),
        scores,
        times,
        errors,
    }
}

/// Table 2: schema inference (TUS, web tables).
pub fn table2(opts: RunOptions) -> ComparisonResult {
    comparison(
        "Table 2: schema inference clustering results (ARI / ACC)",
        &[Profile::Tus, Profile::WebTables],
        &Method::ALL,
        opts,
    )
}

/// Table 3: entity resolution (MusicBrainz, GeoSet). The paper's Table 3
/// omits DCRN (it did not scale to the large cluster counts).
pub fn table3(opts: RunOptions) -> ComparisonResult {
    let methods: Vec<Method> =
        Method::ALL.into_iter().filter(|m| *m != Method::Dcrn).collect();
    comparison(
        "Table 3: entity resolution clustering results (ARI / ACC)",
        &[Profile::MusicBrainz, Profile::GeoSet],
        &methods,
        opts,
    )
}

/// Table 4: domain discovery (Camera, Monitor).
pub fn table4(opts: RunOptions) -> ComparisonResult {
    comparison(
        "Table 4: domain discovery clustering results (ARI / ACC)",
        &[Profile::Camera, Profile::Monitor],
        &Method::ALL,
        opts,
    )
}

/// One Table 5 section: `(dataset label, distance rows, kernel rows)` —
/// each row is `(name, Scores)`.
pub type Table5Section = (String, Vec<(String, Scores)>, Vec<(String, Scores)>);

/// Table 5: the distance × kernel ablation on the self-supervised module.
pub struct Table5Result {
    /// One entry per dataset.
    pub sections: Vec<Table5Section>,
}

impl Table5Result {
    /// Renders both halves of Table 5.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (dataset, distances, kernels) in &self.sections {
            let headers =
                vec!["Axis".to_string(), "Variant".to_string(), "ARI".to_string(), "ACC".to_string()];
            let mut rows = Vec::new();
            for (name, s) in distances {
                rows.push(vec![
                    "Distance".into(),
                    name.clone(),
                    format!("{:.2}", s.ari),
                    format!("{:.2}", s.acc),
                ]);
            }
            for (name, s) in kernels {
                rows.push(vec![
                    "Kernel".into(),
                    name.clone(),
                    format!("{:.2}", s.ari),
                    format!("{:.2}", s.acc),
                ]);
            }
            out.push_str(&render_table(
                &format!("Table 5: self-supervision ablation on {dataset}"),
                &headers,
                &rows,
            ));
        }
        out
    }

    /// Looks up one score by dataset index / axis ("Distance"/"Kernel") /
    /// variant name.
    pub fn score(&self, section: usize, axis: &str, variant: &str) -> Option<Scores> {
        let (_, distances, kernels) = &self.sections[section];
        let rows = if axis == "Distance" { distances } else { kernels };
        rows.iter().find(|(n, _)| n == variant).map(|(_, s)| *s)
    }
}

/// Table 5 datasets: web tables (SBERT, schema only), MusicBrainz (SBERT),
/// Monitor (SBERT).
pub fn table5(opts: RunOptions) -> Table5Result {
    let cases = [
        (Profile::WebTables, EmbeddingModel::Sbert),
        (Profile::MusicBrainz, EmbeddingModel::Sbert),
        (Profile::Monitor, EmbeddingModel::Sbert),
    ];
    let mut sections = Vec::new();
    for (profile, model) in cases {
        let dataset = profile.dataset(model, opts.scale, opts.seed);
        let budget = opts.budget(profile.task());

        let run = |distance: Distance, kernel: Kernel, seed: u64| -> Scores {
            let mut rng = StdRng::seed_from_u64(seed);
            let config = TableDcConfig { distance, kernel, ..budget.tabledc_config(dataset.k) };
            let (_, fit) = TableDc::fit(config, &dataset.x, &mut rng);
            Scores::evaluate(&fit.labels, &dataset.labels)
        };

        // Vary the distance with the Cauchy kernel fixed.
        let distances = vec![
            ("Euclidean".to_string(), run(Distance::Euclidean, Kernel::PAPER, opts.seed + 1)),
            ("Cosine".to_string(), run(Distance::Cosine, Kernel::PAPER, opts.seed + 2)),
            (
                "Mahalanobis".to_string(),
                run(Distance::PAPER, Kernel::PAPER, opts.seed + 3),
            ),
        ];
        // Vary the kernel with the Mahalanobis distance fixed.
        let kernels = vec![
            (
                "Student's t".to_string(),
                run(Distance::PAPER, Kernel::StudentT { nu: 1.0 }, opts.seed + 4),
            ),
            (
                "Normal".to_string(),
                run(Distance::PAPER, Kernel::Normal { sigma: 1.0 }, opts.seed + 5),
            ),
            ("Cauchy".to_string(), run(Distance::PAPER, Kernel::PAPER, opts.seed + 6)),
        ];
        sections.push((format!("{} ({})", profile.name(), model.name()), distances, kernels));
    }
    let _ = Covariance::PAPER; // referenced for doc-link stability
    Table5Result { sections }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_all_six_datasets() {
        let t = table1(RunOptions::default());
        for p in Profile::ALL {
            assert!(t.contains(p.name()), "missing {}", p.name());
        }
        let paper = table1(RunOptions { scale: Scale::Paper, ..Default::default() });
        assert!(paper.contains("34481"));
        assert!(paper.contains("786"));
    }

    #[test]
    fn comparison_grid_shapes() {
        // One tiny profile with the cheap methods only.
        let opts = RunOptions::quick();
        let methods = [Method::KMeans, Method::Birch];
        let result = comparison("test", &[Profile::WebTables], &methods, opts);
        assert_eq!(result.columns.len(), Profile::WebTables.representations().len());
        assert_eq!(result.scores.len(), 2);
        assert!(result.score(Method::KMeans, 0).is_some());
        assert!(result.mean_ari(Method::Birch).is_finite());
        let rendered = result.render();
        assert!(rendered.contains("K-means"));
        // Successful runs carry wall-clock seconds and flatten to "ok"
        // records for BENCH_repro.json.
        assert!(result.times[0][0].is_some_and(|t| t >= 0.0));
        let records = result.records();
        assert_eq!(records.len(), 2 * result.columns.len());
        assert!(records.iter().all(|r| r.status == "ok" && r.error.is_none()));
    }

    #[test]
    fn panicked_cells_render_na_and_record_the_error() {
        let result = ComparisonResult {
            title: "test".into(),
            columns: vec![(Profile::WebTables, EmbeddingModel::Sbert)],
            methods: vec![Method::KMeans, Method::Sdcn],
            scores: vec![
                vec![Some(Scores { ari: 0.5, acc: 0.6 })],
                vec![None],
            ],
            times: vec![vec![Some(0.1)], vec![None]],
            errors: vec![vec![None], vec![Some("index out of bounds".into())]],
        };
        assert!(result.render().contains("N/A"));
        let records = result.records();
        assert_eq!(records[0].status, "ok");
        assert_eq!(records[1].status, "panicked");
        assert_eq!(records[1].error.as_deref(), Some("index out of bounds"));
        assert!(records[1].ari.is_none() && records[1].secs.is_none());
    }
}
