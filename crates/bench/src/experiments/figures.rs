//! Figures 2–5 of the paper.

use std::time::Instant;

use baselines::{D3l, D4, DeepConfig, Dfcn, Edesc, Jedai, JedaiMetric, Sdcn, Shgp, Starmie};
use datagen::{scalability_workload, EmbeddingModel, Profile};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tabledc::{TableDc, TableDcConfig};

use crate::report::{render_table, Scores};

use super::RunOptions;

/// One Figure 2 panel: `(panel title, rows of (system, dataset, Scores))`.
pub type Fig2Panel = (String, Vec<(String, String, Scores)>);

/// Figure 2: TableDC vs the bespoke solutions, per task.
pub struct Fig2Result {
    /// One entry per panel.
    pub panels: Vec<Fig2Panel>,
}

impl Fig2Result {
    /// Renders the three panels.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (title, rows) in &self.panels {
            let headers =
                vec!["System".to_string(), "Dataset".to_string(), "ARI".to_string(), "ACC".to_string()];
            let cells: Vec<Vec<String>> = rows
                .iter()
                .map(|(s, d, sc)| {
                    vec![s.clone(), d.clone(), format!("{:.2}", sc.ari), format!("{:.2}", sc.acc)]
                })
                .collect();
            out.push_str(&render_table(title, &headers, &cells));
        }
        out
    }

    /// Scores of one system on one dataset.
    pub fn score(&self, panel: usize, system: &str, dataset: &str) -> Option<Scores> {
        self.panels[panel]
            .1
            .iter()
            .find(|(s, d, _)| s == system && d == dataset)
            .map(|(_, _, sc)| *sc)
    }
}

/// Runs Figure 2: panel (a) schema inference vs D3L/Starmie, panel (b)
/// entity resolution vs JedAI (Jaccard/Cosine/Dice), panel (c) domain
/// discovery vs D4/Starmie. TableDC uses SBERT in (a)/(b) and T5 in (c),
/// as in the paper.
pub fn fig2(opts: RunOptions) -> Fig2Result {
    let mut panels = Vec::new();

    // (a) Schema inference.
    let mut rows = Vec::new();
    for profile in [Profile::WebTables, Profile::Tus] {
        let corpus = profile.corpus(opts.scale, EmbeddingModel::Sbert, opts.seed);
        let texts = corpus.texts();
        let truth = corpus.labels();
        let mut rng = StdRng::seed_from_u64(opts.seed + 10);
        let d3l = D3l::default().fit(&texts, corpus.k, &mut rng);
        rows.push(("D3L".to_string(), profile.name().to_string(), Scores::evaluate(&d3l.labels, &truth)));
        let starmie = starmie_for(opts).fit(&texts, corpus.k, &mut rng);
        rows.push((
            "Starmie".to_string(),
            profile.name().to_string(),
            Scores::evaluate(&starmie.labels, &truth),
        ));
        rows.push((
            "TableDC".to_string(),
            profile.name().to_string(),
            tabledc_on(profile, EmbeddingModel::Sbert, opts),
        ));
    }
    panels.push(("Figure 2a: schema inference vs bespoke".to_string(), rows));

    // (b) Entity resolution.
    let mut rows = Vec::new();
    for profile in [Profile::MusicBrainz, Profile::GeoSet] {
        let corpus = profile.corpus(opts.scale, EmbeddingModel::Sbert, opts.seed);
        let texts = corpus.texts();
        let truth = corpus.labels();
        for metric in [JedaiMetric::Jaccard, JedaiMetric::Cosine, JedaiMetric::Dice] {
            let out = Jedai::new(metric, 0.5).fit(&texts);
            rows.push((
                format!("JedAI-{}", metric.name()),
                profile.name().to_string(),
                Scores::evaluate(&out.labels, &truth),
            ));
        }
        rows.push((
            "TableDC".to_string(),
            profile.name().to_string(),
            tabledc_on(profile, EmbeddingModel::Sbert, opts),
        ));
    }
    panels.push(("Figure 2b: entity resolution vs bespoke".to_string(), rows));

    // (c) Domain discovery.
    let mut rows = Vec::new();
    for profile in [Profile::Camera, Profile::Monitor] {
        let corpus = profile.corpus(opts.scale, EmbeddingModel::T5, opts.seed);
        let texts = corpus.texts();
        let truth = corpus.labels();
        let d4 = D4::default().fit(&texts);
        rows.push(("D4".to_string(), profile.name().to_string(), Scores::evaluate(&d4.labels, &truth)));
        let mut rng = StdRng::seed_from_u64(opts.seed + 11);
        let starmie = starmie_for(opts).fit(&texts, corpus.k, &mut rng);
        rows.push((
            "Starmie".to_string(),
            profile.name().to_string(),
            Scores::evaluate(&starmie.labels, &truth),
        ));
        rows.push((
            "TableDC".to_string(),
            profile.name().to_string(),
            tabledc_on(profile, EmbeddingModel::T5, opts),
        ));
    }
    panels.push(("Figure 2c: domain discovery vs bespoke".to_string(), rows));

    Fig2Result { panels }
}

fn starmie_for(opts: RunOptions) -> Starmie {
    Starmie { epochs: ((30.0 * opts.epoch_factor) as usize).max(3), ..Default::default() }
}

fn tabledc_on(profile: Profile, model: EmbeddingModel, opts: RunOptions) -> Scores {
    let dataset = profile.dataset(model, opts.scale, opts.seed);
    let budget = opts.budget(profile.task());
    let mut rng = StdRng::seed_from_u64(opts.seed + 12);
    let (_, fit) = TableDc::fit(budget.tabledc_config(dataset.k), &dataset.x, &mut rng);
    Scores::evaluate(&fit.labels, &dataset.labels)
}

/// Figure 3: runtime scaling with the number of clusters 𝕂.
pub struct Fig3Result {
    /// The 𝕂 values swept.
    pub ks: Vec<usize>,
    /// `(method name, seconds per 𝕂)`.
    pub series: Vec<(String, Vec<f64>)>,
}

impl Fig3Result {
    /// Renders the timing grid.
    pub fn render(&self) -> String {
        let mut headers = vec!["Method".to_string()];
        headers.extend(self.ks.iter().map(|k| format!("K={k}")));
        let rows: Vec<Vec<String>> = self
            .series
            .iter()
            .map(|(name, times)| {
                let mut cells = vec![name.clone()];
                cells.extend(times.iter().map(|t| format!("{t:.2}s")));
                cells
            })
            .collect();
        render_table(
            "Figure 3: scalability with the number of clusters (seconds)",
            &headers,
            &rows,
        )
    }

    /// Time of a method at the largest 𝕂 divided by its time at the
    /// smallest — the empirical growth factor used to check the paper's
    /// quasi-linear-vs-quadratic claim.
    pub fn growth_factor(&self, method: &str) -> f64 {
        let (_, times) = self
            .series
            .iter()
            .find(|(n, _)| n == method)
            .expect("method in series");
        times.last().expect("non-empty") / times.first().expect("non-empty").max(1e-9)
    }
}

/// Runs Figure 3 on MusicBrainz-style workloads scaled to each 𝕂 (paper:
/// up to 𝕂 = 2400 on an A100; the scaled default sweeps a smaller range).
/// Methods: TableDC, SDCN, EDESC, SHGP — DFCN and DCRN are excluded
/// exactly as in the paper ("we have not managed to run both ... with a
/// high number of clusters").
pub fn fig3(opts: RunOptions, ks: &[usize]) -> Fig3Result {
    // A small fixed epoch budget: Figure 3 measures *scaling*, not quality.
    let epochs = ((10.0 * opts.epoch_factor).ceil() as usize).max(2);
    let pretrain = 2;
    let dim = 32;
    let mut series: Vec<(String, Vec<f64>)> = vec![
        ("TableDC".into(), Vec::new()),
        ("SDCN".into(), Vec::new()),
        ("EDESC".into(), Vec::new()),
        ("SHGP".into(), Vec::new()),
    ];
    for &k in ks {
        let g = scalability_workload(k, dim, &mut StdRng::seed_from_u64(opts.seed + k as u64));
        let deep = DeepConfig {
            latent_dim: 16,
            pretrain_epochs: pretrain,
            epochs,
            lr: 1e-3,
            knn_k: 5,
        };
        let time = |f: &mut dyn FnMut()| -> f64 {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        };
        let mut rng = StdRng::seed_from_u64(opts.seed ^ 0xf163 ^ k as u64);
        let cfg = TableDcConfig {
            latent_dim: 16,
            pretrain_epochs: pretrain,
            epochs,
            ..TableDcConfig::new(k)
        };
        series[0].1.push(time(&mut || {
            let _ = TableDc::fit(cfg.clone(), &g.x, &mut rng);
        }));
        series[1].1.push(time(&mut || {
            let _ = Sdcn::new(deep.clone()).fit(&g.x, k, &mut rng);
        }));
        series[2].1.push(time(&mut || {
            let _ = Edesc::new(deep.clone()).fit(&g.x, k, &mut rng);
        }));
        series[3].1.push(time(&mut || {
            let _ = Shgp::new(deep.clone()).fit(&g.x, k, &mut rng);
        }));
    }
    Fig3Result { ks: ks.to_vec(), series }
}

/// Figure 4: impact of the cluster-center initializer on TableDC's ARI.
pub struct Fig4Result {
    /// `(dataset label, rows of (initializer, ARI))`.
    pub sections: Vec<(String, Vec<(String, f64)>)>,
}

impl Fig4Result {
    /// Renders the bar-chart data as a table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (dataset, rows) in &self.sections {
            let headers = vec!["Initializer".to_string(), "ARI".to_string()];
            let cells: Vec<Vec<String>> =
                rows.iter().map(|(n, a)| vec![n.clone(), format!("{a:.2}")]).collect();
            out.push_str(&render_table(
                &format!("Figure 4: initializer ablation on {dataset}"),
                &headers,
                &cells,
            ));
        }
        out
    }

    /// ARI of one initializer in one section.
    pub fn ari(&self, section: usize, init: &str) -> Option<f64> {
        self.sections[section].1.iter().find(|(n, _)| n == init).map(|(_, a)| *a)
    }
}

/// Runs Figure 4 on the paper's three cases: SBERT/web tables (schema
/// inference), EmbDi/GeoSet (entity resolution), SBERT/Camera (domain
/// discovery).
pub fn fig4(opts: RunOptions) -> Fig4Result {
    let cases = [
        (Profile::WebTables, EmbeddingModel::Sbert),
        (Profile::GeoSet, EmbeddingModel::EmbDi),
        (Profile::Camera, EmbeddingModel::Sbert),
    ];
    let mut sections = Vec::new();
    for (profile, model) in cases {
        let dataset = profile.dataset(model, opts.scale, opts.seed);
        let budget = opts.budget(profile.task());
        let mut rows = Vec::new();
        for init in tabledc::Init::ALL {
            let mut rng = StdRng::seed_from_u64(opts.seed + 77);
            let config = TableDcConfig { init, ..budget.tabledc_config(dataset.k) };
            let (_, fit) = TableDc::fit(config, &dataset.x, &mut rng);
            rows.push((
                init.name().to_string(),
                Scores::evaluate(&fit.labels, &dataset.labels).ari,
            ));
        }
        sections.push((format!("{} ({})", profile.name(), model.name()), rows));
    }
    Fig4Result { sections }
}

/// Figure 5: `re_loss` and `KL(p‖q)` training curves on web tables for
/// TableDC and the self-supervised benchmarks.
pub struct Fig5Result {
    /// `(method, re_loss per epoch, kl(p‖q) per epoch)`.
    pub curves: Vec<(String, Vec<f64>, Vec<f64>)>,
}

impl Fig5Result {
    /// Renders both panels, sampling every `stride` epochs.
    pub fn render(&self, stride: usize) -> String {
        let stride = stride.max(1);
        let epochs = self.curves.first().map_or(0, |(_, r, _)| r.len());
        let sampled: Vec<usize> = (0..epochs).step_by(stride).collect();
        let mut out = String::new();
        for (panel, idx) in [("re_loss", 1usize), ("KL(p||q)", 2)] {
            let mut headers = vec!["Method".to_string()];
            headers.extend(sampled.iter().map(|e| format!("ep{e}")));
            let rows: Vec<Vec<String>> = self
                .curves
                .iter()
                .map(|(name, re, kl)| {
                    let series = if idx == 1 { re } else { kl };
                    let mut cells = vec![name.clone()];
                    cells.extend(sampled.iter().map(|&e| format!("{:.3}", series[e])));
                    cells
                })
                .collect();
            out.push_str(&render_table(
                &format!("Figure 5: {panel} on web tables (SBERT)"),
                &headers,
                &rows,
            ));
        }
        out
    }
}

/// Runs Figure 5: loss traces on SBERT/web tables for TableDC, SDCN, DFCN,
/// and EDESC (the benchmarks that share the p/q self-supervision).
pub fn fig5(opts: RunOptions) -> Fig5Result {
    let dataset = Profile::WebTables.dataset(EmbeddingModel::Sbert, opts.scale, opts.seed);
    let budget =
        opts.budget(datagen::Task::SchemaInference);
    let deep = budget.deep_config();
    let mut curves = Vec::new();

    let mut rng = StdRng::seed_from_u64(opts.seed + 5);
    let (_, fit) = TableDc::fit(budget.tabledc_config(dataset.k), &dataset.x, &mut rng);
    curves.push(("TableDC".to_string(), fit.history.re_loss, fit.history.kl_pq));

    let sdcn = Sdcn::new(deep.clone()).fit(&dataset.x, dataset.k, &mut rng);
    curves.push(("SDCN".to_string(), sdcn.re_loss, sdcn.kl_pq));
    let dfcn = Dfcn::new(deep.clone()).fit(&dataset.x, dataset.k, &mut rng);
    curves.push(("DFCN".to_string(), dfcn.re_loss, dfcn.kl_pq));
    let edesc = Edesc::new(deep).fit(&dataset.x, dataset.k, &mut rng);
    curves.push(("EDESC".to_string(), edesc.re_loss, edesc.kl_pq));

    Fig5Result { curves }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "experiment smoke test; run with --release")]
    fn fig3_runs_tiny_sweep() {
        let opts = RunOptions::quick();
        let result = fig3(opts, &[10, 20]);
        assert_eq!(result.ks, vec![10, 20]);
        for (name, times) in &result.series {
            assert_eq!(times.len(), 2, "{name}");
            assert!(times.iter().all(|&t| t > 0.0));
        }
        assert!(result.growth_factor("TableDC") > 0.0);
        assert!(result.render().contains("K=10"));
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "experiment smoke test; run with --release")]
    fn fig4_sections_have_all_initializers() {
        // Use a single tiny case by reusing the public API at quick scale.
        let opts = RunOptions { epoch_factor: 0.05, ..RunOptions::quick() };
        let result = fig4(opts);
        assert_eq!(result.sections.len(), 3);
        for (_, rows) in &result.sections {
            assert_eq!(rows.len(), 5);
        }
        assert!(result.ari(0, "Birch").is_some());
    }
}
