//! `tdcbench` — the measuring half of the repository benchmark.
//!
//! ```text
//! tdcbench --workload <fit-tall|fit-wide|assign> --seed <n> --seconds <s> --trace <0|1> --out <dir>
//! ```
//!
//! Generates the workload's tables from the seed, drives TableDC only
//! through its public calls, checks every output, and prints two JSON
//! lines: the run's provenance, then the result (`correct`, `attempted`,
//! `failed`, `metrics`, plus the figure the traced-overhead ratio is taken
//! against). With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` (run under `TABLEDC_TRACE`/`TABLEDC_PROFILE=alloc`) they are
//! the per-layer ones. `run.py` next to this crate builds it, runs it and
//! validates the trace; README.md names every metric and workload.

use std::fmt::Write as _;
use std::time::Instant;

use bench::report::PhaseProfile;
use bench::Budget;
use clustering::metrics::adjusted_rand_index;
use datagen::{EmbeddingModel, Profile, Scale};
use obs::health::{Policy, Verdict};
use rand::rngs::StdRng;
use runtime::ThreadPool;
use tabledc::{HealthConfig, TableDc, TableDcConfig, TableDcFit};
use tensor::random::{rng, sample_without_replacement};
use tensor::Matrix;

/// Rows per assignment request. `predict` standardizes a request with that
/// request's own column statistics, so a 1-row request degenerates to all
/// zeros (a known defect, see README.md); 64 rows keep the statistics
/// meaningful.
const REQUEST_ROWS: usize = 64;
/// Requests per serving block. Each latency figure is a median over
/// blocks, and the fit workloads serve one block after each fit, so a
/// burst of noise from other processes on the host moves a block or two,
/// not the figure. A block holds ten samples beyond its p99.
const BLOCK: usize = 1000;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Training tables per fit run, each generated from the seed; `ari` is
/// their mean. On TUS one table's ARI differs from the next by up to ±0.07,
/// so with a single table the seed, not the code, would set the figure.
const TABLES: usize = 3;
/// Fits per untraced fit run, at least (one per table); more, cycling
/// through the tables, while `--seconds` lasts.
const MIN_FITS: usize = TABLES;
/// Salts deriving the held-out set and the request stream from `--seed`.
const HOLDOUT_SALT: u64 = 0x6f1d_0a7e;
const REQUEST_SALT: u64 = 0x2e9b_51c3;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
struct Workload {
    name: &'static str,
    profile: Profile,
    /// Share of the paper's §4.3 task budget applied to both the
    /// pretraining and the joint epoch counts.
    epoch_factor: f64,
    /// Fit the model during set-up and measure serving only.
    serve_only: bool,
}

/// `fit-tall`: many rows, few clusters — autoencoder matmuls dominate.
/// `fit-wide`: fewer rows, many clusters — the N×K head and Birch dominate
/// (Figure 3's axis). `assign`: the wide model, serving only.
const WORKLOADS: [Workload; 3] = [
    Workload { name: "fit-tall", profile: Profile::Tus, epoch_factor: 0.08, serve_only: false },
    Workload { name: "fit-wide", profile: Profile::MusicBrainz, epoch_factor: 0.1, serve_only: false },
    Workload { name: "assign", profile: Profile::MusicBrainz, epoch_factor: 0.04, serve_only: true },
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: String,
}

fn usage(msg: &str) -> ! {
    eprintln!("tdcbench: {msg}");
    eprintln!(
        "usage: tdcbench --workload <fit-tall|fit-wide|assign> --seed <n> --seconds <s> --trace <0|1> --out <dir>"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&String> {
        argv.iter().position(|a| a == flag).map(|i| argv.get(i + 1).unwrap_or_else(|| usage(&format!("{flag} needs a value"))))
    };
    let name = value("--workload").unwrap_or_else(|| usage("missing --workload"));
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .copied()
        .unwrap_or_else(|| usage(&format!("unknown workload {name:?}")));
    let seed = value("--seed").map_or(1, |s| s.parse().unwrap_or_else(|_| usage("bad --seed")));
    let seconds: f64 =
        value("--seconds").map_or(10.0, |s| s.parse().unwrap_or_else(|_| usage("bad --seconds")));
    if !(seconds.is_finite() && seconds > 0.0) {
        usage("--seconds must be positive");
    }
    let traced = match value("--trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => usage("--trace takes 0 or 1"),
    };
    let out = value("--out").cloned().unwrap_or_else(|| usage("missing --out"));
    Args { workload, seed, seconds, traced, out }
}

/// A training table and its ground truth.
struct Table {
    x: Matrix,
    truth: Vec<usize>,
}

/// The generated inputs of one run: the training tables (one on `assign`),
/// and a held-out table from a different seed that requests draw from.
struct Data {
    tables: Vec<Table>,
    k: usize,
    held: Matrix,
}

fn generate(w: &Workload, seed: u64) -> Data {
    let count = if w.serve_only { 1 } else { TABLES };
    let dataset = |s: u64| w.profile.dataset(EmbeddingModel::Sbert, Scale::Paper, s);
    // Seeds `TABLES·seed + i`: disjoint between runs with different seeds.
    let tables: Vec<Table> = (0..count as u64)
        .map(|i| dataset(seed.wrapping_mul(TABLES as u64).wrapping_add(i)))
        .map(|d| Table { x: d.x, truth: d.labels })
        .collect();
    let held = dataset(seed ^ HOLDOUT_SALT).x;
    Data { tables, k: w.profile.stats(Scale::Paper).1, held }
}

fn config(w: &Workload, k: usize, seed: u64, out: &str) -> TableDcConfig {
    let budget = Budget::for_task(w.profile.task());
    let scale = |e: usize| ((e as f64 * w.epoch_factor).round() as usize).max(1);
    let budget = Budget {
        epochs: scale(budget.epochs),
        pretrain_epochs: scale(budget.pretrain_epochs),
        ..budget
    };
    let mut cfg = budget.tabledc_config(k);
    // Pinned rather than read from TABLEDC_HEALTH, so the environment
    // cannot change what a run does.
    cfg.health = HealthConfig {
        policy: Some(Policy::Warn),
        dump_dir: format!("{out}/dumps"),
        run_seed: Some(seed),
        nan_epoch: None,
    };
    cfg
}

/// Operations attempted and failed; a failed check never aborts the run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("tdcbench: {what} failed: {e}");
            }
        }
    }
}

/// Labels have one entry per row, each below `k`; `q` is finite and every
/// row sums to 1 within 1e-6.
fn check_assignments(labels: &[usize], q: &Matrix, rows: usize, k: usize) -> Result<(), String> {
    if labels.len() != rows {
        return Err(format!("{} labels for {rows} rows", labels.len()));
    }
    if let Some(&l) = labels.iter().find(|&&l| l >= k) {
        return Err(format!("label {l} not below k = {k}"));
    }
    if q.shape() != (rows, k) {
        return Err(format!("q is {:?}, expected ({rows}, {k})", q.shape()));
    }
    if !q.all_finite() {
        return Err("q has a non-finite entry".into());
    }
    for (i, s) in q.row_sums().iter().enumerate() {
        if (s - 1.0).abs() > 1e-6 {
            return Err(format!("q row {i} sums to {s}"));
        }
    }
    Ok(())
}

fn check_fit(fit: &TableDcFit, rows: usize, k: usize) -> Result<(), String> {
    check_assignments(&fit.labels, &fit.q, rows, k)?;
    if fit.health.verdict != Verdict::Healthy {
        return Err(format!("health verdict {}", fit.health.verdict.as_str()));
    }
    Ok(())
}

/// One timed `TableDc::fit` (a single restart) inside the benchmark's
/// `bench.fit` span.
fn timed_fit(cfg: &TableDcConfig, x: &Matrix, seed: u64) -> (TableDc, TableDcFit, f64) {
    let _span = obs::span!("bench.fit");
    let start = Instant::now();
    let (model, fit) = TableDc::fit(cfg.clone(), x, &mut rng(seed));
    (model, fit, start.elapsed().as_secs_f64())
}

/// The fits of one run. The first fit on each table is scored; every later
/// fit on a table is only timed, and must reproduce that table's first
/// labels exactly.
#[derive(Default)]
struct Fits {
    labels: Vec<Vec<usize>>,
    ari: Vec<f64>,
    secs: Vec<f64>,
}

impl Fits {
    /// Fits the next table in turn; returns the model of the run's first
    /// fit, the one that is served.
    fn run(&mut self, cfg: &TableDcConfig, data: &Data, seed: u64, tally: &mut Tally) -> Option<TableDc> {
        let t = self.secs.len() % data.tables.len();
        let table = &data.tables[t];
        let (model, fit, secs) = timed_fit(cfg, &table.x, seed);
        tally.record("fit", check_fit(&fit, table.x.rows(), data.k));
        self.secs.push(secs);
        match self.labels.get(t) {
            Some(first) => {
                tally.record(
                    "fit determinism",
                    if *first == fit.labels { Ok(()) } else { Err("a repeated fit changed its labels".into()) },
                );
                None
            }
            None => {
                self.ari.push(adjusted_rand_index(&fit.labels, &table.truth));
                self.labels.push(fit.labels);
                (self.secs.len() == 1).then_some(model)
            }
        }
    }
}

/// Closed-loop serving from one client: each request is `REQUEST_ROWS`
/// random held-out rows, sent after the previous reply arrived.
struct Server<'a> {
    model: &'a TableDc,
    held: &'a Matrix,
    k: usize,
    stream: StdRng,
    /// One full-matrix `predict` of the held-out table: the reference the
    /// per-request labels are compared with.
    reference: Vec<usize>,
    requests: usize,
    agree: usize,
    /// Per block: p50 and p99 latency in ms, mean latency in s.
    blocks: Vec<[f64; 3]>,
}

impl<'a> Server<'a> {
    fn new(model: &'a TableDc, held: &'a Matrix, k: usize, seed: u64, tally: &mut Tally) -> Self {
        let reference = model.predict(held);
        tally.record(
            "full-matrix predict",
            if reference.len() == held.rows() && reference.iter().all(|&l| l < k) {
                Ok(())
            } else {
                Err("reference labels malformed".into())
            },
        );
        let stream = rng(seed ^ REQUEST_SALT);
        Server { model, held, k, stream, reference, requests: 0, agree: 0, blocks: Vec::new() }
    }

    /// Serves one block of `BLOCK` requests.
    fn block(&mut self, tally: &mut Tally) {
        let _span = obs::span!("bench.serve");
        let mut latencies_s = Vec::with_capacity(BLOCK);
        for _ in 0..BLOCK {
            let rows = sample_without_replacement(self.held.rows(), REQUEST_ROWS, &mut self.stream);
            let request = self.held.select_rows(&rows);
            let start = Instant::now();
            // The body of `TableDc::predict`, keeping `q` so it can be checked.
            let (q, _m) = {
                let _span = obs::span!("bench.request");
                self.model.soft_assignments(&request)
            };
            let labels = q.argmax_rows();
            latencies_s.push(start.elapsed().as_secs_f64());
            if self.requests == 0 {
                tally.record(
                    "predict equivalence",
                    if self.model.predict(&request) == labels { Ok(()) } else { Err("predict differs".into()) },
                );
            }
            tally.record("assign request", check_assignments(&labels, &q, REQUEST_ROWS, self.k));
            self.agree += rows.iter().zip(&labels).filter(|(&r, &l)| self.reference.get(r) == Some(&l)).count();
            self.requests += 1;
        }
        let mean_s = latencies_s.iter().sum::<f64>() / latencies_s.len() as f64;
        self.blocks.push([quantile(&latencies_s, 0.50) * 1e3, quantile(&latencies_s, 0.99) * 1e3, mean_s]);
    }

    /// The median over blocks of one of their figures.
    fn median_of(&self, figure: usize) -> f64 {
        median(&self.blocks.iter().map(|b| b[figure]).collect::<Vec<_>>())
    }
}

/// Nearest-rank quantile of an unsorted sample.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of an unsorted sample (mean of the middle two for even sizes).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Metrics in output order: name → (value, unit).
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(*value));
        }
        out.push('}');
        out
    }
}

/// Full-precision JSON number; a non-finite value becomes `null`, which the
/// wrapper treats as a failed run.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = parse_args();
    let w = args.workload;
    std::fs::create_dir_all(&args.out).unwrap_or_else(|e| usage(&format!("cannot create {}: {e}", args.out)));
    let pool = runtime::global();
    let mut tally = Tally::default();
    let mut fits = Fits::default();
    let mut model = None;

    // Set-up: data generation, plus the model fit on `assign`. Repeated so
    // `setup_s` is a median; every repeat is deterministic in the seed.
    let mut setup_s = Vec::new();
    let mut window = (pool.stats(), Instant::now());
    let mut data = None;
    for _ in 0..if args.traced { 1 } else { SETUP_REPS } {
        let start = Instant::now();
        let d = generate(&w, args.seed);
        if args.traced {
            // Per-layer figures cover TableDC work only, not data generation.
            obs::profile::reset();
            window = (pool.stats(), Instant::now());
        }
        if w.serve_only {
            let first = fits.run(&config(&w, d.k, args.seed, &args.out), &d, args.seed, &mut tally);
            model = model.or(first);
        }
        setup_s.push(start.elapsed().as_secs_f64());
        data = Some(d);
    }
    let data = data.expect("at least one set-up");
    let (n, dim, k) = (data.tables[0].x.rows(), data.tables[0].x.cols(), data.k);
    let cfg = config(&w, k, args.seed, &args.out);

    // Measured phase. The fit workloads fit a table, then serve a block, in
    // turn through the tables while `--seconds` lasts; `assign` serves
    // blocks only. A traced run serves one block after at most one fit.
    let measured = Instant::now();
    if !w.serve_only {
        model = fits.run(&cfg, &data, args.seed, &mut tally);
    }
    let model = model.expect("the run's first fit returns its model");
    let mut server = Server::new(&model, &data.held, k, args.seed, &mut tally);
    server.block(&mut tally);
    while !args.traced
        && ((!w.serve_only && fits.secs.len() < MIN_FITS) || measured.elapsed().as_secs_f64() < args.seconds)
    {
        if !w.serve_only {
            fits.run(&cfg, &data, args.seed, &mut tally);
        }
        server.block(&mut tally);
    }
    let p50 = server.median_of(0);
    let fit_s = median(&fits.secs);

    let mut metrics = Metrics::default();
    if args.traced {
        per_layer(&mut metrics, pool, window.0, pool.stats(), window.1.elapsed().as_secs_f64());
        probe(&mut metrics, &cfg, n, dim, k);
    } else {
        metrics.put("setup_s", median(&setup_s), "s");
        metrics.put("fit_s", fit_s, "s");
        metrics.put("ari", fits.ari.iter().sum::<f64>() / fits.ari.len() as f64, "ratio");
        metrics.put("assign_p50_ms", p50, "ms");
        metrics.put("assign_rows_per_s", REQUEST_ROWS as f64 / server.median_of(2), "1/s");
        metrics.put("assign_agree", server.agree as f64 / (server.requests * REQUEST_ROWS) as f64, "ratio");
        metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
    }
    if metrics.0.iter().any(|(_, v, _)| !v.is_finite()) {
        tally.record("metrics", Err("a metric is not finite".into()));
    }

    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {nproc}, \"pool_threads\": {}, \
         \"n\": {:?}, \"d\": {dim}, \"k\": {k}, \"pretrain_epochs\": {}, \"epochs\": {}, \"held_out_rows\": {}, \
         \"request_rows\": {REQUEST_ROWS}, \"samples\": {{\"setups\": {}, \"fits\": {}, \"requests\": {}, \
         \"blocks\": {}}}, \"fit_secs\": {:?}, \"assign_p99_ms\": {}}}}}",
        w.name,
        args.seed,
        pool.threads(),
        data.tables.iter().map(|t| t.x.rows()).collect::<Vec<_>>(),
        cfg.pretrain_epochs,
        cfg.epochs,
        data.held.rows(),
        setup_s.len(),
        fits.secs.len(),
        server.requests,
        server.blocks.len(),
        fits.secs,
        json_num(server.median_of(1)),
    );
    // `basis` is what the traced run's overhead is taken against: the fit
    // time, or on `assign` the median request latency.
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"basis\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        json_num(if w.serve_only { p50 } else { fit_s }),
        metrics.json()
    );
}

/// Per-layer figures from the span tree and the pool counters of a traced
/// run.
fn per_layer(
    m: &mut Metrics,
    pool: &ThreadPool,
    before: runtime::PoolStats,
    after: runtime::PoolStats,
    wall_s: f64,
) {
    let phases = PhaseProfile::collect();
    let phase = |name: &str| phases.iter().find(|p| p.name == name);
    let calls = |name: &str| phase(name).map_or(0.0, |p| p.calls as f64);
    let self_ms = |name: &str| phase(name).map_or(0.0, |p| p.self_ms);
    let total_ms = |name: &str| phase(name).map_or(0.0, |p| p.total_ms);
    let alloc_mb = |name: &str| phase(name).map_or(0.0, |p| p.alloc_bytes as f64 / (1024.0 * 1024.0));

    m.put("tensor.matmul.calls", calls("tensor.matmul"), "count");
    m.put("tensor.matmul.self_ms", self_ms("tensor.matmul"), "ms");
    m.put("tensor.cdist.calls", calls("tensor.cdist"), "count");
    m.put("tensor.cdist.self_ms", self_ms("tensor.cdist"), "ms");
    m.put("tabledc.train.self_ms", self_ms("tabledc.train"), "ms");
    m.put("tabledc.train.alloc_mb", alloc_mb("tabledc.train"), "MB");
    m.put("tabledc.infer.calls", calls("tabledc.infer"), "count");
    m.put("tabledc.infer.total_ms", total_ms("tabledc.infer"), "ms");
    m.put("ae.pretrain.total_ms", total_ms("ae.pretrain"), "ms");
    m.put("ae.pretrain.self_ms", self_ms("ae.pretrain"), "ms");
    m.put("ae.pretrain.alloc_mb", alloc_mb("ae.pretrain"), "MB");
    m.put("birch.fit.total_ms", total_ms("birch.fit"), "ms");
    m.put("kmeans.weighted.total_ms", total_ms("kmeans.weighted"), "ms");
    m.put("kmeans.assign.calls", calls("kmeans.assign"), "count");
    m.put("pool.tasks", (after.tasks_executed - before.tasks_executed) as f64, "count");
    m.put("pool.steals", (after.steals - before.steals) as f64, "count");
    let busy_s = (after.busy - before.busy).as_secs_f64();
    m.put("pool.busy_frac", busy_s / (pool.threads() as f64 * wall_s), "ratio");
    m.put("bench.fit.total_ms", total_ms("bench.fit"), "ms");
    m.put("bench.request.total_ms", total_ms("bench.request"), "ms");

    // Shares of the fit, from the part of the tree under `bench.fit` only
    // (serving also multiplies matrices).
    let nodes = obs::profile::snapshot();
    let under_fit = |name: &str, pick: fn(&obs::profile::SpanNode) -> f64| -> f64 {
        nodes.iter().filter(|s| s.name == name && s.path.starts_with("bench.fit;")).map(pick).sum()
    };
    let fit_ms = total_ms("bench.fit");
    m.put("fit.matmul_share", under_fit("tensor.matmul", |s| s.self_ms) / fit_ms, "ratio");
    m.put(
        "fit.birch_train_share",
        (under_fit("birch.fit", |s| s.total_ms) + under_fit("tabledc.train", |s| s.self_ms)) / fit_ms,
        "ratio",
    );
}

/// A matrix-product shape `(rows, inner, cols)`.
type Shape = (usize, usize, usize);

/// Times `tensor::par` kernels at the shapes the fit issues — every
/// autoencoder layer over the full batch and over one 64-row pretraining
/// batch, and z·cᵀ against the k centers — on the default pool and on a
/// one-thread pool. FLOPs and bytes are computed from the shapes (each
/// operand read once, the output written once), not measured.
fn probe(m: &mut Metrics, cfg: &TableDcConfig, n: usize, d: usize, k: usize) {
    let latent = cfg.latent_dim;
    let dims = [d, 256, 128, latent];
    let mut shapes: Vec<Shape> = Vec::new();
    for rows in [n, 64] {
        for pair in dims.windows(2) {
            shapes.push((rows, pair[0], pair[1])); // encoder layer
            shapes.push((rows, pair[1], pair[0])); // mirrored decoder layer
        }
    }
    shapes.push((n, latent, k)); // z·cᵀ
    let mut g = rng(0x9e37);
    let operands: Vec<(Matrix, Matrix)> = shapes
        .iter()
        .map(|&(r, i, c)| (tensor::random::randn(r, i, &mut g), tensor::random::randn(i, c, &mut g)))
        .collect();
    let flop: f64 = shapes.iter().map(|&(r, i, c)| 2.0 * (r * i * c) as f64).sum();
    let bytes: f64 = shapes.iter().map(|&(r, i, c)| 8.0 * (r * i + i * c + r * c) as f64).sum();
    let z = tensor::random::randn(n, latent, &mut g);
    let centers = tensor::random::randn(k, latent, &mut g);
    // ‖z‖² and ‖c‖², the z·cᵀ product, and the 3-op combine per entry.
    let cdist_flop = (2 * (n + k) * latent + 2 * n * latent * k + 3 * n * k) as f64;

    let one = ThreadPool::new(1);
    for (suffix, pool) in [("", runtime::global()), ("_1t", &one)] {
        let best = |f: &dyn Fn()| {
            (0..3)
                .map(|_| {
                    let start = Instant::now();
                    f();
                    start.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let matmul_s = best(&|| {
            for (a, b) in &operands {
                std::hint::black_box(tensor::par::matmul(pool, a, b));
            }
        });
        let cdist_s = best(&|| {
            std::hint::black_box(tensor::par::sq_euclidean_cdist(pool, &z, &centers));
        });
        m.put(&format!("tensor.matmul.gflops{suffix}"), flop / matmul_s / 1e9, "GFLOP/s");
        m.put(&format!("tensor.cdist.gflops{suffix}"), cdist_flop / cdist_s / 1e9, "GFLOP/s");
    }
    m.put("tensor.probe.gflop_computed", flop / 1e9, "GFLOP");
    m.put("tensor.probe.mb_computed", bytes / (1024.0 * 1024.0), "MB");
}
