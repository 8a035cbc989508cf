//! `repro` — regenerates every table and figure of the TableDC paper.
//!
//! ```text
//! cargo run --release -p bench --bin repro -- <command> [flags]
//!
//! Commands:
//!   table1 | table2 | table3 | table4 | table5
//!   fig2 | fig3 | fig4 | fig5
//!   ablate-delta | ablate-gamma | ablate-alpha | ablate-covariance |
//!   ablate-birch-t
//!   all          every experiment above, in order
//!
//! Flags:
//!   --full               paper-scale datasets (Table 1 sizes; slow)
//!   --seed <u64>         base RNG seed                [default: 42]
//!   --epoch-factor <f>   multiplier on training epochs [default: 1.0]
//!   --ks <a,b,c>         cluster counts for fig3
//!   --out <path>         machine-readable report path [default: BENCH_repro.json]
//! ```
//!
//! Progress is reported through the structured event sink (set
//! `TABLEDC_TRACE=stderr` or a file path to see `repro.*` and
//! `bench.method` events as JSON lines). Each experiment runs under
//! `catch_unwind`, so one panicking experiment does not kill the sweep:
//! the run report and the end-of-run summary tables are always produced,
//! and the process exits nonzero if anything failed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use bench::experiments::{ablations, figures, tables, RunOptions};
use bench::ledger::{HealthSummary, RunManifest};
use bench::report::{panic_message, render_table, ExperimentOutcome, MethodRecord, ReproReport};
use datagen::Scale;

const ALL_COMMANDS: [&str; 14] = [
    "table1", "table2", "table3", "table4", "table5", "fig2", "fig3", "fig4", "fig5",
    "ablate-delta", "ablate-gamma", "ablate-alpha", "ablate-covariance", "ablate-birch-t",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print_usage_and_exit();
    }
    let command = args[0].clone();

    let mut opts = RunOptions::default();
    let mut ks: Vec<usize> = vec![50, 100, 200, 400];
    let mut out_path = "BENCH_repro.json".to_string();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => opts.scale = Scale::Paper,
            "--seed" => {
                i += 1;
                opts.seed = parse_or_exit(&args, i, "--seed");
            }
            "--epoch-factor" => {
                i += 1;
                opts.epoch_factor = parse_or_exit(&args, i, "--epoch-factor");
            }
            "--ks" => {
                i += 1;
                let raw = args.get(i).unwrap_or_else(|| usage_err("--ks needs a value"));
                ks = raw
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage_err("bad --ks list")))
                    .collect();
            }
            "--out" => {
                i += 1;
                out_path =
                    args.get(i).unwrap_or_else(|| usage_err("--out needs a path")).clone();
            }
            other => usage_err(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    if opts.scale == Scale::Paper {
        // Paper scale sweeps the full Figure 3 range.
        if ks == vec![50, 100, 200, 400] {
            ks = vec![100, 400, 800, 1200, 1600, 2000, 2400];
        }
    }

    let names: Vec<&str> = if command == "all" {
        ALL_COMMANDS.to_vec()
    } else if ALL_COMMANDS.contains(&command.as_str()) {
        vec![command.as_str()]
    } else {
        usage_err(&format!("unknown command {command}"))
    };

    // Open the run-ledger manifest shell before any event is emitted so
    // the whole trace is stamped with this run's id.
    let mut manifest = RunManifest::new(&format!("repro-{command}"));
    manifest.command = format!("repro {command}");
    obs::set_run_id(&manifest.run_id);

    obs::event("repro.start")
        .str("command", &command)
        .str("scale", &format!("{:?}", opts.scale))
        .u64("seed", opts.seed)
        .f64("epoch_factor", opts.epoch_factor)
        .str("trace", &obs::trace_target_description())
        .emit();

    let mut report = ReproReport {
        scale: format!("{:?}", opts.scale),
        seed: opts.seed,
        epoch_factor: opts.epoch_factor,
        experiments: Vec::new(),
        methods: Vec::new(),
        profile: Vec::new(),
    };

    for name in names {
        obs::event("repro.experiment_start").str("name", name).emit();
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| run_experiment(name, opts, &ks)));
        let secs = start.elapsed().as_secs_f64();
        match outcome {
            Ok((rendered, records)) => {
                print!("{rendered}");
                report.methods.extend(records);
                report.experiments.push(ExperimentOutcome {
                    name: name.to_string(),
                    secs,
                    status: "ok".to_string(),
                    error: None,
                });
                obs::event("repro.experiment")
                    .str("name", name)
                    .f64("secs", secs)
                    .str("status", "ok")
                    .emit();
            }
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                report.experiments.push(ExperimentOutcome {
                    name: name.to_string(),
                    secs,
                    status: "panicked".to_string(),
                    error: Some(msg.clone()),
                });
                obs::event("repro.experiment")
                    .str("name", name)
                    .f64("secs", secs)
                    .str("status", "panicked")
                    .str("error", &msg)
                    .emit();
            }
        }
    }

    // Pool counters are normally snapshotted at scope exit only while
    // tracing; force one final snapshot so the summary always carries
    // steal/busy figures for the whole run.
    runtime::global().record_stats();
    // Fold the span tree into the report so perfdiff can compare
    // per-phase self times across runs.
    report.profile = bench::report::PhaseProfile::collect();

    eprint!("{}", experiment_summary(&report));
    eprintln!("{}", obs::summary());
    eprintln!("{}", obs::profile::report());
    if let Some(folded_path) = obs::profile::write_folded_if_requested() {
        eprintln!("# wrote folded stacks to {folded_path}");
    }

    match report.write(&out_path) {
        Ok(()) => eprintln!("# wrote {out_path}"),
        Err(e) => {
            eprintln!("# failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }
    fill_manifest(&mut manifest, &opts, &report);
    match manifest.write() {
        Ok(path) => eprintln!("# wrote run manifest {path}"),
        Err(e) => eprintln!("# failed to write run manifest: {e}"),
    }
    if report.any_failed() {
        std::process::exit(1);
    }
}

/// Completes the run-ledger manifest for this invocation: health roll-up
/// across every fit in the sweep, and the final quality metrics of each
/// comparison-table cell. A sweep has no single fit to take a structural
/// convergence verdict from, so `convergence` stays unset here.
fn fill_manifest(manifest: &mut RunManifest, opts: &RunOptions, report: &ReproReport) {
    manifest.seed = opts.seed;
    manifest.scale = report.scale.clone();
    manifest.epoch_factor = opts.epoch_factor;
    let (violations, aborts) = obs::health::global_counts();
    manifest.health = HealthSummary {
        policy: obs::health::Policy::from_env().as_str().to_string(),
        verdict: if aborts > 0 {
            "aborted"
        } else if violations > 0 {
            "warned"
        } else {
            "healthy"
        }
        .to_string(),
        violations,
        dump_path: None,
    };
    for m in report.methods.iter().filter(|m| m.status == "ok") {
        let key = |metric: &str| format!("{}/{}/{}/{metric}", m.experiment, m.dataset, m.method);
        if let Some(ari) = m.ari {
            manifest.metrics.push((key("ari"), ari));
        }
        if let Some(acc) = m.acc {
            manifest.metrics.push((key("acc"), acc));
        }
    }
}

/// Runs one experiment, returning its rendered output and (for the
/// comparison tables) the per-method records.
fn run_experiment(name: &str, opts: RunOptions, ks: &[usize]) -> (String, Vec<MethodRecord>) {
    let with_records = |r: tables::ComparisonResult| {
        let records = r.records();
        (r.render(), records)
    };
    match name {
        "table1" => (tables::table1(opts), Vec::new()),
        "table2" => with_records(tables::table2(opts)),
        "table3" => with_records(tables::table3(opts)),
        "table4" => with_records(tables::table4(opts)),
        "table5" => (tables::table5(opts).render(), Vec::new()),
        "fig2" => (figures::fig2(opts).render(), Vec::new()),
        "fig3" => (figures::fig3(opts, ks).render(), Vec::new()),
        "fig4" => (figures::fig4(opts).render(), Vec::new()),
        "fig5" => (figures::fig5(opts).render(10), Vec::new()),
        "ablate-delta" => (ablations::ablate_delta(opts).render(), Vec::new()),
        "ablate-gamma" => (ablations::ablate_gamma(opts).render(), Vec::new()),
        "ablate-alpha" => (ablations::ablate_alpha(opts).render(), Vec::new()),
        "ablate-covariance" => (ablations::ablate_covariance(opts).render(), Vec::new()),
        "ablate-birch-t" => (ablations::ablate_birch_threshold(opts).render(), Vec::new()),
        other => unreachable!("unvalidated command {other}"),
    }
}

/// End-of-run status table: one row per experiment plus any failed
/// method cells.
fn experiment_summary(report: &ReproReport) -> String {
    let headers =
        vec!["Experiment".to_string(), "Status".to_string(), "Secs".to_string()];
    let mut rows: Vec<Vec<String>> = report
        .experiments
        .iter()
        .map(|e| vec![e.name.clone(), e.status.clone(), format!("{:.2}", e.secs)])
        .collect();
    for m in report.methods.iter().filter(|m| m.status != "ok") {
        rows.push(vec![
            format!("{} · {} · {}", m.experiment, m.dataset, m.method),
            m.status.clone(),
            "-".to_string(),
        ]);
    }
    render_table("repro run summary", &headers, &rows)
}

fn parse_or_exit<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> T {
    args.get(i)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage_err(&format!("{flag} needs a valid value")))
}

fn usage_err(msg: &str) -> ! {
    eprintln!("error: {msg}\n");
    print_usage_and_exit()
}

fn print_usage_and_exit() -> ! {
    eprintln!(
        "usage: repro <table1|table2|table3|table4|table5|fig2|fig3|fig4|fig5|\
         ablate-delta|ablate-gamma|ablate-alpha|ablate-covariance|ablate-birch-t|all> \
         [--full] [--seed N] [--epoch-factor F] [--ks a,b,c] [--out PATH]"
    );
    std::process::exit(2)
}
