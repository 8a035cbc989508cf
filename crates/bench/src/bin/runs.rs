//! `runs` — inspect and compare run-ledger manifests.
//!
//! ```text
//! cargo run -p bench --bin runs -- <command>
//!
//! Commands:
//!   list [--json]            list manifests in the runs directory,
//!                            sorted by run timestamp; --json emits one
//!                            JSON array with id, command, timestamp,
//!                            health verdict, convergence status, and path
//!   show <run>               print one manifest's JSON
//!   diff <base> <cand>       compare two runs' quality metrics and health
//!     [--ratio R]            worse-than multiplier that flags a metric
//!                            regression [default: 1.1]
//!
//! <run> is a manifest file path, or a run id resolved against the runs
//! directory (`TABLEDC_RUNS_DIR`, default `results/runs`).
//!
//! Exit codes (diff): 0 no regressions, 1 regressions found, 2 usage or
//! parse failure — mirroring `perfdiff` so CI can gate on either.
//! ```

use bench::ledger::{diff_manifests, runs_dir, RunManifest};
use bench::perfdiff::Tolerance;
use obs::json::Json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => match args.get(1).map(String::as_str) {
            None => list(false),
            Some("--json") => list(true),
            Some(other) => usage(&format!("unknown list flag {other}")),
        },
        Some("show") => show(args.get(1).unwrap_or_else(|| usage("show needs a run"))),
        Some("diff") => diff(&args[1..]),
        _ => {
            usage("missing command");
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: runs <list [--json] | show <run> | diff <base> <cand> [--ratio R]>");
    std::process::exit(2)
}

/// Resolves a run argument to a manifest path: an existing file wins,
/// otherwise `<runs_dir>/<arg>.json`.
fn resolve(arg: &str) -> String {
    if std::path::Path::new(arg).is_file() {
        return arg.to_string();
    }
    let candidate = runs_dir().join(format!("{arg}.json"));
    candidate.to_string_lossy().into_owned()
}

fn list(json: bool) {
    let dir = runs_dir();
    let entries = match std::fs::read_dir(&dir) {
        Ok(e) => e,
        Err(_) if json => {
            println!("[]");
            return;
        }
        Err(_) => {
            println!("no runs recorded in {}", dir.display());
            return;
        }
    };
    let mut manifests: Vec<(RunManifest, String)> = entries
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .filter_map(|e| {
            let path = e.path().to_string_lossy().into_owned();
            RunManifest::load(&path).ok().map(|m| (m, path))
        })
        .collect();
    if manifests.is_empty() && !json {
        println!("no runs recorded in {}", dir.display());
        return;
    }
    // Run timestamp first; the id breaks ties so the order is total.
    manifests.sort_by(|(a, _), (b, _)| {
        a.created_unix_ms.cmp(&b.created_unix_ms).then_with(|| a.run_id.cmp(&b.run_id))
    });
    if json {
        print!("{}", render_list_json(&manifests));
    } else {
        for (m, _) in &manifests {
            println!("{}", m.summary_line());
        }
    }
}

/// Machine-readable `runs list`: one JSON array, ordered like the plain
/// listing, one run per line.
fn render_list_json(manifests: &[(RunManifest, String)]) -> String {
    let runs = manifests.iter().map(|(m, path)| {
        Json::obj([
            ("run_id", m.run_id.as_str().into()),
            ("command", m.command.as_str().into()),
            ("created_unix_ms", m.created_unix_ms.into()),
            ("health", m.health.verdict.as_str().into()),
            ("convergence", m.convergence.as_ref().map(|c| c.status.as_str()).into()),
            ("path", path.as_str().into()),
        ])
    });
    Json::Arr(runs.collect()).render(1) + "\n"
}

fn show(run: &str) {
    let path = resolve(run);
    match RunManifest::load(&path) {
        // Re-serialize instead of cat-ing the file: proves the manifest
        // parses and normalizes its formatting.
        Ok(m) => print!("{}", m.to_json()),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

fn diff(args: &[String]) {
    let mut ratio = 1.1;
    let mut positional: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--ratio" => {
                i += 1;
                ratio = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--ratio needs a number"));
            }
            _ => positional.push(&args[i]),
        }
        i += 1;
    }
    let [base_arg, cand_arg] = positional[..] else {
        usage("diff needs <base> and <cand>");
    };
    let load = |arg: &str| -> RunManifest {
        RunManifest::load(&resolve(arg)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    };
    let base = load(base_arg);
    let cand = load(cand_arg);
    let tol = Tolerance { ratio, ..Tolerance::default() };
    let report = diff_manifests(&base, &cand, &tol);
    print!("{}", report.render_as("runs diff"));
    if report.has_regressions() {
        std::process::exit(1);
    }
}
