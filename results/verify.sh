#!/bin/bash
# Tier-1 verification gate plus a serial-vs-parallel runtime smoke, a
# traced-run observability smoke for TableDC and for the deep baselines, a
# training-health/ledger gate, and a perf-regression gate.
#
#   1. cargo build --release && cargo test -q   (the repo's tier-1 gate),
#      then a determinism step: the tabledc and baselines golden_fit tests
#      in release under TABLEDC_THREADS=1 and again under
#      TABLEDC_THREADS=4, so the five golden fit hashes (TableDC, SDCN,
#      DFCN, DCRN, EDESC) must hold on a serial and a four-thread pool,
#      then cargo clippy --workspace --all-targets --release with
#      -D warnings: any lint warning fails the gate.
#   2. par_smoke example: times sq_euclidean_cdist on a 2000x128 matrix,
#      matmul at the fit-tall forward shape (4248x160 . 160x256),
#      matmul_tn at its backward shape (160x4248 . 4248x256), the fused
#      dense layer's forward and backward at the fit-tall first layer
#      (4248x160 -> 256, ReLU), TableDC's one-node clustering head
#      (Head::cluster_head: scale, kernel, q, softmax, target rows and
#      loss sums) and its one-pass backward at the fit-wide shape (2050
#      latent rows, 684 centers),
#      one 64-row request to a frozen TableDC model at the assign shape
#      (d=160, hidden [256,128], latent 48, k=684), and Birch's global
#      step at the fit-wide shape (weighted k-means, 8 restarts, 1950x48
#      subclusters, k=684), each on a 1-thread pool vs the full pool;
#      asserts every pair of outputs is bit-identical (for Birch's step:
#      labels, centroids, inertia and iteration count), and fails if any
#      parallel run is >1.5x slower than serial. Its header names the
#      compiled kernel copy CPU detection picked (plain, avx2 or avx512),
#      so the log records which kernel these gates measured.
#   3. quickstart under TABLEDC_TRACE=<file> + TABLEDC_PROFILE=alloc +
#      TABLEDC_FOLDED=<file> + TABLEDC_HEALTH=strict: the emitted trace
#      must be valid JSON lines with monotone timestamps, balanced
#      per-thread spans, finite nn.grad_norm telemetry, and the per-epoch
#      training events (checked by the trace_check binary, which also
#      enforces the health.abort -> health.dump contract). No `series`
#      event is required: the decimated obs::series copies are gone, and
#      the values they summarized are required through tabledc.epoch and
#      tabledc.diag, which carry every History value bit for bit (pinned
#      by crates/baselines/tests/event_contract.rs). Every grad.<name>
#      field of an nn.grad_norm event (one per parameter) must be a finite
#      number: the event is emitted only when the global norm is finite,
#      and a non-finite parameter norm makes the global norm non-finite.
#      The run must be violation-free under the strict policy; the
#      folded-stack export must be non-empty and rooted at tabledc.fit.
#   4. baseline trace gate: repro fig5 --epoch-factor 0.1 (TableDC, SDCN,
#      DFCN and EDESC, about 7 s) under TABLEDC_TRACE=<file> +
#      TABLEDC_HEALTH=strict. All four methods train through one epoch
#      driver, so trace_check must find tabledc.epoch, baseline.epoch,
#      baseline.diag, baseline.convergence and nn.grad_norm events (the
#      last from every method), per-fit monotone epochs and the
#      health.abort -> health.dump contract; the run's manifest must be
#      healthy under the strict policy.
#   5. run-ledger gate: the quickstart run must write a well-formed
#      manifest (healthy verdict, zero violations); `runs diff` of that
#      manifest against itself must pass (exit 0) and the committed
#      fixture pair (baseline vs doctored metric drop + aborted verdict)
#      must fail (exit 1).
#   6. report gate: the committed fixture manifest must render to HTML
#      byte-identically across two separate processes and match the
#      committed golden page; the page must carry the expected section
#      ids and sparklines and never the literal NaN; the diff render of
#      the doctored fixture must flag the regression; the quickstart
#      manifest + trace must render with convergence verdict, diag
#      sparklines, and a span-tree profile; `runs list --json` must
#      emit the quickstart run.
#   7. repro table2 compared against the committed
#      results/BENCH_baseline.json with perfdiff: per-experiment and
#      per-method wall times and per-phase profile self-times must stay
#      within TABLEDC_PERF_TOL (default 1.5x, plus absolute floors so
#      near-zero phases never flake the gate). Runs with TABLEDC_HEALTH=off
#      to confirm the telemetry layer adds no gated cost even when health
#      checking is disabled.
#
# Usage: results/verify.sh   (from anywhere; cd's to the repo root)
set -e
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== determinism: golden fits on a 1- and a 4-thread pool =="
for threads in 1 4; do
    TABLEDC_THREADS=$threads cargo test -q --release -p tabledc -p baselines --test golden_fit
done

echo "== lint: cargo clippy -D warnings =="
cargo clippy --workspace --all-targets --release -- -D warnings

echo "== runtime smoke: serial vs parallel cdist, matmul, fused layer, fused head, frozen request and Birch global step =="
# Exercise real multi-thread scheduling even on single-core CI boxes; the
# example still applies its slowdown gate.
TABLEDC_THREADS=${TABLEDC_THREADS:-4} cargo run --release -q -p bench --example par_smoke

echo "== observability smoke: traced + profiled quickstart under strict health =="
trace_file=$(mktemp /tmp/tabledc_trace.XXXXXX.jsonl)
folded_file=$(mktemp /tmp/tabledc_folded.XXXXXX.txt)
perf_file=$(mktemp /tmp/tabledc_perf.XXXXXX.json)
fig5_trace=$(mktemp /tmp/tabledc_fig5_trace.XXXXXX.jsonl)
fig5_report=$(mktemp /tmp/tabledc_fig5.XXXXXX.json)
runs_dir=$(mktemp -d /tmp/tabledc_runs.XXXXXX)
trap 'rm -f "$trace_file" "$folded_file" "$perf_file" "$fig5_trace" "$fig5_report"; rm -rf "$runs_dir"' EXIT
quickstart_out=$(TABLEDC_TRACE="$trace_file" TABLEDC_PROFILE=alloc TABLEDC_FOLDED="$folded_file" \
    TABLEDC_HEALTH=strict TABLEDC_RUNS_DIR="$runs_dir" \
    cargo run --release -q -p bench --example quickstart)
cargo run --release -q -p bench --bin trace_check -- "$trace_file" \
    ae.pretrain_epoch tabledc.epoch tabledc.diag tabledc.convergence \
    nn.grad_norm span.enter span.exit
test -s "$folded_file" || { echo "folded export is empty"; exit 1; }
grep -q '^tabledc\.fit;' "$folded_file" \
    || { echo "folded export has no tabledc.fit subtree"; cat "$folded_file"; exit 1; }
echo "$quickstart_out" | grep -q 'health: healthy (0 violations)' \
    || { echo "quickstart was not violation-free under strict health"; echo "$quickstart_out"; exit 1; }

echo "== baseline trace gate: traced fig5 (TableDC, SDCN, DFCN, EDESC) under strict health =="
TABLEDC_TRACE="$fig5_trace" TABLEDC_HEALTH=strict TABLEDC_RUNS_DIR="$runs_dir" \
    cargo run --release -q -p bench --bin repro -- fig5 --epoch-factor 0.1 --out "$fig5_report" > /dev/null
cargo run --release -q -p bench --bin trace_check -- "$fig5_trace" \
    tabledc.epoch baseline.epoch baseline.diag baseline.convergence nn.grad_norm
grep -q '"verdict": "healthy"' "$runs_dir"/repro-fig5-*.json \
    || { echo "fig5 was not violation-free under strict health"; cat "$runs_dir"/repro-fig5-*.json; exit 1; }

echo "== run-ledger gate: manifest + runs diff =="
manifest=$(ls "$runs_dir"/quickstart-*.json 2>/dev/null | head -1)
test -n "$manifest" || { echo "quickstart wrote no run manifest in $runs_dir"; exit 1; }
grep -q '"verdict": "healthy"' "$manifest" \
    || { echo "manifest verdict is not healthy"; cat "$manifest"; exit 1; }
grep -q '"violations": 0' "$manifest" \
    || { echo "manifest records violations"; cat "$manifest"; exit 1; }
grep -q '"convergence"' "$manifest" \
    || { echo "manifest carries no convergence verdict"; cat "$manifest"; exit 1; }
# `runs show` re-parses the manifest; any schema breakage exits 2 here.
cargo run --release -q -p bench --bin runs -- show "$manifest" > /dev/null
cargo run --release -q -p bench --bin runs -- diff "$manifest" "$manifest"
set +e
cargo run --release -q -p bench --bin runs -- \
    diff results/runs/fixture-baseline.json results/runs/fixture-regressed.json
fixture_rc=$?
set -e
test "$fixture_rc" -eq 1 \
    || { echo "expected runs diff exit 1 on the doctored fixture, got $fixture_rc"; exit 1; }

echo "== report gate: deterministic HTML run reports =="
html_a=$(mktemp /tmp/tabledc_report_a.XXXXXX.html)
html_b=$(mktemp /tmp/tabledc_report_b.XXXXXX.html)
trap 'rm -f "$trace_file" "$folded_file" "$perf_file" "$fig5_trace" "$fig5_report" "$html_a" "$html_b"; rm -rf "$runs_dir"' EXIT
cargo run --release -q -p bench --bin report -- results/runs/fixture-baseline.json --out "$html_a"
cargo run --release -q -p bench --bin report -- results/runs/fixture-baseline.json --out "$html_b"
cmp -s "$html_a" "$html_b" \
    || { echo "report is not deterministic across two renders"; exit 1; }
cmp -s "$html_a" results/runs/fixture-baseline.html \
    || { echo "report diverges from the committed golden page; regenerate it with"; \
         echo "  cargo run -p bench --bin report -- results/runs/fixture-baseline.json --out results/runs/fixture-baseline.html"; exit 1; }
for id in run-header health convergence metrics series spark-re_loss spark-delta_label_frac; do
    grep -q "id=\"$id\"" "$html_a" \
        || { echo "report is missing element id $id"; exit 1; }
done
! grep -q 'NaN' "$html_a" || { echo "report contains a NaN literal"; exit 1; }
cargo run --release -q -p bench --bin report -- results/runs/fixture-regressed.json \
    --diff results/runs/fixture-baseline.json --out "$html_b"
grep -q 'id="diff"' "$html_b" || { echo "diff render has no diff section"; exit 1; }
grep -q 'tabledc/ari' "$html_b" \
    || { echo "diff render does not flag the doctored metric"; exit 1; }
# The traced quickstart run renders with its trace folded in.
cargo run --release -q -p bench --bin report -- "$manifest" --trace "$trace_file" --out "$html_a"
grep -q 'id="profile"' "$html_a" || { echo "traced render has no profile section"; exit 1; }
grep -q 'id="convergence"' "$html_a" || { echo "traced render has no convergence section"; exit 1; }
TABLEDC_RUNS_DIR="$runs_dir" cargo run --release -q -p bench --bin runs -- list --json \
    | grep -q '"run_id": "quickstart-' \
    || { echo "runs list --json does not list the quickstart run"; exit 1; }

echo "== perf gate: repro table2 vs committed baseline (health checks off) =="
# --epoch-factor 0.35 matches how results/BENCH_baseline.json was
# generated (and the committed repro_all practice) — the gate compares
# like with like and stays fast enough to run on every verify. The run's
# own manifest goes to the scratch runs dir, not the committed fixtures.
TABLEDC_HEALTH=off TABLEDC_RUNS_DIR="$runs_dir" \
    cargo run --release -q -p bench --bin repro -- table2 --epoch-factor 0.35 \
    --out "$perf_file" > /dev/null
cargo run --release -q -p bench --bin perfdiff -- \
    results/BENCH_baseline.json "$perf_file" --tolerance "${TABLEDC_PERF_TOL:-1.5}"

echo "verify.sh: all gates passed"
