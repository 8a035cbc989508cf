#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 tdcbench/run.py --workload <fit-tall|fit-wide|assign> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the `tdcbench` package (release,
offline) into $CARGO_TARGET_DIR (default `.bench_build`), runs the
measuring program, and prints as its last stdout line one JSON object with
`correct`, `attempted`, `failed` and `metrics`. The line before it holds the
run's provenance.

`--trace 0` reports the end-to-end metrics of an untraced run. `--trace 1`
reports the per-layer metrics: it runs the program once untraced as the
reference, once under TABLEDC_TRACE/TABLEDC_PROFILE=alloc, validates that
trace with the repository's `trace_check`, and derives
`obs.trace_overhead_frac` from the two runs. A failed check counts in
`failed`; a trace that does not validate fails the traced run.

Exits non-zero without a result when the build or the program fails.
README.md in this directory describes every metric and workload.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fit-tall", "fit-wide", "assign")
# Events every traced run must contain: a fit always runs, and spans
# always open.
REQUIRED_EVENTS = ("tabledc.epoch", "tabledc.convergence", "span.enter")
# A run must end within 180 s of its start, build excluded.
RUN_BUDGET_S = 170.0


def fail(msg):
    print(f"tdcbench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return target if target.is_absolute() else Path.cwd() / target


def build(target):
    if not (ROOT / "crates").is_dir():
        fail(f"no repository sources next to {HERE.name}/ (expected {ROOT / 'crates'})")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return target / "release"


def source_digest():
    """SHA-256 over the sources the benchmark builds, for provenance when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    roots = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / "crates", ROOT / "vendor", HERE]
    files = []
    for r in roots:
        if r.is_file():
            files.append(r)
        elif r.is_dir():
            files.extend(p for p in r.rglob("*") if p.is_file() and p.suffix in (".rs", ".toml", ".lock", ".py"))
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def epoch_medians(trace):
    """Exact median epoch times from the trace's per-epoch events (the
    registry histograms behind them have ~19%-wide buckets)."""
    times = {"tabledc.epoch": [], "ae.pretrain_epoch": []}
    with open(trace) as f:
        for line in f:
            try:
                event = json.loads(line)
            except ValueError:
                continue  # trace_check reports the corrupt line
            if event.get("event") in times and "epoch_ms" in event:
                times[event["event"]].append(event["epoch_ms"])
    return {
        "tabledc.epoch_ms.p50": {"value": statistics.median(times["tabledc.epoch"] or [0.0]), "unit": "ms"},
        "ae.pretrain_epoch_ms.p50": {"value": statistics.median(times["ae.pretrain_epoch"] or [0.0]), "unit": "ms"},
    }


def run_program(exe, args, seconds, deadline, extra_env=None):
    """Runs the measuring program; returns (provenance, result)."""
    cmd = [
        str(exe), "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
        "--trace", "1" if extra_env else "0", "--out", str(exe.parent.parent / "tdcbench-out"),
    ]
    # Tracing and profiling are set here only, never inherited.
    env = {k: v for k, v in os.environ.items() if k not in ("TABLEDC_TRACE", "TABLEDC_PROFILE", "TABLEDC_FOLDED")}
    env.update(extra_env or {})
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} run exceeded its time budget")
    if proc.returncode != 0:
        fail(f"{args.workload} run exited with {proc.returncode}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    if len(lines) < 2 or "provenance" not in lines[-2]:
        fail("program printed no result")
    result = lines[-1]
    if any(m["value"] is None for m in result["metrics"].values()):
        fail("a metric is not finite")
    return lines[-2]["provenance"], result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    target = target_dir()
    bin_dir = build(target)
    deadline = time.monotonic() + RUN_BUDGET_S
    exe = bin_dir / "tdcbench"

    if args.trace == 0:
        provenance, result = run_program(exe, args, args.seconds, deadline)
        runs = [result]
        metrics = result["metrics"]
        trace_ok = True
    else:
        # The untraced reference runs the minimum the program allows.
        _, reference = run_program(exe, args, 1, deadline)
        trace = target / "tdcbench-out" / f"trace-{args.workload}.jsonl"
        trace.parent.mkdir(parents=True, exist_ok=True)
        provenance, traced = run_program(
            exe, args, args.seconds, deadline, {"TABLEDC_TRACE": str(trace), "TABLEDC_PROFILE": "alloc"})
        check = subprocess.run([str(bin_dir / "trace_check"), str(trace), *REQUIRED_EVENTS],
                               stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()))
        trace_ok = check.returncode == 0
        runs = [reference, traced]
        metrics = dict(traced["metrics"], **epoch_medians(trace))
        metrics["obs.trace_overhead_frac"] = {
            "value": traced["basis"] / reference["basis"] - 1.0, "unit": "ratio"}

    attempted = sum(r["attempted"] for r in runs) + (0 if args.trace == 0 else 1)
    failed = sum(r["failed"] for r in runs) + (0 if trace_ok else 1)
    provenance.update(commit=commit(), source_sha256=source_digest())
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": failed == 0 and all(r["correct"] for r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
