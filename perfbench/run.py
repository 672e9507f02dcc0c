#!/usr/bin/env python3
"""Builds the benchmark and makes one measurement.

Run from the repository root:

    python3 perfbench/run.py --workload engine --seed 1 --seconds 10 --trace 0

It builds the ``perfbench`` package with Cargo in release mode (into
``$CARGO_TARGET_DIR`` when that is set, else ``perfbench/target``), runs it
once, checks that its report carries exactly the metrics ``BENCHMARK.json``
declares for the trace mode, and prints the report as the last line of
standard output. Build and run logs go to standard error. When the build or
the run fails it exits non-zero without printing a report.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "taskdrop_perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(ROOT, target, "release", BINARY)


def check(report, expected):
    """Returns why the report breaks the output contract, or None."""
    if not isinstance(report, dict) or set(report) != {"correct", "attempted", "failed", "metrics"}:
        return "report keys differ from correct/attempted/failed/metrics"
    if not isinstance(report["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(report[key], int) or report[key] < 0:
            return f"{key} is not a whole number"
    if report["attempted"] < 1:
        return "nothing was attempted"
    metrics = report["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(expected):
        return f"metrics {sorted(metrics)} differ from {sorted(expected)}"
    for name, unit in expected.items():
        value = metrics[name].get("value")
        if metrics[name].get("unit") != unit:
            return f"{name} has unit {metrics[name].get('unit')}, not {unit}"
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{name} is not a finite number"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be non-negative and --seconds positive")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    binary = build()
    cmd = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run did not finish: {e}")
    if done.returncode != 0:
        fail(f"run failed with exit code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        fail(f"run printed no JSON report: {e}")
    problem = check(report, expected)
    if problem:
        fail(problem)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
