#!/usr/bin/env python3
"""Checks the benchmark's exact work counters against BENCH_counters.json.

Run from the repository root:

    python3 scripts/bench_counters.py            # compare, exit 1 on any difference
    python3 scripts/bench_counters.py --write    # rewrite BENCH_counters.json

For every workload in ``BENCHMARK.json`` it runs one short traced pass,
``perfbench/run.py --workload <name> --seed 1 --seconds 1 --trace 1``, and
requires the pass to be correct with no failed passes. The ``count``-unit
metrics of that report are exact per-pass work counters: they depend on the
code and the seed, never on the host. In compare mode each one must equal
its committed value, and the committed key set must equal the ``count``-unit
``per_layer`` metrics ``BENCHMARK.json`` declares. With ``--write`` the
measured counters replace the committed file; refresh it only when a change
is meant to alter engine behaviour, and say why in CHANGES.md.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNTERS = os.path.join(ROOT, "BENCH_counters.json")
SEED = 1


def measure(workload):
    """Returns the count metrics of one traced pass of `workload`."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload}: perfbench exited with code {done.returncode}")
    report = json.loads(done.stdout.splitlines()[-1])
    if report["correct"] is not True or report["failed"] != 0:
        sys.exit(f"{workload}: {report['failed']} of {report['attempted']} passes failed")
    print(f"perfbench {workload}: {report['attempted']} passes, all correct")
    return {name: metric["value"] for name, metric in report["metrics"].items()
            if metric["unit"] == "count"}


def main():
    write = sys.argv[1:] == ["--write"]
    if sys.argv[1:] and not write:
        sys.exit("usage: bench_counters.py [--write]")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    declared = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
    measured = {w: measure(w) for w in workloads}

    if write:
        body = {w: {name: int(value) for name, value in counts.items()}
                for w, counts in measured.items()}
        with open(COUNTERS, "w", encoding="utf-8") as f:
            json.dump({"seed": SEED, "workloads": body}, f, indent=2)
            f.write("\n")
        print(f"wrote {COUNTERS}")
        return

    with open(COUNTERS, encoding="utf-8") as f:
        committed = json.load(f)
    problems = []
    if committed["seed"] != SEED:
        problems.append(f"committed seed {committed['seed']} is not {SEED}")
    if sorted(committed["workloads"]) != sorted(workloads):
        problems.append(f"committed workloads {sorted(committed['workloads'])} "
                        f"differ from BENCHMARK.json's {sorted(workloads)}")
    for w in workloads:
        expected = committed["workloads"].get(w, {})
        if set(expected) != declared:
            problems.append(f"{w}: committed counters lack {sorted(declared - set(expected))} "
                            f"and add {sorted(set(expected) - declared)} against "
                            f"BENCHMARK.json's count metrics")
        for name in sorted(declared):
            got, want = measured[w].get(name), expected.get(name)
            if got != want:
                problems.append(f"{w}.{name}: measured {got}, committed {want}")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        sys.exit(f"{len(problems)} difference(s) from BENCH_counters.json")
    print(f"{len(workloads) * len(declared)} counters equal BENCH_counters.json")


if __name__ == "__main__":
    main()
