#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload once, untraced and traced.

Run from the root of a source checkout:

    python3 perfbench/smoke_test.py

Each run uses --seconds 1, so a solo workload makes one pass and the
served workload its fixed minimum of jobs. The test asserts that every
run is correct and emits every metric BENCHMARK.json names, with its
unit and a finite value, and nothing else. It takes a few minutes.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TREE = os.path.dirname(HERE)


def check_run(spec, workload, trace):
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", "1", "--seconds", "1", "--trace",
               str(trace)]
    done = subprocess.run(command, cwd=TREE, stdout=subprocess.PIPE,
                          text=True)
    problems = []
    if done.returncode != 0:
        problems.append("exit code %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return problems + ["last line is not a JSON result"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("not correct: %d of %d failed"
                        % (result.get("failed", -1),
                           result.get("attempted", -1)))
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in expected}
    for name in sorted(set(metrics) - set(want)):
        problems.append("unexpected metric %s" % name)
    for name, unit in want.items():
        got = metrics.get(name)
        if got is None:
            problems.append("missing metric %s" % name)
        elif got.get("unit") != unit:
            problems.append("%s has unit %r, want %r"
                            % (name, got.get("unit"), unit))
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append("%s has value %r" % (name, got.get("value")))
    return problems


def main():
    with open(os.path.join(TREE, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(spec, workload, trace)
            status = "ok" if not problems else "FAIL"
            print("%-4s %s --trace %d" % (status, workload, trace))
            for problem in problems:
                print("     " + problem)
            failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
