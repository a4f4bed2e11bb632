#!/usr/bin/env python3
"""End-to-end CAFQA benchmark: build the binary from source, run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper_bayes --seed 1 --seconds 20 --trace 0

The benchmark binary (perfbench/main.cpp) and the library it links are built with
CMake into .bench_build/perfbench on first use; later runs only check
that the build is current. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Build output goes
to standard error. The exit code is the binary's: 0 only when every
output was correct.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TREE = os.path.dirname(HERE)
BUILD = os.path.join(TREE, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "cafqa_perfbench")
WORKLOADS = ("paper_bayes", "dense_tune", "served_mix")
# One run measures for --seconds, plus set-up and the correctness replay;
# a run that takes far longer is hung, not slow.
RUN_TIMEOUT_S = 170


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then bring the binary up to date."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(TREE, needed)):
            fail("no CAFQA source tree here (missing %s); run from the root "
                 "of a checkout" % needed, 2)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed", 3)
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD, "--target", "cafqa_perfbench",
            "--parallel", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    with subprocess.Popen(command, cwd=TREE) as bench:
        try:
            code = bench.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            bench.kill()
            bench.wait()
            fail("cafqa_perfbench exceeded %d s" % RUN_TIMEOUT_S, 4)
    sys.exit(code)


if __name__ == "__main__":
    main()
