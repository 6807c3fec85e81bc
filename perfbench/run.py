#!/usr/bin/env python3
"""Verification benchmark runner.

Builds the verifier and the benchmark runners from this source tree
(Release, into .bench_build/), runs one workload in its own
single-threaded process, and relays its output. The last line of
stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics for --trace 0 and the
per-layer metrics of the traced replica for --trace 1.

Run from the root of the source tree:

    python3 perfbench/run.py --workload deep_h4 --seed 1 --seconds 10 --trace 0

Exits non-zero, printing no result, when the build, the run or the
result check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
ANSWERS = os.path.join(HERE, "answers.tsv")
WORKLOADS = ("deep_h4", "gen_corpus")
BUILD_TIMEOUT_S = 850
# A run stops starting new work after --seconds; the slack covers the
# item in flight (a gen_corpus pass takes about 5 s, twice that traced).
RUN_SLACK_S = 60


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "verifier.h")):
        fail(f"no verifier sources under {ROOT}/src")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        step(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", BUILD, "-j", jobs,
          "--target", "perfbench_timed", "perfbench_traced"])


def step(cmd):
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{' '.join(cmd)}: {e}")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"{' '.join(cmd)} exited with {done.returncode}")


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("the run printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"malformed result keys {sorted(result)}")
    want = expected_metrics(trace)
    if want is not None and sorted(result["metrics"]) != sorted(want):
        missing = sorted(set(want) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    binary = "perfbench_traced" if args.trace else "perfbench_timed"
    cmd = [os.path.join(BUILD, binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--answers", ANSWERS]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD, f"spans_{args.workload}_{args.seed}.txt")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        fail(f"{binary} did not finish within {args.seconds + RUN_SLACK_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"{binary} exited with {done.returncode}")
    check_result(lines[-1], args.trace)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
