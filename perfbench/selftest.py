#!/usr/bin/env python3
"""Small-size self-test of the verification benchmark's runners.

Builds the runners (as run.py does) and runs every workload once in the
timed and once in the traced runner, over a shrunken gen_corpus pool
(the first few recorded specs) and the shortest measuring time. Checks:

  - each result line has the metric names BENCHMARK.json lists, for its
    mode, and numeric values;
  - every verdict matches the known answers (correct, failed == 0);
  - the traced replica is counter-identical to Verify on every item
    (a mismatch makes the traced run incorrect);
  - the workload seed is printed with the results;
  - a flipped known answer makes the timed run incorrect.

Run from the root of the source tree: python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

import run

SMALL_POOL = 4


def answers_file(name, flip=None):
    """A copy of answers.tsv holding deep_h4 and SMALL_POOL corpus
    specs; `flip` names an item whose verdict is inverted."""
    lines, specs = [], []
    with open(run.ANSWERS) as f:
        for line in f:
            if line.startswith("#"):
                continue
            item, verdict = line.rstrip("\n").split("\t")
            spec = item.split("/")[0]
            if spec.startswith("gen"):
                if spec not in specs:
                    specs.append(spec)
                if len(specs) > SMALL_POOL:
                    continue
            if item == flip:
                verdict = "HOLDS" if verdict == "VIOLATED" else "VIOLATED"
            lines.append(f"{item}\t{verdict}\n")
    path = os.path.join(run.BUILD, name)
    with open(path, "w") as f:
        f.writelines(lines)
    return path


def drive(binary, workload, answers, seed=7):
    cmd = [os.path.join(run.BUILD, binary), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.01", "--answers", answers]
    if binary == "perfbench_traced":
        cmd += ["--trace-out", os.path.join(run.BUILD, "selftest_spans.txt")]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=120, check=True)
    lines = done.stdout.rstrip("\n").split("\n")
    return lines, json.loads(lines[-1])


def main():
    run.build()
    answers = answers_file("selftest_answers.tsv")
    problems = []
    for workload in run.WORKLOADS:
        for binary, trace in (("perfbench_timed", 0), ("perfbench_traced", 1)):
            lines, result = drive(binary, workload, answers)
            where = f"{binary} {workload}"
            want = run.expected_metrics(trace)
            if sorted(result["metrics"]) != sorted(want):
                problems.append(f"{where}: metric names differ")
            if not all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values()):
                problems.append(f"{where}: non-numeric metric")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: incorrect: {lines[:-1]}")
            if result["attempted"] < 1:
                problems.append(f"{where}: nothing attempted")
            if not any(f"{workload} seed 7" in line for line in lines):
                problems.append(f"{where}: seed not printed")
            print(f"ok {where}: {result['attempted']} verified")

    flipped = answers_file("selftest_flipped.tsv", flip="deep_h4/property")
    _, result = drive("perfbench_timed", "deep_h4", flipped)
    if result["correct"] or result["failed"] == 0:
        problems.append("a wrong known answer went unnoticed")
    else:
        print("ok a flipped known answer fails the run")

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
