#!/usr/bin/env python3
"""Counter-based perf-regression gate.

Compares the DETERMINISTIC exploration counters of a Google-Benchmark
JSON run against a committed baseline and fails on unexplained growth.
The gated counters (coverability nodes/edges, product states, interned
types per task scope, recorded cover-edges) are pure work counts: they are
deterministic and host-independent, so exceeding the baseline means the
change genuinely made the verifier explore more — unlike wall-clock, which
stays informational (the committed baselines come from a 1-vCPU
container; see ROADMAP.md).

Usage:
  check_bench_counters.py BASELINE.json RUN.json [--tolerance PCT] [--exact]

Exit code 1 iff a gated counter grew beyond the tolerance (default 0%),
shrank under --exact, a baselined benchmark is missing from the run, or
a run row carries a counter that is neither gated nor informational.
Benchmarks present in the run but not in the baseline are reported as
needing a baseline update, not failed.
"""

import argparse
import json
import sys

# Counters that measure work: growth is a regression. Counters absent
# from a benchmark's baseline row are skipped, so per-family counters
# live here too.
GATED = [
    "cov_nodes",
    "cov_edges",
    "product_states",
    # Distinct types interned in the engine's pool. A pool id is a
    # type's scope plus its canonical form, so canonically equal types
    # of two tasks count twice.
    "pooled_types",
    "cover_edges",
    "counter_dims",
    # Antichain entries compared by domination probes, one DominanceLeq
    # per entry visited: the dominance kernel's work count.
    # Deterministic, so the --exact gates double as the
    # probe-determinism check.
    "antichain_probes",
    # Successors the ample-prefix partial-order reduction never
    # generated. Deterministic (the ample choice is a pure function of
    # the product state), so any unexplained drift is a bug: growth
    # fails outright, shrink
    # fails under --exact and otherwise surfaces as a note next to the
    # cov_nodes growth it usually causes.
    "ample_reduced_successors",
    # Property-directed slicing (VerifierOptions::slice): services and
    # dimensions (relations + variables) dropped before the product
    # VASS is built, plus the static analyzer's finding count. All
    # three are pure functions of the input spec — any drift means the
    # analyzer's liveness facts or the slicer's cone changed, which
    # must come with a deliberate baseline re-record. sliced_* are zero
    # by construction in rows recorded with slicing off.
    "sliced_services",
    "sliced_dims",
    "diagnostics_emitted",
    # Entries the successor-enumeration memo filled (EnumMemo in
    # src/core/successor.h): one per distinct (configuration, service /
    # child / child outcome) key the products asked for, so a pure
    # function of the explored graphs. Growth means the products
    # enumerate more distinct steps.
    "enum_memo_misses",
    # Internal-service bodies the memo filled, one per distinct (input
    # base, service): the number of EnumerateInternal runs, which
    # configurations with one input projection share. Deterministic
    # like enum_memo_misses; growth means less sharing.
    "enum_body_fills",
    # Memo lookups an already-filled entry answered. Each exploration
    # prepares each product state once, so this is a pure function of
    # the explored graphs too; growth means more repeated steps.
    "enum_memo_hits",
    # Distinct cells interned in the engine's pool, a pure function of
    # the explored graphs. On the arithmetic rows (BM_Pruning_Table2)
    # these are the cells the enumeration produced; rows without
    # arithmetic intern only the empty cell.
    "pooled_cells",
]
# Deterministic but directionless: a drift is worth a look, not a fail
# (e.g. pruning MORE successors is usually good news).
INFORMATIONAL = [
    "pruned_successors",
    "deactivated_nodes",
    "antichain_peak",
    # Ample attempts that reverted to full expansion because a prefix
    # successor folded into an existing/dominated node (C3). The revert
    # is part of the deterministic replay, but the count tracks fold
    # timing rather than work done, so it is surfaced, not gated.
    "ample_full_expansions",
]
# Fields of a run row that are not exploration counters: Google
# Benchmark's own fields, the rows' parameters and their throughput
# rate. Every other field is an exploration counter (ExportStats in
# bench/bench_stats.h) and must be listed in GATED or INFORMATIONAL, so
# a new one cannot go ungated silently.
ROW_FIELDS = {
    "name", "run_name", "run_type", "family_index",
    "per_family_instance_index", "repetitions", "repetition_index",
    "threads", "iterations", "real_time", "cpu_time", "time_unit",
    "label", "error_occurred", "error_message",
    "prune", "por", "slice", "num_rels", "width", "states_per_sec",
}


def load(path):
    with open(path) as f:
        data = json.load(f)
    return {
        b["name"]: b
        for b in data.get("benchmarks", [])
        if b.get("run_type", "iteration") == "iteration"
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("run")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.0,
        help="allowed growth in percent (counters are deterministic, "
        "so the default is exact)",
    )
    parser.add_argument(
        "--exact",
        action="store_true",
        help="fail on ANY drift of a gated counter, shrinks included "
        "(for determinism gates: the run must EQUAL the baseline, so a "
        "regression that explores fewer nodes fails instead of reading "
        "as an improvement)",
    )
    args = parser.parse_args()

    baseline = load(args.baseline)
    run = load(args.run)
    if not baseline:
        # A format drift (e.g. aggregates-only output) must not turn
        # the gate into a silent no-op.
        print(f"FAIL: no iteration benchmarks in {args.baseline}",
              file=sys.stderr)
        return 1
    failures = []
    notes = []

    compared = 0
    for name, base in sorted(baseline.items()):
        cur = run.get(name)
        if cur is None:
            failures.append(f"{name}: present in baseline but not in run")
            continue
        compared += 1
        for counter in GATED:
            if counter not in base:
                continue
            if counter not in cur:
                failures.append(f"{name}: counter {counter} disappeared")
                continue
            b, c = float(base[counter]), float(cur[counter])
            limit = b * (1.0 + args.tolerance / 100.0)
            if c > limit:
                failures.append(
                    f"{name}: {counter} grew {b:.0f} -> {c:.0f} "
                    f"(+{(c - b) / b * 100.0 if b else float('inf'):.1f}%)"
                )
            elif c < b:
                if args.exact:
                    failures.append(
                        f"{name}: {counter} drifted {b:.0f} -> {c:.0f} "
                        "(--exact: determinism gate, shrink is a "
                        "regression too)"
                    )
                else:
                    notes.append(
                        f"{name}: {counter} improved {b:.0f} -> {c:.0f} "
                        "(update the baseline to lock it in)"
                    )
        for counter in INFORMATIONAL:
            if counter in base and counter in cur:
                b, c = float(base[counter]), float(cur[counter])
                if b != c:
                    notes.append(
                        f"{name}: {counter} drifted {b:.0f} -> {c:.0f} "
                        "(informational)"
                    )
        # Wall clock: never gated, just surfaced.
        if "real_time" in base and "real_time" in cur:
            b, c = float(base["real_time"]), float(cur["real_time"])
            if b > 0:
                notes.append(
                    f"{name}: wall-clock {(c - b) / b:+.1%} vs baseline "
                    "(informational; hosts differ)"
                )

    known = ROW_FIELDS | set(GATED) | set(INFORMATIONAL)
    for name, cur in sorted(run.items()):
        for counter in sorted(set(cur) - known):
            failures.append(
                f"{name}: counter {counter} is neither gated nor "
                "informational (classify it in this script)"
            )

    for name in sorted(set(run) - set(baseline)):
        notes.append(f"{name}: no baseline yet (add it to the JSON)")

    if compared == 0:
        # A filter typo must not turn the gate into a silent no-op.
        failures.append("no baselined benchmark matched the run")

    for n in notes:
        print(f"note: {n}")
    if failures:
        print(f"\n{len(failures)} counter regression(s):", file=sys.stderr)
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print(f"\nOK: {compared} benchmarks within counter baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
