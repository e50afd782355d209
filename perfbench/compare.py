#!/usr/bin/env python3
"""Compare two sets of benchmark runs: a base and a change.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR [--benchmark FILE]
    python3 perfbench/compare.py --self-test

Each directory holds the standard output of run.py, one file per run.
Runs pair by (workload, seed).  For every workload x end-to-end metric
the verdict follows the choosing-metrics rule, with the bound read from
BENCHMARK.json:

  unresolved  either side's spread (quartile distance / median) exceeds
              the bound, unless every change run beats every base run
  worse       the change's median is worse than the base median by more
              than the bound
  better      at least 10 pairs, the change wins at least 9 in 10 of them
              (ties count for neither) and the medians differ by more
              than the base's quartile distance
  same        otherwise

The exit status is 1 when any row is "worse" or a run is incorrect.
"""

import argparse
import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, bound, better, pairs):
    """base, change: lists of values; pairs: (base, change) by seed."""
    sign = 1.0 if better == "lower" else -1.0

    def gain(a, b):  # > 0 when b is better than a
        return sign * (a - b)

    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    spread_b = (bq3 - bq1) / abs(bmed) if bmed else float("inf")
    spread_c = (cq3 - cq1) / abs(cmed) if cmed else float("inf")
    if spread_b > bound or spread_c > bound:
        if all(gain(a, b) > 0 for a in base for b in change):
            return "better"
        return "unresolved"
    if -gain(bmed, cmed) > bound * abs(bmed):
        return "worse"
    wins = sum(1 for a, b in pairs if gain(a, b) > 0)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and gain(bmed, cmed) > bq3 - bq1):
        return "better"
    return "same"


def load(directory):
    """{workload: {seed: result}} from every run output in a directory."""
    runs = {}
    for f in sorted(os.listdir(directory)):
        path = os.path.join(directory, f)
        if not os.path.isfile(path):
            continue
        with open(path) as fh:
            lines = [l for l in fh.read().splitlines() if l.startswith("{")]
        try:
            info = next(json.loads(l)["info"] for l in lines if l.startswith('{"info"'))
            result = json.loads(lines[-1])
        except (StopIteration, ValueError, KeyError, IndexError):
            print("skipping %s: not a run output" % path, file=sys.stderr)
            continue
        runs.setdefault(info["workload"], {})[info["seed"]] = result
    return runs


def compare(base_dir, change_dir, spec):
    base, change = load(base_dir), load(change_dir)
    bad = False
    print("%-11s %-16s %14s %14s %8s %7s %7s  %s" % (
        "workload", "metric", "base", "change", "delta", "spreadB", "spreadC",
        "verdict"))
    for w in [x["name"] for x in spec["workloads"]]:
        b_runs, c_runs = base.get(w, {}), change.get(w, {})
        if not b_runs or not c_runs:
            print("%-11s (no runs on one side)" % w)
            continue
        for side, runs in (("base", b_runs), ("change", c_runs)):
            if not all(r["correct"] for r in runs.values()):
                print("%-11s %s has an incorrect run" % (w, side))
                bad = True
        b_failed = statistics.median(r["failed"] for r in b_runs.values())
        c_failed = statistics.median(r["failed"] for r in c_runs.values())
        if c_failed > b_failed:
            print("%-11s more operations fail (%g > %g): no gain counts" % (
                w, c_failed, b_failed))
        seeds = sorted(set(b_runs) & set(c_runs))
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in b_runs.values()]
            cv = [r["metrics"][name]["value"] for r in c_runs.values()]
            pairs = [(b_runs[s]["metrics"][name]["value"],
                      c_runs[s]["metrics"][name]["value"]) for s in seeds]
            v = verdict(bv, cv, m["bound"], m["better"], pairs)
            if c_failed > b_failed and v == "better":
                v = "same"
            bad = bad or v == "worse"
            bq1, bmed, bq3 = quartiles(bv)
            cq1, cmed, cq3 = quartiles(cv)
            print("%-11s %-16s %14.6g %14.6g %+7.1f%% %6.1f%% %6.1f%%  %s" % (
                w, name, bmed, cmed, 100 * (cmed - bmed) / bmed if bmed else 0,
                100 * (bq3 - bq1) / bmed if bmed else 0,
                100 * (cq3 - cq1) / cmed if cmed else 0, v))
    return 1 if bad else 0


def self_test():
    base = [1.0 + 0.002 * i for i in range(10)]
    pairs = lambda a, b: list(zip(a, b))
    cases = [
        ("identical runs", base, list(base), "same"),
        ("20% regression", base, [1.2 * x for x in base], "worse"),
        ("20% gain", base, [0.8 * x for x in base], "better"),
        ("overlapping wide spreads",
         [0.6, 1.4, 0.8, 1.2, 1.0, 0.7, 1.3, 0.9, 1.1, 1.05],
         [0.65, 1.35, 0.85, 1.25, 1.0, 0.75, 1.3, 0.95, 1.1, 1.0], "unresolved"),
        ("gain on too few pairs", base[:5], [0.8 * x for x in base[:5]], "same"),
    ]
    failed = 0
    for label, a, b, want in cases:
        got = verdict(a, b, 0.10, "lower", pairs(a, b))
        ok = got == want
        failed += not ok
        print("%-26s %-10s %s" % (label, got, "ok" if ok else "WANTED " + want))
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"))
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if a.self_test:
        return self_test()
    if a.base is None or a.change is None:
        ap.error("BASE_DIR and CHANGE_DIR are required")
    with open(a.benchmark) as f:
        spec = json.load(f)
    return compare(a.base, a.change, spec)


if __name__ == "__main__":
    sys.exit(main())
