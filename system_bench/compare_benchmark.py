#!/usr/bin/env python3
"""A/B verdicts for the system benchmark.

  python3 system_bench/compare_benchmark.py BASE.json NEW.json

BASE and NEW are files written by `calibrate.py --out` for the parent commit
and the change, with the same --seconds, --trace and seeds. Directions and
bounds come from BENCHMARK.json. One row per workload x end-to-end metric
(untraced files) or per-layer metric (traced files):

  worse       the change's median is worse than the parent's by more than
              the metric's bound (a regression; exit status 1)
  better      the change wins at least 9 of 10 seed-paired runs and the
              medians differ by more than the parent's quartile spread
  unchanged   neither, with the parent's spread within the bound
  unresolved  the parent's spread is wider than the bound, so a change of
              that size cannot be told from noise; reported as better or
              worse only when every run of one side beats every run of the
              other

Per-layer metrics have no bound of their own; they are judged against
the end-to-end default of 10%, and a `worse` row among them does not
change the exit status.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_BOUND = 0.10


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def verdict(base, new, higher_is_better, bound):
    """base/new: {seed: value}. Returns (verdict, relative change)."""
    sign = 1.0 if higher_is_better else -1.0
    b, n = list(base.values()), list(new.values())
    med_b, med_n = statistics.median(b), statistics.median(n)
    change = sign * (med_n - med_b) / med_b if med_b else 0.0
    all_better = min(x * sign for x in n) > max(x * sign for x in b)
    all_worse = max(x * sign for x in n) < min(x * sign for x in b)
    if spread(b) > bound:
        if all_better:
            return "better", change
        if all_worse and change < -bound:
            return "worse", change
        return "unresolved", change
    if change < -bound:
        return "worse", change
    pairs = [s for s in base if s in new]
    wins = sum(1 for s in pairs if sign * (new[s] - base[s]) > 0)
    if pairs and wins >= 0.9 * len(pairs) and change > spread(b):
        return "better", change
    return "unchanged", change


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(sys.argv[1]) as f:
        base_file = json.load(f)
    with open(sys.argv[2]) as f:
        new_file = json.load(f)
    if base_file["trace"] != new_file["trace"]:
        print("BASE and NEW differ in --trace", file=sys.stderr)
        return 2
    base, new = base_file["workloads"], new_file["workloads"]
    metrics = spec["per_layer"] if base_file["trace"] else spec["end_to_end"]
    regressions = 0
    print("%-14s %-32s %12s %12s %9s %8s  %s" % (
        "workload", "metric", "base_median", "new_median", "change", "bound",
        "verdict"))
    for w in (x["name"] for x in spec["workloads"]):
        if w not in base or w not in new:
            print("%-14s missing from %s" % (w, "BASE" if w not in base else "NEW"))
            regressions += 1
            continue
        for m in metrics:
            name = m["name"]
            b = {r["seed"]: r[name] for r in base[w]["runs"] if name in r}
            n = {r["seed"]: r[name] for r in new[w]["runs"] if name in r}
            if not b or not n:
                print("%-14s %-32s missing" % (w, name))
                regressions += 1
                continue
            bound = m.get("bound", DEFAULT_BOUND)
            v, change = verdict(b, n, m["better"] == "higher", bound)
            regressions += v == "worse" and "bound" in m
            print("%-14s %-32s %12.5g %12.5g %+8.2f%% %7.1f%%  %s" % (
                w, name, statistics.median(b.values()),
                statistics.median(n.values()), 100 * change, 100 * bound, v))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
