#!/usr/bin/env python3
"""Runs sets of system-benchmark runs, or a smoke check of every workload.

  python3 system_bench/calibrate.py --runs N [--seconds T] [--trace 0|1]
        [--seed-base S] [--workloads a,b] [--out FILE]
      One run per workload for each seed S, S+1, ..., S+N-1, seeds
      interleaved across workloads. Prints each metric's median, min, max
      and quartile spread ((q3 - q1) / median, quartiles as
      statistics.quantiles(values, n=4) gives them) next to its bound, and
      writes every run plus the summary to FILE. compare_benchmark.py
      compares two such files.

  python3 system_bench/calibrate.py --smoke
      Every workload at scale 10 for 1 s, untraced and traced: each run must
      exit 0, pass verification, fail no operation, and print exactly the
      metrics BENCHMARK.json lists (end_to_end untraced, per_layer traced)
      with their units.

Runs go through run_benchmark.sh, so the first one builds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNNER = os.path.join(HERE, "run_benchmark.sh")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace, extra=()):
    cmd = ["bash", RUNNER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited %d\n%s" % (" ".join(cmd), proc.returncode,
                                                 proc.stderr[-4000:]))
    return json.loads(lines[-1])


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "min": min(values), "max": max(values),
            "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def calibrate(args):
    spec = load_spec()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    runs = {w: [] for w in workloads}
    for i in range(args.runs):
        seed = args.seed_base + i
        for w in workloads:
            result = run_once(w, seed, args.seconds, args.trace)
            if not result["correct"] or result["failed"]:
                raise RuntimeError("%s seed %d: correct=%s failed=%d" % (
                    w, seed, result["correct"], result["failed"]))
            row = {"seed": seed}
            row.update({k: v["value"] for k, v in result["metrics"].items()})
            runs[w].append(row)
            print("%-14s seed=%-6d %s" % (w, seed, " ".join(
                "%s=%.4g" % (k, v) for k, v in row.items() if k != "seed")),
                flush=True)
    out = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    print("\n%-14s %-34s %12s %12s %12s %8s %6s" % (
        "workload", "metric", "median", "min", "max", "spread", "bound"))
    for w in workloads:
        names = [k for k in runs[w][0] if k != "seed"]
        summ = {m: summary([r[m] for r in runs[w]]) for m in names}
        out["workloads"][w] = {"runs": runs[w], "summary": summ}
        for m in names:
            s = summ[m]
            bound = bounds.get(m)
            print("%-14s %-34s %12.5g %12.5g %12.5g %8.4f %6s" % (
                w, m, s["median"], s["min"], s["max"], s["spread"],
                "-" if bound is None else "%.3f" % bound))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")


def smoke():
    spec = load_spec()
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            before = len(problems)
            try:
                r = run_once(w, 1, 1, trace, ("--scale", "10", "--warmup", "0.5"))
            except RuntimeError as e:
                problems.append(str(e))
            else:
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                if not r["correct"] or r["failed"] or r["attempted"] < 1:
                    problems.append("%s trace=%d: correct=%s attempted=%d "
                                    "failed=%d" % (w, trace, r["correct"],
                                                   r["attempted"], r["failed"]))
                if got != want:
                    problems.append(
                        "%s trace=%d: metrics differ from BENCHMARK.json %s: "
                        "missing %s, extra %s, unit mismatch %s" % (
                            w, trace, key, sorted(set(want) - set(got)),
                            sorted(set(got) - set(want)),
                            sorted(k for k in got if k in want
                                   and got[k] != want[k])))
            print("smoke %-14s trace=%d %s" % (
                w, trace, "ok" if len(problems) == before else "FAILED"),
                flush=True)
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    if args.smoke:
        return smoke()
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    calibrate(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
