#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are across runs.

Usage (from the repository root):
  python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--seed-base 1]
      [--workloads serve-mixed,path-heavy]

Runs every workload --runs times per set, each run with another seed
(seed-base, seed-base+1, ...; the same seeds in every set). The sets
alternate run by run, and each step cycles through the workloads, so no
set or workload has its runs bunched together. For each workload x
metric it prints, per set, the median, quartiles, min and max, and the
quartile spread as a share of the median next to the metric's bound
from BENCHMARK.json. With --sets 2 it also compares the two sets'
medians against the bounds, and the failed shares. It exits 1 unless
every spread, setup_s included, is below a third of its bound, the
second set's medians are nowhere worse than the first's by more than
the bound, and the failed share is the same in every run. Run length is
BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root, command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: correct=false" % (workload, seed))
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2, choices=(1, 2))
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]
    bounds = {m["name"]: m["bound"] for m in metrics}
    better = {m["name"]: m["better"] for m in metrics}

    # results[set][workload] = list of result objects
    results = [{w: [] for w in workloads} for _ in range(args.sets)]
    for i in range(args.runs):
        for s in range(args.sets):
            for w in workloads:
                r = run_once(root, spec["command"], w, args.seed_base + i,
                             spec["run_seconds"])
                results[s][w].append(r)
                print("set %d run %d %-12s %s" % (
                    s + 1, i + 1, w, " ".join(
                        "%s=%.6g" % (k, v["value"])
                        for k, v in r["metrics"].items())),
                    file=sys.stderr, flush=True)

    ok = True
    for w in workloads:
        print("\n%s" % w)
        print("  %-28s %12s %12s %12s %12s %12s %8s %8s" % (
            "metric", "median", "q1", "q3", "min", "max", "spread", "bound"))
        for m in (x["name"] for x in metrics):
            for s in range(args.sets):
                st = summarize([r["metrics"][m]["value"]
                                for r in results[s][w]])
                bound = bounds[m]
                flag = ""
                if st["spread"] > bound / 3:
                    flag = "  <-- spread above bound/3"
                    ok = False
                print("  %-28s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %8s%s"
                      % (m if s == 0 else "  (set 2)", st["median"], st["q1"],
                         st["q3"], st["min"], st["max"], st["spread"],
                         bound, flag))
            if args.sets == 2:
                m1 = statistics.median(r["metrics"][m]["value"]
                                       for r in results[0][w])
                m2 = statistics.median(r["metrics"][m]["value"]
                                       for r in results[1][w])
                worse = (m2 - m1) / m1 if better[m] == "lower" else (m1 - m2) / m1
                print("    set 2 median vs set 1: %+.4f worse%s" % (
                    worse, "  <-- above bound" if worse > bounds[m] else ""))
                if worse > bounds[m]:
                    ok = False
        shares = set()
        for s in range(args.sets):
            shares.add(tuple((r["failed"], r["attempted"])
                             for r in results[s][w]))
        fail_shares = {f / a for share in shares for f, a in share}
        print("  failed share(s): %s" % sorted(fail_shares))
        if len(fail_shares) != 1:
            ok = False
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
