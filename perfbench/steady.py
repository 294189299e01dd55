#!/usr/bin/env python3
"""Steadiness record: runs each workload repeatedly and reports spreads.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b]
                                [--seed-base 1000] [--trace]

Run it from the repository root. Every run uses its own seed (seed-base,
seed-base + 1, ...). For every end-to-end metric of BENCHMARK.json it
prints the median, the first and third quartile (statistics.quantiles,
n=4), and the spread (Q3 - Q1) / median next to the metric's bound; '!'
marks a spread above a third of its bound. It ends with the share of
failed operations.

With --trace it runs traced and reports the per-layer metrics instead (no
bounds apply to them), plus the end-to-end medians of the traced runs read
from the report, for the tracing overhead. Either way it ends each workload
with per-query medians from the report: batch, first answer, online pass,
recomputes, CI coverage, and the first update's own elapsed_seconds.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


QUERY_LINE = re.compile(
    r"^  (\S+)\s+batch (\S+) s  first (\S+) s  online (\S+) s  "
    r"recomputes (\d+)  coverage (\S+) \(\d+ cells\)  "
    r"elapsed_seconds at first update (\S+) s")
METRIC_LINE = re.compile(r"^  (\S+)\s+(-?[0-9.]+) \S+$")


def run_once(workload, seed, seconds, trace):
    """Runs one workload; returns the result line plus what the report on
    stderr adds: every metric it printed and the per-query figures."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit("run failed: %s\n%s" % (" ".join(cmd), proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["report"], result["queries"] = {}, {}
    for line in proc.stderr.splitlines():
        q = QUERY_LINE.match(line)
        if q:
            result["queries"][q.group(1)] = [float(x) for x in q.groups()[1:]]
            continue
        m = METRIC_LINE.match(line)
        if m:
            result["report"][m.group(1)] = float(m.group(2))
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per workload and set, at least 2")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]

    seed = args.seed_base
    for workload in workloads:
        runs = []
        for _ in range(args.runs):
            runs.append(run_once(workload, seed, bench["run_seconds"], args.trace))
            seed += 1
        print("== %s: %d runs, %d s each" % (workload, args.runs, bench["run_seconds"]))
        print("%-30s %14s %14s %14s %8s %6s" %
              ("metric", "q1", "median", "q3", "spread", "bound"))
        for m in metrics:
            q1, med, q3 = quartiles([r["metrics"][m["name"]]["value"] for r in runs])
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = "!" if bound is not None and spread > bound / 3 else ""
            print("%-30s %14.6g %14.6g %14.6g %7.3f%1s %6s" %
                  (m["name"], q1, med, q3, spread, flag,
                   "" if bound is None else "%.2f" % bound))
        if args.trace:
            print("end-to-end medians of these traced runs:")
            for m in bench["end_to_end"]:
                values = [r["report"][m["name"]] for r in runs]
                print("  %-28s %14.6g" % (m["name"], statistics.median(values)))
        print("%-14s %10s %10s %10s %11s %9s %14s" %
              ("query", "batch_s", "first_s", "online_s", "recomputes", "coverage",
               "engine_first_s"))
        for name in runs[0]["queries"]:
            cols = list(zip(*[r["queries"][name] for r in runs]))
            print("%-14s %10.4f %10.4f %10.4f %11.1f %9.4f %14.4f" %
                  ((name,) + tuple(statistics.median(c) for c in cols)))
        print("%d/%d operations failed, correct=%s" %
              (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs),
               all(r["correct"] for r in runs)))
        print()


if __name__ == "__main__":
    main()
