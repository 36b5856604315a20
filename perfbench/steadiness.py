#!/usr/bin/env python3
"""Steadiness report: run each workload repeatedly and summarise each metric.

    python3 perfbench/steadiness.py [--workload NAME ...]

Run from the repository root. For every workload of BENCHMARK.json (or
those named) it runs perfbench/run.py ten times, seeds 1-10, run_seconds
each, untraced, and prints per end-to-end metric the median, the quartiles
(statistics.quantiles, n=4), min and max, and the spread (Q3 - Q1) / median
next to the metric's bound from BENCHMARK.json. Then it reruns on three
holdout seeds (90001-90003) that were not used while the benchmark was
built, and prints how far their median lies from the first one, as a share
of it: a metric that depends on
the seed rather than on the code shows up there. A run whose output checks
fail is reported and counted. Exits 1 if any run failed or any spread is
over its bound (setup_s excepted: it is judged by its median), 0 otherwise.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
HOLDOUT_SEEDS = range(90001, 90004)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        return None
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"] != 0:
        print("  seed %d: FAILED checks: %s" % (seed, [l for l in lines if "FAILED" in l]))
    return res


def summarise(runs):
    """metric -> (unit, values) over the runs that produced a result."""
    table = {}
    for res in runs:
        for name, m in res["metrics"].items():
            table.setdefault(name, (m["unit"], []))[1].append(m["value"])
    return table


def spread(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, ((q3 - q1) / med if med else 0.0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bad = False
    for wl in workloads:
        print("== %s (%d runs, %gs each)" % (wl, len(SEEDS), seconds))
        main_runs = [run_once(wl, seed, seconds) for seed in SEEDS]
        hold_runs = [run_once(wl, seed, seconds) for seed in HOLDOUT_SEEDS]
        failed = [r for r in main_runs + hold_runs
                  if r is None or not r["correct"] or r["failed"] != 0]
        if failed:
            bad = True
            print("  %d run(s) failed or lost deliveries" % len(failed))
        table = summarise([r for r in main_runs if r])
        hold = summarise([r for r in hold_runs if r])
        print("  %-30s %-6s %12s %12s %12s %12s %12s %7s %6s %8s" %
              ("metric", "unit", "median", "q1", "q3", "min", "max", "spread", "bound",
               "holdout"))
        for name, (unit, vals) in table.items():
            if len(vals) < 2:
                continue
            med, q1, q3, spr = spread(vals)
            bound = bounds.get(name)
            hmed = statistics.median(hold[name][1]) if name in hold else None
            shift = (hmed - med) / med if hmed is not None and med else 0.0
            flag = ""
            if bound is not None and name != "setup_s" and spr > bound:
                flag, bad = " OVER", True
            print("  %-30s %-6s %12.5g %12.5g %12.5g %12.5g %12.5g %7.4f %6s %+8.4f%s" %
                  (name, unit, med, q1, q3, min(vals), max(vals), spr,
                   "" if bound is None else "%.2f" % bound, shift, flag))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
