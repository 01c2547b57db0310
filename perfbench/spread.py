#!/usr/bin/env python3
"""Run one workload of the benchmark with several seeds and report, per
metric, the median and the run-to-run spread (interquartile distance
over the median, quartiles as statistics.quantiles(values, n=4)).

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1]

Run from the root of a checkout; each run goes through perfbench/run.py.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]

    values = {}
    units = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(here, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit("seed %d failed (exit %d)" % (seed, out.returncode))
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit("seed %d: incorrect output" % seed)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d: %s" % (seed, ", ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in
            sorted(result["metrics"].items()))), flush=True)

    print("\n%-36s %14s %10s  unit" % ("metric", "median", "spread"))
    for name in sorted(values):
        xs = values[name]
        med = statistics.median(xs)
        spread = 0.0
        if len(xs) >= 2 and med != 0:
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / abs(med)
        print("%-36s %14.6g %10.4f  %s" % (name, med, spread, units[name]))


if __name__ == "__main__":
    main()
