#!/usr/bin/env python3
"""Build the ctile end-to-end benchmark from source and run one workload.

Run from the root of a ctile checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is configured and built (Release) under $CARGO_TARGET_DIR,
or .bench_build when unset, then run; its standard output is passed
through, and its last line is the JSON result.  Build output goes to
standard error.  Reports and traces are written to .bench_out.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("paper16-event", "caption4-thread", "plan-stream", "shape-search")
RUN_TIMEOUT_S = 170


def build(here, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "ctile_e2e"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build"),
        "perfbench")
    build(here, build_dir)

    cmd = [os.path.join(build_dir, "ctile_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", ".bench_out"]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: %s did not finish in %d s" %
                 (args.workload, RUN_TIMEOUT_S))
    sys.exit(rc)


if __name__ == "__main__":
    main()
