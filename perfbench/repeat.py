#!/usr/bin/env python3
"""Runs the benchmark repeatedly, one seed per run, and prints for each
metric the median, the quartiles and their distance as a share of the
median (the run-to-run spread).

    python3 perfbench/repeat.py --workload dlrm-serve --runs 10 [--trace 1]

Run from the root of a checkout, like run.py.
"""

import argparse
import json
import os
import subprocess
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]

    values, shares = {}, set()
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print("seed %d: exit %d" % (seed, proc.returncode))
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add(result["failed"] / result["attempted"])
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]),
            flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print("failed shares: %s" % sorted(shares))
    for name, vs in values.items():
        vs = [v for v in vs if v is not None]
        if len(vs) < 2:
            print("%-32s %s" % (name, vs))
            continue
        q1, q2, q3 = stats.quartiles(vs)
        spread = stats.relative_spread(vs)
        print("%-32s median %-12.6g q1 %-12.6g q3 %-12.6g spread %s" % (
            name, q2, q1, q3, "n/a" if spread is None else "%.4f" % spread))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
