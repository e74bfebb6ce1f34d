#!/usr/bin/env python3
"""Run-to-run spread of the service benchmark's end-to-end metrics.

    python3 svcbench/spread.py --workload multi_tenant --seeds 1-10

Runs svcbench/run.py once per seed (sequentially, untraced) and prints, for
each end-to-end metric, the median, the quartiles (statistics.quantiles,
n=4) and the interquartile distance as a share of the median, next to the
metric's bound. A spread above a third of the bound means the benchmark is
not steady enough for that bound (setup_s is exempt: only its median must
hold). Exits 1 when a run fails or a spread is too wide.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run as bench  # noqa: E402  (the manifest lives in run.py)


def parse_seeds(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w[0] for w in bench.WORKLOADS])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench.RUN_SECONDS)
    args = parser.parse_args()

    values = {name: [] for name, _, _, _ in bench.END_TO_END}
    for seed in parse_seeds(args.seeds):
        start = time.monotonic()
        run = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        wall = time.monotonic() - start
        if run.returncode != 0:
            print(run.stdout)
            print("seed %d failed (exit %d)" % (seed, run.returncode))
            return 1
        result = json.loads(run.stdout.rstrip("\n").split("\n")[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %.1f s wall, %s" % (seed, wall, " ".join(
            "%s=%.6g" % (n, values[n][-1]) for n in values)), flush=True)

    steady = True
    print("%-16s %12s %12s %12s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, _, _, bound in bench.END_TO_END:
        v = values[name]
        median = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        ok = name == "setup_s" or spread <= bound / 3
        steady = steady and ok
        print("%-16s %12.6g %12.6g %12.6g %8.4f %6.2f %s" %
              (name, median, q1, q3, spread, bound, "" if ok else "TOO WIDE"))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
