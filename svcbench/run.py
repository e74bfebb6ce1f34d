#!/usr/bin/env python3
"""Service benchmark of the SliceNStitch library: one command.

    python3 svcbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark program from source (first run only; CMake into
.bench_build/svcbench at the checkout root), runs one workload, checks that
its outputs are correct, and prints every metric by name with its unit. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of the manifest below
for --trace 0, the per-layer ones for --trace 1.

    python3 svcbench/run.py --write-manifest

writes BENCHMARK.json at the checkout root from the manifest below, the one
place the workloads and metrics are declared. See svcbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "svcbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "svcbench")

RUN_SECONDS = 30

WORKLOADS = [
    ("hot_stream",
     "One NY-Taxi-shaped SNS+RND stream, inline, one tuple per call, timed "
     "in the steady state: the any-time path (window, updater, fitness "
     "tracker) with no runtime, journal or telemetry."),
    ("multi_tenant",
     "48 small journaled streams on 3 shards, batches of 32 via IngestAsync: "
     "open loop at 10000 tuples/s with queries and checkpoints, then a "
     "closed-loop saturation phase: runtime, journal, telemetry."),
    ("anomaly_robust",
     "Chicago-Crime-shaped robust SNS+RND stream with 20 injected spikes and "
     "a detector sink: dense slices, sink fan-out and outlier capture."),
]

# (name, unit, better, bound)
END_TO_END = [
    ("tuples_per_s", "1/s", "higher", 0.25),
    ("latency_p50_us", "us", "lower", 0.25),
    ("latency_p99_us", "us", "lower", 0.25),
    ("query_p99_us", "us", "lower", 0.25),
    ("fitness", "ratio", "higher", 0.2),
    ("precision_at_k", "ratio", "higher", 0.1),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
]

# (name, unit, better). Only per-layer metrics every workload measures go
# in the result line; the numbers of layers a single workload calls (api,
# runtime, durability, telemetry, losses) are printed on lines marked "not
# in the result line".
PER_LAYER = [
    ("stream.window_us_per_tuple", "us", "lower"),
    ("stream.events_per_tuple", "count", "lower"),
    ("core.update_us_p50", "us", "lower"),
    ("core.update_us_p99", "us", "lower"),
    ("core.update_share", "ratio", "lower"),
    ("core.fitness_track_us_per_tuple", "us", "lower"),
    ("core.sampled_row_frac", "ratio", "lower"),
    ("core.init_s", "s", "lower"),
    ("core.fitness_query_us_p50", "us", "lower"),
    ("core.fitness_query_us_p99", "us", "lower"),
    ("bench.unattributed_frac", "ratio", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
]


def manifest():
    return {
        "command": ["python3", "svcbench/run.py"],
        "paths": ["svcbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def fail(message):
    print("svcbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once and builds; build output goes to stderr so the last
    line of stdout stays the result."""
    if not os.path.isfile(os.path.join(ROOT, "src", "slicenstitch.h")):
        fail("no library sources at %s/src; run from a full checkout" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def check_result(result, trace):
    """Validates the program's result line against the manifest."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has keys %s" % sorted(result))
    declared = {m[0]: m[1] for m in (PER_LAYER if trace else END_TO_END)}
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        fail("metrics %s differ from the manifest's %s"
             % (sorted(metrics), sorted(declared)))
    for name, value in metrics.items():
        if value["unit"] != declared[name]:
            fail("metric %s has unit %s, declared %s"
                 % (name, value["unit"], declared[name]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w[0] for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json and exit")
    args = parser.parse_args()

    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as out:
            json.dump(manifest(), out, indent=2)
            out.write("\n")
        return
    if args.workload is None:
        parser.error("--workload is required")

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    run = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--workdir", WORK_DIR],
        stdout=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(run.stdout, end="")
        fail("svcbench printed no result (exit code %d)" % run.returncode)
    check_result(result, bool(args.trace))
    print(lines[-1])
    sys.stdout.flush()
    if run.returncode != 0 or not result["correct"]:
        fail("output checks failed (exit code %d)" % run.returncode)


if __name__ == "__main__":
    main()
