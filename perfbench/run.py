#!/usr/bin/env python3
"""Builds the perfbench binary from this source tree and runs one workload.

    python3 perfbench/run.py --workload fleet_replay|serve_mix|cold_plan \
        --seed N --seconds S --trace 0|1

Run it from the root of a deeppool checkout. The first run configures and
builds deeppool's core library plus the perfbench binary (Release) under
.bench_build/perfbench/; later runs only rebuild what changed. The binary's
report goes to stdout and its last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Besides the binary's own output checks, this script
  * checks that the metric names are exactly the ones BENCHMARK.json
    lists for the mode (end_to_end for --trace 0, per_layer for --trace 1);
  * keeps each run's per-round work-count digest, keyed by workload, seed
    and perfbench binary, and fails a run whose digest differs from an
    earlier run with the same key (same seed, same counts).
A failed check exits non-zero.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH = os.path.join(".bench_build", "perfbench", "run")  # relative to ROOT
WORKLOADS = ("fleet_replay", "serve_mix", "cold_plan")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    for required in ("CMakeLists.txt", os.path.join("src", "api", "service.h")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            die("no deeppool source tree around perfbench/ (missing %s)" % required)
    cmake_dir = os.path.join(BUILD, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            die("build timed out: " + " ".join(step), 1)
        if done.returncode != 0:
            die("build failed: " + " ".join(step), 1)
    return os.path.join(cmake_dir, "perfbench")


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_digest(binary, workload, seed, report_lines):
    """Same workload, seed and binary must repeat the work-count digest."""
    digest = next((line.split(": ", 1)[1] for line in report_lines
                   if line.startswith("work digest: ")), None)
    if digest is None:
        return "perfbench printed no work digest"
    with open(binary, "rb") as f:
        binary_id = hashlib.sha256(f.read()).hexdigest()[:16]
    store = os.path.join(BUILD, "digests")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, "%s-%d-%s" % (workload, seed, binary_id))
    if os.path.isfile(path):
        with open(path) as f:
            earlier = f.read().strip()
        if earlier != digest:
            return "work digest %s differs from an earlier run with seed %d (%s)" % (
                digest, seed, earlier)
    else:
        with open(path, "w") as f:
            f.write(digest + "\n")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    binary = build()
    os.makedirs(os.path.join(ROOT, SCRATCH), exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--scratch", SCRATCH]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S), 1)
    lines = done.stdout.splitlines()
    if not lines:
        die("perfbench printed nothing (exit %d)" % done.returncode, 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("perfbench's last line is not a JSON result (exit %d)" %
            done.returncode, 1)
    for line in lines[:-1]:
        print(line)

    problems = []
    expected = expected_metrics(args.trace == "1")
    if expected is not None and set(result["metrics"]) != expected:
        problems.append("metric names differ from BENCHMARK.json: missing %s, extra %s"
                        % (sorted(expected - set(result["metrics"])),
                           sorted(set(result["metrics"]) - expected)))
    digest_problem = check_digest(binary, args.workload, args.seed, lines)
    if digest_problem:
        problems.append(digest_problem)
    for problem in problems:
        print("OUTPUT CHECK FAILED: " + problem)
    if problems:
        result["correct"] = False
    print(json.dumps(result))
    sys.exit(1 if done.returncode != 0 or not result["correct"] else 0)


if __name__ == "__main__":
    main()
