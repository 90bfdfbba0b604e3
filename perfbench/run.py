#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 perfbench/run.py --workload ingest-steady --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The program is built from source with
CMake into the directory named by CARGO_TARGET_DIR (default .bench_build),
then one workload runs in its own process. The last line of stdout is the
result object; it is checked against BENCHMARK.json before it is printed.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest-steady", "incident-burst", "train-retrain")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(directory, target="perfbench"):
    """Configures (once) and builds `target`; build logs go to stderr."""
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", directory,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", directory, "--target", target,
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(directory, target)


def expected_metrics(spec, trace):
    """{name: unit} of the metrics a run in this mode must report."""
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def validate(result, expected):
    """Returns a list of problems with one result object (empty = valid)."""
    problems = []
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["result keys must be exactly %s" % sorted(RESULT_KEYS)]
    if not isinstance(result["correct"], bool):
        problems.append("correct must be a boolean")
    for key in ("attempted", "failed"):
        value = result[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            problems.append("%s must be a non-negative integer" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted must be at least 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics must be an object"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append("metrics missing %s, unexpected %s" % (missing, extra))
    for name, metric in metrics.items():
        if not isinstance(metric, dict) or set(metric) != {"value", "unit"}:
            problems.append("%s must have exactly value and unit" % name)
            continue
        value = metric["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            problems.append("%s value must be a finite number" % name)
        if name in expected and metric["unit"] != expected[name]:
            problems.append("%s unit %r, expected %r"
                            % (name, metric["unit"], expected[name]))
    return problems


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    directory = build_dir()
    try:
        binary = build(directory)
    except (OSError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 1
    out_dir = os.path.join(directory, "out")
    os.makedirs(out_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "%g" % args.seconds, "--trace", str(args.trace),
               "--out-dir", out_dir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("perfbench: exit code %d" % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    problems = validate(result, expected_metrics(spec, args.trace == 1))
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if problems:
        for problem in problems:
            print("perfbench: invalid result: %s" % problem, file=sys.stderr)
        return 1
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
