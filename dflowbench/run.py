#!/usr/bin/env python3
"""Builds the dflow benchmark (Release) and runs one workload.

    python3 dflowbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: palfa_search, dissemination, weblab_ingest. The build goes to
$CARGO_TARGET_DIR/dflowbench (default .bench_build/dflowbench) under the
checkout root; build output goes to stderr, so the last line on stdout is
the benchmark's JSON result. The exit status is non-zero when the build
fails, a correctness check fails or a declared metric is missing.

BENCHMARK.json at the checkout root is the one list of metric names and
units: the binary reports values by name, and this script checks them
against it. With --trace 0 it also starts SETUP_PROCESSES extra processes
that only set the system up, and reports setup_s as the median of their
cold set-up times and the main process's own.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("palfa_search", "dissemination", "weblab_ingest")
SETUP_PROCESSES = 2


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    return parser.parse_args()


def build(build_dir):
    """Configures once, then builds incrementally; holds a lock so that
    concurrent runs in one checkout do not build over each other."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        jobs = str(os.cpu_count() or 1)
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "dflowbench",
             "-j", jobs],
            stdout=sys.stderr, check=True)


def describe():
    try:
        result = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "not-a-git-checkout"
    out = result.stdout.strip()
    return out if result.returncode == 0 and out else "not-a-git-checkout"


def run_binary(binary, args, work_dir, extra, echo):
    """Runs the binary once; echoes its account (all but the last line) to
    `echo` and returns (exit code, parsed last line or None)."""
    try:
        result = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--describe", describe(),
             "--work-dir", work_dir] + extra,
            stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = result.stdout.splitlines()
    for line in lines[:-1]:
        print(line, file=echo)
    try:
        last = json.loads(lines[-1]) if lines else None
    except ValueError:
        last = None
    return result.returncode, last


def main():
    args = parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    declared = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "dflowbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"dflowbench: build failed: {error}", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "dflowbench")
    work_dir = os.path.join(target, f"work-{os.getpid()}")

    setups = []
    if args.trace == "0":
        for _ in range(SETUP_PROCESSES):
            code, last = run_binary(binary, args, work_dir,
                                    ["--trace", "0", "--setup-only", "1"],
                                    sys.stderr)
            if code != 0 or last is None or not last["correct"]:
                print("dflowbench: set-up-only process failed",
                      file=sys.stderr)
                return 1
            setups.append(last["metrics"]["setup_s"])

    code, last = run_binary(binary, args, work_dir, ["--trace", args.trace],
                            sys.stdout)
    if last is None:
        print("dflowbench: the binary printed no result", file=sys.stderr)
        return code or 1
    measured = last["metrics"]
    if args.trace == "0":
        setups.append(measured["setup_s"])
        measured["setup_s"] = statistics.median(setups)
        print("note setup_s is the median of cold set-ups, one per process "
              "(s): " + " ".join(f"{s:.6g}" for s in setups))

    correct = bool(last["correct"]) and code == 0
    names = {metric["name"] for metric in declared}
    for name in sorted(set(measured) - names):
        print(f"error metric {name} is not declared in BENCHMARK.json")
        correct = False
    metrics = {}
    unused = [m["name"] for m in declared if m["name"] not in measured]
    if unused and args.trace == "1":
        print(f"note layers not exercised by {args.workload}, reported as 0: "
              + " ".join(unused))
    for metric in declared:
        name = metric["name"]
        value = measured.get(name)
        if name not in measured and args.trace == "0":
            print(f"error end-to-end metric {name} not measured")
            correct = False
        elif name in measured and (value is None or
                                   not math.isfinite(value)):
            print(f"error metric {name} is not a finite number")
            correct = False
        value = value if name in measured and value is not None else 0.0
        print(f"metric {name:<34} {value:14.6g} {metric['unit']}")
        metrics[name] = {"value": value, "unit": metric["unit"]}
    print(json.dumps({"correct": correct, "attempted": last["attempted"],
                      "failed": last["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
