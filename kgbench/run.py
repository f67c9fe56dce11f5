#!/usr/bin/env python3
"""Build the KGRec benchmark program from this checkout and run one workload.

Usage, from the root of a checkout:

    python3 kgbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark program (kgbench/src, built against the repository's own
CMake build of the library) is compiled into $CARGO_TARGET_DIR, or
.bench_build when that is unset, on the first run; later runs only re-check
the build. Its output
passes through unchanged: tables on stdout and, as the last line, one JSON
object with the keys correct, attempted, failed and metrics. Before that
line is printed, its metric names and units are checked against
BENCHMARK.json (end_to_end with --trace 0, per_layer with --trace 1).

--workload takes the workloads BENCHMARK.json lists and recommend_scan,
which the program keeps but BENCHMARK.json leaves out as unsteady on the
reference host (kgbench/metric_map.json, dropped_workloads); the program
rejects any other name.

A traced run writes its spans to <build dir>/traces/<workload>-<seed>.tsv.
Checkpoints go to a per-run directory under the build directory, removed at
the end. Exits non-zero, without a result line, when the build or the run
fails or the output does not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"kgbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the benchmark program; returns its path."""
    cmake_dir = os.path.join(build_dir, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", cmake_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", cmake_dir, "--target", "kgbench",
                  "--parallel", jobs])
    for step in steps:
        try:
            result = subprocess.run(step, stdout=subprocess.PIPE,
                                    stderr=subprocess.STDOUT, text=True,
                                    timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {step[:2]} failed: {error}")
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-8000:])
            fail(f"build step {' '.join(step[:2])} exited {result.returncode}")
    return os.path.join(cmake_dir, "kgbench")


def check_result(line, spec, trace):
    """The result line must list exactly the BENCHMARK.json metrics."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as error:
        fail(f"last line is not JSON: {error}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result keys {sorted(result)}")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}, or units differ")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"cannot read {spec_path}: {error}")
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)

    work_dir = os.path.join(build_dir, f"work-{os.getpid()}")
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--trace-path",
               os.path.join(trace_dir, f"{args.workload}-{args.seed}.tsv")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail(f"run failed: {error}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"benchmark program exited {run.returncode}")
    check_result(lines[-1], spec, args.trace == 1)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
