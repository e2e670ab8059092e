#!/usr/bin/env python3
"""Builds the linkage benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_mar --seed 1 --seconds 25 --trace 0

The library and the benchmark are built in Release into the directory
named by CARGO_TARGET_DIR (default .bench_build); build output goes to
standard error. The benchmark's stdout follows: a report, then one JSON
line with "correct", "attempted", "failed" and "metrics". With --trace 1
the metrics are the per-layer ones and the spans are written under
<build dir>/spans/. The exit code is non-zero when the build fails, the
checker's own test fails, any query failed or returned a wrong pair, or
the result line does not name exactly the metrics BENCHMARK.json lists.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("exact_bulk", "paper_mar", "serving_mix")
RUN_TIMEOUT_S = 175


def build(build_dir, env):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True, env=env)
    subprocess.run([os.path.join(build_dir, "linkbench_check_test")],
                   stdout=sys.stderr, check=True, timeout=60, env=env)


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode, or None."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    # Compiler and program temporaries stay inside the build directory.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        build(build_dir, env)
    except (subprocess.SubprocessError, OSError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    command = [os.path.join(build_dir, "linkbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--spans-dir", spans_dir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(proc.stdout)
        print(f"run.py: benchmark exited {proc.returncode}", file=sys.stderr)
        return 1
    want = expected_metrics(args.trace == 1)
    got = set(result.get("metrics", {}))
    if want is not None and got != want:
        sys.stderr.write(proc.stdout)
        print(f"run.py: metrics differ from BENCHMARK.json: missing "
              f"{sorted(want - got)}, extra {sorted(got - want)}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0 if result.get("correct") is True else 1


if __name__ == "__main__":
    sys.exit(main())
