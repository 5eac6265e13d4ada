#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
the satori library and the satori_perfbench binary (Release) into
.bench_build/perfbench; later runs rebuild only what changed. The
binary's standard output is passed through; its last line is the JSON
result. Checkpoint files go to a temporary directory under
.bench_build that is removed afterwards.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "satori_perfbench")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def build():
    """Configure (once) and build the benchmark; output goes to stderr."""
    generated = [os.path.join(BUILD, f) for f in ("Makefile", "build.ninja")]
    if not any(os.path.exists(f) for f in generated):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "satori_perfbench",
         "--parallel", BUILD_JOBS],
        stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    scratch = tempfile.mkdtemp(prefix="scratch-", dir=BUILD_ROOT)
    try:
        proc = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--scratch", scratch],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: binary exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode or 4
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 5
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
