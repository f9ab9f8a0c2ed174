#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <detail-sweep|sampled-sweep|serve-jobs> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build`). Build output
goes to stderr, so the last line on stdout is the benchmark's result. A
failed build exits 1 without printing a result.

The run gets MALLOC_ARENA_MAX=1. With glibc's default of one malloc arena
per thread, a run's peak resident memory depends on which arena each
short-lived worker thread happened to get: identical runs peaked anywhere
between 147 and 193 MiB (detail-sweep) or 37 and 56 MiB (serve-jobs).
With one arena they peak within 1% of each other, at no measured cost in
speed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    run_env = dict(env, MALLOC_ARENA_MAX="1")
    try:
        return subprocess.run([binary] + sys.argv[1:], env=run_env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
