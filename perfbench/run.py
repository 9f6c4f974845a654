#!/usr/bin/env python3
"""Build and run the rack benchmark from the root of a checkout.

    python3 perfbench/run.py --workload ycsb-read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

The benchmark is the Go program in perfbench/ (its own module, which
replaces rackblox with the checkout it sits in). This script builds it with
the Go toolchain on PATH, keeping the build cache, the binary and the span
files under .bench_build/, then runs it and passes its exit code on. The
last line of standard output is the result JSON. A failed build exits
non-zero without printing a result. --workload all runs every workload
BENCHMARK.json names in turn and fails if any of them fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def go_env():
    home = os.path.join(OUT, "home")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(OUT, "gocache"),
        GOPATH=os.path.join(OUT, "gopath"),
        GOMODCACHE=os.path.join(OUT, "gopath", "pkg", "mod"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOPROXY="off",
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, "config"),
        XDG_CACHE_HOME=os.path.join(home, "cache"),
    )
    return env


def run(cmd, cwd, env, timeout):
    """Runs cmd to completion; on timeout kills it and waits for it."""
    with subprocess.Popen(cmd, cwd=cwd, env=env) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"run.py: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
            return 1


def main():
    ap = argparse.ArgumentParser(description="Build and run the rack benchmark.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.makedirs(OUT, exist_ok=True)
    env = go_env()
    binary = os.path.join(OUT, "perfbench")
    try:
        # Build output goes to stderr so stdout stays the benchmark's own.
        code = run(["go", "build", "-o", binary, "."], BENCH, env, BUILD_TIMEOUT_S)
    except OSError as err:
        print(f"run.py: go build: {err}", file=sys.stderr)
        return 1
    if code != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    names = [args.workload]
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    failed = 0
    for name in names:
        spans = os.path.join(OUT, "spans", f"{name}-seed{args.seed}-trace{args.trace}.json")
        code = run(
            [binary, "-workload", name, "-seed", str(args.seed),
             "-seconds", str(args.seconds), "-trace", str(args.trace), "-spans", spans,
             "-tmp", tmp],
            ROOT, env, RUN_TIMEOUT_S)
        failed = failed or code
    return failed


if __name__ == "__main__":
    sys.exit(main())
