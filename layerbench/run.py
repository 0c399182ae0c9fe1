#!/usr/bin/env python3
"""Build and run the layered host-time benchmark.

    python3 layerbench/run.py --workload imatmult --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the `layerbench` binary, and with it the
simulator libraries from src/, in the production configuration (Release,
ACE_CHECK_INVARIANTS=OFF) under .bench_build/layerbench; runs one workload; checks
that the result names exactly the metrics BENCHMARK.json lists for the mode
(`end_to_end` for --trace 0, `per_layer` for --trace 1) with their units; and
prints it as the last line of stdout. Flags beyond the four above
(--serving-seed N, --perturb-seed N) pass through to the binary unchanged.
With --probes 1 it runs only the layer probes and prints their costs, with no
result line.

Exits non-zero without printing a result when the build, the run or the check
fails.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "layerbench"
BINARY = BUILD / "layerbench"
RUN_TIMEOUT_S = 170
# Environment overrides that would take the machine out of the production
# configuration (TLB off, or the TLB poison cross-check armed).
SCRUBBED_ENV = ("ACE_TLB", "ACE_TLB_VERIFY")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("the simulator sources (src/) are missing, so there is nothing to build")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(ROOT / "layerbench"), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "layerbench", "-j", jobs],
    ]
    # Concurrent runs in one checkout share the build tree; build one at a time.
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               text=True, check=False)
            if r.returncode != 0:
                sys.stderr.write(r.stdout)
                fail("build step failed: " + " ".join(cmd))


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}


def check_result(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)} are not correct/attempted/failed/metrics")
    if not isinstance(result["correct"], bool):
        fail("`correct` is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"`{key}` is not a whole number")
    if result["attempted"] < 1:
        fail("nothing was attempted")
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
             f"unexpected {sorted(set(got) - set(want))}")
    for name, metric in got.items():
        value = metric.get("value")
        if metric.get("unit") != want[name]:
            fail(f"{name}: unit {metric.get('unit')!r}, BENCHMARK.json says {want[name]!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{name}: value {value!r} is not a finite number")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probes", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--probes", str(args.probes), *extra]
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                           timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = r.stdout.rstrip("\n").split("\n")
    if args.probes:
        sys.stdout.write(r.stdout)
        sys.exit(r.returncode)
    if r.returncode != 0:
        sys.stdout.write("\n".join(lines) + "\n")
        fail(f"layerbench exited with code {r.returncode}")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("layerbench printed no result line")
    check_result(result, args.trace)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
