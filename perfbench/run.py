#!/usr/bin/env python3
"""Build and run the navbench end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload browse_hot --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

The first call configures and builds perfbench/ (an optimised build of the
library sources in src/ plus the benchmark) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only rebuild what changed.
Build output goes to standard error, so the last line of standard output
is the benchmark's JSON result. The metric names of that result are
checked against BENCHMARK.json.
"""

import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "nav", "pipeline.hpp")):
        fail(f"no library sources under {os.path.join(ROOT, 'src')}", 2)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("build failed: " + " ".join(step))
    return os.path.join(out, "navbench")


def git_rev():
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return rev.stdout.strip() if rev.returncode == 0 and rev.stdout.strip() else "unknown"


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv):
    binary = build()
    smoke = "--smoke" in argv
    args = [binary] + argv + ([] if smoke else ["--rev", git_rev()])
    try:
        proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"navbench did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or smoke:
        sys.stdout.write(proc.stdout)
        return proc.returncode
    trace = "--trace" in argv and argv[argv.index("--trace") + 1] != "0"
    want = expected_metrics(trace)
    result = json.loads(lines[-1]) if lines else {}
    got = list(result.get("metrics", {}))
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if want is not None and got != want:
        print("# metric names differ from BENCHMARK.json: "
              f"missing {sorted(set(want) - set(got))}, "
              f"unexpected {sorted(set(got) - set(want))}")
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
