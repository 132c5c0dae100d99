#!/usr/bin/env python3
"""Build and run the ctxpref serving benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload hot_hits --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (which compiles ../src)
in Release mode under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs only
re-check the build. Every argument is passed on to the benchmark binary,
whose last line of stdout is the JSON result. Build output goes to
stderr. Default seed 1; held-out seed 7 (see perfbench/README.md).
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def commit_id(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build(root, build_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    bench_dir = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "storage", "serving.h")):
        fail("ctxpref sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if res.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {res.returncode}")
    binary = os.path.join(build_dir, "ctxpref_perfbench")
    if not os.path.isfile(binary):
        fail("benchmark binary missing after build")
    return binary


def main():
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = build(root, build_dir)
    cmd = [binary] + sys.argv[1:] + ["--commit", commit_id(root)]
    try:
        res = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
