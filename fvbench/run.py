#!/usr/bin/env python3
"""Builds the Farview benchmark from this checkout and runs one workload.

Usage (from the root of a checkout):

    python3 fvbench/run.py --workload offload_scan --seed 1 --seconds 10 --trace 0

The harness is compiled from the checkout's own `src/` tree into
`$CARGO_TARGET_DIR/fvbench` (default `.bench_build/fvbench`); build output
goes to stderr. The harness prints a report and, as its last stdout line, one
JSON object with `correct`, `attempted`, `failed` and `metrics`. The exit code
is the harness's: non-zero when the build fails, the sources are missing or an
output check fails. See fvbench/METRICS.md for the workloads and metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_JOBS = "4"


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build(build_dir):
    """Configures (once) and builds the harness; returns the cmake exit code."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        rc = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr).returncode
        if rc != 0:
            return rc
    return subprocess.run(
        ["cmake", "--build", build_dir, "--target", "fvbench",
         "-j", BUILD_JOBS],
        stdout=sys.stderr).returncode


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("fvbench: no Farview sources (src/) in this checkout",
              file=sys.stderr)
        return 2
    out = build_root()
    build_dir = os.path.join(out, "fvbench")
    rc = build(build_dir)
    if rc != 0:
        print("fvbench: build failed", file=sys.stderr)
        return rc
    exe = os.path.join(build_dir, "fvbench")
    args = [exe] + sys.argv[1:] + ["--trace-dir", os.path.join(out, "traces")]
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
