#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <analyze-paper|image-build|serve-mixed>
                             --seed <n> --seconds <s> --trace <0|1>

The benchmark binary (perfbench/src) is configured as a CMake project of
its own that compiles the PST library from the checkout's sources in
Release mode. Build trees and the image files a run writes live under
$CARGO_TARGET_DIR (default .bench_build) inside the checkout. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
The exit code is the binary's; any build failure exits 1 without a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd, timeout):
    """Runs a build step; on failure echoes its output to stderr."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
        sys.exit(1)


def build(out):
    # Configure until a build system has been generated (a failed
    # configure leaves a cache behind but no build system).
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("Makefile", "build.ninja")):
        run_quiet(["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", out, "--target", "pst_perfbench",
               "-j", "4"], BUILD_TIMEOUT_S)
    return os.path.join(out, "pst_perfbench")


def main():
    out = build_dir()
    try:
        binary = build(out)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: build timed out\n")
        return 1
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary] + sys.argv[1:] + ["--workdir", work]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
