#!/usr/bin/env python3
"""Build the lobbench harness from this checkout's sources and run it.

    python3 lobbench/run.py --workload <name> [--seed N] [--seconds S]
                            [--trace 0|1]

Configures lobbench/ (which builds the simulator libraries from src/) as a
Release build in .bench_build/lobbench, builds it (a no-op when up to date),
and runs the harness from the checkout root with the same arguments.  The
harness prints one JSON result as its last stdout line; build output goes to
stderr.  Exits non-zero without a result when the simulator sources are
missing or the build fails.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "lobbench")
# The harness bounds its own run time; this only stops a hung process.
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"lobbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "lobsim", "engine.hpp")):
        fail(f"simulator sources not found under {ROOT}/src")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "lobbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 1)
    steps = ["cmake", "--build", BUILD, "--parallel", jobs]
    if subprocess.run(steps, stdout=sys.stderr).returncode != 0:
        fail("build failed", 1)


def git_describe():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    if out.returncode != 0:
        return "unknown (not a git checkout)"
    return out.stdout.strip()


def main():
    build()
    env = dict(os.environ, LOBBENCH_GIT_DESCRIBE=git_describe())
    harness = [os.path.join(BUILD, "lobbench")] + sys.argv[1:]
    try:
        result = subprocess.run(harness, cwd=ROOT, env=env,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
