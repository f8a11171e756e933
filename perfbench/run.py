#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1
                             [--selftest]

Run from the repository root. Builds the benchmark package in perfbench/
(the ctrtl libraries, the real ctrtl_serve binary and the load program
perfbench_load) into $CARGO_TARGET_DIR, or .bench_build when unset, then
runs the load program, whose last stdout line is the JSON result. Build output goes
to stderr. Runtime files (socket, journals) live in .perfbench_run/<pid>/
and are removed when the run ends.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve_warm", "serve_cold", "serve_bulk", "claim4")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    package = os.path.join(root, "perfbench")
    for needed in ("src/CMakeLists.txt", "tools/ctrtl_serve.cpp"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the root of a ctrtl checkout")
    cmake_dir = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", package, "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs, "--target",
                    "ctrtl_serve_tool", "perfbench_load"],
                   check=True, stdout=sys.stderr)
    return cmake_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="corrupt one expected value; the run must "
                             "then report correct: false")
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        cmake_dir = build(root, os.path.join(root, build_dir))
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")

    # Relative paths keep the Unix socket path short wherever the checkout is.
    workdir = os.path.join(".perfbench_run", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    command = [os.path.join(cmake_dir, "perfbench_load"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--server", os.path.join(cmake_dir, "ctrtl_serve"),
               "--workdir", workdir]
    if args.selftest:
        command.append("--selftest")
    try:
        result = subprocess.run(command)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
