#!/usr/bin/env python3
"""Builds the wall-clock benchmark from source and runs one workload.

    python3 wallbench/run.py --workload compile|serve_read|serve_rw \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
wallbench/ (with the eqsql libraries from src/) into .bench_build/;
later calls rebuild only what changed. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. Exits non-zero
without a result when the sources or the build are missing.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "wallbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("wallbench: no eqsql sources under src/; run from a checkout")
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "wallbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "wallbench",
                    "-j", jobs], check=True, stdout=sys.stderr, env=env)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["compile", "serve_read", "serve_rw"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("wallbench: build failed: %s" % err)

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans",
                    os.path.join(BUILD, "spans-%s.jsonl" % args.workload)]
    sys.stdout.flush()
    # The benchmark replaces this process, so no child outlives the run.
    os.execv(BINARY, command)


if __name__ == "__main__":
    main()
