#!/usr/bin/env python3
"""Builds and runs the end-to-end COSMOS benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/CMakeLists.txt (the library
sources under src/ plus perfbench/main.cc, Release) into .bench_build/perfbench;
later runs rebuild only what changed. Build output goes to standard error, so
standard output is the benchmark's own report, whose last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

With --trace 1 a Chrome trace of one window of the traced run is written to
.bench_build/perfbench-<workload>.trace.json unless --trace-out is given.
The exit code is non-zero when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "cosmos_perfbench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # The build's chatter must not reach stdout, whose last line is the
        # result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def option(args, name):
    """The value following `name` in args, or None."""
    return args[args.index(name) + 1] if name in args[:-1] else None


def main():
    args = sys.argv[1:]
    build()
    if option(args, "--trace") == "1" and option(args, "--trace-out") is None:
        workload = option(args, "--workload") or "unknown"
        args += ["--trace-out",
                 os.path.join(ROOT, ".bench_build",
                              "perfbench-%s.trace.json" % workload)]
    return subprocess.run([BINARY] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
