#!/usr/bin/env python3
"""Builds and runs the end-to-end PGO benchmark.

Run from the root of a checkout:

    python3 pgobench/run.py --workload server|client|fleet --seed N \
        --seconds S --trace 0|1
    python3 pgobench/run.py --selftest

The benchmark package (pgobench/CMakeLists.txt) is configured and built
against the project's sources under .bench_build/pgobench on first use;
later runs only re-check the build. Build output goes to
.bench_build/pgobench/build.log. A traced run writes its Chrome
trace-event file to .bench_build/traces/<workload>-seed<N>.json. The last
line of standard output is the benchmark's JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "pgobench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")


def fail(msg):
    print("pgobench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the project's sources (src/) are not in this checkout")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD, "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (see %s)" % log_path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["server", "client", "fleet"])
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None
                              or args.seconds is None or args.seed < 0):
        ap.error("--workload, --seed (>= 0) and --seconds are required")

    build()
    if args.selftest:
        sys.exit(subprocess.call([os.path.join(BUILD, "pgobench_selftest")]))

    cmd = [os.path.join(BUILD, "pgobench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            TRACES, "%s-seed%d.json" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)


if __name__ == "__main__":
    main()
