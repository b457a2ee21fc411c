#!/usr/bin/env python3
"""Builds kgq-perfbench from this checkout and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload serve-mixed|path-heavy \
      --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (which compiles the kgq
library from src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls rebuild
only what changed. Build output goes to stderr. The benchmark's stdout
is passed through: its last line is the result object. The exit code is
the benchmark's (1 on any failed check), or 1 when the build fails.
"""

import argparse
import fcntl
import os
import subprocess
import sys

WORKLOADS = ("serve-mixed", "path-heavy")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("run.py: the kgq sources (src/) are not in this checkout",
              file=sys.stderr)
        return 1

    out_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    build_dir = os.path.join(out_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out_root, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                print("run.py: build failed", file=sys.stderr)
                return 1

    binary = os.path.join(build_dir, "kgq-perfbench")
    trace_out = os.path.join(
        out_root, "perfbench-trace-%s-%d.json" % (args.workload, args.seed))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", trace_out]
    # The passes take about --seconds; set-up, the model and the checks
    # add a few seconds more. Twice that plus a margin is a hung run.
    timeout_s = 2 * args.seconds + 60
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=timeout_s).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % timeout_s, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
