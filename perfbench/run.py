#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

--workload all runs the three workloads one after another with the same
arguments and prints each one's report; the last line is then the last
workload's result.

Run from the repository root.  The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles ../src) into the
directory named by $CARGO_TARGET_DIR, default .bench_build; later calls
only rebuild what changed.  Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result.  Exits
non-zero, without a result line, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("engine_fleet", "session_paper", "session_repair")


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    return p.parse_args()


def build(build_dir, env):
    """Configures once, then builds incrementally.  Returns the binary."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", build_dir, "-j", "3"],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "perfbench")


def main():
    args = parse_args()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        binary = build(build_dir, env)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        sys.stdout.flush()
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", args.trace],
            cwd=ROOT, env=env)
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
