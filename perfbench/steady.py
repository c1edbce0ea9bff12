#!/usr/bin/env python3
"""Steadiness self-check for the repository benchmark.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]

Runs every workload named in BENCHMARK.json --runs times untraced for its
run_seconds, each time with another seed, through perfbench/run.py.  For
each end-to-end metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median, and
flags a spread above the metric's bound in BENCHMARK.json with "!!".
setup_s is exempt from the flag: its bound holds its median, not its
spread.  Exits 1 if any metric is flagged or any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{workload} seed {seed}: output check failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    flagged = False
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for i in range(args.runs):
            try:
                runs.append(run_once(workload, args.first_seed + i, bench["run_seconds"]))
            except RuntimeError as e:
                print(f"FAILED {e}")
                return 1
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        for name, bound in bounds.items():
            series = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            over = spread > bound and name != "setup_s"
            mark = "!!" if over else ""
            flagged = flagged or over
            print(f"  {name:16s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}"
                  f"  spread {spread:7.4f}  bound {bound:5.3f} {mark}")
        sys.stdout.flush()
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
