"""Run every workload untraced and traced; print every metric with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [--out FILE]

With --out, the summaries (median, quartiles and sample count of each
metric) are written to FILE together with the environment they came from.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy
import scipy

import run


def environment() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                             capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pins": run.THREAD_PINS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    results = {}
    correct = True
    for name, w in run.WORKLOADS.items():
        for trace in (False, True):
            bench, stats = run.benchmark(w, args.seed, args.seconds, trace)
            run.print_summary(w, args.seed, trace, bench, stats)
            line = run.result_line(bench, stats)
            correct = correct and line["correct"]
            key = "per_layer" if trace else "end_to_end"
            results.setdefault(name, {})[key] = {
                "correct": line["correct"], "attempted": line["attempted"],
                "failed": line["failed"], "metrics": stats}
    if args.out:
        payload = {"environment": environment(), "seed": args.seed,
                   "seconds": args.seconds, "results": results}
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
