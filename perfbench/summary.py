"""Run the benchmark several times and print each metric's spread.

Usage (from the repository root)::

    python3 perfbench/summary.py --runs 10                # end-to-end
    python3 perfbench/summary.py --runs 3 --trace 1       # per-layer
    python3 perfbench/summary.py --workload fleet-short --runs 5

Each run is one ``run.py`` invocation with its own seed (``--first-seed``
onwards). For every workload and metric the table gives the median,
the quartiles, the sample count and the spread: the distance between
the quartiles as a share of the median. End-to-end metrics also show
their bound from ``BENCHMARK.json``; a spread at or above the bound
is marked.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("run failed: %s (exit %d)"
                         % (" ".join(command), proc.returncode))
    return json.loads(lines[-1])


def spread(values) -> tuple:
    """(median, q1, q3, (q3 - q1) / median)."""
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--verbose", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args(argv)

    bench = load_benchmark()
    names = ([w["name"] for w in bench["workloads"]]
             if args.workload == "all" else [args.workload])
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    verdict = 0
    for workload in names:
        runs = [one_run(workload, args.first_seed + index,
                        bench["run_seconds"], args.trace)
                for index in range(args.runs)]
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        correct = all(run["correct"] for run in runs)
        print("%s: %d runs, cells attempted %d, failed %d, all correct: %s"
              % (workload, len(runs), attempted, failed, correct), flush=True)
        print("  %-30s %-10s %12s %12s %12s %4s %8s %7s"
              % ("metric", "unit", "median", "q1", "q3", "n", "spread",
                 "bound"))
        for metric in metrics:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            median, q1, q3, share = spread(values)
            bound = metric.get("bound")
            flag = ""
            if bound is not None and metric["name"] != "setup_s" \
                    and share >= bound:
                flag = "  OVER"
                verdict = 1
            print("  %-30s %-10s %12.5g %12.5g %12.5g %4d %7.2f%% %7s%s"
                  % (metric["name"], metric["unit"], median, q1, q3,
                     len(values), 100 * share,
                     "" if bound is None else "%.0f%%" % (100 * bound), flag),
                  flush=True)
            if args.verbose:
                print("    runs: " + " ".join("%.5g" % v for v in values))
        verdict = verdict or (0 if correct else 1)
    return verdict


if __name__ == "__main__":
    sys.exit(main())
