"""Run one workload repeatedly and print each metric's spread.

    python3 perfbench/spread.py --workload landscape --runs 10 [--first-seed 100]

Run ``i`` uses seed ``first-seed + i``, with ``--trace 0`` and the
``run_seconds`` of ``BENCHMARK.json``.  For every end-to-end metric the
command prints the median, the first and third quartiles (Python's
``statistics.quantiles(values, n=4)``), the quartile distance as a share
of the median next to the metric's bound, and the number of runs.  It
also prints the share of failed trials of every run, which must be the
same in all of them.
This is the evidence behind the bounds, and the way to recheck them.
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        config = json.load(fh)
    seconds = config["run_seconds"]
    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"run with seed {seed} exited with code {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        share = result["failed"] / result["attempted"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} (share {share:.6f})", flush=True)
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    print(f"\n{args.workload}, {len(results)} runs, {seconds} s each")
    header = ("metric", "median", "q1", "q3", "iqr/med", "bound")
    print("{:34s} {:>12s} {:>12s} {:>12s} {:>8s} {:>6s}".format(*header))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1 = q3 = median
        if len(values) > 1:
            q1, _q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        print(f"{name:34s} {median:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed shares: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
