#!/usr/bin/env python3
"""Run one workload N times and print each metric's median and quartiles.

    python3 perfbench/quartiles.py --workload <name> [--runs 10]
        [--first-seed 1] [--seconds 10] [--trace 0] [--out runs.json]

Run from the repository root. Run i uses seed first_seed + i. For each
metric the table gives the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread: the quartile
distance as a share of the median. End-to-end metrics also show their
BENCHMARK.json bound and whether the spread is within a third of it,
which is how the bounds are set. Exits non-zero if any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--out", help="also write every run's result here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runner = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "run.py")

    results, walls = [], []
    for i in range(args.runs):
        seed = args.first_seed + i
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, runner, "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", args.trace],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        walls.append(time.monotonic() - t0)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print("run with seed %d failed (exit %d)"
                  % (seed, proc.returncode), file=sys.stderr)
            sys.exit(1)
        results.append(dict(json.loads(lines[-1]), seed=seed))
        print("seed %d: %.1f s" % (seed, walls[-1]), file=sys.stderr)

    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)

    print("%s: %d runs, %.0f s measured each, wall median %.1f s"
          % (args.workload, len(results), seconds,
             statistics.median(walls)))
    print("%-36s %14s %14s %14s %8s %6s %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "ok"))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        ok = "" if bound is None or name == "setup_s" else (
            "yes" if spread < bound / 3 else "NO")
        print("%-36s %14.6g %14.6g %14.6g %8.4f %6s %s" % (
            name, med, q1, q3, spread,
            "" if bound is None else bound, ok))


if __name__ == "__main__":
    main()
