#!/usr/bin/env python3
"""Run one workload of the benchmark several times, each with its own seed,
and print the median and quartiles of every metric it reports.

    python3 perfbench/spread.py --workload oracle_2d --runs 10 --first-seed 1

Run from the root of the repository. The runs use the command in
BENCHMARK.json with its run length (override with --seconds). The spread of
a metric is (Q3 - Q1) / median, with the quartiles of
statistics.quantiles(values, n=4); the bounds in BENCHMARK.json are set from
it. Prints a table, then one JSON object with every figure, host.cores and
the commit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()

    values, shares, bad = {}, [], 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
        run = subprocess.run(cmd, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            bad += 1
            sys.stderr.write(f"seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}\n")
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            bad += 1
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        sys.stderr.write(f"seed {seed}: " + ", ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()) + "\n")

    figures = {}
    print(f"{args.workload}: {args.runs} runs from seed {args.first_seed}, "
          f"{args.seconds} s each, host.cores={os.cpu_count()}, commit={commit()}")
    print(f"{'metric':34} {'unit':>9} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name, (unit, vals) in sorted(values.items()):
        q1, q2, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else 0.0
        figures[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"{name:34} {unit:>9} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f}")
    print(json.dumps({"workload": args.workload, "runs": args.runs, "first_seed": args.first_seed,
                      "seconds": args.seconds, "host.cores": os.cpu_count(), "commit": commit(),
                      "failed_runs": bad, "failed_shares": sorted(set(shares)), "metrics": figures}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
