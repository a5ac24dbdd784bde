#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, as the driver measures it.

Runs each workload --runs times, each time with another --seed, exactly
as the driver does (`bash benchmark/run.sh --workload W --seed N
--seconds S --trace 0`), and prints for each metric the median and the
distance between the quartiles (statistics.quantiles(values, n=4)) as a
share of the median, beside the metric's bound from BENCHMARK.json. A
spread above a third of its bound is flagged. Run from the repository
root:

    python3 benchmark/spread.py [--runs 10] [--workload NAME] [--first-seed 1]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    manifest = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    workloads = args.workload or [w["name"] for w in manifest["workloads"]]
    worst = 0.0
    for workload in workloads:
        values = {name: [] for name in bounds}
        started = time.time()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = manifest["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(manifest["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        per_run = (time.time() - started) / args.runs
        print(f"{workload}: {args.runs} runs, {per_run:.1f} s each")
        for name, series in values.items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / median
            share = spread / bounds[name]
            if name != "setup_s":
                worst = max(worst, share)
            flag = "  <-- above a third of the bound" if share > 1 / 3 else ""
            same = "  <-- reads the same on every run" if len(set(series)) == 1 else ""
            print(f"  {name:<24} median {median:>16.4f}  spread {spread * 100:6.2f}%  bound {bounds[name] * 100:5.1f}%{flag}{same}")
    print(f"largest spread, setup_s aside: {worst * 100:.0f}% of its bound")


if __name__ == "__main__":
    main()
