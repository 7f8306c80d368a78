#!/usr/bin/env python3
"""Run the benchmark several times and report how steady each metric is.

For every workload and metric this prints the median of the runs, the
distance between the first and third quartile as a share of the median
(the "spread", computed with statistics.quantiles(values, n=4)), the
metric's bound from BENCHMARK.json, and whether the spread stays below a
third of that bound.

Run from the repository root, for example:

    python3 perfbench/steadiness.py --workload corridor --seeds 1,2,3,4,5
    python3 perfbench/steadiness.py --workload all --seeds 11,12,13,14,15,16,17,18,19,20 \
        --log runs.jsonl

A seed may repeat (`--seeds 7,7,7,7,7`) to measure run-to-run noise on one
input. Exits 1 if any run fails its correctness check or any spread other
than setup_s's exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, stdout=subprocess.PIPE, check=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seeds", required=True, help="comma-separated seeds, one run each")
    parser.add_argument("--seconds", type=int, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--log", help="append every run's result line to this file")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = opts.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = ([w["name"] for w in bench["workloads"]]
                 if opts.workload == "all" else [opts.workload])
    seeds = [int(s) for s in opts.seeds.split(",")]

    ok = True
    for workload in workloads:
        results = []
        for seed in seeds:
            result = run_once(bench["command"], workload, seed, seconds, opts.trace)
            results.append(result)
            if opts.log:
                with open(opts.log, "a") as log:
                    log.write(json.dumps({"workload": workload, "seed": seed,
                                          "trace": opts.trace, "result": result}) + "\n")
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}")
                ok = False
        print(f"== {workload}: {len(results)} runs, seeds {opts.seeds}, {seconds} s each")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            if len(values) >= 2 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
            else:
                spread = float("nan")
            bound = bounds.get(name) if opts.trace == 0 else None
            verdict = ""
            if bound is not None:
                verdict = "steady" if spread < bound / 3 else (
                    "within bound" if spread <= bound else "TOO NOISY")
                if spread > bound and name != "setup_s":
                    ok = False
            print(f"  {name:<40} median {median:>14.6g}  spread {spread:8.4f}"
                  + (f"  bound {bound:<5} {verdict}" if bound is not None else ""))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
